// Wire encoding primitives.
//
// Experiment E3 (timestamp overhead vs N) measures *bytes on the wire*,
// so messages are serialized through a realistic codec instead of
// counting abstract "vector elements".  We use LEB128 unsigned varints
// (the standard protobuf/WebAssembly encoding) plus zigzag for signed
// values and length-prefixed byte strings.
#pragma once

#include <cstdint>
#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/check.hpp"

namespace ccvc::util {

/// Growable byte buffer used as a serialization target.
class ByteSink {
 public:
  void put_u8(std::uint8_t b) { bytes_.push_back(b); }

  /// Unsigned LEB128 varint.
  void put_uvarint(std::uint64_t v);

  /// Signed varint via zigzag mapping.
  void put_svarint(std::int64_t v);

  /// Length-prefixed byte string.
  void put_string(std::string_view s);

  /// Raw bytes, no length prefix.
  void put_raw(const void* data, std::size_t n);

  /// Pre-sizes the buffer for an encoder that knows its exact length.
  void reserve(std::size_t n) { bytes_.reserve(n); }

  const std::vector<std::uint8_t>& bytes() const { return bytes_; }
  /// Moves the encoded bytes out, leaving the sink empty — encoders
  /// return their payload without a copy.
  std::vector<std::uint8_t> take() && { return std::move(bytes_); }
  std::size_t size() const { return bytes_.size(); }
  void clear() { bytes_.clear(); }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// Thrown when a ByteSource runs out of data or sees malformed input.
class DecodeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Read-only cursor over an encoded byte buffer.
class ByteSource {
 public:
  explicit ByteSource(const std::vector<std::uint8_t>& bytes)
      : data_(bytes.data()), size_(bytes.size()) {}
  ByteSource(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  std::uint8_t get_u8();
  std::uint64_t get_uvarint();

  /// Varint constrained to 32 bits — for wire fields that decode into
  /// 32-bit identifiers (SiteId).  A value above UINT32_MAX is malformed
  /// input and throws DecodeError; a silent `static_cast` here would
  /// alias distinct site ids and corrupt causality verdicts.
  std::uint32_t get_uvarint32();

  std::int64_t get_svarint();
  std::string get_string();

  bool exhausted() const { return pos_ == size_; }
  std::size_t remaining() const { return size_ - pos_; }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

/// Number of bytes put_uvarint would emit for v (for overhead analysis
/// without materializing a buffer).
inline std::size_t uvarint_size(std::uint64_t v) {
  std::size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

/// Longest LEB128 encoding of a 64-bit value.
inline constexpr std::size_t kMaxUvarintBytes = 10;

/// Writes the put_uvarint bytes of v to `out`, which has room for
/// kMaxUvarintBytes, and returns how many it wrote — for encoders that
/// build a few varints on the stack instead of in a ByteSink.  Inline:
/// the broadcast loop runs it several times per destination.
inline std::size_t encode_uvarint(std::uint64_t v, std::uint8_t* out) {
  std::size_t n = 0;
  while (v >= 0x80) {
    out[n++] = static_cast<std::uint8_t>(v) | 0x80u;
    v >>= 7;
  }
  out[n++] = static_cast<std::uint8_t>(v);
  return n;
}

}  // namespace ccvc::util
