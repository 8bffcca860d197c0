// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) over byte spans.
//
// The reliability sublayer (engine/reliable_link.hpp) trails every frame
// with a CRC so the fault model's byte corruption is *detected* at the
// receiver instead of silently decoding into garbage operations.  CRC-32
// guarantees detection of any single error burst up to 32 bits — which
// covers the injector's single-byte flips exactly — and catches longer
// damage with probability 1 - 2^-32.
//
// Two kernels, one output.  On x86 CPUs with PCLMULQDQ (checked once,
// at the first call), an input of at least 64 bytes has its 16-byte
// multiple folded by carry-less multiplication (Gopal et al., Intel,
// 2009) and Barrett-reduced.  Everything else — the tail, short inputs,
// other CPUs and architectures — runs slice-by-8: eight bytes per step
// through eight 256-entry tables, bytewise for the tail.  Same
// polynomial, same output as the classic one-table loop — not CRC-32C,
// whose hardware instruction would change every framed byte.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ccvc::util {

/// CRC-32 of `n` bytes at `data`.  `seed` chains incremental computation:
/// crc32(ab) == crc32(b, crc32(a)).
std::uint32_t crc32(const void* data, std::size_t n, std::uint32_t seed = 0);

inline std::uint32_t crc32(const std::vector<std::uint8_t>& bytes,
                           std::uint32_t seed = 0) {
  return crc32(bytes.data(), bytes.size(), seed);
}

namespace detail {

/// crc32() through the slice-by-8 kernel alone, whatever the CPU: the
/// path hosts without PCLMULQDQ take, exposed so tests cover it there.
std::uint32_t crc32_sliced(const void* data, std::size_t n,
                           std::uint32_t seed = 0);

}  // namespace detail

}  // namespace ccvc::util
