#include "util/checksum.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace ccvc::util {
namespace {

std::vector<std::uint8_t> bytes_of(const std::string& s) {
  return std::vector<std::uint8_t>(s.begin(), s.end());
}

TEST(Crc32, KnownVectors) {
  // The standard CRC-32 (IEEE 802.3, reflected, poly 0xEDB88320) check
  // value for "123456789".
  EXPECT_EQ(crc32(bytes_of("123456789")), 0xCBF43926u);
  EXPECT_EQ(crc32(bytes_of("")), 0x00000000u);
  EXPECT_EQ(crc32(bytes_of("a")), 0xE8B7BE43u);
}

TEST(Crc32, ChainingEqualsOneShot) {
  const auto all = bytes_of("the quick brown fox");
  const auto head = bytes_of("the quick ");
  const auto tail = bytes_of("brown fox");
  const std::uint32_t chained = crc32(tail, crc32(head));
  EXPECT_EQ(chained, crc32(all));
}

TEST(Crc32, DetectsEverySingleByteFlip) {
  const auto base = bytes_of("compressed vector clock");
  const std::uint32_t want = crc32(base);
  for (std::size_t i = 0; i < base.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      auto mutated = base;
      mutated[i] ^= static_cast<std::uint8_t>(1u << bit);
      EXPECT_NE(crc32(mutated), want) << "byte " << i << " bit " << bit;
    }
  }
}

// The classic one-table loop, kept here only as the reference the
// word-at-a-time kernel must reproduce bit for bit.
std::uint32_t bytewise_crc32(const std::uint8_t* p, std::size_t n,
                             std::uint32_t seed = 0) {
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
  }
  return c ^ 0xFFFFFFFFu;
}

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> b(n);
  for (auto& x : b) x = static_cast<std::uint8_t>(rng.below(256));
  return b;
}

TEST(Crc32, SlicedKernelMatchesBytewiseReference) {
  // Every length through several 8-byte steps plus every tail, at every
  // start alignment of the 8-byte loads.
  const auto buf = random_bytes(1100 + 8, 2005);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t n = 0; n <= 1100; ++n) {
      const std::uint8_t* p = buf.data() + offset;
      ASSERT_EQ(crc32(p, n), bytewise_crc32(p, n))
          << "offset " << offset << " length " << n;
    }
  }
  // Seed chaining splits the kernel's words at every point.
  const auto all = random_bytes(300, 9);
  const std::uint32_t whole = crc32(all);
  ASSERT_EQ(whole, bytewise_crc32(all.data(), all.size()));
  for (std::size_t split = 0; split <= all.size(); ++split) {
    const std::uint32_t head = crc32(all.data(), split);
    ASSERT_EQ(crc32(all.data() + split, all.size() - split, head), whole)
        << "split " << split;
  }
}

TEST(Crc32, PointerOverloadMatchesVectorOverload) {
  const auto v = bytes_of("xyz");
  EXPECT_EQ(crc32(v.data(), v.size()), crc32(v));
}

}  // namespace
}  // namespace ccvc::util
