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

// Both kernels against the reference: every length through many 64-byte
// blocks, 16-byte folds and tails, at every start offset of a 16-byte
// lane, and seed chaining split at every 16- and 64-byte boundary.
void expect_matches_reference(
    std::uint32_t (*kernel)(const void*, std::size_t, std::uint32_t)) {
  const auto buf = random_bytes(4096 + 16, 2005);
  for (std::size_t offset = 0; offset < 16; ++offset) {
    const std::uint8_t* p = buf.data() + offset;
    std::uint32_t want = 0;  // the reference over p[0, n), one byte at a time
    for (std::size_t n = 0; n <= 4096; ++n) {
      ASSERT_EQ(kernel(p, n, 0), want)
          << "offset " << offset << " length " << n;
      want = bytewise_crc32(p + n, 1, want);
    }
  }
  const auto all = random_bytes(1000, 9);
  const std::uint32_t whole = bytewise_crc32(all.data(), all.size());
  ASSERT_EQ(kernel(all.data(), all.size(), 0), whole);
  for (std::size_t split = 0; split <= all.size(); ++split) {
    const std::uint32_t head = kernel(all.data(), split, 0);
    ASSERT_EQ(kernel(all.data() + split, all.size() - split, head), whole)
        << "split " << split;
  }
  // Three pieces, each cut one byte either side of a 16- or 64-byte
  // boundary, so every piece starts and ends off a block edge.
  for (std::size_t a = 15; a <= 200; a += 16) {
    for (std::size_t b = a + 47; b <= 700; b += 64) {
      for (const std::size_t da : {std::size_t{0}, std::size_t{1}, std::size_t{2}}) {
        const std::size_t cut1 = a + da;
        const std::size_t cut2 = b + da;
        std::uint32_t c = kernel(all.data(), cut1, 0);
        c = kernel(all.data() + cut1, cut2 - cut1, c);
        c = kernel(all.data() + cut2, all.size() - cut2, c);
        ASSERT_EQ(c, whole) << "cuts " << cut1 << ", " << cut2;
      }
    }
  }
}

TEST(Crc32, SlicedKernelMatchesBytewiseReference) {
  // crc32() itself: the folding kernel plus its sliced tail on a CPU
  // with PCLMULQDQ, the sliced kernel alone elsewhere.
  expect_matches_reference(
      [](const void* p, std::size_t n, std::uint32_t seed) {
        return crc32(p, n, seed);
      });
}

TEST(Crc32, TablePathMatchesBytewiseReference) {
  // The slice-by-8 path every host without PCLMULQDQ runs for all input.
  expect_matches_reference(&detail::crc32_sliced);
}

TEST(Crc32, PointerOverloadMatchesVectorOverload) {
  const auto v = bytes_of("xyz");
  EXPECT_EQ(crc32(v.data(), v.size()), crc32(v));
}

}  // namespace
}  // namespace ccvc::util
