#include "util/checksum.hpp"

#include <array>
#include <bit>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define CCVC_CRC32_CLMUL 1
#endif

namespace ccvc::util {

namespace {

constexpr std::uint32_t kPoly = 0xEDB88320u;

using Table = std::array<std::uint32_t, 256>;

// Slice-by-8 (Kounavis & Berry, ISCC 2005).  kTables[0] is the classic
// bytewise table; kTables[k][b] is the CRC register after byte b is
// followed by k zero bytes, so one lookup per byte of an 8-byte word
// advances the register by the whole word at once.
constexpr std::array<Table, 8> make_tables() {
  std::array<Table, 8> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? (kPoly ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr std::array<Table, 8> kTables = make_tables();

// The kernel consumes words least significant byte first, the order the
// reflected CRC consumes bytes.
std::uint32_t load_le32(const std::uint8_t* p) {
  std::uint32_t w = 0;
  std::memcpy(&w, p, sizeof w);
  if constexpr (std::endian::native == std::endian::big) {
    w = __builtin_bswap32(w);
  }
  return w;
}

// Advances the raw (pre-inverted) register `c` over n bytes.
std::uint32_t sliced(const std::uint8_t* p, std::size_t n, std::uint32_t c) {
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = load_le32(p) ^ c;
    const std::uint32_t hi = load_le32(p + 4);
    c = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
        kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
        kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
        kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    c = kTables[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  }
  return c;
}

#ifdef CCVC_CRC32_CLMUL

#define CCVC_CLMUL_TARGET __attribute__((target("pclmul,sse4.1")))

CCVC_CLMUL_TARGET __m128i load(const std::uint8_t* q) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(q));
}

// a·k_lo ⊕ a·k_hi (one lane times a fold constant pair) ⊕ b.
CCVC_CLMUL_TARGET __m128i fold(__m128i a, __m128i k, __m128i b) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(a, k, 0x00),
                                     _mm_clmulepi64_si128(a, k, 0x11)),
                       b);
}

// Carry-less-multiply folding (Gopal et al., Intel, "Fast CRC
// Computation for Generic Polynomials Using PCLMULQDQ", 2009), in the
// bit-reflected domain of 0xEDB88320.  Four 128-bit lanes fold 64 bytes
// per step (x^(4·128±32) mod P), collapse into one lane (x^(128±32)),
// fold any further 16-byte blocks, shrink 128 → 64 → 32 bits and finish
// with a Barrett reduction.  Advances the raw register `c` over n bytes,
// n ≥ 64 and a multiple of 16.
CCVC_CLMUL_TARGET std::uint32_t folded(
    const std::uint8_t* p, std::size_t n, std::uint32_t c) {
  alignas(16) static constexpr std::uint64_t k1k2[] = {0x0154442bd4,
                                                       0x01c6e41596};
  alignas(16) static constexpr std::uint64_t k3k4[] = {0x01751997d0,
                                                       0x00ccaa009e};
  alignas(16) static constexpr std::uint64_t k5[] = {0x0163cd6124, 0};
  // P' (the reflected polynomial with its x^32 term) and μ = x^64 / P.
  alignas(16) static constexpr std::uint64_t poly_mu[] = {0x01db710641,
                                                          0x01f7011641};
  __m128i x1 = _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x2 = load(p + 16);
  __m128i x3 = load(p + 32);
  __m128i x4 = load(p + 48);
  p += 64;
  n -= 64;

  __m128i k = _mm_load_si128(reinterpret_cast<const __m128i*>(k1k2));
  for (; n >= 64; p += 64, n -= 64) {
    x1 = fold(x1, k, load(p));
    x2 = fold(x2, k, load(p + 16));
    x3 = fold(x3, k, load(p + 32));
    x4 = fold(x4, k, load(p + 48));
  }

  k = _mm_load_si128(reinterpret_cast<const __m128i*>(k3k4));
  x1 = fold(x1, k, x2);
  x1 = fold(x1, k, x3);
  x1 = fold(x1, k, x4);
  for (; n >= 16; p += 16, n -= 16) x1 = fold(x1, k, load(p));

  // 128 → 64 bits: the low half, times k4, folds into the high half.
  const __m128i mask32 = _mm_setr_epi32(~0, 0, ~0, 0);
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), _mm_clmulepi64_si128(x1, k, 0x10));
  // 64 → 32 bits, times k5, leaving 64 bits for Barrett.
  k = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(k5));
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), k, 0x00));
  // Barrett: r = x ⊕ ((x·μ mod x^32)·P'), the remainder in bits 32..63.
  k = _mm_load_si128(reinterpret_cast<const __m128i*>(poly_mu));
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), k, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, mask32), k, 0x00);
  return static_cast<std::uint32_t>(_mm_extract_epi32(_mm_xor_si128(x1, t), 1));
}

bool has_clmul() {
  static const bool yes = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
  }();
  return yes;
}

#endif  // CCVC_CRC32_CLMUL

}  // namespace

std::uint32_t crc32(const void* data, std::size_t n, std::uint32_t seed) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
#ifdef CCVC_CRC32_CLMUL
  if (n >= 64 && has_clmul()) {
    const std::size_t blocks = n & ~std::size_t{15};
    c = folded(p, blocks, c);
    p += blocks;
    n -= blocks;
  }
#endif
  return sliced(p, n, c) ^ 0xFFFFFFFFu;
}

namespace detail {

std::uint32_t crc32_sliced(const void* data, std::size_t n,
                           std::uint32_t seed) {
  return sliced(static_cast<const std::uint8_t*>(data), n,
                seed ^ 0xFFFFFFFFu) ^
         0xFFFFFFFFu;
}

}  // namespace detail

}  // namespace ccvc::util
