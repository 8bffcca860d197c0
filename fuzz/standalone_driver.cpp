// Minimal libFuzzer-compatible driver for toolchains without
// -fsanitize=fuzzer (this repo's CI image is GCC-only).
//
// Understands the subset of the libFuzzer CLI the smoke tests use:
// positional arguments are corpus files or non-empty directories (a
// missing path or an empty directory exits 1), `-runs=N` asks
// for N extra mutation rounds, `-seed=N` fixes the mutation RNG, and
// `-max_len=N` caps mutated inputs.  Every corpus input is replayed
// verbatim first, then each round mutates a corpus pick with byte
// flips/insertions/truncations and feeds it to LLVMFuzzerTestOneInput.
// Memory-safety coverage comes from the CCVC_SANITIZE instrumentation
// of the linked libraries; this driver only supplies the data loop, so
// it is deterministic and usable as a plain ctest test.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size);

namespace {

using Bytes = std::vector<std::uint8_t>;

std::uint64_t g_rng = 0x9e3779b97f4a7c15ull;

std::uint64_t next_rand() {
  // xorshift64* — deterministic across platforms, no <random> needed.
  g_rng ^= g_rng >> 12;
  g_rng ^= g_rng << 25;
  g_rng ^= g_rng >> 27;
  return g_rng * 0x2545f4914f6cdd1dull;
}

Bytes read_file(const std::filesystem::path& p) {
  std::ifstream in(p, std::ios::binary);
  const std::string s((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  Bytes b(s.size());
  std::memcpy(b.data(), s.data(), s.size());
  return b;
}

void load_corpus(const char* arg, std::vector<Bytes>& corpus) {
  namespace fs = std::filesystem;
  const fs::path p(arg);
  std::error_code ec;
  if (fs::is_directory(p, ec)) {
    std::vector<fs::path> files;
    for (const auto& entry : fs::directory_iterator(p)) {
      if (entry.is_regular_file()) files.push_back(entry.path());
    }
    // With no seeds, a smoke run would pass on the empty input alone.
    if (files.empty()) {
      std::fprintf(stderr, "standalone_driver: no files in corpus dir: %s\n",
                   arg);
      std::exit(1);
    }
    // directory_iterator order is unspecified; sort for determinism.
    std::sort(files.begin(), files.end());
    for (const auto& f : files) corpus.push_back(read_file(f));
  } else if (fs::is_regular_file(p, ec)) {
    corpus.push_back(read_file(p));
  } else {
    std::fprintf(stderr, "standalone_driver: no such corpus input: %s\n", arg);
    std::exit(1);
  }
}

Bytes mutate(const Bytes& base, std::size_t max_len) {
  Bytes out = base;
  const std::uint64_t n_edits = 1 + next_rand() % 4;
  for (std::uint64_t e = 0; e < n_edits; ++e) {
    switch (next_rand() % 4) {
      case 0:  // flip a byte
        if (!out.empty())
          out[static_cast<std::size_t>(next_rand() % out.size())] ^=
              static_cast<std::uint8_t>(1u << (next_rand() % 8));
        break;
      case 1:  // insert a random byte
        if (out.size() < max_len)
          out.insert(out.begin() +
                         static_cast<std::ptrdiff_t>(next_rand() %
                                                     (out.size() + 1)),
                     static_cast<std::uint8_t>(next_rand()));
        break;
      case 2:  // truncate
        if (!out.empty())
          out.resize(static_cast<std::size_t>(next_rand() % out.size()));
        break;
      case 3:  // overwrite with an interesting value
        if (!out.empty()) {
          static constexpr std::uint8_t kMagic[] = {0x00, 0x01, 0x7f, 0x80,
                                                    0xff, 0xc1, 0xc2, 0xc4};
          out[static_cast<std::size_t>(next_rand() % out.size())] =
              kMagic[next_rand() % (sizeof kMagic)];
        }
        break;
    }
  }
  if (out.size() > max_len) out.resize(max_len);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  long long runs = 0;
  std::size_t max_len = 4096;
  std::vector<Bytes> corpus;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "-runs=", 6) == 0) {
      runs = std::atoll(arg + 6);
    } else if (std::strncmp(arg, "-seed=", 6) == 0) {
      g_rng = static_cast<std::uint64_t>(std::atoll(arg + 6)) |
              0x9e3779b97f4a7c15ull;
    } else if (std::strncmp(arg, "-max_len=", 9) == 0) {
      max_len = static_cast<std::size_t>(std::atoll(arg + 9));
    } else if (arg[0] == '-') {
      // Ignore other libFuzzer flags so invocations stay portable.
    } else {
      load_corpus(arg, corpus);
    }
  }

  // The empty input is always part of the corpus — decoders must reject
  // it cleanly, and mutation needs a base even with no files given.
  corpus.push_back(Bytes{});

  for (const Bytes& input : corpus) {
    LLVMFuzzerTestOneInput(input.data(), input.size());
  }
  for (long long r = 0; r < runs; ++r) {
    const Bytes& base =
        corpus[static_cast<std::size_t>(next_rand() % corpus.size())];
    const Bytes mutated = mutate(base, max_len);
    LLVMFuzzerTestOneInput(mutated.data(), mutated.size());
  }

  std::printf("standalone_driver: %zu corpus inputs + %lld mutation runs, "
              "no crashes\n",
              corpus.size(), runs);
  return 0;
}
