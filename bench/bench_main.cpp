// The experiment runner: prints the table of one experiment that no
// test asserts, or all of them at small sizes.
//
// Usage:
//   bench_main --bench=<id>   one experiment, full size
//   bench_main --smoke        every experiment, small sizes (a ctest)
#include <cstdio>
#include <string>

#include "experiments.hpp"

namespace {

struct Experiment {
  const char* id;
  void (*run)(bool smoke);
};

constexpr Experiment kExperiments[] = {
    {"e3", ccvc::bench::stamp_bytes},
    {"e4", ccvc::bench::clock_memory},
    {"e5", ccvc::bench::clock_ops},
    {"e7e9", ccvc::bench::wan_sessions},
    {"e8", ccvc::bench::no_transform},
    {"gc", ccvc::bench::history_gc},
    {"sublayer", ccvc::bench::fault_sublayer},
};

int usage() {
  std::fputs("usage: bench_main --bench=<id> | --smoke\nids:", stderr);
  for (const Experiment& e : kExperiments) std::fprintf(stderr, " %s", e.id);
  std::fputs("\n", stderr);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) return usage();
  const std::string arg = argv[1];
  if (arg == "--smoke") {
    for (const Experiment& e : kExperiments) e.run(true);
    return 0;
  }
  const std::string prefix = "--bench=";
  if (arg.rfind(prefix, 0) != 0) return usage();
  for (const Experiment& e : kExperiments) {
    if (arg.substr(prefix.size()) == e.id) {
      e.run(false);
      return 0;
    }
  }
  return usage();
}
