// Bad-tree fixture, wire-facing half: one unguarded decoded count
// (wire-taint), one decode-path ContractViolation
// (exception-discipline), and a mutable global outside src/runtime/
// written from a function the concurrent producer closure reaches
// (single-writer #2: the audit of globals covers all of src/).
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace fx {

struct ByteSource {
  std::uint64_t get_uvarint();
};

struct ContractViolation : std::runtime_error {
  using std::runtime_error::runtime_error;
};

void decode_unguarded(ByteSource& src, std::vector<int>& out) {
  const std::uint64_t n = src.get_uvarint();
  out.reserve(n);
}

std::uint64_t decode_wrong_throw(ByteSource& src) {
  const std::uint64_t tag = src.get_uvarint();
  if (tag > 7) throw ContractViolation("bad tag");
  return tag;
}

std::uint64_t g_uplinks_seen = 0;

// Called from NotifierPipeline::submit(), which many threads run at once.
void count_uplink() { ++g_uplinks_seen; }

}  // namespace fx
