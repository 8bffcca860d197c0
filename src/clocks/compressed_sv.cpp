#include "clocks/compressed_sv.hpp"

#include <sstream>

#include "util/check.hpp"
#include "wire/engine.hpp"

namespace ccvc::clocks {

std::uint64_t CompressedSv::at(int k) const {
  CCVC_CHECK_MSG(k == 1 || k == 2, "CompressedSv index is 1-based: 1 or 2");
  return k == 1 ? from_center : from_site;
}

void CompressedSv::encode(util::ByteSink& sink) const {
  wire::Writer w(sink);
  w.uv(wire::f::kCsvFromCenter, from_center);
  w.uv(wire::f::kCsvFromSite, from_site);
}

// Both fields are declared unbounded, so encode_to (inline in the
// header) skips the Writer's bound checks without dropping any.
static_assert(wire::f::kCsvFromCenter.bound == wire::kU64Max &&
              wire::f::kCsvFromSite.bound == wire::kU64Max);

CompressedSv CompressedSv::decode(util::ByteSource& src) {
  wire::Reader r(src);
  CompressedSv sv;
  sv.from_center = r.uv(wire::f::kCsvFromCenter);
  sv.from_site = r.uv(wire::f::kCsvFromSite);
  return sv;
}

std::size_t CompressedSv::encoded_size() const {
  return util::uvarint_size(from_center) + util::uvarint_size(from_site);
}

std::string CompressedSv::str() const {
  std::ostringstream os;
  os << '[' << from_center << ',' << from_site << ']';
  return os.str();
}

NotifierClock::NotifierClock(std::size_t num_sites)
    : sv0_(num_sites + 1) {
  CCVC_CHECK_MSG(num_sites >= 1, "a session needs at least one site");
}

NotifierClock::NotifierClock(VersionVector sv0)
    : sv0_(std::move(sv0)), total_(sv0_.sum()) {
  CCVC_CHECK_MSG(sv0_.size() >= 2, "a session needs at least one site");
  CCVC_CHECK_MSG(sv0_[0] == 0, "slot 0 (the notifier) must be unused");
}

SiteId NotifierClock::add_site() {
  sv0_.grow(sv0_.size() + 1);
  return static_cast<SiteId>(num_sites());
}

void NotifierClock::on_op_from(SiteId site) {
  CCVC_CHECK_MSG(site >= 1 && site <= num_sites(),
                 "notifier counts ops from collaborating sites 1..N only");
  sv0_.tick(site);
  ++total_;
}

namespace {

// Process-global mutation knob for the model checker's self-validation
// suite; kNone everywhere else.  The simulator is single-threaded, so a
// plain global (guarded by ScopedFormulaMutation) is sufficient.
FormulaMutation g_mutation = FormulaMutation::kNone;

// `a > b`, or `a >= b` when the named mutation is active — the
// single-token "flip one comparison" injection point.
bool gt(std::uint64_t a, std::uint64_t b, FormulaMutation geq_mutation) {
  if (g_mutation == geq_mutation) return a >= b;
  return a > b;
}

}  // namespace

void set_formula_mutation(FormulaMutation m) { g_mutation = m; }

FormulaMutation formula_mutation() { return g_mutation; }

std::string_view to_string(FormulaMutation m) {
  switch (m) {
    case FormulaMutation::kNone: return "none";
    case FormulaMutation::kF4GeqSecond: return "f4-geq-second";
    case FormulaMutation::kF5Geq: return "f5-geq";
    case FormulaMutation::kF6GeqSum: return "f6-geq-sum";
    case FormulaMutation::kF7Geq: return "f7-geq";
    case FormulaMutation::kF7DropOrigin: return "f7-drop-origin";
  }
  return "unknown";
}

bool parse_formula_mutation(std::string_view name, FormulaMutation& out) {
  for (const FormulaMutation m :
       {FormulaMutation::kNone, FormulaMutation::kF4GeqSecond,
        FormulaMutation::kF5Geq, FormulaMutation::kF6GeqSum,
        FormulaMutation::kF7Geq, FormulaMutation::kF7DropOrigin}) {
    if (to_string(m) == name) {
      out = m;
      return true;
    }
  }
  return false;
}

bool concurrent_at_client_full(const CompressedSv& t_oa,
                               const CompressedSv& t_ob, HbSource src_ob) {
  // Formula (4): T_Oa[1] > T_Ob[1] establishes Oa ↛ Ob; T_Ob[y] > T_Oa[y]
  // establishes Ob ↛ Oa, with y selected by where Ob came from.
  const int y = (src_ob == HbSource::kFromCenter) ? 1 : 2;
  return t_oa.at(1) > t_ob.at(1) &&
         gt(t_ob.at(y), t_oa.at(y), FormulaMutation::kF4GeqSecond);
}

bool concurrent_at_client(const CompressedSv& t_oa, const CompressedSv& t_ob,
                          HbSource src_ob) {
  // Formula (5): the first conjunct of (4) always holds for ops already
  // executed before Oa's arrival (star topology + FIFO), so only
  // T_Ob[y] > T_Oa[y] is checked.
  const int y = (src_ob == HbSource::kFromCenter) ? 1 : 2;
  return gt(t_ob.at(y), t_oa.at(y), FormulaMutation::kF5Geq);
}

bool concurrent_at_notifier_full(const CompressedSv& t_oa, SiteId x,
                                 const VersionVector& t_ob, SiteId y) {
  CCVC_CHECK(x >= 1 && x < t_ob.size());
  CCVC_CHECK(y >= 1 && y < t_ob.size());
  // Formula (6), in full:
  //   Oa ∥ Ob ⟺ T_Oa[2] > T_Ob[x] ∧
  //              ((x = y ∧ T_Ob[y] > T_Oa[2]) ∨
  //               (x ≠ y ∧ Σ_{j≠x} T_Ob[j] > T_Oa[1])).
  if (!(t_oa.at(2) > t_ob[x])) return false;
  if (x == y) return t_ob[y] > t_oa.at(2);
  return gt(t_ob.sum_except(x), t_oa.at(1), FormulaMutation::kF6GeqSum);
}

bool concurrent_at_notifier(const CompressedSv& t_oa, SiteId x,
                            const VersionVector& t_ob, SiteId y) {
  CCVC_CHECK(x >= 1 && x < t_ob.size());
  // Formula (7): FIFO guarantees both Oa ↛ Ob and, for x = y, Ob → Oa.
  if (x == y && g_mutation != FormulaMutation::kF7DropOrigin) return false;
  return gt(t_ob.sum_except(x), t_oa.at(1), FormulaMutation::kF7Geq);
}

bool concurrent_at_notifier_o1(const CompressedSv& t_oa, SiteId x,
                               std::uint64_t t_ob_sum, std::uint64_t t_ob_x,
                               SiteId y) {
  // Σ_{j≠x} T_Ob[j] = Σ_j T_Ob[j] − T_Ob[x], both available in O(1).
  if (x == y && g_mutation != FormulaMutation::kF7DropOrigin) return false;
  return gt(t_ob_sum - t_ob_x, t_oa.at(1), FormulaMutation::kF7Geq);
}

}  // namespace ccvc::clocks
