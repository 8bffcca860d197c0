// Fixture: the one-line allow pragma must suppress a finding.
#include <cstdlib>

int good_allow_fixture() {
  return rand();  // ccvc-sa: allow(determinism) fixture: pragma suppression
}
