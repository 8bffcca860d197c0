// Fixture: header that is not self-sufficient (std::vector without
// <vector>).  Its header_check ctest is WILL_FAIL: the compile must fail.
#pragma once

inline std::vector<int> bad_header_fixture() { return {}; }
