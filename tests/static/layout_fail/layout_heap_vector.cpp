// WILL_FAIL: a std::vector member owns heap memory, so the type is not
// trivially copyable and COOLSTREAM_LAYOUT_AUDIT must reject it (the
// std::string case is layout_non_trivial_member.cpp).
#include <cstdint>
#include <vector>

#include "core/layout_audit.h"

namespace coolstream {

struct LayoutCaseVectorMember {
  std::uint64_t generation = 0;
  std::vector<int> history;  // owns heap memory; not trivially copyable
};
COOLSTREAM_LAYOUT_AUDIT(LayoutCaseVectorMember, 64);

}  // namespace coolstream

int main() { return 0; }
