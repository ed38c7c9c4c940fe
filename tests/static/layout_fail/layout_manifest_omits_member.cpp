// WILL_FAIL: a registry member count that leaves out a member.  The
// struct is hole-free and its pin holds; the padding check reads the
// member sizes through a structured binding of exactly the stated count,
// which does not compile for a struct with one more member.
#include <cstdint>

#include "core/layout_audit.h"

namespace coolstream {

struct LayoutCaseCounters {
  std::uint64_t blocks_due;
  std::uint64_t bytes_up;  // the member the count below leaves out
  std::uint32_t stalls;
  std::uint32_t resyncs;
};
COOLSTREAM_LAYOUT_AUDIT(LayoutCaseCounters, 24);
COOLSTREAM_LAYOUT_PIN(LayoutCaseCounters, 24);
static_assert(core::layout::padding_tight<LayoutCaseCounters, 3>());

}  // namespace coolstream

int main() { return 0; }
