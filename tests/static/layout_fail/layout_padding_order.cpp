// WILL_FAIL: the padding check alone (no pin) must reject a member order
// that wastes bytes.  The bool in front of the 8-byte field costs seven
// bytes of padding: 13 member bytes lay out in 24, where decreasing
// alignment would fit them in 16.  The budget admits 24, so only the
// padding check can catch it.
#include <cstdint>

#include "core/layout_audit.h"

namespace coolstream {

struct LayoutCaseMisordered {
  bool live;                   // 1 byte + 7 padding
  std::uint64_t bytes_down;    // 8 bytes
  std::uint32_t stall_events;  // 4 bytes + 4 tail padding
};
COOLSTREAM_LAYOUT_AUDIT(LayoutCaseMisordered, 24);
static_assert(core::layout::padding_tight<LayoutCaseMisordered, 3>());

}  // namespace coolstream

int main() { return 0; }
