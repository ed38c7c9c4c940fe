// WILL_FAIL: a bool sandwiched between two 8-byte fields leaves a hole
// that moving it next to the other sub-word member would remove: 18
// member bytes lay out in 32 instead of 24.  The padding check must
// reject it.
#include <cstdint>

#include "core/layout_audit.h"

namespace coolstream {

struct LayoutCaseSandwich {
  std::uint64_t opened;  // 8 bytes
  bool paused;           // 1 byte + 7 padding
  std::uint64_t closed;  // 8 bytes
  std::uint8_t flags;    // 1 byte + 7 tail padding
};
COOLSTREAM_LAYOUT_AUDIT(LayoutCaseSandwich, 32);
static_assert(core::layout::padding_tight<LayoutCaseSandwich, 4>());

}  // namespace coolstream

int main() { return 0; }
