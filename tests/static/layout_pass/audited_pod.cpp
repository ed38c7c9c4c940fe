// Control case for the layout compile-fail tier: conforming PODs pass the
// audit macro, a matching pin and the padding check, and can read the
// registry constexpr — compiled with the identical command line as the
// WILL_FAIL cases, so a broken include path (or a padding check that is
// too strict) cannot make those pass vacuously.
#include <cstdint>

#include "core/layout_audit.h"

namespace coolstream {

struct LayoutCasePacked {
  double updated;      // 8 bytes
  std::uint32_t hits;  // 4 bytes
  bool live;           // 1 byte + 3 tail padding
};
COOLSTREAM_LAYOUT_AUDIT(LayoutCasePacked, 16);
COOLSTREAM_LAYOUT_PIN(LayoutCasePacked, 16);

static_assert(core::layout::padding_tight<LayoutCasePacked, 3>());

// A mixed order no reordering can shrink: the 4-byte hole between the
// 8-byte fields would only move to the tail, so the check must accept it.
struct LayoutCaseMixed {
  std::uint64_t user_ref;  // 8 bytes
  std::uint32_t region;    // 4 bytes + 4 padding
  std::uint64_t joined;    // 8 bytes
};
COOLSTREAM_LAYOUT_AUDIT(LayoutCaseMixed, 24);
COOLSTREAM_LAYOUT_PIN(LayoutCaseMixed, 24);

static_assert(core::layout::padding_tight<LayoutCaseMixed, 3>());

// The real registry must stay within the per-peer budget gate from here
// too — proves the header's constexpr machinery is usable downstream.
static_assert(core::layout::bytes_per_peer() > 0);
static_assert(core::layout::kRegistrySize >= 12);

}  // namespace coolstream

int main() { return 0; }
