// Control case: the legal unit algebra from core/units.h, compiled with
// the exact command line the compile-fail cases use.  If this case fails,
// the harness itself is broken (wrong include path / flags) and every
// WILL_FAIL result in this tier is vacuous.
#include "core/units.h"

namespace u = coolstream::units;

int main() {
  constexpr u::Tick t = u::Tick::zero() + u::Duration(5.0);
  constexpr u::Duration d = t - u::Tick::zero();
  constexpr u::BlockIndex head = u::BlockIndex(10) + u::BlockCount(5);
  constexpr u::BlockCount span = head - u::BlockIndex(0);
  constexpr u::Bytes volume = u::BitRate(8.0e6) * u::Duration(1.0);
  constexpr double blocks = u::BlockRate(8.0) * u::Duration(2.0);
  constexpr u::BlockCount run = u::whole_blocks(2.75);
  constexpr u::Bytes run_volume = u::Bytes(1250) * run;
  static_assert(d == u::Duration(5.0));
  static_assert(span == u::BlockCount(15));
  static_assert(volume == u::Bytes(1000000));
  static_assert(blocks == 16.0);
  static_assert(run == u::BlockCount(2));
  static_assert(run_volume == u::Bytes(2500));
  return 0;
}
