#include "net/bandwidth.h"

#include <algorithm>
#include <cassert>

namespace coolstream::net {

void max_min_fair(BlockRate capacity, std::span<const BlockRate> demands,
                  std::span<BlockRate> rates) {
  assert(capacity >= BlockRate::zero());
  assert(rates.size() == demands.size());
  const std::size_t n = demands.size();
  std::fill(rates.begin(), rates.end(), BlockRate::zero());

  // Progressive filling: repeatedly grant unsatisfied connections an equal
  // share of the remaining capacity, capping at their demand.  A
  // connection is active while its demand is positive and its rate still
  // zero: capping sets the rate to the (positive) demand, and the uncapped
  // rest are granted only in the final round, so no index list is needed.
  std::size_t active = 0;
  for (std::size_t i = 0; i < n; ++i) {
    assert(demands[i] >= BlockRate::zero());
    if (demands[i] > BlockRate::zero()) ++active;
  }
  const auto is_active = [&](std::size_t i) {
    return demands[i] > BlockRate::zero() && rates[i] == BlockRate::zero();
  };
  BlockRate remaining = capacity;
  while (active > 0 && remaining > BlockRate::zero()) {
    const BlockRate share = remaining / static_cast<double>(active);
    std::size_t capped = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (!is_active(i)) continue;
      const BlockRate want = demands[i];  // an active rate is still zero
      if (want <= share) {
        rates[i] = want;
        remaining = remaining - want;
        ++capped;
      }
    }
    if (capped == 0) {
      // Nobody saturated: split the remainder equally and finish.
      for (std::size_t i = 0; i < n; ++i) {
        if (is_active(i)) rates[i] = share;
      }
      break;
    }
    active -= capped;
  }
}

void equal_share(BlockRate capacity, std::span<const BlockRate> demands,
                 std::span<BlockRate> rates) {
  assert(capacity >= BlockRate::zero());
  assert(rates.size() == demands.size());
  const std::size_t n = demands.size();
  std::fill(rates.begin(), rates.end(), BlockRate::zero());
  std::size_t positive = 0;
  for (BlockRate d : demands) {
    assert(d >= BlockRate::zero());
    if (d > BlockRate::zero()) ++positive;
  }
  if (positive == 0) return;
  const BlockRate share = capacity / static_cast<double>(positive);
  for (std::size_t i = 0; i < n; ++i) {
    if (demands[i] > BlockRate::zero()) rates[i] = std::min(demands[i], share);
  }
}

}  // namespace coolstream::net
