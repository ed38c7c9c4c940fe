// Atomics in protocol code: lock-free cross-thread communication orders
// nondeterministically.  The atomic member below carries no `// census:`
// justification, so census mode rejects it (the lint_census_unjustified
// ctest); the justified atomics under src/sim/ are listed in
// tools/lint/shared_state.json.  The reference parameter of bump()
// declares no object, so the census must not list it.
//
// This file is lint-test data only — it is never compiled.

#include <atomic>

class DeliveryFlags {
  std::atomic<bool> stop_{false};
  int blocks_delivered_ = 0;
};

void bump(std::atomic<int>& inflight) {
  inflight.fetch_add(1);
}
