// Shard-purity fixtures: process-wide mutable state in protocol-scoped
// code.  A sharded simulation runs one System per worker; any of the
// mutable globals and statics below would be shared across every shard.
// They carry no `// census:` justification, so census mode rejects each
// one (the lint_census_unjustified ctest); cross-peer-ptr applies here
// because this file lives under a core/ directory.
//
// This file is lint-test data only — it is never compiled.

struct Peer;
struct System;

int g_sessions_started = 0;
double g_rate{1.0};
static int g_tu_local_total = 0;

// Immutable namespace-scope objects are fine: shards may share constants.
constexpr int kMaxPartners = 6;
const double kDefaultRate = 1.0;

struct Stats {
  static inline int instances = 0;
  // constexpr / per-object members carry no cross-shard state.
  static constexpr int kLimit = 4;
  int per_object = 0;
};

struct PartnerRef {
  Peer* buddy;  // lint:expect(cross-peer-ptr)
  System& owner;  // lint:expect(cross-peer-ptr)
  // Stable ids are the sanctioned way to refer to peers across shards.
  int node_id = 0;
};

int next_id() {
  static int counter = 0;
  return ++counter;
}

int table_value() {
  // A function-local static that never mutates is a lookup table, not
  // shared state.
  static const int kTable[] = {1, 2, 3};
  return kTable[0];
}
