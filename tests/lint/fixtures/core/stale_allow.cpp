// Stale-suppression fixtures: a lint:allow must suppress a real finding;
// one that suppresses nothing is dead weight that would silently blanket a
// future regression, so the annotation itself becomes a finding.
//
// This file is lint-test data only — it is never compiled.

struct Peer;

struct Owner {
  // Consumed by the cross-peer-ptr finding on the next line: not stale.
  Peer* buddy_;  // lint:allow(cross-peer-ptr)
};

int plain_function() {
  int local = 0;  // lint:allow(no-float) lint:expect(stale-allow)
  return local;
}

// lint:allow(wall-clock) lint:expect(stale-allow)
int not_a_clock() { return 42; }
