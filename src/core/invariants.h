// Runtime protocol-invariant auditor.
//
// The paper's measurable claims rest on structural properties the protocol
// is supposed to maintain at all times: partnerships are symmetric
// (§III-B), every sub-stream has at most one serving parent (§III-C),
// buffer maps never advertise blocks the owner does not have (§III-C),
// synchronization-buffer heads only move forward, and every block a parent
// uploads is a block some child downloads (flow conservation behind
// Eqs. 3-6).  Silent violations of any of these would invalidate the
// figures while leaving the run superficially plausible — so this auditor
// walks the whole System and verifies them explicitly.
//
// Usage:
//   * One-shot:  InvariantAuditor(sys).audit() returns every violation.
//   * Periodic:  auditor.start(period) schedules an audit every `period`
//     simulated seconds; by default a violation prints and aborts (fail
//     fast, like nano-node's debug asserts), or set `on_violations` to
//     collect them instead.
//   * Build-wide: configure with -DCOOLSTREAM_AUDIT=ON and set
//     SystemConfig::audit_period > 0; System::start() then attaches an
//     auditor automatically.  Release builds compile the hook out.
//
// The audit never draws from the simulation RNG and never mutates protocol
// state, so enabling it cannot change a run's trajectory — determinism
// tests stay bit-identical with auditing on.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/stream_types.h"
#include "net/types.h"
#include "sim/event_queue.h"

namespace coolstream::core {

class System;
class Peer;
struct SystemStats;

/// The structural properties the auditor verifies.
enum class InvariantRule : unsigned char {
  kPartnerSymmetry = 0,   ///< A lists B <=> B lists A (§III-B)
  kSingleParent = 1,      ///< one serving out-link per (child, sub-stream)
  kBufferMapAgreement = 2, ///< stored BMs within sender heads / encoder
                           ///< edge, K lanes stored per partner
  kSyncMonotonic = 3,     ///< heads, combined prefix, byte counters forward-only
  kBlockConservation = 4, ///< sum(up) == sum(down) == blocks * block size
  kCensus = 5,            ///< live counts, boot-strap registry, step counter
  kEventQueue = 6,        ///< slab/heap/free-list consistency
  kTeardown = 7,          ///< departed peers fully dismantled
};

inline constexpr int kInvariantRuleCount = 8;

/// Stable identifier ("partner-symmetry", ...) for reports and tests.
const char* to_string(InvariantRule rule) noexcept;

/// One detected violation.
struct InvariantViolation {
  InvariantRule rule;
  net::NodeId node = net::kInvalidNode;   ///< primary node (if any)
  net::NodeId other = net::kInvalidNode;  ///< counterpart node (if any)
  std::string detail;                     ///< human-readable description
};

/// "rule node=3 other=7: detail" formatting for logs and assertions.
std::string to_string(const InvariantViolation& v);

/// Walks a System and checks every invariant.  Stateful: monotonicity
/// checks compare against the snapshot taken by the previous audit() call
/// on the same auditor instance.
class InvariantAuditor {
 public:
  explicit InvariantAuditor(System& system);
  ~InvariantAuditor();

  InvariantAuditor(const InvariantAuditor&) = delete;
  InvariantAuditor& operator=(const InvariantAuditor&) = delete;

  /// Runs a full audit pass now and returns the violations found (empty
  /// when every invariant holds).  Updates the monotonicity snapshot.
  std::vector<InvariantViolation> audit();

  /// Schedules audit() every `period` of simulated time (first run after
  /// one period).  Violations are handed to `on_violations`; the default
  /// handler prints them and aborts.
  void start(Duration period);
  void stop();

  /// Replaceable violation sink for the periodic mode.
  std::function<void(const std::vector<InvariantViolation>&)> on_violations;

  std::uint64_t audits_run() const noexcept { return audits_; }
  std::uint64_t violations_seen() const noexcept { return violations_; }

  /// Partnerships younger than this may legitimately be one-sided (the
  /// acceptance round trip is still in flight).
  Duration symmetry_grace = Duration(5.0);

 private:
  struct NodeSnapshot {
    std::vector<SeqNum> heads;
    GlobalSeq combined = kNoSeq;
    units::Bytes bytes_up{};
    units::Bytes bytes_down{};
  };

  /// Checks one live peer (a departed node's checks are in audit()).
  void check_peer(const Peer& p, std::vector<InvariantViolation>* out);
  void check_global(std::vector<InvariantViolation>* out,
                    std::size_t live_seen);

  // The auditor inspects exactly one System (its own shard); peers inside
  // it are still addressed by node id when snapshots are compared.
  System& sys_;  // lint:allow(cross-peer-ptr)
  sim::EventHandle handle_;
  std::uint64_t audits_ = 0;
  std::uint64_t violations_ = 0;
  std::vector<NodeSnapshot> snap_;  ///< indexed by node id
};

/// Seeded-corruption hooks for the auditor's own tests: grants the test
/// suite just enough access to protocol internals to plant each class of
/// violation (asymmetric partnership, double-parent sub-stream, stale
/// buffer-map bit, misaligned partner lanes, rewound head, leaked bytes)
/// and assert the audit reports it.  Never used outside tests.
struct InvariantTestAccess {
  /// Appends a partner record with never-received lanes (kNoSeq), keeping
  /// the lane array aligned with the records as a real establishment does.
  static void add_partner(Peer& p, const struct PartnerState& ps);
  /// The raw lane array (K entries per partner, in partners() order), for
  /// planting a forged lane or a misalignment.
  static std::vector<SeqNum>& lane_array(Peer& p);
  static std::vector<net::NodeId>& parents(Peer& p);
  /// Forces sub-stream `j`'s contiguous head to `seq` even if that moves
  /// it backwards (something the real SyncBuffer API cannot do).
  static void rewind_head(Peer& p, SubstreamId j, SeqNum seq);
  static SystemStats& stats(System& sys);
  /// Fires one gossip round from `p` right now, bypassing the gossip
  /// timer.  Used by the allocation-counting tier to bracket the arena /
  /// sample_into send path with heap counters.
  static void do_gossip(Peer& p);
};

}  // namespace coolstream::core
