// A Coolstreaming node: membership manager + partnership manager + stream
// manager (Fig. 1), driven by the System's tick and message callbacks.
//
// Life cycle (§IV-A, §V-C):
//   kJoining    contacted the boot-strap node, establishing partnerships
//   kBuffering  start-subscription done; sub-streams subscribed, waiting
//               for the media-ready buffer to fill
//   kPlaying    media player running; playout deadlines drive the
//               continuity index
//   kLeft       departed (gracefully or crashed); System::leave then
//               frees the Peer and keeps a DepartedPeer record
//
// Dedicated servers (PeerKind::kServer) share the partnership/serving code
// but are fed directly from the encoder clock and never adapt or play.
#pragma once

#include <cassert>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/buffer_map.h"
#include "core/cache_buffer.h"
#include "core/mcache.h"
#include "core/params.h"
#include "core/stream_types.h"
#include "core/sync_buffer.h"
#include "logging/reports.h"
#include "net/address.h"
#include "net/connectivity.h"
#include "net/types.h"
#include "sim/rng.h"

namespace coolstream::core {

class System;

/// Server or ordinary viewer.
enum class PeerKind : unsigned char { kServer = 0, kViewer = 1 };

/// Session phase.
enum class PeerPhase : unsigned char {
  kJoining = 0,
  kBuffering = 1,
  kPlaying = 2,
  kLeft = 3,
};

/// Static description of a node (assigned by the workload generator).
struct PeerSpec {
  std::uint64_t user_id = 0;
  PeerKind kind = PeerKind::kViewer;
  net::ConnectionType type = net::ConnectionType::kDirect;
  net::Ipv4Address address;
  units::BitRate upload_capacity = units::BitRate(1'000'000.0);
};

/// What this node knows about one partner.  The latest-block half of the
/// partner's last buffer map (K sequence numbers) lives out of line in the
/// owning peer's lane array; read it through Peer::partner_lanes().
/// Members are ordered by alignment so the only padding is the tail.
struct PartnerState {
  Tick established{};
  std::optional<Tick> bm_time;  ///< when its last BM arrived (nullopt: never)
  net::NodeId id = net::kInvalidNode;
  /// Subscription half of its last BM: bit j set when the partner requests
  /// sub-stream j from us.
  std::uint32_t sub_bits = 0;
  bool incoming = false;  ///< partner initiated the connection
};

/// Highest of a partner's latest-block lanes (BufferMap::max_latest over
/// Peer::partner_lanes()); kNoSeq when nothing was received.
inline SeqNum max_latest(std::span<const SeqNum> lanes) noexcept {
  SeqNum best = kNoSeq;
  for (const SeqNum s : lanes) {
    if (s > best) best = s;
  }
  return best;
}

/// Parent-side record of one sub-stream push connection.
struct OutLink {
  net::NodeId child = net::kInvalidNode;
  SubstreamId substream{};
};

/// Running counters exposed for figures and tests.  Members are ordered
/// 8-byte fields first, then the 32-bit counters (an even count), so the
/// struct packs hole-free (layout_audit.h pins the size).
struct PeerStats {
  std::uint64_t blocks_due = 0;        ///< playout deadlines passed
  std::uint64_t blocks_on_time = 0;    ///< of those, block was present
  units::Bytes bytes_up{};             ///< data-plane upload (lifetime)
  units::Bytes bytes_down{};
  Duration stall_seconds{};            ///< total time spent frozen
  /// Completed sub-stream subscription episodes, split by parent class
  /// (capable = server/direct/UPnP).  Weak-parent subscriptions being
  /// short-lived is the §V-B convergence mechanism.
  Duration capable_subscription_time{};
  Duration weak_subscription_time{};

  std::uint32_t adaptations = 0;       ///< Ineq.(1)/(2)-triggered reselects
  std::uint32_t parent_switches = 0;   ///< actual sub-stream parent changes
  std::uint32_t partnership_attempts = 0;
  std::uint32_t partnership_rejections = 0;
  std::uint32_t window_skips = 0;      ///< fell out of a parent's buffer
  std::uint32_t deadline_skips = 0;    ///< jumped over already-due blocks
  std::uint32_t stalls = 0;            ///< player freezes (rebuffering)
  std::uint32_t resyncs = 0;           ///< playout timeline re-anchors
  std::uint32_t capable_subscriptions_ended = 0;
  std::uint32_t weak_subscriptions_ended = 0;
};

/// What a node leaves behind when it departs: System::leave moves the
/// final observable state here and destroys the `Peer`.  It holds only
/// what outlives a departure — the immutable spec (read by reachability
/// and capable-parent checks) and the end-of-run state digests, audits and
/// figures read — so a departed session costs under two hundred bytes
/// instead of a whole peer.  The K final sub-stream heads live out of line
/// in System's departed-heads array, K entries per record in departure
/// order (read them through System::node).  A departed node's phase is
/// kLeft and it has no partners, so neither is stored.  Members are 8-byte
/// fields only, so the struct packs hole-free (layout_audit.h pins the
/// size).
struct DepartedPeer {
  PeerSpec spec;
  PeerStats stats;
  GlobalSeq play_start_seq = kNoSeq;
  GlobalSeq playhead = kNoSeq;
  std::uint64_t blocks_received = 0;
};

/// The hot, trivially-copyable slice of a peer: every scalar the protocol
/// reads or writes on the tick path, split out of `Peer` so the future
/// struct-of-arrays slab engine can lift it into an ID-indexed slab
/// verbatim.  The contract — trivially copyable, standard layout, no heap,
/// padding-tight, within a bytes/peer budget — is proved at compile time
/// by layout_audit.h, which peer.cpp includes so every build checks it.
///
/// `Peer` privately inherits this struct, so member names stay valid,
/// unqualified, inside peer.cpp; the cold parts (vectors, buffers, the
/// System back-reference) remain ordinary `Peer` members.  Members are
/// ordered by alignment (8-byte fields, then the phase/flag bytes) so the
/// only padding is the unavoidable tail.
struct PeerProtocolState {
  PeerSpec spec_;
  units::SessionId session_id_{};
  Tick joined_at_;

  // join state
  std::optional<Tick> first_bm_at_;

  // playout state
  GlobalSeq play_start_seq_ = kNoSeq;
  Tick play_start_time_{-1.0};  ///< shifts forward across stalls
  GlobalSeq last_deadline_counted_ = kNoSeq;
  GlobalSeq stalled_on_ = kNoSeq;  ///< block the player waits for

  // timers (absolute next-due times; staggered by a per-peer phase offset)
  Tick next_bm_push_;
  Tick next_gossip_;
  Tick next_adaptation_;
  Tick next_refill_;
  Tick next_report_;
  Tick last_adaptation_{-1.0e18};
  Tick last_resync_{-1.0e18};

  // reporting accumulators (since last status report)
  std::uint64_t interval_due_ = 0;
  std::uint64_t interval_on_time_ = 0;
  units::Bytes interval_bytes_up_{};
  units::Bytes interval_bytes_down_{};

  /// Cached current buffer map + the SyncBuffer version it was built from
  /// (~0: never built).  See Peer::refreshed_bm().
  mutable BufferMap bm_cache_;
  mutable std::uint64_t bm_cache_version_ = ~std::uint64_t{0};

  PeerStats stats_;

  PeerPhase phase_ = PeerPhase::kJoining;
  bool start_decided_ = false;
  bool start_sub_emitted_ = false;
  bool had_incoming_ = false;
  bool had_outgoing_ = false;
};

/// One Coolstreaming node.  Private inheritance of PeerProtocolState keeps
/// the hot scalar state in one audited POD block (see above) while every
/// protocol method keeps referring to the members by their plain names.
class Peer : private PeerProtocolState {
 public:
  Peer(System& system, net::NodeId id, PeerSpec spec,
       units::SessionId session_id, Tick now);

  Peer(const Peer&) = delete;
  Peer& operator=(const Peer&) = delete;

  // --- identity ----------------------------------------------------------
  net::NodeId id() const noexcept { return id_; }
  const PeerSpec& spec() const noexcept { return spec_; }
  PeerKind kind() const noexcept { return spec_.kind; }
  PeerPhase phase() const noexcept { return phase_; }
  units::SessionId session_id() const noexcept { return session_id_; }
  Tick joined_at() const noexcept { return joined_at_; }
  bool alive() const noexcept { return phase_ != PeerPhase::kLeft; }

  // --- protocol events (invoked by System) --------------------------------
  /// Begins the join process: requests the boot-strap list.
  void start_join();
  /// Boot-strap response: seeds the mCache and attempts partnerships.
  void on_bootstrap_list(std::span<const McacheEntry> list);
  /// A partnership with `peer` is now up.
  void on_partnership_established(net::NodeId peer, bool incoming);
  /// An attempt we initiated failed (unreachable / partner limit).
  void on_partnership_rejected(net::NodeId peer);
  /// Partner left or broke the connection.
  void on_partner_left(net::NodeId peer);
  /// Buffer map received from a partner: the latest-block half from `bm`,
  /// the subscription half `subscribed` (bit j: `from` requests sub-stream
  /// j from us).
  void on_bm_received(net::NodeId from, const BufferMap& bm,
                      std::uint32_t subscribed);
  /// Gossip payload: entries from a partner's mCache.
  void on_gossip(std::span<const McacheEntry> entries);
  /// Child subscribes to / unsubscribes from sub-stream `j` (parent side).
  void on_subscribe(net::NodeId child, SubstreamId j);
  void on_unsubscribe(net::NodeId child, SubstreamId j);

  /// Periodic driver; `now` is the tick time.  Runs every due timer
  /// (BM push, gossip, adaptation, partner refill, status report) and the
  /// phase logic (media-ready check, playout accounting, server feed).
  void on_tick(Tick now);

  /// Closes the books on the node's subscriptions and marks it departed,
  /// so every handler ignores it while System::leave notifies its
  /// partners; leave then keeps a DepartedPeer record and destroys it.
  void set_left();

  // --- data plane (FlowModel access) ---------------------------------------
  SyncBuffer& sync() noexcept { return sync_; }
  const SyncBuffer& sync() const noexcept { return sync_; }
  const CacheBuffer& cache() const noexcept { return cache_; }
  std::vector<OutLink>& out_links() noexcept { return out_links_; }
  const std::vector<OutLink>& out_links() const noexcept { return out_links_; }
  SeqNum head(SubstreamId j) const { return sync_.head(j); }
  /// Upload capacity in blocks per second.
  units::BlockRate upload_block_rate() const noexcept;
  double& credit(SubstreamId j) { return credits_[j.index()]; }
  void add_bytes_up(units::Bytes b) noexcept {
    stats_.bytes_up += b;
    interval_bytes_up_ += b;
  }
  void add_bytes_down(units::Bytes b) noexcept {
    stats_.bytes_down += b;
    interval_bytes_down_ += b;
  }
  /// The child's next block on sub-stream `j` has been pushed out of the
  /// parent's cache window, which starts at `window_start`.  Jumps the
  /// sub-stream forward; small gaps are charged as missed at their
  /// deadlines, deep gaps trigger a playout resync.
  void handle_window_gap(SubstreamId j, SeqNum window_start);

  /// Latest sub-stream-`j` sequence number whose playback deadline has
  /// already been counted (with safety margin); blocks at or below it are
  /// dead — a parent pushes only "blocks of a sub-stream in need" (§IV-B),
  /// so the data plane skips over them instead of wasting uplink.
  /// kNoSeq while not playing (everything is still in need).
  SeqNum deadline_floor(SubstreamId j) const noexcept;
  void count_deadline_skip() noexcept { ++stats_.deadline_skips; }

  // --- partnership / subscription state ------------------------------------
  const std::vector<PartnerState>& partners() const noexcept { return partners_; }
  PartnerState* find_partner(net::NodeId id) noexcept;
  const PartnerState* find_partner(net::NodeId id) const noexcept;
  /// The latest-block lanes of `ps`'s last buffer map, one per sub-stream
  /// (kNoSeq until its first BM arrives).  `ps` must be one of partners().
  std::span<const SeqNum> partner_lanes(const PartnerState& ps) const noexcept {
    const std::size_t k = parents_.size();  // one parent slot per sub-stream
    const auto i = static_cast<std::size_t>(&ps - partners_.data());
    assert(i < partners_.size());
    return {partner_lanes_.data() + i * k, k};
  }
  /// Entries in the lane array: partner_count() * K while consistent.
  std::size_t partner_lane_entries() const noexcept {
    return partner_lanes_.size();
  }
  std::size_t partner_count() const noexcept { return partners_.size(); }
  bool partners_full() const noexcept;
  net::NodeId parent_of(SubstreamId j) const { return parents_[j.index()]; }
  bool had_incoming() const noexcept { return had_incoming_; }
  bool had_outgoing() const noexcept { return had_outgoing_; }

  // --- measurement ----------------------------------------------------------
  const PeerStats& stats() const noexcept { return stats_; }
  const Mcache& mcache() const noexcept { return mcache_; }
  /// Current buffer map (the first K components; subscription bits are
  /// per-partner and filled in when pushing to a specific partner).
  /// Copies the cached map; hot paths use refreshed_bm() internally.
  BufferMap current_bm() const;
  /// Global sequence the player starts at; set at start-subscription.
  GlobalSeq play_start_seq() const noexcept { return play_start_seq_; }
  /// Last global block whose deadline has been processed (the playhead);
  /// kNoSeq before playback.  live_edge - playhead is the playback latency.
  GlobalSeq playhead() const noexcept { return last_deadline_counted_; }

 private:
  friend struct InvariantTestAccess;  // seeded-corruption hooks (tests only)

  /// The node's current buffer map (subscription bits zero), rebuilt from
  /// the sync-buffer heads only when SyncBuffer::version() moved — the
  /// dirty-bit cache behind current_bm() and the per-partner BM broadcast.
  const BufferMap& refreshed_bm() const;
  /// Largest sequence number any partner's last buffer map advertised
  /// (kNoSeq before the first arrives): the m of §IV-A and the partner-wide
  /// max of Ineq. (2).
  SeqNum freshest_partner_seq() const noexcept;

  // --- join / subscription logic ---
  void try_establish_partnerships(std::size_t want);
  void decide_start_offset();
  void subscribe_substream(SubstreamId j, net::NodeId parent);
  /// Closes the books on the current subscription of sub-stream j (if
  /// any): records its lifetime under the parent's class.
  void end_subscription(SubstreamId j);
  /// Picks a parent for sub-stream j among current partners, honouring the
  /// two inequalities; returns kInvalidNode when no partner qualifies and
  /// no fallback exists.
  net::NodeId select_parent(SubstreamId j, net::NodeId exclude) const;
  void run_adaptation(Tick now, bool cooldown_exempt);
  void reselect(SubstreamId j);
  void send_status_reports(Tick now);
  void do_playout(Tick now);
  void check_media_ready(Tick now);
  /// Bounded-latency enforcement: when playback drifts beyond
  /// Params::max_playback_lag_seconds behind the live edge, jump the
  /// buffers and the playout timeline forward to T_p behind the freshest
  /// partner (skipped content is abandoned, not charged — §V-D blindness).
  void maybe_resync_forward(Tick now);
  void server_feed(Tick now);
  void do_gossip();
  void drop_worst_partner();
  /// When Params::partner_silence_timeout > 0, drops every partner whose
  /// buffer map has been silent past the timeout (phantom partnerships
  /// left by lost establishment messages, or partners whose crash
  /// notification never arrived).
  void enforce_partner_silence(Tick now);

  // Hot scalar state lives in the PeerProtocolState base; only the cold,
  // heap-owning members (and the identity/back-reference pair) follow.

  // Back-reference to the *owning* System only: a peer never outlives its
  // shard, and partners are addressed by net::NodeId, never by pointer.
  System& sys_;  // lint:allow(cross-peer-ptr)
  net::NodeId id_;

  /// The peer's private random stream, derived from the run's root seed
  /// via Rng::stream(sim::peer_stream_tag(id)).  Every random decision the
  /// protocol makes for this node draws from here, so the decisions are
  /// identical no matter which shard (or how many shards) evaluates it.
  /// Mutable: select_parent() is logically const but breaks ties randomly.
  mutable sim::Rng rng_;

  SyncBuffer sync_;
  CacheBuffer cache_;
  Mcache mcache_;
  std::vector<PartnerState> partners_;
  /// K latest-block lanes per partner, in partners_ order (partner i owns
  /// entries [i*K, (i+1)*K)); every partners_ insert/erase keeps it aligned.
  std::vector<SeqNum> partner_lanes_;
  std::vector<net::NodeId> parents_;   ///< parent per sub-stream
  std::vector<Tick> sub_since_;        ///< subscription start per sub-stream
  std::vector<OutLink> out_links_;     ///< children we push to
  std::vector<double> credits_;        ///< fractional blocks per sub-stream

  /// An in-flight partnership attempt.  Timestamped so that attempts whose
  /// confirm/reject was lost by the network can be aged out (a bare counter
  /// would leak and under-fill the partner set forever); targeted so that
  /// candidate sampling never re-dials a node we are already dialing.
  struct PendingAttempt {
    Tick started;
    net::NodeId to;
  };
  std::vector<PendingAttempt> pending_attempts_;

  bool has_pending_attempt(net::NodeId to) const noexcept;
  void clear_pending_attempt(net::NodeId to);

  /// Blocks skipped forward past a parent's buffer window; they count as
  /// missed when their playback deadline passes.
  struct SkipRange {
    SubstreamId substream;
    SeqNum from;  ///< first skipped sequence number (inclusive)
    SeqNum to;    ///< last skipped sequence number (inclusive)
  };
  std::vector<SkipRange> skips_;

  std::vector<logging::PartnerChange> interval_changes_;
};

}  // namespace coolstream::core
