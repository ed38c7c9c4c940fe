// The System: glue between the simulator, the network substrate, the
// protocol peers, the data-plane fluid model, and the measurement pipeline.
//
// One System instance is one broadcast channel: it owns the dedicated
// servers, the boot-strap node, every live peer, a compact record of every
// departed one, and the global tick that drives block transfer and
// protocol timers.  Workload drivers call join()/leave(); everything else
// is protocol behaviour.
//
// Data plane.  Block transfer uses a discrete-time fluid model (period
// Params::flow_tick): each parent divides its upload capacity max-min
// fairly across its outgoing sub-stream connections; a connection's demand
// is the sub-stream rate R/K while the child is caught up and rises toward
// Params::max_catchup_factor * R/K during catch-up.  Credits accumulate per
// connection and materialize as whole blocks pushed in order — so Eq. (3)
// (catch-up), Eq. (4) (abandon) and Eq. (5) (competition rate) hold at the
// transport layer by construction, and the protocol reacts exactly as
// §IV-B describes.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "core/arena.h"
#include "core/bootstrap.h"
#include "core/mcache.h"
#include "core/params.h"
#include "core/peer.h"
#include "core/tick_effects.h"
#include "logging/log_server.h"
#include "net/latency.h"
#include "net/topology.h"
#include "net/transport.h"
#include "sim/shard_mailbox.h"
#include "sim/simulation.h"
#include "sim/shard_runner.h"
#include "sim/time_series.h"

namespace coolstream::core {

class InvariantAuditor;

/// Uplink sharing policy of the data plane (ablation: §V-E's "system
/// capacity" factor depends on how well uplinks are used).
enum class AllocationPolicy : unsigned char {
  kMaxMinFair = 0,  ///< progressive filling; surplus is redistributed
  kEqualShare = 1,  ///< naive per-connection split; surplus can be wasted
};

/// Deployment-level configuration (everything that is not a Table-I
/// protocol parameter).
struct SystemConfig {
  int server_count = 24;                 ///< dedicated servers (§V-A)
  double server_capacity_bps = 100e6;    ///< 100 Mbps each (§V-A)
  int server_max_partners = 50;          ///< servers accept more partners
  double server_lag = 0.2;               ///< encoder -> server delay, s
  McachePolicy mcache_policy = McachePolicy::kRandomReplace;
  AllocationPolicy allocation = AllocationPolicy::kMaxMinFair;
  net::LatencyParams latency;            ///< control-plane delays
  /// How long a joining node aggregates partner BMs before choosing its
  /// initial sequence offset (§IV-A).
  double join_aggregation_delay = 1.0;
  /// Viewers' download capacity is modelled as unconstrained (uplink is
  /// the era's bottleneck) unless this is set to a positive bps value.
  double download_capacity_bps = 0.0;
  /// Simulated seconds between runtime invariant audits (core/invariants.h).
  /// Only honoured in builds configured with -DCOOLSTREAM_AUDIT=ON; 0
  /// disables auditing even there.
  double audit_period = 0.0;
  /// Protocol shards: peers are partitioned by id across N workers that
  /// run the tick's phases between deterministic barriers.  N >= 1 fixes
  /// the count; 0 (the default) resolves the COOLSTREAM_SHARDS environment
  /// variable, falling back to 1.  Every N produces bit-identical results
  /// (the tests/sharded differential tier is the proof).
  int shards = 0;
};

/// Session milestones surfaced to workload drivers.
enum class SessionEvent : unsigned char {
  kJoined = 0,
  kStartSubscription = 1,
  kMediaReady = 2,
  kLeft = 3,
};

/// Aggregate counters for benches.
struct SystemStats {
  std::uint64_t joins = 0;
  std::uint64_t leaves = 0;
  std::uint64_t partnership_accepts = 0;
  std::uint64_t partnership_rejects = 0;
  std::uint64_t subscriptions = 0;
  std::uint64_t blocks_transferred = 0;
};

/// One node's observable state, live or departed: the live `Peer`, or the
/// DepartedPeer record its departure left behind (System::node).  A view
/// is two pointers; it stays valid until the next join() or leave().
class NodeView {
 public:
  explicit NodeView(const Peer& live) noexcept : live_(&live) {}
  explicit NodeView(const DepartedPeer& gone) noexcept : gone_(&gone) {}

  bool alive() const noexcept { return live_ != nullptr && live_->alive(); }
  const PeerSpec& spec() const noexcept {
    return live_ != nullptr ? live_->spec() : gone_->spec;
  }
  PeerKind kind() const noexcept { return spec().kind; }
  PeerPhase phase() const noexcept {
    return live_ != nullptr ? live_->phase() : PeerPhase::kLeft;
  }
  const PeerStats& stats() const noexcept {
    return live_ != nullptr ? live_->stats() : gone_->stats;
  }
  GlobalSeq play_start_seq() const noexcept {
    return live_ != nullptr ? live_->play_start_seq() : gone_->play_start_seq;
  }
  GlobalSeq playhead() const noexcept {
    return live_ != nullptr ? live_->playhead() : gone_->playhead;
  }
  SeqNum head(SubstreamId j) const {
    return live_ != nullptr ? live_->head(j) : gone_->heads[j.index()];
  }
  std::uint64_t blocks_received() const noexcept {
    return live_ != nullptr ? live_->sync().blocks_received()
                            : gone_->blocks_received;
  }
  std::size_t partner_count() const noexcept {
    return live_ != nullptr ? live_->partner_count() : 0;
  }

 private:
  const Peer* live_ = nullptr;
  const DepartedPeer* gone_ = nullptr;
};

/// One broadcast channel.
class System {
 public:
  System(sim::Simulation& simulation, Params params, SystemConfig config,
         logging::LogServer* log_server);
  ~System();

  System(const System&) = delete;
  System& operator=(const System&) = delete;

  /// Creates the dedicated servers and starts the global tick.  Call once
  /// before the first join.
  void start();

  /// Adds a viewer; the peer immediately begins the §IV-A join process.
  /// Returns its node id.
  net::NodeId join(const PeerSpec& spec);

  /// Removes a node.  `graceful` leaves emit a leave activity report and
  /// notify partners; crashes notify partners (TCP reset) but report
  /// nothing — their sessions stay open in the log, as in the real trace.
  /// The node's final state moves into a DepartedPeer record and the
  /// `Peer` is destroyed; its id is never reused.  O(1) apart from the
  /// partner notifications.  Not callable from inside the tick.
  void leave(net::NodeId id, bool graceful = true);

  bool is_live(net::NodeId id) const noexcept;
  /// The live peer `id`, or nullptr (departed, or never minted).
  Peer* peer(net::NodeId id) noexcept;
  const Peer* peer(net::NodeId id) const noexcept;
  /// Node ids minted so far: ids are [0, node_count()), in join order.
  std::size_t node_count() const noexcept { return peers_.size(); }
  /// Observable state of node `id` < node_count(), live or departed — the
  /// one accessor for reads that outlive a departure.
  NodeView node(net::NodeId id) const noexcept;
  /// Live viewers right now (excludes servers).
  std::size_t live_viewer_count() const noexcept { return live_viewers_; }

  /// Full overlay snapshot for Fig.-4-style structural analysis.
  net::TopologySnapshot snapshot() const;

  // --- accessors -----------------------------------------------------------
  sim::Simulation& simulation() noexcept { return sim_; }
  const Params& params() const noexcept { return params_; }
  /// Attaches (or detaches, with nullptr) a fault injector: message faults
  /// hit the transport, capacity faults scale uplinks in the fluid data
  /// plane, flap faults make nodes refuse new inbound connections.  The
  /// injector must outlive the System or be detached first.  Off by
  /// default; with no injector every seeded run is bit-identical.
  void attach_faults(sim::FaultInjector* injector) noexcept {
    faults_ = injector;
    transport_.attach_faults(injector);
  }
  sim::FaultInjector* faults() const noexcept { return faults_; }
  /// Ids of currently live nodes (servers + viewers), join order except
  /// for swap-removal on leave.  Deterministic across runs.
  const std::vector<net::NodeId>& live_nodes() const noexcept {
    return live_;
  }
  const SystemConfig& config() const noexcept { return config_; }
  BootstrapServer& bootstrap() noexcept { return bootstrap_; }
  net::Transport& transport() noexcept { return transport_; }
  logging::LogServer* log_server() noexcept { return log_; }
  const SystemStats& stats() const noexcept { return stats_; }
  const sim::StepCounter& concurrent_viewers() const noexcept {
    return viewers_over_time_;
  }

  /// Observer for session milestones (set by workload drivers).  It must
  /// not call leave() synchronously — drivers schedule departures as
  /// events — because leave() destroys the Peer, and the observer may run
  /// inside one of that peer's own methods.
  std::function<void(net::NodeId, SessionEvent)> observer;

  // --- services used by Peer (protocol plumbing) ---------------------------
  Tick now() const noexcept { return sim_.now(); }
  sim::Rng& rng() noexcept { return sim_.rng(); }
  /// Asks the boot-strap node for a list; it arrives one request delay
  /// later (DESIGN.md §5).
  void request_bootstrap_list(net::NodeId requester);
  /// Initiates a partnership attempt (latency-delayed; §III-B).
  void attempt_partnership(net::NodeId from, net::NodeId to);
  /// Pushes `bm` (built by `from`) into `to`'s view of `from` (BM
  /// exchange, modelled with zero latency, counted for overhead).  Serial
  /// contexts only; phase P pushes through push_bm_round.
  void push_bm(net::NodeId from, net::NodeId to, const BufferMap& bm);
  /// One periodic BM round of `from` (phase P only): `base` to every
  /// partner, each with its subscription half (bit j set when
  /// parents[j] is that partner).  Delivered after the flush; see tick().
  void push_bm_round(net::NodeId from, const BufferMap& base,
                     std::span<const PartnerState> partners,
                     std::span<const net::NodeId> parents);
  /// Sub-stream subscription management (child -> parent).
  void subscribe(net::NodeId child, net::NodeId parent, SubstreamId j);
  void unsubscribe(net::NodeId child, net::NodeId parent, SubstreamId j);
  /// Gossip push of membership entries (an arena batch lease; the chunk
  /// recycles when every queued delivery has run or been dropped).  Serial
  /// contexts only — the parallel phase routes via send_gossip_entries.
  void send_gossip(net::NodeId from, net::NodeId to,
                   MessageArena<McacheEntry>::Batch batch);
  /// Gossip push with the entries carried inline (shard-safe): deferred in
  /// the parallel phase, materialized into an arena batch at the flush.
  void send_gossip_entries(net::NodeId from, const EffectGossip& gossip);
  /// The control-plane message arena (gossip + boot-strap batches).
  /// Main-thread-only: never touched inside the parallel phase.
  MessageArena<McacheEntry>& message_arena() noexcept { return mcache_arena_; }
  /// Sampling scratch for Mcache::sample_into, one per shard (no
  /// re-entrant use: protocol callbacks never nest a second sample inside
  /// one; serial contexts all use shard 0's).
  Mcache::SampleScratch& mcache_scratch() noexcept;
  /// Candidate buffer for Peer::try_establish_partnerships (per shard).
  std::vector<McacheEntry>& candidate_scratch() noexcept;
  /// Drops the partnership between two nodes (both sides notified).
  void break_partnership(net::NodeId a, net::NodeId b);
  /// Inside the tick's effect flush: applies to `reader` every live
  /// periodic BM push of this tick whose round the flush has already
  /// passed — exactly the pushes an in-order flush would have delivered by
  /// now.  No-op anywhere else.
  void apply_passed_bms(Peer& reader);
  /// Files a report with the log server (no-op when none attached).
  void report(const logging::Report& r);
  /// Session milestones, called by Peer.
  void notify(net::NodeId id, SessionEvent event);
  /// Max partner count for a node (M for viewers, server override).
  int max_partners_of(const Peer& p) const noexcept;
  /// Whether `id` accepts inbound connections — what a peer infers from
  /// the advertised address class (public / UPnP-mapped vs plain NAT).
  bool is_reachable(net::NodeId id) const noexcept;
  /// Whether `id` is a capable parent (server, direct or UPnP) in the §V-B
  /// subscription-lifetime split.  Like is_reachable it reads only the
  /// spec, so a node is classified the same before and after it departs.
  bool is_capable_parent(net::NodeId id) const noexcept;
  /// Encoder position: contiguous head of sub-stream `j` at time `t`
  /// (servers lag this by config().server_lag).
  SeqNum source_head(SubstreamId j, Tick t) const noexcept;

  /// The runtime invariant auditor, when one was attached by start()
  /// (COOLSTREAM_AUDIT builds with config().audit_period > 0); else null.
  InvariantAuditor* auditor() noexcept { return auditor_.get(); }

  /// Resolved shard count (config().shards / COOLSTREAM_SHARDS / 1).
  int shard_count() const noexcept { return shard_count_; }
  /// The shard that owns node `id` (pure id partition, stable for the
  /// node's lifetime).
  std::size_t shard_of(net::NodeId id) const noexcept {
    return id % static_cast<net::NodeId>(shard_count_);
  }

 private:
  friend struct InvariantTestAccess;  // seeded-corruption hooks (tests only)

  /// A sender's periodic BM round, recorded in phase P.
  struct BmRound {
    BufferMap base;  ///< the sender's map, subscription half clear
    /// Where the round sits in the flush's canonical order:
    /// place(sender position, effects the sender emitted before it).
    std::uint64_t place = 0;
  };
  /// One live push of a round; lives in the lane for (sender shard,
  /// receiver shard).
  struct BmRecord {
    net::NodeId to = net::kInvalidNode;
    net::NodeId from = net::kInvalidNode;
    std::uint32_t round = 0;     ///< index into the sender shard's rounds
    std::uint32_t sub_bits = 0;  ///< subscription half for `to`
  };

  /// One shard's private buffers (serial contexts use shard 0's).  Written
  /// only by the shard's own thread within a phase; other shards read the
  /// BM rounds and lanes only after the barrier.  Cache-line aligned so
  /// neighbouring shards never share a line.
  struct alignas(64) ShardScratch {
    Mcache::SampleScratch mcache;
    std::vector<McacheEntry> candidates;
    std::vector<units::BlockRate> demands;
    std::vector<units::BlockRate> rates;  ///< F1 allocation output
    std::vector<std::uint32_t> positions;  ///< own tick positions, ascending
    std::vector<BmRound> bm_rounds;        ///< this tick, position order
    std::vector<std::vector<BmRecord>> bm_out;  ///< by receiver shard
    std::uint64_t blocks_transferred = 0;
    std::uint64_t bm_pushes = 0;
  };

  /// Per-(child, sub-stream) flow slot: written by the unique owning
  /// parent in the rate phase, consumed by the child in the apply phase.
  /// `stamp` invalidates slots left over from earlier ticks.
  struct InFlow {
    units::BlockRate rate{};       ///< granted transfer rate this tick
    SeqNum parent_head{};          ///< parent's head, frozen at tick start
    net::NodeId parent = net::kInvalidNode;
    std::uint32_t pushed = 0;      ///< blocks the child applied (bytes_up)
    std::uint32_t stamp = 0;       ///< tick_stamp_ when written
  };

  void tick();
  /// Phase F1 (sharded by parent): compute per-link rates from the frozen
  /// tick-start heads and publish them as InFlow slots.
  void flow_rates(std::size_t shard, Duration dt);
  /// Phase F2 (sharded by child): apply each sub-stream's slot — credits,
  /// deadline/window skips, block inserts.
  void flow_apply(std::size_t shard, Duration dt);
  /// Phase P (sharded by peer): tally bytes_up from the slots, then run
  /// Peer::on_tick with every cross-peer interaction deferred as effects.
  void protocol_phase(std::size_t shard, Tick t);
  /// Drains the effect mailbox in canonical sender order (serial).
  void flush_effects();
  void apply_effect(net::NodeId from, TickEffect&& effect);
  /// Phase D (sharded by receiver): delivers this tick's BM records.
  void deliver_bms(std::size_t shard);
  /// Live node `id` loses partner `gone` (no-op when `id` is not live).
  void drop_partner(net::NodeId id, net::NodeId gone);
  static constexpr std::uint64_t place(std::uint32_t pos,
                                       std::uint32_t k) noexcept {
    return (std::uint64_t{pos} << 32) | k;
  }
  std::size_t current_shard() const noexcept;
  static int resolve_shard_count(int configured);

  sim::Simulation& sim_;
  Params params_;
  SystemConfig config_;
  logging::LogServer* log_;
  net::LatencyModel latency_model_;
  net::Transport transport_;
  BootstrapServer bootstrap_;
  /// By id: the live peer, null once departed.  Ids are never reused:
  /// per-peer RNG substreams, latency pairs and shard_of derive from them.
  std::vector<std::unique_ptr<Peer>> peers_;
  std::vector<net::NodeId> live_;  ///< ids of live nodes, join order
  /// By id: a live node's position in live_; a departed node's index in
  /// departed_ (peers_[id] tells which).
  std::vector<std::uint32_t> index_of_;
  std::vector<DepartedPeer> departed_;  ///< departure order
  std::size_t live_viewers_ = 0;
  std::uint64_t next_session_id_ = 1;
  std::uint64_t next_user_auto_ = 1'000'000'000ULL;
  sim::StepCounter viewers_over_time_;
  SystemStats stats_;
  sim::EventHandle tick_handle_;
  std::unique_ptr<InvariantAuditor> auditor_;
  sim::FaultInjector* faults_ = nullptr;
  bool started_ = false;

  // --- sharded tick engine -------------------------------------------------
  int shard_count_;
  std::uint32_t tick_stamp_ = 0;
  /// True only while phase P workers run: is_live() then answers from the
  /// frozen tick positions (peers mutate their own phase bytes in P).
  bool in_protocol_phase_ = false;
  /// True only during flush_effects(); flush_cursor_ is then the place of
  /// the effect being applied.
  bool flushing_ = false;
  std::uint64_t flush_cursor_ = 0;
  std::vector<net::NodeId> tick_order_;  ///< live_, frozen at tick start
  /// By id: position in tick_order_, kNotTicked for nodes not live at tick
  /// start.
  std::vector<std::uint32_t> tick_pos_;
  static constexpr std::uint32_t kNotTicked = ~std::uint32_t{0};
  std::vector<InFlow> inflow_;  ///< peers_.size() * K slots, stamp-guarded
  sim::ShardMailbox<TickEffect> effects_;
  std::vector<ShardScratch> shard_scratch_;  ///< one per shard
  sim::ShardRunner runner_;  ///< after shard_scratch_: joined first

  // zero-alloc control plane: arena chunks and sampling scratch reused
  // across gossip sends, boot-strap responses and partner refills
  MessageArena<McacheEntry> mcache_arena_;
  std::vector<std::size_t> bootstrap_idx_scratch_;
  std::vector<net::NodeId> bootstrap_ids_scratch_;
};

}  // namespace coolstream::core
