#include "core/system.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdlib>

#include "core/invariants.h"
#include "net/bandwidth.h"
#include "sim/stream_tags.h"

namespace coolstream::core {
namespace {

/// Pseudo node id used for latency draws on the client <-> boot-strap path.
constexpr net::NodeId kBootstrapNodeId = net::kInvalidNode - 1;

/// Per-connection credit cap (whole blocks) for the fluid data plane.
constexpr double kMaxFlowCredit = 4.0;

}  // namespace

System::System(sim::Simulation& simulation, Params params,
               SystemConfig config, logging::LogServer* log_server)
    : sim_(simulation),
      params_(params),
      config_(config),
      log_(log_server),
      latency_model_(simulation.rng().next_u64(), config.latency),
      transport_(simulation, latency_model_),
      shard_count_(resolve_shard_count(config.shards)),
      shard_scratch_(static_cast<std::size_t>(shard_count_)),
      runner_(static_cast<std::size_t>(shard_count_)),
      // Largest control-plane batch: a boot-strap list response (gossip
      // pushes carry at most 3 sampled entries + self).
      mcache_arena_(std::max<std::size_t>(
          4, params.bootstrap_list_size > 0
                 ? static_cast<std::size_t>(params.bootstrap_list_size)
                 : 0)) {
  params_.validate();
  for (ShardScratch& sc : shard_scratch_) {
    sc.bm_out.resize(shard_scratch_.size());
  }
}

System::~System() { tick_handle_.cancel(); }

int System::resolve_shard_count(int configured) {
  int n = configured;
  if (n <= 0) {
    if (const char* env = std::getenv("COOLSTREAM_SHARDS")) n = std::atoi(env);
  }
  if (n < 1) n = 1;
  return std::min(n, 64);
}

void System::start() {
  assert(!started_);
  started_ = true;
  // Stream-tag collision check: every per-peer RNG substream tag must stay
  // outside the reserved subsystem namespace, for the widest id this run
  // can ever mint — otherwise a peer and e.g. the churn driver would share
  // one random stream and sharding could perturb the workload.
  assert(sim::peer_stream_tag(net::kInvalidNode) >=
         sim::kMaxReservedStreamTag);
  for (int s = 0; s < config_.server_count; ++s) {
    PeerSpec spec;
    spec.user_id = 0;  // servers are infrastructure, not users
    spec.kind = PeerKind::kServer;
    spec.type = net::ConnectionType::kDirect;
    spec.address = net::random_public_address(sim_.rng());
    spec.upload_capacity = units::BitRate(config_.server_capacity_bps);
    const net::NodeId id = static_cast<net::NodeId>(peers_.size());
    peers_.push_back(std::make_unique<Peer>(
        *this, id, spec, units::SessionId(next_session_id_++), now()));
    index_of_.push_back(static_cast<std::uint32_t>(live_.size()));
    live_.push_back(id);
    bootstrap_.add(id, now());
    peers_.back()->start_join();
  }
  tick_handle_ =
      sim_.every(params_.flow_dt(), params_.flow_dt(), [this] { tick(); });
#ifdef COOLSTREAM_AUDIT
  if (config_.audit_period > 0.0) {
    auditor_ = std::make_unique<InvariantAuditor>(*this);
    auditor_->start(Duration(config_.audit_period));
  }
#endif
}

net::NodeId System::join(const PeerSpec& spec) {
  assert(started_ && "call start() before join()");
  assert(spec.kind == PeerKind::kViewer);
  PeerSpec s = spec;
  if (s.user_id == 0) s.user_id = next_user_auto_++;
  const net::NodeId id = static_cast<net::NodeId>(peers_.size());
  peers_.push_back(std::make_unique<Peer>(
      *this, id, s, units::SessionId(next_session_id_++), now()));
  index_of_.push_back(static_cast<std::uint32_t>(live_.size()));
  live_.push_back(id);
  bootstrap_.add(id, now());
  ++live_viewers_;
  viewers_over_time_.add(now(), +1);
  ++stats_.joins;
  peers_.back()->start_join();
  notify(id, SessionEvent::kJoined);
  return id;
}

void System::leave(net::NodeId id, bool graceful) {
  Peer* p = peer(id);
  if (p == nullptr) return;  // already departed
  assert(p->alive() && p->kind() == PeerKind::kViewer && "servers never leave");
  // The tick holds peers by id across its phases and the flush; a leave
  // from inside it (a synchronous observer) would free one mid-use.
  assert(!flushing_ && !in_protocol_phase_);

  if (graceful) {
    logging::ActivityReport r;
    r.header = {p->spec().user_id,
                p->session_id().value(),  // lint:allow(value-escape)
                now().value()};           // lint:allow(value-escape)
    r.activity = logging::Activity::kLeave;
    r.had_incoming = p->had_incoming();
    r.had_outgoing = p->had_outgoing();
    report(logging::Report(r));
  }

  // Notify partners (graceful FIN or TCP reset; either way partnerships
  // break promptly).  Children of this node are among its partners, so the
  // notification also triggers their parent reselection.
  std::vector<net::NodeId> partner_ids;
  partner_ids.reserve(p->partner_count());
  for (const auto& ps : p->partners()) partner_ids.push_back(ps.id);
  p->set_left();
  for (net::NodeId q : partner_ids) drop_partner(q, id);

  bootstrap_.remove(id);
  const std::uint32_t pos = index_of_[id];
  assert(live_[pos] == id);
  live_[pos] = live_.back();
  index_of_[live_[pos]] = pos;
  live_.pop_back();
  --live_viewers_;
  viewers_over_time_.add(now(), -1);
  ++stats_.leaves;

  // Keep what outlives the session and free the rest.  Stale ids held
  // elsewhere (mCaches, pending dials, in-flight messages, deferred
  // effects) now resolve to no live peer and are dropped where they land.
  DepartedPeer rec;
  rec.spec = p->spec();
  rec.stats = p->stats();
  rec.play_start_seq = p->play_start_seq();
  rec.playhead = p->playhead();
  rec.blocks_received = p->sync().blocks_received();
  for (SubstreamId j : substreams(params_.substream_count)) {
    departed_heads_.push_back(p->head(j));
  }
  index_of_[id] = static_cast<std::uint32_t>(departed_.size());
  departed_.push_back(rec);
  peers_[id].reset();
  notify(id, SessionEvent::kLeft);
}

bool System::is_live(net::NodeId id) const noexcept {
  // During the parallel protocol phase peers flip their own phase bytes
  // (join/buffer/play transitions); cross-shard liveness queries answer
  // from the tick-start snapshot instead — deterministic and race-free.
  if (in_protocol_phase_) {
    return id < tick_pos_.size() && tick_pos_[id] != kNotTicked;
  }
  const Peer* p = peer(id);
  return p != nullptr && p->alive();
}

std::size_t System::current_shard() const noexcept {
  const TickEffectSink* s = tick_effect_sink();
  return s != nullptr ? s->shard : 0;
}

Mcache::SampleScratch& System::mcache_scratch() noexcept {
  return shard_scratch_[current_shard()].mcache;
}

std::vector<McacheEntry>& System::candidate_scratch() noexcept {
  return shard_scratch_[current_shard()].candidates;
}

Peer* System::peer(net::NodeId id) noexcept {
  return id < peers_.size() ? peers_[id].get() : nullptr;
}

const Peer* System::peer(net::NodeId id) const noexcept {
  return id < peers_.size() ? peers_[id].get() : nullptr;
}

NodeView System::node(net::NodeId id) const noexcept {
  assert(id < peers_.size());
  const Peer* p = peers_[id].get();
  if (p != nullptr) return NodeView(*p);
  const std::uint32_t i = index_of_[id];
  const auto k = static_cast<std::size_t>(params_.substream_count);
  return NodeView(departed_[i], departed_heads_.data() + i * k);
}

int System::max_partners_of(const Peer& p) const noexcept {
  if (p.kind() == PeerKind::kServer) return config_.server_max_partners;
  // A viewer's partner budget scales with its uplink: beyond its own
  // source partnerships it only accepts what its capacity can plausibly
  // feed (each extra partner subscribes ~1.5 sub-streams on average).
  // This is the admission-control role the paper assigns to M — "the
  // parent will continue accepting new children as long as its total
  // number of partners is less than the upper bound M" — with M set the
  // only way a deployment can set it: per the peer's capacity.
  const double substream_units =
      p.spec().upload_capacity.value() /  // lint:allow(value-escape)
      params_.substream_rate_bps();
  const int budget = params_.initial_partner_target +
                     static_cast<int>(std::ceil(substream_units / 1.5));
  return std::clamp(budget, params_.initial_partner_target + 1,
                    params_.max_partners);
}

bool System::is_reachable(net::NodeId id) const noexcept {
  // Answered from the spec, which outlives a departure: a partnership
  // reply from a callee that has since left still classifies it.
  if (id >= node_count() || !net::accepts_inbound(node(id).spec().type)) {
    return false;
  }
  // A connectivity flap looks exactly like a NAT whose mapping was lost:
  // new inbound connections fail while established ones keep flowing.
  return faults_ == nullptr || !faults_->inbound_blocked(now(), id);
}

bool System::is_capable_parent(net::NodeId id) const noexcept {
  const PeerSpec& spec = node(id).spec();
  return spec.kind == PeerKind::kServer || net::accepts_inbound(spec.type);
}

SeqNum System::source_head(SubstreamId j, Tick t) const noexcept {
  // Global blocks [0, G) have been produced by time t; sub-stream j holds
  // those g with g mod K == j.
  const auto produced = static_cast<std::int64_t>(
      std::floor(t.value() * params_.block_rate));  // lint:allow(value-escape)
  return last_seq_at_or_below(GlobalSeq(produced - 1), j,
                              params_.substream_count);
}

// --------------------------------------------------------------------------
// Protocol plumbing
// --------------------------------------------------------------------------

void System::request_bootstrap_list(net::NodeId requester) {
  if (TickEffectSink* s = tick_effect_sink()) {
    s->emit(EffectBootstrap{});
    return;
  }
  // The list arrives one request delay after the ask: it is sampled from
  // the boot-strap node's state at that instant and handed to the
  // requester at once, with no modelled return leg (DESIGN.md §5).
  transport_.send(requester, kBootstrapNodeId, net::MessageKind::kGossip,
                  [this, requester] {
                    Peer* p = peer(requester);
                    if (p == nullptr || !p->alive()) return;
                    bootstrap_.random_list_into(
                        static_cast<std::size_t>(params_.bootstrap_list_size),
                        requester, sim_.rng(), bootstrap_idx_scratch_,
                        bootstrap_ids_scratch_);
                    auto batch = mcache_arena_.make();
                    for (net::NodeId id : bootstrap_ids_scratch_) {
                      batch.push_back(McacheEntry{
                          bootstrap_.joined_at(id), now(), id,
                          is_reachable(id)});
                    }
                    p->on_bootstrap_list(batch.items());
                  });
}

void System::attempt_partnership(net::NodeId from, net::NodeId to) {
  if (TickEffectSink* s = tick_effect_sink()) {
    s->emit(EffectAttempt{to});
    return;
  }
  transport_.send(from, to, net::MessageKind::kPartnership, [this, from, to] {
    Peer* callee = peer(to);
    Peer* caller = peer(from);
    const bool accept =
        callee != nullptr && callee->alive() && caller != nullptr &&
        caller->alive() && is_reachable(to) && !callee->partners_full() &&
        callee->find_partner(from) == nullptr;
    if (accept) {
      ++stats_.partnership_accepts;
      callee->on_partnership_established(from, /*incoming=*/true);
      transport_.send(to, from, net::MessageKind::kPartnership,
                      [this, from, to] {
                        Peer* c = peer(from);
                        if (c == nullptr || !c->alive()) return;
                        c->on_partnership_established(to, /*incoming=*/false);
                      });
    } else {
      ++stats_.partnership_rejects;
      transport_.send(to, from, net::MessageKind::kPartnership,
                      [this, from, to] {
                        Peer* c = peer(from);
                        if (c == nullptr || !c->alive()) return;
                        c->on_partnership_rejected(to);
                      });
    }
  });
}

void System::push_bm(net::NodeId from, net::NodeId to, const BufferMap& bm) {
  assert(tick_effect_sink() == nullptr);
  // BM exchange is modelled with zero latency (the exchange period, 1 s,
  // dominates the tens-of-ms delivery delay); messages are still counted
  // for control-overhead reporting.
  transport_.count_only(net::MessageKind::kBufferMap);
  Peer* dest = peer(to);
  if (dest == nullptr || !dest->alive()) {
    drop_partner(from, to);  // lazily clean up half-open partnerships
    return;
  }
  dest->on_bm_received(from, bm, bm.subscription_bits());
}

void System::push_bm_round(net::NodeId from, const BufferMap& base,
                           std::span<const PartnerState> partners,
                           std::span<const net::NodeId> parents) {
  TickEffectSink* sink = tick_effect_sink();
  assert(sink != nullptr && "periodic BM rounds run in phase P only");
  ShardScratch& sc = shard_scratch_[sink->shard];
  const auto round = static_cast<std::uint32_t>(sc.bm_rounds.size());
  sc.bm_rounds.push_back(BmRound{base, place(sink->pos, sink->emitted)});
  for (const PartnerState& ps : partners) {
    if (!is_live(ps.id)) {
      // Its lazy cleanup must run at our canonical flush position.
      sink->emit(EffectBmToDeparted{ps.id});
      continue;
    }
    std::uint32_t bits = 0;
    for (std::size_t j = 0; j < parents.size(); ++j) {
      if (parents[j] == ps.id) bits |= 1u << j;
    }
    sc.bm_out[shard_of(ps.id)].push_back(BmRecord{ps.id, from, round, bits});
    ++sc.bm_pushes;
  }
}

void System::subscribe(net::NodeId child, net::NodeId parent, SubstreamId j) {
  if (TickEffectSink* s = tick_effect_sink()) {
    s->emit(EffectSubscribe{parent, j});
    return;
  }
  ++stats_.subscriptions;
  transport_.count_only(net::MessageKind::kSubscribe);
  if (Peer* p = peer(parent); p != nullptr && p->alive()) {
    p->on_subscribe(child, j);
  }
}

void System::unsubscribe(net::NodeId child, net::NodeId parent,
                         SubstreamId j) {
  if (TickEffectSink* s = tick_effect_sink()) {
    s->emit(EffectUnsubscribe{parent, j});
    return;
  }
  transport_.count_only(net::MessageKind::kSubscribe);
  if (Peer* p = peer(parent); p != nullptr && p->alive()) {
    p->on_unsubscribe(child, j);
  }
}

void System::send_gossip(net::NodeId from, net::NodeId to,
                         MessageArena<McacheEntry>::Batch batch) {
  // The lease rides inside the delivery callback: a dropped message
  // releases it on callback destruction, a duplicated one copies it
  // (refcount bump, no heap).  Arena batches are main-thread-only, so this
  // entry point is serial-context-only by construction.
  assert(tick_effect_sink() == nullptr);
  transport_.send(from, to, net::MessageKind::kGossip,
                  [this, to, batch = std::move(batch)] {
                    if (Peer* p = peer(to); p != nullptr && p->alive()) {
                      p->on_gossip(batch.items());
                    }
                  });
}

void System::send_gossip_entries(net::NodeId from, const EffectGossip& gossip) {
  if (TickEffectSink* s = tick_effect_sink()) {
    s->emit(gossip);
    return;
  }
  auto batch = mcache_arena_.make();
  for (std::uint32_t i = 0; i < gossip.count; ++i) {
    batch.push_back(gossip.entries[i]);
  }
  send_gossip(from, gossip.to, std::move(batch));
}

void System::break_partnership(net::NodeId a, net::NodeId b) {
  if (TickEffectSink* s = tick_effect_sink()) {
    s->emit(EffectBreak{b});
    return;
  }
  transport_.count_only(net::MessageKind::kPartnership);
  drop_partner(a, b);
  drop_partner(b, a);
}

void System::drop_partner(net::NodeId id, net::NodeId gone) {
  if (Peer* p = peer(id); p != nullptr && p->alive()) p->on_partner_left(gone);
}

void System::report(const logging::Report& r) {
  if (TickEffectSink* s = tick_effect_sink()) {
    s->emit(EffectReport{r});
    return;
  }
  transport_.count_only(net::MessageKind::kReport);
  if (log_ != nullptr) log_->submit(r);
}

void System::notify(net::NodeId id, SessionEvent event) {
  if (TickEffectSink* s = tick_effect_sink()) {
    s->emit(EffectNotify{event});
    return;
  }
  if (observer) observer(id, event);
}

// --------------------------------------------------------------------------
// Data plane: the phased, shardable tick
//
// The serial tick interleaved flow transfer and protocol timers in live_
// order; the sharded engine replays the same physics as phases whose
// outputs are pure functions of the frozen tick-start state:
//
//   freeze (serial) tick order, positions by id and by shard
//   F1 (by parent)  rates from frozen heads -> InFlow slots   | barrier
//   F2 (by child)   apply slots: credits, skips, inserts      | barrier
//   P  (by peer)    bytes_up roll-up + on_tick; cross-peer    | barrier
//                   calls deferred as effects, periodic BM
//                   pushes written as per-shard-pair records
//   flush (serial)  effects applied in canonical sender order
//   D  (by receiver) BM records delivered                     | barrier
//
// Each barrier is the shard runner's (sim/shard_runner.h).  One shard runs
// the identical engine inline, so the 1-shard run IS the serial baseline
// and every N produces bit-identical state.
//
// Why D can follow the flush.  The result must equal applying each BM
// push as an effect at its sender's place in the flush, like every other
// effect.  It does, because during the flush partnerships are only
// removed (Transport::send always schedules, so none is created),
// liveness is frozen, and each edge carries at most one periodic push per
// tick.  So a push reaches its receiver iff the receiver still lists the
// sender when D runs — unless the partnership breaks mid-flush after the
// push's place, and then the partner state the push wrote is erased with
// it.  The push's only other traces are what flush-time code reads before
// D: select_parent (via on_partner_left -> reselect) reads partner maps,
// and on_bm_received stamps first_bm_at_.  Both are reached only through
// Peer::on_partner_left, which first applies every push whose place the
// flush cursor has passed (apply_passed_bms), so each reader sees exactly
// the pushes an in-order flush would have applied by then.  DESIGN.md §15
// has the full argument.
// --------------------------------------------------------------------------

void System::tick() {
  const Duration dt = params_.flow_dt();
  const Tick t = now();
  const auto k_streams = static_cast<std::size_t>(params_.substream_count);
  ++tick_stamp_;

  // Freeze the tick-start view: peer order, each live id's position (which
  // doubles as the liveness snapshot), each shard's positions, flow slots.
  // Only the previous tick's positions are reset and only new ids are
  // appended, so the freeze costs O(live), not O(ids ever minted).
  for (const net::NodeId id : tick_order_) tick_pos_[id] = kNotTicked;
  tick_pos_.resize(peers_.size(), kNotTicked);
  tick_order_.assign(live_.begin(), live_.end());
  for (ShardScratch& sc : shard_scratch_) {
    sc.positions.clear();
    sc.bm_rounds.clear();
    for (std::vector<BmRecord>& lane : sc.bm_out) lane.clear();
  }
  for (std::uint32_t pos = 0;
       pos < static_cast<std::uint32_t>(tick_order_.size()); ++pos) {
    const net::NodeId id = tick_order_[pos];
    tick_pos_[id] = pos;
    shard_scratch_[shard_of(id)].positions.push_back(pos);
  }
  if (inflow_.size() < peers_.size() * k_streams) {
    inflow_.resize(peers_.size() * k_streams);
  }
  effects_.reset(static_cast<std::size_t>(shard_count_));

  runner_.run([this, dt](std::size_t s) { flow_rates(s, dt); });
  runner_.run([this, dt](std::size_t s) { flow_apply(s, dt); });
  in_protocol_phase_ = true;
  runner_.run([this, t](std::size_t s) { protocol_phase(s, t); });
  in_protocol_phase_ = false;

  std::uint64_t bm_pushes = 0;
  for (ShardScratch& sc : shard_scratch_) {
    stats_.blocks_transferred += sc.blocks_transferred;
    sc.blocks_transferred = 0;
    bm_pushes += sc.bm_pushes;
    sc.bm_pushes = 0;
  }
  transport_.count_only(net::MessageKind::kBufferMap, bm_pushes);
  flush_effects();
  runner_.run([this](std::size_t s) { deliver_bms(s); });
}

void System::flow_rates(std::size_t shard, Duration dt) {
  const units::BlockRate sub_rate = params_.substream_block_rate_typed();
  const units::BlockRate catchup_cap = sub_rate * params_.max_catchup_factor;
  const auto k_streams = static_cast<std::size_t>(params_.substream_count);
  std::vector<units::BlockRate>& demands = shard_scratch_[shard].demands;
  std::vector<units::BlockRate>& rates = shard_scratch_[shard].rates;

  for (const std::uint32_t pos : shard_scratch_[shard].positions) {
    const net::NodeId id = tick_order_[pos];
    Peer* parent = peer(id);
    if (parent == nullptr || !parent->alive()) continue;
    auto& links = parent->out_links();
    if (links.empty()) continue;

    // Demands per outgoing sub-stream connection (blocks/s), from heads
    // frozen at tick start — no phase writes them until F2.  A stale link
    // (child gone, or no longer taking the sub-stream from us) keeps
    // demand 0, so it is granted no rate and is compacted below: each
    // child is resolved once per link.
    demands.assign(links.size(), units::BlockRate::zero());
    bool any_stale = false;
    for (std::size_t k = 0; k < links.size(); ++k) {
      const OutLink& l = links[k];
      const Peer* child = peer(l.child);
      if (child == nullptr || !child->alive() ||
          child->parent_of(l.substream) != id) {
        any_stale = true;
        continue;
      }
      const BlockCount backlog =
          parent->head(l.substream) - child->head(l.substream);
      if (backlog <= BlockCount::zero()) {
        demands[k] = sub_rate;
      } else {
        demands[k] =
            std::min(units::rate_of(backlog, dt) + sub_rate, catchup_cap);
      }
    }

    units::BlockRate capacity = parent->upload_block_rate();
    if (faults_ != nullptr) {
      capacity = capacity * faults_->capacity_factor(now(), id);
    }
    rates.resize(links.size());
    if (config_.allocation == AllocationPolicy::kMaxMinFair) {
      net::max_min_fair(capacity, demands, rates);
    } else {
      net::equal_share(capacity, demands, rates);
    }

    // Publish one InFlow slot per granted link.  Exactly one parent can
    // pass the parent_of() check for a given (child, sub-stream), so each
    // slot has a unique writer this phase.
    for (std::size_t k = 0; k < links.size(); ++k) {
      if (rates[k] <= units::BlockRate::zero()) continue;  // stale, or none
      const OutLink& l = links[k];
      InFlow& slot = inflow_[l.child * k_streams + l.substream.index()];
      slot.rate = rates[k];
      slot.parent_head = parent->head(l.substream);
      slot.parent = id;
      slot.pushed = BlockCount::zero();
      slot.stamp = tick_stamp_;
    }

    if (any_stale) {
      std::size_t kept = 0;
      for (std::size_t k = 0; k < links.size(); ++k) {
        if (demands[k] > units::BlockRate::zero()) links[kept++] = links[k];
      }
      links.resize(kept);
    }
  }
}

void System::flow_apply(std::size_t shard, Duration dt) {
  const units::Bytes block_bytes = params_.block_bytes();
  const auto k_streams = static_cast<std::size_t>(params_.substream_count);
  std::uint64_t& blocks = shard_scratch_[shard].blocks_transferred;

  for (const std::uint32_t pos : shard_scratch_[shard].positions) {
    const net::NodeId id = tick_order_[pos];
    Peer* child = peer(id);
    if (child == nullptr || !child->alive()) continue;
    for (SubstreamId j : substreams(params_.substream_count)) {
      InFlow& slot = inflow_[id * k_streams + j.index()];
      if (slot.stamp != tick_stamp_) continue;  // no grant this tick
      double& credit = child->credit(j);
      credit = std::min(credit + slot.rate * dt, kMaxFlowCredit);

      const SeqNum parent_head = slot.parent_head;
      // Blocks already past the child's playback deadline are not "in
      // need" (§IV-B) and are never pushed; jump the child forward.
      const SeqNum dead = child->deadline_floor(j);
      if (child->head(j) < dead) {
        child->count_deadline_skip();
        child->sync().start_at(j, dead + BlockCount(1));
      }
      if (credit < 1.0 || child->head(j) >= parent_head) continue;
      // The parent's cache window is a pure function of its frozen head
      // and the (deployment-wide) window size, so the child computes it
      // from its own CacheBuffer — no cross-shard read.
      const SeqNum oldest = child->cache().oldest(parent_head);
      if (child->head(j) + BlockCount(1) < oldest) {
        // The child fell behind the parent's cache window: the missing
        // range is gone (pushed out by playout) and must be skipped.
        child->handle_window_gap(j, oldest);
      }
      // The parent pushes the blocks in order, so the grant is one run
      // from the head: as many whole blocks as the credit covers.
      const BlockCount n =
          std::min(units::whole_blocks(credit), parent_head - child->head(j));
      if (n <= BlockCount::zero()) continue;
      child->sync().advance(j, n);
      units::spend(credit, n);
      units::tally(blocks, n);
      slot.pushed += n;
      child->add_bytes_down(block_bytes * n);
    }
  }
}

void System::protocol_phase(std::size_t shard, Tick t) {
  const units::Bytes block_bytes = params_.block_bytes();
  const auto k_streams = static_cast<std::size_t>(params_.substream_count);
  TickEffectSink sink;
  sink.mailbox = &effects_;
  sink.shard = shard;
  set_tick_effect_sink(&sink);
  for (const std::uint32_t pos : shard_scratch_[shard].positions) {
    Peer* p = peer(tick_order_[pos]);
    if (p == nullptr || !p->alive()) continue;
    // Parent-side roll-up of what F2 moved on our out-links: children
    // recorded per-slot push counts; we own our bytes_up tally.
    for (const OutLink& l : p->out_links()) {
      const InFlow& slot = inflow_[l.child * k_streams + l.substream.index()];
      if (slot.stamp != tick_stamp_ || slot.parent != p->id()) continue;
      p->add_bytes_up(block_bytes * slot.pushed);
    }
    sink.pos = pos;
    sink.emitted = 0;
    p->on_tick(t);
  }
  set_tick_effect_sink(nullptr);
}

void System::flush_effects() {
  flushing_ = true;
  std::uint32_t cur_pos = kNotTicked;
  std::uint32_t k = 0;  // index of the effect among its sender's
  effects_.drain(
      tick_order_.size(),
      [this](std::uint32_t pos) { return shard_of(tick_order_[pos]); },
      [this, &cur_pos, &k](std::uint32_t pos, TickEffect&& e) {
        if (pos != cur_pos) {
          cur_pos = pos;
          k = 0;
        }
        flush_cursor_ = place(pos, k++);
        apply_effect(tick_order_[pos], std::move(e));
      });
  flushing_ = false;
}

void System::apply_passed_bms(Peer& reader) {
  if (!flushing_) return;
  const std::size_t reader_shard = shard_of(reader.id());
  for (const PartnerState& ps : reader.partners()) {
    const std::uint32_t pos = tick_pos_[ps.id];
    if (pos == kNotTicked || place(pos, 0) > flush_cursor_) continue;
    const ShardScratch& sc = shard_scratch_[shard_of(ps.id)];
    // Rounds are in position order; a sender has at most one per tick.
    const auto round = std::lower_bound(
        sc.bm_rounds.begin(), sc.bm_rounds.end(), place(pos, 0),
        [](const BmRound& r, std::uint64_t p) { return r.place < p; });
    if (round == sc.bm_rounds.end() || (round->place >> 32) != pos ||
        round->place > flush_cursor_) {
      continue;  // no round this tick, or not passed yet
    }
    // The round's records in our lane are contiguous; find the one to us.
    const auto idx = static_cast<std::uint32_t>(round - sc.bm_rounds.begin());
    const std::vector<BmRecord>& lane = sc.bm_out[reader_shard];
    auto rec = std::lower_bound(
        lane.begin(), lane.end(), idx,
        [](const BmRecord& r, std::uint32_t i) { return r.round < i; });
    for (; rec != lane.end() && rec->round == idx; ++rec) {
      if (rec->to == reader.id()) {
        reader.on_bm_received(ps.id, round->base, rec->sub_bits);
        break;
      }
    }
  }
}

void System::deliver_bms(std::size_t shard) {
  // Per receiver, at most one record per sender: the order is immaterial.
  for (const ShardScratch& sc : shard_scratch_) {
    for (const BmRecord& rec : sc.bm_out[shard]) {
      peer(rec.to)->on_bm_received(rec.from, sc.bm_rounds[rec.round].base,
                                   rec.sub_bits);
    }
  }
}

void System::apply_effect(net::NodeId from, TickEffect&& effect) {
  assert(tick_effect_sink() == nullptr && "flush must run serially");
  std::visit(
      [this, from](auto&& e) {
        using E = std::decay_t<decltype(e)>;
        if constexpr (std::is_same_v<E, EffectBmToDeparted>) {
          transport_.count_only(net::MessageKind::kBufferMap);
          drop_partner(from, e.to);
        } else if constexpr (std::is_same_v<E, EffectSubscribe>) {
          // Stale intent: an earlier flush effect (say, a broken
          // partnership) made the sender reselect this sub-stream's parent
          // mid-flush; applying the old subscription would plant a serving
          // link the child no longer points at.
          const Peer* p = peer(from);
          if (p != nullptr && p->parent_of(e.substream) == e.parent) {
            subscribe(from, e.parent, e.substream);
          }
        } else if constexpr (std::is_same_v<E, EffectUnsubscribe>) {
          // Mirror guard: if a mid-flush reselect re-subscribed the sender
          // to this same parent, the deferred unsubscribe must not tear the
          // fresh link down.
          const Peer* p = peer(from);
          if (p == nullptr || p->parent_of(e.substream) != e.parent) {
            unsubscribe(from, e.parent, e.substream);
          }
        } else if constexpr (std::is_same_v<E, EffectBreak>) {
          break_partnership(from, e.other);
        } else if constexpr (std::is_same_v<E, EffectGossip>) {
          send_gossip_entries(from, e);
        } else if constexpr (std::is_same_v<E, EffectAttempt>) {
          attempt_partnership(from, e.to);
        } else if constexpr (std::is_same_v<E, EffectBootstrap>) {
          request_bootstrap_list(from);
        } else if constexpr (std::is_same_v<E, EffectReport>) {
          report(e.report);
        } else {
          static_assert(std::is_same_v<E, EffectNotify>);
          notify(from, e.event);
        }
      },
      std::move(effect));
}

// --------------------------------------------------------------------------
// Snapshot
// --------------------------------------------------------------------------

net::TopologySnapshot System::snapshot() const {
  net::TopologySnapshot snap;
  snap.time = sim_.now().value();  // lint:allow(value-escape)
  snap.nodes.reserve(live_.size());
  for (net::NodeId id : live_) {
    const Peer* p = peer(id);
    if (p == nullptr || !p->alive()) continue;
    net::SnapshotNode node;
    node.id = id;
    node.type = p->spec().type;
    node.is_server = p->kind() == PeerKind::kServer;
    node.upload_capacity_bps =
        p->spec().upload_capacity.value();  // lint:allow(value-escape)
    node.parents.reserve(
        static_cast<std::size_t>(params_.substream_count));
    for (SubstreamId j : substreams(params_.substream_count)) {
      node.parents.push_back(p->parent_of(j));
    }
    node.partners.reserve(p->partner_count());
    for (const auto& ps : p->partners()) node.partners.push_back(ps.id);
    snap.nodes.push_back(std::move(node));
  }
  snap.compute_depths();
  return snap;
}

}  // namespace coolstream::core
