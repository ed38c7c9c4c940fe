#include "core/peer.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "core/layout_audit.h"  // compiles the layout proofs; emits no code
#include "core/system.h"
#include "sim/stream_tags.h"

namespace coolstream::core {
namespace {

/// Cap on the per-connection credit bucket: a connection can burst at most
/// this many whole blocks in one tick beyond its steady rate.
constexpr double kMaxCredit = 4.0;

/// Partner-change entries retained per status-report interval (the paper's
/// compact partner report bounds log load).
constexpr std::size_t kMaxIntervalChanges = 64;

}  // namespace

Peer::Peer(System& system, net::NodeId id, PeerSpec spec,
           units::SessionId session_id, Tick now)
    : PeerProtocolState{},
      sys_(system),
      id_(id),
      rng_(system.rng().stream(sim::peer_stream_tag(id))),
      sync_(system.params().substream_count),
      cache_(system.params().buffer_block_count()),
      mcache_(static_cast<std::size_t>(system.params().mcache_size),
              system.config().mcache_policy),
      parents_(static_cast<std::size_t>(system.params().substream_count),
               net::kInvalidNode),
      sub_since_(static_cast<std::size_t>(system.params().substream_count),
                 Tick::zero()),
      credits_(static_cast<std::size_t>(system.params().substream_count),
               0.0) {
  // Identity fields live in the PeerProtocolState base (an aggregate, so
  // it cannot take them through the mem-initializer list).
  spec_ = spec;
  session_id_ = session_id;
  joined_at_ = now;

  // Stagger periodic timers with a random phase so thousands of peers do
  // not fire on the same tick edge.  Drawn from the peer's own stream:
  // stagger (like every later random choice) is a function of the node id
  // and the root seed only, never of join interleaving or shard layout.
  const Params& p = system.params();
  sim::Rng& rng = rng_;
  next_bm_push_ = now + Duration(rng.uniform(0.0, p.bm_exchange_period));
  next_gossip_ = now + Duration(rng.uniform(0.0, p.gossip_period));
  next_adaptation_ =
      now + Duration(rng.uniform(0.0, p.adaptation_check_period));
  next_refill_ = now + Duration(rng.uniform(0.0, p.partner_refill_period));
  next_report_ = now + Duration(p.status_report_period);
}

units::BlockRate Peer::upload_block_rate() const noexcept {
  // Boundary conversion: bits/s over bits/block yields blocks/s.
  return units::BlockRate(
      spec_.upload_capacity.value() /  // lint:allow(value-escape)
      sys_.params().block_size_bits());
}

PartnerState* Peer::find_partner(net::NodeId pid) noexcept {
  for (auto& ps : partners_) {
    if (ps.id == pid) return &ps;
  }
  return nullptr;
}

const PartnerState* Peer::find_partner(net::NodeId pid) const noexcept {
  for (const auto& ps : partners_) {
    if (ps.id == pid) return &ps;
  }
  return nullptr;
}

bool Peer::partners_full() const noexcept {
  return partner_count() >=
         static_cast<std::size_t>(sys_.max_partners_of(*this));
}

const BufferMap& Peer::refreshed_bm() const {
  const std::uint64_t v = sync_.version();
  if (bm_cache_version_ != v) {
    BufferMap bm(sys_.params().substream_count);
    for (SubstreamId j : substreams(sys_.params().substream_count)) {
      bm.set_latest(j, sync_.head(j));
    }
    bm_cache_ = bm;
    bm_cache_version_ = v;
  }
  return bm_cache_;
}

BufferMap Peer::current_bm() const { return refreshed_bm(); }

SeqNum Peer::freshest_partner_seq() const noexcept {
  SeqNum m = kNoSeq;
  for (const auto& ps : partners_) {
    if (ps.bm_time) m = std::max(m, max_latest(partner_lanes(ps)));
  }
  return m;
}

// --------------------------------------------------------------------------
// Join process (§IV-A)
// --------------------------------------------------------------------------

void Peer::start_join() {
  if (spec_.kind == PeerKind::kServer) {
    // Servers are operational immediately; they are fed from the encoder.
    phase_ = PeerPhase::kPlaying;
    server_feed(sys_.now());
    return;
  }
  logging::ActivityReport r;
  r.header = {spec_.user_id, session_id_.value(),  // lint:allow(value-escape)
              sys_.now().value()};                 // lint:allow(value-escape)
  r.activity = logging::Activity::kJoin;
  // Join-time activity report: once per session, off the per-tick path.
  r.address = spec_.address.to_string();  // lint:allow(hot-path-string)
  sys_.report(logging::Report(r));
  sys_.request_bootstrap_list(id_);
}

void Peer::on_bootstrap_list(std::span<const McacheEntry> list) {
  if (!alive()) return;
  for (const auto& e : list) {
    if (e.id != id_) mcache_.upsert(e, rng_);
  }
  const auto want = static_cast<std::size_t>(
      sys_.params().initial_partner_target);
  try_establish_partnerships(want);
}

void Peer::try_establish_partnerships(std::size_t want) {
  if (want == 0) return;
  // Candidates must be reachable: the address in the mCache entry reveals
  // plain-NAT peers, so no attempt is wasted on them (they can only ever
  // partner with us by initiating themselves).  Sampled into the System's
  // shared scratch: attempt_partnership only queues a delayed event, so the
  // buffer is never used re-entrantly.
  std::vector<McacheEntry>& candidates = sys_.candidate_scratch();
  candidates.clear();
  mcache_.sample_into(
      want, rng_,
      [this](const McacheEntry& cand) {
        return !cand.reachable || cand.id == id_ ||
               find_partner(cand.id) != nullptr ||
               has_pending_attempt(cand.id) || !sys_.is_live(cand.id);
      },
      sys_.mcache_scratch(),
      [&candidates](const McacheEntry& e) { candidates.push_back(e); });
  for (const auto& cand : candidates) {
    pending_attempts_.push_back(PendingAttempt{sys_.now(), cand.id});
    ++stats_.partnership_attempts;
    sys_.attempt_partnership(id_, cand.id);
  }
}

bool Peer::has_pending_attempt(net::NodeId to) const noexcept {
  for (const PendingAttempt& a : pending_attempts_) {
    if (a.to == to) return true;
  }
  return false;
}

void Peer::clear_pending_attempt(net::NodeId to) {
  for (auto it = pending_attempts_.begin(); it != pending_attempts_.end();
       ++it) {
    if (it->to == to) {
      pending_attempts_.erase(it);
      return;
    }
  }
}

void Peer::on_partnership_established(net::NodeId pid, bool incoming) {
  if (!alive()) return;
  if (!incoming) clear_pending_attempt(pid);
  if (find_partner(pid) != nullptr) return;  // already partners
  PartnerState ps;
  ps.id = pid;
  ps.incoming = incoming;
  ps.established = sys_.now();
  partners_.push_back(ps);
  partner_lanes_.resize(partner_lanes_.size() + parents_.size(), kNoSeq);
  had_incoming_ = had_incoming_ || incoming;
  had_outgoing_ = had_outgoing_ || !incoming;
  if (interval_changes_.size() < kMaxIntervalChanges) {
    interval_changes_.push_back(
        logging::PartnerChange{pid, /*added=*/true, incoming});
  }
  // "The update of the mCache entries is achieved by randomly replacing
  // entries when new partnership is established" (§V-C).
  mcache_.upsert(
      McacheEntry{sys_.now(), sys_.now(), pid, sys_.is_reachable(pid)},
      rng_);
  // Give the new partner our buffer map right away so it can select
  // parents without waiting for the next periodic exchange.
  sys_.push_bm(id_, pid, refreshed_bm());
}

void Peer::on_partnership_rejected(net::NodeId pid) {
  if (!alive()) return;
  clear_pending_attempt(pid);
  ++stats_.partnership_rejections;
  // A full or unreachable peer is not useful right now; forget it so the
  // next sample draws elsewhere.
  mcache_.remove(pid);
}

void Peer::on_partner_left(net::NodeId pid) {
  if (!alive()) return;
  auto it = std::find_if(partners_.begin(), partners_.end(),
                         [pid](const PartnerState& ps) { return ps.id == pid; });
  if (it == partners_.end()) return;
  // Inside the tick's effect flush this tick's periodic BM pushes are not
  // delivered yet (System::tick delivers them after the flush).  Before a
  // reselection reads partner maps, or before a joining node forgets a
  // partner whose push may have set its first-BM stamp, apply the pushes
  // the flush has already passed.
  const bool reselects =
      start_decided_ &&
      std::find(parents_.begin(), parents_.end(), pid) != parents_.end();
  if (reselects || (phase_ == PeerPhase::kJoining && !start_decided_ &&
                    !first_bm_at_)) {
    sys_.apply_passed_bms(*this);
  }
  const bool was_incoming = it->incoming;
  const auto k = static_cast<std::ptrdiff_t>(parents_.size());
  const auto lanes = partner_lanes_.begin() + (it - partners_.begin()) * k;
  partner_lanes_.erase(lanes, lanes + k);
  partners_.erase(it);
  if (interval_changes_.size() < kMaxIntervalChanges) {
    interval_changes_.push_back(
        logging::PartnerChange{pid, /*added=*/false, was_incoming});
  }
  mcache_.remove(pid);
  // Stop serving any of its sub-stream subscriptions.
  std::erase_if(out_links_,
                [pid](const OutLink& l) { return l.child == pid; });
  // If it was a parent, reselect immediately: losing a parent must not wait
  // for the cool-down (the cool-down guards competition-driven churn).
  for (SubstreamId j : substreams(sys_.params().substream_count)) {
    if (parents_[j.index()] == pid) {
      end_subscription(j);
      parents_[j.index()] = net::kInvalidNode;
      if (start_decided_) reselect(j);
    }
  }
}

void Peer::on_bm_received(net::NodeId from, const BufferMap& bm,
                          std::uint32_t subscribed) {
  if (!alive()) return;
  PartnerState* ps = find_partner(from);
  if (ps == nullptr) return;  // stale sender
  const std::size_t k = parents_.size();
  assert(bm.substream_count() == static_cast<int>(k));
  const auto i = static_cast<std::size_t>(ps - partners_.data());
  // A plain loop over the K lanes: std::copy_n compiled to an out-of-line
  // memmove call on every receipt, for a copy of at most 16 lanes.
  const SeqNum* src = bm.latest_data();
  SeqNum* dst = partner_lanes_.data() + i * k;
  for (std::size_t j = 0; j < k; ++j) dst[j] = src[j];
  ps->sub_bits = subscribed;
  ps->bm_time = sys_.now();
  if (phase_ == PeerPhase::kJoining && !start_decided_ && !first_bm_at_) {
    first_bm_at_ = sys_.now();
  }
}

void Peer::on_gossip(std::span<const McacheEntry> entries) {
  if (!alive()) return;
  for (const auto& e : entries) {
    if (e.id != id_) mcache_.upsert(e, rng_);
  }
}

void Peer::on_subscribe(net::NodeId child, SubstreamId j) {
  if (!alive()) return;
  // "A parent node however will always accept requests and it will simply
  // push out all blocks of a sub-stream in need" (§IV-B): no admission
  // control — this is what makes peer competition possible.
  for (const auto& l : out_links_) {
    if (l.child == child && l.substream == j) return;  // already serving
  }
  out_links_.push_back(OutLink{child, j});
}

void Peer::on_unsubscribe(net::NodeId child, SubstreamId j) {
  std::erase_if(out_links_, [child, j](const OutLink& l) {
    return l.child == child && l.substream == j;
  });
}

void Peer::decide_start_offset() {
  const Params& p = sys_.params();
  // m = the largest sequence number available across partners (§IV-A).
  const SeqNum m = freshest_partner_seq();
  if (m == kNoSeq) return;  // no usable buffer map yet; keep waiting

  // "a node subscribes from a block that is shifted by a parameter T_p
  // from the latest block m."
  const SeqNum s0 = std::max(SeqNum(0), m - p.tp_block_count());
  for (SubstreamId j : substreams(p.substream_count)) {
    sync_.start_at(j, s0);
  }
  play_start_seq_ = global_of(SubstreamId(0), s0, p.substream_count);
  sync_.set_combined_floor(play_start_seq_ - BlockCount(1));
  last_deadline_counted_ = play_start_seq_ - BlockCount(1);
  start_decided_ = true;
  phase_ = PeerPhase::kBuffering;

  for (SubstreamId j : substreams(p.substream_count)) {
    const net::NodeId parent = select_parent(j, net::kInvalidNode);
    if (parent != net::kInvalidNode) subscribe_substream(j, parent);
  }
}

void Peer::end_subscription(SubstreamId j) {
  const net::NodeId parent = parents_[j.index()];
  if (parent == net::kInvalidNode) return;
  const Duration lifetime = sys_.now() - sub_since_[j.index()];
  // Reads only the parent's spec, immutable after construction and kept
  // when it departs — safe to resolve from any shard's worker.
  if (sys_.is_capable_parent(parent)) {
    ++stats_.capable_subscriptions_ended;
    stats_.capable_subscription_time += lifetime;
  } else {
    ++stats_.weak_subscriptions_ended;
    stats_.weak_subscription_time += lifetime;
  }
}

void Peer::subscribe_substream(SubstreamId j, net::NodeId parent) {
  end_subscription(j);
  parents_[j.index()] = parent;
  sub_since_[j.index()] = sys_.now();
  credits_[j.index()] = 0.0;
  sys_.subscribe(id_, parent, j);
  if (!start_sub_emitted_) {
    start_sub_emitted_ = true;
    logging::ActivityReport r;
    r.header = {spec_.user_id,
                session_id_.value(),  // lint:allow(value-escape)
                sys_.now().value()};  // lint:allow(value-escape)
    r.activity = logging::Activity::kStartSubscription;
    sys_.report(logging::Report(r));
    sys_.notify(id_, SessionEvent::kStartSubscription);
  }
}

net::NodeId Peer::select_parent(SubstreamId j, net::NodeId exclude) const {
  const Params& p = sys_.params();
  const BlockCount ts = p.ts_block_count();
  const BlockCount tp = p.tp_block_count();

  const SeqNum own_max = refreshed_bm().max_latest();
  const SeqNum partner_max = freshest_partner_seq();

  // Qualified candidates satisfy both inequalities (§IV-B): adopting them
  // must neither leave sub-stream j more than T_s behind our freshest
  // sub-stream (1) nor hand us a parent more than T_p behind the best
  // partner (2) — and they must actually have blocks we still need.
  std::vector<net::NodeId> qualified;
  net::NodeId best_fallback = net::kInvalidNode;
  SeqNum best_latest = sync_.head(j);
  for (const auto& ps : partners_) {
    if (ps.id == exclude || !ps.bm_time || !sys_.is_live(ps.id)) continue;
    const SeqNum latest = partner_lanes(ps)[j.index()];
    if (latest <= sync_.head(j)) continue;  // nothing new to offer
    const bool ineq1_ok = own_max - latest < ts;
    const bool ineq2_ok = partner_max - latest < tp;
    if (ineq1_ok && ineq2_ok) qualified.push_back(ps.id);
    if (latest > best_latest) {
      best_latest = latest;
      best_fallback = ps.id;
    }
  }
  if (!qualified.empty()) {
    // "Nodes could subscribe to sub-streams from different partners"
    // (§III-C): spread the load by restricting the random choice to the
    // qualified partners serving the fewest of our other sub-streams —
    // without this, every starving peer dumps all K sub-streams on its
    // single best partner and crushes it.
    auto my_load = [this](net::NodeId cand) {
      int load = 0;
      for (net::NodeId parent : parents_) {
        if (parent == cand) ++load;
      }
      return load;
    };
    int min_load = std::numeric_limits<int>::max();
    for (net::NodeId cand : qualified) {
      min_load = std::min(min_load, my_load(cand));
    }
    std::vector<net::NodeId> least_loaded;
    for (net::NodeId cand : qualified) {
      if (my_load(cand) == min_load) least_loaded.push_back(cand);
    }
    // "If there is more than one qualified partners, the peer will choose
    // one of them randomly."
    return least_loaded[rng_.below(least_loaded.size())];
  }
  // Temporary parent (§IV-B): the best available even if under-qualified;
  // it may be abandoned during the next adaptation.
  return best_fallback;
}

void Peer::reselect(SubstreamId j) {
  const net::NodeId old = parents_[j.index()];
  const net::NodeId next = select_parent(j, old);
  if (next == net::kInvalidNode) {
    // No alternative candidate.  Keep a live current parent (a temporary
    // parent still delivers *some* blocks, §IV-B); only clear the slot
    // when the parent is gone.
    if (old != net::kInvalidNode && !sys_.is_live(old)) {
      parents_[j.index()] = net::kInvalidNode;
    }
    return;
  }
  if (next == old) return;
  if (old != net::kInvalidNode && sys_.is_live(old)) {
    sys_.unsubscribe(id_, old, j);
  }
  ++stats_.parent_switches;
  subscribe_substream(j, next);
}

// --------------------------------------------------------------------------
// Adaptation (§IV-B)
// --------------------------------------------------------------------------

void Peer::run_adaptation(Tick now, bool cooldown_exempt) {
  if (!start_decided_) return;
  const Params& p = sys_.params();
  const BlockCount ts = p.ts_block_count();
  const BlockCount tp = p.tp_block_count();

  const BufferMap& own = refreshed_bm();
  const SeqNum own_max = own.max_latest();
  const SeqNum partner_max = freshest_partner_seq();

  // Batched scan over contiguous state, producing bit-words instead of a
  // per-call vector.  Inequality (1) is stated two ways in the paper: the
  // prose bounds the spread between any two sub-streams *within* the node
  // by T_s (one word op over the packed lanes, below), while the printed
  // formula bounds the deviation between the node's and the *parent's*
  // latest blocks (per-lane, in the loop).  Both signal insufficient
  // parent upload — the first catches one lagging sub-stream, the second
  // catches uniform starvation behind an overloaded parent — so either
  // triggers.
  const std::uint32_t spread_mask =
      p.adaptation_ineq1 ? own.lag_mask(own_max, ts) : 0u;
  std::uint32_t orphaned = 0;  // lanes with no live partner parent
  std::uint32_t violated = 0;  // lanes tripping Ineq. (1) or (2)
  for (SubstreamId j : substreams(p.substream_count)) {
    const std::uint32_t bit = 1u << j.index();
    const net::NodeId parent = parents_[j.index()];
    const PartnerState* ps =
        parent == net::kInvalidNode ? nullptr : find_partner(parent);
    if (ps == nullptr || !sys_.is_live(parent)) {
      orphaned |= bit;  // orphaned sub-stream: exempt from cool-down
      continue;
    }
    bool trip = (spread_mask & bit) != 0;
    if (ps->bm_time) {
      const SeqNum latest = partner_lanes(*ps)[j.index()];
      trip = trip || (p.adaptation_ineq1 && latest - own.latest(j) >= ts);
      // Inequality (2): the parent must not lag the best partner by T_p
      // or more (a better source is known).
      trip = trip || (p.adaptation_ineq2 && partner_max - latest >= tp);
    }
    if (trip) violated |= bit;
  }

  const bool gated_work =
      violated != 0 &&
      (cooldown_exempt || now - last_adaptation_ >= Duration(p.ta_seconds));
  const std::uint32_t to_fix = orphaned | (gated_work ? violated : 0u);
  if (to_fix == 0) return;
  for (SubstreamId j : substreams(p.substream_count)) {
    if ((to_fix >> j.index()) & 1u) reselect(j);
  }
  if (gated_work) {
    last_adaptation_ = now;
    ++stats_.adaptations;
  }
}

void Peer::drop_worst_partner() {
  // Keep current parents; drop the non-parent partner with the stalest /
  // lowest buffer map to make room for fresh candidates (§III-B: nodes
  // "drop some partners and re-establish partnership with other peers").
  const PartnerState* worst = nullptr;
  SeqNum worst_latest = kNoSeq;
  for (const auto& ps : partners_) {
    bool is_parent = false;
    for (net::NodeId parent : parents_) {
      if (parent == ps.id) {
        is_parent = true;
        break;
      }
    }
    if (is_parent) continue;
    const SeqNum latest = max_latest(partner_lanes(ps));
    if (worst == nullptr || latest < worst_latest) {
      worst = &ps;
      worst_latest = latest;
    }
  }
  if (worst != nullptr) sys_.break_partnership(id_, worst->id);
}

void Peer::enforce_partner_silence(Tick now) {
  const double timeout = sys_.params().partner_silence_timeout;
  if (timeout <= 0.0) return;
  // Under message loss a dropped establishment confirm leaves this node
  // with a phantom partnership the other side never learned about; its BM
  // silence is the only observable symptom.  Collect first — breaks are
  // deferred to the tick flush, where they mutate partners_.
  std::vector<net::NodeId> stale;
  for (const auto& ps : partners_) {
    const Tick last_heard = ps.bm_time ? *ps.bm_time : ps.established;
    if (now - last_heard >= Duration(timeout)) stale.push_back(ps.id);
  }
  for (net::NodeId pid : stale) sys_.break_partnership(id_, pid);
}

// --------------------------------------------------------------------------
// Periodic driver
// --------------------------------------------------------------------------

void Peer::on_tick(Tick now) {
  if (!alive()) return;
  const Params& p = sys_.params();

  if (spec_.kind == PeerKind::kServer) {
    server_feed(now);
    if (now >= next_bm_push_) {
      enforce_partner_silence(now);
      sys_.push_bm_round(id_, refreshed_bm(), partners_, parents_);
      next_bm_push_ = now + Duration(p.bm_exchange_period);
    }
    return;
  }

  if (now >= next_bm_push_) {
    enforce_partner_silence(now);
    sys_.push_bm_round(id_, refreshed_bm(), partners_, parents_);
    next_bm_push_ = now + Duration(p.bm_exchange_period);
  }

  if (now >= next_gossip_) {
    do_gossip();
    next_gossip_ = now + Duration(p.gossip_period);
  }

  if (phase_ == PeerPhase::kJoining && !start_decided_ && first_bm_at_ &&
      now >= *first_bm_at_ + Duration(sys_.config().join_aggregation_delay)) {
    decide_start_offset();
  }
  if (phase_ == PeerPhase::kBuffering) check_media_ready(now);
  if (phase_ == PeerPhase::kPlaying) {
    do_playout(now);
    maybe_resync_forward(now);
  }

  if (now >= next_adaptation_) {
    run_adaptation(now, /*cooldown_exempt=*/false);
    next_adaptation_ = now + Duration(p.adaptation_check_period);
  }

  if (now >= next_refill_) {
    // Baseline partner target; when the node is receiving insufficient
    // rate (it lags what its partners advertise by more than T_p), it
    // widens its partner set toward M — "the node has to drop some
    // partners and re-establish partnership with other peers" (§III-B).
    auto target = static_cast<std::size_t>(p.initial_partner_target);
    bool lagging = false;
    if (start_decided_) {
      const SeqNum own_max = refreshed_bm().max_latest();
      lagging = freshest_partner_seq() - own_max >= p.tp_block_count();
      // The broadcast clock (block timestamps) also exposes staleness a
      // collectively-stale partner set cannot: explore when the freshest
      // sub-stream is far behind the live edge.
      const SeqNum live_edge = sys_.source_head(SubstreamId(0), now);
      lagging = lagging ||
                live_edge - own_max >=
                    BlockCount(static_cast<std::int64_t>(
                        p.stale_threshold_seconds * p.substream_block_rate()));
      if (lagging) {
        target = std::min<std::size_t>(
            static_cast<std::size_t>(sys_.max_partners_of(*this)),
            partner_count() + 2);
      }
    }
    bool starving = false;
    for (net::NodeId parent : parents_) {
      if (start_decided_ && parent == net::kInvalidNode) starving = true;
    }
    // An attempt whose confirm/reject the network lost has no response
    // coming once a full round trip (2 * max_delay) plus slack has passed;
    // age it out.  Clean runs never hit this: every response arrives
    // within the round trip.
    const Duration attempt_ttl =
        Duration(2.0 * sys_.config().latency.max_delay + 1.0);
    std::erase_if(pending_attempts_, [now, attempt_ttl](const PendingAttempt& a) {
      return now - a.started >= attempt_ttl;
    });
    const std::size_t have = partner_count() + pending_attempts_.size();
    if (have < target) {
      bool any_candidate = false;
      for (const auto& e : mcache_.entries()) {
        if (e.reachable && e.id != id_ && find_partner(e.id) == nullptr) {
          any_candidate = true;
          break;
        }
      }
      if (any_candidate) {
        try_establish_partnerships(target - have);
      } else {
        sys_.request_bootstrap_list(id_);
      }
      if (lagging) {
        // A stale clique's gossip only circulates stale peers; the
        // boot-strap node samples the whole system and breaks the client
        // out of it.
        sys_.request_bootstrap_list(id_);
      }
    } else if ((starving || lagging) && partners_full()) {
      // Unsatisfied with a full partner list: rotate the weakest
      // non-parent partner out to make room for fresh candidates.
      drop_worst_partner();
    }
    next_refill_ = now + Duration(p.partner_refill_period);
  }

  if (now >= next_report_) {
    send_status_reports(now);
    next_report_ = now + Duration(p.status_report_period);
  }
}

void Peer::do_gossip() {
  if (partners_.empty()) return;
  const auto pick = rng_.below(partners_.size());
  const net::NodeId target = partners_[pick].id;
  // Entries ride inline in the effect (at most 3 sampled + self); the
  // MessageArena is main-thread-only, so the System materializes the
  // arena batch at the serial flush, not here.
  EffectGossip g;
  g.to = target;
  mcache_.sample_into(
      3, rng_, [target](net::NodeId cand) { return cand == target; },
      sys_.mcache_scratch(),
      [&g](const McacheEntry& e) { g.entries[g.count++] = e; });
  g.entries[g.count++] = McacheEntry{joined_at_, sys_.now(), id_,
                                     net::accepts_inbound(spec_.type)};
  sys_.send_gossip_entries(id_, g);
}

void Peer::check_media_ready(Tick now) {
  const Params& p = sys_.params();
  const BlockCount need = p.media_ready_block_count();
  if (sync_.combined() >= play_start_seq_ + need - BlockCount(1)) {
    phase_ = PeerPhase::kPlaying;
    play_start_time_ = now;
    logging::ActivityReport r;
    r.header = {spec_.user_id,
                session_id_.value(),  // lint:allow(value-escape)
                now.value()};         // lint:allow(value-escape)
    r.activity = logging::Activity::kMediaPlayerReady;
    sys_.report(logging::Report(r));
    sys_.notify(id_, SessionEvent::kMediaReady);
  }
}

SeqNum Peer::deadline_floor(SubstreamId j) const noexcept {
  if (phase_ != PeerPhase::kPlaying) return kNoSeq;
  // Blocks whose deadline has been *counted* are dead.  Stay one round of
  // sub-streams behind the counted playhead so a block is never skipped
  // before its deadline was charged.
  const int k = sys_.params().substream_count;
  const GlobalSeq safe = last_deadline_counted_ - BlockCount(k);
  return last_seq_at_or_below(safe, j, k);
}

void Peer::handle_window_gap(SubstreamId j, SeqNum window_start) {
  const SeqNum from = sync_.head(j) + BlockCount(1);
  const SeqNum to = window_start - BlockCount(1);
  if (from > to) return;
  ++stats_.window_skips;
  sync_.start_at(j, window_start);

  const Params& p = sys_.params();
  const BlockCount resync_blocks = BlockCount(static_cast<std::int64_t>(
      p.resync_skip_seconds * p.substream_block_rate()));
  if (phase_ == PeerPhase::kPlaying &&
      to - from + BlockCount(1) >= resync_blocks) {
    // Deep skip: re-anchor the playout timeline at the new position (a
    // live client that fell too far behind re-enters near the edge; the
    // abandoned stretch is never charged to the continuity index, exactly
    // the paper's §V-D reporting blindness for re-entering users).
    ++stats_.resyncs;
    play_start_seq_ = sync_.combined() + BlockCount(1);
    play_start_time_ = sys_.now();
    last_deadline_counted_ = play_start_seq_ - BlockCount(1);
    stalled_on_ = kNoSeq;
    skips_.clear();
    return;
  }
  skips_.push_back(SkipRange{j, from, to});
}

void Peer::do_playout(Tick now) {
  const Params& p = sys_.params();
  const double spb = 1.0 / p.block_rate;  // seconds of video per block

  // Advance the playhead block by block.  When the next block is missing
  // at its deadline the player stalls: later deadlines shift by the stall
  // duration (play_start_time_ moves forward).  After stall_skip_after of
  // freezing, the block is skipped and charged as missed.
  for (;;) {
    const GlobalSeq g = last_deadline_counted_ + BlockCount(1);
    const Tick deadline =
        play_start_time_ +
        Duration(static_cast<double>(
                     (g - play_start_seq_ + BlockCount(1))
                         .value()) *  // lint:allow(value-escape)
                 spb);
    if (deadline > now) break;

    const SubstreamId i = substream_of(g, p.substream_count);
    const SeqNum need = substream_seq_of(g, p.substream_count);
    bool present = sync_.head(i) >= need;
    if (present) {
      for (const auto& skip : skips_) {
        if (skip.substream == i && need >= skip.from && need <= skip.to) {
          present = false;
          break;
        }
      }
    }

    if (present) {
      if (stalled_on_ == g) {
        // The block arrived during the freeze.  Resume only after
        // rebuffering: enough contiguous video beyond the stalled block,
        // or the skip timeout expiring (whichever comes first), so the
        // player does not micro-stall on every delivery batch.
        const BlockCount rebuffer_blocks =
            BlockCount(static_cast<std::int64_t>(p.stall_rebuffer_seconds *
                                                 p.block_rate));
        const bool rebuffered = sync_.combined() >= g + rebuffer_blocks;
        const Duration stalled_for = now - deadline;
        if (!rebuffered && stalled_for < Duration(p.stall_skip_after)) break;
        play_start_time_ += stalled_for;
        stats_.stall_seconds += stalled_for;
        stalled_on_ = kNoSeq;
      }
      ++stats_.blocks_due;
      ++interval_due_;
      ++stats_.blocks_on_time;
      ++interval_on_time_;
      last_deadline_counted_ = g;
      continue;
    }

    const Duration overdue = now - deadline;
    if (overdue < Duration(p.stall_skip_after)) {
      // Keep the player frozen, waiting for block g.
      if (stalled_on_ != g) {
        stalled_on_ = g;
        ++stats_.stalls;
      }
      break;
    }
    // Gave up on block g: skip it, shift later deadlines by the stall.
    play_start_time_ += Duration(p.stall_skip_after);
    stats_.stall_seconds += Duration(p.stall_skip_after);
    stalled_on_ = kNoSeq;
    ++stats_.blocks_due;
    ++interval_due_;
    last_deadline_counted_ = g;
  }

  // Prune skip ranges entirely behind the playhead.
  if (!skips_.empty() && last_deadline_counted_ > kNoSeq) {
    const SeqNum oldest_need =
        substream_seq_of(last_deadline_counted_, p.substream_count);
    std::erase_if(skips_, [oldest_need](const SkipRange& s) {
      return s.to < oldest_need - BlockCount(1);
    });
  }
}

void Peer::send_status_reports(Tick now) {
  const logging::ReportHeader header{
      spec_.user_id,
      session_id_.value(),  // lint:allow(value-escape)
      now.value()};         // lint:allow(value-escape)

  logging::QosReport qos;
  qos.header = header;
  qos.blocks_due = interval_due_;
  qos.blocks_on_time = interval_on_time_;
  sys_.report(logging::Report(qos));
  interval_due_ = 0;
  interval_on_time_ = 0;

  logging::TrafficReport traffic;
  traffic.header = header;
  traffic.bytes_down = interval_bytes_down_.value();  // lint:allow(value-escape)
  traffic.bytes_up = interval_bytes_up_.value();      // lint:allow(value-escape)
  sys_.report(logging::Report(traffic));
  interval_bytes_down_ = units::Bytes::zero();
  interval_bytes_up_ = units::Bytes::zero();

  logging::PartnerReport partner;
  partner.header = header;
  partner.partner_count = static_cast<std::uint32_t>(partner_count());
  partner.changes = std::move(interval_changes_);
  sys_.report(logging::Report(partner));
  interval_changes_.clear();
}

void Peer::maybe_resync_forward(Tick now) {
  const Params& p = sys_.params();
  if (now - last_resync_ < Duration(p.resync_cooldown_seconds)) return;
  const GlobalSeq live =
      global_of(SubstreamId(0), sys_.source_head(SubstreamId(0), now),
                p.substream_count);
  const Duration lag = Duration(
      static_cast<double>(
          (live - last_deadline_counted_).value()) /  // lint:allow(value-escape)
      p.block_rate);
  if (lag <= Duration(p.max_playback_lag_seconds)) return;

  // Re-anchor at the freshest partner, T_p behind its latest block — the
  // same rule as the initial join (§IV-A).
  const SeqNum s0 = freshest_partner_seq() - p.tp_block_count();
  // Only jump if it actually moves us forward meaningfully.
  const GlobalSeq target = global_of(SubstreamId(0), s0, p.substream_count);
  if (target <= last_deadline_counted_ +
                    BlockCount(static_cast<std::int64_t>(p.block_rate))) {
    return;  // nothing fresher in reach; keep exploring partners
  }
  last_resync_ = now;
  ++stats_.resyncs;
  for (SubstreamId j : substreams(p.substream_count)) {
    sync_.start_at(j, s0);
  }
  sync_.set_combined_floor(target - BlockCount(1));
  play_start_seq_ = target;
  play_start_time_ = now;
  last_deadline_counted_ = target - BlockCount(1);
  stalled_on_ = kNoSeq;
  skips_.clear();
  // Subscriptions continue from the new positions; parents whose buffers
  // no longer cover them will window-clamp forward naturally.
}

void Peer::server_feed(Tick now) {
  const Tick feed_time = now - Duration(sys_.config().server_lag);
  if (feed_time <= Tick::zero()) return;
  for (SubstreamId j : substreams(sys_.params().substream_count)) {
    const SeqNum target = sys_.source_head(j, feed_time);
    if (target > sync_.head(j)) sync_.start_at(j, target + BlockCount(1));
  }
}

void Peer::set_left() {
  for (SubstreamId j : substreams(sys_.params().substream_count)) {
    end_subscription(j);
  }
  phase_ = PeerPhase::kLeft;
}

}  // namespace coolstream::core
