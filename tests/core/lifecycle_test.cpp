// Peer lifecycle: System::leave destroys the departed Peer and keeps only a
// DepartedPeer record, so memory follows concurrent viewers.  These tests
// pin the two halves of that contract:
//   * a churned evening with a crash wave never holds more Peer objects than
//     live nodes, audits clean, and answers the reads that outlive a
//     departure (reachability, capable-parent class) as before the leave;
//   * every way a departed node's id can still be in circulation — an
//     in-flight partnership reply or request, gossip or a boot-strap list
//     addressed to it, mCache entries, pending dials, partner and parent
//     slots, and the entry points deferred effects are applied through —
//     lands as a no-op: nothing resurrects the node or touches freed state.
// Under ASan (tools/run_sanitized_tests.sh) a stale-id bug here is a
// use-after-free report, not a silent misread.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "core/invariants.h"
#include "core/system.h"
#include "logging/log_server.h"
#include "net/address.h"
#include "workload/churn.h"
#include "workload/scenario.h"

namespace coolstream::core {
namespace {

std::string describe(const std::vector<InvariantViolation>& violations) {
  std::string out;
  for (const auto& v : violations) out += to_string(v) + "\n";
  return out;
}

/// The audit minus per-node partner-cap census entries: a joiner that
/// receives two boot-strap lists dials initial_partner_target per list
/// without counting partners it already has, so it can briefly exceed
/// M + 2.  That join-time overshoot is independent of peer lifetime; the
/// global census (live counts) and every other rule stay asserted.
std::vector<InvariantViolation> lifecycle_audit(InvariantAuditor& auditor) {
  std::vector<InvariantViolation> out = auditor.audit();
  std::erase_if(out, [](const InvariantViolation& v) {
    return v.rule == InvariantRule::kCensus && v.node != net::kInvalidNode;
  });
  return out;
}

std::size_t live_peer_objects(const System& sys) {
  std::size_t n = 0;
  for (net::NodeId id = 0; id < sys.node_count(); ++id) {
    if (sys.peer(id) != nullptr) ++n;
  }
  return n;
}

TEST(PeerLifecycleTest, ChurnedEveningFreesDepartedPeers) {
  workload::Scenario scenario =
      workload::Scenario::evening(80, units::Duration::hours(2.0));
  scenario.system.server_count = 3;
  scenario.system.server_capacity_bps = 8 * scenario.params.stream_rate_bps;
  scenario.system.server_max_partners = 8;
  scenario.sessions.crash_fraction = 0.15;
  const auto schedule =
      workload::ChurnSchedule::parse("mass 3600 0.3 crash\n");
  ASSERT_TRUE(schedule.has_value());

  sim::Simulation simulation(2024);
  logging::LogServer log;
  workload::ScenarioRunner runner(simulation, scenario, &log);
  workload::ChurnDriver driver(runner, *schedule, 77);
  driver.arm();
  System& sys = runner.system();
  InvariantAuditor auditor(sys);

  // Classification of every node seen live, to compare after it leaves.
  std::map<net::NodeId, std::pair<bool, bool>> seen_live;
  std::size_t max_live = 0;
  for (double t = 10.0; t <= scenario.end_time; t += 10.0) {
    runner.run_until(t);
    const std::size_t live = sys.live_nodes().size();
    max_live = std::max(max_live, live);
    ASSERT_EQ(live_peer_objects(sys), live) << "t=" << t;
    for (const net::NodeId id : sys.live_nodes()) {
      seen_live.try_emplace(id, sys.is_reachable(id),
                            sys.is_capable_parent(id));
    }
    if (static_cast<int>(t) % 300 == 0) {
      const auto violations = lifecycle_audit(auditor);
      ASSERT_TRUE(violations.empty()) << "t=" << t << "\n"
                                      << describe(violations);
    }
  }
  const auto violations = lifecycle_audit(auditor);
  EXPECT_TRUE(violations.empty()) << describe(violations);

  // Real churn happened: the crash wave fired and sessions outnumber the
  // peak, yet only live nodes hold a Peer.
  EXPECT_GT(driver.counters().crashes, 0u);
  EXPECT_GT(sys.stats().leaves, max_live);
  EXPECT_EQ(live_peer_objects(sys), sys.live_nodes().size());

  std::size_t departed_checked = 0;
  for (const auto& [id, before] : seen_live) {
    if (sys.peer(id) != nullptr) continue;
    ++departed_checked;
    const NodeView gone = sys.node(id);
    EXPECT_FALSE(gone.alive()) << id;
    EXPECT_EQ(gone.phase(), PeerPhase::kLeft) << id;
    EXPECT_EQ(gone.partner_count(), 0u) << id;
    EXPECT_EQ(sys.is_reachable(id), before.first) << id;
    EXPECT_EQ(sys.is_capable_parent(id), before.second) << id;
  }
  EXPECT_GT(departed_checked, 20u);
}

// Small settled overlay whose nodes are all direct, so any two can connect.
class StaleIdTest : public ::testing::Test {
 protected:
  void SetUp() override {
    config_.server_count = 2;
    config_.server_capacity_bps = 10e6;
    config_.server_max_partners = 10;
    sys_ = std::make_unique<System>(simulation_, params_, config_, nullptr);
    sys_->start();
    for (int i = 0; i < 6; ++i) viewers_.push_back(join_viewer());
    simulation_.run_until(sim::Time(60.0));
  }

  net::NodeId join_viewer() {
    PeerSpec spec;
    spec.user_id = next_user_++;
    spec.kind = PeerKind::kViewer;
    spec.type = net::ConnectionType::kDirect;
    spec.address = net::random_public_address(simulation_.rng());
    spec.upload_capacity = units::BitRate(4e6);
    return sys_->join(spec);
  }

  /// No live node lists `gone` as a partner or a parent.
  void expect_forgotten(net::NodeId gone) {
    for (const net::NodeId id : sys_->live_nodes()) {
      const Peer* p = sys_->peer(id);
      ASSERT_NE(p, nullptr);
      EXPECT_EQ(p->find_partner(gone), nullptr) << id << " lists " << gone;
      for (const SubstreamId j : substreams(params_.substream_count)) {
        EXPECT_NE(p->parent_of(j), gone) << id << " pulls from " << gone;
      }
    }
  }

  sim::Simulation simulation_{41};
  Params params_;
  SystemConfig config_;
  std::unique_ptr<System> sys_;
  std::vector<net::NodeId> viewers_;  ///< settled by SetUp
  std::uint64_t next_user_ = 500;
};

TEST_F(StaleIdTest, MessagesAndStateNamingADepartedNodeAreNoOps) {
  const net::NodeId victim = join_viewer();
  const net::NodeId caller = join_viewer();
  const net::NodeId dialer = join_viewer();
  const net::NodeId holder = viewers_.front();

  // An in-flight partnership reply from a departed callee: the victim
  // accepts `caller`'s request, then crashes before its reply lands.
  sys_->attempt_partnership(caller, victim);
  const sim::Time limit = simulation_.now() + units::Duration(5.0);
  while (sys_->peer(victim)->find_partner(caller) == nullptr &&
         simulation_.step(limit)) {
  }
  ASSERT_NE(sys_->peer(victim)->find_partner(caller), nullptr)
      << "the request never landed within the latency cap";

  // More traffic addressed to the victim, still in flight when it leaves:
  // a request (a pending dial holding its id), gossip and a boot-strap
  // list.
  sys_->attempt_partnership(dialer, victim);
  EffectGossip gossip;
  gossip.to = victim;
  gossip.count = 1;
  gossip.entries[0] = McacheEntry{Tick(0.0), sys_->now(), caller, true};
  sys_->send_gossip_entries(caller, gossip);
  sys_->request_bootstrap_list(victim);

  sys_->leave(victim, /*graceful=*/false);
  ASSERT_EQ(sys_->peer(victim), nullptr);
  const NodeView rec = sys_->node(victim);
  const PeerStats stats_at_leave = rec.stats();
  const SeqNum head_at_leave = rec.head(SubstreamId(0));

  // The entry points every deferred subscribe / unsubscribe / break /
  // BM effect is applied through, each naming the departed node.
  Peer* h = sys_->peer(holder);
  ASSERT_NE(h, nullptr);
  sys_->subscribe(holder, victim, SubstreamId(1));
  sys_->unsubscribe(holder, victim, SubstreamId(1));
  sys_->break_partnership(victim, holder);
  sys_->push_bm(holder, victim, h->current_bm());

  // Stale ids held in live state: an mCache entry, a partner slot and a
  // parent slot naming the victim.  The next tick defers effects naming
  // the departed partner (its BM push, then the lazy cleanup), and the
  // parent reselection classifies the departed parent from its record.
  const McacheEntry stale{Tick(0.0), sys_->now(), victim, true};
  h->on_gossip(std::span<const McacheEntry>(&stale, 1));
  PartnerState phantom;
  phantom.id = victim;
  phantom.established = Tick(0.0);
  InvariantTestAccess::add_partner(*h, phantom);
  InvariantTestAccess::parents(*h)[0] = victim;

  simulation_.run_until(simulation_.now() + units::Duration(30.0));

  // Nothing resurrected the victim or wrote to its record.
  EXPECT_EQ(sys_->peer(victim), nullptr);
  EXPECT_FALSE(sys_->is_live(victim));
  EXPECT_EQ(sys_->node(victim).stats().bytes_down, stats_at_leave.bytes_down);
  EXPECT_EQ(sys_->node(victim).stats().blocks_due, stats_at_leave.blocks_due);
  EXPECT_EQ(sys_->node(victim).head(SubstreamId(0)), head_at_leave);
  EXPECT_FALSE(sys_->bootstrap().contains(victim));
  expect_forgotten(victim);
  EXPECT_EQ(live_peer_objects(*sys_), sys_->live_nodes().size());

  InvariantAuditor auditor(*sys_);
  const auto violations = auditor.audit();
  EXPECT_TRUE(violations.empty()) << describe(violations);
}

TEST_F(StaleIdTest, DepartedIdsAreNeverReused) {
  const net::NodeId first = join_viewer();
  sys_->leave(first, /*graceful=*/true);
  const net::NodeId second = join_viewer();
  EXPECT_NE(second, first);
  EXPECT_EQ(second, static_cast<net::NodeId>(sys_->node_count() - 1));
  EXPECT_EQ(sys_->peer(first), nullptr);
  EXPECT_NE(sys_->peer(second), nullptr);
  EXPECT_EQ(sys_->node(first).phase(), PeerPhase::kLeft);
}

}  // namespace
}  // namespace coolstream::core
