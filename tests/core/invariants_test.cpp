// Structural invariants of the protocol state, checked after a long mixed
// scenario with churn: whatever the dynamics did, the bookkeeping must be
// consistent.
#include <gtest/gtest.h>

#include "core/system.h"
#include "logging/log_server.h"
#include "workload/scenario.h"

namespace coolstream::core {
namespace {

class InvariantsTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(InvariantsTest, HoldAfterChurnyRun) {
  workload::Scenario scenario =
      workload::Scenario::steady(150, units::Duration(1200.0));
  scenario.system.server_count = 3;
  scenario.sessions.crash_fraction = 0.2;  // plenty of abrupt departures
  sim::Simulation simulation(GetParam());
  logging::LogServer log;
  workload::ScenarioRunner runner(simulation, scenario, &log);
  runner.run();
  System& sys = runner.system();

  const auto live_edge = sys.source_head(SubstreamId(0), simulation.now());
  std::size_t live_seen = 0;

  for (net::NodeId id = 0; id < sys.node_count(); ++id) {
    const Peer* p = sys.peer(id);
    if (p == nullptr) {
      // Dead peers are fully torn down: only their record is left.
      EXPECT_EQ(sys.node(id).phase(), PeerPhase::kLeft) << id;
      EXPECT_EQ(sys.node(id).partner_count(), 0u) << id;
      EXPECT_FALSE(sys.bootstrap().contains(id)) << id;
      continue;
    }
    ++live_seen;
    EXPECT_TRUE(sys.bootstrap().contains(id)) << id;

    // Partner symmetry: every partner is alive and has us back.
    for (const auto& ps : p->partners()) {
      const Peer* q = sys.peer(ps.id);
      ASSERT_NE(q, nullptr);
      EXPECT_TRUE(q->alive()) << id << " keeps dead partner " << ps.id;
      EXPECT_NE(q->find_partner(id), nullptr)
          << "asymmetric partnership " << id << " <-> " << ps.id;
    }

    // Partner cap respected (small slack for in-flight acceptances).
    EXPECT_LE(p->partner_count(),
              static_cast<std::size_t>(sys.max_partners_of(*p)) + 2);

    // Parents are live partners; the parent serves us.
    for (const SubstreamId j : substreams(sys.params().substream_count)) {
      const net::NodeId parent = p->parent_of(j);
      if (parent == net::kInvalidNode) continue;
      const Peer* q = sys.peer(parent);
      ASSERT_NE(q, nullptr);
      EXPECT_TRUE(q->alive()) << id << " subscribed to dead " << parent;
      EXPECT_NE(p->find_partner(parent), nullptr)
          << id << " subscribed to non-partner " << parent;
      bool served = false;
      for (const auto& l : q->out_links()) {
        if (l.child == id && l.substream == j) served = true;
      }
      EXPECT_TRUE(served) << parent << " lost out-link to " << id;
    }

    // Heads never exceed the encoder position (with server-lag slack).
    for (const SubstreamId j : substreams(sys.params().substream_count)) {
      EXPECT_LE(p->head(j), live_edge + BlockCount(1)) << id;
    }

    // Playout accounting is consistent.
    EXPECT_LE(p->stats().blocks_on_time, p->stats().blocks_due);
    if (p->phase() == PeerPhase::kPlaying) {
      EXPECT_LE(p->playhead(),
                global_of(SubstreamId(0), live_edge,
                          sys.params().substream_count) +
                    BlockCount(sys.params().substream_count));
    }
  }
  EXPECT_EQ(live_seen, sys.live_viewer_count() +
                           static_cast<std::size_t>(
                               sys.config().server_count));

  // The step counter agrees with the live census.
  EXPECT_EQ(static_cast<long long>(sys.live_viewer_count()),
            sys.concurrent_viewers().value());
}

INSTANTIATE_TEST_SUITE_P(Seeds, InvariantsTest,
                         ::testing::Values(11u, 22u, 33u));

TEST(GossipTest, MembershipKnowledgeSpreads) {
  // With a tiny boot-strap list, peers must still learn about more of the
  // overlay than the list gave them — via gossip and partnership updates.
  workload::Scenario scenario =
      workload::Scenario::steady(80, units::Duration(600.0));
  scenario.system.server_count = 2;
  scenario.params.bootstrap_list_size = 2;
  scenario.params.mcache_size = 32;
  sim::Simulation simulation(7);
  logging::LogServer log;
  workload::ScenarioRunner runner(simulation, scenario, &log);
  runner.run();
  System& sys = runner.system();

  std::size_t viewers = 0;
  std::size_t knows_more = 0;
  for (net::NodeId id = 0; id < sys.node_count(); ++id) {
    const Peer* p = sys.peer(id);
    if (p == nullptr || p->kind() != PeerKind::kViewer) continue;
    // Only count peers that have been in the system for a while.
    if (simulation.now() - p->joined_at() < units::Duration(120.0)) continue;
    ++viewers;
    if (p->mcache().size() >
        static_cast<std::size_t>(scenario.params.bootstrap_list_size)) {
      ++knows_more;
    }
  }
  ASSERT_GT(viewers, 10u);
  EXPECT_GT(static_cast<double>(knows_more) / static_cast<double>(viewers),
            0.8);
}

TEST(BmSubscriptionBitsTest, AdvertisedToTheServingPartner) {
  // A viewer's BM push to partner X sets subscription bits exactly for
  // the sub-streams it receives from X; verify through the parent's
  // stored view after the system settles.
  sim::Simulation simulation(3);
  Params params;
  params.status_report_period = 30.0;
  SystemConfig cfg;
  cfg.server_count = 1;
  cfg.server_capacity_bps = 10e6;
  cfg.server_max_partners = 6;
  System sys(simulation, params, cfg, nullptr);
  sys.start();
  simulation.run_until(sim::Time(10.0));
  PeerSpec spec;
  spec.user_id = 5;
  spec.kind = PeerKind::kViewer;
  spec.type = net::ConnectionType::kNat;
  spec.address = net::random_private_address(simulation.rng());
  spec.upload_capacity = units::BitRate(0.0);
  const net::NodeId id = sys.join(spec);
  simulation.run_until(sim::Time(60.0));

  const Peer* viewer = sys.peer(id);
  ASSERT_EQ(viewer->phase(), PeerPhase::kPlaying);
  const Peer* server = sys.peer(0);
  const PartnerState* view = server->find_partner(id);
  ASSERT_NE(view, nullptr);
  ASSERT_TRUE(view->bm_time.has_value());
  for (const SubstreamId j : substreams(params.substream_count)) {
    EXPECT_EQ(view->bm.subscribed(j), viewer->parent_of(j) == 0u)
        << "sub-stream " << j.value();
  }
}

}  // namespace
}  // namespace coolstream::core
