// Integration tests of the protocol stack: peers + servers + flow model +
// logging, driven through core::System.
#include "core/system.h"

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "logging/sessions.h"
#include "net/address.h"

namespace coolstream::core {
namespace {

Params fast_params() {
  Params p;
  // Status reports every 30 s so short tests still produce QoS data.
  p.status_report_period = 30.0;
  return p;
}

SystemConfig small_config(int servers = 2) {
  SystemConfig c;
  c.server_count = servers;
  c.server_capacity_bps = 20e6;
  c.server_max_partners = 20;
  return c;
}

PeerSpec viewer(std::uint64_t user, net::ConnectionType type,
                double upload_bps, sim::Rng& rng) {
  PeerSpec s;
  s.user_id = user;
  s.kind = PeerKind::kViewer;
  s.type = type;
  s.address = net::uses_private_address(type)
                  ? net::random_private_address(rng)
                  : net::random_public_address(rng);
  s.upload_capacity = units::BitRate(upload_bps);
  return s;
}

TEST(SystemTest, ServersComeUpAndFollowTheSource) {
  sim::Simulation simulation(1);
  System sys(simulation, fast_params(), small_config(3), nullptr);
  sys.start();
  simulation.run_until(sim::Time(30.0));
  for (net::NodeId id = 0; id < 3; ++id) {
    const Peer* server = sys.peer(id);
    ASSERT_NE(server, nullptr);
    EXPECT_EQ(server->kind(), PeerKind::kServer);
    EXPECT_TRUE(server->alive());
    for (const SubstreamId j : substreams(sys.params().substream_count)) {
      // ~30 s * 2 blocks/s minus the server lag.
      EXPECT_NEAR(static_cast<double>(server->head(j).value()), 59.0, 3.0);
    }
  }
}

TEST(SystemTest, SourceHeadMatchesBlockClock) {
  sim::Simulation simulation(1);
  System sys(simulation, fast_params(), small_config(), nullptr);
  // At t: floor(t * 8) global blocks exist, split round-robin over 4.
  EXPECT_EQ(sys.source_head(SubstreamId(0), Tick(0.0)), kNoSeq);
  // One block would need t >= 1/8.
  EXPECT_EQ(sys.source_head(SubstreamId(0), Tick(0.124)), kNoSeq);
  EXPECT_EQ(sys.source_head(SubstreamId(0), Tick(0.125)), SeqNum(0));
  EXPECT_EQ(sys.source_head(SubstreamId(1), Tick(0.125)), kNoSeq);
  // Globals 0,4 on sub-stream 0; globals 3,7 on sub-stream 3.
  EXPECT_EQ(sys.source_head(SubstreamId(0), Tick(1.0)), SeqNum(1));
  EXPECT_EQ(sys.source_head(SubstreamId(3), Tick(1.0)), SeqNum(1));
  EXPECT_EQ(sys.source_head(SubstreamId(3), Tick(0.99)), SeqNum(0));
  EXPECT_EQ(sys.source_head(SubstreamId(0), Tick(10.0)), SeqNum(19));
}

TEST(SystemTest, SingleViewerReachesPlayback) {
  sim::Simulation simulation(7);
  logging::LogServer log;
  System sys(simulation, fast_params(), small_config(), &log);
  std::vector<SessionEvent> events;
  sys.observer = [&](net::NodeId, SessionEvent e) { events.push_back(e); };
  sys.start();
  simulation.run_until(sim::Time(10.0));

  const net::NodeId id = sys.join(
      viewer(1, net::ConnectionType::kDirect, 2e6, simulation.rng()));
  simulation.run_until(sim::Time(120.0));

  const Peer* p = sys.peer(id);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->phase(), PeerPhase::kPlaying);
  ASSERT_GE(events.size(), 3u);
  EXPECT_EQ(events[0], SessionEvent::kJoined);
  EXPECT_EQ(events[1], SessionEvent::kStartSubscription);
  EXPECT_EQ(events[2], SessionEvent::kMediaReady);

  // Once playing, a lone well-provisioned viewer misses nothing.
  EXPECT_GT(p->stats().blocks_due, 100u);
  EXPECT_EQ(p->stats().blocks_due, p->stats().blocks_on_time);
  // It subscribed every sub-stream.
  for (const SubstreamId j : substreams(sys.params().substream_count)) {
    EXPECT_NE(p->parent_of(j), net::kInvalidNode);
  }
}

TEST(SystemTest, JoinEmitsActivityReportsInOrder) {
  sim::Simulation simulation(11);
  logging::LogServer log;
  System sys(simulation, fast_params(), small_config(), &log);
  sys.start();
  simulation.run_until(sim::Time(5.0));
  sys.join(viewer(42, net::ConnectionType::kNat, 500e3, simulation.rng()));
  simulation.run_until(sim::Time(100.0));

  const auto reports = log.parse_all();
  const auto sessions = logging::reconstruct_sessions(reports);
  ASSERT_EQ(sessions.sessions.size(), 1u);
  const auto& s = sessions.sessions[0];
  EXPECT_EQ(s.user_id, 42u);
  ASSERT_TRUE(s.join_time.has_value());
  ASSERT_TRUE(s.start_subscription_time_abs.has_value());
  ASSERT_TRUE(s.media_ready_time_abs.has_value());
  EXPECT_LE(*s.join_time, *s.start_subscription_time_abs);
  EXPECT_LE(*s.start_subscription_time_abs, *s.media_ready_time_abs);
  EXPECT_TRUE(s.private_address);
  // The §IV-A rule: ready within tens of seconds, not minutes.
  EXPECT_LT(*s.media_ready_delay(), 40.0);
}

TEST(SystemTest, GracefulLeaveReportsAndCleansUp) {
  sim::Simulation simulation(13);
  logging::LogServer log;
  System sys(simulation, fast_params(), small_config(), &log);
  sys.start();
  simulation.run_until(sim::Time(5.0));
  const net::NodeId id = sys.join(
      viewer(2, net::ConnectionType::kDirect, 2e6, simulation.rng()));
  simulation.run_until(sim::Time(60.0));
  ASSERT_TRUE(sys.is_live(id));
  EXPECT_EQ(sys.live_viewer_count(), 1u);

  sys.leave(id, /*graceful=*/true);
  EXPECT_FALSE(sys.is_live(id));
  EXPECT_EQ(sys.live_viewer_count(), 0u);
  EXPECT_FALSE(sys.bootstrap().contains(id));
  EXPECT_EQ(sys.peer(id), nullptr);  // the Peer is freed at departure
  EXPECT_EQ(sys.node(id).phase(), PeerPhase::kLeft);

  const auto sessions = logging::reconstruct_sessions(log.parse_all());
  ASSERT_EQ(sessions.sessions.size(), 1u);
  EXPECT_TRUE(sessions.sessions[0].is_normal());
  EXPECT_TRUE(sessions.sessions[0].had_outgoing);
}

TEST(SystemTest, CrashLeavesSessionOpenInLog) {
  sim::Simulation simulation(17);
  logging::LogServer log;
  System sys(simulation, fast_params(), small_config(), &log);
  sys.start();
  simulation.run_until(sim::Time(5.0));
  const net::NodeId id = sys.join(
      viewer(3, net::ConnectionType::kUpnp, 1e6, simulation.rng()));
  simulation.run_until(sim::Time(60.0));
  sys.leave(id, /*graceful=*/false);

  const auto sessions = logging::reconstruct_sessions(log.parse_all());
  ASSERT_EQ(sessions.sessions.size(), 1u);
  EXPECT_FALSE(sessions.sessions[0].leave_time.has_value());
  EXPECT_FALSE(sessions.sessions[0].is_normal());
}

TEST(SystemTest, NatViewersNeverAcceptInbound) {
  sim::Simulation simulation(19);
  System sys(simulation, fast_params(), small_config(), nullptr);
  sys.start();
  simulation.run_until(sim::Time(5.0));
  std::vector<net::NodeId> nat_ids;
  sim::Rng& rng = simulation.rng();
  for (int i = 0; i < 6; ++i) {
    nat_ids.push_back(
        sys.join(viewer(static_cast<std::uint64_t>(100 + i), net::ConnectionType::kNat, 400e3, rng)));
  }
  for (int i = 0; i < 6; ++i) {
    sys.join(viewer(static_cast<std::uint64_t>(200 + i), net::ConnectionType::kDirect, 3e6, rng));
  }
  simulation.run_until(sim::Time(180.0));
  for (net::NodeId id : nat_ids) {
    const Peer* p = sys.peer(id);
    if (!p->alive()) continue;
    EXPECT_FALSE(p->had_incoming()) << "NAT peer " << id;
    for (const auto& ps : p->partners()) {
      EXPECT_FALSE(ps.incoming);
    }
  }
}

TEST(SystemTest, ParentDepartureTriggersReselection) {
  // Seed chosen so the topology below reliably forms viewer-viewer parent
  // links within the warm-up window (the precondition this test needs).
  sim::Simulation simulation(24);
  System sys(simulation, fast_params(), small_config(1), nullptr);
  sys.start();
  simulation.run_until(sim::Time(5.0));
  sim::Rng& rng = simulation.rng();
  // A capable relay and several children that will mostly hang off it
  // (the single server has few partner slots).
  std::vector<net::NodeId> ids;
  for (int i = 0; i < 10; ++i) {
    ids.push_back(sys.join(viewer(
        static_cast<std::uint64_t>(300 + i),
        i == 0 ? net::ConnectionType::kDirect : net::ConnectionType::kNat,
        i == 0 ? 8e6 : 400e3, rng)));
  }
  simulation.run_until(sim::Time(120.0));

  // Find a viewer whose parent is another viewer, then kill that parent.
  net::NodeId child = net::kInvalidNode;
  net::NodeId parent = net::kInvalidNode;
  for (net::NodeId id : ids) {
    const Peer* p = sys.peer(id);
    if (!p->alive()) continue;
    for (const SubstreamId j : substreams(sys.params().substream_count)) {
      const net::NodeId par = p->parent_of(j);
      if (par != net::kInvalidNode && sys.peer(par) != nullptr &&
          sys.peer(par)->kind() == PeerKind::kViewer) {
        child = id;
        parent = par;
        break;
      }
    }
    if (child != net::kInvalidNode) break;
  }
  ASSERT_NE(child, net::kInvalidNode) << "no viewer-viewer link formed";
  sys.leave(parent, /*graceful=*/true);

  // The child must not keep the dead parent.
  for (const SubstreamId j : substreams(sys.params().substream_count)) {
    EXPECT_NE(sys.peer(child)->parent_of(j), parent);
  }
  // And it keeps streaming: give it a minute and check it is not starving.
  simulation.run_until(simulation.now() + units::Duration(60.0));
  const Peer* c = sys.peer(child);
  if (c->alive() && c->phase() == PeerPhase::kPlaying) {
    const auto& st = c->stats();
    EXPECT_GT(st.blocks_on_time, 0u);
  }
}

TEST(SystemTest, PartnerLanesSurviveMiddleErase) {
  // Partner records and their buffer-map lanes are stored apart; dropping
  // a partner from the middle must leave every survivor's lanes and
  // subscription word as they were.
  sim::Simulation simulation(31);
  System sys(simulation, fast_params(), small_config(1), nullptr);
  sys.start();
  simulation.run_until(sim::Time(5.0));
  sim::Rng& rng = simulation.rng();
  std::vector<net::NodeId> ids;
  for (int i = 0; i < 4; ++i) {
    ids.push_back(sys.join(viewer(static_cast<std::uint64_t>(400 + i),
                                  net::ConnectionType::kDirect, 1e6, rng)));
  }
  Peer& x = *sys.peer(ids[0]);
  const int k = sys.params().substream_count;
  std::vector<BufferMap> maps;
  for (int i = 1; i <= 3; ++i) {
    BufferMap bm(k);
    for (const SubstreamId j : substreams(k)) {
      bm.set_latest(j, SeqNum(100 * i + j.value()));
    }
    maps.push_back(bm);
    x.on_partnership_established(ids[static_cast<std::size_t>(i)],
                                 /*incoming=*/true);
    x.on_bm_received(ids[static_cast<std::size_t>(i)], bm, 1u << (i - 1));
  }
  ASSERT_EQ(x.partner_count(), 3u);

  x.on_partner_left(ids[2]);

  ASSERT_EQ(x.partner_count(), 2u);
  EXPECT_EQ(x.find_partner(ids[2]), nullptr);
  EXPECT_EQ(x.partner_lane_entries(), 2u * static_cast<std::size_t>(k));
  for (const int i : {1, 3}) {
    const PartnerState* ps = x.find_partner(ids[static_cast<std::size_t>(i)]);
    ASSERT_NE(ps, nullptr);
    EXPECT_EQ(ps->sub_bits, 1u << (i - 1));
    const std::span<const SeqNum> lanes = x.partner_lanes(*ps);
    for (const SubstreamId j : substreams(k)) {
      EXPECT_EQ(lanes[j.index()],
                maps[static_cast<std::size_t>(i - 1)].latest(j))
          << "partner " << i << " sub-stream " << j.value();
    }
  }
}

TEST(SystemTest, SnapshotIsConsistent) {
  sim::Simulation simulation(29);
  System sys(simulation, fast_params(), small_config(), nullptr);
  sys.start();
  simulation.run_until(sim::Time(5.0));
  sim::Rng& rng = simulation.rng();
  for (int i = 0; i < 12; ++i) {
    sys.join(viewer(static_cast<std::uint64_t>(400 + i), net::ConnectionType::kDirect, 2e6, rng));
  }
  simulation.run_until(sim::Time(120.0));

  const auto snap = sys.snapshot();
  EXPECT_EQ(snap.peer_count(), sys.live_viewer_count());
  for (const auto& node : snap.nodes) {
    EXPECT_TRUE(sys.is_live(node.id));
    for (net::NodeId parent : node.parents) {
      if (parent != net::kInvalidNode) {
        EXPECT_TRUE(sys.is_live(parent)) << "dangling parent " << parent;
      }
    }
    if (!node.is_server) {
      EXPECT_GE(node.depth, 1);  // viewers hang below servers
    }
  }
}

TEST(SystemTest, DeterministicGivenSeed) {
  auto run = [](std::uint64_t seed) {
    sim::Simulation simulation(seed);
    logging::LogServer log;
    System sys(simulation, fast_params(), small_config(), &log);
    sys.start();
    simulation.run_until(sim::Time(5.0));
    sim::Rng& rng = simulation.rng();
    for (int i = 0; i < 8; ++i) {
      const auto type = i % 2 == 0 ? net::ConnectionType::kDirect
                                   : net::ConnectionType::kNat;
      sys.join(viewer(static_cast<std::uint64_t>(500 + i), type,
                      i % 2 == 0 ? 3e6 : 400e3, rng));
    }
    simulation.run_until(sim::Time(300.0));
    return std::make_tuple(log.lines(), sys.stats().blocks_transferred,
                           sys.transport().total_sent());
  };
  const auto a = run(99);
  const auto b = run(99);
  EXPECT_EQ(std::get<0>(a), std::get<0>(b));
  EXPECT_EQ(std::get<1>(a), std::get<1>(b));
  EXPECT_EQ(std::get<2>(a), std::get<2>(b));
  // A different seed shifts timer phases and latencies, so the report
  // timestamps (and hence the raw log) must differ.
  const auto c = run(100);
  EXPECT_NE(std::get<0>(a), std::get<0>(c));
}

TEST(SystemTest, PeerCompetitionTriggersAdaptation) {
  // One server with little spare capacity plus weak peers: children must
  // compete, violate Inequality (1) and adapt (§IV-B).
  sim::Simulation simulation(31);
  SystemConfig cfg = small_config(1);
  cfg.server_capacity_bps = 2.5 * 768e3;  // ~2.5 full streams
  cfg.server_max_partners = 30;
  System sys(simulation, fast_params(), cfg, nullptr);
  sys.start();
  simulation.run_until(sim::Time(5.0));
  sim::Rng& rng = simulation.rng();
  for (int i = 0; i < 12; ++i) {
    sys.join(viewer(600 + static_cast<std::uint64_t>(i),
                    net::ConnectionType::kNat, 200e3, rng));
  }
  simulation.run_until(sim::Time(400.0));

  std::uint32_t adaptations = 0;
  std::uint64_t due = 0;
  double stall_seconds = 0.0;
  std::uint32_t resyncs = 0;
  for (net::NodeId id = 1; id < 13; ++id) {
    const Peer* p = sys.peer(id);
    if (p == nullptr || p->kind() != PeerKind::kViewer) continue;
    adaptations += p->stats().adaptations;
    due += p->stats().blocks_due;
    stall_seconds += p->stats().stall_seconds.value();
    resyncs += p->stats().resyncs;
  }
  EXPECT_GT(adaptations, 0u);
  EXPECT_GT(due, 0u);
  // Overloaded system: the shortfall surfaces as player stalls and/or
  // forward resyncs (abandoned stretches are not charged as misses —
  // the §V-D reporting blindness).
  EXPECT_TRUE(stall_seconds > 10.0 || resyncs > 0u)
      << "stall=" << stall_seconds << " resyncs=" << resyncs;
}

TEST(SystemTest, StatusReportsArrivePeriodically) {
  sim::Simulation simulation(37);
  logging::LogServer log;
  Params p = fast_params();
  p.status_report_period = 20.0;
  System sys(simulation, p, small_config(), &log);
  sys.start();
  simulation.run_until(sim::Time(2.0));
  sys.join(viewer(7, net::ConnectionType::kDirect, 2e6, simulation.rng()));
  simulation.run_until(sim::Time(130.0));

  int qos = 0;
  int traffic = 0;
  int partner = 0;
  for (const auto& r : log.parse_all()) {
    if (std::holds_alternative<logging::QosReport>(r)) ++qos;
    if (std::holds_alternative<logging::TrafficReport>(r)) ++traffic;
    if (std::holds_alternative<logging::PartnerReport>(r)) ++partner;
  }
  // ~128 s of life with a 20 s period: 6 report rounds.
  EXPECT_GE(qos, 5);
  EXPECT_LE(qos, 7);
  EXPECT_EQ(qos, traffic);
  EXPECT_EQ(qos, partner);
}

TEST(SystemTest, UploadBytesFlowToTheLog) {
  sim::Simulation simulation(41);
  logging::LogServer log;
  Params p = fast_params();
  p.status_report_period = 20.0;
  SystemConfig cfg = small_config(1);
  cfg.server_max_partners = 2;  // force the NAT peers onto the relay
  System sys(simulation, p, cfg, &log);
  sys.start();
  simulation.run_until(sim::Time(2.0));
  sim::Rng& rng = simulation.rng();
  // A capable relay plus NAT peers: the relay should upload.
  sys.join(viewer(1, net::ConnectionType::kDirect, 8e6, rng));
  for (int i = 0; i < 6; ++i) {
    sys.join(viewer(10 + static_cast<std::uint64_t>(i),
                    net::ConnectionType::kNat, 300e3, rng));
  }
  simulation.run_until(sim::Time(300.0));

  const auto sessions = logging::reconstruct_sessions(log.parse_all());
  std::uint64_t total_up = 0;
  std::uint64_t total_down = 0;
  for (const auto& s : sessions.sessions) {
    total_up += s.bytes_up;
    total_down += s.bytes_down;
  }
  EXPECT_GT(total_down, 0u);
  EXPECT_GT(total_up, 0u);  // viewers serve each other, not only servers
}

}  // namespace
}  // namespace coolstream::core
