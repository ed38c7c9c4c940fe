// The invariant auditor's own tests: a clean run must audit clean (with
// the periodic mode attached for the whole broadcast), each class of
// seeded corruption must be detected by name, and attaching the auditor
// must not perturb the simulation (it is read-only by contract).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/invariants.h"
#include "core/system.h"
#include "logging/log_server.h"
#include "net/address.h"
#include "workload/scenario.h"

namespace coolstream::core {
namespace {

bool has_rule(const std::vector<InvariantViolation>& violations,
              InvariantRule rule) {
  for (const auto& v : violations) {
    if (v.rule == rule) return true;
  }
  return false;
}

std::string describe(const std::vector<InvariantViolation>& violations) {
  std::string out;
  for (const auto& v : violations) out += to_string(v) + "\n";
  return out;
}

// Small settled system: one server plus a few direct viewers, run long
// enough that everyone is playing.  Each corruption test plants exactly
// one defect into this known-good state.
class SeededCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cfg_.server_count = 1;
    cfg_.server_capacity_bps = 10e6;
    cfg_.server_max_partners = 8;
    sys_ = std::make_unique<System>(simulation_, params_, cfg_, nullptr);
    sys_->start();
    simulation_.run_until(sim::Time(5.0));
    for (int i = 0; i < 4; ++i) {
      PeerSpec spec;
      spec.user_id = static_cast<std::uint64_t>(100 + i);
      spec.kind = PeerKind::kViewer;
      spec.type = net::ConnectionType::kDirect;
      spec.address = net::random_public_address(simulation_.rng());
      spec.upload_capacity = units::BitRate(1e6);
      viewers_.push_back(sys_->join(spec));
    }
    simulation_.run_until(sim::Time(60.0));
  }

  /// A live node guaranteed not to be partnered with anyone yet: a viewer
  /// joined this instant, whose partnership round trips have not started.
  net::NodeId make_stranger() {
    PeerSpec spec;
    spec.user_id = 999;
    spec.kind = PeerKind::kViewer;
    spec.type = net::ConnectionType::kDirect;
    spec.address = net::random_public_address(simulation_.rng());
    spec.upload_capacity = units::BitRate(1e6);
    return sys_->join(spec);
  }

  /// A viewer that reached the playing phase (the corruptions need a peer
  /// with real partnership/subscription state).
  Peer& playing_viewer() {
    for (net::NodeId id : viewers_) {
      Peer* p = sys_->peer(id);
      if (p != nullptr && p->alive() && p->phase() == PeerPhase::kPlaying) {
        return *p;
      }
    }
    ADD_FAILURE() << "no viewer reached the playing phase";
    return *sys_->peer(viewers_.front());
  }

  sim::Simulation simulation_{3};
  Params params_;
  SystemConfig cfg_;
  std::unique_ptr<System> sys_;
  std::vector<net::NodeId> viewers_;
};

TEST_F(SeededCorruptionTest, BaselineIsClean) {
  InvariantAuditor auditor(*sys_);
  const auto violations = auditor.audit();
  EXPECT_TRUE(violations.empty()) << describe(violations);
}

TEST_F(SeededCorruptionTest, AsymmetricPartnershipDetected) {
  Peer& p = playing_viewer();
  // A live node p is not partnered with; p claims the partnership, the
  // other side knows nothing about it.
  const net::NodeId stranger = make_stranger();

  PartnerState fake;
  fake.id = stranger;
  fake.established = Tick(0.0);  // long past the in-flight grace window
  InvariantTestAccess::partners(p).push_back(fake);

  InvariantAuditor auditor(*sys_);
  const auto violations = auditor.audit();
  EXPECT_TRUE(has_rule(violations, InvariantRule::kPartnerSymmetry))
      << describe(violations);
}

TEST_F(SeededCorruptionTest, AsymmetryWithinGraceIsTolerated) {
  Peer& p = playing_viewer();
  const net::NodeId stranger = make_stranger();

  PartnerState fresh;
  fresh.id = stranger;
  fresh.established = sys_->now();  // acceptance round trip still in flight
  InvariantTestAccess::partners(p).push_back(fresh);

  InvariantAuditor auditor(*sys_);
  const auto violations = auditor.audit();
  EXPECT_FALSE(has_rule(violations, InvariantRule::kPartnerSymmetry))
      << describe(violations);
}

TEST_F(SeededCorruptionTest, DoubleParentSubstreamDetected) {
  Peer& p = playing_viewer();
  SubstreamId j(-1);
  for (const SubstreamId s : substreams(params_.substream_count)) {
    if (p.parent_of(s) != net::kInvalidNode) {
      j = s;
      break;
    }
  }
  ASSERT_GE(j, SubstreamId(0)) << "viewer has no subscribed sub-stream";
  Peer* parent = sys_->peer(p.parent_of(j));
  ASSERT_NE(parent, nullptr);
  // The parent now carries two push connections for the same (child,
  // sub-stream) pair — the §III-C single-parent structure is broken.
  parent->out_links().push_back({p.id(), j});

  InvariantAuditor auditor(*sys_);
  const auto violations = auditor.audit();
  EXPECT_TRUE(has_rule(violations, InvariantRule::kSingleParent))
      << describe(violations);
}

TEST_F(SeededCorruptionTest, StaleBufferMapBitDetected) {
  Peer& p = playing_viewer();
  PartnerState* view = nullptr;
  for (auto& ps : InvariantTestAccess::partners(p)) {
    if (ps.bm_time.has_value()) {
      view = &ps;
      break;
    }
  }
  ASSERT_NE(view, nullptr) << "viewer never received a buffer map";
  // The stored view now advertises a block far beyond anything the
  // encoder has produced.
  view->bm.set_latest(
      SubstreamId(0),
      sys_->source_head(SubstreamId(0), sys_->now()) + BlockCount(100));

  InvariantAuditor auditor(*sys_);
  const auto violations = auditor.audit();
  EXPECT_TRUE(has_rule(violations, InvariantRule::kBufferMapAgreement))
      << describe(violations);
}

TEST_F(SeededCorruptionTest, RewoundHeadDetected) {
  Peer& p = playing_viewer();
  ASSERT_GE(p.head(SubstreamId(0)), SeqNum(3))
      << "head too low to rewind meaningfully";

  InvariantAuditor auditor(*sys_);
  const auto before = auditor.audit();  // takes the monotonicity snapshot
  ASSERT_TRUE(before.empty()) << describe(before);

  InvariantTestAccess::rewind_head(
      p, SubstreamId(0), p.head(SubstreamId(0)) - BlockCount(3));

  const auto after = auditor.audit();
  EXPECT_TRUE(has_rule(after, InvariantRule::kSyncMonotonic))
      << describe(after);
}

TEST_F(SeededCorruptionTest, LeakedBlockAccountingDetected) {
  // The global block counter claims one more transfer than the per-peer
  // byte counters can account for.
  InvariantTestAccess::stats(*sys_).blocks_transferred += 1;

  InvariantAuditor auditor(*sys_);
  const auto violations = auditor.audit();
  EXPECT_TRUE(has_rule(violations, InvariantRule::kBlockConservation))
      << describe(violations);
}

TEST_F(SeededCorruptionTest, ZombieBootstrapEntryDetected) {
  const net::NodeId id = viewers_.front();
  sys_->leave(id, /*graceful=*/true);
  simulation_.run_until(simulation_.now() + units::Duration(10.0));

  InvariantAuditor auditor(*sys_);
  const auto clean = auditor.audit();
  ASSERT_TRUE(clean.empty()) << describe(clean);

  // The departed node resurfaces in the boot-strap registry (as if the
  // portal missed the leave): joiners would be handed a dead contact.
  sys_->bootstrap().add(id, sys_->now());

  const auto violations = auditor.audit();
  EXPECT_TRUE(has_rule(violations, InvariantRule::kTeardown))
      << describe(violations);
}

// ---------------------------------------------------------------------------
// Whole-broadcast audits
// ---------------------------------------------------------------------------

TEST(InvariantAuditorTest, PeriodicAuditStaysCleanThroughChurn) {
  workload::Scenario scenario =
      workload::Scenario::steady(80, units::Duration(400.0));
  scenario.system.server_count = 2;
  scenario.sessions.crash_fraction = 0.2;
  sim::Simulation simulation(17);
  logging::LogServer log;
  workload::ScenarioRunner runner(simulation, scenario, &log);

  InvariantAuditor auditor(runner.system());
  std::vector<InvariantViolation> collected;
  auditor.on_violations = [&collected](
                              const std::vector<InvariantViolation>& v) {
    collected.insert(collected.end(), v.begin(), v.end());
  };
  auditor.start(units::Duration(20.0));
  runner.run();

  EXPECT_GT(auditor.audits_run(), 10u);
  EXPECT_TRUE(collected.empty()) << describe(collected);
  EXPECT_EQ(auditor.violations_seen(), 0u);
}

/// The auditor is read-only by contract: a run with periodic auditing
/// attached must be bit-identical to the same run without it.
TEST(InvariantAuditorTest, AuditingDoesNotPerturbTheRun) {
  struct Fingerprint {
    SystemStats stats;
    std::size_t live = 0;
    std::uint64_t bytes_up = 0;
    std::uint64_t bytes_down = 0;
    long long heads = 0;

    bool operator==(const Fingerprint& o) const {
      return stats.joins == o.stats.joins && stats.leaves == o.stats.leaves &&
             stats.partnership_accepts == o.stats.partnership_accepts &&
             stats.partnership_rejects == o.stats.partnership_rejects &&
             stats.subscriptions == o.stats.subscriptions &&
             stats.blocks_transferred == o.stats.blocks_transferred &&
             live == o.live && bytes_up == o.bytes_up &&
             bytes_down == o.bytes_down && heads == o.heads;
    }
  };

  auto run = [](bool with_audit) {
    workload::Scenario scenario =
        workload::Scenario::steady(60, units::Duration(300.0));
    scenario.system.server_count = 2;
    scenario.sessions.crash_fraction = 0.15;
    sim::Simulation simulation(29);
    logging::LogServer log;
    workload::ScenarioRunner runner(simulation, scenario, &log);
    std::unique_ptr<InvariantAuditor> auditor;
    if (with_audit) {
      auditor = std::make_unique<InvariantAuditor>(runner.system());
      // Deliberately not a multiple of any protocol period.
      auditor->start(units::Duration(13.7));
    }
    runner.run();

    Fingerprint fp;
    System& sys = runner.system();
    fp.stats = sys.stats();
    fp.live = sys.live_viewer_count();
    for (net::NodeId id = 0; id < sys.node_count(); ++id) {
      const NodeView p = sys.node(id);
      fp.bytes_up += p.stats().bytes_up.value();
      fp.bytes_down += p.stats().bytes_down.value();
      for (const SubstreamId j : substreams(sys.params().substream_count)) {
        fp.heads += p.head(j).value();
      }
    }
    return fp;
  };

  EXPECT_TRUE(run(false) == run(true));
}

// The build-wide hook: System::start() attaches an auditor when the build
// defines COOLSTREAM_AUDIT and config.audit_period > 0 — and compiles the
// hook out otherwise.  Both build modes exercise their side of the gate.
#ifdef COOLSTREAM_AUDIT
TEST(InvariantAuditorTest, SystemHookAttachesAuditor) {
  sim::Simulation simulation(5);
  Params params;
  SystemConfig cfg;
  cfg.server_count = 1;
  cfg.audit_period = 5.0;
  System sys(simulation, params, cfg, nullptr);
  sys.start();
  ASSERT_NE(sys.auditor(), nullptr);
  simulation.run_until(sim::Time(30.0));
  EXPECT_GT(sys.auditor()->audits_run(), 0u);
  EXPECT_EQ(sys.auditor()->violations_seen(), 0u);
}
#else
TEST(InvariantAuditorTest, SystemHookCompiledOut) {
  sim::Simulation simulation(5);
  Params params;
  SystemConfig cfg;
  cfg.server_count = 1;
  cfg.audit_period = 5.0;
  System sys(simulation, params, cfg, nullptr);
  sys.start();
  EXPECT_EQ(sys.auditor(), nullptr);
}
#endif

}  // namespace
}  // namespace coolstream::core
