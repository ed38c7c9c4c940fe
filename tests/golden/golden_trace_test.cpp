// Golden-trace regression tier.
//
// Each pinned scenario (one clean, three fault-injected) is run at a fixed
// seed while a compact state hash is sampled every 20 simulated seconds.
// The resulting timeline is compared line-by-line against a checked-in
// .golden file, so a behaviour change shows up as *when* the divergence
// starts, not just that the final digest differs.
//
// Regenerating after an intentional behaviour change:
//   GOLDEN_REGEN=1 ./build/tests/golden_tests      (or tools/regen_golden.sh)
// and commit the rewritten tests/golden/*.golden files with an explanation.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/peer.h"
#include "core/system.h"
#include "sim/simulation.h"
#include "workload/churn.h"
#include "workload/scenario.h"

namespace coolstream {
namespace {

constexpr std::uint64_t kGoldenSeed = 20070613;

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

struct GoldenScenario {
  std::string name;
  std::size_t viewers;
  double end_time;
  std::string schedule_text;  ///< workload::ChurnSchedule grammar
  /// 0 keeps the default deployment (24 servers of 100 Mbps); otherwise
  /// that many servers, each with as many stream rates of uplink and as
  /// many partner slots, so peers must carry the crowd themselves.
  int servers = 0;
};

std::vector<GoldenScenario> golden_scenarios() {
  return {
      {"clean", 16, 180.0, ""},
      // Message loss + duplication + jitter on every edge mid-run, plus a
      // capacity degradation of one server.
      {"lossy", 16, 180.0,
       "msg 30 120 * 0.15 0.05 0.3 0.4\n"
       "cap 60 140 0 0.3\n"},
      // Flash-crowd burst, a mass crash, and a connectivity flap.
      {"churny", 12, 200.0,
       "burst 40 6 5\n"
       "mass 100 0.3 crash\n"
       "flap 70 90 3\n"},
      // A crowd on three small servers: lagging peers rotate partners out
      // (drop_worst_partner), so partnerships break mid-flush and children
      // of the dropping parent reselect from the maps their partners have
      // pushed so far this tick; lost confirms add phantom partnerships
      // for the silence timeout and the lazy dead-partner cleanup.
      {"contended", 12, 200.0,
       "burst 10 60 20\n"
       "msg 30 200 * 0.05 0 0 0\n"
       "mass 150 0.2 crash\n",
       3},
  };
}

/// Compact per-sample digest: system counters plus every node's protocol
/// state.  Cheaper than the full state-hash digest (no log stream) so it
/// can be folded at every sample point.
std::string sample_digest(core::System& sys) {
  std::ostringstream out;
  out.precision(17);
  const core::SystemStats& st = sys.stats();
  out << st.joins << '/' << st.leaves << '/' << st.blocks_transferred << '/'
      << st.partnership_accepts << '/' << st.partnership_rejects << '/'
      << st.subscriptions << '\n';
  for (net::NodeId id = 0; id < sys.node_count(); ++id) {
    const core::NodeView p = sys.node(id);
    out << id << ':' << static_cast<int>(p.phase()) << ','
        << p.playhead().value() << ',' << p.partner_count();
    for (const core::SubstreamId j :
         core::substreams(sys.params().substream_count)) {
      out << ',' << p.head(j).value();
    }
    const core::PeerStats& ps = p.stats();
    out << ',' << ps.blocks_due << ',' << ps.blocks_on_time << ','
        << ps.bytes_down.value() << ',' << ps.adaptations << ','
        << ps.resyncs << '\n';
  }
  return out.str();
}

/// Runs one scenario and returns its hash-timeline text, one line per
/// 20-second sample: "t=<time> hash=0x<16 hex digits>".
std::string run_timeline(const GoldenScenario& g) {
  const auto schedule = workload::ChurnSchedule::parse(g.schedule_text);
  if (!schedule) return "<schedule parse error>";
  sim::Simulation simulation(kGoldenSeed);
  workload::Scenario scenario =
      workload::Scenario::steady(g.viewers, units::Duration(g.end_time));
  scenario.end_time = g.end_time;
  scenario.params.partner_silence_timeout = 6.0;
  if (g.servers > 0) {
    scenario.system.server_count = g.servers;
    scenario.system.server_capacity_bps =
        g.servers * scenario.params.stream_rate_bps;
    scenario.system.server_max_partners = g.servers;
  }
  workload::ScenarioRunner runner(simulation, std::move(scenario), nullptr);
  workload::ChurnDriver driver(runner, *schedule, kGoldenSeed);
  driver.arm();

  std::ostringstream out;
  out.precision(17);
  for (double t = 20.0; t <= g.end_time; t += 20.0) {
    runner.run_until(t);
    char line[64];
    std::snprintf(line, sizeof line, "t=%g hash=0x%016llx", t,
                  static_cast<unsigned long long>(
                      fnv1a(sample_digest(runner.system()))));
    out << line << '\n';
  }
  const workload::ChurnCounters& cc = driver.counters();
  const sim::FaultCounters& fc = driver.injector().counters();
  out << "churn bursts=" << cc.burst_arrivals << " departs=" << cc.departures
      << " crashes=" << cc.crashes << " dropped=" << fc.dropped
      << " duplicated=" << fc.duplicated << " jittered=" << fc.jittered
      << '\n';
  return out.str();
}

std::string golden_path(const std::string& name) {
  return std::string(COOLSTREAM_GOLDEN_DIR) + "/" + name + ".golden";
}

TEST(GoldenTrace, TimelinesMatchCheckedInGoldens) {
  const bool regen = std::getenv("GOLDEN_REGEN") != nullptr;
  for (const GoldenScenario& g : golden_scenarios()) {
    SCOPED_TRACE("scenario: " + g.name);
    const std::string actual = run_timeline(g);
    ASSERT_NE(actual, "<schedule parse error>");
    const std::string path = golden_path(g.name);
    if (regen) {
      std::ofstream out(path);
      ASSERT_TRUE(out.good()) << "cannot write " << path;
      out << actual;
      std::printf("[golden] regenerated %s\n", path.c_str());
      continue;
    }
    std::ifstream in(path);
    ASSERT_TRUE(in.good())
        << "missing golden file " << path
        << " — run tools/regen_golden.sh and commit the result";
    std::stringstream expected;
    expected << in.rdbuf();
    // Compare line-by-line so the failure shows when divergence starts.
    std::istringstream a(actual);
    std::istringstream e(expected.str());
    std::string la;
    std::string le;
    int line_no = 0;
    while (true) {
      const bool more_a = static_cast<bool>(std::getline(a, la));
      const bool more_e = static_cast<bool>(std::getline(e, le));
      ++line_no;
      if (!more_a && !more_e) break;
      ASSERT_EQ(more_a, more_e)
          << g.name << ".golden line " << line_no
          << ": timeline lengths differ (regen via tools/regen_golden.sh "
             "if the change is intentional)";
      ASSERT_EQ(la, le) << g.name << ".golden line " << line_no
                        << ": state diverged here (regen via "
                           "tools/regen_golden.sh if intentional)";
    }
  }
}

// The clean scenario must be bit-identical with and without an armed driver
// whose schedule is empty: fault injection OFF is the default and must not
// perturb the simulation.
TEST(GoldenTrace, EmptyScheduleIsObservationallyInert) {
  const GoldenScenario clean = golden_scenarios().front();
  const std::string with_driver = run_timeline(clean);

  sim::Simulation simulation(kGoldenSeed);
  workload::Scenario scenario =
      workload::Scenario::steady(clean.viewers,
                                 units::Duration(clean.end_time));
  scenario.end_time = clean.end_time;
  scenario.params.partner_silence_timeout = 6.0;
  workload::ScenarioRunner runner(simulation, std::move(scenario), nullptr);
  std::ostringstream out;
  out.precision(17);
  for (double t = 20.0; t <= clean.end_time; t += 20.0) {
    runner.run_until(t);
    char line[64];
    std::snprintf(line, sizeof line, "t=%g hash=0x%016llx", t,
                  static_cast<unsigned long long>(
                      fnv1a(sample_digest(runner.system()))));
    out << line << '\n';
  }
  out << "churn bursts=0 departs=0 crashes=0 dropped=0 duplicated=0 "
         "jittered=0\n";
  EXPECT_EQ(with_driver, out.str());
}

}  // namespace
}  // namespace coolstream
