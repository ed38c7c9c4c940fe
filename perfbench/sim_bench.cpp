// One measured repetition of a benchmark workload, driven from outside the
// simulator through its public API.
//
//   sim_bench <workload> <seed> <trace 0|1>
//
// Prints one JSON object on stdout: host timings, the simulated digest that
// the orchestrator (run.py) compares across repetitions, the output checks
// made here, and the per-layer counters.  With trace 1 the per-layer
// timings are filled in as well.
//
// The simulation is advanced by the loop Simulation::run_until runs
// (next_time() then step(), event by event); the traced build of the loop
// only adds clock reads around the two calls and reads of the join counter,
// so traced and untraced runs execute the same events in the same order.  No span sits inside the
// library: every timed region is a call the benchmark makes.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "analysis/continuity.h"
#include "analysis/session_analysis.h"
#include "core/system.h"
#include "logging/log_server.h"
#include "logging/sessions.h"
#include "net/transport.h"
#include "sim/simulation.h"
#include "workload/scenario.h"

namespace {

using namespace coolstream;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::uint64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

// ---------------------------------------------------------------------------
// Workloads.  Peak workloads scale the paper's 40,000-viewer evening peak;
// the evening workload is the Fig. 8 set-up (crash-heavy churn, log server).
// ---------------------------------------------------------------------------

struct Workload {
  const char* name;
  bool peak;               ///< drives System directly (no churn, no log)
  std::size_t viewers;     ///< peak: joined viewers; evening: peak target
  int shards;              ///< pinned; never resolved from the environment
  double ramp_s;           ///< peak: joins spread over [0, ramp_s)
  double warm_s;           ///< peak: settle time after the ramp
  double window_s;         ///< peak: measured steady window
  double evening_hours;    ///< evening: broadcast length
};

constexpr std::array<Workload, 3> kWorkloads{{
    {"peak_steady", true, 4000, 1, 120.0, 30.0, 60.0, 0.0},
    {"peak_4shard", true, 4000, 4, 120.0, 30.0, 60.0, 0.0},
    {"evening_churn", false, 700, 1, 0.0, 0.0, 0.0, 3.0},
}};

/// Dedicated-server provisioning as in the deployment: the servers carry
/// ~8% of the peak demand, so peers carry the rest at any population.  The
/// figure benches share this rule (bench/bench_util.h); it is restated here
/// so the benchmark's inputs stay fixed when those benches change.
void provision_servers(workload::Scenario& s, std::size_t viewers) {
  constexpr int kServers = 6;
  const double rate = s.params.stream_rate_bps;
  s.system.server_count = kServers;
  s.system.server_capacity_bps =
      std::max(2.0 * rate, 0.08 * static_cast<double>(viewers) * rate /
                               kServers);
  s.system.server_max_partners = static_cast<int>(
      std::clamp(s.system.server_capacity_bps / rate, 2.0, 60.0));
}

// ---------------------------------------------------------------------------
// Trace storage.  Everything is sized before the run starts, so tracing
// allocates nothing while the simulation is timed.
// ---------------------------------------------------------------------------

/// Log-linear histogram of nanosecond samples (32 sub-buckets per power of
/// two, so quantiles carry at most ~3% relative error).
class Histogram {
 public:
  void add(std::uint64_t v) noexcept {
    ++counts_[index(v)];
    ++n_;
  }
  Histogram& operator+=(const Histogram& other) noexcept {
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      counts_[i] += other.counts_[i];
    }
    n_ += other.n_;
    return *this;
  }
  /// Quantile with the samples of a bucket spread evenly over its range.
  double quantile(double q) const noexcept {
    if (n_ == 0) return 0.0;
    const double rank = q * static_cast<double>(n_ - 1);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      if (static_cast<double>(seen + counts_[i]) > rank) {
        const double within = (rank - static_cast<double>(seen) + 0.5) /
                              static_cast<double>(counts_[i]);
        return lower(i) + within * width(i);
      }
      seen += counts_[i];
    }
    return lower(counts_.size() - 1);
  }

 private:
  static constexpr int kSubBits = 5;
  static constexpr std::uint64_t kSub = std::uint64_t{1} << kSubBits;

  static std::size_t index(std::uint64_t v) noexcept {
    if (v < kSub) return static_cast<std::size_t>(v);
    const int e = 63 - __builtin_clzll(v);
    const std::uint64_t m = (v >> (e - kSubBits)) & (kSub - 1);
    return static_cast<std::size_t>(e - kSubBits + 1) * kSub + m;
  }
  static int shift(std::size_t i) noexcept {
    return static_cast<int>(i / kSub) - 1;  // log2 of the bucket width
  }
  static double lower(std::size_t i) noexcept {
    if (i < kSub) return static_cast<double>(i);
    return static_cast<double>((kSub + i % kSub) << shift(i));
  }
  static double width(std::size_t i) noexcept {
    if (i < kSub) return 1.0;
    return static_cast<double>(std::uint64_t{1} << shift(i));
  }

  std::array<std::uint64_t, 64 * kSub> counts_{};
  std::uint64_t n_ = 0;
};

/// Host-time spans of one phase of a run (set-up or measured window).
struct Spans {
  Histogram next_ns;     ///< EventQueue::next_time(), i.e. find-min
  Histogram event_ns;    ///< step() of an event other than the tick
  Histogram join_ns;     ///< step() of an event that called System::join
  std::vector<double> tick_ms;  ///< step() of each System tick
  double next_s = 0.0;
  double tick_s = 0.0;
  double event_s = 0.0;
  double depth_sum = 0.0;  ///< EventQueue::size() summed over pops
};

/// Counts of one phase, kept in traced and untraced runs alike.
struct Phase {
  std::uint64_t ticks = 0;
  std::uint64_t peer_ticks = 0;  ///< live nodes summed over ticks
  std::uint64_t events = 0;
  std::size_t peak_live = 0;     ///< live viewers at a tick, maximum
};

/// Steps the simulation event by event and classes each event: the first
/// event at each flow-tick grid time is the System tick (the tick series
/// fires at start + n * flow_tick exactly); everything else is an "other"
/// event — control-plane deliveries and workload callbacks.
class Stepper {
 public:
  /// Call right after System::start(), which arms the tick series with
  /// period `flow_tick`.
  Stepper(sim::Simulation& simulation, core::System& system,
          sim::Duration flow_tick)
      : sim_(simulation),
        system_(system),
        dt_(flow_tick),
        first_(simulation.now() + dt_),
        grid_(first_) {}

  template <bool kTrace>
  void run(sim::Time until, Phase& phase, Spans* spans) {
    sim::EventQueue& queue = sim_.queue();
    const std::uint64_t executed0 = sim_.events_executed();
    Clock::time_point t0{};
    Clock::time_point t1{};
    while (!queue.empty()) {
      if constexpr (kTrace) t0 = Clock::now();
      const sim::Time next = queue.next_time();
      if constexpr (kTrace) {
        t1 = Clock::now();
        const std::uint64_t ns = ns_between(t0, t1);
        spans->next_ns.add(ns);
        spans->next_s += static_cast<double>(ns) * 1e-9;
      }
      if (next > until) break;
      const bool tick = next == grid_;
      if (tick) {
        ++phase.ticks;
        phase.peer_ticks += system_.live_nodes().size();
        phase.peak_live =
            std::max(phase.peak_live, system_.live_viewer_count());
        ++fired_;
        grid_ = first_ + static_cast<double>(fired_) * dt_;
      }
      std::uint64_t joins = 0;
      if constexpr (kTrace) {
        spans->depth_sum += static_cast<double>(queue.size());
        joins = system_.stats().joins;
        t0 = Clock::now();
      }
      sim_.step(until);
      if constexpr (kTrace) {
        t1 = Clock::now();
        const std::uint64_t ns = ns_between(t0, t1);
        if (tick) {
          spans->tick_ms.push_back(static_cast<double>(ns) * 1e-6);
          spans->tick_s += static_cast<double>(ns) * 1e-9;
        } else {
          spans->event_ns.add(ns);
          spans->event_s += static_cast<double>(ns) * 1e-9;
          if (system_.stats().joins != joins) spans->join_ns.add(ns);
        }
      }
    }
    phase.events += sim_.events_executed() - executed0;
  }

  void run(sim::Time until, Phase& phase, Spans* spans) {
    if (spans != nullptr) {
      run<true>(until, phase, spans);
    } else {
      run<false>(until, phase, nullptr);
    }
  }

  /// Ticks a phase ending at `until` must hold when it began at `from`.
  std::uint64_t expected_ticks(double from, double until) const noexcept {
    return static_cast<std::uint64_t>((until - from) / dt_.value());
  }

 private:
  sim::Simulation& sim_;
  core::System& system_;
  sim::Duration dt_;
  sim::Time first_;
  sim::Time grid_;
  std::uint64_t fired_ = 0;
};

// ---------------------------------------------------------------------------
// Digest of simulated outcomes: identical across trace modes, shard counts
// and repetitions of one seed, or the run is wrong.
// ---------------------------------------------------------------------------

struct Counters {
  core::SystemStats stats;
  std::array<std::uint64_t, net::kMessageKindCount> sent{};

  static Counters of(core::System& system) {
    Counters c;
    c.stats = system.stats();
    for (int k = 0; k < net::kMessageKindCount; ++k) {
      c.sent[static_cast<std::size_t>(k)] =
          system.transport().sent(static_cast<net::MessageKind>(k));
    }
    return c;
  }
};

// ---------------------------------------------------------------------------
// JSON output
// ---------------------------------------------------------------------------

class Json {
 public:
  void num(const std::string& key, double v) {
    sep();
    std::printf("\"%s\": %.17g", key.c_str(), v);
  }
  void integer(const std::string& key, std::uint64_t v) {
    sep();
    std::printf("\"%s\": %llu", key.c_str(),
                static_cast<unsigned long long>(v));
  }
  void str(const std::string& key, const char* v) {
    sep();
    std::printf("\"%s\": \"%s\"", key.c_str(), v);
  }
  void open(const std::string& key) {
    sep();
    std::printf("\"%s\": {", key.c_str());
    first_ = true;
  }
  void close() {
    std::printf("}");
    first_ = false;
  }
  void begin() { std::printf("{"); }
  void end() { std::printf("}\n"); }

 private:
  void sep() {
    if (!first_) std::printf(", ");
    first_ = false;
  }
  bool first_ = true;
};

struct Check {
  const char* name;
  bool ok;
};

struct Result {
  double setup_s = 0.0;
  double window_s = 0.0;  ///< host seconds of the measured window
  double time_to_result_s = 0.0;
  Phase setup;
  Phase window;
  std::uint64_t expected_setup_ticks = 0;
  std::uint64_t expected_window_ticks = 0;
  Counters at_open;   ///< counters when the window opens
  Counters at_close;  ///< counters when the window closes
  std::uint64_t log_lines = 0;
  std::size_t malformed = 0;
  std::size_t sessions = 0;  ///< joins over the whole run
  double avg_continuity = 0.0;
  double parse_ms = 0.0;
  double reconstruct_ms = 0.0;
  double analysis_ms = 0.0;
  std::vector<Check> checks;
};

void print_spans(Json& j, const std::string& prefix, const Spans& s,
                 const Phase& p) {
  auto key = [&prefix](const char* name) { return prefix + name; };
  std::vector<double> ticks = s.tick_ms;
  std::sort(ticks.begin(), ticks.end());
  auto tick_q = [&ticks](double q) {
    return ticks.empty()
               ? 0.0
               : ticks[static_cast<std::size_t>(
                     q * static_cast<double>(ticks.size() - 1))];
  };
  const double peer_ticks = static_cast<double>(std::max<std::uint64_t>(
      p.peer_ticks, 1));
  j.num(key("sim.next_ns.p50"), s.next_ns.quantile(0.5));
  j.num(key("sim.next_ns.p99"), s.next_ns.quantile(0.99));
  j.num(key("sim.next_s"), s.next_s);
  j.num(key("sim.queue_depth.mean"),
        p.events > 0 ? s.depth_sum / static_cast<double>(p.events) : 0.0);
  j.num(key("core.tick_ms.p50"), tick_q(0.5));
  j.num(key("core.tick_ms.p90"), tick_q(0.9));
  j.num(key("core.tick_s"), s.tick_s);
  j.num(key("core.tick_ns_per_peer"), s.tick_s * 1e9 / peer_ticks);
  j.num(key("core.event_ns.p50"), s.event_ns.quantile(0.5));
  j.num(key("core.event_ns.p99"), s.event_ns.quantile(0.99));
  j.num(key("core.event_s"), s.event_s);
}

void print_result(const Workload& w, std::uint64_t seed, bool trace,
                  const Result& r, const Spans* setup_spans,
                  const Spans* window_spans) {
  Json j;
  j.begin();
  j.str("workload", w.name);
  j.integer("seed", seed);
  j.integer("trace", trace ? 1 : 0);
  j.integer("shards", static_cast<std::uint64_t>(w.shards));
  j.num("setup_s", r.setup_s);
  j.num("window_s", r.window_s);
  j.num("time_to_result_s", r.time_to_result_s);
  j.num("ns_per_peer_tick",
        r.window_s * 1e9 / static_cast<double>(r.window.peer_ticks));

  j.open("digest");
  const Counters& c = r.at_close;
  j.integer("blocks", c.stats.blocks_transferred);
  j.integer("joins", c.stats.joins);
  j.integer("leaves", c.stats.leaves);
  j.integer("accepts", c.stats.partnership_accepts);
  j.integer("rejects", c.stats.partnership_rejects);
  j.integer("subscriptions", c.stats.subscriptions);
  for (int k = 0; k < net::kMessageKindCount; ++k) {
    const std::string name(net::to_string(static_cast<net::MessageKind>(k)));
    j.integer("sent." + name, c.sent[static_cast<std::size_t>(k)]);
  }
  j.integer("log_lines", r.log_lines);
  j.close();

  j.open("checks");
  for (const Check& ck : r.checks) j.integer(ck.name, ck.ok ? 1 : 0);
  j.close();

  // Per-layer values of the measured window.  Counts are exact and present
  // in every run; timings only when traced.
  j.open("layers");
  const Phase& p = r.window;
  const double peer_ticks = static_cast<double>(p.peer_ticks);
  j.integer("sim.events", p.events);
  j.num("sim.events_per_peer_tick", static_cast<double>(p.events) / peer_ticks);
  j.integer("core.ticks", p.ticks);
  j.integer("core.events", p.events - p.ticks);
  const core::SystemStats& s0 = r.at_open.stats;
  const core::SystemStats& s1 = c.stats;
  j.integer("core.blocks_moved", s1.blocks_transferred - s0.blocks_transferred);
  j.integer("core.subscriptions", s1.subscriptions - s0.subscriptions);
  const std::uint64_t accepts =
      s1.partnership_accepts - s0.partnership_accepts;
  const std::uint64_t attempts =
      accepts + s1.partnership_rejects - s0.partnership_rejects;
  j.num("core.partnership_accept_ratio",
        attempts > 0 ? static_cast<double>(accepts) /
                           static_cast<double>(attempts)
                     : 0.0);
  for (int k = 0; k < net::kMessageKindCount; ++k) {
    const auto i = static_cast<std::size_t>(k);
    const std::string name =
        "net.msgs_per_peer_tick." +
        std::string(net::to_string(static_cast<net::MessageKind>(k)));
    j.num(name,
          static_cast<double>(c.sent[i] - r.at_open.sent[i]) / peer_ticks);
  }
  j.integer("logging.lines", r.log_lines);
  j.integer("logging.malformed", r.malformed);
  j.integer("workload.sessions", r.sessions);
  const std::size_t peak_live = std::max(r.setup.peak_live, p.peak_live);
  j.integer("workload.peak_live", peak_live);
  j.num("workload.sessions_per_peak",
        peak_live > 0 ? static_cast<double>(r.sessions) /
                            static_cast<double>(peak_live)
                      : 0.0);
  if (trace) {
    print_spans(j, "", *window_spans, r.window);
    print_spans(j, "setup.", *setup_spans, r.setup);
    Histogram joins = setup_spans->join_ns;
    joins += window_spans->join_ns;
    j.num("core.join_us.p50", joins.quantile(0.5) * 1e-3);
    j.num("core.join_us.p99", joins.quantile(0.99) * 1e-3);
    j.num("logging.parse_ms", r.parse_ms);
    j.num("logging.reconstruct_ms", r.reconstruct_ms);
    j.num("analysis.ms", r.analysis_ms);
  }
  j.close();
  j.end();
}

void reserve_ticks(Spans* spans, std::uint64_t ticks) {
  if (spans != nullptr) spans->tick_ms.reserve(static_cast<std::size_t>(ticks));
}

// ---------------------------------------------------------------------------
// Peak: a fixed crowd joined over a ramp, a warm-up, then the steady window.
// ---------------------------------------------------------------------------

Result run_peak(const Workload& w, std::uint64_t seed, Spans* setup_spans,
                Spans* window_spans) {
  const Clock::time_point entry = Clock::now();
  Result r;
  workload::Scenario scenario =
      workload::Scenario::steady(w.viewers, units::Duration(600.0));
  provision_servers(scenario, w.viewers);
  scenario.system.shards = w.shards;

  sim::Simulation simulation(seed);
  core::System system(simulation, scenario.params, scenario.system, nullptr);
  system.start();
  Stepper stepper(simulation, system, scenario.params.flow_dt());

  // Joins are spread evenly over the ramp but placed strictly inside tick
  // intervals, at a quarter to three quarters of the way through: a join
  // event on the tick grid would be scheduled (and so fire) before the
  // tick itself and be mistaken for it.
  const double dt = scenario.params.flow_tick;
  const double intervals = w.ramp_s / dt;
  for (std::size_t i = 0; i < w.viewers; ++i) {
    const double u = intervals * (static_cast<double>(i) + 0.5) /
                     static_cast<double>(w.viewers);
    const double k = static_cast<double>(static_cast<std::uint64_t>(u));
    const double when = dt * (k + 0.25 + 0.5 * (u - k));
    simulation.at(sim::Time(when), [&system, &simulation, &scenario, i] {
      system.join(scenario.users.make_spec(static_cast<std::uint64_t>(i),
                                           simulation.rng()));
    });
  }

  const double open_s = w.ramp_s + w.warm_s;
  const double close_s = open_s + w.window_s;
  r.expected_setup_ticks = stepper.expected_ticks(0.0, open_s);
  r.expected_window_ticks = stepper.expected_ticks(open_s, close_s);
  reserve_ticks(setup_spans, r.expected_setup_ticks);
  reserve_ticks(window_spans, r.expected_window_ticks);

  stepper.run(sim::Time(open_s), r.setup, setup_spans);
  const Clock::time_point opened = Clock::now();
  r.setup_s = seconds_between(entry, opened);
  const std::size_t live_at_open = system.live_viewer_count();
  r.at_open = Counters::of(system);

  stepper.run(sim::Time(close_s), r.window, window_spans);
  r.window_s = seconds_between(opened, Clock::now());
  r.at_close = Counters::of(system);
  r.sessions = r.at_close.stats.joins;

  r.checks.push_back({"shards_pinned", system.shard_count() == w.shards});
  r.checks.push_back({"live_at_open", live_at_open == w.viewers});
  r.checks.push_back(
      {"setup_ticks_exact", r.setup.ticks == r.expected_setup_ticks});
  r.checks.push_back(
      {"window_ticks_exact", r.window.ticks == r.expected_window_ticks});
  r.checks.push_back({"blocks_moved", r.at_close.stats.blocks_transferred >
                                          r.at_open.stats.blocks_transferred});
  r.time_to_result_s = seconds_between(entry, Clock::now());
  return r;
}

// ---------------------------------------------------------------------------
// Evening: Fig. 8's churn-heavy broadcast through ScenarioRunner, then the
// log -> session -> figure pipeline.
// ---------------------------------------------------------------------------

/// One broadcast, constructed and started: the evening workload's set-up.
struct Broadcast {
  sim::Simulation simulation;
  logging::LogServer log;
  workload::ScenarioRunner runner;

  Broadcast(const workload::Scenario& scenario, std::uint64_t seed)
      : simulation(seed), runner(simulation, scenario, &log) {
    runner.run_until(0.0);  // constructs the servers and arms the tick
  }
};

Result run_evening(const Workload& w, std::uint64_t seed,
                   Spans* window_spans) {
  Result r;
  workload::Scenario scenario = workload::Scenario::evening(
      w.viewers, units::Duration::hours(w.evening_hours));
  provision_servers(scenario, w.viewers);
  scenario.sessions.crash_fraction = 0.15;
  scenario.system.shards = w.shards;

  // The one cold set-up this process pays, first-touch allocation included.
  const Clock::time_point entry = Clock::now();
  const auto b = std::make_unique<Broadcast>(scenario, seed);
  r.setup_s = seconds_between(entry, Clock::now());
  core::System& system = b->runner.system();
  Stepper stepper(b->simulation, system, scenario.params.flow_dt());
  const Clock::time_point opened = Clock::now();
  r.at_open = Counters::of(system);

  const double end_s = b->runner.scenario().end_time;
  r.expected_window_ticks = stepper.expected_ticks(0.0, end_s);
  reserve_ticks(window_spans, r.expected_window_ticks);
  stepper.run(sim::Time(end_s), r.window, window_spans);
  r.window_s = seconds_between(opened, Clock::now());
  r.at_close = Counters::of(system);
  r.sessions = r.at_close.stats.joins;
  r.log_lines = b->log.size();

  Clock::time_point t0 = Clock::now();
  const std::vector<logging::Report> reports =
      b->log.parse_all(&r.malformed);
  Clock::time_point t1 = Clock::now();
  r.parse_ms = seconds_between(t0, t1) * 1e3;
  const logging::SessionLog sessions = logging::reconstruct_sessions(reports);
  t0 = Clock::now();
  r.reconstruct_ms = seconds_between(t1, t0) * 1e3;
  const auto buckets = analysis::continuity_by_type_over_time(sessions, 300.0);
  r.avg_continuity = analysis::average_continuity(sessions);
  const analysis::StartupDelays delays = analysis::startup_delays(sessions);
  r.analysis_ms = seconds_between(t0, Clock::now()) * 1e3;

  r.checks.push_back({"shards_pinned", system.shard_count() == w.shards});
  r.checks.push_back(
      {"window_ticks_exact", r.window.ticks == r.expected_window_ticks});
  r.checks.push_back({"zero_malformed", r.malformed == 0});
  r.checks.push_back({"continuity_ge_0.95", r.avg_continuity >= 0.95});
  r.checks.push_back({"figure_outputs", !buckets.empty() &&
                                            delays.media_ready.size() > 0 &&
                                            !sessions.sessions.empty()});
  r.time_to_result_s = seconds_between(entry, Clock::now());
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 4) {
    std::fprintf(stderr, "usage: sim_bench <workload> <seed> <trace 0|1>\n");
    return 2;
  }
  const std::string name = argv[1];
  const Workload* w = nullptr;
  for (const Workload& candidate : kWorkloads) {
    if (name == candidate.name) w = &candidate;
  }
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", name.c_str());
    return 2;
  }
  const std::uint64_t seed = std::strtoull(argv[2], nullptr, 10);
  const bool trace = std::string(argv[3]) == "1";

  static Spans setup_spans;
  static Spans window_spans;
  Spans* setup = trace ? &setup_spans : nullptr;
  Spans* window = trace ? &window_spans : nullptr;
  const Result r = w->peak ? run_peak(*w, seed, setup, window)
                           : run_evening(*w, seed, window);
  print_result(*w, seed, trace, r, setup, window);
  return 0;
}
