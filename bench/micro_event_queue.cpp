// Head-to-head benchmark of the slab + keyed-heap event engine against the
// engine it replaced: a binary heap of std::function entries with
// shared_ptr<bool> cancellation flags and lazy removal.
//
// The reference engine below is a faithful replica of the pre-rewrite
// src/sim/event_queue.cpp, kept in-file so the comparison survives the
// original's deletion.  Three workloads mirror how the simulator actually
// drives the queue:
//
//   schedule_fire  — steady state: ~8k live events, every fire schedules a
//                    successor (transport deliveries, protocol timers)
//   periodic       — many concurrent every() loops (peer protocol ticks)
//   cancel_heavy   — a standing population of timers that are reset
//                    (cancel + reschedule) ~9 times for every time they
//                    fire, the way retransmit/keepalive timers behave;
//                    ~90% of scheduled events are cancelled before firing
//
// Writes BENCH_event_engine.json in the working directory: a "macro" line
// with ns/op over all three workloads combined and a "micro" row per
// workload, each with ns/op per engine and the speedup.  Record a run into
// the checked-in trajectory with
//   tools/bench_record.sh <label> BENCH_event_engine.json <repo>/BENCH_event_engine.json
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/event_queue.h"
#include "sim/rng.h"
#include "sim/simulation.h"

namespace {

using coolstream::sim::Duration;
using coolstream::sim::Rng;
using coolstream::sim::Time;

// The reference engine replicates the seed, whose clock was a raw double.
using RefTime = double;

// ---------------------------------------------------------------------------
// Reference engine: the seed's heap-of-std::function queue, verbatim design.
// ---------------------------------------------------------------------------

class RefHandle;

class RefQueue {
 public:
  RefHandle schedule(RefTime time, std::function<void()> fn);
  RefHandle schedule_every(RefTime first, RefTime period,
                           std::function<void()> fn);

  bool empty() {
    skim();
    return heap_.empty();
  }

  RefTime next_time() {
    skim();
    return heap_.front().time;
  }

  bool run_next(RefTime* now) {
    skim();
    if (heap_.empty()) return false;
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    Entry e = std::move(heap_.back());
    heap_.pop_back();
    now_ = e.time;
    *now = e.time;
    *e.alive = false;
    e.fn();
    return true;
  }

 private:
  friend class RefHandle;

  struct Entry {
    RefTime time;
    std::uint64_t seq;
    std::function<void()> fn;
    std::shared_ptr<bool> alive;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  void skim() {
    while (!heap_.empty() && !*heap_.front().alive) {
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      heap_.pop_back();
    }
  }

  std::vector<Entry> heap_;
  std::uint64_t next_seq_ = 0;
  RefTime now_ = 0.0;
};

class RefHandle {
 public:
  RefHandle() = default;
  explicit RefHandle(std::shared_ptr<bool> alive) : alive_(std::move(alive)) {}
  void cancel() {
    if (alive_) *alive_ = false;
  }

 private:
  std::shared_ptr<bool> alive_;
};

RefHandle RefQueue::schedule(RefTime time, std::function<void()> fn) {
  auto alive = std::make_shared<bool>(true);
  heap_.push_back(Entry{time, next_seq_++, std::move(fn), alive});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  return RefHandle(alive);
}

RefHandle RefQueue::schedule_every(RefTime first, RefTime period,
                                   std::function<void()> fn) {
  // The seed's periodic loop: a shared chain flag plus a self-rescheduling
  // shared std::function that re-enqueues itself at now + period.
  auto chain = std::make_shared<bool>(true);
  auto body = std::make_shared<std::function<void()>>();
  RefQueue* self = this;
  *body = [self, chain, period, fn = std::move(fn), body] {
    if (!*chain) return;
    fn();
    if (!*chain) return;
    self->schedule(self->now_ + period, [body] { (*body)(); });
  };
  schedule(first, [body] { (*body)(); });
  return RefHandle(chain);
}

// ---------------------------------------------------------------------------
// Timing helpers
// ---------------------------------------------------------------------------

double now_seconds() {
  // Benchmark harness: measures host wall time, not simulated time.
  using clock = std::chrono::steady_clock;  // lint:allow(wall-clock)
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

struct Result {
  double ns_per_op;
  std::uint64_t ops;
};

template <typename F>
Result time_workload(F&& body, std::uint64_t ops) {
  // One untimed warm-up pass, then best of three timed passes.
  body();
  double best = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    const double t0 = now_seconds();
    body();
    const double dt = now_seconds() - t0;
    best = std::min(best, dt);
  }
  return Result{best * 1e9 / static_cast<double>(ops), ops};
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

constexpr std::uint64_t kSteadyOps = 400000;
constexpr std::size_t kSteadyLive = 8192;
constexpr std::uint64_t kPeriodicFires = 400000;
constexpr std::size_t kTimerCount = 4096;
constexpr std::uint64_t kTimerOps = 409600;
// Per-op clock step chosen so a timer armed u(0.5, 1.0) ahead is reset
// about 9 times before it would fire: ~90% of events are cancelled.
constexpr double kTimerDt = 0.75 / (9.0 * static_cast<double>(kTimerCount));

// (a) steady-state schedule + fire with a large live population.
Result steady_ref() {
  return time_workload(
      [] {
        RefQueue q;
        Rng rng(11);
        RefTime now = 0.0;
        std::uint64_t fired = 0;
        for (std::size_t i = 0; i < kSteadyLive; ++i) {
          q.schedule(rng.uniform(0.0, 1.0), [] {});
        }
        while (fired < kSteadyOps && q.run_next(&now)) {
          ++fired;
          if (fired + kSteadyLive <= kSteadyOps + kSteadyLive) {
            q.schedule(now + rng.uniform(0.001, 1.0), [] {});
          }
        }
      },
      kSteadyOps);
}

Result steady_new() {
  return time_workload(
      [] {
        coolstream::sim::EventQueue q;
        Rng rng(11);
        Time now{};
        std::uint64_t fired = 0;
        for (std::size_t i = 0; i < kSteadyLive; ++i) {
          q.schedule(Time(rng.uniform(0.0, 1.0)), [] {});
        }
        while (fired < kSteadyOps &&
               q.run_next([&now](Time t) { now = t; })) {
          ++fired;
          if (fired + kSteadyLive <= kSteadyOps + kSteadyLive) {
            q.schedule(now + Duration(rng.uniform(0.001, 1.0)), [] {});
          }
        }
      },
      kSteadyOps);
}

// (b) periodic protocol loops: 64 concurrent series.
Result periodic_ref() {
  return time_workload(
      [] {
        RefQueue q;
        std::uint64_t fires = 0;
        std::vector<RefHandle> handles;
        for (int i = 0; i < 64; ++i) {
          handles.push_back(q.schedule_every(
              0.01 * static_cast<double>(i + 1), 1.0, [&fires] { ++fires; }));
        }
        RefTime now = 0.0;
        while (fires < kPeriodicFires && q.run_next(&now)) {
        }
        for (auto& h : handles) h.cancel();
        while (q.run_next(&now)) {  // drain the cancelled tails
        }
      },
      kPeriodicFires);
}

Result periodic_new() {
  return time_workload(
      [] {
        coolstream::sim::EventQueue q;
        std::uint64_t fires = 0;
        std::vector<coolstream::sim::EventHandle> handles;
        for (int i = 0; i < 64; ++i) {
          handles.push_back(
              q.schedule_every(Time(0.01 * static_cast<double>(i + 1)),
                               Duration(1.0), [&fires] { ++fires; }));
        }
        while (fires < kPeriodicFires && q.run_next()) {
        }
        for (auto& h : handles) h.cancel();
        while (q.run_next()) {
        }
      },
      kPeriodicFires);
}

// (c) cancel-heavy churn: a standing window of timers, each reset (cancel +
// reschedule) ~9x for every fire.  In the seed engine the cancelled entries
// linger in the heap until their original deadline passes, so every heap
// operation pays for ~10x the live population; eager cancellation keeps the
// new engine's structures at the live size.
Result cancel_ref() {
  return time_workload(
      [] {
        RefQueue q;
        Rng rng(13);
        RefTime now = 0.0;
        std::vector<RefHandle> handles(kTimerCount);
        for (std::size_t i = 0; i < kTimerCount; ++i) {
          handles[i] = q.schedule(now + rng.uniform(0.5, 1.0), [] {});
        }
        RefTime fired_at = 0.0;
        for (std::uint64_t op = 0; op < kTimerOps; ++op) {
          now += kTimerDt;
          while (!q.empty() && q.next_time() <= now) q.run_next(&fired_at);
          const auto i =
              static_cast<std::size_t>(
                  rng.uniform(0.0, static_cast<double>(kTimerCount))) %
              kTimerCount;
          handles[i].cancel();
          handles[i] = q.schedule(now + rng.uniform(0.5, 1.0), [] {});
        }
      },
      kTimerOps);
}

Result cancel_new() {
  return time_workload(
      [] {
        coolstream::sim::EventQueue q;
        Rng rng(13);
        Time now{};
        std::vector<coolstream::sim::EventHandle> handles(kTimerCount);
        for (std::size_t i = 0; i < kTimerCount; ++i) {
          handles[i] = q.schedule(now + Duration(rng.uniform(0.5, 1.0)), [] {});
        }
        const auto on_fire = [](Time) {};
        for (std::uint64_t op = 0; op < kTimerOps; ++op) {
          now += Duration(kTimerDt);
          while (!q.empty() && q.next_time() <= now) q.run_next(on_fire);
          const auto i =
              static_cast<std::size_t>(
                  rng.uniform(0.0, static_cast<double>(kTimerCount))) %
              kTimerCount;
          handles[i].cancel();
          handles[i] = q.schedule(now + Duration(rng.uniform(0.5, 1.0)), [] {});
        }
      },
      kTimerOps);
}

}  // namespace

int main() {
  struct Row {
    const char* name;
    Result ref;
    Result engine;
  };

  std::printf("workload          ops      seed ns/op   slab ns/op   speedup\n");
  Row rows[] = {
      {"schedule_fire", steady_ref(), steady_new()},
      {"periodic", periodic_ref(), periodic_new()},
      {"cancel_heavy", cancel_ref(), cancel_new()},
  };
  for (const Row& r : rows) {
    std::printf("%-14s %9llu   %10.1f   %10.1f   %6.2fx\n", r.name,
                static_cast<unsigned long long>(r.ref.ops), r.ref.ns_per_op,
                r.engine.ns_per_op, r.ref.ns_per_op / r.engine.ns_per_op);
  }

  std::FILE* out = std::fopen("BENCH_event_engine.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open BENCH_event_engine.json\n");
    return 1;
  }
  // Ops-weighted over the workloads: total time / total ops per engine.
  std::uint64_t total_ops = 0;
  double ref_ns = 0.0;
  double engine_ns = 0.0;
  for (const Row& r : rows) {
    total_ops += r.ref.ops;
    ref_ns += r.ref.ns_per_op * static_cast<double>(r.ref.ops);
    engine_ns += r.engine.ns_per_op * static_cast<double>(r.engine.ops);
  }
  const double n_ops = static_cast<double>(total_ops);
  std::fprintf(out, "{\n  \"bench\": \"event_engine\",\n");
  std::fprintf(out,
               "  \"macro\": {\"ops\": %llu, "
               "\"seed_engine_ns_per_op\": %.2f, "
               "\"slab_engine_ns_per_op\": %.2f, \"speedup\": %.2f},\n",
               static_cast<unsigned long long>(total_ops), ref_ns / n_ops,
               engine_ns / n_ops, ref_ns / engine_ns);
  std::fprintf(out, "  \"micro\": [\n");
  const int n = static_cast<int>(sizeof(rows) / sizeof(rows[0]));
  for (int i = 0; i < n; ++i) {
    const Row& r = rows[i];
    std::fprintf(out,
                 "    {\"name\": \"%s\", \"ops\": %llu, "
                 "\"seed_engine_ns_per_op\": %.2f, "
                 "\"slab_engine_ns_per_op\": %.2f, "
                 "\"speedup\": %.2f}%s\n",
                 r.name, static_cast<unsigned long long>(r.ref.ops),
                 r.ref.ns_per_op, r.engine.ns_per_op,
                 r.ref.ns_per_op / r.engine.ns_per_op, i + 1 < n ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  return 0;
}
