#!/usr/bin/env python3
"""Simulator benchmark: host cost of the Coolstreaming simulator, end to end
and layer by layer.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  Builds perfbench/ (and with it the library
sources in src/) into .bench_build/, then runs repetitions of the workload,
each in its own process (perfbench/sim_bench.cpp), while the next one is
expected to end within `--seconds` of host time, and at least MIN_REPS.
Repetition j uses a seed derived from (--seed, j), so a run spans several
simulated broadcasts and the same --seed always gives the same inputs.

Workloads (all times simulated):
  peak_steady    4,000 viewers joined over 120 s, 30 s warm-up, 60 s
                 measured window; no churn, no log server, 1 shard.  The
                 event queue's find-min is ~40-50% of the window here.
  peak_4shard    the same inputs at 4 shards: the only workload that runs
                 the thread pool, the phase barriers and the shard mailbox.
                 Its digest must equal peak_steady's bit for bit.
  evening_churn  Scenario::evening at a 700-viewer peak over 3 h with 15%
                 crashes (the Fig. 8 set-up) through ScenarioRunner and a
                 log server, then the log -> session -> figure pipeline.
                 Tick-heavy, with ~2.5 sessions per peak viewer.

--trace 0 prints the end-to-end metrics, measured with tracing off, each the
median over the repetitions:
  ns_per_peer_tick   host ns per (live node x System tick) over the measured
                     window (the steady window on peak workloads, the whole
                     broadcast on evening_churn)
  setup_s            host seconds before the window
  time_to_result_s   host seconds from entry to a checked result
  peak_rss_mb        maximum resident set of the repetition's process
--trace 1 runs each repetition's seed untraced and traced (at least
MIN_REPS pairs), and prints the per-layer metrics of the traced runs (median
over repetitions) together with the tracing overhead, the median over seeds
of traced minus untraced ns_per_peer_tick.

Output checks (counted in `attempted`, failures in `failed`): the checks
each repetition makes (pinned shard count, exact tick count, live viewers
at the window, malformed log lines, continuity), and in traced runs
traced == untraced digest, the trace covering >= 90% of the window, and on
the peak workloads 1-shard == 4-shard digest.  The last line of stdout is the
JSON result; the lines before it are a readable report with sample counts
and the machine tag.
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "sim_bench")

WORKLOADS = ("peak_steady", "peak_4shard", "evening_churn")
# The same inputs at the other shard count, for the bit-identity check.
SIBLING = {"peak_steady": "peak_4shard", "peak_4shard": "peak_steady"}

MIN_REPS = 3          # untraced repetitions, or traced pairs, per run
RUN_BUDGET_S = 120.0  # cap on --seconds: a run must end within 180 s
REP_TIMEOUT_S = 120.0

END_TO_END = {  # name -> unit
    "ns_per_peer_tick": "ns",
    "setup_s": "s",
    "time_to_result_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {  # name -> unit; values come from the traced repetitions
    "sim.next_ns.p50": "ns",
    "sim.next_ns.p99": "ns",
    "sim.next_s": "s",
    "sim.events": "count",
    "sim.events_per_peer_tick": "events/peer-tick",
    "sim.queue_depth.mean": "count",
    "core.ticks": "count",
    "core.tick_ms.p50": "ms",
    "core.tick_ms.p90": "ms",
    "core.tick_s": "s",
    "core.tick_ns_per_peer": "ns",
    "core.events": "count",
    "core.event_ns.p50": "ns",
    "core.event_ns.p99": "ns",
    "core.event_s": "s",
    "core.join_us.p50": "us",
    "core.join_us.p99": "us",
    "core.blocks_moved": "count",
    "core.subscriptions": "count",
    "core.partnership_accept_ratio": "ratio",
    "net.msgs_per_peer_tick.gossip": "msgs/peer-tick",
    "net.msgs_per_peer_tick.buffermap": "msgs/peer-tick",
    "net.msgs_per_peer_tick.subscribe": "msgs/peer-tick",
    "net.msgs_per_peer_tick.partnership": "msgs/peer-tick",
    "net.msgs_per_peer_tick.report": "msgs/peer-tick",
    "logging.lines": "count",
    "logging.malformed": "count",
    "logging.parse_ms": "ms",
    "logging.reconstruct_ms": "ms",
    "analysis.ms": "ms",
    "workload.sessions": "count",
    "workload.peak_live": "count",
    "workload.sessions_per_peak": "ratio",
    "setup.sim.next_s": "s",
    "setup.core.tick_s": "s",
    "setup.core.event_s": "s",
    "trace.overhead_ns_per_peer_tick": "ns",
    "trace.covered_share": "ratio",
}


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", BUILD, "--target", "sim_bench",
                 "-j", jobs]):
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))


def machine_tag():
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model}


def rep_seed(seed, j):
    """splitmix64 of (seed, j): distinct, well-mixed seeds per repetition."""
    mask = (1 << 64) - 1
    z = (seed * 0x9E3779B97F4A7C15 + (j + 1) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


def run_rep(workload, seed, trace):
    """Runs one repetition in its own process; returns its JSON record with
    the process's peak RSS and wall time added."""
    start = time.monotonic()
    proc = subprocess.Popen([BINARY, workload, str(seed), str(trace)],
                            stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(REP_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
        proc.stdout.close()
        if proc.returncode is None:  # interrupted: leave nothing running
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        fail("%s seed %d trace %d exited with %d"
             % (workload, seed, trace, proc.returncode))
    record = json.loads(out.strip().splitlines()[-1])
    record["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB
    record["wall_s"] = time.monotonic() - start
    return record


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failed = []

    def add(self, name, ok):
        self.attempted += 1
        if not ok:
            self.failed.append(name)

    def add_rep(self, record):
        for name, ok in sorted(record["checks"].items()):
            self.add("%s[%d]" % (name, record["seed"]), ok == 1)


def measure(workload, seed, seconds, trace, checks):
    """Repetitions while the next one is expected to end within `seconds`
    of host time, and at least MIN_REPS of them (untraced runs, or
    untraced + traced pairs of one seed); returns the untraced and traced
    records."""
    untraced, traced = [], []
    started = time.monotonic()
    limit = min(seconds, RUN_BUDGET_S)
    sibling = None
    if trace and workload in SIBLING:
        sibling = run_rep(SIBLING[workload], rep_seed(seed, 0), 0)
        checks.add_rep(sibling)
    reps_spent = 0.0
    while len(untraced) < MIN_REPS or (
            time.monotonic() - started + reps_spent / len(untraced) <= limit):
        s = rep_seed(seed, len(untraced))
        plain = run_rep(workload, s, 0)
        checks.add_rep(plain)
        untraced.append(plain)
        reps_spent += plain["wall_s"]
        if trace:
            traced_rec = run_rep(workload, s, 1)
            checks.add_rep(traced_rec)
            checks.add("traced_digest_equal[%d]" % s,
                       traced_rec["digest"] == plain["digest"])
            traced.append(traced_rec)
            reps_spent += traced_rec["wall_s"]
    if sibling is not None:
        checks.add("shard_digest_equal[%d]" % sibling["seed"],
                   sibling["digest"] == untraced[0]["digest"])
    return untraced, traced


def median_of(records, name):
    return statistics.median(r[name] for r in records)


def end_to_end_metrics(untraced):
    return {name: median_of(untraced, name) for name in END_TO_END}


def per_layer_metrics(untraced, traced):
    values = {}
    for name in PER_LAYER:
        samples = [r["layers"][name] for r in traced if name in r["layers"]]
        if samples:
            values[name] = statistics.median(samples)
    values["trace.overhead_ns_per_peer_tick"] = statistics.median(
        t["ns_per_peer_tick"] - u["ns_per_peer_tick"]
        for u, t in zip(untraced, traced))
    values["trace.covered_share"] = statistics.median(
        (r["layers"]["sim.next_s"] + r["layers"]["core.tick_s"]
         + r["layers"]["core.event_s"]) / r["window_s"] for r in traced)
    return values


def report(workload, seed, trace, untraced, traced, metrics, units, checks):
    tag = machine_tag()
    print("perfbench %s seed %d trace %d on %s (nproc %s)"
          % (workload, seed, trace, tag["cpu"], tag["nproc"]))
    print("repetitions: %d untraced, %d traced" % (len(untraced), len(traced)))
    n = len(traced) if trace else len(untraced)
    for name, value in metrics.items():
        print("  %-36s %14.6g %-16s n=%d" % (name, value, units[name], n))
    print("checks: %d attempted, %d failed%s" % (
        checks.attempted, len(checks.failed),
        (" (" + ", ".join(checks.failed) + ")") if checks.failed else ""))
    print(json.dumps({"machine": tag, "workload": workload, "seed": seed,
                      "trace": trace, "repetitions": [
                          {k: r[k] for k in ("seed", "trace", "setup_s",
                                             "window_s", "ns_per_peer_tick",
                                             "time_to_result_s",
                                             "peak_rss_mb")}
                          for r in untraced + traced]}))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    build()
    checks = Checks()
    untraced, traced = measure(args.workload, args.seed, args.seconds,
                               args.trace, checks)
    if args.trace:
        values, units = per_layer_metrics(untraced, traced), PER_LAYER
        checks.add("trace_covers_window", values["trace.covered_share"] >= 0.9)
    else:
        values, units = end_to_end_metrics(untraced), END_TO_END
    report(args.workload, args.seed, args.trace, untraced, traced, values,
           units, checks)
    print(json.dumps({
        "correct": not checks.failed,
        "attempted": checks.attempted,
        "failed": len(checks.failed),
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))


if __name__ == "__main__":
    main()
