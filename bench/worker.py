"""One workload process: imports twinrep from the checkout's src/, builds the
seeded deck, prints "ready", runs, and prints one JSON line of results.

Started by run.py, which times interpreter start to "ready" as the set-up time.

The deck is replayed in rounds, so every op runs several times with the same
inputs.  An op's time is the CPU time of this (only) thread: the ops are
CPU-bound and do no I/O, so on an idle machine it equals wall time, and it
leaves out time the core was taken away by other tenants.  The machines this
was tuned on also switch between a fast state and one 1.3-1.8x slower for
seconds to minutes at a time, so an untraced run rescales each execution by
a speed probe timed between ops (see SpeedProbe) and takes each op's fastest
rescaled execution.

  --trace 0: rounds until --seconds have passed (at least one whole round).
  --trace 1: two rounds in which every op runs untraced and then traced,
             then one round with Scalar constructions counted.  --seconds
             is unused, so span counts are exact for a given seed.
"""

from __future__ import annotations

import argparse
import bisect
import collections
import importlib
import json
import math
import os
import resource
import statistics
import sys
import time

import tracer
from workloads import OK, WORKLOADS, WRONG

SUBMODULES = ("scalars", "linalg", "reps", "reduction", "chains",
              "irreducibility", "oracle", "cli")
MAX_ERROR_SAMPLES = 5
TRACE_ROUNDS = 2

# Machine-speed probe: a fixed pure-Python integer loop, timed in CPU time at
# most every PROBE_EVERY_S between ops.  An op's latency is rescaled by
# PROBE_REFERENCE_S / (median probe time within PROBE_WINDOW_S of the op).
# Of the loops tried (integer, object construction, Fraction, complex
# Horner, argparse and csv, a random walk over 4 MiB), the integer loop
# tracked the slow machine state best on all three workloads.
PROBE_EVERY_S = 0.05
PROBE_WINDOW_S = 1.5
# About the loop's median CPU time on the machine the benchmark was written on
PROBE_REFERENCE_S = 250e-6


def _integer_loop():
    s = 0
    for i in range(3000):
        s += i * i % 7
    return s


class SpeedProbe:
    def __init__(self):
        self.times = []
        self.durations = []

    def maybe_sample(self):
        now = time.perf_counter()
        if self.times and now - self.times[-1] < PROBE_EVERY_S:
            return
        cpu = time.thread_time()
        _integer_loop()
        self.times.append(now)
        self.durations.append(time.thread_time() - cpu)

    def scale(self, t):
        """The reference time over the median probe time near `t`."""
        i = bisect.bisect_left(self.times, t - PROBE_WINDOW_S)
        j = bisect.bisect_right(self.times, t + PROBE_WINDOW_S)
        if i == j:  # no probe that close: use the last one before t
            i, j = max(0, j - 1), max(1, j)
        return PROBE_REFERENCE_S / statistics.median(self.durations[i:j])


def _betacf(a, b, x):
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 1000):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return h


def _betainc(a, b, x):
    """Regularised incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def quantile(values, p):
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of all
    order statistics.  Unlike one order statistic it does not jump when a few
    ops near the quantile swap places, so it is steadier on op costs that
    bunch into classes."""
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    cdf = [_betainc(a, b, i / n) for i in range(n + 1)]
    return sum((hi - lo) * x for lo, hi, x in zip(cdf, cdf[1:], xs))


def _import_package(src):
    sys.path.insert(0, src)
    pkg = importlib.import_module("twinrep")
    where = os.path.dirname(os.path.abspath(pkg.__file__))
    if where != os.path.join(src, "twinrep"):
        raise SystemExit("twinrep imported from %s, not from %s" % (where, src))
    for name in SUBMODULES:
        importlib.import_module("twinrep." + name)
    return pkg


class Runner:
    """Runs a deck as a closed loop with one caller, timing each op.

    An op's key is its deck position; an op queued by another op's output
    (locus decides at returned roots) is keyed by its parent and place, so a
    key names the same call in every round."""

    def __init__(self, workload, probe=None):
        self.workload = workload
        self.probe = probe
        self.starts = collections.defaultdict(list)
        self.latencies = collections.defaultdict(list)
        self.untraced = collections.defaultdict(list)
        self.outcomes = collections.Counter()
        self.errors = collections.Counter()
        self.failed_keys = set()

    def _call(self, op):
        if self.probe is not None:
            self.probe.maybe_sample()
        t0, cpu = time.perf_counter(), time.thread_time()
        try:
            return self.workload.run(op), None, t0, time.thread_time() - cpu
        # the loop must survive any failure of the program under test;
        # each one is counted and a sample of messages kept
        except Exception as exc:  # noqa: BLE001
            return None, exc, t0, time.thread_time() - cpu

    def _record(self, key, op, output, error, start, latency, store):
        store[key].append(latency)
        if store is self.latencies:
            self.starts[key].append(start)
        if error is not None:
            self.errors["%s: %s" % (type(error).__name__, error)] += 1
            outcome, follow = "error", []
        else:
            outcome, follow = self.workload.check(op, output)
        self.outcomes[outcome] += 1
        if outcome != OK:
            self.failed_keys.add(key)
        return follow

    def run_round(self, deck, spans=None, deadline=None):
        """One pass over the deck, cut short at `deadline`; returns the busy
        seconds.  With `spans`, every op runs twice back to back, untraced
        and then traced, so the tracing overhead is measured under the same
        machine state."""
        busy = 0.0
        queue = collections.deque(enumerate(deck.ops))
        while queue and (deadline is None or time.perf_counter() < deadline):
            key, op = queue.popleft()
            if spans is not None:
                self._record(key, op, *self._call(op), self.untraced)
                spans.op = key
                spans.install()
                try:
                    result = self._call(op)
                finally:
                    spans.uninstall()
            else:
                result = self._call(op)
            busy += result[3]
            follow = self._record(key, op, *result, self.latencies)
            queue.extendleft(reversed([((key, j), f) for j, f in enumerate(follow)]))
        return busy

    @staticmethod
    def best(latencies):
        """Each op's fastest round."""
        return [min(v) for v in latencies.values()]

    def best_scaled(self):
        """Each op's fastest round after rescaling every execution to the
        probe's reference speed."""
        scale = self.probe.scale
        return [min(lat * scale(t + lat / 2) for t, lat in zip(starts, lats))
                for starts, lats in zip(self.starts.values(),
                                        self.latencies.values())]

    def summary(self):
        raw = sorted(self.best(self.latencies))
        best = sorted(self.best_scaled()) if self.probe is not None else raw
        executions = sum(self.outcomes.values())
        out = {
            "executions": executions,
            "executions_failed": executions - self.outcomes[OK],
            "outcomes": dict(self.outcomes),
            "error_samples": dict(self.errors.most_common(MAX_ERROR_SAMPLES)),
            # each deck op counts once however many rounds replayed it, so
            # these counts are fixed by the seed, not by the machine's speed
            "ops": len(best),
            "ops_failed": len(self.failed_keys),
            "rounds": max(len(v) for v in self.latencies.values()),
            "best_busy_s": sum(best),
            "p50_s": quantile(best, 0.5),
            # 90th percentile; with >= 100 ops at least ten lie above it
            "p90_s": quantile(best, 0.9),
            "raw_best_busy_s": sum(raw),
            "raw_p50_s": quantile(raw, 0.5),
            "raw_p90_s": quantile(raw, 0.9),
        }
        if self.probe is not None:
            out["probe_median_s"] = statistics.median(self.probe.durations)
            out["probe_samples"] = len(self.probe.durations)
        return out


def _timed(workload, deck, seconds):
    """One whole round, then rounds until `seconds` have passed; the last
    may stop part way, so some ops get one execution more than others."""
    runner = Runner(workload, SpeedProbe())
    start = time.perf_counter()
    deadline = start + seconds
    runner.run_round(deck)
    while time.perf_counter() < deadline:
        runner.run_round(deck, deadline=deadline)
    out = runner.summary()
    out["wall_s"] = time.perf_counter() - start
    return out, runner.outcomes[WRONG]


def _traced(workload, deck, span_path):
    runner = Runner(workload)
    runs = []  # (traced busy seconds, tracer) per round
    for _ in range(TRACE_ROUNDS):
        spans = tracer.Tracer()
        runs.append((runner.run_round(deck, spans), spans))

    counter = tracer.ScalarCounter()
    counted = Runner(workload)
    counter.install()
    try:
        counted.run_round(deck)
    finally:
        counter.uninstall()

    # span times from the less disturbed round; counts are equal in both
    spans = min(runs, key=lambda r: r[0])[1]
    layers = spans.layer_metrics()
    layers["scalars.Scalar.constructions"] = \
        counter.count / len(counted.latencies)
    layers["trace.overhead_ratio"] = \
        sum(runner.best(runner.latencies)) / sum(runner.best(runner.untraced))
    spans.write(span_path)
    out = runner.summary()
    out["traced_ops"] = out["ops"]
    out["layers"] = layers
    return out, runner.outcomes[WRONG] + counted.outcomes[WRONG]


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--src", required=True)
    parser.add_argument("--spans", help="span output file (gzipped JSON lines)")
    args = parser.parse_args(argv)

    os.environ.pop("TWINREP_EPS", None)  # the default tolerance is part of the workload
    pkg = _import_package(args.src)
    workload = WORKLOADS[args.workload](args.seed, pkg)
    deck = workload.deck()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    if args.trace:
        out, wrong = _traced(workload, deck, args.spans)
    else:
        out, wrong = _timed(workload, deck, args.seconds)
    out["inputs_sha256"] = deck.digest
    out["peak_rss_mib"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["correct"] = wrong == 0
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
