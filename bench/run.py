"""twinrep benchmark: one command for end-to-end and per-layer metrics.

    python3 bench/run.py --workload {sweep,locus,crosscheck} --seed N \
        --seconds S --trace {0,1}

Run from the repository root; the package is imported from ./src and nothing
needs installing.  --trace 0 prints the end-to-end metrics, --trace 1 the
per-layer metrics; BENCHMARK.json names both sets.  Human-readable lines come
first, then a line with the run's metadata, and last one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Each run's record is also written to .bench_out/, with the span file of a
traced run beside it.  See bench/DESIGN.md for what each workload and metric
is for.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("sweep", "locus", "crosscheck")

# Set-up is timed in this many fresh interpreters per untraced run, half
# before the measured one and half after it, and the median is reported.
SETUP_SAMPLES_AROUND = 8
# Every child must be done well inside the 180 s a run may take.
CHILD_TIMEOUT_S = 170.0


class BenchError(RuntimeError):
    pass


def _spawn(args):
    return subprocess.Popen(
        [sys.executable, "-E", "-s", WORKER, "--src", SRC] + args,
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def _finish(proc, deadline):
    """Wait for the child and return (stdout rest, stderr); kill it on
    timeout."""
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker timed out")
    if proc.returncode != 0:
        raise BenchError("worker exited with %d:\n%s" % (proc.returncode, err))
    return out, err


def _start_and_time(args, deadline):
    """Start a worker and time it from spawn to its "ready" line."""
    t0 = time.perf_counter()
    proc = _spawn(args)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        out, err = _finish(proc, deadline)
        raise BenchError("worker failed during set-up:\n%s%s" % (out, err))
    return proc, setup


def _git_rev():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              capture_output=True, timeout=10,
                              check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def _src_lines():
    total = 0
    for dirpath, _dirs, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


def _metadata(args, child):
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "platform": platform.platform(), "nproc": os.cpu_count(),
        "git_rev": _git_rev(), "src_lines": _src_lines(),
        "inputs_sha256": child["inputs_sha256"], "ops": child["ops"],
        "rounds": child["rounds"],
    }


def _end_to_end(child, setups):
    ops = child["ops"]
    return {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "ops_per_s": (ops / child["best_busy_s"], "1/s", ops),
        "latency_p50_ms": (child["p50_s"] * 1e3, "ms", ops),
        "latency_p90_ms": (child["p90_s"] * 1e3, "ms", ops),
        "success_share": (1.0 - child["ops_failed"] / ops, "ratio", ops),
        "peak_rss_mib": (child["peak_rss_mib"], "MiB", 1),
    }


def _per_layer(child, spec):
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    layers = child["layers"]
    if set(layers) != set(units):
        raise BenchError("per-layer metrics differ from BENCHMARK.json: %s"
                         % sorted(set(layers) ^ set(units)))
    return {name: (layers[name], units[name], child["traced_ops"])
            for name in units}


def run(args):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if not os.path.isfile(os.path.join(SRC, "twinrep", "__init__.py")):
        raise BenchError("no twinrep package under %s" % SRC)
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    base = ["--workload", args.workload, "--seed", str(args.seed)]

    def time_setups():
        for _ in range(0 if args.trace else SETUP_SAMPLES_AROUND):
            proc, setup = _start_and_time(base + ["--setup-only"], deadline)
            _finish(proc, deadline)
            setups.append(setup)

    setups = []
    time_setups()
    extra = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        extra += ["--spans", os.path.join(OUT_DIR, "spans-%s.jsonl.gz" % tag)]
    proc, setup = _start_and_time(base + extra, deadline)
    setups.append(setup)
    out, _err = _finish(proc, deadline)
    child = json.loads(out.strip().splitlines()[-1])
    time_setups()

    if args.trace:
        metrics = _per_layer(child, spec)
    else:
        metrics = _end_to_end(child, setups)
        wanted = {m["name"] for m in spec["end_to_end"]}
        if set(metrics) != wanted:
            raise BenchError("end-to-end metrics differ from BENCHMARK.json")
    meta = _metadata(args, child)

    print("workload %s  seed %d  ops %d (failed %d)  rounds %d  executions %d "
          "(failed %d)  outcomes %s"
          % (args.workload, args.seed, child["ops"], child["ops_failed"],
             child["rounds"], child["executions"], child["executions_failed"],
             json.dumps(child["outcomes"], sort_keys=True)))
    for message, count in child["error_samples"].items():
        print("  error x%d: %s" % (count, message))
    for name, (value, unit, samples) in metrics.items():
        print("%-48s %14.6g %-8s n=%d" % (name, value, unit, samples))
    if "probe_median_s" in child:
        print("unscaled: ops_per_s %.6g  latency_p50_ms %.6g  latency_p90_ms "
              "%.6g  (speed probe median %.1f us, n=%d)"
              % (child["ops"] / child["raw_best_busy_s"],
                 child["raw_p50_s"] * 1e3, child["raw_p90_s"] * 1e3,
                 child["probe_median_s"] * 1e6, child["probe_samples"]))
    record = {"meta": meta, "child": child,
              "metrics": {k: {"value": v, "unit": u, "samples": n}
                          for k, (v, u, n) in metrics.items()}}
    with open(os.path.join(OUT_DIR, tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps({
        "correct": bool(child["correct"]),
        "attempted": child["ops"],
        "failed": child["ops_failed"],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u, _n) in metrics.items()},
    }))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        run(args)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print("benchmark failed: %s" % exc, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
