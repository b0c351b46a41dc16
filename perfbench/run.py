"""The logcartier benchmark: one workload, one run.

    python3 perfbench/run.py --workload projective|blowup|axioms \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ./src.  Load
is a closed loop from one process and one thread: items run one at a time,
each started when the previous one returned.  A round is the workload's
whole item list and runs in a fresh interpreter (worker.py), so the program's
caches start cold as they do for a CLI user.  The number of rounds is fixed
by --seconds and the workload's nominal round cost (ROUND_S), at least two.

--trace 0 reports the end-to-end metrics:
  setup_s         median over the run's rounds of the time from interpreter
                  start to the first item (the logcartier import and making
                  the inputs)
  verdicts_per_s  items divided by the sum of their typical times
  verdict_p50_s   median of the items' typical times, as the Harrell-Davis
                  estimate (a Beta-weighted mean of the order statistics):
                  the middle item alone jumps between neighbours whose
                  times are far apart
  peak_rss_mb     peak resident memory of a round's process (the largest),
                  less the probe's table
Every time is normalised to the machine's speed at the moment it was taken:
multiplied by probe.NOMINAL_S over the median of the probe chunks nearest to
it (probe.py).  The machine is shared and its speed swings, for seconds to
minutes at a time: the same round took from 6.9 to 13.0 s.  The probe swings
with it, and the program's own changes cannot move it.  An item's typical time is the median of its
normalised tries over the run's rounds: what is left of the swings after
normalising errs both ways, so the median, not the fastest try, repeats.
The raw times are printed beside the result.
--trace 1 runs one untraced round, then two traced rounds, and reports the
per-layer counts and self times of the first traced round, plus the tracing
overhead against the untraced round.  The second traced round must repeat
the first's counts exactly, or the run is not correct.  Spans go to
.perfbench/trace/, and every round's raw item, probe and set-up seconds to
.perfbench/rounds/<workload>-<seed>-trace<0|1>.json.

Every output is checked against the independent references in refs.py; a
wrong output or an exception counts as a failed item.  The last line of
stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
MIN_ROUNDS = 2  # an item's typical time needs at least two tries
# nominal seconds of one timed round, from a slow period on 2 vCPUs; with
# --seconds 40 they give 3, 4 and 4 rounds
ROUND_S = {"projective": 12, "blowup": 10, "axioms": 10}
TRACED_ROUNDS = 2  # the second must repeat the first's counts exactly
PROBE_WINDOW = 3  # probe chunks taken on each side of an item to gauge its speed
WORKER_TIMEOUT = 170

sys.path.insert(0, HERE)
import probe  # noqa: E402
import refs  # noqa: E402
import workloads  # noqa: E402


class BenchError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env["LOGCARTIER_JOBS"] = "1"  # one thread, whatever the caller's setting
    env["PYTHONHASHSEED"] = "0"  # so traced counts repeat exactly
    return env


def spawn(workload: str, seed: int, mode: str, scratch: str, trace_file=None):
    """Start one worker; returns (set-up seconds, round document)."""
    cmd = [
        sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
        "--mode", mode, "--scratch", scratch,
    ]
    if trace_file:
        cmd += ["--trace-file", trace_file]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=worker_env())
    watchdog = threading.Timer(WORKER_TIMEOUT, proc.kill)  # a hung worker reads as EOF
    watchdog.start()
    try:
        first = proc.stdout.readline()
        setup_s = perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if first.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"worker ({mode}) exited with code {proc.returncode}")
    lines = rest.strip().splitlines()
    if not lines:
        raise BenchError(f"worker ({mode}) wrote no result")
    return setup_s, json.loads(lines[-1])


def check_round(workload: str, items: list, doc: dict) -> list[str]:
    """Reasons, one per failed item, from the reference checks."""
    if len(doc["outputs"]) != len(items) or len(doc["times"]) != len(items):
        raise BenchError("worker returned a partial round")
    failures = []
    for item, out in zip(items, doc["outputs"]):
        reason = out.get("error") or refs.CHECKS[workload](item, out)
        if reason:
            failures.append(f"{item}: {reason}")
    return failures


def check_sample_complexes(seed: int) -> list[str]:
    """Re-check the maps of sampled slice complexes with plain elimination."""
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import logcartier as lc

    failures = []
    for label, p, cx in workloads.sample_complexes(lc, seed):
        maps = [[[int(x) for x in row] for row in mt.array.tolist()] for mt in cx.maps]
        reason = refs.complex_exactness(list(cx.dims), maps, p)
        if reason:
            failures.append(f"{label}: {reason}")
    return failures


def median_hd(xs: list[float]) -> float:
    """Harrell-Davis estimate of the median: the order statistics weighted
    by the Beta((n+1)/2, (n+1)/2) mass of their share of [0, 1]."""
    import numpy as np
    from scipy.stats import beta

    n = len(xs)
    weights = np.diff(beta.cdf(np.arange(n + 1) / n, (n + 1) / 2, (n + 1) / 2))
    return float(weights @ np.sort(xs))


def normalised(doc: dict) -> list[float]:
    """The round's item times, each scaled by NOMINAL_S over the median of
    the PROBE_WINDOW probe chunks on either side of it.  Chunk k ran just
    before item k, and the last one after the last item."""
    probes, w = doc["probes"], PROBE_WINDOW
    return [
        t * probe.NOMINAL_S / statistics.median(probes[max(0, k - w + 1): k + w + 1])
        for k, t in enumerate(doc["times"])
    ]


def normalised_setup(setup_s: float, doc: dict) -> float:
    """Set-up time scaled by the first probe chunks, the nearest to it."""
    return setup_s * probe.NOMINAL_S / statistics.median(doc["probes"][:2 * PROBE_WINDOW])


def rounds_for(workload: str, seconds: float) -> int:
    """Timed rounds in a run: set by --seconds and the workload's nominal
    round cost, never by the speed measured, so two commits get the same
    number of tries per item."""
    return max(MIN_ROUNDS, int(seconds // ROUND_S[workload]))


def run(args) -> dict:
    workload, seed = args.workload, args.seed
    items = workloads.ITEMS[workload](seed)
    base = os.path.join(os.getcwd(), ".perfbench")
    scratch = os.path.join(base, "tmp")
    os.makedirs(scratch, exist_ok=True)

    raw_setups, setups, rounds, failures = [], [], [], []  # failures: one reason per failed item
    trace_dir = os.path.join(base, "trace", workload)
    traced, timings = [], []
    if args.trace:
        shutil.rmtree(trace_dir, ignore_errors=True)
        os.makedirs(trace_dir)
        plan = ["timed"] + ["traced"] * TRACED_ROUNDS
    else:
        plan = ["timed"] * rounds_for(workload, args.seconds)
    for mode in plan:
        trace_file = os.path.join(trace_dir, f"round{len(traced)}") if mode == "traced" else None
        setup_s, doc = spawn(workload, seed, mode, scratch, trace_file)
        failures += check_round(workload, items, doc)
        (traced if mode == "traced" else rounds).append(doc)
        timings.append({"mode": mode, "setup_s": setup_s, "times": doc["times"],
                        "probes": doc["probes"]})
        if mode == "timed":
            raw_setups.append(setup_s)
            setups.append(normalised_setup(setup_s, doc))

    os.makedirs(os.path.join(base, "rounds"), exist_ok=True)
    with open(os.path.join(base, "rounds", f"{workload}-{seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(timings, fh)

    # failures that belong to the run, not to one item: they clear `correct`
    run_failures = check_sample_complexes(seed) if workload == "axioms" else []
    if args.trace:
        first = traced[0]["trace"]
        for k, d in enumerate(traced[1:], 1):
            if d["trace"]["calls"] != first["calls"] or d["trace"]["extra"] != first["extra"]:
                run_failures.append(f"traced round {k} differs from round 0 in its counts")
    for f in failures + run_failures:
        sys.stderr.write(f"FAILED {f}\n")

    if args.trace:
        from spans import layer_metrics

        metrics = layer_metrics(first)
        untraced = sum(normalised(rounds[0]))
        traced_s = statistics.median(sum(normalised(d)) for d in traced)
        metrics["trace.overhead_pct"] = (100.0 * (traced_s / untraced - 1.0), "%")
    else:
        norm = [normalised(d) for d in rounds]
        typical = [statistics.median(t[k] for t in norm) for k in range(len(items))]
        raw = [statistics.median(d["times"][k] for d in rounds) for k in range(len(items))]
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "verdicts_per_s": (len(typical) / sum(typical), "1/s"),
            "verdict_p50_s": (median_hd(typical), "s"),
            "peak_rss_mb": (max(d["rss_mb"] for d in rounds), "MB"),
        }
        q1, q2, q3 = statistics.quantiles(typical, n=4)
        round_s = ", ".join(f"{d['loop_s']:.2f}" for d in rounds)
        probe_ms = ", ".join(f"{1e3 * statistics.median(d['probes']):.2f}" for d in rounds)
        print(f"items per round: {len(items)}, round seconds (raw): {round_s}, "
              f"probe chunk ms per round: {probe_ms} (nominal {1e3 * probe.NOMINAL_S:g})")
        print(f"normalised typical item seconds q1/median/q3: {q1:.4f}/{q2:.4f}/{q3:.4f} "
              f"(middle item), {median_hd(typical):.4f} (Harrell-Davis); "
              f"raw: verdicts_per_s {len(raw) / sum(raw):.4f}, "
              f"verdict_p50_s {median_hd(raw):.4f}, "
              "set-up seconds " + " ".join(f"{t:.4f}" for t in raw_setups))
    return {
        "correct": not failures and not run_failures,
        "attempted": len(items) * (len(rounds) + len(traced)),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join("src", "logcartier", "__init__.py")):
        sys.stderr.write("error: run from the root of a logcartier checkout (no src/logcartier)\n")
        return 2
    try:
        result = run(args)
    except BenchError as e:
        sys.stderr.write(f"error: {e}\n")
        return 1
    print(f"workload {args.workload} seed {args.seed}: attempted {result['attempted']}, "
          f"failed {result['failed']}, correct {str(result['correct']).lower()}")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
