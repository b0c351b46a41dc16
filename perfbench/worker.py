"""One round of a workload in a fresh interpreter (started by run.py).

    python3 perfbench/worker.py --workload W --seed N --mode timed|traced

The worker imports logcartier from the checkout's src/, makes the round's
inputs from the seed and then writes "ready" on its protocol stream; the
parent's clock from process start to that line is the set-up time.  Then
it runs the items one at a time, each started when the previous one
returned, with one probe chunk (probe.py) before every item and one after
the last, and writes one JSON line: per-item seconds, probe seconds,
per-item outputs (for the parent's reference checks), peak RSS less the
probe's table, and in mode `traced` the layer counts and self times.  The
program's own stdout goes to stderr so that it cannot mix with the protocol.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def resident_mb() -> float:
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("timed", "traced"), required=True)
    ap.add_argument("--scratch", required=True)
    ap.add_argument("--trace-file", default=None)
    args = ap.parse_args()

    proto = os.fdopen(os.dup(1), "w", encoding="utf-8")
    os.dup2(2, 1)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import logcartier as lc
    import logcartier.cli  # noqa: F401  (the axioms entry point)

    if not os.path.abspath(lc.__file__).startswith(os.path.join(ROOT, "src", "")):
        sys.stderr.write(f"logcartier imported from {lc.__file__}, not {ROOT}/src\n")
        return 2

    import workloads

    items = workloads.ITEMS[args.workload](args.seed)
    proto.write("ready\n")
    proto.flush()

    tracer = None
    if args.mode == "traced":
        from spans import Tracer

        tracer = Tracer()
        tracer.install("logcartier")

    import probe

    rss_before = resident_mb()
    probe.make_table()
    probe_mb = resident_mb() - rss_before  # left out of the peak reported
    probe.chunk()  # warm-up, not kept
    scratch = os.path.join(args.scratch, f"out-{os.getpid()}.json")
    times, probes, outputs = [], [], []
    loop_start = perf_counter()
    for item in items:
        probes.append(probe.chunk())
        t0 = perf_counter()
        try:
            result = workloads.run_item(lc, args.workload, item, scratch)
        except Exception:  # noqa: BLE001 - a failing item is reported, not fatal
            times.append(perf_counter() - t0)
            outputs.append({"error": traceback.format_exc(limit=3)})
            continue
        times.append(perf_counter() - t0)
        # plain data for the parent's checks, made between items, untimed
        outputs.append(workloads.summarize(args.workload, result, scratch))
    probes.append(probe.chunk())
    loop_s = perf_counter() - loop_start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0 - probe_mb

    doc = {"times": times, "probes": probes, "loop_s": loop_s, "rss_mb": rss_mb, "outputs": outputs}
    if tracer is not None:
        doc["trace"] = tracer.snapshot()
        if args.trace_file:
            tracer.write(args.trace_file)
    proto.write(json.dumps(doc) + "\n")
    proto.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
