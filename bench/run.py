"""The stringar benchmark.  Run from the repository root:

    python3 bench/run.py --workload ladder --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): `ladder` (verified witnesses over the W/U/V
ladder), `audit` (structure audits over QQ and GF(3)), `cli-session`
(in-process CLI commands on .alg files).  One caller, one op at a time.

Times are CPU seconds corrected for the speed of the shared host at the
moment they were taken (speed.py).  With --trace 0 the last stdout line is
a JSON object with the end-to-end metrics; with --trace 1 it has the
per-layer metrics of a traced run (layers.py).  Exit status 0 means the run
finished; `correct` says whether every output matched the reference.
"""

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys

import layers
import speed
from workloads import WORKLOADS, measure

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, "bench", ".work")
REFERENCE = os.path.join(ROOT, "bench", "reference.json")
SETUP_REPEATS = 31


def load_stringar(src):
    """Import stringar afresh from the directory `src`; return (package, cli.main)."""
    if not os.path.isfile(os.path.join(src, "stringar", "__init__.py")):
        raise SystemExit(f"run.py: no stringar sources under {src}")
    if src not in sys.path:
        sys.path.insert(0, src)
    for name in [m for m in sys.modules if m == "stringar" or m.startswith("stringar.")]:
        del sys.modules[name]
    sa = importlib.import_module("stringar")
    if not os.path.abspath(sa.__file__).startswith(src + os.sep):
        raise SystemExit(f"run.py: imported stringar from {sa.__file__}, not {src}")
    return sa, importlib.import_module("stringar.cli").main


def setup(workload, seed, ref, probe):
    """Import stringar and build the ops, several times; median seconds."""
    times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()  # free the previous set-up's modules before the next
        t0 = probe.now()
        sa, cli_main = load_stringar(SRC)
        ops = workload.build(sa, cli_main, seed, WORKDIR, ref)
        times.append(probe.now() - t0)
    return sa, cli_main, ops, statistics.median(times)


def end_to_end(times, setup_s):
    """Metrics of one pass, each op at its median over the run's repeats."""
    med = [statistics.median(t) for t in times]
    p95 = statistics.quantiles(med, n=20, method="inclusive")[18]
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (sum(med), "s"),
        "max_op_s": (max(med), "s"),
        "op_p50_ms": (statistics.median(med) * 1000, "ms"),
        "op_p95_ms": (p95 * 1000, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description="stringar benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    with open(REFERENCE, encoding="utf-8") as fh:
        ref = json.load(fh)
    workload = WORKLOADS[args.workload]
    with speed.Probe() as probe:
        sa, cli_main, ops, setup_s = setup(workload, args.seed, ref, probe)
        if args.trace:
            attempted, failures, metrics = layers.traced_run(
                workload, sa, cli_main, ops, ref, WORKDIR, probe
            )
        else:
            times, failures = measure(ops, args.seconds, probe)
            attempted = sum(len(t) for t in times)
            metrics = end_to_end(times, setup_s)
            sys.stderr.write(f"{args.workload}: {len(ops)} ops, {attempted} timed calls\n")
            for op, t in sorted(zip(ops, times), key=lambda ot: statistics.median(ot[1])):
                sys.stderr.write(f"  {statistics.median(t):9.4f} s  x{len(t):<4} {op.name}\n")
    for msg in failures[:20]:
        sys.stderr.write(f"FAILED {msg}\n")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
