"""Run-to-run spread of the end-to-end metrics.  From the repository root:

    python3 bench/spread.py --workload ladder --seeds 1-10 [--seconds N]

Runs bench/run.py once per seed, one run at a time, and prints for each
end-to-end metric its median and the distance between the first and third
quartiles as a share of the median, next to a third of the metric's bound
from BENCHMARK.json (the steadiness target).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--seconds", type=int, default=None)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = args.seconds or spec["run_seconds"]
    values = {}
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True, timeout=180,
        )
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            sys.stderr.write(out.stderr)
        print(json.dumps({"seed": seed, **{k: v["value"] for k, v in result["metrics"].items()}}))
        for k, v in result["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    for m in spec["end_to_end"]:
        vals = values[m["name"]]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        print(f"{args.workload:12} {m['name']:12} median {med:12.4f} {m['unit']:3}"
              f" spread {(q3 - q1) / med:6.3f}  target < {m['bound'] / 3:.3f}")


if __name__ == "__main__":
    main()
