"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload cora-mock --seeds 1-10 [--trace 0]

Prints, per metric, the median, the quartiles (statistics.quantiles, n=4)
and the interquartile distance as a share of the median, which is how two
sets of runs are compared against the bounds in BENCHMARK.json. Run from the
root of a checkout; each run is the command BENCHMARK.json names.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="first-last, e.g. 1-10")
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args(argv)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)

    values: dict[str, list[float]] = {}
    shares = []
    for seed in seeds(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]),
                                  "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        shares.append(result["failed"] / result["attempted"])
        print(f"seed {seed}: " + " ".join(f"{k}={m['value']:.4g}"
                                          for k, m in result["metrics"].items()),
              flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    print(f"\nfailed share per run: {sorted(set(shares))}")
    print(f"{'metric':<36}{'median':>12}{'q1':>12}{'q3':>12}{'iqr/med':>9}{'bound':>7}")
    for name, vals in values.items():
        q1, _, q3 = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        share = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        print(f"{name:<36}{med:>12.5g}{q1:>12.5g}{q3:>12.5g}{share:>9.3f}"
              f"{'' if bound is None else f'{bound:>7}'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
