"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload design_paper --seeds 1 2 3 4 5

Runs `perfbench/run.py --trace 0` once per seed, one run at a time, and
prints each metric's median and (Q3 - Q1) / median next to a third of
the metric's bound in BENCHMARK.json, the steadiness target.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from benchstats import quartile_spread

HERE = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 180


def main(argv=None):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = p.parse_args(argv)
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=RUN_TIMEOUT_S, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} " + " ".join(
                  f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
        for name, metric in result["metrics"].items():
            values[name].append(metric["value"])
    if len(args.seeds) < 2:
        return 0
    for m in spec["end_to_end"]:
        vals = values[m["name"]]
        spread = quartile_spread(vals)
        flag = "ok" if spread < m["bound"] / 3 else "WIDE"
        print(f"{m['name']:>16}: median {statistics.median(vals):.5g} {m['unit']}, "
              f"spread {spread:.4f} (target < {m['bound'] / 3:.4f}) {flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
