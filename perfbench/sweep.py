"""Run the benchmark over several seeds and summarise each end-to-end metric.

    python3 perfbench/sweep.py --seeds 1-10 [--workloads figures,certify]
                               [--seconds 20] [--out perfbench/baseline.json]

For every workload, one untraced run per seed, one after another; prints
each run's metrics and, per metric, the median and the spread (first to
third quartile over the median, as ``statistics.quantiles(n=4)`` gives
them) against the metric's bound from BENCHMARK.json.  ``--out`` writes the
summary with every run's values and environment, as used for
``baseline.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    env = json.loads(next(line[4:] for line in proc.stdout.splitlines()
                          if line.startswith("env ")))
    return result, env


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    summary = {"seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            result, env = run_once(workload, seed, args.seconds)
            values = {k: v["value"] for k, v in result["metrics"].items()}
            runs.append({"seed": seed, "correct": result["correct"],
                         "failed": result["failed"], "attempted": result["attempted"],
                         "metrics": values, "env": env})
            ok &= result["correct"]
            print(workload, seed, result["correct"],
                  " ".join(f"{k}={v:.5g}" for k, v in values.items()), flush=True)
        stats = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            stats[name] = {"median": median, "spread": (q3 - q1) / median, "bound": bound}
            print(f"  {workload} {name}: median {median:.5g}, spread "
                  f"{(q3 - q1) / median:.4f} (bound {bound})", flush=True)
        summary["workloads"][workload] = {"metrics": stats, "runs": runs}
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
