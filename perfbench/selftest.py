"""Self-test of the benchmark at tiny sizes (about a minute).

    python3 perfbench/selftest.py

Checks that every workload, untraced and traced, prints as its last line
the result object with exactly the metric names and units BENCHMARK.json
lists, with correct outputs and no failures; that the traced closed_form
run makes no _kernels call; and, as negative controls, that a verify run
with a perturbed embedding and a corrupted CSV are both counted as failed.
Exits 0 when all hold.
"""

import json
import subprocess
import sys
from pathlib import Path

import run
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_tiny(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0.1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_result(workload, trace, result):
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        problems.append(f"run not clean: {result['correct']}, "
                        f"{result['failed']} of {result['attempted']} failed")
    spec = SPEC["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in spec}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        problems.append(f"metric names/units differ: {sorted(set(got) ^ set(want))}")
    for name, value in result["metrics"].items():
        if set(value) != {"value", "unit"} or not isinstance(value["value"], float):
            problems.append(f"{name} is not a {{value, unit}} pair")
        elif not trace and not value["value"] > 0.0:
            problems.append(f"end-to-end metric {name} reads {value['value']}")
    if trace and workload == "closed_form":
        calls = (result["metrics"]["kernels.theta.calls"]["value"]
                 + result["metrics"]["kernels.arc.calls"]["value"])
        if calls != 0.0:
            problems.append(f"closed_form made {calls} _kernels calls")
    return [f"{workload} trace {trace}: {p}" for p in problems]


def negative_controls(sg):
    problems = []
    rng = run.np.random.default_rng(7)
    embed, _ = workloads.build_figures(sg, rng, run.OUT, tiny=True)
    perturbed = workloads.cli_op(
        "verify", ["verify", "--perturb-scale", "1.01"],
        lambda sg, text: workloads.check_verify_report(text))
    _, results = run.run_pass(sg, [embed, perturbed], run.ReferenceSampler())
    text = results[0]["output"]
    passes = [{"results": run.check_pass(sg, results)}]
    attempted, failed = run.failures(passes)
    if [r["op"].kind for r in failed] != ["verify"] or attempted != 2:
        problems.append(f"perturbed verify: {len(failed)} of {attempted} ops failed, "
                        "expected the verify op alone")

    lines = text.splitlines()
    row = lines[5].split(",")
    theta_col = lines[0].split(",").index("theta")
    row[theta_col] = "%.17g" % (float(row[theta_col]) * (1.0 + 1e-6))
    lines[5] = ",".join(row)
    if not embed.check(sg, "\n".join(lines) + "\n"):
        problems.append("a CSV with one theta off by 1e-6 passed the output check")
    return problems


def main():
    problems = []
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            problems += check_result(workload, trace, run_tiny(workload, trace))
    run.OUT.mkdir(exist_ok=True)
    problems += negative_controls(run.import_package())
    for p in problems:
        print("FAIL", p)
    print("selftest:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
