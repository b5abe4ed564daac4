"""Benchmark of sigembed: one seeded workload, run as a closed loop.

    python3 perfbench/run.py --workload figures --seed 1 --seconds 20 --trace 0

One client in this process runs the workload's operations back to back
(each starts when the previous one returns) for ``--seconds``, pass after
pass, and checks every output after its pass, outside the timed region.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json:
``setup_s`` (fresh interpreter to ``sigembed.cli`` imported and its parser
built, median of several spawns), ``pass_s`` (run time over passes) and
``peak_rss_mb``.  ``--trace 1`` spends half the time untraced and half with
the span tracer of ``spans.py`` installed, and reports the per-layer
metrics, the per-command times, the tracing overhead and the workload
design check.  Both print every figure by name and unit, the environment,
and as the last line one machine-readable JSON object; a fuller record goes
to ``perfbench/out/``.  ``--tiny`` shrinks every input for the self-test.

Host speed.  The shared host this was built on runs the same code up to
2.7x slower for seconds to minutes at a time, and every program slows
alike.  Each run therefore times a fixed reference loop
(``reference_sample``) interleaved with its work: every REF_PERIOD_S during
passes, from a timer signal (its time is taken out of the pass, op and span
times), and around each set-up spawn.  It scales its times to a nominal
host speed, time * REF_NOMINAL_S / mean reference time.  The unscaled times
are printed as ``raw.*`` and kept in the result file; the factor is printed
as ``host_speed``.
"""

import argparse
import gc
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

SETUP_REPEATS = 11
REF_ITERATIONS = 2_500
# Wall time of one reference sample at the nominal host speed that every
# end-to-end time is scaled to (about this host's faster level, 2 vCPUs).
REF_NOMINAL_S = 0.025
REF_PERIOD_S = 0.25  # one reference sample per period during passes
REF_SETUP_S = 0.05   # reference sampling before and after each set-up spawn
SETUP_CODE = "import sigembed, sigembed.cli; sigembed.cli.build_parser()"
COMMANDS = ("embed", "misner", "verify")
# pass_s is reported as the mean pass (the reciprocal of throughput): the
# host's speed flips between levels within seconds, and the mean of a run
# averages the flips where a median jumps between levels.
REPORTED_STAT = {"pass_s": "mean"}
# Percentiles reported above the median, highest first; one is shown only
# when at least ten samples lie beyond it.
PERCENTILES = (99.9, 99.0, 90.0)


def import_package():
    """The sigembed package from this checkout's src/, never an installed one."""
    if not (SRC / "sigembed" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no sigembed sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import sigembed
    import sigembed.cli  # noqa: F401  (binds sigembed.cli and sigembed.verify)
    return sigembed


def timing(values):
    """Median, the highest percentile with >= 10 samples beyond it, mean and n."""
    n = len(values)
    out = {"median": statistics.median(values), "n": n,
           "mean": statistics.fmean(values)}
    for p in PERCENTILES:
        if n * (1.0 - p / 100.0) >= 10.0:
            out[f"p{p:g}"] = float(np.percentile(values, p))
            break
    return out


def _blas_name():
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        return "unknown"


def _git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def environment(sg):
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_name(),
        "num_threads_env": {k: v for k, v in sorted(os.environ.items())
                            if k.endswith("_NUM_THREADS")},
        "numba_enabled": bool(sg._kernels.NUMBA_ENABLED),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": _git_sha(),
        "loadavg_start": list(os.getloadavg()),
    }


def measure_setup(repeats):
    """Wall times of a fresh interpreter importing the package and building
    the CLI parser, each bracketed by reference samples; the first spawn
    warms the file cache and is dropped.  Returns (spawn times, mean
    reference time around each spawn)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times, ref = [], []
    for _ in range(repeats + 1):
        before = reference_for(REF_SETUP_S)
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                       check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
        ref.append(statistics.fmean(before + reference_for(REF_SETUP_S)))
    return times[1:], ref[1:]


def run_pass(sg, ops, sampler, tracer=None):
    """Run every op once, back to back.  Returns (seconds, per-op results),
    timed on the sampler's clock; nothing is checked inside the timed
    region."""
    gc.collect()
    clock = sampler.clock
    results = []
    start = clock()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = i
        t0 = clock()
        try:
            code, output = op.run(sg)
            error = None
        except (Exception, SystemExit) as exc:  # an op that raises is a failed op
            code, output, error = None, None, f"{type(exc).__name__}: {exc}"
        results.append({"op": op, "code": code, "output": output, "error": error,
                        "seconds": clock() - t0})
    return clock() - start, results


def check_pass(sg, results):
    """Mark each op result ok or failed; add CSV hashes and row counts."""
    for r in results:
        op = r["op"]
        problems = []
        if r["error"] is not None:
            problems.append(r["error"])
        elif r["code"] != 0:
            problems.append(f"exit code {r['code']}")
        if not problems:
            try:
                problems = op.check(sg, r["output"])
            except (ValueError, KeyError, IndexError) as exc:
                problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
        r["problems"] = problems
        if isinstance(r["output"], str):
            r["bytes_out"] = len(r["output"].encode("utf-8"))
            if op.csv:
                r["sha256"] = workloads.sha256(r["output"])
                r["rows_out"] = r["output"].count("\n") - 1
            elif op.kind == "verify":
                try:
                    r["checks_failed"] = workloads.verify_checks_failed(r["output"])
                except ValueError:  # no report to count; already a failed op
                    pass
        r["output"] = None
    return results


def reference_sample():
    """Wall time of a fixed loop that never calls the package: small numpy
    arrays driven from Python, the same kind of work as the package's inner
    loops, so it slows with the host as they do."""
    x = np.linspace(0.1, 0.9, 15)
    w = np.ones(15)
    acc = 0.0
    start = time.perf_counter()
    for _ in range(REF_ITERATIONS):
        acc += float((2.0 * x * np.sqrt(np.abs(4.0 / (1.4 - x * x) ** 4 - 1.0))) @ w)
    return time.perf_counter() - start


def reference_for(seconds):
    samples = []
    deadline = time.perf_counter() + seconds
    while not samples or time.perf_counter() < deadline:
        samples.append(reference_sample())
    return samples


class ReferenceSampler:
    """Reference samples taken from a SIGALRM handler every REF_PERIOD_S of
    wall time, so that they interleave with whatever a pass runs, a single
    45-second command included.  ``clock`` is perf_counter net of the time
    spent in the handler; passes, ops and spans are timed on it."""

    def __init__(self):
        self.samples = []
        self.paused = 0.0

    def clock(self):
        return time.perf_counter() - self.paused

    def _sample(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(reference_sample())
        self.paused += time.perf_counter() - start

    @contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, REF_PERIOD_S, REF_PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)


def run_for(sg, ops, seconds, sampler, tracer=None):
    """Passes under the sampler until the next one would overrun ``seconds``
    (at least one)."""
    passes = []
    deadline = time.perf_counter() + seconds
    while True:
        begin = time.perf_counter()
        with sampler.running(), (tracer.installed() if tracer else nullcontext()):
            wall, results = run_pass(sg, ops, sampler, tracer)
        elapsed = time.perf_counter() - begin
        passes.append({"wall": wall, "elapsed": elapsed,
                       "results": check_pass(sg, results)})
        typical = statistics.median(p["elapsed"] for p in passes)
        if time.perf_counter() + typical > deadline:
            if not sampler.samples:  # passes shorter than one period
                sampler.samples.append(reference_sample())
            return passes


def command_seconds(passes, kind):
    """Per pass, the summed wall time of the ops of one command kind."""
    return [sum(r["seconds"] for r in p["results"] if r["op"].kind == kind)
            for p in passes]


def failures(passes):
    attempted = sum(len(p["results"]) for p in passes)
    failed = [r for p in passes for r in p["results"] if r["problems"]]
    return attempted, failed


def per_layer(plain, traced, tracer, speed, speed_traced, spec, unit):
    """Per-layer metrics (medians over traced passes, times scaled to the
    nominal host speed) plus the per-command times, the tracing overhead and
    the design share, as BENCHMARK.json lists them."""
    layer_rows = tracer.per_pass_metrics()
    med = {}
    for key in layer_rows[0]:
        scale = speed_traced if unit.get(key) in ("s", "ms", "us") else 1.0
        med[key] = statistics.median(row[key] for row in layer_rows) / scale
    traced_walls = [p["wall"] for p in traced]
    med["design.kernels_share"] = statistics.median(
        row["kernels_busy_s"] / wall for row, wall in zip(layer_rows, traced_walls))
    med["trace.overhead_frac"] = (
        statistics.fmean(traced_walls) / speed_traced
        / (statistics.fmean(p["wall"] for p in plain) / speed) - 1.0)
    for kind in COMMANDS:
        med[f"cmd.{kind}_s"] = statistics.median(
            s / speed for s in command_seconds(plain, kind))
    results = [r for p in traced for r in p["results"]]
    med["cli.rows_out"] = sum(r.get("rows_out", 0) for r in results) / len(traced)
    med["cli.bytes_out"] = sum(r.get("bytes_out", 0) for r in results) / len(traced)
    med["verify.checks_failed"] = max(
        sum(r.get("checks_failed", 0) for r in p["results"]) for p in traced)
    attempted, failed = failures(plain + traced)
    med["ops.failed_frac"] = len(failed) / attempted
    return {m["name"]: med[m["name"]] for m in spec["per_layer"]}, layer_rows


def units(spec):
    extra = {"failed_frac": "ratio", "spans_written": "count", "host_speed": "ratio",
             "raw.setup_s": "s", "raw.pass_s": "s"}
    extra.update((f"{kind}_s", "s") for kind in COMMANDS)
    return dict(extra, **{m["name"]: m["unit"]
                          for m in spec["end_to_end"] + spec["per_layer"]})


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every input (self-test only)")
    args = parser.parse_args(argv)

    sg = import_package()
    spec = json.loads(BENCHMARK_JSON.read_text())
    unit = units(spec)
    OUT.mkdir(exist_ok=True)
    env = environment(sg)
    workload = workloads.WORKLOADS[args.workload]
    rng = np.random.default_rng(args.seed)
    ops = workload.build(sg, rng, OUT, args.tiny)
    setup, setup_ref = measure_setup(2 if args.tiny else SETUP_REPEATS)
    if workload.warm_up and not args.tiny:
        tiny_ops = workload.build(sg, np.random.default_rng(args.seed), OUT, True)
        check_pass(sg, run_pass(sg, tiny_ops, ReferenceSampler())[1])

    phase_seconds = args.seconds / 2.0 if args.trace else args.seconds
    sampler = ReferenceSampler()
    plain = run_for(sg, ops, phase_seconds, sampler)
    ref_plain, ref_traced, traced, tracer = sampler.samples, [], [], None
    if args.trace:
        sampler = ReferenceSampler()
        tracer = spans.Tracer(sg, sampler.clock)
        traced = run_for(sg, ops, phase_seconds, sampler, tracer)
        ref_traced = sampler.samples
    env["loadavg_end"] = list(os.getloadavg())
    attempted, failed = failures(plain + traced)

    # host speed factors (> 1: slower than nominal): per set-up spawn, and
    # over the untraced passes
    speed = statistics.fmean(ref_plain) / REF_NOMINAL_S
    walls = [p["wall"] for p in plain]
    figures = {
        "setup_s": timing([t * REF_NOMINAL_S / r for t, r in zip(setup, setup_ref)]),
        "pass_s": timing([w / speed for w in walls]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed_frac": len(failed) / attempted,
        "host_speed": speed,
        "raw.setup_s": timing(setup),
        "raw.pass_s": timing(walls),
    }
    for kind in COMMANDS:
        secs = command_seconds(plain, kind)
        if any(secs):
            figures[f"{kind}_s"] = timing([t / speed for t in secs])
    problems = [f"{r['op'].kind}: {r['problems'][0]}" for r in failed]
    if args.trace:
        layer, layer_rows = per_layer(plain, traced, tracer, speed,
                                      statistics.fmean(ref_traced) / REF_NOMINAL_S, spec, unit)
        figures.update(layer)
        kernel_spans = sum(row["kernel_spans"] for row in layer_rows)
        if args.workload == "closed_form" and kernel_spans:
            problems.append(f"design: closed_form made {kernel_spans} _kernels calls")
        figures["spans_written"] = tracer.write(OUT / f"spans-{args.workload}.npz")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(plain)} untraced and {len(traced)} traced passes, "
          f"{attempted} ops, {len(failed)} failed")
    for name, value in figures.items():
        if isinstance(value, dict):
            extra = ", ".join(f"{k} {v:.6g}" for k, v in value.items()
                              if k not in ("median", "n"))
            print(f"  {name} = {value['median']:.6g} {unit[name]} "
                  f"(median of {value['n']}{', ' + extra if extra else ''})")
        else:
            print(f"  {name} = {value:.6g} {unit[name]}")
    hashes = sorted({(r["op"].kind, r["sha256"]) for p in plain + traced
                     for r in p["results"] if "sha256" in r})
    for kind, digest in hashes:
        print(f"  sha256 {kind} {digest}")
    for problem in problems[:10]:
        print(f"  FAILED {problem}", file=sys.stderr)
    print("env " + json.dumps(env, sort_keys=True))

    metrics = {}
    for name in (m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]):
        value = figures[name]
        if isinstance(value, dict):
            value = value[REPORTED_STAT.get(name, "median")]
        metrics[name] = {"value": float(value), "unit": unit[name]}
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "tiny": args.tiny, "env": env, "figures": figures,
              "sha256": [list(h) for h in hashes], "problems": problems,
              "reference_s": {"setup": setup_ref, "passes": ref_plain, "traced": ref_traced}}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
