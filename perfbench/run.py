"""mintplan benchmark: one workload, timed end to end or traced layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload campaign --seed 0 --seconds 45 --trace 0

The last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. The lines above
it give the environment and the unscaled figures under the workload's own
names (see ``perfbench/README.md``), and a report with the environment
(and, when traced, every span) is written to ``.perfbench/``. The exit status is 1 when an output check
fails and 2 when the mintplan sources are missing.
"""

import time

_T0 = time.perf_counter()  # set-up time counts from here

import os

# Pinned before numpy loads: threaded BLAS burns CPU on these small
# matrices and makes timings depend on what else runs on the machine.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import bisect
import gc
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
GOLDEN = ROOT / "tests" / "golden" / "synthetic_21q.json"

#: Set-ups measured per run (this process plus fresh child processes).
SETUP_SAMPLES = 5

#: Reported timings are scaled to a machine on which the reference kernel
#: in ``workloads.py`` takes this long: a quiet 2-vCPU x86-64 VM running
#: Python 3.11 and numpy 2.4. On a shared machine, neighbours slow this
#: process for tens of seconds at a time; the kernel slows with it.
REFERENCE_S = 0.0016


def load_program():
    """Import mintplan from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "mintplan" / "__init__.py").is_file():
        print(f"error: no mintplan sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import mintplan

    if not Path(mintplan.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported mintplan from {mintplan.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(2)


def environment() -> dict:
    import numpy

    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "mintplan").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "commit": git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git repository, read from ``.git``."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def child_setup_s(args) -> float:
    """Set-up time of a fresh process on the same workload and seed."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def percentile(values, q: int) -> float:
    """The q-th percentile, as ``statistics.quantiles`` gives it."""
    return statistics.quantiles(values, n=100)[q - 1] if len(values) > 1 else values[0]


def one_pass(workload, tracer=None) -> dict:
    """Run one pass; returns its wall seconds, units, outputs and the tracer."""
    gc.collect()
    start = time.perf_counter()
    if tracer is None:
        outputs, units = workload.run_pass()
    else:
        with tracer.installed():
            outputs, units = workload.run_pass(tracer)
    return {"wall": time.perf_counter() - start, "units": units, "outputs": outputs, "tracer": tracer}


def timings(runs, scaled: bool = True) -> dict:
    """End-to-end timings of the repeated passes.

    Each unit (a campaign, a trial) and each op counts with its median
    over the passes; a pass costs the sum of its units. ``scaled`` times
    are multiplied by ``REFERENCE_S`` over the reference kernel's time
    around the unit, which cancels the machine's speed at that moment.
    """
    positions = list(zip(*(p["units"] for p in runs)))

    def median_of(reps, value) -> float:
        return statistics.median(value(u) * (REFERENCE_S / u["ref"] if scaled else 1.0) for u in reps)

    ops_ms = [
        1e3 * median_of(reps, lambda u: u["ops"][j])
        for reps in positions
        for j in range(len(reps[0]["ops"]))
    ]
    return {
        "pass_s": sum(median_of(reps, lambda u: u["wall"]) for reps in positions),
        "cpu_s": sum(median_of(reps, lambda u: u["cpu"]) for reps in positions),
        "op_p50_ms": statistics.median(ops_ms),
        "op_p90_ms": percentile(ops_ms, 90),
    }


def repeat(step, seconds: float) -> list:
    """Call ``step`` until the next call would likely end past ``seconds``;
    returns its results, at least one."""
    results, times = [], []
    start = time.perf_counter()
    while not results or time.perf_counter() - start + statistics.median(times) <= seconds:
        t0 = time.perf_counter()
        results.append(step())
        times.append(time.perf_counter() - t0)
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("campaign", "oracle"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0, help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    load_program()
    from workloads import WORKLOADS, reference_s, warm_up

    workload = WORKLOADS[args.workload](args.seed)
    warm_up(args.seed)
    setup_s = time.perf_counter() - _T0
    setup_scaled_s = setup_s * REFERENCE_S / reference_s()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_scaled_s}))
        return 0

    if args.trace:
        from tracing import Tracer

        # each traced pass follows an untraced pass over the same inputs
        pairs = repeat(lambda: (one_pass(workload), one_pass(workload, Tracer())), args.seconds)
        runs = [plain for plain, _ in pairs]
        traced = [t for _, t in pairs]
    else:
        runs = repeat(lambda: one_pass(workload), args.seconds)
        traced = []
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "environment": environment()}
    problems = check(args.workload, workload, runs + traced, report)
    figures = summarize(args.workload, workload, runs, report)

    attempted = sum(len(u["ops"]) for p in runs + traced for u in p["units"])
    failed = sum(workload.failed(p["outputs"]) for p in runs + traced)
    if args.trace:
        metrics = per_layer(args.workload, pairs, report)
    else:
        t = timings(runs)
        setups = [setup_scaled_s] + [child_setup_s(args) for _ in range(SETUP_SAMPLES - 1)]
        metrics = {
            "pass_s": (t["pass_s"], "s"),
            "cpu_s": (t["cpu_s"], "s"),
            "op_p50_ms": (t["op_p50_ms"], "ms"),
            "op_p90_ms": (t["op_p90_ms"], "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "setup_s": (statistics.median(setups), "s"),
        }
        report.update(setup_samples_s=setups,
                      units=[[[u["wall"], u["cpu"], *u["refs"]] for u in p["units"]] for p in runs])

    print(f"mintplan benchmark: workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(runs)} ops={attempted} failed={failed}")
    print("environment: " + json.dumps(report["environment"], sort_keys=True))
    for name, (value, unit) in {**figures, **metrics}.items():
        print(f"  {name:32s} {value:14.6f} {unit}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(f"checks: {'all passed' if not problems else f'{len(problems)} failed'}")

    report.update(figures={k: v for k, (v, _) in figures.items()}, metrics={k: v for k, (v, _) in metrics.items()},
                  problems=problems, attempted=attempted, failed=failed)
    OUT_DIR.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(report, indent=1) + "\n")

    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 1 if problems else 0


def check(name: str, workload, runs, report: dict) -> list[str]:
    """Every check on the outputs; also records the HiGHS yardstick."""
    import checks

    first = runs[0]["outputs"]
    digest = workload.digest(first)
    problems = [f"pass {i} differs from pass 0" for i, p in enumerate(runs) if workload.digest(p["outputs"]) != digest]
    if name == "campaign":
        problems += checks.check_campaigns(first, json.loads(GOLDEN.read_text()))
    else:
        problems += checks.check_oracle(first)
        try:
            highs_problems, highs_s = checks.highs_crosscheck(first)
        except ImportError:
            print("warning: scipy is not installed; the HiGHS cross-check was skipped", file=sys.stderr)
        else:
            problems += highs_problems
            report["highs_solve_ms"] = 1e3 * statistics.median(highs_s)
    return problems


def summarize(name: str, workload, runs, report: dict) -> dict:
    """The figures under their workload-specific names, as measured
    (not scaled), as ``(value, unit)``."""
    t = timings(runs, scaled=False)
    if name == "campaign":
        failed = workload.failed(runs[0]["outputs"])
        return {
            "campaign_s": (t["pass_s"], "s"),
            "replan_p50_ms": (t["op_p50_ms"], "ms"),
            "replan_p90_ms": (t["op_p90_ms"], "ms"),
            "extra_shift_bill": (sum(summary.model_total for *_, summary in runs[0]["outputs"]), "cost"),
            "fallback_epochs": (failed, "count"),
            "replans_per_pass": (workload.ops_per_pass, "count"),
            "failed_share": (failed / workload.ops_per_pass, "ratio"),
        }
    return {
        "oracle_trials_per_s": (workload.ops_per_pass / t["pass_s"], "1/s"),
        "trial_p50_ms": (t["op_p50_ms"], "ms"),
        "trial_p90_ms": (t["op_p90_ms"], "ms"),
        "highs_solve_ms": (report.get("highs_solve_ms", float("nan")), "ms"),
    }


def per_layer(name: str, pairs, report: dict) -> dict:
    """Per-layer metrics: medians over the traced passes, plus the
    tracing overhead against the untraced pass run just before each.
    Times are scaled like the end-to-end ones, each span by the reference
    time of the unit it ran in; the HiGHS yardstick is as measured."""
    from tracing import layer_metrics, lp_counts_by_request

    per_pass = []
    for plain, traced in pairs:
        units = traced["units"]
        starts = [u["start"] for u in units]

        def scale(start: float) -> float:
            return REFERENCE_S / units[max(bisect.bisect_right(starts, start) - 1, 0)]["ref"]

        values = layer_metrics(traced["tracer"].spans, scale)
        untraced_s = timings([plain])["pass_s"]
        values["trace.overhead_share"] = (timings([traced])["pass_s"] - untraced_s) / untraced_s
        values.update(heuristic_and_rolling(name, traced["outputs"]))
        per_pass.append(values)
    metrics = {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}
    metrics["yardstick.highs_solve_ms"] = report.get("highs_solve_ms", 0.0)

    first = pairs[0][1]["tracer"].spans
    report["lp_by_request"] = {k: {"lps": v[0], "iterations": v[1]} for k, v in lp_counts_by_request(first).items()}
    report["spans"] = {
        "fields": ["name", "start", "end", "parent", "request", "detail"],
        "passes": [traced["tracer"].spans for _, traced in pairs],
    }
    return {key: (value, UNITS[key.rsplit(".", 1)[-1]]) for key, value in metrics.items()}


def heuristic_and_rolling(name: str, outputs) -> dict:
    """Per-layer figures the simulator's own report carries."""
    if name != "campaign":
        return {"heuristics.guards_fired": 0, "heuristics.accept_ratio": 0.0,
                "rolling.fallback_epochs": 0, "rolling.extra_shift_bill": 0.0}
    events = [ev for *_, report, _ in outputs for epoch in report.heuristic_events for ev in epoch]
    accepted = sum(ev.accepted for ev in events)
    return {
        "heuristics.guards_fired": len(events),
        "heuristics.accept_ratio": accepted / len(events) if events else 0.0,
        "rolling.fallback_epochs": sum(len(report.infeasible_epochs) for *_, report, _ in outputs),
        "rolling.extra_shift_bill": sum(summary.model_total for *_, summary in outputs),
    }


UNITS = {
    "calls": "count", "iterations": "count", "nodes": "count", "lps": "count", "escalations": "count",
    "restricted_solves": "count", "guards_fired": "count", "fallback_epochs": "count",
    "self_s": "s", "refine_s": "s", "ms_per_call": "ms", "us_per_iter": "us",
    "infeasible_share": "ratio", "accept_ratio": "ratio", "overhead_share": "ratio",
    "extra_shift_bill": "cost", "highs_solve_ms": "ms",
}


if __name__ == "__main__":
    sys.exit(main())
