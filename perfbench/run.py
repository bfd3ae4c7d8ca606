"""Benchmark of the sidelab CLI over four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  NAME is ensemble, cps-trace, certify,
converge, or `all` for each in turn.  The workload's configs are generated
from the seed.  With trace 0, one run process times repeated passes of
`cli.main` over the configs for S seconds, after one warm-up pass, and task_s
is the median pass; eight fresh processes, four before the run process and
four after it, time `import sidelab` plus `load_config`, and setup_s is their
median.  Both are taken at nominal host speed: each time is divided by the
host's slowdown, which a probe timed next to it measures (hostspeed.py).
With trace 1 the run process times untraced passes for S/2 seconds, then
wraps each layer's public functions in spans and runs traced passes for
another S/2 seconds.  Outputs of the last pass are checked against
independent oracles.  BLAS is pinned to one thread everywhere.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with trace 0, the
per-layer metrics with trace 1.
"""

from __future__ import annotations

import os

# before numpy is first imported, here and in every child process
BLAS_THREADS = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import hostspeed  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 8


def declared_units() -> tuple[dict, dict]:
    """Units of the end-to-end and per-layer metrics that BENCHMARK.json declares."""
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def _env(root: Path) -> dict:
    path = [str(root / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path), **BLAS_THREADS)


def _child(args: list[str], root: Path, timeout: float) -> str:
    done = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=root, env=_env(root), stdout=subprocess.PIPE, timeout=timeout, check=True, text=True,
    )
    return done.stdout


def src_sloc(root: Path) -> int:
    """Non-blank lines of Python under src/."""
    return sum(
        sum(1 for line in path.read_text().splitlines() if line.strip())
        for path in sorted((root / "src").rglob("*.py"))
    )


def environment() -> dict:
    return {
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, root: Path, workdir: Path) -> dict:
    """One benchmark run of one workload; returns its result record."""
    wl = workloads.build(name, seed, workdir)
    configs = [str(op.config) for op in wl.ops]

    def time_setup(repeats: int) -> list[dict]:
        return [] if trace else [json.loads(_child(["setup", *configs], root, 60)) for _ in range(repeats)]

    spec = {"configs": configs, "seconds": seconds, "trace": trace,
            "result": str(workdir / "result.json"), "spans": str(workdir / "spans.json")}
    (workdir / "spec.json").write_text(json.dumps(spec))
    # set-up is timed before and after the timed run, so the median spans
    # two moments of the host's drifting speed rather than one
    setup = time_setup(SETUP_REPEATS // 2)
    _child(["run", str(workdir / "spec.json")], root, 150)
    setup += time_setup(SETUP_REPEATS - SETUP_REPEATS // 2)
    run = json.loads(Path(spec["result"]).read_text())

    errors, rel_errs, beyond_half_tol = [], [], 0
    for op in wl.ops:
        op_errors, figures = workloads.check_outputs(name, op)
        errors += op_errors
        if "stepsize_rel_err" in figures:
            rel_errs.append(figures["stepsize_rel_err"])
            beyond_half_tol += figures["beyond_half_tol"]
    broken = {e.split(":", 1)[0] for e in errors}
    failed = 0
    for pass_codes in run["codes"]:
        for op, code in zip(wl.ops, pass_codes):
            if code != op.expect_exit:
                errors.append(f"{op.name}: exit code {code}, expected {op.expect_exit}")
            failed += code != op.expect_exit or op.name in broken
    attempted = len(run["codes"]) * len(wl.ops)

    # Times are taken at nominal host speed (see hostspeed.py); task_s is the
    # median pass of the run, setup_s the median of the set-up processes.
    untraced = run["untraced"]
    task_s = statistics.median(hostspeed.calibrated(untraced["pass_s"], untraced["probes"]))
    setup_s = [s["setup_s"] / statistics.mean(hostspeed.slowdown(p) for p in s["probes"]) for s in setup]
    record = {
        "errors": sorted(set(errors)),
        "attempted": attempted,
        "failed": failed,
        "pass_s": untraced["pass_s"],
        "slowdown": [hostspeed.slowdown(p) for p in untraced["probes"]],
        "raw_setup_s": [s["setup_s"] for s in setup],
        "threads": run["threads"],
        "work": f"{wl.work:g} {wl.work_unit} per pass",
        "fail_ratio": failed / attempted,
    }
    if rel_errs:
        record["stepsize_rel_err"] = max(rel_errs)
        record["beyond_half_tol"] = beyond_half_tol
    if trace:
        traced = json.loads(Path(spec["spans"]).read_text())
        metrics = spans.layer_metrics([tuple(s) for s in traced["spans"]], traced["counts"], traced["passes"])
        traced_s = statistics.median(hostspeed.calibrated(run["traced"]["pass_s"], run["traced"]["probes"]))
        metrics["trace.overhead_ratio"] = traced_s / task_s
        metrics["repo.src_sloc"] = src_sloc(root)
        metrics["stability.stepsize_rel_err"] = record.get("stepsize_rel_err", 0.0)
        metrics["stability.beyond_half_tol"] = record.get("beyond_half_tol", 0)
    else:
        metrics = {
            "setup_s": statistics.median(setup_s),
            "task_s": task_s,
            "work_per_s": wl.work / task_s,
            "peak_rss_mb": run["maxrss_kb"] / 1024.0,
        }
    units = declared_units()[1 if trace else 0]
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    record["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "sidelab" / "__init__.py").is_file():
        print("perfbench: run from the root of a sidelab checkout (no src/sidelab here)", file=sys.stderr)
        return 2

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    with tempfile.TemporaryDirectory(prefix=".bench_work-", dir=root) as scratch:
        records = {
            name: run_workload(name, args.seed, args.seconds, bool(args.trace), root, Path(scratch) / name)
            for name in names
        }

    print("environment: " + json.dumps(environment()))
    for name, rec in records.items():
        q1, q2, q3 = statistics.quantiles(rec["pass_s"], n=4)
        print(f"[{name}] {rec['work']}, run-process threads {rec['threads']}")
        print(f"  untraced pass wall seconds: n={len(rec['pass_s'])} min {min(rec['pass_s']):.4g} "
              f"q1 {q1:.4g} median {q2:.4g} q3 {q3:.4g} max {max(rec['pass_s']):.4g}")
        print(f"  host slowdown (probe time over nominal): median {statistics.median(rec['slowdown']):.4g}")
        if rec["raw_setup_s"]:
            print(f"  set-up wall seconds: median {statistics.median(rec['raw_setup_s']):.4g}")
        for key, metric in rec["metrics"].items():
            print(f"  {key:<52} {metric['value']:<14.6g} {metric['unit']}")
        print(f"  {'fail_ratio':<52} {rec['fail_ratio']:<14.6g} ratio ({rec['failed']}/{rec['attempted']})")
        if "stepsize_rel_err" in rec:
            print(f"  {'stepsize_rel_err':<52} {rec['stepsize_rel_err']:<14.6g} ratio "
                  f"({rec['beyond_half_tol']} of the bounds farther than tol/2 from exact)")
        for error in rec["errors"]:
            print(f"  FAIL {error}")

    single = len(records) == 1
    result = {
        "correct": all(not rec["errors"] and rec["failed"] == 0 for rec in records.values()),
        "attempted": sum(rec["attempted"] for rec in records.values()),
        "failed": sum(rec["failed"] for rec in records.values()),
        "metrics": {
            (key if single else f"{name}.{key}"): metric
            for name, rec in records.items() for key, metric in rec["metrics"].items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
