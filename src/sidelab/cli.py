"""Batch front door: load a run config, dispatch one task, emit reports and CSVs.

Config files are flat INI: bracketed sections [system], [task], [numeric],
[output], one key = value per line, matrix rows inline separated by ';'.
Exit codes: 0 stable/feasible or simulation completed, 1 certified
infeasible/unstable, 2 invalid input.  All numeric output in reports is
printed with 12 significant digits; CSV cells use full-precision repr so
identical configs produce byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import configparser
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import estimate, simulate, stability
from .errors import ConfigError, NonFinite, StepsizeTooLarge, ToolkitError
from .models import LinearSde
from .noise import NoisePlan

TASKS = ("simulate", "analyze", "max-stepsize", "exponent", "converge", "cps-demo")


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


@dataclass
class RunConfig:
    """One task with its system, numeric and output blocks."""

    task: str
    kind: str                       # scalar | linear | controller
    lam: float | None = None
    mu: float | None = None
    a: float | None = None
    kp: float | None = None
    drift: tuple[tuple[float, ...], ...] | None = None
    noises: tuple[tuple[tuple[float, ...], ...], ...] = ()
    x0: tuple[float, ...] = (1.0,)
    dt: float | None = None
    dt_bar: float = 0.0
    horizon: float | None = None
    p: float = 2.0
    trajectories: int = 1000
    seed: int = 0
    substeps: int | None = None   # simulate: inner substeps (32); converge: observation refinement (2)
    tol: float = 1e-6
    levels: int = 6
    driving: str = "xi"
    outdir: str = "out"

    def system(self) -> LinearSde:
        if self.kind == "scalar":
            return LinearSde.scalar(self.lam, self.mu if self.mu is not None else 0.0)
        if self.kind == "linear":
            return LinearSde(np.array(self.drift), tuple(np.array(g) for g in self.noises))
        raise ConfigError(f"task '{self.task}' needs a scalar or linear system, got '{self.kind}'")


def _parse_matrix(text: str, key: str) -> tuple[tuple[float, ...], ...]:
    try:
        rows = tuple(
            tuple(float(v) for v in row.split()) for row in text.split(";") if row.strip()
        )
    except ValueError as exc:
        raise ConfigError(f"key '{key}': cannot parse matrix entry ({exc})") from exc
    if not rows or len({len(r) for r in rows}) != 1:
        raise ConfigError(f"key '{key}': matrix rows have inconsistent lengths")
    return rows


def _get(section, key, cast, default=None, required=False, name=""):
    if key not in section:
        if required:
            raise ConfigError(f"missing key '{key}' in [{name}]")
        return default
    raw = section[key]
    try:
        return cast(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"key '{key}' in [{name}]: bad value {raw!r} ({exc})") from exc


def load_config(path: str | Path) -> RunConfig:
    """Parse a config file; raises ConfigError with a line/key diagnostic."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc

    for required_section in ("system", "task"):
        if not parser.has_section(required_section):
            raise ConfigError(f"missing section [{required_section}]")
    system = parser["system"]
    task = _get(parser["task"], "name", str, required=True, name="task").strip()
    if task not in TASKS:
        raise ConfigError(f"key 'name' in [task]: unknown task {task!r}, expected one of {TASKS}")
    numeric = parser["numeric"] if parser.has_section("numeric") else {}
    output = parser["output"] if parser.has_section("output") else {}

    kind = _get(system, "kind", str, default=None, name="system")
    if kind is None:
        if "lambda" in system:
            kind = "scalar"
        elif "a" in system:
            kind = "controller"
        elif "f" in system:
            kind = "linear"
        else:
            raise ConfigError("missing key 'kind' in [system]")
    kind = kind.strip()

    cfg = RunConfig(task=task, kind=kind)
    if kind == "scalar":
        cfg.lam = _get(system, "lambda", float, required=True, name="system")
        cfg.mu = _get(system, "mu", float, default=0.0, name="system")
    elif kind == "linear":
        raw_f = _get(system, "f", str, required=True, name="system")
        cfg.drift = _parse_matrix(raw_f, "f")
        noises = []
        j = 1
        while f"g{j}" in system:
            noises.append(_parse_matrix(system[f"g{j}"], f"g{j}"))
            j += 1
        cfg.noises = tuple(noises)
    elif kind == "controller":
        cfg.a = _get(system, "a", float, required=True, name="system")
        cfg.kp = _get(system, "kp", float, required=True, name="system")
    else:
        raise ConfigError(f"key 'kind' in [system]: unknown kind {kind!r}")

    x0_raw = _get(numeric, "x0", str, default=None, name="numeric")
    if x0_raw is not None:
        try:
            cfg.x0 = tuple(float(v) for v in x0_raw.split())
        except ValueError as exc:
            raise ConfigError(f"key 'x0' in [numeric]: bad value ({exc})") from exc
    cfg.dt = _get(numeric, "dt", float, default=None, name="numeric")
    cfg.dt_bar = _get(numeric, "dt_bar", float, default=0.0, name="numeric")
    cfg.horizon = _get(numeric, "t", float, default=None, name="numeric")
    cfg.p = _get(numeric, "p", float, default=2.0, name="numeric")
    cfg.trajectories = _get(numeric, "trajectories", int, default=1000, name="numeric")
    cfg.seed = _get(numeric, "seed", int, default=0, name="numeric")
    cfg.substeps = _get(numeric, "substeps", int, default=None, name="numeric")
    cfg.tol = _get(numeric, "tol", float, default=1e-6, name="numeric")
    cfg.levels = _get(numeric, "levels", int, default=6, name="numeric")
    cfg.driving = _get(numeric, "driving", str, default="xi", name="numeric").strip()
    if cfg.driving not in ("xi", "brownian"):
        raise ConfigError(f"key 'driving' in [numeric]: expected xi or brownian, got {cfg.driving!r}")
    cfg.outdir = _get(output, "dir", str, default="out", name="output").strip()

    _require_task_keys(cfg)
    return cfg


def _require_task_keys(cfg: RunConfig) -> None:
    def need(cond, key):
        if cond:
            raise ConfigError(f"missing key '{key}' in [numeric] for task '{cfg.task}'")

    if cfg.task == "cps-demo":
        if cfg.kind != "controller":
            raise ConfigError("task 'cps-demo' needs [system] kind = controller (keys a, kp)")
        need(cfg.dt is None, "dt")
        need(cfg.horizon is None, "t")
    elif cfg.task == "simulate":
        need(cfg.dt is None, "dt")
        need(cfg.horizon is None, "t")
    elif cfg.task in ("exponent",):
        need(cfg.dt is None, "dt")
        need(cfg.horizon is None, "t")
    elif cfg.task == "converge":
        need(cfg.horizon is None, "t")
        need(cfg.dt is None, "dt")
    # analyze and max-stepsize need only the system block


def dump_config(cfg: RunConfig, path: str | Path) -> None:
    """Write a config that reloads to an identical RunConfig."""
    parser = configparser.ConfigParser()
    parser["system"] = {}
    sys_sec = parser["system"]
    sys_sec["kind"] = cfg.kind
    if cfg.kind == "scalar":
        sys_sec["lambda"] = repr(cfg.lam)
        sys_sec["mu"] = repr(cfg.mu)
    elif cfg.kind == "linear":
        sys_sec["f"] = " ; ".join(" ".join(repr(v) for v in row) for row in cfg.drift)
        for j, g in enumerate(cfg.noises, start=1):
            sys_sec[f"g{j}"] = " ; ".join(" ".join(repr(v) for v in row) for row in g)
    else:
        sys_sec["a"] = repr(cfg.a)
        sys_sec["kp"] = repr(cfg.kp)
    parser["task"] = {"name": cfg.task}
    num = {
        "x0": " ".join(repr(v) for v in cfg.x0),
        "dt_bar": repr(cfg.dt_bar),
        "p": repr(cfg.p),
        "trajectories": str(cfg.trajectories),
        "seed": str(cfg.seed),
        "tol": repr(cfg.tol),
        "levels": str(cfg.levels),
        "driving": cfg.driving,
    }
    if cfg.substeps is not None:
        num["substeps"] = str(cfg.substeps)
    if cfg.dt is not None:
        num["dt"] = repr(cfg.dt)
    if cfg.horizon is not None:
        num["t"] = repr(cfg.horizon)
    parser["numeric"] = num
    parser["output"] = {"dir": cfg.outdir}
    with open(path, "w") as fh:
        parser.write(fh)


def emit_plot_data(series: list[tuple[str, list[str], list[list[float]]]], outdir: str | Path) -> list[Path]:
    """Write one CSV per series (filename, header, rows); returns the paths."""
    if not series:
        raise ValueError("no series to emit")
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    paths = []
    for filename, header, rows in series:
        path = outdir / filename
        try:
            with open(path, "w") as fh:
                fh.write(",".join(header) + "\n")
                for row in rows:
                    fh.write(",".join(repr(float(v)) for v in row) + "\n")
        except OSError as exc:
            raise ToolkitError(f"cannot write {path}: {exc}") from exc
        paths.append(path)
    return paths


def _write_report(outdir: Path, name: str, text: str) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / name).write_text(text + "\n")


def _task_analyze(cfg: RunConfig, outdir: Path) -> int:
    sde = cfg.system()
    cert = stability.cp_lyapunov_feasible(sde, cfg.dt_bar)
    _write_report(outdir, "certificate.txt", cert.report())
    lines = [f"task: analyze", f"dt_bar: {_fmt(cfg.dt_bar)}", cert.report()]
    if sde.dim == 1 and sde.noise_dim <= 1:
        lam = float(sde.drift_matrix[0, 0])
        mu = float(sde.noise_matrices[0][0, 0]) if sde.noise_dim else 0.0
        bound = stability.scalar_max_stepsize(lam, mu)
        lines.append(
            "scalar closed-form stepsize bound: "
            + (_fmt(bound) if bound is not None else "infeasible")
        )
    _write_report(outdir, "report.txt", "\n".join(lines))
    print("\n".join(lines))
    return 0 if cert.feasible else 1


def _task_max_stepsize(cfg: RunConfig, outdir: Path) -> int:
    sde = cfg.system()
    bound = stability.max_stepsize(sde, cfg.tol)
    lines = ["task: max-stepsize"]
    if bound is None:
        lines.append("verdict: infeasible (unstable base system)")
        code = 1
    else:
        lines.append(f"max stepsize: {_fmt(bound)} (tol {_fmt(cfg.tol)})")
        cert = stability.cp_lyapunov_feasible(sde, 0.0)
        lines.append(cert.report())
        _write_report(outdir, "certificate.txt", cert.report())
        code = 0
    _write_report(outdir, "report.txt", "\n".join(lines))
    print("\n".join(lines))
    return code


def _task_simulate(cfg: RunConfig, outdir: Path) -> int:
    sde = cfg.system()
    substeps = cfg.substeps if cfg.substeps is not None else 32
    plan = NoisePlan(cfg.seed, 0, sde.noise_dim, cfg.dt / substeps, cfg.horizon)
    try:
        run = simulate.simulate_cps(
            sde, np.array(cfg.x0), cfg.dt, cfg.horizon, plan,
            inner_substeps=substeps, impulse_driving=cfg.driving,
        )
    except NonFinite as exc:
        _write_report(outdir, "report.txt", f"task: simulate\nverdict: diverged ({exc})")
        print(f"diverged: {exc}")
        return 1
    header, rows = simulate.trajectory_rows(run.hybrid)
    emit_plot_data([("trajectory.csv", header, rows)], outdir)
    final = run.cyber.states[-1]
    lines = [
        "task: simulate",
        f"samples: {run.hybrid.samples}",
        f"impulses: {len(run.hybrid.impulses)}",
        "final iterate: " + " ".join(_fmt(v) for v in final),
    ]
    _write_report(outdir, "report.txt", "\n".join(lines))
    print("\n".join(lines))
    return 0


def _task_exponent(cfg: RunConfig, outdir: Path) -> int:
    sde = cfg.system()
    ens = estimate.run_ensemble(
        sde, np.array(cfg.x0), cfg.p, cfg.trajectories, cfg.horizon, cfg.dt,
        seed=cfg.seed, driving=cfg.driving,
    )
    est, times, log_mean = estimate.fit_moment_window(ens)
    pathwise = estimate.fit_pathwise(ens)
    emit_plot_data(
        [("exponent_fit.csv", ["t", "log_mean_moment"], [[t, v] for t, v in zip(times, log_mean)])],
        outdir,
    )
    lines = [
        "task: exponent",
        f"p: {_fmt(cfg.p)}",
        "moment exponent:",
        est.report(),
        "pathwise exponent:",
        pathwise.report(),
    ]
    _write_report(outdir, "report.txt", "\n".join(lines))
    print("\n".join(lines))
    return 0 if est.slope < 0 else 1


def _task_converge(cfg: RunConfig, outdir: Path) -> int:
    sde = cfg.system()
    if cfg.levels < 2:
        raise ConfigError("key 'levels' in [numeric]: converge needs at least 2 levels")
    observe = cfg.substeps if cfg.substeps is not None else 2
    if observe < 2 or observe & (observe - 1):
        raise ConfigError("key 'substeps' in [numeric]: converge needs a power of two >= 2")
    # cfg.dt is the coarsest stepsize; the sup is observed `observe` times
    # finer than the finest level
    obs_level = observe.bit_length() - 1
    delta = cfg.dt / (1 << (cfg.levels - 1)) / observe
    study = estimate.strong_error_sup(
        sde, np.array(cfg.x0), cfg.horizon,
        range(obs_level, obs_level + cfg.levels), cfg.trajectories,
        delta=delta, seed=cfg.seed,
    )
    header, rows = study.csv_rows()
    emit_plot_data([("errors.csv", header, rows)], outdir)
    lines = ["task: converge", f"fitted order (log error vs log dt): {_fmt(study.slope)}"]
    for r in study.records:
        lines.append(f"level {r.level}: dt {_fmt(r.dt)} error {_fmt(r.error)} stderr {_fmt(r.stderr)}")
    _write_report(outdir, "report.txt", "\n".join(lines))
    print("\n".join(lines))
    return 0


def _task_cps_demo(cfg: RunConfig, outdir: Path) -> int:
    try:
        demo = simulate.simulate_scalar_cps_demo(cfg.a, cfg.kp, cfg.x0[0], cfg.dt, cfg.horizon)
    except StepsizeTooLarge as exc:
        _write_report(outdir, "report.txt", f"task: cps-demo\nverdict: stepsize too large\n{exc}")
        print(f"stepsize too large: {exc}")
        return 1
    rows = [[t, x] for t, x in zip(demo.times, demo.x)]
    emit_plot_data([("trajectory.csv", ["t", "x_1"], rows)], outdir)
    v = demo.verdict
    lines = [
        "task: cps-demo",
        f"stepsize bound: {_fmt(v.stepsize_bound)}",
        f"one-step factor: {_fmt(v.factor)}",
        f"cyber strictly decreasing: {v.strictly_decreasing}",
        f"first-interval decay bound: {v.decay_bound_ok}",
        f"sign preserved: {v.same_sign}",
    ]
    _write_report(outdir, "report.txt", "\n".join(lines))
    print("\n".join(lines))
    return 0 if v else 1


_DISPATCH = {
    "analyze": _task_analyze,
    "max-stepsize": _task_max_stepsize,
    "simulate": _task_simulate,
    "exponent": _task_exponent,
    "converge": _task_converge,
    "cps-demo": _task_cps_demo,
}


def run(config_path: str | Path, overrides: dict | None = None) -> int:
    """Load a config, apply flag overrides, dispatch the task, write artifacts."""
    cfg = load_config(config_path)
    overrides = overrides or {}
    if overrides.get("task") is not None:
        if overrides["task"] not in TASKS:
            raise ConfigError(f"unknown task {overrides['task']!r}")
        cfg.task = overrides["task"]
        _require_task_keys(cfg)
    if overrides.get("seed") is not None:
        cfg.seed = int(overrides["seed"])
    if overrides.get("trajectories") is not None:
        cfg.trajectories = int(overrides["trajectories"])
    if overrides.get("out") is not None:
        cfg.outdir = str(overrides["out"])
    outdir = Path(cfg.outdir)
    if overrides.get("dump_config"):
        outdir.mkdir(parents=True, exist_ok=True)
        dump_config(cfg, outdir / "config.ini")
    return _DISPATCH[cfg.task](cfg, outdir)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sidelab",
        description="Simulate impulsive stochastic systems and certify their stability.",
    )
    parser.add_argument("task", nargs="?", choices=TASKS, help="override the config's task")
    parser.add_argument("--config", required=True, help="path to the run config")
    parser.add_argument("--seed", type=int, default=None, help="override [numeric] seed")
    parser.add_argument("--trajectories", type=int, default=None, help="override trajectory count")
    parser.add_argument("--out", default=None, help="override the output directory")
    parser.add_argument("--dump-config", action="store_true", help="write the parsed config back out")
    args = parser.parse_args(argv)
    try:
        return run(
            args.config,
            {
                "task": args.task,
                "seed": args.seed,
                "trajectories": args.trajectories,
                "out": args.out,
                "dump_config": args.dump_config,
            },
        )
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
