"""Batch front door: load a run config, dispatch one task, emit reports and CSVs.

Config files are flat INI: bracketed sections [system], [task], [numeric],
[output], one key = value per line, matrix rows inline separated by ';'.
[system] must name its `kind` (scalar, linear or controller) and give that
kind's keys; every [numeric] and [output] key is optional and defaults to its
RunConfig field.  Every section rejects a key it does not read (a linear
system reads g1, g2, ... up to the first gap), so a typo cannot silently
leave a default in place; [numeric] still accepts the retired `tol`, which
no task reads.  [numeric] `driving` (xi or brownian) is read by `simulate`
only; `exponent` takes xi, its one stream, and exits 2 on brownian.
Each task returns its exit code and its report lines; `run` writes them to
report.txt under a `task:` line and prints the same text, for every outcome.
Exit codes: 0 stable/feasible or simulation completed, 1 certified
infeasible/unstable or a failed run (a diverged `simulate`, a `converge`
whose error is not finite at some level, out of memory, the last reported as
`error: out of memory: ...`), 2 invalid input (a config past a fixed cap
among them, named by its key: `t`, `substeps` or `trajectories` of a timed
task, `levels` of `converge`, `f` of `analyze` or `max-stepsize`).  All
numeric output in reports is printed with 12 significant digits; CSV cells
use full-precision repr, so identical configs produce byte-identical
artifacts, and are written once per run of equal cells in a column.
"""

from __future__ import annotations

import argparse
import configparser
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import estimate, simulate, stability
from .errors import ConfigError, NonFinite, StepsizeTooLarge, ToolkitError
from .models import LinearSde


#: Caps on what a task holds at once, so that memory stays bounded for any
#: config the CLI accepts (peaks are VmHWM of a fresh CLI process).
#: `simulate` holds every sample of its trajectory, 3n + 2 floats and m draws
#: each: at the cap a scalar system peaks at 125 MiB with 1 substep and at
#: 111 MiB with 32.  `cps-demo` holds t and x per sample (153 MiB at the
#: cap); both write their CSV `_CSV_BLOCK` rows at a time.  `exponent` holds
#: two floats per path (about 41 bytes per path through the fits) and one
#: moment sum per step (188 MiB at the step cap with 2 paths).  `analyze`
#: and `max-stepsize` build their operator from terms of n(n+1)/2 x n x n
#: floats (693 MiB at n = 90, dt_bar > 0 included).  A config at any cap
#: peaks below 1 GB of resident memory, an exponent at both caps included.
#: `converge` streams its paths and steps, so its memory is bounded anyway;
#: its caps on paths and on the steps of its finest grid bound its work.
_MAX_SAMPLE_FLOATS = 2**23
_MAX_TRAJECTORIES = 2**23
_MAX_STEPS = 2**22
_MAX_CERTIFICATE_DIM = 90

_TIMED_TASKS = ("simulate", "exponent", "converge", "cps-demo")  # step on [0, t] by dt


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


@dataclass
class RunConfig:
    """One task with its system, numeric and output blocks."""

    task: str
    kind: str                       # scalar | linear | controller
    lam: float | None = None
    mu: float = 0.0
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
    levels: int = 6
    driving: str = "xi"             # simulate only: the scheme's increments, xi or brownian
    outdir: str = "out"

    def system(self) -> LinearSde:
        if self.kind == "scalar":
            return LinearSde.scalar(self.lam, self.mu)
        if self.kind == "linear":
            return LinearSde(np.array(self.drift), tuple(np.array(g) for g in self.noises))
        raise ConfigError(f"task '{self.task}' needs a scalar or linear system, got '{self.kind}'")


def _parse_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{value} is not finite")
    return value


def _parse_vector(text: str) -> tuple[float, ...]:
    return tuple(_parse_float(v) for v in text.split())


def _parse_matrix(text: str) -> tuple[tuple[float, ...], ...]:
    rows = tuple(_parse_vector(row) for row in text.split(";") if row.strip())
    if not rows or len({len(r) for r in rows}) != 1:
        raise ValueError("matrix rows have inconsistent lengths")
    return rows


def _format(value) -> str:
    """Inverse of the parsers: rows joined by ' ; ', entries by ' '."""
    if isinstance(value, tuple):
        return (" ; " if value and isinstance(value[0], tuple) else " ").join(_format(v) for v in value)
    return str(value)


#: [system] keys of each kind: key -> (RunConfig field, parser, required).
#: A linear system also reads its noise matrices g1, g2, ... into `noises`.
_SYSTEM = {
    "scalar": {"lambda": ("lam", _parse_float, True), "mu": ("mu", _parse_float, False)},
    "linear": {"f": ("drift", _parse_matrix, True)},
    "controller": {"a": ("a", _parse_float, True), "kp": ("kp", _parse_float, True)},
}

#: Optional keys of [numeric] and [output]: key -> (RunConfig field, parser),
#: in dump order.  An absent key leaves the RunConfig default.
_NUMERIC = {
    "numeric": {
        "x0": ("x0", _parse_vector),
        "dt_bar": ("dt_bar", _parse_float),
        "p": ("p", _parse_float),
        "trajectories": ("trajectories", int),
        "seed": ("seed", int),
        "levels": ("levels", int),
        "driving": ("driving", str),
        "substeps": ("substeps", int),
        "dt": ("dt", _parse_float),
        "t": ("horizon", _parse_float),
    },
    "output": {"dir": ("outdir", str)},
}


def _get(section, key: str, parse, name: str):
    if key not in section:
        raise ConfigError(f"missing key '{key}' in [{name}]")
    raw = section[key]
    try:
        return parse(raw)
    except ValueError as exc:
        raise ConfigError(f"key '{key}' in [{name}]: bad value {raw!r} ({exc})") from exc


def _reject_unread(section, read, name: str) -> None:
    for key in section:
        if key not in read:
            raise ConfigError(f"unknown key '{key}' in [{name}], which reads {', '.join(sorted(read))}")


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
    task = _get(parser["task"], "name", str, "task")
    if task not in TASKS:
        raise ConfigError(f"key 'name' in [task]: unknown task {task!r}, expected one of {TASKS}")
    _reject_unread(parser["task"], {"name"}, "task")
    system = parser["system"]
    kind = _get(system, "kind", str, "system")
    if kind not in _SYSTEM:
        raise ConfigError(f"key 'kind' in [system]: unknown kind {kind!r}")

    cfg = RunConfig(task=task, kind=kind)
    for key, (field, parse, required) in _SYSTEM[kind].items():
        if required or key in system:
            setattr(cfg, field, _get(system, key, parse, "system"))
    if kind == "linear":
        noises = []
        while f"g{len(noises) + 1}" in system:
            noises.append(_get(system, f"g{len(noises) + 1}", _parse_matrix, "system"))
        cfg.noises = tuple(noises)
    noise_keys = (f"g{j}" for j in range(1, len(cfg.noises) + 1))
    _reject_unread(system, {"kind", *_SYSTEM[kind], *noise_keys}, "system")
    for name, keys in _NUMERIC.items():
        section = parser[name] if parser.has_section(name) else {}
        # [numeric] tol is retired: older configs still set it, and no task reads it
        _reject_unread([key for key in section if (name, key) != ("numeric", "tol")], keys, name)
        for key, (field, parse) in keys.items():
            if key in section:
                setattr(cfg, field, _get(section, key, parse, name))
    if cfg.driving not in ("xi", "brownian"):
        raise ConfigError(f"key 'driving' in [numeric]: expected xi or brownian, got {cfg.driving!r}")

    _require_task_keys(cfg)
    return cfg


def _require_task_keys(cfg: RunConfig) -> None:
    if cfg.task == "cps-demo":
        if cfg.kind != "controller":
            raise ConfigError("task 'cps-demo' needs [system] kind = controller (keys a, kp)")
        if len(cfg.x0) != 1:
            raise ConfigError(f"key 'x0' in [numeric]: task 'cps-demo' takes one value, got {len(cfg.x0)}")
    if cfg.task in _TIMED_TASKS:
        for key, value in (("dt", cfg.dt), ("t", cfg.horizon)):
            if value is None:
                raise ConfigError(f"missing key '{key}' in [numeric] for task '{cfg.task}'")
    # analyze and max-stepsize need only the system block


def dump_config(cfg: RunConfig, path: str | Path) -> None:
    """Write a config that reloads to an identical RunConfig."""
    parser = configparser.ConfigParser()

    def present(keys):
        return {key: _format(value) for key, (field, *_) in keys.items()
                if (value := getattr(cfg, field)) is not None}

    parser["system"] = {"kind": cfg.kind, **present(_SYSTEM[cfg.kind])}
    parser["system"].update({f"g{j}": _format(g) for j, g in enumerate(cfg.noises, start=1)})
    parser["task"] = {"name": cfg.task}
    for name, keys in _NUMERIC.items():
        parser[name] = present(keys)
    with open(path, "w") as fh:
        parser.write(fh)


#: Rows of every column that the CSV writer formats at once.
_CSV_BLOCK = 4096


def _cells(column) -> list[str]:
    """repr of each float of a 1-d block, called once per run of cells with
    equal bits (so -0.0 stays apart from 0.0, and NaNs of other bits apart)."""
    values = np.asarray(column, dtype=np.float64)
    bits = values.view(np.uint64)
    starts = np.ones(bits.shape, dtype=bool)
    starts[1:] = bits[1:] != bits[:-1]
    reprs = np.array(list(map(repr, values[starts].tolist())), dtype=object)
    return reprs[np.cumsum(starts) - 1].tolist()


def emit_plot_data(series: list[tuple[str, list[str], list]], outdir: str | Path) -> list[Path]:
    """Write one CSV per series (filename, header, one 1-d column of floats
    per header name); returns the paths.  Each cell is the repr of its float,
    formatted once per run of equal cells in a block of `_CSV_BLOCK` rows."""
    if not series:
        raise ValueError("no series to emit")
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    paths = []
    for filename, header, columns in series:
        rows = len(columns[0]) if columns else 0
        if len(columns) != len(header) or any(len(c) != rows for c in columns):
            raise ValueError(f"{filename}: {len(header)} header names need as many columns of one length")
        path = outdir / filename
        try:
            with open(path, "w") as fh:
                fh.write(",".join(header) + "\n")
                for start in range(0, rows, _CSV_BLOCK):
                    cells = [_cells(c[start:start + _CSV_BLOCK]) for c in columns]
                    fh.write("\n".join(map(",".join, zip(*cells))) + "\n")
        except OSError as exc:
            raise ToolkitError(f"cannot write {path}: {exc}") from exc
        paths.append(path)
    return paths


def _write_report(outdir: Path, name: str, text: str) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / name).write_text(text + "\n")


def _finest_stepsize(key: str, dt: float, divisor: int = 1, halvings: int = 0) -> float:
    """dt / divisor / 2**halvings, a stepsize that [numeric] `key` sets;
    ConfigError naming the key unless it is a positive float."""
    try:
        step = math.ldexp(dt / divisor, -halvings)
    except OverflowError:  # a divisor past the float range
        step = 0.0
    if not step > 0.0:
        raise ConfigError(f"key '{key}' in [numeric]: the finest stepsize it sets is not a positive float")
    return step


def _cap(key: str, count: int, cap: int, unit: str, section: str = "numeric") -> None:
    """ConfigError naming `key` of [section] when a task would hold more
    than `cap` of `unit` at once."""
    if count > cap:
        raise ConfigError(f"key '{key}' in [{section}]: the task would hold {count} {unit}, past the cap of {cap}")


def _task_analyze(cfg: RunConfig, outdir: Path) -> tuple[int, list[str]]:
    sde = cfg.system()
    _cap("f", sde.dim, _MAX_CERTIFICATE_DIM, "state dimensions", "system")
    cert = stability.cp_lyapunov_feasible(sde, cfg.dt_bar)
    _write_report(outdir, "certificate.txt", text := cert.report())
    lines = [f"dt_bar: {_fmt(cfg.dt_bar)}", text]
    if (scalar := sde.scalar_coefficients) is not None:
        bound = stability.scalar_max_stepsize(*scalar)
        lines.append(
            "scalar closed-form stepsize bound: "
            + (_fmt(bound) if bound is not None else "infeasible")
        )
    return (0 if cert.feasible else 1), lines


def _task_max_stepsize(cfg: RunConfig, outdir: Path) -> tuple[int, list[str]]:
    sde = cfg.system()
    _cap("f", sde.dim, _MAX_CERTIFICATE_DIM, "state dimensions", "system")
    bound, cert = stability.stepsize_certificate(sde)  # bound is None iff cert is infeasible
    _write_report(outdir, "certificate.txt", text := cert.report())
    bound_line = [] if bound is None else [f"max stepsize: {_fmt(bound)}"]
    return (0 if cert.feasible else 1), [*bound_line, text]


def _task_simulate(cfg: RunConfig, outdir: Path) -> tuple[int, list[str]]:
    sde = cfg.system()
    substeps = cfg.substeps if cfg.substeps is not None else 32
    if substeps < 1:
        raise ConfigError("key 'substeps' in [numeric]: simulate needs substeps >= 1")
    if cfg.driving == "brownian" and substeps & (substeps - 1):
        raise ConfigError("key 'substeps' in [numeric]: brownian driving needs a power of two")
    _finest_stepsize("substeps", cfg.dt, substeps)
    intervals = simulate.whole_steps(cfg.horizon, cfg.dt)
    per_sample = 3 * sde.dim + 2 + sde.noise_dim
    samples = 1 + intervals * (substeps + 1)
    # name t when even one substep per interval would pass the cap
    key = "substeps" if (1 + 2 * intervals) * per_sample <= _MAX_SAMPLE_FLOATS else "t"
    _cap(key, samples * per_sample, _MAX_SAMPLE_FLOATS, f"floats ({samples} samples of {per_sample})")
    try:
        run = simulate.simulate_cps(
            sde, np.array(cfg.x0), cfg.dt, cfg.horizon, seed=cfg.seed,
            inner_substeps=substeps, impulse_driving=cfg.driving,
        )
    except NonFinite as exc:
        return 1, [f"verdict: diverged ({exc})"]
    header, columns = simulate.trajectory_rows(run.hybrid)
    emit_plot_data([("trajectory.csv", header, columns)], outdir)
    final = run.cyber.states[-1]
    lines = [
        f"samples: {run.hybrid.samples}",
        f"impulses: {int(run.hybrid.impulse_flag.sum())}",
        "final iterate: " + " ".join(_fmt(v) for v in final),
    ]
    return 0, lines


def _task_exponent(cfg: RunConfig, outdir: Path) -> tuple[int, list[str]]:
    if cfg.driving != "xi":
        raise ConfigError(f"key 'driving' in [numeric]: task 'exponent' takes only xi, got {cfg.driving!r}")
    _cap("trajectories", cfg.trajectories, _MAX_TRAJECTORIES, "paths")
    _cap("t", simulate.whole_steps(cfg.horizon, cfg.dt), _MAX_STEPS, "steps of dt")
    sde = cfg.system()
    ens = estimate.run_ensemble(
        sde, np.array(cfg.x0), cfg.p, cfg.trajectories, cfg.horizon, cfg.dt, seed=cfg.seed
    )
    est, times, log_mean = estimate.fit_moment_window(ens)
    pathwise = estimate.fit_pathwise(ens)
    emit_plot_data([("exponent_fit.csv", ["t", "log_mean_moment"], [times, log_mean])], outdir)
    lines = [
        f"p: {_fmt(cfg.p)}",
        "moment exponent:",
        est.report(),
        "pathwise exponent:",
        pathwise.report(),
        f"diverged trajectories: {ens.diverged}",
    ]
    return (0 if est.slope < 0 else 1), lines


def _task_converge(cfg: RunConfig, outdir: Path) -> tuple[int, list[str]]:
    sde = cfg.system()
    if cfg.levels < 2:
        raise ConfigError("key 'levels' in [numeric]: converge needs at least 2 levels")
    observe = cfg.substeps if cfg.substeps is not None else 2
    if observe < 2 or observe & (observe - 1):
        raise ConfigError("key 'substeps' in [numeric]: converge needs a power of two >= 2")
    # cfg.dt is the coarsest stepsize; the sup is observed `observe` times
    # finer than the finest level
    obs_level = observe.bit_length() - 1
    finest = _finest_stepsize("levels", cfg.dt, halvings=cfg.levels - 1)
    delta = _finest_stepsize("substeps", finest, observe)
    _cap("trajectories", cfg.trajectories, _MAX_TRAJECTORIES, "paths")
    # name t when even 2 levels and 2 substeps would pass the cap, levels when 2 substeps would
    intervals = simulate.whole_steps(cfg.horizon, cfg.dt)
    key = "t" if 4 * intervals > _MAX_STEPS else "levels" if intervals << cfg.levels > _MAX_STEPS else "substeps"
    _cap(key, intervals << (cfg.levels - 1 + obs_level), _MAX_STEPS, "steps of its finest grid")
    study = estimate.strong_error_sup(
        sde, np.array(cfg.x0), cfg.horizon,
        range(obs_level, obs_level + cfg.levels), cfg.trajectories,
        delta=delta, seed=cfg.seed,
    )
    header, columns = study.csv_rows()
    emit_plot_data([("errors.csv", header, columns)], outdir)
    lines = [f"fitted order (log error vs log dt): {_fmt(study.slope)}"]
    for r in study.records:
        lines.append(f"level {r.level}: dt {_fmt(r.dt)} error {_fmt(r.error)} stderr {_fmt(r.stderr)}")
    overflowed = [r.level for r in study.records if not math.isfinite(r.error)]
    if overflowed:
        lines.append(f"verdict: diverged (error not finite at level {overflowed[0]})")
    return (1 if overflowed else 0), lines


def _task_cps_demo(cfg: RunConfig, outdir: Path) -> tuple[int, list[str]]:
    samples = 1 + simulate.whole_steps(cfg.horizon, cfg.dt) * simulate._DEMO_SAMPLES
    _cap("t", 2 * samples, _MAX_SAMPLE_FLOATS, f"floats ({samples} samples of 2)")
    try:
        demo = simulate.simulate_scalar_cps_demo(cfg.a, cfg.kp, cfg.x0[0], cfg.dt, cfg.horizon)
    except StepsizeTooLarge as exc:
        return 1, ["verdict: stepsize too large", str(exc)]
    emit_plot_data([("trajectory.csv", ["t", "x_1"], [demo.times, demo.x])], outdir)
    lines = [
        f"stepsize bound: {_fmt(demo.stepsize_bound)}",
        f"one-step factor: {_fmt(demo.factor)}",
        f"cyber strictly decreasing: {demo.strictly_decreasing}",
        f"first-interval decay bound: {demo.decay_bound_ok}",
        f"sign preserved: {demo.same_sign}",
    ]
    return (0 if demo else 1), lines


_DISPATCH = {
    "simulate": _task_simulate,
    "analyze": _task_analyze,
    "max-stepsize": _task_max_stepsize,
    "exponent": _task_exponent,
    "converge": _task_converge,
    "cps-demo": _task_cps_demo,
}
TASKS = tuple(_DISPATCH)


def run(config_path: str | Path, overrides: dict | None = None) -> int:
    """Load a config, apply flag overrides and dispatch the task, which writes
    its CSVs and certificate; then write report.txt, the task's name and its
    report lines, and print the same text.  Returns the task's exit code."""
    cfg = load_config(config_path)
    overrides = overrides or {}
    if overrides.get("task") is not None:
        if overrides["task"] not in TASKS:
            raise ConfigError(f"unknown task {overrides['task']!r}")
        cfg.task = overrides["task"]
        _require_task_keys(cfg)
    for key, field, cast in (("seed", "seed", int), ("trajectories", "trajectories", int),
                             ("out", "outdir", str)):
        if overrides.get(key) is not None:
            setattr(cfg, field, cast(overrides[key]))
    if cfg.task in _TIMED_TASKS:
        simulate.whole_steps(cfg.horizon, cfg.dt)
    outdir = Path(cfg.outdir)
    if overrides.get("dump_config"):
        outdir.mkdir(parents=True, exist_ok=True)
        dump_config(cfg, outdir / "config.ini")
    code, lines = _DISPATCH[cfg.task](cfg, outdir)
    text = "\n".join([f"task: {cfg.task}", *lines])
    _write_report(outdir, "report.txt", text)
    print(text)
    return code


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
        return run(args.config, vars(args))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
