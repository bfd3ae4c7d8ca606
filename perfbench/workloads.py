"""Workload definitions: seeded CLI configs, the exit code each must give, and
the check of each run's outputs against the independent oracles.

A workload is one pass over a list of CLI operations.  Its inputs are a pure
function of the workload seed, so the same seed always writes byte-identical
configs.  Sizes are fixed per workload; the seed only moves the systems and
the random streams, so the work per pass does not depend on the seed.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracles

NAMES = ("ensemble", "cps-trace", "certify", "converge")

# certify: one noise-destabilized system per size plus this many stable ones
CERTIFY_STABLE = {4: 2, 10: 2, 20: 2, 30: 1}
CERTIFY_TOL = 1e-6


@dataclass
class Op:
    """One CLI run: its config, the exit code it must give, and what its
    outputs are checked against."""

    name: str
    config: Path
    outdir: Path
    expect_exit: int
    check: dict = field(default_factory=dict)


@dataclass
class Workload:
    ops: list[Op]
    work: float        # work units per pass
    work_unit: str


def _fmt_matrix(a: np.ndarray) -> str:
    return " ; ".join(" ".join(repr(float(v)) for v in row) for row in a)


def _write_config(path: Path, system: dict, task: str, numeric: dict, outdir: Path) -> None:
    lines = ["[system]"] + [f"{k} = {v}" for k, v in system.items()]
    lines += ["", "[task]", f"name = {task}", "", "[numeric]"]
    lines += [f"{k} = {v}" for k, v in numeric.items()]
    lines += ["", "[output]", f"dir = {outdir}", ""]
    path.write_text("\n".join(lines))


def _linear_system(f: np.ndarray, gs: list[np.ndarray]) -> dict:
    system = {"kind": "linear", "f": _fmt_matrix(f)}
    system.update({f"g{j}": _fmt_matrix(g) for j, g in enumerate(gs, start=1)})
    return system


def _rng(name: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([NAMES.index(name), seed])


def _small_system(rng: np.random.Generator) -> tuple[np.ndarray, list[np.ndarray], np.ndarray]:
    """A 3-d mean-square stable system with two noise matrices and a unit x0."""
    f = -rng.uniform(1.5, 2.5) * np.eye(3) + 0.5 * rng.standard_normal((3, 3))
    gs = [0.35 * rng.standard_normal((3, 3)) for _ in range(2)]
    x0 = rng.standard_normal(3)
    return f, gs, x0 / np.linalg.norm(x0)


def _stable_certify_system(rng: np.random.Generator, n: int) -> tuple[np.ndarray, list[np.ndarray], float]:
    """A stable n-d system rescaled by F -> 4^j F, G -> 2^j G (exact in floating
    point, and dividing the bound by exactly 4^j) so that its bound lies in
    [0.25, 1): max_stepsize then brackets with dt_bar = 1 and bisects from [0, 1]."""
    f = -np.eye(n) + rng.standard_normal((n, n)) / (2.0 * math.sqrt(n))
    gs = [rng.uniform(0.2, 0.5) * rng.standard_normal((n, n)) / math.sqrt(n) for _ in range(2)]
    bound = oracles.exact_stepsize(f, gs)
    j = math.floor(math.log(bound, 4.0)) + 1
    return f * 4.0**j, [g * 2.0**j for g in gs], bound / 4.0**j


def _unstable_certify_system(rng: np.random.Generator, n: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """Hurwitz drift destabilized by noise: with G1 = c Q (Q orthogonal) and
    c^2 > -lambda_min(F + F'), the matrix F + F' + sum G'G is positive definite,
    so E|x|^2 grows."""
    f = -np.eye(n) + rng.standard_normal((n, n)) / (4.0 * math.sqrt(n))
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    c2 = -float(np.linalg.eigvalsh(f + f.T)[0]) + 0.5
    return f, [math.sqrt(c2) * q, 0.3 * rng.standard_normal((n, n)) / math.sqrt(n)]


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Write the workload's configs for `seed` under `workdir` and return its ops."""
    workdir.mkdir(parents=True, exist_ok=True)
    cli_seed = seed % (1 << 31)
    rng = _rng(name, seed)

    def op(stem, system, task, numeric, expect, **check):
        config, outdir = workdir / f"{stem}.ini", workdir / stem
        _write_config(config, system, task, numeric, outdir)
        return Op(stem, config, outdir, expect, check)

    if name == "ensemble":
        f, gs, x0 = _small_system(rng)
        dt, steps, trajectories = 1e-3, 2000, 1024
        numeric = {"x0": " ".join(repr(float(v)) for v in x0), "dt": repr(dt), "t": repr(dt * steps), "p": "2.0",
                   "trajectories": trajectories, "seed": cli_seed, "driving": "xi"}
        ops = [op("exponent", _linear_system(f, gs), "exponent", numeric, 0,
                  f=f, gs=gs, x0=x0, dt=dt, trajectories=trajectories)]
        return Workload(ops, trajectories * steps, "trajectory-steps")

    if name == "cps-trace":
        f, gs, x0 = _small_system(rng)
        dt, intervals, substeps = 2e-3, 500, 32
        numeric = {"x0": " ".join(repr(float(v)) for v in x0), "dt": repr(dt), "t": repr(dt * intervals),
                   "substeps": substeps, "seed": cli_seed, "driving": "xi"}
        samples = intervals * (substeps + 1) + 1
        ops = [op("simulate", _linear_system(f, gs), "simulate", numeric, 0,
                  f=f, gs=gs, x0=x0, dt=dt, intervals=intervals, samples=samples, seed=cli_seed)]
        return Workload(ops, samples, "samples")

    if name == "certify":
        ops = []
        for n, stable in CERTIFY_STABLE.items():
            for i in range(stable):
                f, gs, bound = _stable_certify_system(rng, n)
                system = _linear_system(f, gs)
                ops.append(op(f"n{n}-s{i}", system, "max-stepsize", {"tol": repr(CERTIFY_TOL)},
                              0 if oracles.ms_abscissa(f, gs) < 0 else 1, bound=bound, tol=CERTIFY_TOL))
                for factor, expect in ((0.5, 0), (1.5, 1)):
                    ops.append(op(f"n{n}-s{i}-x{factor}", system, "analyze",
                                  {"dt_bar": repr(factor * bound)}, expect))
            f, gs = _unstable_certify_system(rng, n)
            ops.append(op(f"n{n}-u", _linear_system(f, gs), "max-stepsize", {"tol": repr(CERTIFY_TOL)},
                          0 if oracles.ms_abscissa(f, gs) < 0 else 1))
        return Workload(ops, sum(CERTIFY_STABLE.values()) + len(CERTIFY_STABLE), "systems")

    if name == "converge":
        t, dt, levels, trajectories = 2.0, 0.0625, 8, 512
        numeric = {"x0": "1.0", "dt": repr(dt), "t": repr(t), "levels": levels,
                   "trajectories": trajectories, "seed": cli_seed}
        system = {"kind": "scalar", "lambda": "-1.0", "mu": "0.5"}
        fine_steps = round(t / (dt / 2 ** (levels - 1) / 2))
        ops = [op("converge", system, "converge", numeric, 0, levels=levels)]
        return Workload(ops, trajectories * fine_steps, "trajectory-finest-steps")

    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------- output checks

def _report_values(path: Path) -> dict[str, str]:
    """'key: value' lines of a report; later sections override earlier keys,
    so section-scoped keys are read with `_section`."""
    return dict(re.findall(r"^([^:\n]+): (.*)$", path.read_text(), flags=re.M))


def _section(text: str, header: str, key: str) -> float:
    block = text.split(header, 1)[1]
    return float(re.search(rf"^{key}: (.*)$", block, flags=re.M).group(1))


def check_ensemble(op: Op, slope: float, pathwise: float, csv_t: np.ndarray, csv_log: np.ndarray) -> list[str]:
    c = op.check
    window = np.rint(csv_t / c["dt"]).astype(int)
    exact, sd = oracles.moment_slope(c["f"], c["gs"], c["x0"], c["dt"], window, c["trajectories"])
    errors = []
    if not oracles.within(slope, exact, 5.0 * sd):
        errors.append(f"moment exponent {slope!r} is not within 5 sd ({sd:.3g}) of the exact {exact!r}")
    if not oracles.within(oracles.ols_slope(csv_t, csv_log)[0], slope, 1e-9 * max(1.0, abs(slope))):
        errors.append("exponent_fit.csv does not reproduce the reported moment exponent")
    if not (math.isfinite(pathwise) and pathwise < 0):
        errors.append(f"pathwise exponent {pathwise!r} is not finite and negative")
    return errors


def check_cps(op: Op, samples: int, rows: np.ndarray, final: np.ndarray) -> list[str]:
    c = op.check
    n = c["f"].shape[0]
    errors = []
    if samples != c["samples"] or rows.shape[0] != c["samples"]:
        errors.append(f"expected {c['samples']} samples, report says {samples}, csv has {rows.shape[0]}")
        return errors
    w = np.sqrt(c["dt"]) * oracles.philox_normals(c["seed"], 0, 1, c["intervals"], len(c["gs"]))
    em = oracles.em_linear(c["f"], c["gs"], c["x0"], c["dt"], w)
    jumps = rows[rows[:, -1] == 1.0]
    if jumps.shape[0] != c["intervals"]:
        errors.append(f"expected {c['intervals']} impulse rows, got {jumps.shape[0]}")
        return errors
    diff = jumps[:, 1 : 1 + n] - jumps[:, 1 + n : 1 + 2 * n]
    worst = float(np.max(np.abs(diff - em[1:]) / np.maximum(1.0, np.abs(em[1:]))))
    if worst > 1e-12:
        errors.append(f"x - y at impulse rows is {worst:.3g} from the independent scheme")
    if not np.allclose(jumps[:, 0], c["dt"] * np.arange(1, c["intervals"] + 1), rtol=1e-12, atol=0.0):
        errors.append("impulse rows are not at k * dt")
    if np.max(np.abs(final - em[-1])) > 1e-10 * max(1.0, float(np.max(np.abs(em[-1])))):
        errors.append("reported final iterate differs from the independent scheme")
    return errors


def check_certify(op: Op, bound: float | None) -> list[str]:
    c = op.check
    if "bound" not in c:
        return []
    if bound is None or not oracles.within(bound, c["bound"], c["tol"]):
        return [f"max stepsize {bound!r} is not within tol {c['tol']!r} of the exact {c['bound']!r}"]
    return []


def check_converge(op: Op, order: float, rows: int) -> list[str]:
    errors = []
    if not (0.8 <= order <= 1.2):
        errors.append(f"fitted order {order!r} is outside [0.8, 1.2]")
    if rows != op.check["levels"]:
        errors.append(f"errors.csv has {rows} rows, expected {op.check['levels']}")
    return errors


def check_outputs(name: str, op: Op) -> tuple[list[str], dict]:
    """Read one op's artifacts and return (errors, figures such as stepsize_rel_err)."""
    report = op.outdir / "report.txt"
    if not report.exists():
        return [f"{op.name}: no report.txt"], {}
    text = report.read_text()
    figures: dict = {}
    try:
        if name == "ensemble":
            fit = np.loadtxt(op.outdir / "exponent_fit.csv", delimiter=",", skiprows=1, ndmin=2)
            errors = check_ensemble(op, _section(text, "moment exponent:", "exponent"),
                                    _section(text, "pathwise exponent:", "exponent"), fit[:, 0], fit[:, 1])
        elif name == "cps-trace":
            rows = np.loadtxt(op.outdir / "trajectory.csv", delimiter=",", skiprows=1, ndmin=2)
            values = _report_values(report)
            errors = check_cps(op, int(values["samples"]), rows,
                               np.array(values["final iterate"].split(), dtype=float))
        elif name == "certify":
            match = re.search(r"^max stepsize: (\S+)", text, flags=re.M)
            bound = float(match.group(1)) if match else None
            errors = check_certify(op, bound)
            if bound is not None and "bound" in op.check:
                figures["stepsize_rel_err"] = abs(bound / op.check["bound"] - 1.0)
                # bisection to tol returns a bracket midpoint: with an exact
                # feasibility test it is within tol/2 of the bound
                figures["beyond_half_tol"] = abs(bound - op.check["bound"]) > op.check["tol"] / 2
        else:
            rows = len((op.outdir / "errors.csv").read_text().splitlines()) - 1
            errors = check_converge(op, float(_report_values(report)["fitted order (log error vs log dt)"]), rows)
    except (OSError, ValueError, KeyError, IndexError, AttributeError) as exc:
        errors = [f"unreadable output ({type(exc).__name__}: {exc})"]
    return [f"{op.name}: {e}" for e in errors], figures
