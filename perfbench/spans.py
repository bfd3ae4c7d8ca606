"""Span recorder wrapped around the public functions of each `sidelab` layer,
and the per-layer metrics derived from the recorded spans.

Spans live in memory as (name, start, end, parent, op, n) tuples and are
written once, at the end of the traced run.  `parent` is the index of the
enclosing span (-1 for a root), `op` the index of the CLI run that caused it,
and `n` the system dimension for the certificate layers (0 elsewhere).
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# (module, attribute, span name); every alias of the wrapped function that a
# `from ... import` made in another sidelab module is rebound too.
LAYERS = [
    ("noise", "_standard_normals", "noise._standard_normals"),
    ("estimate", "run_ensemble", "estimate.run_ensemble"),
    ("estimate", "fit_moment_window", "estimate.fit_moment_window"),
    ("estimate", "as_exponent", "estimate.as_exponent"),
    ("estimate", "strong_error_sup", "estimate.strong_error_sup"),
    ("simulate", "simulate_cps", "simulate.simulate_cps"),
    ("simulate", "simulate_side", "simulate.simulate_side"),
    ("simulate", "euler_maruyama", "simulate.euler_maruyama"),
    ("simulate", "trajectory_rows", "simulate.trajectory_rows"),
    ("matrix_kernels", "solve_ct_lyapunov", "matrix_kernels.solve_ct_lyapunov"),
    ("matrix_kernels", "solve_dt_lyapunov", "matrix_kernels.solve_dt_lyapunov"),
    ("matrix_kernels", "pencil_top", "matrix_kernels.pencil_top"),
    ("stability", "cp_lyapunov_feasible", "stability.cp_lyapunov_feasible"),
    ("stability", "max_stepsize", "stability.max_stepsize"),
    ("cli", "main", "cli.main"),
    ("cli", "load_config", "cli.load_config"),
    ("cli", "emit_plot_data", "cli.emit_plot_data"),
]
# NoisePlan methods are patched on the class, which every importer shares
NOISE_METHODS = ("xi_block", "standard_normals", "increments", "xi")
NOISE_API = {f"noise.{m}" for m in NOISE_METHODS}


def _dimension(name: str, args: tuple) -> int:
    if name == "matrix_kernels.solve_ct_lyapunov":
        return len(args[0])
    if name == "stability.max_stepsize":
        return args[0].dim
    return 0


class Recorder:
    """Collects spans and counts from wrapped layer functions."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.op = 0
        self._stack: list[tuple[int, str]] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent, parent_name = self._stack[-1] if self._stack else (-1, "")
            self.spans.append(None)
            self._stack.append((index, name))
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.op, _dimension(name, args))
            self._count(name, parent_name, args, out)
            return out

        return traced

    def _count(self, name: str, parent_name: str, args: tuple, out) -> None:
        if name == "noise._standard_normals":
            self.counts["noise.draws_generated"] += out.size
        elif name in NOISE_API and parent_name not in NOISE_API:
            # a call returns a prefix of its stream, so only slots past the
            # plan's high-water mark are new draws delivered to the caller
            plan = args[0]
            if name == "noise.increments":
                stream, upto = 0, plan.finest_steps
            elif name == "noise.standard_normals":
                stream, upto = 0, args[1]
            else:  # xi_block(count) and xi(k) read the impulse stream
                stream, upto = 1, args[1]
            seen = plan.__dict__.setdefault("_traced_high_water", [0, 0])
            if upto > seen[stream]:
                self.counts["noise.draws_used"] += (upto - seen[stream]) * plan.noise_dim
                seen[stream] = upto
        elif name == "cli.emit_plot_data":
            self.counts["cli.csv_bytes"] += sum(p.stat().st_size for p in out)

    def install(self) -> None:
        """Wrap every traced function in the already-imported sidelab package."""
        modules = [m for k, m in sys.modules.items() if k == "sidelab" or k.startswith("sidelab.")]
        for module, attr, name in LAYERS:
            original = getattr(sys.modules[f"sidelab.{module}"], attr)
            traced = self.wrap(name, original)
            for mod in modules:
                for alias, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, alias, traced)
        plan = sys.modules["sidelab.noise"].NoisePlan
        for method in NOISE_METHODS:
            setattr(plan, method, self.wrap(f"noise.{method}", getattr(plan, method)))
        init = plan.__init__

        def counted_init(obj, *args, **kwargs):
            self.counts["noise.plans"] += 1
            init(obj, *args, **kwargs)

        plan.__init__ = counted_init


def self_times(spans: list[tuple]) -> list[float]:
    """Each span's duration minus the time covered by its direct children
    (children of one span never overlap: the program is single-threaded)."""
    own = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(spans: list[tuple], counts: dict, passes: int) -> dict[str, float]:
    """Per-pass layer figures from a traced run of `passes` workload passes."""
    own = self_times(spans)
    self_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for (name, *_), t in zip(spans, own):
        self_s[name] += t
        calls[name] += 1

    per_n: dict[tuple, list[float]] = defaultdict(list)
    nested: Counter = Counter()   # calls made inside a max_stepsize that found a bound
    bounded = 0
    for i, (name, start, end, parent, _, n) in enumerate(spans):
        if name in ("matrix_kernels.solve_ct_lyapunov", "stability.max_stepsize"):
            per_n[name, n].append(end - start)
        if name == "stability.max_stepsize":
            inner = _descendant_names(spans, i)
            if inner["stability.cp_lyapunov_feasible"] > 1:
                bounded += 1
                nested.update(inner)

    def per_pass(x):
        return x / passes

    m = {
        "noise.draw_s": per_pass(sum(t for k, t in self_s.items() if k.startswith("noise."))),
        "noise.draws_used": per_pass(counts.get("noise.draws_used", 0)),
        "noise.draws_generated": per_pass(counts.get("noise.draws_generated", 0)),
        "noise.plans": per_pass(counts.get("noise.plans", 0)),
        "estimate.run_ensemble_s": per_pass(self_s["estimate.run_ensemble"]),
        "estimate.run_ensemble_calls": per_pass(calls["estimate.run_ensemble"]),
        "estimate.fit_s": per_pass(self_s["estimate.fit_moment_window"] + self_s["estimate.as_exponent"]),
        "estimate.strong_error_sup_s": per_pass(self_s["estimate.strong_error_sup"]),
        "simulate.simulate_cps_s": per_pass(self_s["simulate.simulate_cps"]),
        "simulate.euler_maruyama_s": per_pass(self_s["simulate.euler_maruyama"]),
        "simulate.trajectory_rows_s": per_pass(self_s["simulate.trajectory_rows"]),
        "cli.main_s": per_pass(self_s["cli.main"]),
        "cli.load_config_s": per_pass(self_s["cli.load_config"]),
        "cli.emit_plot_data_s": per_pass(self_s["cli.emit_plot_data"]),
        "cli.csv_bytes": per_pass(counts.get("cli.csv_bytes", 0)),
        "matrix_kernels.solve_ct_lyapunov_s": per_pass(self_s["matrix_kernels.solve_ct_lyapunov"]),
        "matrix_kernels.solve_ct_lyapunov_calls": per_pass(calls["matrix_kernels.solve_ct_lyapunov"]),
        "matrix_kernels.pencil_top_s": per_pass(self_s["matrix_kernels.pencil_top"]),
        "stability.max_stepsize_s": per_pass(self_s["stability.max_stepsize"]),
        "stability.cp_lyapunov_feasible_s": per_pass(self_s["stability.cp_lyapunov_feasible"]),
        "stability.cp_lyapunov_feasible_calls": per_pass(calls["stability.cp_lyapunov_feasible"]),
        "stability.cp_lyapunov_feasible_per_max_stepsize":
            nested["stability.cp_lyapunov_feasible"] / bounded if bounded else 0.0,
        "matrix_kernels.solve_ct_lyapunov_per_max_stepsize":
            nested["matrix_kernels.solve_ct_lyapunov"] / bounded if bounded else 0.0,
    }
    generated = counts.get("noise.draws_generated", 0)
    m["noise.useful_ratio"] = counts.get("noise.draws_used", 0) / generated if generated else 0.0
    for n in (4, 10, 20, 30):
        for name, key in (("matrix_kernels.solve_ct_lyapunov", "matrix_kernels.solve_ct_lyapunov_s"),
                          ("stability.max_stepsize", "stability.max_stepsize_s")):
            times = per_n.get((name, n), [])
            m[f"{key}.n{n}"] = sum(times) / len(times) if times else 0.0
    return m


def _descendant_names(spans: list[tuple], root: int) -> Counter:
    """Names of the spans nested (at any depth) inside span `root`; spans are
    stored in call order, so descendants follow their ancestor contiguously."""
    names: Counter = Counter()
    inside = {root}
    for j in range(root + 1, len(spans)):
        if spans[j][3] not in inside:
            break
        inside.add(j)
        names[spans[j][0]] += 1
    return names
