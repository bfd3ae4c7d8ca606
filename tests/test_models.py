import math
from dataclasses import replace

import numpy as np
import pytest

from sidelab.errors import NotLinear, ValidationFailed
from sidelab.models import (
    ImpulseSchedule,
    LinearSde,
    SideSystem,
    VectorFieldSde,
    _as_vector,
    linear_compact_form,
    make_cps,
)
from sidelab.simulate import simulate_side
from side_blocks import random_blocks, side_from_blocks, stacked_as_x


class TestLinearSde:
    def test_scalar_coefficients_invert_the_scalar_helper(self):
        assert LinearSde.scalar(-4.0, 1.0).scalar_coefficients == (-4.0, 1.0)
        assert LinearSde(np.array([[-2.0]])).scalar_coefficients == (-2.0, 0.0)
        assert LinearSde(np.array([[-2.0]]), (np.eye(1), np.eye(1))).scalar_coefficients is None
        assert LinearSde(-np.eye(2)).scalar_coefficients is None

    def test_scalar_helper(self):
        sde = LinearSde.scalar(-4.0, 1.0)
        assert sde.dim == 1 and sde.noise_dim == 1
        assert sde.drift([2.0]) == pytest.approx([-8.0])
        assert sde.diffusion([2.0])[0, 0] == pytest.approx(2.0)

    def test_diffusion_columns_are_noise_terms(self):
        g1 = np.array([[0.0, 1.0], [0.0, 0.0]])
        g2 = np.eye(2)
        sde = LinearSde(-np.eye(2), (g1, g2))
        x = np.array([1.0, 2.0])
        g = sde.diffusion(x)
        assert np.allclose(g[:, 0], g1 @ x)
        assert np.allclose(g[:, 1], g2 @ x)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            LinearSde(np.eye(2), (np.eye(3),))

    def test_matrices_are_a_read_only_copy(self):
        # the caller's arrays are copied once into the stack, so changing
        # them later does not change the system, and the stack cannot change
        f, g = -np.eye(2), np.ones((2, 2))
        sde = LinearSde(f, (g,))
        f[0, 0], g[0, 0] = 5.0, 5.0
        assert sde.stack.tolist() == [(-np.eye(2)).tolist(), np.ones((2, 2)).tolist()]
        assert sde.drift_matrix.base is sde.stack and sde.noise_matrices[0].base is sde.stack
        with pytest.raises(ValueError):
            sde.drift_matrix[0, 0] = 1.0

    def test_equality_is_identity_and_hashable(self):
        # comparing the arrays field by field would raise on a 2-d system
        a = LinearSde(-np.eye(2), (np.ones((2, 2)),))
        b = LinearSde(-np.eye(2), (np.ones((2, 2)),))
        assert a != b and not a == b
        assert a == a
        assert {a: 1, b: 2}[a] == 1

    @pytest.mark.parametrize("n", [1, 3, 9, 10, 13, 30])
    @pytest.mark.parametrize("m", [0, 1, 3])
    def test_diffusion_is_bitwise_the_column_stack(self, n, m):
        rng = np.random.default_rng(10 * n + m)
        gs = tuple(rng.normal(size=(n, n)) for _ in range(m))
        sde = LinearSde(-np.eye(n), gs)
        for x in (rng.normal(size=n), rng.normal(size=2 * n)[::2]):
            got = sde.diffusion(x)
            want = np.column_stack([g @ x for g in gs]) if m else np.zeros((n, 0))
            assert got.shape == (n, m) and got.flags.c_contiguous
            assert got.tobytes() == want.tobytes()
            w = rng.normal(size=m)
            assert (got @ w).tobytes() == (want @ w).tobytes()


class TestAsVector:
    @pytest.mark.parametrize(
        "x",
        [np.arange(3.0), np.arange(6.0)[::2], np.arange(9.0).reshape(3, 3)[:, 1], np.eye(3) @ np.ones(3)],
    )
    def test_float64_vector_is_returned_as_is(self, x):
        assert _as_vector(x, 3) is x

    @pytest.mark.parametrize(
        "x, want",
        [
            ([1, 2, 3], [1.0, 2.0, 3.0]),
            (2, [2.0]),
            (np.float64(2.5), [2.5]),
            (np.array(2.5), [2.5]),
            (np.arange(3, dtype=np.float32), [0.0, 1.0, 2.0]),
            (np.arange(3, dtype=np.int64), [0.0, 1.0, 2.0]),
            (np.arange(3.0).astype(">f8"), [0.0, 1.0, 2.0]),
            (np.ma.masked_array([1.0, 2.0, 3.0]), [1.0, 2.0, 3.0]),
        ],
    )
    def test_other_inputs_convert(self, x, want):
        v = _as_vector(x, len(want))
        assert type(v) is np.ndarray and v.dtype == np.float64 and v.dtype.isnative
        assert v.tolist() == want
        assert v.tobytes() == np.atleast_1d(np.asarray(x, dtype=float)).tobytes()

    @pytest.mark.parametrize(
        "x, message",
        [
            (np.ones((3, 1)), "z must be a vector, got shape (3, 1)"),
            (np.ones((1, 3)), "z must be a vector, got shape (1, 3)"),
            (np.ones(2), "z must have length 3, got 2"),
            ([1.0, 2.0, 3.0, 4.0], "z must have length 3, got 4"),
            (np.ones(6)[::3], "z must have length 3, got 2"),
        ],
    )
    def test_bad_shapes_raise(self, x, message):
        with pytest.raises(ValueError) as err:
            _as_vector(x, 3, "z")
        assert str(err.value) == message


class TestVectorFieldSde:
    def test_origin_check_at_construction(self):
        with pytest.raises(ValidationFailed, match=r"^drift\(0\) = 1 != 0: origin is not an equilibrium$"):
            VectorFieldSde(
                dim=1,
                noise_dim=0,
                drift_fn=lambda x, t: np.array([1.0 + x[0]]),
                diffusion_fn=lambda x, t: np.zeros((1, 0)),
            )
        # the diffusion vanishes at t = 0 but not at the second probe, t = 1
        with pytest.raises(ValidationFailed, match=r"^diffusion\(0\) = 2 != 0: origin is not an equilibrium$"):
            VectorFieldSde(
                dim=1,
                noise_dim=1,
                drift_fn=lambda x, t: -x,
                diffusion_fn=lambda x, t: (x + 2.0 * t).reshape(1, 1),
            )

    @pytest.mark.parametrize("name", ["drift", "diffusion"])
    @pytest.mark.parametrize("t_off", [0.0, 1.0])
    def test_each_map_is_probed_at_both_times(self, name, t_off):
        # the map leaves the origin only at t = t_off, so exactly one probe sees it
        def off(t):
            return 3.0 if t == t_off else 0.0

        maps = {"drift_fn": lambda x, t: -x, "diffusion_fn": lambda x, t: (0.5 * x).reshape(1, 1)}
        if name == "drift":
            maps["drift_fn"] = lambda x, t: -x + off(t)
        else:
            maps["diffusion_fn"] = lambda x, t: (0.5 * x + off(t)).reshape(1, 1)
        with pytest.raises(ValidationFailed, match=rf"^{name}\(0\) = 3 != 0: origin is not an equilibrium$"):
            VectorFieldSde(dim=1, noise_dim=1, **maps)

    def test_valid_system_constructs(self):
        sde = VectorFieldSde(
            dim=2,
            noise_dim=1,
            drift_fn=lambda x, t: -x,
            diffusion_fn=lambda x, t: 0.5 * x.reshape(2, 1),
        )
        assert np.allclose(sde.drift([1.0, 2.0]), [-1.0, -2.0])


class TestSchedule:
    def test_equal_gaps(self):
        sched = ImpulseSchedule.equal_gaps(0.5)
        assert sched.time(4) == pytest.approx(2.0)
        assert sched.dt_under == sched.dt_over == 0.5

    def test_gap_bounds_validated(self):
        with pytest.raises(ValueError):
            ImpulseSchedule(lambda k: float(k), dt_under=2.0, dt_over=1.0)

    def test_must_start_at_zero(self):
        with pytest.raises(ValueError):
            ImpulseSchedule(lambda k: 1.0 + k, dt_under=1.0, dt_over=1.0)

    def test_nan_start_is_rejected(self):
        with pytest.raises(ValueError, match="start at t_0 = 0"):
            ImpulseSchedule(lambda k: math.nan + k, dt_under=1.0, dt_over=1.0)


class TestMakeCps:
    def test_scalar_deterministic_maps(self):
        # dt = 0.5, drift -x: jump mean is +0.5 (x - y), no noise gain
        side = make_cps(LinearSde.scalar(-1.0, 0.0), 0.5)
        x, y = np.array([2.0]), np.array([0.5])
        assert side.jump_y(x, y, 1)[0] == pytest.approx(0.5 * (2.0 - 0.5))
        assert np.all(side.jump_y_gain(x, y, 1) == 0.0)

    def test_equilibrium_jump_vanishes(self):
        side = make_cps(LinearSde.scalar(-3.0, 0.7), 0.25)
        x = np.array([1.3])
        assert side.jump_y(x, x, 5)[0] == 0.0
        assert np.all(side.jump_y_gain(x, x, 5) == 0.0)
        zero = np.zeros(1)
        assert side.jump_y(zero, zero, 1)[0] == 0.0

    def test_linear_maps_match_matrices(self):
        rng = np.random.default_rng(1)
        f = rng.normal(size=(3, 3))
        gs = (rng.normal(size=(3, 3)), rng.normal(size=(3, 3)))
        dt = 0.2
        side = make_cps(LinearSde(f, gs), dt)
        for _ in range(5):
            x = rng.normal(size=3)
            y = rng.normal(size=3)
            want_mean = -dt * (f @ (x - y))
            got_mean = side.jump_y(x, y, 2)
            assert np.allclose(got_mean, want_mean, rtol=1e-13)
            gain = side.jump_y_gain(x, y, 2)
            for j, g in enumerate(gs):
                assert np.allclose(gain[:, j], -math.sqrt(dt) * (g @ (x - y)), rtol=1e-13)

    def test_x_block_has_no_impulse(self):
        side = make_cps(LinearSde.scalar(-1.0, 0.5), 0.1)
        x = np.array([4.0])
        assert np.all(side.jump_x(x, 1) == 0.0)
        assert np.all(side.jump_x_gain(x, 1) == 0.0)


class TestCompactForm:
    def test_stacking(self):
        side = make_cps(LinearSde.scalar(-1.0, 0.5), 0.5)
        z = np.array([1.0, 0.2])
        assert side.drift(z, 0.0)[0] == pytest.approx(side.drift_x(z[:1], 0.0)[0])
        assert side.drift(z, 0.0)[1] == pytest.approx(side.drift_y(z[:1], z[1:], 0.0)[0])

    def test_origin_vanishes(self):
        side = make_cps(LinearSde.scalar(-2.0, 1.0), 0.25)
        z0 = np.zeros(2)
        assert np.all(side.drift(z0, 0.0) == 0.0)
        assert np.all(side.diffusion(z0, 0.0) == 0.0)
        assert np.all(side.jump(z0, 1) == 0.0)
        assert np.all(side.jump_gain(z0, 1) == 0.0)

    def test_jump_example(self):
        # drift -x, dt = 0.5, z = (1, 0.2): jump mean is (0, 0.5 * 0.8)
        side = make_cps(LinearSde.scalar(-1.0, 0.0), 0.5)
        jump = side.jump(np.array([1.0, 0.2]), 1)
        assert jump[0] == 0.0
        assert jump[1] == pytest.approx(0.4, rel=1e-14)

    def test_compact_and_decomposed_paths_agree(self):
        sde = LinearSde(
            np.array([[-1.0, 0.3], [0.0, -2.0]]),
            (np.array([[0.4, 0.0], [0.1, 0.2]]),),
        )
        side = make_cps(sde, 0.5)
        wrapper = stacked_as_x(side)
        z0 = np.array([1.0, -0.5, 0.0, 0.0])
        a = simulate_side(side, z0, 4, 2.0, seed=3)
        b = simulate_side(wrapper, z0, 4, 2.0, seed=3)
        assert np.array_equal(np.hstack([a.x, a.y]), b.x)
        assert np.array_equal(a.times, b.times)

    def test_gain_shapes_without_y_block(self):
        sde = LinearSde(
            np.array([[-1.0, 0.3], [0.0, -2.0]]),
            (np.array([[0.4, 0.0], [0.1, 0.2]]),),
        )
        side = stacked_as_x(make_cps(sde, 0.5))
        z = np.array([1.0, -0.5, 0.2, 0.1])
        assert side.diffusion(z, 0.0).shape == (4, 1)
        assert side.jump_gain(z, 1).shape == (4, 1)


class TestLinearCompactForm:
    @pytest.mark.parametrize("n, q, m", [(2, 3, 2), (1, 1, 1), (3, 0, 1), (2, 2, 0)])
    def test_recovers_known_blocks(self, n, q, m):
        drift, noise, jump, gains = random_blocks(np.random.default_rng(n + q + m), n, q, m)
        side = side_from_blocks(n, drift, noise, jump, gains, ImpulseSchedule.equal_gaps(0.5))
        flow, jumps = linear_compact_form(side)
        assert np.array_equal(flow, np.stack([drift, *noise]))
        assert np.array_equal(jumps, np.stack([jump, *gains]))
        assert flow.flags.c_contiguous and jumps.flags.c_contiguous

    def test_cps_blocks(self):
        f = np.array([[-1.0, 0.3], [0.2, -2.0]])
        g = np.array([[0.4, 0.0], [0.1, 0.2]])
        dt = 0.25
        flow, jump = linear_compact_form(make_cps(LinearSde(f, (g,)), dt))
        zero = np.zeros((2, 2))
        assert np.array_equal(flow, np.stack([np.block([[f, zero], [f, zero]]), np.block([[g, zero], [g, zero]])]))
        s = math.sqrt(dt)
        assert np.array_equal(jump, np.stack([np.block([[zero, zero], [-dt * f, dt * f]]),
                                              np.block([[zero, zero], [-s * g, s * g]])]))

    @pytest.mark.parametrize("name, label", [("drift_y", "drift"), ("diffusion_y", "diffusion"),
                                             ("jump_y", "jump"), ("jump_y_gain", "jump_gain")])
    def test_names_the_evaluator_that_is_not_linear(self, name, label):
        # scaled by 1 + t (or 1 + k): exact at the basis probes, off at the others
        side = with_map(CPS, name, lambda fn: lambda *args: (1.0 + args[-1]) * np.asarray(fn(*args)))
        with pytest.raises(NotLinear, match=rf"^{label} of the compact form failed the linearity probe$"):
            linear_compact_form(side)


# a SideSystem's evaluators in the order the constructor probes their origins
EVALUATORS = ["drift_x", "diffusion_x", "drift_y", "diffusion_y",
              "jump_x", "jump_x_gain", "jump_y", "jump_y_gain"]
CPS = make_cps(LinearSde(np.array([[-1.0, 0.3], [0.2, -2.0]]), (np.array([[0.4, 0.0], [0.1, 0.2]]),)), 0.25)


def with_map(side, name, wrap):
    """`side` with the evaluator `name` replaced by wrap(evaluator)."""
    return replace(side, **{name: wrap(getattr(side, name))})


def shifted(fn):
    return lambda *args: np.asarray(fn(*args)) + 0.5


class TestOriginProbe:
    def test_shifted_origin_fails(self):
        side = make_cps(LinearSde.scalar(-1.0, 0.0), 0.5)
        maps = {name: getattr(side, name) for name in EVALUATORS} | {"drift_x": lambda x, t: x - x + 1.0}
        with pytest.raises(ValidationFailed, match=r"^drift_x\(0\) = 1 != 0: origin is not an equilibrium$"):
            SideSystem(n=1, q=1, noise_dim=1, **maps, schedule=side.schedule)

    @pytest.mark.parametrize("name", EVALUATORS)
    def test_each_evaluator_origin_is_checked(self, name):
        # `replace` constructs anew, so it probes the swapped-in map
        with pytest.raises(ValidationFailed, match=rf"^{name}\(0\) = 0.5 != 0: origin is not an equilibrium$"):
            with_map(CPS, name, shifted)

    @pytest.mark.parametrize("name", EVALUATORS)
    def test_probe_is_at_t0_and_k1(self, name):
        # the map leaves the origin only at its time (or index) argument's
        # probe value, t = 0 for a flow map and k = 1 for a jump map
        probe = 1 if name.startswith("jump") else 0.0

        def bent(fn):
            return lambda *args: np.asarray(fn(*args)) + (0.5 if args[-1] == probe else 0.0)

        with pytest.raises(ValidationFailed, match=rf"^{name}\(0\) = 0.5 != 0: origin is not an equilibrium$"):
            with_map(CPS, name, bent)

    def test_nan_at_the_origin_fails(self):
        with pytest.raises(ValidationFailed, match=r"^jump_y\(0\) = nan != 0: origin is not an equilibrium$"):
            with_map(CPS, "jump_y", lambda fn: lambda *args: math.nan * np.asarray(fn(*args)))

    def test_first_broken_origin_is_named(self):
        with pytest.raises(ValidationFailed, match=r"^drift_y\(0\)"):
            replace(CPS, jump_x=shifted(CPS.jump_x), drift_y=shifted(CPS.drift_y))
