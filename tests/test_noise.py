import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from sidelab import noise
from sidelab.errors import GridMismatch
from sidelab.models import LinearSde, make_cps
from sidelab.noise import (
    _BROWNIAN_STREAM,
    _IMPULSE_STREAM,
    NoisePlan,
    _generator,
    _standard_normals,
    block_slots,
    draws,
)
from sidelab.simulate import simulate_side


def make_plan(seed=0, traj=0, m=2, delta=0.25, horizon=16.0):
    return NoisePlan(seed, traj, m, delta, horizon)


def word_map(gen, count, width):
    """The documented draws of `gen`'s next `count` slots, shape (count,
    width): each slot `width` consecutive 64-bit words of
    `gen.integers(1 << 64, dtype=np.uint64)`, and each word's top 53 bits k
    drawn as ndtri((k + 0.5) 2**-53)."""
    words = gen.integers(1 << 64, size=count * width, dtype=np.uint64)
    return ndtri(((words >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53).reshape(count, width)


def one_read(seed, stream, trajs, steps, width):
    """The draws of each trajectory's first `steps` slots, stacked as a
    batched read stacks them: (steps, width, len(trajs))."""
    return np.stack([draws(seed, traj, stream, steps, width) for traj in trajs], axis=-1)


class TestGrid:
    def test_delta_must_divide_horizon(self):
        with pytest.raises(GridMismatch):
            NoisePlan(0, 0, 1, 0.3, 1.0)

    def test_level_must_be_nested(self):
        plan = NoisePlan(0, 0, 1, 0.5, 3.0)  # 6 finest steps
        assert plan.increments(1).shape == (3, 1)
        with pytest.raises(GridMismatch):
            plan.increments(2)  # 6 not divisible by 4


class TestDistribution:
    def test_finest_level_variance(self):
        plan = NoisePlan(2024, 0, 1, 0.015625, 1024.0)  # 65536 draws
        inc = plan.increments(0)[:, 0]
        assert inc.mean() == pytest.approx(0.0, abs=0.002)
        assert inc.var() == pytest.approx(0.015625, rel=0.03)

    def test_xi_moments_over_1e5_draws(self):
        plan = NoisePlan(7, 0, 1, 1.0, 8.0)
        draws = plan.xi_block(100_000)[:, 0]
        assert abs(draws.mean()) < 0.02
        assert abs(draws.var(ddof=1) - 1.0) < 0.03

    def test_stream_independence(self):
        plan = NoisePlan(13, 0, 1, 1.0, 8.0)
        brownian = plan.standard_normals(100_000)[:, 0]
        impulse = plan.xi_block(100_000)[:, 0]
        corr = np.corrcoef(brownian, impulse)[0, 1]
        assert abs(corr) < 0.01


class TestNesting:
    def test_pairwise_identity_is_exact(self):
        plan = make_plan(seed=5)
        inc0 = plan.increments(0)
        inc1 = plan.increments(1)
        inc2 = plan.increments(2)
        assert np.array_equal(inc1, inc0[0::2] + inc0[1::2])
        assert np.array_equal(inc2, inc1[0::2] + inc1[1::2])

    def test_total_is_consistent_across_levels(self):
        plan = make_plan(seed=9, delta=0.125, horizon=16.0)  # 128 = 2^7 steps
        # folding all the way down gives B(horizon) identically per level
        totals = [plan.increments(level) for level in range(8)]
        full = totals[-1]
        assert full.shape[0] == 1
        for level in range(7):
            folded = totals[level]
            while folded.shape[0] > 1:
                folded = folded[0::2] + folded[1::2]
            assert np.array_equal(folded, full)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 100), st.integers(1, 3))
    def test_nesting_property(self, seed, traj, level):
        plan = NoisePlan(seed, traj, 1, 0.5, 16.0)
        coarse = plan.increments(level)
        fine = plan.increments(level - 1)
        assert np.array_equal(coarse, fine[0::2] + fine[1::2])


class TestDeterminism:
    def test_equal_plans_agree_bitwise(self):
        a = make_plan(seed=21, traj=3)
        b = make_plan(seed=21, traj=3)
        assert np.array_equal(a.increments(0), b.increments(0))
        assert np.array_equal(a.xi_block(50), b.xi_block(50))

    def test_xi_is_reproducible(self):
        plan = make_plan(seed=4)
        assert np.array_equal(plan.xi(17), plan.xi(17))

    def test_cache_growth_keeps_prefix(self):
        plan = make_plan(seed=8)
        head = plan.xi_block(10).copy()
        plan.xi(5000)  # force regeneration at a larger size
        assert np.array_equal(plan.xi_block(10), head)

    def test_trajectories_differ(self):
        a = make_plan(seed=21, traj=0)
        b = make_plan(seed=21, traj=1)
        assert not np.array_equal(a.increments(0), b.increments(0))

    def test_xi_index_starts_at_one(self):
        with pytest.raises(ValueError):
            make_plan().xi(0)

    @pytest.mark.parametrize("traj", [-1, 2**63])
    def test_trajectory_outside_the_key_range_is_named(self, traj):
        # shifted past the stream bit, 2**63 would wrap onto trajectory 0's key
        with pytest.raises(ValueError, match=rf"^trajectory must lie in \[0, 2\*\*63\), got {traj}$"):
            make_plan(traj=traj).xi_block(1)


class TestChunkedDraws:
    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_chunks_equal_slices_of_increments(self, monkeypatch, width):
        # Philox makes 4 words per block; blocks of 1 and 2 slots resume inside one
        plan = NoisePlan(17, 5, width, 2.0**-6, 1.0)  # 64 finest steps
        whole = plan.increments(0)
        for slots in (1, 2, 8, 64):
            monkeypatch.setattr(noise, "_BLOCK_SLOTS", slots)
            blocks = noise.normal_blocks(17, _BROWNIAN_STREAM, (4, 5), 64, width, np.sqrt(plan.delta))
            chunks = [block.copy() for block in blocks]
            assert [chunk.shape for chunk in chunks] == [(slots, width, 2)] * (64 // slots)  # time-major
            assert np.array_equal(np.concatenate(chunks)[:, :, 1], whole)


class TestDraws:
    """`draws` is the one single-path read: a fresh generator's first slots,
    mapped as one batch of one, and what both `NoisePlan` reads return."""

    @pytest.mark.parametrize("stream", [_BROWNIAN_STREAM, _IMPULSE_STREAM])
    @pytest.mark.parametrize("width", [0, 1, 2, 3])
    @pytest.mark.parametrize("count", [0, 1, 7])
    @pytest.mark.parametrize("seed, traj", [(0, 0), (2**64 - 1, 2**63 - 1), (0, 2**63 - 1), (2**64 - 1, 0)])
    def test_equals_the_mapped_words_and_the_plan_reads(self, stream, width, count, seed, traj):
        got = draws(seed, traj, stream, count, width)
        want = word_map(_generator(seed, traj, stream), count, width)
        plan = NoisePlan(seed, traj, width, 0.5, 8.0)
        read = plan.standard_normals if stream == _BROWNIAN_STREAM else plan.xi_block
        for other in (want, read(count)):
            assert got.shape == other.shape == (count, width) and got.dtype == other.dtype == np.float64
            assert got.tobytes() == other.tobytes()

    def test_negative_count_raises(self):
        with pytest.raises(ValueError, match="^count must be nonnegative$"):
            draws(0, 0, _BROWNIAN_STREAM, -1, 1)


class TestNormalBlocks:
    """`normal_blocks` keys a batch's generators, walks them in blocks and maps
    and scales each block on a worker thread into reused buffers; its blocks
    must be those of one read made at once, times the scale, bit for bit."""

    TRAJS = (0, 2, 5)
    SCALE = np.sqrt(1e-3)

    @pytest.mark.parametrize(
        "steps, slots, counts",
        [(7, 1, [1] * 7), (44, 16, [16, 16, 12]), (9, 64, [9])],
        ids=["one-slot", "short-last", "past-steps"],
    )
    @pytest.mark.parametrize("width", [0, 1, 2, 3])
    def test_blocks_equal_one_read(self, monkeypatch, steps, slots, counts, width):
        monkeypatch.setattr(noise, "_BLOCK_SLOTS", slots)
        whole = one_read(13, _IMPULSE_STREAM, self.TRAJS, steps, width) * self.SCALE
        blocks = noise.normal_blocks(13, _IMPULSE_STREAM, self.TRAJS, steps, width, self.SCALE)
        # a block is valid only until the next one is requested: copy it
        blocks = [block.copy() for block in blocks]
        assert [block.shape for block in blocks] == [(count, width, 3) for count in counts]
        assert np.array_equal(np.concatenate(blocks), whole)

    @pytest.mark.parametrize("width, trajectories, steps, slots", [(2, 1024, 300, 128), (1, 512, 1100, 512)],
                             ids=["ensemble-bench", "converge-bench"])
    def test_blocks_are_block_slots_long(self, width, trajectories, steps, slots):
        # full blocks of `block_slots` slots and a short last block, at the
        # batch shapes of the ensemble and converge workloads
        assert block_slots(width, trajectories) == slots
        blocks = noise.normal_blocks(2, _BROWNIAN_STREAM, range(trajectories), steps, width, 1.0)
        counts = [block.shape[0] for block in blocks]
        assert counts == [slots] * (steps // slots) + [steps % slots] and steps % slots

    def test_close_after_first_block_joins_the_worker(self, monkeypatch):
        monkeypatch.setattr(noise, "_BLOCK_SLOTS", 16)
        before = threading.active_count()
        blocks = noise.normal_blocks(13, _IMPULSE_STREAM, self.TRAJS, 44, 2, self.SCALE)
        next(blocks)
        assert threading.active_count() == before + 1
        blocks.close()
        assert threading.active_count() == before


class TestBlockSlots:
    """`block_slots` is the one block-length rule of a batched read."""

    def test_power_of_two_within_both_caps(self):
        for width in range(4):
            for trajectories in range(1, 4097):
                slots = block_slots(width, trajectories)
                assert slots & (slots - 1) == 0 and 1 <= slots <= 512
                per_slot = max(width, 1) * trajectories
                if per_slot <= noise._BLOCK_DRAWS:
                    assert slots * width * trajectories <= noise._BLOCK_DRAWS
                # the largest: twice as many slots would pass a cap
                assert slots == 512 or 2 * slots * per_slot > noise._BLOCK_DRAWS

    def test_bench_shapes(self):
        assert (noise._BLOCK_SLOTS, noise._BLOCK_DRAWS) == (512, 1 << 18)
        assert block_slots(2, 1024) == 128 and block_slots(1, 512) == 512


class TestWordHandback:
    """The caller refills the uniforms buffer once the worker has copied it
    out, so block k+1's words are read while the worker still maps block k;
    a map that raises, before its work or after, never leaves the caller
    waiting.  Reads are observed through wrapped generators."""

    TRAJS, STEPS, SLOTS, WIDTH, SCALE = (0, 2, 5), 44, 16, 2, 0.5  # three blocks
    TIMEOUT = 10.0

    @pytest.fixture(autouse=True)
    def _slots(self, monkeypatch):
        monkeypatch.setattr(noise, "_BLOCK_SLOTS", self.SLOTS)

    def _blocks(self):
        blocks = noise.normal_blocks(13, _IMPULSE_STREAM, self.TRAJS, self.STEPS, self.WIDTH, self.SCALE)
        return [block.copy() for block in blocks]

    def _whole(self):
        return one_read(13, _IMPULSE_STREAM, self.TRAJS, self.STEPS, self.WIDTH) * self.SCALE

    def _consume(self):
        """(blocks, None), or (None, message) of the RuntimeError or
        AssertionError that left `normal_blocks`, from a thread that must end
        in time: a caller left waiting fails the test, not the run."""
        done = []

        def consume():
            try:
                done.append((self._blocks(), None))
            except (RuntimeError, AssertionError) as err:
                done.append((None, str(err)))

        runner = threading.Thread(target=consume, daemon=True)
        runner.start()
        runner.join(2 * self.TIMEOUT)
        assert not runner.is_alive(), "normal_blocks left the caller waiting"
        return done[0]

    def _watch_reads(self, monkeypatch, on_block_read):
        """Wrap every generator `normal_blocks` keys; `on_block_read(k)` runs
        once the last generator's row of block k is filled."""
        reads, per_block = [0], len(self.TRAJS)

        class Watched:
            def __init__(self, gen):
                self.gen = gen

            def random(self, *args, **kwargs):
                out = self.gen.random(*args, **kwargs)
                reads[0] += 1
                if reads[0] % per_block == 0:
                    on_block_read(reads[0] // per_block - 1)
                return out

        monkeypatch.setattr(noise, "_generator", lambda *key: Watched(_generator(*key)))

    def test_next_words_are_read_during_the_map(self, monkeypatch):
        reads = [threading.Event() for _ in range(3)]
        maps = []

        def waiting_map(u):
            k = len(maps)
            maps.append(k)
            out = _standard_normals(u)  # the worker handed the buffer back before the map
            # block k's map ends only after block k+1's words are read
            if k + 1 < len(reads) and not reads[k + 1].wait(self.TIMEOUT):
                raise AssertionError(f"block {k + 1}'s words were not read during block {k}'s map")
            return out

        whole = self._whole()
        self._watch_reads(monkeypatch, lambda k: reads[k].set())
        monkeypatch.setattr(noise, "_standard_normals", waiting_map)
        blocks, error = self._consume()
        assert error is None and maps == [0, 1, 2]
        assert np.array_equal(np.concatenate(blocks), whole)

    def test_words_are_not_refilled_before_the_copy(self, monkeypatch):
        # each block's handback is slow: a caller that did not wait for it
        # would read block k+1's words into the buffer before block k's copy
        log = []

        class SlowEvent(threading.Event):
            def set(self):
                time.sleep(0.05)
                log.append("copied")
                super().set()

        whole = self._whole()
        self._watch_reads(monkeypatch, lambda k: log.append(f"read {k}"))
        monkeypatch.setattr(noise, "threading", SimpleNamespace(Event=SlowEvent))
        assert np.array_equal(np.concatenate(self._blocks()), whole)
        assert log == ["read 0", "copied", "read 1", "copied", "read 2", "copied"]

    @pytest.mark.parametrize("bad", [0, 1, 2])
    @pytest.mark.parametrize("when", ["before-map", "after-map"])
    def test_raising_map_propagates(self, monkeypatch, bad, when):
        maps = []

        def failing(u):
            maps.append(None)
            if len(maps) - 1 == bad:
                if when == "after-map":
                    _standard_normals(u)
                raise RuntimeError(f"map {bad} fails")
            return _standard_normals(u)

        monkeypatch.setattr(noise, "_standard_normals", failing)
        before = threading.active_count()
        assert self._consume() == (None, f"map {bad} fails")
        assert threading.active_count() == before


class TestKeying:
    """A generator is keyed without OS entropy, with the words of `Philox(key=...)`."""

    @pytest.mark.parametrize("stream", [_BROWNIAN_STREAM, _IMPULSE_STREAM])
    @pytest.mark.parametrize("traj", [0, 5, 2**63 - 1])
    @pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
    def test_words_of_the_philox_key(self, seed, traj, stream):
        want = np.random.Philox(key=np.array([seed, traj << 1 | stream], dtype=np.uint64)).random_raw(9)
        assert np.array_equal(_generator(seed, traj, stream).bit_generator.random_raw(9), want)

    @pytest.mark.parametrize("n_words, dtype", [(3, np.uint64), (1, np.uint64), (2, np.uint32), (4, np.uint32)])
    def test_key_refuses_other_requests(self, n_words, dtype):
        key = _generator(1, 5, _IMPULSE_STREAM).bit_generator.seed_seq
        assert key.generate_state(2, np.uint64).tolist() == [1, 11]
        with pytest.raises(ValueError, match="^a Philox key is 2 uint64 words"):
            key.generate_state(n_words, dtype)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_the_key_range_is_named(self, seed):
        with pytest.raises(ValueError, match=rf"^seed must lie in \[0, 2\*\*64\), got {seed}$"):
            _generator(seed, 0, _BROWNIAN_STREAM)


class TestPinnedDraws:
    """The draws are the documented map of each stream's 64-bit words, read in
    `gen.integers(1 << 64, dtype=np.uint64)` order (`word_map`), though the
    library reads them as `Generator.random` uniforms."""

    COUNTS = (1, 2, 3, 5, 9, 44)

    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_uniforms_are_the_top_bits_of_integers_words(self, width):
        # Philox makes 4 words per block; split reads must resume inside a block
        offsets = np.cumsum(self.COUNTS[:-1]) * width
        assert np.count_nonzero(offsets % 4) >= 3
        uniform, ints = _generator(11, 3, _BROWNIAN_STREAM), _generator(11, 3, _BROWNIAN_STREAM)
        for count in self.COUNTS:
            words = ints.integers(1 << 64, size=count * width, dtype=np.uint64)
            want = (words >> np.uint64(11)).astype(np.float64) * 2.0**-53
            assert np.array_equal(uniform.random(count * width), want)

    @pytest.mark.parametrize("width", [0, 1, 2, 3])
    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_draws_are_the_map_of_integers_words(self, seed, width):
        for stream in (_BROWNIAN_STREAM, _IMPULSE_STREAM):
            want = word_map(_generator(seed, 7, stream), 44, width)
            assert np.array_equal(draws(seed, 7, stream, 44, width), want)

    @pytest.mark.parametrize("width", [0, 1, 2, 3])
    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_blocks_are_the_map_of_integers_words(self, monkeypatch, seed, width):
        # blocks of 1 or 2 slots resume inside a Philox block at every width > 0
        trajs, slot_counts = (0, 1, 7), (1, 2, 8)
        assert width == 0 or any(slots * width % 4 for slots in slot_counts)
        want = [word_map(_generator(seed, traj, _IMPULSE_STREAM), 44, width) for traj in trajs]
        for slots in slot_counts:
            monkeypatch.setattr(noise, "_BLOCK_SLOTS", slots)
            blocks = noise.normal_blocks(seed, _IMPULSE_STREAM, trajs, 44, width, 1.0)
            got = np.concatenate([block.copy() for block in blocks])
            for col in range(len(trajs)):
                assert np.array_equal(got[:, :, col], want[col])

    def test_all_ones_word_draws_a_finite_normal(self):
        # the words' uniforms, as `Generator.random` reads them
        words = np.array([2**64 - 1, 2**64 - 1 - (1 << 11), 0], dtype=np.uint64)
        u = (words >> np.uint64(11)).astype(np.float64) * 2.0**-53
        assert u[0] == 1.0 - 2.0**-53
        got = _standard_normals(u)
        # k = 2**53 - 1 rounds k + 0.5 up to 2**53; u is clamped below 1
        assert got[0] == ndtri(1.0 - 2.0**-53) == pytest.approx(8.2095361516, abs=1e-10)
        # the neighbouring word and the smallest one keep their draws
        assert got[1] == ndtri((2.0**53 - 1.5) * 2.0**-53) == ndtri(1.0 - 2.0**-52)
        assert got[2] == ndtri(0.5 * 2.0**-53)


def count_generated(monkeypatch):
    """Count the normals `noise._standard_normals` generates from now on."""
    generated = [0]

    def counted(u):
        out = _standard_normals(u)
        generated[0] += out.size
        return out

    monkeypatch.setattr(noise, "_standard_normals", counted)
    return generated


class TestDrawBudget:
    def test_hybrid_run_generates_only_what_it_uses(self, monkeypatch):
        f = np.array([[-2.0, 0.3, 0.0], [0.1, -1.5, 0.2], [0.0, -0.2, -1.8]])
        gs = (0.3 * np.eye(3), np.array([[0.0, 0.2, 0.0], [0.1, 0.0, 0.0], [0.0, 0.0, 0.2]]))
        dt, intervals, substeps = 2e-3, 500, 32
        side = make_cps(LinearSde(f, gs), dt)
        generated = count_generated(monkeypatch)
        traj = simulate_side(side, [1.0, -0.5, 0.25, 0.0, 0.0, 0.0], substeps, intervals * dt, seed=4)
        jumps = int(traj.impulse_flag.sum())
        assert (traj.samples - 1 - jumps, jumps) == (16_000, 500)
        assert generated[0] == (16_000 + 500) * 2

    @pytest.mark.parametrize("count", [65, 1025])
    def test_reads_just_past_a_power_of_two(self, monkeypatch, count):
        plan = make_plan(seed=3, traj=2)
        generated = count_generated(monkeypatch)
        for read, stream in ((plan.standard_normals, _BROWNIAN_STREAM), (plan.xi_block, _IMPULSE_STREAM)):
            fresh = word_map(_generator(3, 2, stream), count, plan.noise_dim)
            before = generated[0]
            assert np.array_equal(read(count), fresh)
            assert generated[0] - before == count * plan.noise_dim

    def test_xi_is_a_row_of_the_block(self):
        plan = make_plan(seed=6)
        block = plan.xi_block(70)
        for k in (1, 2, 64, 65, 70):
            assert np.array_equal(plan.xi(k), block[k - 1])
