"""Reproducible randomness: refinable Brownian increments and impulse draws.

Every draw is counter-based: a pure function of (seed, trajectory, stream,
slot), realized with a Philox generator keyed by seed and trajectory/stream
and with normal variates produced by inverse-CDF of its 64-bit words, each
read as the uniform k 2**-53 of its top 53 bits k.  Nothing is
rejection-sampled, so trajectories agree bitwise in any order or batch.  A
batched read is time-major: (slots, width, generators).

The library reads through two functions, both keyed by (seed, trajectory,
stream).  `draws` is the one single-path read: the first slots of one pair,
as the single-path integrators of `simulate` take them.  `normal_blocks` is
the one batched read: it streams a batch of trajectories in blocks of
`block_slots(width, trajectories)` slots, the one block-length rule.  The
caller's thread fills each block's uniforms (the generator loop, which holds
the GIL); a worker thread that lives as long as the stream copies them out
and maps them to normals with `_standard_normals`, which does not.  The
caller fills block k+1 once block k is copied out, not once it is mapped.

Two independent streams are kept per trajectory: one for Brownian-motion
increments on the finest grid (refinable by dyadic coarsening for
convergence studies) and one for the impulse draws consumed at jump times.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence
from scipy.special import ndtri

from .errors import GridMismatch

_BROWNIAN_STREAM = 0
_IMPULSE_STREAM = 1

_GRID_RTOL = 1e-9

# the caps of `block_slots`: slots per block, and draws per block of a batch
_BLOCK_SLOTS = 512
_BLOCK_DRAWS = 1 << 18


class _Key(ISeedSequence):
    """The seed sequence that hands Philox its 128-bit key.  Philox derives its
    key from a seed sequence with `generate_state(2, np.uint64)`; with
    `Philox(key=...)` it would first build, and discard, a `SeedSequence()`
    from OS entropy.  Any other request raises ValueError."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 2 or np.dtype(dtype) != np.uint64:
            raise ValueError(f"a Philox key is 2 uint64 words, not {n_words} of {np.dtype(dtype)}")
        return np.array(self.words, dtype=np.uint64)


def _generator(seed: int, trajectory: int, stream: int) -> np.random.Generator:
    """The Philox generator of one (trajectory, stream) pair, at slot 0, keyed
    with the words (seed, trajectory << 1 | stream).

    Raises ValueError for a seed outside [0, 2**64), the range of its key
    word, and for a trajectory outside [0, 2**63), which would alias another
    trajectory's key once shifted past the stream bit.
    """
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    if not 0 <= trajectory < 1 << 63:
        raise ValueError(f"trajectory must lie in [0, 2**63), got {trajectory}")
    return np.random.Generator(np.random.Philox(_Key([seed, trajectory << 1 | stream])))


def _standard_normals(u: np.ndarray) -> np.ndarray:
    """N(0,1) draws, in place, from the uniforms u = k 2**-53 of
    `Generator.random`, k the top 53 bits of each word; returns `u`.  It runs
    without the GIL, so a worker thread can map one block while the caller's
    thread does other work."""
    # map u to (k + 0.5) 2**-53 in the open interval (0, 1): the sum with
    # 2**-54 rounds as k + 0.5 does.  The half-step keeps 0 unreachable, but
    # for k = 2**53 - 1 the sum rounds to 1, so u is clamped to the largest
    # double below 1: no word draws +inf, and every other word keeps its draw.
    u += 2.0**-54
    np.minimum(u, 1.0 - 2.0**-53, out=u)
    return ndtri(u, out=u)


def draws(seed: int, trajectory: int, stream: int, count: int, width: int) -> np.ndarray:
    """The first `count` slots of one (trajectory, stream) pair: N(0,1) draws
    of shape (count, width), each slot `width` consecutive words of a fresh
    generator.  Equal arguments give bitwise-equal draws, and a longer read
    starts with a shorter one.  Raises ValueError for a negative `count`."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    u = _generator(seed, trajectory, stream).random(count * width)
    return _standard_normals(u).reshape(count, width)


def block_slots(width: int, trajectories: int) -> int:
    """Slots per block of a batched read of `trajectories` generators, `width`
    draws per slot: the largest power of two up to `_BLOCK_SLOTS` whose block
    holds at most `_BLOCK_DRAWS` draws, a width of 0 counted as 1, and at
    least 1.  The two caps bound a batch's memory; no draw depends on them."""
    fit = _BLOCK_DRAWS // (max(width, 1) * trajectories)
    return 1 << (min(max(fit, 1), _BLOCK_SLOTS).bit_length() - 1)


def normal_blocks(seed: int, stream: int, trajectories, steps: int, width: int, scale: float):
    """Yield `scale` times the normals of `stream` for the generators of
    `trajectories`, `block_slots(width, len(trajectories))` slots at a time
    over the positive `steps` (the last block short): (count, width,
    len(trajectories)) blocks whose column j concatenates to
    `scale * draws(seed, trajectories[j], stream, steps, width)`, bit for bit.

    The caller's thread fills a block's uniforms, one row per generator; the
    worker copies their transpose out, hands the buffer back, and maps and
    scales the copy while the caller uses the previous block and fills the
    next one, so the Philox reads overlap `ndtri`.  One buffer of uniforms
    and two of normals, `min(block, steps)` slots each, are reused, so a
    caller must copy any block, or view of one, that it keeps past its next
    request.  The worker is joined when the stream ends or is closed, also by
    a raise in the caller's loop or in the map.  The map is looked up as
    `_standard_normals` at each block.
    """
    # deferred: `scipy.special` loads `concurrent.futures` but not its `thread`
    # submodule and `queue`, which add up to 1 MB to a task that draws no batch
    from concurrent.futures import ThreadPoolExecutor

    gens = [_generator(seed, traj, stream) for traj in trajectories]
    slots = block_slots(width, len(gens))
    size = min(slots, steps) * width
    uniforms = np.empty((len(gens), size))
    normals = np.empty((2, size, len(gens)))

    def scaled(count, out, copied):
        out[...] = uniforms[:, : len(out)].T
        copied.set()
        out = _standard_normals(out)
        out *= scale
        return out.reshape(count, width, len(gens))

    with ThreadPoolExecutor(max_workers=1) as pool:
        for k, s in enumerate(range(0, steps, slots)):
            count = min(slots, steps - s)
            if k:
                copied.wait()
            for row, gen in zip(uniforms[:, : count * width], gens):
                gen.random(out=row)
            copied = threading.Event()  # one per block, set once its uniforms are copied out
            following = pool.submit(scaled, count, normals[k % 2, : count * width], copied)
            if k:
                yield mapped.result()
            mapped = following
        yield mapped.result()


def fold(w: np.ndarray, times: int) -> np.ndarray:
    """`w` coarsened `times` dyadic levels on axis 0, each row the exact sum of its two children."""
    for _ in range(times):
        w = w[0::2] + w[1::2]
    return w


@dataclass(frozen=True)
class NoisePlan:
    """A grid view of one trajectory's draws: Brownian increments on a
    refinable finest grid, and impulse draws.

    No library code builds a plan; it reads `draws` directly.  A plan holds
    only its inputs, and its reads forward to `draws`, so repeated reads
    agree bit for bit and generate no draw that the caller does not receive.

    Parameters
    ----------
    seed, trajectory : int
        Stream family and member; equal parameters give bitwise-equal draws.
    noise_dim : int
        Number of independent Brownian coordinates m.
    delta : float
        Finest-level grid stepsize; level ell uses stepsize delta * 2**ell.
    horizon : float
        Total covered time T; delta must divide T within roundoff.
    """

    seed: int
    trajectory: int
    noise_dim: int
    delta: float
    horizon: float

    def __post_init__(self):
        if self.noise_dim < 0:
            raise ValueError("noise_dim must be nonnegative")
        if not 0 < self.delta < math.inf:
            raise ValueError("delta must be positive and finite")
        if not 0 < self.horizon < math.inf:
            raise ValueError("horizon must be positive and finite")
        steps = int(round(self.horizon / self.delta))
        if steps < 1 or abs(steps * self.delta - self.horizon) > _GRID_RTOL * max(1.0, self.horizon):
            raise GridMismatch(
                f"delta={self.delta!r} does not divide horizon={self.horizon!r}"
            )

    @property
    def finest_steps(self) -> int:
        return int(round(self.horizon / self.delta))

    def standard_normals(self, count: int) -> np.ndarray:
        """Raw N(0,1) draws from the Brownian stream, shape (count, m)."""
        return draws(self.seed, self.trajectory, _BROWNIAN_STREAM, count, self.noise_dim)

    def increments(self, level: int = 0) -> np.ndarray:
        """Brownian increments at level `level`, shape (steps, m).

        Finest-level increments are sqrt(delta) times `standard_normals`; each
        coarser increment is the exact pairwise sum of its two children, so
        refined grids are consistent by construction.  Raises GridMismatch
        when 2**level does not divide the number of finest steps.
        """
        if level < 0:
            raise ValueError("level must be nonnegative")
        steps = self.finest_steps
        if steps % (1 << level):
            raise GridMismatch(f"level {level} stepsize does not divide the horizon: "
                               f"{steps} finest steps are not a multiple of {1 << level}")
        return fold(self.standard_normals(steps) * np.sqrt(self.delta), level)

    def xi(self, k: int) -> np.ndarray:
        """Impulse draw for jump k >= 1, an m-vector of standard normals.

        Lives in a stream disjoint from the Brownian slots, so impulse draws
        never perturb (and are independent of) the Brownian increments.
        """
        if k < 1:
            raise ValueError("impulse index k starts at 1")
        return self.xi_block(k)[k - 1]

    def xi_block(self, count: int) -> np.ndarray:
        """Rows xi(1) .. xi(count), shape (count, m)."""
        return draws(self.seed, self.trajectory, _IMPULSE_STREAM, count, self.noise_dim)
