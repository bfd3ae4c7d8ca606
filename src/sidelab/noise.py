"""Reproducible randomness: refinable Brownian increments and impulse draws.

Every draw is counter-based: a pure function of (seed, trajectory, stream,
slot), realized with a Philox generator keyed by seed and trajectory/stream
and with normal variates produced by inverse-CDF of its raw 64-bit words.
Nothing is rejection-sampled, so trajectories agree bitwise in any order or
batch.  A batched read is time-major: (slots, width, generators).

A read has two parts: `_read_words` reads the raw words, one row per
generator, in a loop that holds the GIL; `_standard_normals` maps them to
normals without it.  The library reads through two functions, both keyed by
(seed, trajectory, stream).  `draws` is the one single-path read: the first
slots of one pair, as the single-path integrators of `simulate` take them.
`normal_blocks` is the one batched read: it streams a batch of trajectories
in blocks of time, mapping and scaling each block on a worker thread that
lives as long as the stream.  The caller's thread reads block k+1's words
once the worker has copied block k's words out, not once block k is mapped.

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


def _read_words(gens, count: int, width: int, out=None) -> np.ndarray:
    """The next `count * width` raw 64-bit words of each generator in `gens`,
    one contiguous row per generator: shape (len(gens), count * width).

    Each slot takes `width` consecutive words, and a generator resumes where
    its last read stopped, so reading a stream in pieces gives the same words
    as reading it at once.  They are the words of
    `gen.integers(1 << 64, dtype=np.uint64)`, read without its per-call cost.
    `out`, when given, is a uint64 array of that shape that takes the words.
    This loop over the generators holds the GIL; the map that turns the words
    into normals, `_standard_normals`, does not.
    """
    if out is None:
        out = np.empty((len(gens), count * width), dtype=np.uint64)
    for row, gen in zip(out, gens):
        row[:] = gen.bit_generator.random_raw(count * width)
    return out


def _standard_normals(words: np.ndarray, count: int, width: int, out=None, copied=None) -> np.ndarray:
    """N(0,1) draws from the words of `_read_words(gens, count, width)`, shape
    (count, width, len(gens)): time-major, each coordinate contiguous over the
    generators.

    Overwrites `words`.  `out`, when given, is a C-contiguous
    (count * width, len(gens)) float array that takes the draws, and the
    result is a view of it.  `copied`, when given, is an event that is set
    once `words` has been copied out, so the caller may refill them while the
    map goes on.  The shift, the transposing float conversion, the affine
    step and `ndtri` all run without the GIL, so a worker thread can map one
    block while the caller's thread does other work.
    """
    if out is None:
        out = np.empty((count * width, len(words)))
    # map the top 53 bits k to u = (k + 0.5) 2**-53 in the open interval
    # (0, 1).  The half-step keeps 0 unreachable, but for k = 2**53 - 1 the sum
    # rounds to 2**53, so u is clamped to the largest double below 1: no word
    # draws +inf, and every other word keeps its draw.
    words >>= np.uint64(11)
    out[...] = words.T
    if copied is not None:
        copied.set()
    out += 0.5
    out *= 2.0**-53
    np.minimum(out, 1.0 - 2.0**-53, out=out)
    return ndtri(out, out=out).reshape(count, width, len(words))


def draws(seed: int, trajectory: int, stream: int, count: int, width: int) -> np.ndarray:
    """The first `count` slots of one (trajectory, stream) pair: N(0,1) draws
    of shape (count, width), read from a fresh generator at slot 0.  Equal
    arguments give bitwise-equal draws, and a longer read starts with a
    shorter one.  Raises ValueError for a negative `count`."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    words = _read_words([_generator(seed, trajectory, stream)], count, width)
    return _standard_normals(words, count, width)[:, :, 0]


def normal_blocks(seed: int, stream: int, trajectories, steps: int, chunk: int, width: int, scale: float):
    """Yield `scale` times the normals of `stream` for the generators of
    `trajectories`, `chunk` slots at a time over the positive `steps` (the
    last block short): (count, width, len(trajectories)) blocks that
    concatenate to `scale * _standard_normals(_read_words(gens, steps, width),
    steps, width)`, bit for bit.

    A worker thread maps and scales block k+1 while the caller uses block k.
    The caller's thread reads block k+1's words once block k's words are
    copied out, not once block k is mapped, so the Philox reads overlap
    `ndtri`.  One buffer of words and two of normals, `min(chunk, steps)`
    slots each, are reused, so a block is valid only until the next one is
    requested.  The worker is joined when the stream ends or is closed, also
    by a raise in the caller's loop or in the map.  The map is looked up as
    `_standard_normals` at each block.
    """
    # deferred: `scipy.linalg` loads `concurrent.futures` but not its `thread`
    # submodule and `queue`, which add up to 1 MB to a task that draws no batch
    from concurrent.futures import ThreadPoolExecutor

    gens = [_generator(seed, traj, stream) for traj in trajectories]
    size = min(chunk, steps) * width
    words = np.empty((len(gens), size), dtype=np.uint64)
    normals = np.empty((2, size, len(gens)))

    def scaled(block, count, out, copied):
        try:
            out = _standard_normals(block, count, width, out, copied)
        finally:  # also when the map raises, so the caller never waits on it
            copied.set()
        out *= scale
        return out

    with ThreadPoolExecutor(max_workers=1) as pool:
        for k, s in enumerate(range(0, steps, chunk)):
            count = min(chunk, steps - s)
            if k:
                copied.wait()
            block = _read_words(gens, count, width, words[:, : count * width])
            # one event per block: a block's map sets its event after the cast
            # and again as it ends, when the buffer may hold the next words
            copied = threading.Event()
            following = pool.submit(scaled, block, count, normals[k % 2, : count * width], copied)
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
