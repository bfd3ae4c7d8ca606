"""Hybrid systems for the tests: linear systems built from known block
matrices over z = (x, y), and the q = 0 view of a system's stacked form."""

import numpy as np

from sidelab.models import SideSystem


def side_from_blocks(n, drift, noise, jump, gains, schedule):
    """The linear hybrid system with these (n+q)-square matrices over z.

    The x-block maps read x only, so the x rows' y columns are ignored.
    """
    q, m = drift.shape[0] - n, len(noise)

    def x_map(mat):
        return lambda x, *_: mat[:n, :n] @ x

    def y_map(mat):
        return lambda x, y, *_: mat[n:] @ np.concatenate([x, y])

    def x_gain(mats):
        return lambda x, *_: np.array([g[:n, :n] @ x for g in mats]).T.reshape(n, m)

    def y_gain(mats):
        return lambda x, y, *_: np.array(
            [g[n:] @ np.concatenate([x, y]) for g in mats]
        ).T.reshape(q, m)

    return SideSystem(
        n=n, q=q, noise_dim=m,
        drift_x=x_map(drift), diffusion_x=x_gain(noise),
        drift_y=y_map(drift), diffusion_y=y_gain(noise),
        jump_x=x_map(jump), jump_x_gain=x_gain(gains),
        jump_y=y_map(jump), jump_y_gain=y_gain(gains),
        schedule=schedule,
    )


def random_blocks(rng, n, q, m):
    """Drift, noise, jump and jump gains with zero y columns in the x rows."""
    def block(scale):
        mat = scale * rng.normal(size=(n + q, n + q))
        mat[:n, n:] = 0.0
        return mat

    return (block(0.5) - np.eye(n + q), [block(0.2) for _ in range(m)],
            block(0.3), [block(0.1) for _ in range(m)])


def stacked_as_x(side):
    """The same system with z as its x-block and no y-block (q = 0)."""
    m = side.noise_dim
    return SideSystem(
        n=side.dim,
        q=0,
        noise_dim=m,
        drift_x=side.drift,
        diffusion_x=side.diffusion,
        drift_y=lambda x, y, t: np.zeros(0),
        diffusion_y=lambda x, y, t: np.zeros((0, m)),
        jump_x=side.jump,
        jump_x_gain=side.jump_gain,
        jump_y=lambda x, y, k: np.zeros(0),
        jump_y_gain=lambda x, y, k: np.zeros((0, m)),
        schedule=side.schedule,
    )
