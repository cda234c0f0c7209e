"""2-D point-mass reaching task with per-axis discretized forces.

State is (x, y, vx, vy); the two action blocks pick a force bin for
their own axis, so the x and y dynamics never couple.  Integration is
semi-implicit Euler with velocity damping:

    v' = damping * v + force * dt
    p' = clip(p + dt * v', box)

Reward is 1 inside the goal radius and decays smoothly with distance
outside it, so the return over an episode measures time spent parked on
the goal plus approach quality.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import DomainError
from ..indexing import MixedRadix

BOX = 0.3
DAMPING = 0.95
DT = 0.02


def _force(bin_index: int, bins_per_axis: int) -> float:
    if not 0 <= bin_index < bins_per_axis:
        raise DomainError(f"force bin {bin_index} out of range [0, {bins_per_axis})")
    return -1.0 + 2.0 * bin_index / (bins_per_axis - 1)


def point_mass_step(
    state: np.ndarray,
    action: tuple[int, int],
    bins_per_axis: int,
    dt: float = DT,
    *,
    force_scale: float = 1.0,
    goal: tuple[float, float] = (0.15, 0.1),
    goal_radius: float = 0.05,
    reward_width: float = 0.15,
) -> tuple[np.ndarray, float]:
    """One deterministic transition of the point mass.

    Args:
        state: (x, y, vx, vy).
        action: force bin per axis; the uniform grid maps bin 0 to -1
            and the last bin to +1.
        bins_per_axis: grid resolution (9, 17, and 33 are the usual).
        dt: integration step.

    Returns (next_state, reward).
    """
    ix, iy = action
    fx = _force(ix, bins_per_axis) * force_scale
    fy = _force(iy, bins_per_axis) * force_scale
    x, y, vx, vy = (float(v) for v in state)
    vx = DAMPING * vx + fx * dt
    vy = DAMPING * vy + fy * dt
    x = float(np.clip(x + dt * vx, -BOX, BOX))
    y = float(np.clip(y + dt * vy, -BOX, BOX))
    nxt = np.array([x, y, vx, vy])
    d = float(np.hypot(x - goal[0], y - goal[1]))
    if d <= goal_radius:
        reward = 1.0
    else:
        z = (d - goal_radius) / reward_width
        reward = float(np.exp(-0.5 * z * z))
    return nxt, reward


@dataclass
class PointMassEnv:
    """Stateful wrapper around `point_mass_step` with episode bookkeeping.

    Exposes the factored-action metadata the agents consume: two blocks
    of `bins` actions each, block 0 driving (x, vx) and block 1 driving
    (y, vy); the no-op action of each block is the zero-force center bin.
    """

    bins: int = 9
    episode_len: int = 1000
    force_scale: float = 1.0
    goal: tuple[float, float] = (0.15, 0.1)
    reward_width: float = 0.15
    seed: int = 0

    def __post_init__(self):
        if self.bins < 2 or self.bins % 2 == 0:
            raise DomainError("bins must be an odd integer >= 3 so a zero-force bin exists")
        self.state_dim = 4
        self.block_sizes = (self.bins, self.bins)
        self.block_dims = ((0, 2), (1, 3))
        self.noop_actions = (self.bins // 2, self.bins // 2)
        self._rng = np.random.default_rng(self.seed)
        self._state = np.zeros(4)
        self._t = 0

    def reset(self) -> np.ndarray:
        pos = self._rng.uniform(-BOX * 0.9, BOX * 0.9, size=2)
        self._state = np.array([pos[0], pos[1], 0.0, 0.0])
        self._t = 0
        return self._state.copy()

    def step(self, action) -> tuple[np.ndarray, float, bool]:
        self._state, reward = point_mass_step(
            self._state,
            (int(action[0]), int(action[1])),
            self.bins,
            DT,
            force_scale=self.force_scale,
            goal=self.goal,
            reward_width=self.reward_width,
        )
        self._t += 1
        return self._state.copy(), reward, self._t >= self.episode_len


@dataclass
class FlattenedEnv:
    """Presents any factored env as a single joint action block."""

    inner: object

    def __post_init__(self):
        radix = MixedRadix(self.inner.block_sizes)
        self.state_dim = self.inner.state_dim
        self.block_sizes = (radix.size,)
        self.block_dims = (tuple(d for dims in self.inner.block_dims for d in dims),)
        self.noop_actions = (radix.encode(self.inner.noop_actions),)
        self._split = radix.decode  # joint code -> per-block actions

    def reset(self):
        return self.inner.reset()

    def step(self, action):
        return self.inner.step(self._split(action[0]))
