"""Array batches and the paired global / per-block replay buffers.

A `Batch` is the one format a set of transitions takes from the buffer
to the TD step: five aligned arrays, one row per transition.  `actions`
holds one index per block; a projected step keeps the full joint row
(the untouched blocks sit at their no-op index).  `dones` marks true
terminal entry, not episode timeouts, so targets bootstrap through
time limits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ..errors import ConfigurationError, DataError, ShapeError


class Batch(NamedTuple):
    """n transitions as arrays; use len(batch.rewards) for n."""

    states: np.ndarray  # (n, state_dim)
    actions: np.ndarray  # (n, n_blocks) int64
    rewards: np.ndarray  # (n,)
    next_states: np.ndarray  # (n, state_dim)
    dones: np.ndarray  # (n,) float64, 1.0 on terminal entry

    def take(self, idx) -> "Batch":
        """The rows at `idx`, in that order."""
        return Batch(*(a[idx] for a in self))


class RingBuffer:
    """Fixed-capacity FIFO over transition rows with uniform sampling.

    Rows live in one `Batch` of arrays, allocated on the first append
    and grown by doubling up to capacity, so a buffer that never fills
    never holds its full capacity in memory.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ConfigurationError(f"capacity must be positive, got {capacity}")
        self.capacity = int(capacity)
        self._data: Batch | None = None
        self._size = 0
        self._next = 0

    def __len__(self) -> int:
        return self._size

    def append(self, state, action, reward, next_state, done=False) -> None:
        if self._data is None:
            state = np.asarray(state, dtype=np.float64)
            self._data = Batch(
                np.empty((1, *state.shape)),
                np.empty((1, len(action)), dtype=np.int64),
                np.empty(1),
                np.empty((1, *state.shape)),
                np.empty(1),
            )
        elif self._size == len(self._data.rewards) < self.capacity:
            grown = min(2 * self._size, self.capacity)
            self._data = Batch(
                *(np.concatenate([a, np.empty((grown - self._size, *a.shape[1:]), a.dtype)]) for a in self._data)
            )
        i = self._next
        self._data.states[i] = state
        self._data.actions[i] = action
        self._data.rewards[i] = reward
        self._data.next_states[i] = next_state
        self._data.dones[i] = done
        self._size = min(self._size + 1, self.capacity)
        self._next = (i + 1) % self.capacity

    def sample(self, rng: np.random.Generator, n: int) -> Batch:
        """Uniform sample with replacement."""
        if not self._size:
            raise DataError("cannot sample from an empty buffer")
        return self._data.take(rng.integers(0, self._size, size=n))

    def _recent_positions(self, n: int) -> np.ndarray:
        if n < 1:
            raise DataError(f"window must be positive, got {n}")
        n = min(n, self._size)
        # the latest n rows end just before the write cursor
        return (self._next - n + np.arange(n)) % self.capacity

    def recent(self, n: int) -> Batch:
        """The latest `n` rows in insertion order (all, if fewer)."""
        return self._data.take(self._recent_positions(n))

    def sample_recent(self, rng: np.random.Generator, n: int, window: int) -> Batch:
        """Uniform sample with replacement from the latest `window` rows."""
        pool = self._recent_positions(window)
        if not len(pool):
            raise DataError("cannot sample from an empty buffer")
        return self._data.take(pool[rng.integers(0, len(pool), size=n)])


@dataclass
class ReplayBuffers:
    """A global buffer D plus one per-block buffer D_k.

    Every transition lands in D; a block-tagged one (a projected step
    that forced block k) is additionally stored in D_k, so |D_k| <= |D|
    and each tagged transition lives in exactly one block buffer.
    """

    n_blocks: int
    capacity: int = 100_000
    global_buffer: RingBuffer = field(init=False)
    block_buffers: list[RingBuffer] = field(init=False)

    def __post_init__(self):
        if self.n_blocks < 1:
            raise ConfigurationError("need at least one block")
        self.global_buffer = RingBuffer(self.capacity)
        self.block_buffers = [RingBuffer(self.capacity) for _ in range(self.n_blocks)]

    def add(self, state, action, reward, next_state, done=False, block_tag=None) -> None:
        if len(action) != self.n_blocks:
            raise ShapeError(f"action has {len(action)} blocks, buffers expect {self.n_blocks}")
        if block_tag is not None and not 0 <= block_tag < self.n_blocks:
            raise ShapeError(f"block_tag {block_tag} outside 0..{self.n_blocks - 1}")
        self.global_buffer.append(state, action, reward, next_state, done)
        if block_tag is not None:
            self.block_buffers[block_tag].append(state, action, reward, next_state, done)

    def __len__(self) -> int:
        return len(self.global_buffer)
