"""Learned dynamics / reward models and projected-batch augmentation.

The dynamics side is one delta model per action block: an all-linear
network reads (state, one-hot block action) and predicts the change of
the state dimensions that block controls; evaluation returns
``prev + delta * (1 + noise)`` with a single scalar Gaussian noise draw
per call.  A full next state under do(a_k) is assembled by running
block k's model on the forced action and every other block's model on
its no-op action, copying any dimensions no block controls.

The reward model is a small ReLU network over (s, s', block indices).
For tabular tasks `TabularModelSampler` exposes the same two-method
surface (sample_projected_next / predict) backed by an estimated spec,
so `augment_batch` is agnostic about which one it is driving.  The
sampler reads and returns state codes, not feature rows, and draws a
whole batch of successors in one vectorized pass.  `augment_batch`
takes and returns a replay `Batch`.
"""

from __future__ import annotations

import numpy as np

from ..approx import Mlp, Optimizer
from ..errors import ConfigurationError, ShapeError, StateError
from ..factored_mdp import FactoredMdpSpec, _terminal_mask, transition_rows
from .replay import Batch


def _mse_step(net: Mlp, opt: Optimizer, x: np.ndarray, target: np.ndarray) -> float:
    pred, cache = net.forward(x)
    err = pred - target
    loss = float(np.mean(err**2))
    grad, _ = net.backward(2.0 * err / err.size, cache)
    opt.step(grad)
    return loss


class DynamicsModel:
    """Per-block next-state delta predictors.

    Each block's network is linear end to end, which is exact whenever
    the controlled dimensions respond affinely to (state, force); the
    noise factor keeps sampled successors from collapsing onto the
    point prediction.
    """

    def __init__(
        self,
        state_dim: int,
        block_sizes,
        block_dims,
        hidden=(64, 64),
        noise_variance: float = 1e-4,
        lr: float = 1e-3,
        rng=None,
    ):
        if len(block_sizes) != len(block_dims):
            raise ConfigurationError("block_sizes and block_dims disagree on block count")
        self.state_dim = int(state_dim)
        self.block_sizes = tuple(int(b) for b in block_sizes)
        self.block_dims = tuple(tuple(int(d) for d in dims) for dims in block_dims)
        for dims in self.block_dims:
            if dims and max(dims) >= self.state_dim:
                raise ConfigurationError(f"block dims {dims} outside the {self.state_dim}-dim state")
        self.noise_variance = float(noise_variance)
        rng = rng or np.random.default_rng()
        self.nets = [
            Mlp(
                (self.state_dim + b, *hidden, len(dims)),
                activation="identity",
                out_activation="identity",
                rng=rng,
            )
            for b, dims in zip(self.block_sizes, self.block_dims)
        ]
        self.optimizers = [Optimizer(net, lr=lr) for net in self.nets]
        self.train_steps = [0] * len(self.nets)

    @property
    def n_blocks(self) -> int:
        return len(self.block_sizes)

    def ready(self, k: int | None = None) -> bool:
        if k is None:
            return all(s > 0 for s in self.train_steps)
        return self.train_steps[k] > 0

    def _inputs(self, k: int, states: np.ndarray, actions_k: np.ndarray) -> np.ndarray:
        states = np.atleast_2d(np.asarray(states, dtype=np.float64))
        actions_k = np.asarray(actions_k, dtype=np.int64)
        if actions_k.min() < 0 or actions_k.max() >= self.block_sizes[k]:
            raise ShapeError(f"block {k} action out of range [0, {self.block_sizes[k]})")
        onehot = np.zeros((states.shape[0], self.block_sizes[k]))
        onehot[np.arange(states.shape[0]), actions_k] = 1.0
        return np.concatenate([states, onehot], axis=1)

    def train_step(self, k: int, states, actions_k, next_states) -> float:
        """One squared-error step on block k's delta targets."""
        states = np.atleast_2d(np.asarray(states, dtype=np.float64))
        next_states = np.atleast_2d(np.asarray(next_states, dtype=np.float64))
        dims = list(self.block_dims[k])
        target = next_states[:, dims] - states[:, dims]
        loss = _mse_step(self.nets[k], self.optimizers[k], self._inputs(k, states, actions_k), target)
        self.train_steps[k] += 1
        return loss

    def predict_dims(self, k: int, states, actions_k, rng: np.random.Generator) -> np.ndarray:
        """Sampled values for block k's controlled dimensions."""
        if not self.ready(k):
            raise StateError(f"dynamics model for block {k} has not been trained")
        states = np.atleast_2d(np.asarray(states, dtype=np.float64))
        delta, _ = self.nets[k].forward(self._inputs(k, states, actions_k))
        noise = rng.normal(0.0, np.sqrt(self.noise_variance))
        prev = states[:, list(self.block_dims[k])]
        return prev + delta * (1.0 + noise)

    def sample_projected_next(self, states, k: int, actions_k, noop_actions, rng) -> np.ndarray:
        """Next states under do(a_k): block k forced, the rest at no-op."""
        states = np.atleast_2d(np.asarray(states, dtype=np.float64))
        actions_k = np.asarray(actions_k, dtype=np.int64)
        out = states.copy()
        for j in range(self.n_blocks):
            if not self.block_dims[j]:
                continue
            a_j = actions_k if j == k else np.full(states.shape[0], int(noop_actions[j]))
            out[:, list(self.block_dims[j])] = self.predict_dims(j, states, a_j, rng)
        return out


class RewardModel:
    """ReLU network regressing reward on (s, s', block action indices)."""

    def __init__(self, state_dim: int, n_blocks: int, hidden=(64, 64, 64), lr: float = 1e-3, rng=None):
        self.state_dim = int(state_dim)
        self.n_blocks = int(n_blocks)
        self.net = Mlp((2 * self.state_dim + self.n_blocks, *hidden, 1), rng=rng or np.random.default_rng())
        self.optimizer = Optimizer(self.net, lr=lr)
        self.train_steps = 0

    def _inputs(self, states, actions, next_states) -> np.ndarray:
        states = np.atleast_2d(np.asarray(states, dtype=np.float64))
        next_states = np.atleast_2d(np.asarray(next_states, dtype=np.float64))
        actions = np.atleast_2d(np.asarray(actions, dtype=np.float64))
        if actions.shape[1] != self.n_blocks:
            raise ShapeError(f"actions have {actions.shape[1]} blocks, model expects {self.n_blocks}")
        return np.concatenate([states, next_states, actions], axis=1)

    def train_step(self, states, actions, next_states, rewards) -> float:
        rewards = np.asarray(rewards, dtype=np.float64).reshape(-1, 1)
        loss = _mse_step(self.net, self.optimizer, self._inputs(states, actions, next_states), rewards)
        self.train_steps += 1
        return loss

    def ready(self) -> bool:
        return self.train_steps > 0

    def predict(self, states, actions, next_states) -> np.ndarray:
        if not self.ready():
            raise StateError("reward model has not been trained")
        out, _ = self.net.forward(self._inputs(states, actions, next_states))
        return out[:, 0]


def sample_rows(rows: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One index drawn from each row's distribution, in one pass.

    Each row takes one uniform from `rng` and its index is the number
    of entries of the row's normalised CDF at or below it, which is how
    rng.choice(len(row), p=row) draws; the draws and the generator's
    state afterwards equal those of one such call per row.  Raises
    ValueError where choice would: a NaN, a negative entry, or a row
    sum off 1 by more than sqrt(eps).
    """
    rows = np.asarray(rows, dtype=np.float64)
    totals = rows.sum(axis=1)
    if np.isnan(totals).any():
        raise ValueError("probabilities contain NaN")
    if (rows < 0).any():
        raise ValueError("probabilities are not non-negative")
    if (np.abs(totals - 1.0) > np.sqrt(np.finfo(np.float64).eps)).any():
        raise ValueError("probabilities do not sum to 1")
    cdf = np.cumsum(rows, axis=1)
    cdf /= cdf[:, -1:]
    u = rng.random(len(rows))
    return (cdf <= u[:, None]).sum(axis=1)


class TabularModelSampler:
    """Exact-sampling stand-in for the neural models on tabular tasks.

    States are codes of an estimated spec and rewards come from the
    spec's (s, s') table.  Two successor modes:

    * "padded" pins every other block to its no-op action index, the
      only conditional a model fitted from fully-intervened logs can
      support;
    * "projected" lets everything outside the forced block follow the
      spec's no-op dynamics, which needs a spec whose no-op factors are
      all known (e.g. the exact one).
    """

    def __init__(self, spec: FactoredMdpSpec, noop_actions=None, mode: str = "padded"):
        if mode not in ("padded", "projected"):
            raise ConfigurationError(f"unknown sampler mode {mode!r}")
        self.spec = spec
        self.mode = mode
        self.noop_actions = tuple(
            int(a) for a in (noop_actions if noop_actions is not None else [0] * spec.n_blocks)
        )
        self.terminal = _terminal_mask(spec)

    def _codes(self, states) -> np.ndarray:
        codes = np.asarray(states)
        if codes.dtype.kind not in "iu" or codes.ndim != 1:
            raise ShapeError(f"expected a vector of state codes, got {codes.dtype} of shape {codes.shape}")
        if codes.size and (codes.min() < 0 or codes.max() >= self.spec.n_states):
            raise ShapeError(f"state code outside [0, {self.spec.n_states})")
        return codes

    def ready(self, k=None) -> bool:
        return True

    def sample_projected_next(self, states, k: int, actions_k, noop_actions=None, rng=None) -> np.ndarray:
        """Successor codes under do(a_k), one draw per row."""
        codes = self._codes(states)
        noop = noop_actions if noop_actions is not None else self.noop_actions
        blocks = np.tile(np.asarray(noop, dtype=np.int64), (len(codes), 1))
        blocks[:, k] = actions_k
        rows = transition_rows(self.spec, codes, blocks, (k,) if self.mode == "projected" else None)
        return sample_rows(rows, rng)

    def predict(self, states, actions, next_states) -> np.ndarray:
        return self.spec.reward[self._codes(states), self._codes(next_states)]

    def terminal_of(self, next_states) -> np.ndarray:
        """Whether each successor code is one of the spec's terminals."""
        return self.terminal[self._codes(next_states)]


def augment_batch(
    batch: Batch,
    k: int,
    dynamics,
    reward_model,
    noop_actions,
    rng: np.random.Generator,
) -> Batch:
    """Rewrite a batch to follow the block-k projected transition.

    Every row keeps its state; the action collapses to block k's entry
    padded with no-ops, the next state is re-sampled from the dynamics
    model under do(a_k), and the reward is re-evaluated by the reward
    model at the synthesized successor.  Dynamics models that can
    recognize terminal successors (`terminal_of`) refresh the done
    flags; otherwise the original flags are carried over.
    """
    actions = np.tile(np.asarray(noop_actions, dtype=np.int64), (len(batch.rewards), 1))
    actions[:, k] = batch.actions[:, k]
    next_states = dynamics.sample_projected_next(batch.states, k, batch.actions[:, k], noop_actions, rng)
    rewards = reward_model.predict(batch.states, actions, next_states)
    dones = batch.dones
    if hasattr(dynamics, "terminal_of"):
        dones = dynamics.terminal_of(next_states).astype(np.float64)
    return Batch(batch.states, actions, rewards, next_states, dones)
