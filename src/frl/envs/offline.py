"""Seeded offline dataset generation from tabular specs."""

from __future__ import annotations

import numpy as np

from ..errors import DomainError, ValidationError
from ..factored_mdp import FactoredMdpSpec, transition_rows
from ..ope import EpisodeLog


def generate_offline_dataset(
    spec: FactoredMdpSpec,
    behavior: np.ndarray,
    episodes: int,
    seed: int,
    *,
    horizon: int = 20,
) -> list[EpisodeLog]:
    """Roll out a stochastic behavior policy and log true propensities.

    Args:
        behavior: (n_states, n_actions) row-stochastic table over joint
            actions.
        horizon: hard episode cap; episodes also end on terminal entry.

    Every step records (state, joint action, reward, behavior propensity).
    Rewards are whatever the spec assigns, so terminal-transition specs
    give the +/-100-on-absorption convention used by the offline tasks.
    """
    if episodes < 1 or horizon < 1:
        raise DomainError(f"need at least 1 episode and a horizon of at least 1; got {episodes=}, {horizon=}")
    behavior = np.asarray(behavior, dtype=np.float64)
    if behavior.shape != (spec.n_states, spec.n_actions):
        raise ValidationError(
            f"behavior table has shape {behavior.shape}, expected {(spec.n_states, spec.n_actions)}"
        )
    if (behavior < 0).any() or np.abs(behavior.sum(axis=1) - 1.0).max() > 1e-9:
        raise ValidationError("behavior rows must be distributions")
    rng = np.random.default_rng(seed)
    terminal = spec.terminal_states
    out = []
    rows = np.empty((spec.n_states, spec.n_actions, spec.n_states))
    for a, blocks in enumerate(spec.action_radix.table()):
        rows[:, a] = transition_rows(spec, np.arange(spec.n_states), blocks)
    for _ in range(episodes):
        s = int(rng.choice(spec.n_states, p=spec.init_dist))
        states, actions, rewards, props = [], [], [], []
        for _ in range(horizon):
            a = int(rng.choice(spec.n_actions, p=behavior[s]))
            s_next = int(rng.choice(spec.n_states, p=rows[s, a]))
            states.append(s)
            actions.append(a)
            rewards.append(float(spec.reward[s, s_next]))
            props.append(float(behavior[s, a]))
            s = s_next
            if s in terminal:
                break
        out.append(
            EpisodeLog(
                states=np.array(states, dtype=np.int64),
                actions=np.array(actions, dtype=np.int64),
                rewards=np.array(rewards),
                propensities=np.array(props),
                final_state=s,
            )
        )
    return out
