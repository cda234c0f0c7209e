"""Seeded offline dataset generation from tabular specs."""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from ..errors import DomainError, ValidationError
from ..factored_mdp import FactoredMdpSpec, _cdfs_in_place, _support, _terminal_mask
from ..ope import EpisodeLog


def _uniforms(rng: np.random.Generator):
    """The values of successive `rng.random()` calls, drawn 4096 at a time."""
    while True:
        yield from rng.random(4096).tolist()


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

    Draws: each episode's initial state, then per step the joint action
    and the next state, each take the next uniform u of `_uniforms` and
    the first index whose entry of the row's normalised CDF exceeds u
    (`bisect_right`).  The CDFs of `init_dist`, the behavior rows and
    the distinct rows of one `factored_mdp._support` call over every
    state, with a column per joint action, are built once per call with
    rng.choice's arithmetic.  A support row lists its reachable next
    states in code order, and its CDF equals the dense row's at those
    codes, so the episodes equal those of one rng.choice(n, p=row) call
    per draw on the dense rows.  Choice would reject none of these rows
    (it rejects a NaN, a negative entry, or a sum off 1 by more than
    sqrt(eps)).  Building the spec checked that its entries are finite
    and non-negative, and that `init_dist` and every no-op row sum to 1
    within 1e-12; a transition row is a product of one such row per
    drawn variable, so its sum is off 1 by a few times that at most,
    far inside choice's tolerance.
    """
    if episodes < 1 or horizon < 1:
        raise DomainError(f"need at least 1 episode and a horizon of at least 1; got {episodes=}, {horizon=}")
    behavior = np.asarray(behavior, dtype=np.float64)
    if behavior.shape != (spec.n_states, spec.n_actions):
        raise ValidationError(
            f"behavior table has shape {behavior.shape}, expected {(spec.n_states, spec.n_actions)}"
        )
    if not (behavior >= 0).all() or not (np.abs(behavior.sum(axis=1) - 1.0) <= 1e-9).all():  # NaN compares False
        raise ValidationError("behavior rows must be distributions")
    base, offsets, index, step_cdf = _support(spec, np.arange(spec.n_states), spec.action_radix.table()[:, None])
    _cdfs_in_place(step_cdf)
    act_cdf = behavior.copy()
    _cdfs_in_place(act_cdf)  # no row is bad: the check above is tighter than choice's
    init_cdf = spec.init_dist.copy()
    _cdfs_in_place(init_cdf)
    base, offsets, index, step_cdf, act_cdf, init_cdf = (
        x.tolist() for x in (base, offsets, index, step_cdf, act_cdf, init_cdf)
    )
    terminal = _terminal_mask(spec).tolist()
    reward = spec.reward
    u = _uniforms(np.random.default_rng(seed))
    out = []
    for _ in range(episodes):
        s = bisect_right(init_cdf, next(u))
        states, actions, rewards, props = [], [], [], []
        for _ in range(horizon):
            a = bisect_right(act_cdf[s], next(u))
            s_next = base[a][s] + offsets[bisect_right(step_cdf[index[a][s]], next(u))]
            states.append(s)
            actions.append(a)
            rewards.append(reward.item(s, s_next))
            props.append(behavior.item(s, a))
            s = s_next
            if terminal[s]:
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
