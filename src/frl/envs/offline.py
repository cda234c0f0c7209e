"""Seeded offline dataset generation from tabular specs."""

from __future__ import annotations

import numpy as np

from ..errors import DomainError, ValidationError
from ..factored_mdp import FactoredMdpSpec, _cdfs_in_place, _choice_error, _support, _terminal_mask
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

    Draws: each episode's initial state, then per step the joint action
    and the next state, each take one uniform u = rng.random() and the
    first index whose entry of the row's normalised CDF exceeds u
    (`cdf.searchsorted(u, side="right")`).  The CDFs of `init_dist`, the
    behavior rows and the distinct rows of one `factored_mdp._support`
    call over every state, with a column per joint action, are built
    once per call with rng.choice's arithmetic.  A support row lists its
    reachable next states in code order, and its CDF equals the dense
    row's at those codes, so the episodes and the generator's state
    equal one rng.choice(n, p=row) call per draw on the dense rows.  A
    transition row choice would reject (a NaN, a negative entry, a sum
    off 1 by more than sqrt(eps)) raises ValueError at the first draw
    from it, naming the episode and step; rows no episode reaches never
    raise.
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
    step_bad = _cdfs_in_place(step_cdf)[index].tolist()
    base, offsets, index = base.tolist(), offsets.tolist(), index.tolist()
    act_cdf = behavior.copy()
    _cdfs_in_place(act_cdf)  # no row is bad: the check above is tighter than choice's
    init_cdf = spec.init_dist.copy()
    init_bad = _cdfs_in_place(init_cdf)
    terminal = _terminal_mask(spec).tolist()
    reward = spec.reward
    if init_bad:
        raise ValueError(f"episode 0: initial distribution: {_choice_error(spec.init_dist)}")
    rng = np.random.default_rng(seed)
    out = []
    for episode in range(episodes):
        s = int(init_cdf.searchsorted(rng.random(), side="right"))
        states, actions, rewards, props = [], [], [], []
        for step in range(horizon):
            a = int(act_cdf[s].searchsorted(rng.random(), side="right"))
            if step_bad[a][s]:
                _, _, row, probs = _support(spec, [s], spec.action_as_blocks(a))
                raise ValueError(
                    f"episode {episode}, step {step}: transition row of state {s}, joint action {a}: "
                    f"{_choice_error(probs[row[0, 0]])}"
                )
            s_next = base[a][s] + offsets[step_cdf[index[a][s]].searchsorted(rng.random(), side="right")]
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
