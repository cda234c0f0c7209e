"""Synthetic tabular factored MDPs.

Three generator structures:

* fully separable: the joint MDP is a product of independent sub-MDPs,
  one per action block, with an additive reward — so the joint Q of a
  product policy is the sum of per-block sub-MDP Qs.
* separable effects: effect sets stay disjoint, but uncontrolled
  variables may read effect values from several blocks and the reward
  couples all blocks.
* non-separable: one state variable sits in two blocks' effect sets,
  violating the disjointness requirement (negative-test material; the
  returned spec is built unvalidated).

The module also ships fixed micro-MDPs used throughout the test suite:
a two-switch system with one noise bit, a coordination trap whose
block-local improvements stall below the joint optimum, and a small
treatment simulator for offline-learning experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..errors import ConfigurationError
from ..factored_mdp import FactoredMdpSpec, NoopFactor, SigmaTable
from ..indexing import MixedRadix

STRUCTURES = ("fully_separable", "separable_effects", "non_separable")
REWARD_KINDS = ("additive_monotonic", "xor_nonmonotonic")
SWITCH_FLIP = 0.1
NOISE_FLIP = 0.3


@dataclass(frozen=True)
class SyntheticSpec:
    """Size and structure parameters for the random spec generator.

    Args:
        structure: one of STRUCTURES.
        n_vars: total number of state variables (controlled + not).
        n_blocks: number of action blocks; each owns one state variable.
        cards: cardinality per state variable (scalar or one per var).
        seed: generator seed; equal seeds give byte-identical specs.
        reward_kind: one of REWARD_KINDS.
        discount: discount for the produced spec; with additive_monotonic
            rewards it may be lowered so the dominance margin holds.
    """

    structure: str
    n_vars: int
    n_blocks: int
    cards: int | tuple[int, ...] = 2
    seed: int = 0
    reward_kind: str = "additive_monotonic"
    discount: float = 0.9

    def card_list(self) -> list[int]:
        if isinstance(self.cards, int):
            return [self.cards] * self.n_vars
        if len(self.cards) != self.n_vars:
            raise ConfigurationError(
                f"cards has {len(self.cards)} entries for {self.n_vars} variables"
            )
        return [int(c) for c in self.cards]


def _random_dist_rows(rng: np.random.Generator, n_rows: int, card: int) -> np.ndarray:
    """Strictly positive random rows, normalized."""
    t = rng.uniform(0.1, 1.0, size=(n_rows, card))
    return t / t.sum(axis=1, keepdims=True)


def _subset(rng: np.random.Generator, pool: list[int], max_size: int) -> tuple[int, ...]:
    if not pool or max_size <= 0:
        return ()
    size = int(rng.integers(0, min(max_size, len(pool)) + 1))
    if size == 0:
        return ()
    return tuple(sorted(rng.choice(pool, size=size, replace=False).tolist()))


def _additive_reward(cards, eff_map, rng, state_values):
    """Reward on next state: sum over blocks of a per-block utility with one
    outstanding value per block, plus a small term on the uncontrolled part.

    Returns (reward table over (s, s'), per-block utility tables); the
    caller certifies dominance from each table's `_utility_gap`.
    """
    n_states = len(state_values)
    utils = []
    for eff in eff_map:
        dom = int(np.prod([cards[v] for v in eff]))
        u = np.concatenate([[1.0], rng.uniform(0.0, 0.25, size=dom - 1)])
        rng.shuffle(u)
        utils.append(u)
    h = rng.uniform(0.0, 0.1, size=n_states)
    next_reward = np.zeros(n_states)
    for k, eff in enumerate(eff_map):
        radix = MixedRadix([cards[v] for v in eff])
        codes = state_values[:, list(eff)] @ np.asarray(radix.strides, dtype=np.int64)
        next_reward += utils[k][codes]
    next_reward += h
    table = np.tile(next_reward, (n_states, 1))
    return table, utils


def _xor_reward(cards, eff_map, state_values):
    """Coordination-trap reward on the first two blocks' next values:
    both at their top value pays 1.0, both at zero pays 0.6, else 0.5.
    Single-block improvement away from (0, 0) looks like a loss."""
    n_states = len(state_values)
    v0, v1 = eff_map[0][0], eff_map[1][0]
    top0, top1 = cards[v0] - 1, cards[v1] - 1
    vals0 = state_values[:, v0]
    vals1 = state_values[:, v1]
    next_reward = np.full(n_states, 0.5)
    next_reward[(vals0 == 0) & (vals1 == 0)] = 0.6
    next_reward[(vals0 == top0) & (vals1 == top1)] = 1.0
    return np.tile(next_reward, (n_states, 1))


def generate_synthetic(params: SyntheticSpec) -> FactoredMdpSpec:
    """Build a random factored MDP with the requested structure.

    Raises ConfigurationError on inconsistent sizes.  Non-separable
    structures return an unvalidated spec; `spec.check()` rejects it.
    """
    if params.structure not in STRUCTURES:
        raise ConfigurationError(f"unknown structure {params.structure!r}")
    if params.reward_kind not in REWARD_KINDS:
        raise ConfigurationError(f"unknown reward kind {params.reward_kind!r}")
    K, M = params.n_blocks, params.n_vars
    if K < 1 or M < K:
        raise ConfigurationError(f"need n_vars >= n_blocks >= 1, got M={M}, K={K}")
    if params.structure == "non_separable" and K < 2:
        raise ConfigurationError("non_separable needs at least two blocks")
    if params.reward_kind == "xor_nonmonotonic" and K < 2:
        raise ConfigurationError("xor_nonmonotonic needs at least two blocks")
    cards = params.card_list()
    rng = np.random.default_rng(params.seed)

    controlled = list(range(K))
    uncontrolled = list(range(K, M))
    eff_map = [(k,) for k in range(K)]
    if params.structure == "non_separable":
        # second block also claims the first block's variable
        eff_map[1] = (1, 0)

    if params.structure == "fully_separable":
        # round-robin the uncontrolled variables into per-block groups
        group = {v: v for v in controlled}
        for j, v in enumerate(uncontrolled):
            group[v] = j % K
        pools = {k: [v for v in range(M) if group[v] == k] for k in range(K)}
    else:
        pools = None

    pre_map, sigmas, factors = [], [], []
    for k in range(K):
        pool = [v for v in (pools[k] if pools else range(M)) if v != k]
        pre = _subset(rng, pool, 1)
        pre_map.append(pre)
        n_pre = int(np.prod([cards[v] for v in pre])) if pre else 1
        eff_dom = int(np.prod([cards[v] for v in eff_map[k]]))
        # one action per effect value; each precondition row is a random
        # permutation, so every effect value stays reachable everywhere
        table = np.stack([rng.permutation(eff_dom) for _ in range(n_pre)], axis=1)
        sigmas.append(SigmaTable(k, table))

    for m in range(M):
        if params.structure == "fully_separable":
            pool = list(pools[group[m]])
        else:
            pool = list(range(M))
        state_parents = _subset(rng, pool, 2)
        eff_parents: tuple[int, ...] = ()
        if m in uncontrolled:
            eff_pool = [v for v in pool if v in controlled]
            eff_parents = _subset(rng, eff_pool, 2)
            if params.structure == "separable_effects" and K >= 2 and m == uncontrolled[0]:
                # force the shared-uncontrolled structure: read two blocks' effects
                eff_parents = (0, 1)
        n_rows = int(np.prod([cards[v] for v in state_parents + eff_parents])) if (state_parents or eff_parents) else 1
        factors.append(NoopFactor(m, state_parents, eff_parents, _random_dist_rows(rng, n_rows, cards[m])))

    state_radix = MixedRadix(cards)
    state_values = state_radix.table()
    n_states = state_radix.size
    discount = params.discount
    if params.reward_kind == "additive_monotonic":
        reward, utils = _additive_reward(cards, eff_map, rng, state_values)
        # dominance margin: the per-block utility gap must outweigh both the
        # uncontrolled reward term and any discounted future disagreement, so
        # block-local greedy choices coincide with joint greedy choices:
        #   gap > h_span + discount/(1-discount) * span(reward)
        gap = min(_utility_gap(u) for u in utils)
        span = float(reward.max() - reward.min())
        h_span = 0.1
        limit = (gap - h_span) / (span + (gap - h_span))
        if limit <= 0.02:
            raise ConfigurationError("reward draw left no dominance margin")
        discount = min(discount, 0.8 * limit)
    else:
        reward = _xor_reward(cards, eff_map, state_values)

    init = np.full(n_states, 1.0 / n_states)
    return FactoredMdpSpec(
        state_vars=tuple(cards),
        action_blocks=tuple((int(np.prod([cards[v] for v in eff])),) for eff in eff_map),
        eff_map=tuple(eff_map),
        pre_map=tuple(pre_map),
        sigma=tuple(sigmas),
        noop_dynamics=tuple(factors),
        reward=reward,
        init_dist=init,
        discount=discount,
        assume_positive=True,
        validate=params.structure != "non_separable",
    )


def _utility_gap(u: np.ndarray) -> float:
    top = np.sort(u)[::-1]
    return float(top[0] - top[1]) if len(top) > 1 else float(top[0])


def two_switch_spec(
    reward: str = "and",
    weights: tuple[float, float] = (1.0, 1.0),
    discount: float = 0.9,
    single_block: bool = False,
) -> FactoredMdpSpec:
    """Two binary switches plus one noise bit.

    Block k sets switch k directly (action 0 -> off, 1 -> on); under
    no-op each switch flips with probability `SWITCH_FLIP` = 0.1, and
    the noise bit flips with probability `NOISE_FLIP` = 0.3 regardless
    of interventions.
    Rewards: "and" pays 1 when both switches land on; "weighted" pays
    weights[0]*s1' + weights[1]*s2'.

    With single_block=True one block sets both switches at once (four
    actions), leaving no other block — its no-op propensity is 1.
    """
    cards = (2, 2, 2)
    radix = MixedRadix(cards)
    vals = radix.table()
    if reward == "and":
        next_r = (vals[:, 0] & vals[:, 1]).astype(np.float64)
    elif reward == "weighted":
        next_r = weights[0] * vals[:, 0] + weights[1] * vals[:, 1]
    else:
        raise ConfigurationError(f"unknown reward {reward!r}")
    reward_table = np.tile(next_r, (radix.size, 1))
    flip = lambda p: np.array([[1 - p, p], [p, 1 - p]])
    factors = (
        NoopFactor(0, (0,), (), flip(SWITCH_FLIP)),
        NoopFactor(1, (1,), (), flip(SWITCH_FLIP)),
        NoopFactor(2, (2,), (), flip(NOISE_FLIP)),
    )
    init = np.full(radix.size, 1.0 / radix.size)
    if single_block:
        return FactoredMdpSpec(
            state_vars=cards,
            action_blocks=((4,),),
            eff_map=((0, 1),),
            pre_map=((),),
            sigma=(SigmaTable(0, np.arange(4).reshape(4, 1)),),
            noop_dynamics=factors,
            reward=reward_table,
            init_dist=init,
            discount=discount,
            assume_positive=True,
        )
    return FactoredMdpSpec(
        state_vars=cards,
        action_blocks=((2,), (2,)),
        eff_map=((0,), (1,)),
        pre_map=((), ()),
        sigma=(
            SigmaTable(0, np.array([[0], [1]])),
            SigmaTable(1, np.array([[0], [1]])),
        ),
        noop_dynamics=factors,
        reward=reward_table,
        init_dist=init,
        discount=discount,
        assume_positive=True,
    )


def xor_trap_spec(discount: float = 0.5) -> FactoredMdpSpec:
    """Coordination trap: the joint optimum needs both blocks to move
    together, while any single-block deviation from the all-zero policy
    lowers the immediate reward.  Block-coordinate improvement started
    from the all-zero policy stalls strictly below the joint optimum."""
    params = SyntheticSpec(
        structure="separable_effects",
        n_vars=3,
        n_blocks=2,
        cards=2,
        seed=7,
        reward_kind="xor_nonmonotonic",
        discount=discount,
    )
    spec = generate_synthetic(params)
    # pin the intervention tables to plain set-actions so the all-zero
    # policy is exactly the (0, 0) corner of the trap
    return replace(
        spec,
        sigma=(
            SigmaTable(0, np.array([[0], [1]])),
            SigmaTable(1, np.array([[0], [1]])),
        ),
        pre_map=((), ()),
    )


def treatment_spec(discount: float = 1.0) -> FactoredMdpSpec:
    """Small treatment simulator for offline experiments.

    State: severity in {0..5} (uncontrolled) plus two treatment levels
    in {0..4}, one per block; action k sets treatment k directly.
    Severity falls when the combined treatment effect is dosed to match
    the current severity and rises when it is mismatched; severity 0 is
    a success terminal (+100), severity 5 a failure terminal (-100).
    The best dose pairing depends on severity, so good policies are
    state-dependent, and the dose response is spread across both blocks
    so per-block value estimates generalize where joint ones starve.
    """
    cards = (6, 5, 5)
    radix = MixedRadix(cards)
    vals = radix.table()
    n_states = radix.size

    # severity response: P(sev' | sev, t1', t2')
    rows = []
    for sev in range(6):
        for t1 in range(5):
            for t2 in range(5):
                if sev in (0, 5):
                    row = np.zeros(6)
                    row[sev] = 1.0  # absorbing
                else:
                    # each severity level wants a different combined dose
                    dose = 0.30 * t1 + 0.18 * t2
                    miss = abs(dose - (0.35 + 0.33 * sev))
                    p_down = float(np.clip(0.62 - 0.8 * miss, 0.03, 0.62))
                    p_up = float(np.clip(0.10 + 0.55 * miss, 0.05, 0.75))
                    p_stay = max(1.0 - p_down - p_up, 0.0)
                    row = np.zeros(6)
                    row[sev - 1] += p_down
                    row[sev] += p_stay
                    row[min(sev + 1, 5)] += p_up
                    row /= row.sum()
                rows.append(row)
    sev_factor = NoopFactor(0, (0,), (1, 2), np.asarray(rows))

    # treatments decay toward zero under no-op
    def decay_table(card):
        t = np.zeros((card, card))
        for v in range(card):
            t[v, max(v - 1, 0)] += 0.7
            t[v, v] += 0.3
        return t

    factors = (
        sev_factor,
        NoopFactor(1, (1,), (), decay_table(5)),
        NoopFactor(2, (2,), (), decay_table(5)),
    )
    sigma = (
        SigmaTable(0, np.arange(5).reshape(5, 1)),
        SigmaTable(1, np.arange(5).reshape(5, 1)),
    )

    sev_next = vals[:, 0]
    reward = np.zeros((n_states, n_states))
    landed_good = sev_next == 0
    landed_bad = sev_next == 5
    for s in range(n_states):
        if vals[s, 0] in (0, 5):
            continue  # no reward out of terminals
        reward[s, landed_good] = 100.0
        reward[s, landed_bad] = -100.0

    terminal = frozenset(
        int(s) for s in range(n_states) if vals[s, 0] in (0, 5)
    )
    init = np.zeros(n_states)
    # start mid-severity, no treatment on board
    for sev in (2, 3, 4):
        init[radix.encode((sev, 0, 0))] = 1.0 / 3.0

    return FactoredMdpSpec(
        state_vars=cards,
        action_blocks=((5,), (5,)),
        eff_map=((1,), (2,)),
        pre_map=((), ()),
        sigma=sigma,
        noop_dynamics=factors,
        reward=reward,
        init_dist=init,
        discount=discount,
        assume_positive=False,
        terminal_states=terminal,
    )
