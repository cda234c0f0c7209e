"""Tabular factored MDPs with intervention semantics.

A spec describes a finite MDP whose state is a tuple of discrete
variables and whose action is a tuple of independent blocks.  Each
action block intervenes on its own disjoint set of next-state variables
(its *effect set*): the block's intervention table maps (projected
action, values of the block's precondition variables) to the values the
effect variables are forced to take.  Every other next-state variable
follows its no-op conditional probability table.  Variables controlled
by no block may additionally condition on the realized values of effect
variables, which is how interventions propagate to the rest of the
state within a single step.

Joint states and joint actions are dense mixed-radix codes (see
`frl.indexing`); every table in this module is a dense ndarray.

`_support` is the one transition kernel.  With every block intervening,
it lists the next states that one or more columns of (state, block
actions) queries can reach, and their probabilities, in one compact
form: each query's base code plus offsets shared by every query, and
an index into the distinct probability rows, which depend only on the
no-op table rows the query selects.  It gathers through index arrays
the spec builds on first use, and no dense next-state row is built.
`sample_successors` draws one next state per query from the factors,
one variable at a time, with every block or only some intervening.
Planners pass per-state block actions, never rows: `evaluate` gives a
policy's state values (restarted GMRES on the operator the support
defines) and `q_table` the backups of every joint action, or of one
block's actions with the other blocks pinned, each summed over the
reachable next states alone.  Joint policy iteration and the offline
dataset generator read the same form.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    ConfigurationError,
    DomainError,
    NumericError,
    ShapeError,
    ValidationError,
)
from .indexing import MixedRadix

_PROB_TOL = 1e-12


@dataclass(frozen=True)
class NoopFactor:
    """No-op conditional table for one next-state variable.

    Args:
        var: index of the next-state variable this factor generates.
        state_parents: current-state parent variable indices.
        eff_parents: next-state parent variable indices; these must be
            variables controlled by some action block.  Only variables
            outside every effect set may declare them.
        table: shape (n_parent_rows, cardinality of var); each row is a
            distribution.  Row index = mixed-radix code of the state
            parent values followed by the eff parent values.
    """

    var: int
    state_parents: tuple[int, ...]
    eff_parents: tuple[int, ...]
    table: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "state_parents", tuple(int(v) for v in self.state_parents))
        object.__setattr__(self, "eff_parents", tuple(int(v) for v in self.eff_parents))
        t = np.asarray(self.table, dtype=np.float64)
        t.setflags(write=False)
        object.__setattr__(self, "table", t)


@dataclass(frozen=True)
class SigmaTable:
    """Deterministic intervention table for one action block.

    `table[a_k, pre_row]` is the mixed-radix code of the values forced
    onto the block's effect variables; -1 marks an undefined entry
    (rejected by validation, and a `ConfigurationError` if ever hit at
    evaluation time on a spec built with validate=False).
    """

    block: int
    table: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.table, dtype=np.int64)
        t.setflags(write=False)
        object.__setattr__(self, "table", t)


@dataclass(frozen=True)
class _KernelIndex:
    """Per-state index arrays the transition kernel gathers through.

    `pre_rows[k][s]` is block k's precondition row at state s,
    `eff_codes[k][s]` the code of block k's effect values in s, and
    `forced_base[k][c]` the joint-state code of block k's effect values
    at effect code c, every other variable at 0.  Variable
    m's no-op row index splits into a current-state part (the state
    parents) and a next-state part (the eff parents): `factors[m]` is
    (state_rows, rows, probs).  state_rows[s] is the state-parent code of
    s; for a transition s -> s', rows[state_rows[s], s'] is the row of
    m's no-op table it reads and probs[state_rows[s], s'] is
    P(s'_m | parents), the entry of that row at s'_m.  The kernel and
    `tabular.learn_model` both read their rows here.

    `row_key` is (state_key, next_key): with every block intervening,
    state_key[s] + next_key[s'] codes the values of the uncontrolled
    variables' state parents in s and of their eff parents in s', which
    are exactly what selects each uncontrolled variable's no-op row.
    The key is below n_states**2.
    """

    pre_rows: tuple[np.ndarray, ...]
    eff_codes: tuple[np.ndarray, ...]
    forced_base: tuple[np.ndarray, ...]
    factors: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]
    row_key: tuple[np.ndarray, np.ndarray]


@dataclass(frozen=True)
class FactoredMdpSpec:
    """Complete description of a factored-action MDP.

    Args:
        state_vars: cardinality of each state variable.
        action_blocks: per block, the cardinalities of its action
            variables; the block's projected action space is their
            product.
        eff_map: per block, the state variables it intervenes on.
            Effect sets must be non-empty and pairwise disjoint.
        pre_map: per block, the current-state variables its intervention
            table conditions on.
        sigma: per-block intervention tables.
        noop_dynamics: one `NoopFactor` per state variable, in variable
            order.
        reward: dense (n_states, n_states) table; entry [s, s'] is the
            reward for landing in s' from s.  Reward evaluation accepts
            an action argument for interface parity with learned reward
            models, but the tabular reward depends on (s, s') only.
        init_dist: initial distribution over joint states.
        discount: in (0, 1]; 1.0 requires declared terminal states.
        assume_positive: if True, validation rejects zero entries in
            no-op tables, which guarantees no-op propensities are
            strictly positive.
        terminal_states: absorbing joint states; episodes end there and
            their value is fixed at zero.
    """

    state_vars: tuple[int, ...]
    action_blocks: tuple[tuple[int, ...], ...]
    eff_map: tuple[tuple[int, ...], ...]
    pre_map: tuple[tuple[int, ...], ...]
    sigma: tuple[SigmaTable, ...]
    noop_dynamics: tuple[NoopFactor, ...]
    reward: np.ndarray
    init_dist: np.ndarray
    discount: float
    assume_positive: bool = False
    terminal_states: frozenset[int] = frozenset()
    validate: bool = True

    def __post_init__(self):
        object.__setattr__(self, "state_vars", tuple(int(c) for c in self.state_vars))
        object.__setattr__(self, "action_blocks", tuple(tuple(int(c) for c in b) for b in self.action_blocks))
        object.__setattr__(self, "eff_map", tuple(tuple(int(v) for v in b) for b in self.eff_map))
        object.__setattr__(self, "pre_map", tuple(tuple(int(v) for v in b) for b in self.pre_map))
        object.__setattr__(self, "sigma", tuple(self.sigma))
        object.__setattr__(self, "noop_dynamics", tuple(self.noop_dynamics))
        object.__setattr__(self, "terminal_states", frozenset(int(s) for s in self.terminal_states))
        r = np.asarray(self.reward, dtype=np.float64)
        r.setflags(write=False)
        object.__setattr__(self, "reward", r)
        d = np.asarray(self.init_dist, dtype=np.float64)
        d.setflags(write=False)
        object.__setattr__(self, "init_dist", d)

        object.__setattr__(self, "state_radix", MixedRadix(self.state_vars))
        object.__setattr__(self, "block_radix", tuple(MixedRadix(b) for b in self.action_blocks))
        object.__setattr__(self, "block_sizes", tuple(r.size for r in self.block_radix))
        object.__setattr__(self, "action_radix", MixedRadix(self.block_sizes))
        object.__setattr__(self, "pre_radix", tuple(MixedRadix([self.state_vars[v] for v in p]) for p in self.pre_map))
        object.__setattr__(self, "eff_radix", tuple(MixedRadix([self.state_vars[v] for v in e]) for e in self.eff_map))
        # decoded value of every state variable in every joint state
        object.__setattr__(self, "state_values", self.state_radix.table())
        var_block = np.full(len(self.state_vars), -1, dtype=np.int64)
        for k, eff in enumerate(self.eff_map):
            for v in eff:
                var_block[v] = k
        var_block.setflags(write=False)
        object.__setattr__(self, "var_block", var_block)
        object.__setattr__(self, "controlled_vars", tuple(int(v) for v in np.flatnonzero(var_block >= 0)))
        object.__setattr__(self, "uncontrolled_vars", tuple(int(v) for v in np.flatnonzero(var_block < 0)))
        if self.validate:
            self.check()

    # -- sizes ---------------------------------------------------------

    @property
    def n_states(self) -> int:
        return self.state_radix.size

    @property
    def n_actions(self) -> int:
        return self.action_radix.size

    @property
    def n_blocks(self) -> int:
        return len(self.action_blocks)

    @property
    def n_vars(self) -> int:
        return len(self.state_vars)

    # -- validation ----------------------------------------------------

    def check(self, require_disjoint_effects: bool = True) -> None:
        """Raise ValidationError on the first violated invariant."""
        M = self.n_vars
        if M == 0:
            raise ValidationError("spec needs at least one state variable")
        if self.n_blocks == 0:
            raise ValidationError("spec needs at least one action block")
        if len(self.eff_map) != self.n_blocks or len(self.pre_map) != self.n_blocks:
            raise ValidationError("eff_map/pre_map must have one entry per action block")
        seen: set[int] = set()
        for k, eff in enumerate(self.eff_map):
            if not eff:
                raise ValidationError(f"block {k} has an empty effect set")
            for v in eff:
                if not 0 <= v < M:
                    raise ValidationError(f"block {k} effect variable {v} out of range")
                if require_disjoint_effects and v in seen:
                    raise ValidationError(
                        f"state variable {v} appears in the effect set of more than one block"
                    )
                seen.add(v)
        for k, pre in enumerate(self.pre_map):
            for v in pre:
                if not 0 <= v < M:
                    raise ValidationError(f"block {k} precondition variable {v} out of range")

        if len(self.sigma) != self.n_blocks:
            raise ValidationError("need one intervention table per block")
        for k, sig in enumerate(self.sigma):
            if sig.block != k:
                raise ValidationError(f"sigma[{k}] is labeled for block {sig.block}")
            want = (self.block_sizes[k], self.pre_radix[k].size)
            if sig.table.shape != want:
                raise ShapeError(f"sigma[{k}] table has shape {sig.table.shape}, expected {want}")
            if (sig.table < 0).any():
                a_k, row = np.argwhere(sig.table < 0)[0]
                raise ValidationError(
                    f"sigma[{k}] undefined at projected action {a_k}, precondition row {row}"
                )
            if (sig.table >= self.eff_radix[k].size).any():
                raise ValidationError(f"sigma[{k}] has entries outside the effect domain")

        if len(self.noop_dynamics) != M:
            raise ValidationError("need one no-op factor per state variable")
        controlled = set(self.controlled_vars)
        for m, fac in enumerate(self.noop_dynamics):
            if fac.var != m:
                raise ValidationError(f"noop_dynamics[{m}] is labeled for variable {fac.var}")
            for v in fac.state_parents:
                if not 0 <= v < M:
                    raise ValidationError(f"factor {m} state parent {v} out of range")
            if fac.eff_parents and m in controlled:
                raise ValidationError(
                    f"controlled variable {m} may not condition on next-state values"
                )
            for v in fac.eff_parents:
                if v not in controlled:
                    raise ValidationError(
                        f"factor {m} eff parent {v} is not controlled by any block"
                    )
            rows = int(np.prod([self.state_vars[v] for v in fac.state_parents + fac.eff_parents], dtype=np.int64))
            if fac.table.shape != (rows, self.state_vars[m]):
                raise ShapeError(
                    f"factor {m} table has shape {fac.table.shape}, expected {(rows, self.state_vars[m])}"
                )
            if not np.isfinite(fac.table).all() or (fac.table < 0).any():
                raise ValidationError(f"factor {m} has negative or non-finite entries")
            err = np.abs(fac.table.sum(axis=1) - 1.0).max()
            if err > _PROB_TOL:
                raise ValidationError(f"factor {m} rows do not sum to 1 (max error {err:.3e})")
            if self.assume_positive and (fac.table <= 0).any():
                raise ValidationError(
                    f"factor {m} has zero entries but the spec is flagged assume_positive"
                )

        if self.reward.shape != (self.n_states, self.n_states):
            raise ShapeError(
                f"reward table has shape {self.reward.shape}, expected {(self.n_states, self.n_states)}"
            )
        if not np.isfinite(self.reward).all():
            raise ValidationError("reward table has non-finite entries")
        if self.init_dist.shape != (self.n_states,):
            raise ShapeError("init_dist must have one entry per joint state")
        if not (self.init_dist >= 0).all() or not abs(self.init_dist.sum() - 1.0) <= _PROB_TOL:  # NaN compares False
            raise ValidationError("init_dist is not a distribution")
        if not 0.0 < self.discount <= 1.0:
            raise ValidationError(f"discount must be in (0, 1], got {self.discount}")
        if self.discount == 1.0 and not self.terminal_states:
            raise ValidationError("discount 1.0 requires declared terminal states")
        for s in self.terminal_states:
            if not 0 <= s < self.n_states:
                raise ValidationError(f"terminal state {s} out of range")

    # -- coding helpers --------------------------------------------------

    def action_as_blocks(self, a) -> tuple[int, ...]:
        """Accept a joint action code or a per-block index sequence."""
        if np.isscalar(a) or isinstance(a, (int, np.integer)):
            return self.action_radix.decode(int(a))
        blocks = tuple(int(x) for x in a)
        if len(blocks) != self.n_blocks:
            raise DomainError(f"expected {self.n_blocks} block indices, got {len(blocks)}")
        for k, a_k in enumerate(blocks):
            if not 0 <= a_k < self.block_sizes[k]:
                raise DomainError(f"block {k} action {a_k} out of range [0, {self.block_sizes[k]})")
        return blocks

    def sigma_values(self, k: int, a_k: int, s: int) -> tuple[int, ...]:
        """Values forced onto block k's effect variables from state s."""
        return self.eff_radix[k].decode(_forced_codes(self, k, np.array([s]), np.array([a_k]))[0])

    @functools.cached_property
    def _index(self) -> _KernelIndex:
        """Index arrays of the transition kernel, built on first use."""
        vals = self.state_values

        def codes(variables):
            radix = MixedRadix([self.state_vars[v] for v in variables])
            return radix.encode_many(vals[:, list(variables)])

        drawn = [self.noop_dynamics[m] for m in self.uncontrolled_vars]
        state_parents = sorted({v for fac in drawn for v in fac.state_parents})
        eff_parents = sorted({v for fac in drawn for v in fac.eff_parents})
        n_eff = int(np.prod([self.state_vars[v] for v in eff_parents], dtype=np.int64))

        factors = []
        for fac in self.noop_dynamics:
            n_state_rows = int(np.prod([self.state_vars[v] for v in fac.state_parents], dtype=np.int64))
            n_eff_rows = int(np.prod([self.state_vars[v] for v in fac.eff_parents], dtype=np.int64))
            rows = np.arange(n_state_rows)[:, None] * n_eff_rows + codes(fac.eff_parents)
            factors.append((codes(fac.state_parents), rows, fac.table[rows, vals[:, fac.var]]))
        return _KernelIndex(
            pre_rows=tuple(codes(p) for p in self.pre_map),
            eff_codes=tuple(codes(e) for e in self.eff_map),
            forced_base=tuple(
                radix.table() @ np.take(self.state_radix.strides, e) for radix, e in zip(self.eff_radix, self.eff_map)
            ),
            factors=tuple(factors),
            row_key=(codes(state_parents) * n_eff, codes(eff_parents)),
        )

    # -- serialization ---------------------------------------------------

    def to_json(self) -> str:
        doc = {
            "state_vars": list(self.state_vars),
            "action_blocks": [list(b) for b in self.action_blocks],
            "eff_map": [list(b) for b in self.eff_map],
            "pre_map": [list(b) for b in self.pre_map],
            "sigma": [
                {"block": sig.block, "table": sig.table.tolist()} for sig in self.sigma
            ],
            "noop_dynamics": [
                {
                    "var": fac.var,
                    "state_parents": list(fac.state_parents),
                    "eff_parents": list(fac.eff_parents),
                    "table": fac.table.tolist(),
                }
                for fac in self.noop_dynamics
            ],
            "reward": self.reward.tolist(),
            "init_dist": self.init_dist.tolist(),
            "discount": self.discount,
            "assume_positive": self.assume_positive,
            "terminal_states": sorted(self.terminal_states),
        }
        return json.dumps(doc, indent=1)

    @classmethod
    def from_json(cls, text: str, validate: bool = True) -> "FactoredMdpSpec":
        return cls.from_doc(json.loads(text), validate=validate)

    @classmethod
    def from_doc(cls, doc: dict, validate: bool = True) -> "FactoredMdpSpec":
        """The spec in a `to_json` document; KeyError names a missing field."""
        if not isinstance(doc, dict):
            raise ValidationError("spec is not a JSON object")
        return cls(
            state_vars=tuple(doc["state_vars"]),
            action_blocks=tuple(tuple(b) for b in doc["action_blocks"]),
            eff_map=tuple(tuple(b) for b in doc["eff_map"]),
            pre_map=tuple(tuple(b) for b in doc["pre_map"]),
            sigma=tuple(SigmaTable(d["block"], np.asarray(d["table"])) for d in doc["sigma"]),
            noop_dynamics=tuple(
                NoopFactor(
                    d["var"],
                    tuple(d["state_parents"]),
                    tuple(d["eff_parents"]),
                    np.asarray(d["table"]),
                )
                for d in doc["noop_dynamics"]
            ),
            reward=np.asarray(doc["reward"]),
            init_dist=np.asarray(doc["init_dist"]),
            discount=float(doc["discount"]),
            assume_positive=bool(doc.get("assume_positive", False)),
            terminal_states=frozenset(doc.get("terminal_states", ())),
            validate=validate,
        )


# -- policies and Q tables ------------------------------------------------


@dataclass
class FactoredPolicy:
    """Deterministic per-block policy: blocks[k, s] is block k's action."""

    blocks: np.ndarray

    def __post_init__(self):
        self.blocks = np.asarray(self.blocks, dtype=np.int64)
        if self.blocks.ndim != 2:
            raise ShapeError("policy table must be 2-D (blocks, states)")

    def check(self, spec: FactoredMdpSpec) -> None:
        if self.blocks.shape != (spec.n_blocks, spec.n_states):
            raise ShapeError(
                f"policy has shape {self.blocks.shape}, expected {(spec.n_blocks, spec.n_states)}"
            )
        for k in range(spec.n_blocks):
            col = self.blocks[k]
            if col.min() < 0 or col.max() >= spec.block_sizes[k]:
                raise DomainError(f"policy block {k} has out-of-range actions")

    def joint_action(self, s: int) -> tuple[int, ...]:
        return tuple(int(a) for a in self.blocks[:, s])

    def joint_codes(self, spec: FactoredMdpSpec) -> np.ndarray:
        return spec.action_radix.encode_many(self.blocks.T)

    def copy(self) -> "FactoredPolicy":
        return FactoredPolicy(self.blocks.copy())

    @classmethod
    def random(cls, spec: FactoredMdpSpec, rng: np.random.Generator) -> "FactoredPolicy":
        rows = [rng.integers(0, n, size=spec.n_states) for n in spec.block_sizes]
        return cls(np.stack(rows))

    @classmethod
    def constant(cls, spec: FactoredMdpSpec, block_actions: Sequence[int]) -> "FactoredPolicy":
        rows = [np.full(spec.n_states, int(a), dtype=np.int64) for a in block_actions]
        return cls(np.stack(rows))


@dataclass
class QTable:
    """Dense action-value table: one column per joint action, or per
    action of one block."""

    table: np.ndarray

    def __post_init__(self):
        self.table = np.asarray(self.table, dtype=np.float64)
        if self.table.ndim != 2:
            raise ShapeError("Q table must be 2-D (states, actions)")
        if not np.isfinite(self.table).all():
            raise NumericError("Q table has non-finite entries")

    def greedy(self, incumbent: np.ndarray | None = None) -> np.ndarray:
        """Per-state argmax; ties go to the lowest action index.

        With `incumbent` (one action per state), a state keeps its
        incumbent action unless the best action beats it by more than
        tol = 1e-12 * max(1, max|Q|), and a state that moves takes the
        lowest action index within tol of the best.  Policy iteration
        passes its current policy, so actions tied up to float noise
        never make it cycle (Puterman 1994, section 6.4), and float
        noise in the backup sums never picks between them.
        """
        best = self.table.argmax(axis=1)
        if incumbent is None:
            return best
        incumbent = np.asarray(incumbent, dtype=np.int64)
        tol = 1e-12 * max(1.0, float(np.abs(self.table).max()))
        top = self.values(best)
        lowest = (self.table >= (top - tol)[:, None]).argmax(axis=1)
        return np.where(top - self.values(incumbent) > tol, lowest, incumbent)

    def values(self, actions: np.ndarray) -> np.ndarray:
        return self.table[np.arange(self.table.shape[0]), actions]


# -- transition kernel ------------------------------------------------------


def _forced_codes(spec: FactoredMdpSpec, k: int, states: np.ndarray, actions: np.ndarray) -> np.ndarray:
    """Block k's intervention-table code at each (state, projected action)."""
    codes = spec.sigma[k].table[actions, spec._index.pre_rows[k][states]]
    if (codes < 0).any():
        i = int(np.flatnonzero(codes < 0)[0])
        pre_vals = tuple(int(spec.state_values[states[i], v]) for v in spec.pre_map[k])
        raise ConfigurationError(
            f"intervention table for block {k} is undefined at projected action "
            f"{int(actions[i])}, precondition values {pre_vals}"
        )
    return codes


def _check_codes(spec: FactoredMdpSpec, states: np.ndarray, blocks: np.ndarray) -> None:
    """DomainError unless every state code and (n, n_blocks) block action is in range."""
    if ((states < 0) | (states >= spec.n_states)).any():
        raise DomainError(f"state codes out of range [0, {spec.n_states})")
    if ((blocks < 0) | (blocks >= np.asarray(spec.block_sizes))).any():
        raise DomainError("block actions out of range")


def _check_block(spec: FactoredMdpSpec, k) -> int:
    if not 0 <= k < spec.n_blocks:
        raise DomainError(f"block {k} out of range [0, {spec.n_blocks})")
    return int(k)


def _query(spec: FactoredMdpSpec, states, blocks) -> tuple[np.ndarray, np.ndarray]:
    """(states, blocks) of a kernel query as int64 arrays, blocks broadcast
    to (n, n_blocks); ShapeError unless they fit."""
    states = np.asarray(states, dtype=np.int64)
    try:
        blocks = np.broadcast_to(np.asarray(blocks, dtype=np.int64), (len(states), spec.n_blocks))
    except ValueError as e:
        raise ShapeError(f"block actions do not fit {len(states)} states x {spec.n_blocks} blocks") from e
    return states, blocks


def _checked_query(spec: FactoredMdpSpec, states, blocks) -> tuple[np.ndarray, np.ndarray]:
    """`_query`, and DomainError unless every code is in range."""
    states, blocks = _query(spec, states, blocks)
    _check_codes(spec, states, blocks)
    return states, blocks


def _successor_args(spec: FactoredMdpSpec, states, blocks, intervening):
    """(states, base codes, drawn variables) of a query whose codes are in
    range: a base code holds the values the pinned blocks force, every
    other variable at 0; drawn are the unpinned effect variables of
    blocks that do not intervene, then the uncontrolled ones, so eff
    parents come before their readers."""
    states, blocks = _query(spec, states, blocks)
    pinned = range(spec.n_blocks) if intervening is None else sorted(set(intervening))
    if any(not 0 <= k < spec.n_blocks for k in pinned):
        raise DomainError(f"intervening blocks {tuple(pinned)} out of range [0, {spec.n_blocks})")
    pinned_vars = [v for k in pinned for v in spec.eff_map[k]]
    shared = [v for v in pinned_vars if pinned_vars.count(v) > 1]
    if shared:  # a spec built with validate=False may overlap
        raise ConfigurationError(f"intervening blocks {tuple(pinned)} share effect variable {shared[0]}")
    base = np.zeros(len(states), dtype=np.int64)
    for k in pinned:
        base += spec._index.forced_base[k][_forced_codes(spec, k, states, blocks[:, k])]
    free = [v for k in range(spec.n_blocks) if k not in pinned for v in spec.eff_map[k] if v not in pinned_vars]
    return states, base, list(dict.fromkeys(free)) + list(spec.uncontrolled_vars)


def _support(spec: FactoredMdpSpec, states, columns) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The next states each (state, block actions) query can reach with
    every block intervening (Boutilier, Dearden & Goldszmidt 2000), for
    one or more columns of queries over `states`: columns[c] holds block
    actions as an (n, n_blocks) array or one action per block for every
    state, and a `columns` of fewer than three axes is one column.
    Returns (base, offsets, index, rows): query (c, i) reaches the codes
    base[c, i] + offsets with probabilities rows[index[c, i]].

    Every block pins its effect variables to its intervention-table
    values, so the drawn variables are the uncontrolled ones whatever
    the action, and `offsets` (D,) lists every assignment of them.  They
    come in ascending index order, so `offsets` ascend and each support
    is in code order.  A row is the product of the drawn variables'
    factor probabilities, in drawing order, and depends only on the
    no-op table rows the state and the base code select
    (`_KernelIndex.row_key`).  Queries that select the same rows share
    one of the (U, D) `rows`, computed once from a representative; no
    (C, n, D) array is built.  The public entry points check the codes;
    this trusts them."""
    states = np.asarray(states, dtype=np.int64)
    columns = np.asarray(columns, dtype=np.int64)
    if columns.ndim < 3:
        columns = columns[None]
    base = np.empty((len(columns), len(states)), dtype=np.int64)
    for c, blocks in enumerate(columns):
        _, base[c], drawn = _successor_args(spec, states, blocks, None)
    state_key, next_key = spec._index.row_key
    _, first, index = np.unique((state_key[states] + next_key[base]).ravel(), return_index=True, return_inverse=True)
    offsets = np.zeros(1, dtype=np.int64)
    for m in drawn:
        offsets = (offsets[:, None] + np.arange(spec.state_vars[m]) * spec.state_radix.strides[m]).reshape(-1)
    rep_states, codes = states[first % len(states)], base.flat[first][:, None] + offsets
    rows = np.ones(codes.shape)
    for m in drawn:
        state_rows, _, p = spec._index.factors[m]
        rows *= np.take(p, state_rows[rep_states][:, None] * spec.n_states + codes)  # ~2x faster than a 2-D gather
    return base, offsets, index.reshape(base.shape), rows


_CHOICE_ATOL = math.sqrt(np.finfo(np.float64).eps)


def _cdfs_in_place(rows: np.ndarray) -> np.ndarray:
    """Turn each row along the last axis of the float64 array `rows` into
    its normalised CDF, in place and by rng.choice's arithmetic (cdf =
    p.cumsum(); cdf /= cdf[-1]), and return which rows choice rejects: a
    NaN, a negative entry, or a sum off 1 by more than sqrt(eps).  The
    sum is the CDF's last entry; choice's compensated sum differs from it
    in the last bits only."""
    bad = ~(rows >= 0).all(axis=-1)  # NaN compares False
    np.cumsum(rows, axis=-1, out=rows)
    totals = rows[..., -1:].copy()
    bad |= np.abs(totals[..., 0] - 1.0) > _CHOICE_ATOL
    with np.errstate(divide="ignore", invalid="ignore"):  # a bad row may sum to 0
        rows /= totals
    return bad


def _choice_error(row: np.ndarray) -> str:
    """Why rng.choice rejects the distribution `row`."""
    if np.isnan(row).any():
        return "probabilities contain NaN"
    if (row < 0).any():
        return "probabilities are not non-negative"
    return f"probabilities sum to {float(row.sum())!r}, not 1"


def sample_rows(rows: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One index drawn from each row's distribution, in one pass: the
    number of entries of the row's normalised CDF at or below one uniform
    from `rng`.  That is how rng.choice(len(row), p=row) draws, so the
    draws and the generator's state equal one such call per row.  Raises
    ValueError where choice would (`_cdfs_in_place`).
    """
    rows = np.asarray(rows, dtype=np.float64)
    cdf = rows.copy()
    bad = _cdfs_in_place(cdf)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise ValueError(f"row {i}: {_choice_error(rows[i])}")
    u = rng.random(len(rows))
    return (cdf <= u[:, None]).sum(axis=1)


def sample_successors(spec: FactoredMdpSpec, states, blocks, rng: np.random.Generator, intervening=None) -> np.ndarray:
    """One next-state code per (state, block actions) query, drawn by
    ancestral sampling (Koller & Friedman 2009, section 12.1): blocks in
    `intervening` (every block when None) pin their effect variables to
    their forced values, then each drawn variable takes one
    `sample_rows` draw from its no-op row read at the partial code,
    which already holds its eff parents.  With one drawn variable the
    draws and the generator's state equal `sample_rows` on the queries'
    dense next-state rows: the same uniform lands on the same code.
    """
    states, codes, drawn = _successor_args(spec, *_checked_query(spec, states, blocks), intervening)
    strides = spec.state_radix.strides
    for m in drawn:
        state_rows, rows, _ = spec._index.factors[m]
        table = spec.noop_dynamics[m].table[rows[state_rows[states], codes]]
        codes += sample_rows(table, rng) * strides[m]
    return codes


# -- policy evaluation and Q tables -----------------------------------------

_GMRES_TOL = 1e-13
_GMRES_RESTART = 50
_GMRES_CYCLES = 20
_GMRES_ROUNDING = 8 * np.finfo(np.float64).eps


def _terminal_mask(spec: FactoredMdpSpec) -> np.ndarray:
    mask = np.zeros(spec.n_states, dtype=bool)
    mask[list(spec.terminal_states)] = True
    return mask


def _rewards_at(spec: FactoredMdpSpec, codes: np.ndarray) -> np.ndarray:
    """reward[s, codes[s, d]] for every state s, shaped like the (S, D) codes."""
    return np.take(spec.reward, np.arange(spec.n_states)[:, None] * spec.n_states + codes)


def _check_absorbing(support, free: np.ndarray) -> None:
    """NumericError unless every state reaches a terminal state along the
    positive entries of the one-column `_support` `support`: at discount
    1 the values of a closed class of non-terminal states are undefined,
    and I - P is singular."""
    base, offsets, index, rows = support
    codes, moves = base[0][:, None] + offsets, (rows > 0)[index[0]]
    reach = ~free
    while True:
        grown = reach | (moves & reach[codes]).any(axis=1)
        if (grown == reach).all():
            break
        reach = grown
    if not reach.all():
        raise NumericError(
            f"policy evaluation at discount 1 is undefined: {int((~reach).sum())} states, "
            f"first {int(np.flatnonzero(~reach)[0])}, never reach a terminal state"
        )


def _solve(spec: FactoredMdpSpec, support) -> np.ndarray:
    """State values of the policy whose support from every state is the
    one-column `_support` `support`, in state order: restarted GMRES
    (Saad & Schultz 1986) from zero on (I - discount P) V = r, applying
    the operator straight from the support, so no (S, S) array is built.
    Terminal rows of P and r are zero, so terminal states keep value
    zero.

    A cycle runs up to `_GMRES_RESTART` = 50 steps, orthogonalising each
    Krylov vector by classical Gram-Schmidt twice and triangularising the
    Hessenberg matrix by Givens rotations.  Each cycle stops once the
    rotations' residual estimate is at most `_GMRES_TOL` = 1e-13 ||r||;
    the solve returns once the recomputed residual is, or once it is
    within `_GMRES_ROUNDING` = 8 eps (||r|| + (1 + discount) ||V||) of
    zero, the rounding error of computing it, which near discount 1
    lies above the relative target.  NumericError at discount 1 unless
    every state reaches a terminal state, else when `_GMRES_CYCLES` = 20
    cycles do not get there or the system is singular to working
    precision.
    """
    free = ~_terminal_mask(spec)
    if spec.discount == 1.0:
        _check_absorbing(support, free)
    base, offsets, index, rows = support
    codes, probs = base[0][:, None] + offsets, rows[index[0]]
    weights = np.where(free[:, None], spec.discount * probs, 0.0)
    rhs = np.where(free, np.einsum("ij,ij->i", probs, _rewards_at(spec, codes)), 0.0)

    def apply(x: np.ndarray) -> np.ndarray:
        return x - np.einsum("ij,ij->i", weights, x[codes])

    norm_rhs = math.sqrt(rhs @ rhs)
    target = _GMRES_TOL * norm_rhs
    values = np.zeros(spec.n_states)
    basis = np.empty((_GMRES_RESTART + 1, spec.n_states))
    for _ in range(_GMRES_CYCLES):
        residual = rhs - apply(values)
        beta = math.sqrt(residual @ residual)
        rounding = _GMRES_ROUNDING * (norm_rhs + (1.0 + spec.discount) * math.sqrt(values @ values))
        if beta <= max(target, rounding):
            return values
        basis[0] = residual / beta
        # the triangular factor by columns, its rotations and the rotated beta e1
        tri, cos, sin, g = [], [], [], [beta]
        for j in range(_GMRES_RESTART):
            w = apply(basis[j])
            h = basis[: j + 1] @ w
            w -= h @ basis[: j + 1]
            again = basis[: j + 1] @ w
            w -= again @ basis[: j + 1]
            col = (h + again).tolist()
            norm = math.sqrt(w @ w)
            for i in range(j):
                col[i], col[i + 1] = cos[i] * col[i] + sin[i] * col[i + 1], cos[i] * col[i + 1] - sin[i] * col[i]
            rho = math.hypot(col[j], norm)
            if rho == 0.0:
                raise NumericError("policy evaluation is singular to working precision")
            cos.append(col[j] / rho)
            sin.append(norm / rho)
            col[j] = rho
            tri.append(col)
            g.append(-sin[j] * g[j])
            g[j] *= cos[j]
            if abs(g[j + 1]) <= target or norm == 0.0:
                break
            basis[j + 1] = w / norm
        k = len(tri)
        r = np.zeros((k, k))
        for j, col in enumerate(tri):
            r[: j + 1, j] = col
        y = np.linalg.solve(r, g[:k])
        if not np.isfinite(y).all():
            raise NumericError("policy evaluation is singular to working precision")
        values += y @ basis[:k]
    raise NumericError(
        f"policy evaluation did not converge in {_GMRES_CYCLES} GMRES cycles of {_GMRES_RESTART} steps"
    )


def _q_columns(spec: FactoredMdpSpec, blocks: np.ndarray, k: int) -> np.ndarray:
    """Block actions of each column of block k's Q table: each of block
    k's actions with the other blocks at the (S, n_blocks) array `blocks`."""
    columns = np.repeat(np.asarray(blocks, dtype=np.int64)[None], spec.block_sizes[k], axis=0)
    columns[:, :, k] = np.arange(spec.block_sizes[k])[:, None]
    return columns


def _q_table(spec: FactoredMdpSpec, values: np.ndarray, support) -> QTable:
    """One backup column per column of the `_support` `support` over every
    state, one per joint action or `_q_columns` column in order; each
    column sums over its support alone."""
    base, offsets, index, rows = support
    q = np.empty((spec.n_states, len(base)))
    for c, (b, i) in enumerate(zip(base, index)):
        codes = b[:, None] + offsets
        q[:, c] = np.einsum("ij,ij->i", rows[i], _rewards_at(spec, codes) + spec.discount * values[codes])
    q[_terminal_mask(spec)] = 0.0
    return QTable(q)


def evaluate(spec: FactoredMdpSpec, blocks) -> np.ndarray:
    """State values of the deterministic policy that takes block actions
    blocks[s] (an (S, n_blocks) array) in state s; NumericError where
    `_solve` finds none."""
    return _solve(spec, _support(spec, *_checked_query(spec, np.arange(spec.n_states), blocks)))


def q_table(spec: FactoredMdpSpec, values, blocks=None, k: int | None = None) -> QTable:
    """Interventional backups sum_s' P(s' | s, a)(reward[s, s'] + discount V(s')),
    zero on terminal states.

    With k None the table covers every joint action, over one
    `_support` call with a column per joint action.  Otherwise it covers
    block k's actions, the other blocks taking their actions in the
    (S, n_blocks) array `blocks`, over one call with a column per
    action of block k (`_q_columns`).
    """
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (spec.n_states,):
        raise ShapeError(f"values have shape {values.shape}, expected ({spec.n_states},)")
    states = np.arange(spec.n_states)
    if k is None:
        return _q_table(spec, values, _support(spec, states, spec.action_radix.table()[:, None]))
    k = _check_block(spec, k)
    if blocks is None:
        raise ShapeError(f"block {k}'s Q table needs the other blocks' actions as an (S, n_blocks) array")
    states, blocks = _checked_query(spec, states, blocks)
    return _q_table(spec, values, _support(spec, states, _q_columns(spec, blocks, k)))
