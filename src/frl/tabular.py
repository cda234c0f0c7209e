"""Tabular planning and model estimation for factored-action MDPs.

`factored_policy_iteration` is block-coordinate policy iteration: it
evaluates the current joint policy, expands the projected Q table of
one block (every other block pinned to the policy through its
intervention table), and greedily improves that block.  The joint
Howard-iteration oracle `joint_policy_iteration` solves the same MDP
over the flat joint action space, so the two routes cross-check each
other.  MBFPI passes per-state block actions to `factored_mdp.evaluate`
(a policy's state values, by GMRES on each state's reachable
successors) and `factored_mdp.q_table` (backups of the joint actions,
or of one block's actions with the others pinned, summed over the same
successors); joint PI builds every joint action's successors once and
runs the same solve and backups on them.  Both keep a state's current
action unless another beats it by more than float noise, so ties cannot
make either planner cycle.

`learn_model` fits intervention tables (majority vote per cell), no-op
factors and rewards (empirical frequencies/means) from arrays of logged
transitions, reading table rows from the kernel's index;
`LearnedModel.to_spec` turns the fit into a spec that planners and
the offline learner read, with every unvisited cell imputed.
`sample_complexity_experiment` measures how the sup-norm estimation
error shrinks with sample size against closed-form bounds, drawing
its samples with `factored_mdp.sample_successors`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigurationError,
    DomainError,
    NumericError,
    ShapeError,
)
from .factored_mdp import (
    FactoredMdpSpec,
    FactoredPolicy,
    NoopFactor,
    QTable,
    SigmaTable,
    _check_codes,
    _q_table,
    _solve,
    _support,
    _terminal_mask,
    evaluate,
    q_table,
    sample_successors,
)


# -- block-coordinate policy iteration --------------------------------------


@dataclass
class IterationRecord:
    index: int
    improved_block: int
    n_changed: int
    policy: np.ndarray  # (K, n_states) snapshot after improvement
    values: np.ndarray  # V of the policy that was evaluated this iteration
    q_tables: list[QTable] | None


@dataclass
class PolicyIterationTrace:
    iterations: list[IterationRecord]
    final_policy: FactoredPolicy
    final_values: np.ndarray
    terminated: str  # "converged" | "budget"

    def to_jsonl(self) -> str:
        lines = []
        for rec in self.iterations:
            lines.append(
                json.dumps(
                    {
                        "iter": rec.index,
                        "improved_block": rec.improved_block,
                        "n_changed": rec.n_changed,
                        "policy": rec.policy.tolist(),
                        "values": rec.values.tolist(),
                        "q_tables": None
                        if rec.q_tables is None
                        else [qt.table.tolist() for qt in rec.q_tables],
                    }
                )
            )
        lines.append(
            json.dumps(
                {
                    "terminated": self.terminated,
                    "final_policy": self.final_policy.blocks.tolist(),
                    "final_values": self.final_values.tolist(),
                }
            )
        )
        return "\n".join(lines) + "\n"


def factored_policy_iteration(
    spec: FactoredMdpSpec,
    init_policy: FactoredPolicy,
    *,
    block_order: str = "round_robin",
    max_sweeps: int | None = None,
    seed: int | None = None,
    store_q: bool = True,
) -> PolicyIterationTrace:
    """Block-coordinate policy iteration over projected Q tables.

    Plans on a spec; a caller with a `LearnedModel` converts it first
    with `LearnedModel.to_spec`, which imputes its zero-count cells and
    returns them.

    One iteration = evaluate the current policy (`factored_mdp.evaluate`,
    reused while iterations leave the policy unchanged), then improve
    one block greedily per state against its projected Q table.  A
    state keeps its current action unless another beats it by more than
    float noise (`QTable.greedy` with an incumbent), and ties between
    new actions go to the lowest index.  Only block k's table is
    computed, unless `store_q` keeps every block's table in the trace.
    Terminates once a full pass over the blocks changes nothing;
    `max_sweeps` defaults to the finite-termination bound
    n_states * sum(block sizes).
    """
    policy = init_policy.copy()
    policy.check(spec)
    K = spec.n_blocks
    if max_sweeps is None:
        max_sweeps = spec.n_states * sum(spec.block_sizes) + 1
    if block_order == "round_robin":
        schedule = None
    elif block_order == "random":
        schedule = np.random.default_rng(seed)
    else:
        raise ConfigurationError(f"unknown block order {block_order!r}")

    records: list[IterationRecord] = []
    terminated = "budget"
    it = 0
    stable_blocks: set[int] = set()  # blocks rechecked since the last change
    values = evaluate(spec, policy.blocks.T)
    for sweep in range(max_sweeps):
        order = list(range(K)) if schedule is None else schedule.permutation(K).tolist()
        for k in order:
            if store_q:
                q_tables = [q_table(spec, values, policy.blocks.T, i) for i in range(K)]
                q = q_tables[k]
            else:
                q_tables, q = None, q_table(spec, values, policy.blocks.T, k)
            greedy = q.greedy(incumbent=policy.blocks[k])
            n_changed = int(np.sum(greedy != policy.blocks[k]))
            policy.blocks[k] = greedy
            records.append(
                IterationRecord(
                    index=it,
                    improved_block=k,
                    n_changed=n_changed,
                    policy=policy.blocks.copy(),
                    values=values,
                    q_tables=q_tables,
                )
            )
            it += 1
            if n_changed == 0:
                stable_blocks.add(k)
            else:
                stable_blocks.clear()
                values = evaluate(spec, policy.blocks.T)
            if len(stable_blocks) == K:
                terminated = "converged"
                break
        if terminated == "converged":
            break
    return PolicyIterationTrace(
        iterations=records,
        final_policy=policy,
        final_values=values,
        terminated=terminated,
    )


# -- joint policy-iteration oracle -------------------------------------------


@dataclass
class JointPiResult:
    policy: np.ndarray  # joint action code per state
    q: QTable
    values: np.ndarray
    iterations: int


def joint_policy_iteration(
    spec: FactoredMdpSpec,
    init: np.ndarray | None = None,
    max_iters: int = 500,
) -> JointPiResult:
    """Howard policy iteration over the flat joint action space.

    Every joint action's support is built once per call, by one
    `factored_mdp._support` call with a column per joint action, since it
    depends on neither the policy nor the values.  Policy evaluation is
    `factored_mdp.evaluate`'s solve on the policy's entries of that
    support, and the backups are `factored_mdp.q_table`'s over it, the
    same terms in the same order.
    Improvement is greedy, keeps a state's current action unless another
    beats it by more than float noise, and breaks ties between new
    actions to the lowest index.  Serves as the exact oracle the
    block-coordinate method is compared against.
    """
    n, A = spec.n_states, spec.n_actions
    term = _terminal_mask(spec)
    policy = np.zeros(n, dtype=np.int64) if init is None else np.asarray(init, dtype=np.int64).copy()
    if policy.shape != (n,) or policy.min() < 0 or policy.max() >= A:
        raise DomainError("init policy must map every state to a joint action code")
    states = np.arange(n)
    base, offsets, index, rows = support = _support(spec, states, spec.action_radix.table()[:, None])
    for it in range(max_iters):
        values = _solve(spec, (base[policy, states][None], offsets, index[policy, states][None], rows))
        q = _q_table(spec, values, support, None)
        new_policy = q.greedy(incumbent=policy)
        new_policy[term] = 0
        if np.array_equal(new_policy, policy):
            return JointPiResult(policy, q, values, it + 1)
        policy = new_policy
    raise NumericError(f"joint policy iteration did not converge in {max_iters} iterations")


# -- model learning -----------------------------------------------------------


@dataclass
class LearnedModel:
    """Empirical tables estimated from logged transitions.

    Mirrors the structure of the skeleton spec it was fitted to; rows
    with zero visit count keep zero probability here, are listed by
    `zero_count_cells()`, and are imputed only by `to_spec`, which
    returns them.
    """

    skeleton: FactoredMdpSpec
    sigma_value_counts: list[np.ndarray]  # (|A_k|, n_pre_rows, eff_dom)
    noop_counts: list[np.ndarray]  # (n_rows, card)
    reward_sum: np.ndarray  # (n_states, n_states)
    reward_count: np.ndarray

    @property
    def sigma_hat(self) -> list[np.ndarray]:
        out = []
        for counts in self.sigma_value_counts:
            total = counts.sum(axis=2)
            hat = counts.argmax(axis=2)
            hat[total == 0] = -1
            out.append(hat)
        return out

    @property
    def noop_tables(self) -> list[np.ndarray]:
        out = []
        for counts in self.noop_counts:
            rowsum = counts.sum(axis=1, keepdims=True)
            with np.errstate(invalid="ignore"):
                t = np.where(rowsum > 0, counts / np.maximum(rowsum, 1), 0.0)
            out.append(t)
        return out

    def zero_count_cells(self) -> list[str]:
        missing = []
        for k, counts in enumerate(self.sigma_value_counts):
            empty = np.argwhere(counts.sum(axis=2) == 0)
            for a_k, row in empty:
                missing.append(f"sigma[{k}] cell (action {a_k}, pre row {row})")
        for m, counts in enumerate(self.noop_counts):
            for row in np.flatnonzero(counts.sum(axis=1) == 0):
                missing.append(f"noop factor {m} row {row}")
        return missing

    def to_spec(self) -> tuple[FactoredMdpSpec, list[str]]:
        """Materialize a spec from the estimates, and the cells it imputed.

        An unvisited intervention cell forces effect code 0, and an
        unvisited no-op row is uniform; `zero_count_cells()` names them,
        so the caller can surface them.
        """
        missing = self.zero_count_cells()
        sk = self.skeleton
        sigmas = []
        for k, hat in enumerate(self.sigma_hat):
            t = hat.copy()
            t[t < 0] = 0
            sigmas.append(SigmaTable(k, t))
        factors = []
        for m, table in enumerate(self.noop_tables):
            t = table.copy()
            empty = t.sum(axis=1) == 0
            if empty.any():
                t[empty] = 1.0 / t.shape[1]
            factors.append(
                NoopFactor(
                    m,
                    sk.noop_dynamics[m].state_parents,
                    sk.noop_dynamics[m].eff_parents,
                    t,
                )
            )
        with np.errstate(invalid="ignore"):
            reward = np.where(self.reward_count > 0, self.reward_sum / np.maximum(self.reward_count, 1), 0.0)
        spec = FactoredMdpSpec(
            state_vars=sk.state_vars,
            action_blocks=sk.action_blocks,
            eff_map=sk.eff_map,
            pre_map=sk.pre_map,
            sigma=tuple(sigmas),
            noop_dynamics=tuple(factors),
            reward=reward,
            init_dist=sk.init_dist,
            discount=sk.discount,
            terminal_states=sk.terminal_states,
        )
        return spec, missing


def learn_model(skeleton: FactoredMdpSpec, states, actions, rewards, next_states, block_tags=None) -> LearnedModel:
    """Fit empirical tables from logged transitions given as code arrays.

    Only the skeleton's structure (variable cardinalities, blocks,
    effect/precondition maps, no-op parent sets, discount, initial
    distribution, terminals) is read; its tables are ignored.

    Row i is the step states[i] -> next_states[i] with reward rewards[i]
    under the block actions actions[i] (shape (n, n_blocks)).  A block
    tag of -1 (every row's, when `block_tags` is None) marks a fully
    intervened step: every block teaches its intervention cell and no
    controlled variable teaches its no-op factor.  Tag k marks a step
    where only block k intervened, with action actions[i, k]; the other
    blocks' effect variables followed no-op dynamics and teach their
    factors.  Each table is one `np.add.at` over rows read through the
    skeleton's kernel index; rewards are summed in row order.
    """
    sk = skeleton
    states = np.asarray(states, dtype=np.int64)
    next_states = np.asarray(next_states, dtype=np.int64)
    actions = np.asarray(actions, dtype=np.int64)
    rewards = np.asarray(rewards, dtype=np.float64)
    n = len(states)
    tags = np.full(n, -1, dtype=np.int64) if block_tags is None else np.asarray(block_tags, dtype=np.int64)
    if actions.shape != (n, sk.n_blocks) or any(x.shape != (n,) for x in (states, rewards, next_states, tags)):
        raise ShapeError(f"expected {n} rows of states, {sk.n_blocks} block actions, rewards, next states and tags")
    _check_codes(sk, np.concatenate([states, next_states]), actions)
    if ((tags < -1) | (tags >= sk.n_blocks)).any():
        raise DomainError(f"block tags out of range [-1, {sk.n_blocks})")

    index = sk._index
    sigma_counts = []
    for k in range(sk.n_blocks):
        counts = np.zeros((sk.block_sizes[k], sk.pre_radix[k].size, sk.eff_radix[k].size), dtype=np.int64)
        taught = (tags == -1) | (tags == k)
        cell = (actions[taught, k], index.pre_rows[k][states[taught]], index.eff_codes[k][next_states[taught]])
        np.add.at(counts, cell, 1)
        sigma_counts.append(counts)
    noop_counts = []
    for m, block in enumerate(sk.var_block.tolist()):
        counts = np.zeros_like(sk.noop_dynamics[m].table, dtype=np.int64)
        # an intervened variable is not a no-op observation
        seen = np.ones(n, dtype=bool) if block < 0 else (tags >= 0) & (tags != block)
        state_rows, rows, _ = index.factors[m]
        s, s_next = states[seen], next_states[seen]
        np.add.at(counts, (rows[state_rows[s], s_next], sk.state_values[s_next, m]), 1)
        noop_counts.append(counts)
    reward_sum = np.zeros((sk.n_states, sk.n_states))
    reward_count = np.zeros((sk.n_states, sk.n_states), dtype=np.int64)
    np.add.at(reward_sum, (states, next_states), rewards)
    np.add.at(reward_count, (states, next_states), 1)
    return LearnedModel(sk, sigma_counts, noop_counts, reward_sum, reward_count)


# -- sample-complexity harness -------------------------------------------------


def _bound_sizes(spec: FactoredMdpSpec) -> tuple[int, int, int, list[tuple[int, int]]]:
    """Domain sizes the sample bounds read: uncontrolled, controlled and
    state domains, and each block's (effect, precondition) domains."""
    u_dom = int(np.prod([spec.state_vars[v] for v in spec.uncontrolled_vars])) if spec.uncontrolled_vars else 1
    c_dom = int(np.prod([spec.state_vars[v] for v in spec.controlled_vars]))
    blocks = [(spec.eff_radix[k].size, spec.pre_radix[k].size) for k in range(spec.n_blocks)]
    return u_dom, c_dom, spec.n_states, blocks


def error_bounds_at(spec: FactoredMdpSpec, n: int, delta: float) -> dict:
    """Invert the sample-count formulas: the error the bounds certify
    after n samples."""
    u_dom, c_dom, s_dom, blocks = _bound_sizes(spec)
    eps_p = math.sqrt(u_dom * s_dom * c_dom * math.log(2 * s_dom * c_dom / delta) / n)
    eps_sigma = 0.0
    for e_dom, p_dom in blocks:
        eps_sigma = max(eps_sigma, math.sqrt(e_dom * p_dom * math.log(2 * p_dom / delta) / n))
    return {"eps_p": eps_p, "eps_sigma": eps_sigma}


def _one_trial(spec: FactoredMdpSpec, n: int, seed: int) -> tuple[float, float]:
    """Draw n generative samples under the uniform behavior and return
    (dynamics sup-norm error, intervention-table error)."""
    rng = np.random.default_rng(seed)
    states = rng.integers(0, spec.n_states, size=n)
    ks = rng.integers(0, spec.n_blocks, size=n)
    actions = np.zeros((n, spec.n_blocks), dtype=np.int64)
    actions[np.arange(n), ks] = rng.integers(0, np.asarray(spec.block_sizes)[ks])
    next_states = np.empty(n, dtype=np.int64)
    for k in range(spec.n_blocks):
        sel = ks == k
        next_states[sel] = sample_successors(spec, states[sel], actions[sel], rng, intervening=(k,))
    model = learn_model(spec, states, actions, spec.reward[states, next_states], next_states, block_tags=ks)
    # unvisited rows count as maximally wrong
    dyn_err = max(
        float(np.where(counts.sum(axis=1) > 0, np.abs(est - fac.table).max(axis=1), 1.0).max())
        for counts, est, fac in zip(model.noop_counts, model.noop_tables, spec.noop_dynamics)
    )
    sig_err = float(any(((hat != sig.table) | (hat < 0)).any() for hat, sig in zip(model.sigma_hat, spec.sigma)))
    return dyn_err, sig_err


def sample_complexity_experiment(
    spec: FactoredMdpSpec,
    sample_sizes,
    trials: int,
    delta: float,
    seed: int,
) -> list[dict]:
    """Empirical sup-norm estimation error versus the closed-form bounds.

    For each N: `trials` independent draws of N generative samples
    (state, block, projected action all uniform), each fitted with
    `learn_model`; reports the median and (1-delta) quantile of the
    max-over-cells dynamics error and of the intervention-table error,
    next to the bound-implied errors at that N, and the raw per-trial
    errors.  Each block's samples are one `sample_successors` draw.
    """
    if any(n < 1 for n in sample_sizes) or trials < 1 or not 0 < delta < 1:
        raise DomainError(f"need sample sizes and trials of at least 1 and delta in (0, 1); got sizes "
                          f"{list(sample_sizes)}, trials {trials}, delta {delta}")
    results = []
    ss = np.random.SeedSequence(seed)
    for n in sample_sizes:
        trial_seeds = [int(s.generate_state(1)[0]) for s in ss.spawn(trials)]
        errs = [_one_trial(spec, n, ts) for ts in trial_seeds]
        dyn = np.array([e[0] for e in errs])
        sig = np.array([e[1] for e in errs])
        bounds = error_bounds_at(spec, n, delta)
        results.append({
            "n": int(n),
            "dyn_err_median": float(np.quantile(dyn, 0.5)),
            "dyn_err_hi": float(np.quantile(dyn, 1.0 - delta)),
            "sigma_err_median": float(np.quantile(sig, 0.5)),
            "sigma_err_hi": float(np.quantile(sig, 1.0 - delta)),
            "bound_eps_p": bounds["eps_p"],
            "bound_eps_sigma": bounds["eps_sigma"],
            "trials": trials,
            "delta": delta,
            "dyn_errors": dyn.tolist(),
            "sigma_errors": sig.tolist(),
        })
    return results
