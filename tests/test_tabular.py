"""Planning and model-learning tests.

The heavy oracles live in oracles.py: exhaustive enumeration of every
deterministic joint policy (batched dense solves) pins down the optimal
values that both planners are compared against.
"""

import json
import math

import numpy as np
import pytest

from frl import (
    ConfigurationError,
    DomainError,
    FactoredMdpSpec,
    FactoredPolicy,
    NoopFactor,
    ShapeError,
    SigmaTable,
    tabular,
)
from frl.envs import SyntheticSpec, generate_synthetic, treatment_spec, two_switch_spec, xor_trap_spec
from frl.factored_mdp import evaluate, q_table
from frl.tabular import (
    error_bounds_at,
    factored_policy_iteration,
    joint_policy_iteration,
    learn_model,
    sample_complexity_experiment,
)
from oracles import (
    enumerate_interventional,
    enumerate_optimal_values,
    finite_horizon_values,
    monotonic_suite,
    theorem_sample_bounds,
    transition_rows,
)


def tiny_spec():
    """4-state instance: two binary vars, two blocks, monotonic reward."""
    return generate_synthetic(
        SyntheticSpec(structure="separable_effects", n_vars=2, n_blocks=2, cards=2, seed=3)
    )


# -- joint policy iteration vs exhaustive enumeration -----------------------


def test_joint_pi_matches_exhaustive_enumeration_tiny():
    spec = tiny_spec()
    v_star, _ = enumerate_optimal_values(spec)
    res = joint_policy_iteration(spec)
    np.testing.assert_allclose(res.values, v_star, atol=1e-8)


def test_joint_pi_matches_exhaustive_enumeration_two_switch():
    spec = two_switch_spec()
    v_star, _ = enumerate_optimal_values(spec)
    res = joint_policy_iteration(spec)
    np.testing.assert_allclose(res.values, v_star, atol=1e-8)
    # greedy at the fixed point reproduces the returned policy
    assert np.array_equal(res.q.greedy(), res.policy)


def _six_var_spec(cards, seed, reward_kind="additive_monotonic"):
    return generate_synthetic(
        SyntheticSpec("separable_effects", n_vars=6, n_blocks=3, cards=cards, seed=seed, reward_kind=reward_kind)
    )


JOINT_PI_SPECS = (
    [pytest.param(lambda: _six_var_spec(3, 1), id="s729")]
    + [pytest.param(lambda s=s: _six_var_spec(2, s, "xor_nonmonotonic"), id=f"xor-{s}") for s in range(8)]
    + [pytest.param(treatment_spec, id="treatment"), pytest.param(two_switch_spec, id="two-switch")]
)


@pytest.mark.parametrize("make", JOINT_PI_SPECS)
def test_joint_pi_builds_its_supports_once_and_backs_up_like_q_table(make, monkeypatch):
    spec = make()
    calls = []
    support = tabular._support
    monkeypatch.setattr(tabular, "_support", lambda *args, **kw: calls.append(args) or support(*args, **kw))
    res = joint_policy_iteration(spec)
    monkeypatch.undo()
    # the supports depend on neither the policy nor the values: one build serves every iteration
    assert res.iterations >= 2 and len(calls) == 1
    values = evaluate(spec, spec.action_radix.table()[res.policy])
    assert res.values.tobytes() == values.tobytes()
    assert res.q.table.tobytes() == q_table(spec, values).table.tobytes()


# -- block-coordinate policy iteration ---------------------------------------


def test_mbfpi_reaches_joint_optimum_on_two_switch():
    # weighted reward: each switch pays on its own, so every single-block
    # improvement is strict and coordinate ascent walks to the joint optimum
    spec = two_switch_spec(reward="weighted")
    v_star, _ = enumerate_optimal_values(spec)
    init = FactoredPolicy.constant(spec, (0, 0))
    trace = factored_policy_iteration(spec, init)
    assert trace.terminated == "converged"
    np.testing.assert_allclose(trace.final_values, v_star, atol=1e-8)
    # fixed point: the last pass over the blocks changed nothing, and the
    # final per-block tables are greedy at the final policy
    K = spec.n_blocks
    assert all(rec.n_changed == 0 for rec in trace.iterations[-K:])
    for rec in trace.iterations[-K:]:
        for k, qt in enumerate(rec.q_tables):
            assert np.array_equal(qt.greedy(), trace.final_policy.blocks[k])


def test_mbfpi_values_monotone():
    rng = np.random.default_rng(11)
    specs = [two_switch_spec(), tiny_spec()] + monotonic_suite(2, seed=5)
    for spec in specs:
        init = FactoredPolicy.random(spec, rng)
        trace = factored_policy_iteration(spec, init, store_q=False)
        vals = [rec.values for rec in trace.iterations] + [trace.final_values]
        for a, b in zip(vals, vals[1:]):
            assert (b - a).min() >= -1e-9


def test_mbfpi_matches_joint_optimum_on_monotonic_suite():
    rng = np.random.default_rng(2)
    for spec in monotonic_suite(3, seed=17):
        opt = joint_policy_iteration(spec)
        for _ in range(2):
            trace = factored_policy_iteration(spec, FactoredPolicy.random(spec, rng), store_q=False)
            assert trace.terminated == "converged"
            np.testing.assert_allclose(trace.final_values, opt.values, atol=1e-8)


def test_mbfpi_stalls_in_coordination_trap():
    spec = xor_trap_spec()
    v_star, _ = enumerate_optimal_values(spec)
    trap = factored_policy_iteration(spec, FactoredPolicy.constant(spec, (0, 0)), store_q=False)
    assert trap.terminated == "converged"
    # the all-zero policy is a strict local optimum: no single-block change
    # improved it, yet it sits measurably below the joint optimum
    assert np.array_equal(trap.final_policy.blocks, np.zeros((2, spec.n_states), dtype=np.int64))
    assert (v_star - trap.final_values).max() > 0.01
    good = factored_policy_iteration(spec, FactoredPolicy.constant(spec, (1, 1)), store_q=False)
    np.testing.assert_allclose(good.final_values, v_star, atol=1e-8)


def test_mbfpi_tie_locked_on_conjunctive_reward():
    """With the all-pay-together reward, holding one switch off makes the
    other block indifferent everywhere; lowest-index tie-breaking then keeps
    the all-off policy, a second shape of single-block local optimum."""
    spec = two_switch_spec(reward="and")
    v_star, _ = enumerate_optimal_values(spec)
    trap = factored_policy_iteration(spec, FactoredPolicy.constant(spec, (0, 0)), store_q=False)
    assert trap.terminated == "converged"
    assert trap.final_values.max() == 0.0
    assert (v_star - trap.final_values).min() > 0.01


def test_mbfpi_budget_flag():
    spec = two_switch_spec(reward="weighted")
    init = FactoredPolicy.constant(spec, (0, 0))
    trace = factored_policy_iteration(spec, init, max_sweeps=1, store_q=False)
    assert trace.terminated == "budget"
    assert len(trace.iterations) == spec.n_blocks


def test_mbfpi_random_block_order_deterministic():
    spec = two_switch_spec()
    rng = np.random.default_rng(4)
    init = FactoredPolicy.random(spec, rng)
    a = factored_policy_iteration(spec, init, block_order="random", seed=9, store_q=False)
    b = factored_policy_iteration(spec, init, block_order="random", seed=9, store_q=False)
    assert [r.improved_block for r in a.iterations] == [r.improved_block for r in b.iterations]
    np.testing.assert_array_equal(a.final_policy.blocks, b.final_policy.blocks)
    c = factored_policy_iteration(spec, init, store_q=False)
    np.testing.assert_allclose(a.final_values, c.final_values, atol=1e-8)
    with pytest.raises(ConfigurationError):
        factored_policy_iteration(spec, init, block_order="zigzag")


def test_mbfpi_trace_jsonl_parses():
    spec = tiny_spec()
    trace = factored_policy_iteration(spec, FactoredPolicy.constant(spec, (0, 0)))
    lines = trace.to_jsonl().strip().split("\n")
    docs = [json.loads(line) for line in lines]
    assert docs[-1]["terminated"] == "converged"
    assert len(docs) == len(trace.iterations) + 1
    assert docs[0]["q_tables"] is not None


# -- fully separable instances: independence and value concatenation --------


def _pools(spec):
    """Per-block variable pools of a fully separable instance: block k owns
    variable k plus every (j % K == k)-th uncontrolled variable."""
    K = spec.n_blocks
    pools = {k: [k] for k in range(K)}
    for j, v in enumerate(spec.uncontrolled_vars):
        pools[j % K].append(v)
    return {k: sorted(vs) for k, vs in pools.items()}


def test_fully_separable_dynamics_factorize():
    spec = generate_synthetic(
        SyntheticSpec(structure="fully_separable", n_vars=4, n_blocks=2, cards=2, seed=21)
    )
    pools = _pools(spec)
    rng = np.random.default_rng(0)
    vals = spec.state_values
    for _ in range(5):
        s = int(rng.integers(spec.n_states))
        a = tuple(int(rng.integers(n)) for n in spec.block_sizes)
        row = enumerate_interventional(spec, s, a)
        # product of this row's own pool marginals == the row itself
        recon = np.ones(spec.n_states)
        for k in range(spec.n_blocks):
            marg = {}
            for s2, p in enumerate(row):
                key = tuple(vals[s2, v] for v in pools[k])
                marg[key] = marg.get(key, 0.0) + p
            recon *= np.array([marg[tuple(vals[s2, v] for v in pools[k])] for s2 in range(spec.n_states)])
        np.testing.assert_allclose(recon, row, atol=1e-12)


def _restrict_to_pool(spec, pool, k, g):
    """Sub-MDP over one block's pool with reward g on the pool next-values."""
    remap = {v: i for i, v in enumerate(pool)}
    cards = tuple(spec.state_vars[v] for v in pool)
    factors = []
    for i, v in enumerate(pool):
        fac = spec.noop_dynamics[v]
        factors.append(
            NoopFactor(
                i,
                tuple(remap[p] for p in fac.state_parents),
                tuple(remap[p] for p in fac.eff_parents),
                fac.table,
            )
        )
    n_sub = int(np.prod(cards))
    reward = np.tile(g, (n_sub, 1))
    return FactoredMdpSpec(
        state_vars=cards,
        action_blocks=(spec.action_blocks[k],),
        eff_map=(tuple(remap[v] for v in spec.eff_map[k]),),
        pre_map=(tuple(remap[v] for v in spec.pre_map[k]),),
        sigma=(SigmaTable(0, spec.sigma[k].table),),
        noop_dynamics=tuple(factors),
        reward=reward,
        init_dist=np.full(n_sub, 1.0 / n_sub),
        discount=spec.discount,
        assume_positive=True,
    )


def test_fully_separable_values_concatenate():
    """With dynamics and reward both separable across pools, the joint
    optimal value is the sum of independently planned per-pool values."""
    import dataclasses

    base = generate_synthetic(
        SyntheticSpec(structure="fully_separable", n_vars=4, n_blocks=2, cards=2, seed=33)
    )
    pools = _pools(base)
    rng = np.random.default_rng(8)
    vals = base.state_values
    gs, sub_values, codes = [], [], []
    for k in range(base.n_blocks):
        from frl.indexing import MixedRadix

        radix = MixedRadix([base.state_vars[v] for v in pools[k]])
        g = rng.uniform(0.0, 1.0, size=radix.size)
        gs.append(g)
        codes.append(radix.encode_many(vals[:, pools[k]]))
    next_reward = sum(g[c] for g, c in zip(gs, codes))
    spec = dataclasses.replace(base, reward=np.tile(next_reward, (base.n_states, 1)))
    joint = joint_policy_iteration(spec)
    for k in range(base.n_blocks):
        sub = _restrict_to_pool(spec, pools[k], k, gs[k])
        sub_values.append(joint_policy_iteration(sub).values)
    recon = sum(v[c] for v, c in zip(sub_values, codes))
    np.testing.assert_allclose(joint.values, recon, atol=1e-8)


# -- model learning -----------------------------------------------------------


def _generative_samples(spec, n, seed):
    """Uniform (state, block, projected action) samples from the projected
    transition, as `learn_model` arguments tagged with the intervening block."""
    rng = np.random.default_rng(seed)
    rows = {}
    states, next_states, tags = (np.zeros(n, dtype=np.int64) for _ in range(3))
    actions = np.zeros((n, spec.n_blocks), dtype=np.int64)
    for i in range(n):
        s = int(rng.integers(spec.n_states))
        k = int(rng.integers(spec.n_blocks))
        a_k = int(rng.integers(spec.block_sizes[k]))
        key = (k, s, a_k)
        states[i], actions[i, k], tags[i] = s, a_k, k
        if key not in rows:
            rows[key] = transition_rows(spec, [s], actions[i], intervening=(k,))[0]
        next_states[i] = rng.choice(spec.n_states, p=rows[key])
    return dict(
        states=states, actions=actions, rewards=spec.reward[states, next_states],
        next_states=next_states, block_tags=tags,
    )


def test_learn_model_recovers_tables():
    spec = two_switch_spec()
    model = learn_model(spec, **_generative_samples(spec, 20_000, seed=1))
    assert not model.zero_count_cells()
    for k in range(spec.n_blocks):
        np.testing.assert_array_equal(model.sigma_hat[k], spec.sigma[k].table)
    for m in range(spec.n_vars):
        assert np.abs(model.noop_tables[m] - spec.noop_dynamics[m].table).max() < 0.05
    learned, imputed = model.to_spec()
    assert imputed == []
    visited = model.reward_count > 0
    np.testing.assert_allclose(learned.reward[visited], spec.reward[visited], atol=1e-12)


def test_mbfpi_on_learned_model_matches_true_plan():
    spec = two_switch_spec()
    model = learn_model(spec, **_generative_samples(spec, 20_000, seed=2))
    init = FactoredPolicy.constant(spec, (0, 0))
    est = factored_policy_iteration(model.to_spec()[0], init, store_q=False)
    true = factored_policy_iteration(spec, init, store_q=False)
    np.testing.assert_array_equal(est.final_policy.blocks, true.final_policy.blocks)
    assert np.abs(est.final_values - true.final_values).max() < 0.1


def test_learn_model_to_spec_imputes_and_returns_zero_count_cells():
    spec = two_switch_spec()
    model = learn_model(spec, **_generative_samples(spec, 10, seed=3))
    missing = model.zero_count_cells()
    assert missing
    learned, imputed = model.to_spec()
    assert imputed == missing
    for hat, sigma in zip(model.sigma_hat, learned.sigma):
        np.testing.assert_array_equal(sigma.table, np.where(hat < 0, 0, hat))
    for counts, factor in zip(model.noop_counts, learned.noop_dynamics):
        empty = counts.sum(axis=1) == 0
        assert (factor.table[empty] == 1.0 / factor.table.shape[1]).all()
        np.testing.assert_array_equal(factor.table[~empty], model.noop_tables[factor.var][~empty])
    # the imputed spec plans
    trace = factored_policy_iteration(learned, FactoredPolicy.constant(spec, (0, 0)), store_q=False)
    assert trace.terminated == "converged"


def test_learn_model_majority_vote_sigma():
    spec = two_switch_spec()
    # block 0 takes action 1 from state 0 three times; effect variable 0
    # is observed at 1 twice and at 0 once -> majority 1
    model = learn_model(spec, [0, 0, 0], [[1, 0]] * 3, [0.0] * 3, [4, 4, 0], block_tags=[0, 0, 0])
    assert model.sigma_hat[0][1, 0] == 1
    assert model.sigma_value_counts[0][1, 0].tolist() == [1, 2]


def test_learn_model_joint_vs_tagged_teaching():
    spec = two_switch_spec()
    model = learn_model(spec, [0], [[1, 1]], [0.0], [6])  # untagged: fully intervened
    # both intervention cells counted, no controlled no-op observations
    assert model.sigma_value_counts[0][1, 0, 1] == 1
    assert model.sigma_value_counts[1][1, 0, 1] == 1
    assert model.noop_counts[0].sum() == 0 and model.noop_counts[1].sum() == 0
    assert model.noop_counts[2].sum() == 1  # the uncontrolled noise bit
    model = learn_model(spec, [0], [[1, 0]], [0.0], [4], block_tags=[0])
    # block 1 followed its no-op dynamics, so its variable is an observation
    assert model.noop_counts[0].sum() == 0
    assert model.noop_counts[1][0, 0] == 1


@pytest.mark.parametrize(
    "change, error",
    [
        ({"states": [0, 8]}, DomainError),
        ({"next_states": [-1, 0]}, DomainError),
        ({"actions": [[0, 0], [2, 0]]}, DomainError),
        ({"block_tags": [0, 2]}, DomainError),
        ({"block_tags": [-2, 0]}, DomainError),
        ({"rewards": [0.0]}, ShapeError),
        ({"actions": [[0, 0, 0], [0, 0, 0]]}, ShapeError),
        ({"next_states": [0, 0, 0]}, ShapeError),
        ({"block_tags": [0]}, ShapeError),
    ],
)
def test_learn_model_rejects_bad_codes_and_misaligned_rows(change, error):
    spec = two_switch_spec()
    rows = dict(states=[0, 1], actions=[[0, 0], [1, 1]], rewards=[0.0, 1.0], next_states=[0, 1], block_tags=None)
    with pytest.raises(error):
        learn_model(spec, **{**rows, **change})


# -- sample-complexity bounds --------------------------------------------------


def test_sample_bound_arithmetic_frozen():
    spec = two_switch_spec()
    bounds = theorem_sample_bounds(spec, eps=0.1, delta=0.1)
    # uncontrolled domain 2, full state domain 8, controlled domain 4:
    # 2*8*4/0.1^2 * ln(2*8*4/0.1) = 6400 ln 640
    assert math.isclose(bounds["n_p"], 6400 * math.log(640), rel_tol=1e-12)
    assert 41353 < bounds["n_p"] < 41354
    for n_sig in bounds["n_sigma"]:
        assert math.isclose(n_sig, 200 * math.log(20), rel_tol=1e-12)
    # the error form inverts the sample-count form at the same point
    n = int(math.ceil(bounds["n_p"]))
    assert error_bounds_at(spec, n, 0.1)["eps_p"] <= 0.1 + 1e-9
    assert error_bounds_at(spec, n - 10, 0.1)["eps_p"] > 0.1


def test_hoeffding_coverage_on_bernoulli():
    """Empirical frequencies respect the two-sided Hoeffding band at the
    advertised confidence: a seeded Monte-Carlo check of the bound the
    sample-size formulas are built from."""
    rng = np.random.default_rng(12)
    n, trials, delta, p = 2000, 200, 0.1, 0.3
    eps = math.sqrt(math.log(2 / delta) / (2 * n))
    hits = rng.binomial(n, p, size=trials) / n
    coverage = float(np.mean(np.abs(hits - p) <= eps))
    assert coverage >= 1 - delta


def test_sample_complexity_experiment_within_bounds():
    spec = two_switch_spec()
    res = sample_complexity_experiment(spec, [200, 800, 3200], trials=20, delta=0.1, seed=6)
    assert [r["n"] for r in res] == [200, 800, 3200]
    for r in res:
        assert r["dyn_err_hi"] < r["bound_eps_p"]
        assert r["sigma_err_hi"] <= r["bound_eps_sigma"]
    med = [r["dyn_err_median"] for r in res]
    assert med[0] > med[1] > med[2]
    assert res[-1]["sigma_err_hi"] == 0.0


# -- finite-horizon values ------------------------------------------------------


def test_finite_horizon_values_match_manual_backup():
    spec = two_switch_spec()
    assert finite_horizon_values(spec, 0).max() == 0.0
    P = np.zeros((spec.n_states, spec.n_actions, spec.n_states))
    for s in range(spec.n_states):
        for a in range(spec.n_actions):
            P[s, a] = enumerate_interventional(spec, s, spec.action_as_blocks(a))
    r = np.einsum("san,sn->sa", P, spec.reward)
    v = np.zeros(spec.n_states)
    for h in (1, 2, 3):
        v = (r + spec.discount * np.einsum("san,n->sa", P, v)).max(axis=1)
        np.testing.assert_allclose(finite_horizon_values(spec, h), v, atol=1e-12)
    pol = FactoredPolicy.constant(spec, (1, 1))
    assert (finite_horizon_values(spec, 3, pol) <= finite_horizon_values(spec, 3) + 1e-12).all()
