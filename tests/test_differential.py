"""Randomized differential tests of the fast paths against oracles.

The batched transition kernel is checked row by row against the
enumeration oracles, the oracles' `exact_q` on both of its routes (and
`q_table`) against the dense-solve oracle, the support backups
(`evaluate`, `q_table` and both planners) against the dense-row
references they replaced, model learning against its
one-row-at-a-time reference, and both planners are run to
termination on every grid spec of generated specs: joint policy
iteration must converge, and block-coordinate policy iteration must
converge to values no better than the joint optimum (equal to it on
the monotonic suite, whose rewards certify that coordinate ascent
reaches the optimum).  The vectorized row draw is checked against one
`rng.choice` per row, and the flat in-place Adam against a per-array
Adam, bit for bit.  The factored successor draw lands only on successors
the kernel's rows give positive probability, matches a row's law in
frequency, and equals the dense-row draw bit for bit where one variable
is drawn.  The kernel's compact supports equal the dense oracle's bit
for bit, in code order, on every column the planners read.  The offline
dataset generator logs the same episodes as one `rng.choice` per draw.
"""

import functools

import numpy as np
import pytest

from frl import tabular
from frl.agents.bcq import episodes_to_transitions
from frl.approx import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, Mlp, Optimizer
from frl.envs import (
    SyntheticSpec,
    generate_offline_dataset,
    generate_synthetic,
    treatment_spec,
    two_switch_spec,
    xor_trap_spec,
)
from frl.envs.synthetic import REWARD_KINDS
from frl.errors import DomainError, NumericError, ShapeError
from frl.factored_mdp import (
    FactoredPolicy,
    _q_columns,
    _support,
    evaluate,
    q_table,
    sample_rows,
    sample_successors,
)
from frl.tabular import factored_policy_iteration, joint_policy_iteration, learn_model

from oracles import (
    ListAdam,
    choice_rows,
    dense_support,
    draw_probability,
    enumerate_interventional,
    enumerate_projected,
    evaluate_dense,
    exact_q,
    joint_policy_iteration_dense,
    layer_views,
    learn_model_reference,
    monotonic_suite,
    offline_dataset_reference,
    q_table_dense,
    solve_q_dense,
    transition_rows,
)

GRID = [
    (structure, kind, seed)
    for structure in ("fully_separable", "separable_effects")
    for kind in REWARD_KINDS
    for seed in range(8)
]


def grid_spec(structure, kind, seed):
    return generate_synthetic(
        SyntheticSpec(
            structure=structure, n_vars=5, n_blocks=3, cards=(2, 3, 2, 3, 2), seed=seed, reward_kind=kind
        )
    )


def _mbfpi_within_joint(spec, require_equal=False):
    joint = joint_policy_iteration(spec)
    trace = factored_policy_iteration(spec, FactoredPolicy.constant(spec, [0] * spec.n_blocks), store_q=False)
    assert trace.terminated == "converged"
    assert (trace.final_values - joint.values).max() <= 1e-8
    if require_equal:
        np.testing.assert_allclose(trace.final_values, joint.values, atol=1e-8)


@pytest.mark.parametrize("structure, kind, seed", GRID)
def test_transition_rows_match_enumeration_oracles(structure, kind, seed):
    spec = grid_spec(structure, kind, seed)
    rng = np.random.default_rng(seed)
    n = 12  # one batch mixes states and block actions
    states = rng.integers(spec.n_states, size=n)
    blocks = np.stack([rng.integers(size, size=n) for size in spec.block_sizes], axis=1)
    rows = transition_rows(spec, states, blocks)
    ref = np.stack([enumerate_interventional(spec, int(s), tuple(b)) for s, b in zip(states, blocks)])
    np.testing.assert_allclose(rows, ref, rtol=0, atol=1e-14)
    np.testing.assert_allclose(rows.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    for k in range(spec.n_blocks):
        rows = transition_rows(spec, states, blocks, intervening=(k,))
        ref = np.stack([enumerate_projected(spec, k, int(s), int(b[k])) for s, b in zip(states, blocks)])
        np.testing.assert_allclose(rows, ref, rtol=0, atol=1e-14)
        np.testing.assert_allclose(rows.sum(axis=1), 1.0, rtol=0, atol=1e-12)


@pytest.mark.parametrize("structure, kind, seed", GRID)
def test_exact_q_matches_the_dense_oracle_on_both_routes(structure, kind, seed):
    spec = grid_spec(structure, kind, seed)
    policy = FactoredPolicy.random(spec, np.random.default_rng(seed))
    q_ref, v_ref = solve_q_dense(spec, policy)
    np.testing.assert_allclose(exact_q(spec, policy, None).table, q_ref, rtol=0, atol=1e-8)
    blocks = policy.blocks.T
    states = np.arange(spec.n_states)[:, None]
    for k, size in enumerate(spec.block_sizes):
        q_proj = exact_q(spec, policy, k).table
        # the joint Q of the policy's action with block k's replaced
        replaced = np.repeat(blocks[:, None], size, axis=1)
        replaced[:, :, k] = np.arange(size)
        codes = spec.action_radix.encode_many(replaced.reshape(-1, spec.n_blocks)).reshape(-1, size)
        np.testing.assert_allclose(q_proj, q_ref[states, codes], rtol=0, atol=1e-8)
        np.testing.assert_allclose(q_proj, q_table(spec, v_ref, blocks, k).table, rtol=0, atol=1e-8)


@pytest.mark.parametrize("structure, kind, seed", GRID)
def test_planners_terminate_and_mbfpi_stays_below_joint(structure, kind, seed):
    _mbfpi_within_joint(grid_spec(structure, kind, seed))


def test_mbfpi_equals_joint_on_monotonic_suite():
    for spec in monotonic_suite(6, seed=3):
        _mbfpi_within_joint(spec, require_equal=True)


@pytest.mark.parametrize("seed", range(8))
def test_xor_tie_sweep_terminates(seed):
    # joint PI used to cycle on float-noise ties at seeds 1, 3 and 6
    spec = generate_synthetic(
        SyntheticSpec("separable_effects", 6, 3, cards=2, seed=seed, reward_kind="xor_nonmonotonic")
    )
    _mbfpi_within_joint(spec)


def xor_spec(cards, discount):
    return generate_synthetic(
        SyntheticSpec("separable_effects", 6, 3, cards=cards, reward_kind="xor_nonmonotonic", discount=discount)
    )


# every GRID spec, the treatment and two-switch specs, then xor specs at
# S = 64 and 729 with discounts near 1, where evaluation takes the most
# Krylov steps
PLANNING_SPECS = (
    [pytest.param(functools.partial(grid_spec, *g), id="-".join(map(str, g))) for g in GRID]
    + [pytest.param(treatment_spec, id="treatment"), pytest.param(two_switch_spec, id="two-switch")]
    + [
        pytest.param(functools.partial(xor_spec, cards, discount), id=f"xor-{cards ** 6}-{discount}")
        for cards in (2, 3)
        for discount in (0.99, 0.999)
    ]
)


def assert_values_close(got, want):
    """Equal up to the last bits a different solve of the same system moves."""
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * max(1.0, np.abs(want).max()))


@pytest.mark.parametrize("make", PLANNING_SPECS)
def test_support_backups_match_the_dense_references(make):
    spec = make()
    rng = np.random.default_rng(spec.n_states)
    blocks = FactoredPolicy.random(spec, rng).blocks.T
    values = evaluate(spec, blocks)
    # GMRES on the support and LU on the dense rows solve the same system
    assert_values_close(values, evaluate_dense(spec, blocks))
    for k in [None] + list(range(spec.n_blocks)):
        others = FactoredPolicy.random(spec, rng).blocks.T
        got, want = q_table(spec, values, others, k).table, q_table_dense(spec, values, others, k).table
        # the sums skip the zero entries of each dense row, so only the last bits may move
        assert (np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want))).all()


@pytest.mark.parametrize("make", PLANNING_SPECS)
def test_planners_take_the_dense_route_steps(make, monkeypatch):
    spec = make()
    init = FactoredPolicy.constant(spec, [0] * spec.n_blocks)
    trace, joint = factored_policy_iteration(spec, init, store_q=False), joint_policy_iteration(spec)
    monkeypatch.setattr(tabular, "evaluate", evaluate_dense)
    monkeypatch.setattr(tabular, "q_table", q_table_dense)
    trace_ref = factored_policy_iteration(spec, init, store_q=False)
    # joint PI reads its own cached supports, so its dense route is the oracle's loop
    joint_ref = joint_policy_iteration_dense(spec)
    assert trace.final_policy.blocks.tobytes() == trace_ref.final_policy.blocks.tobytes()
    assert_values_close(trace.final_values, trace_ref.final_values)
    assert len(trace.iterations) == len(trace_ref.iterations)
    assert joint.iterations == joint_ref.iterations
    # joint actions whose Q values tie up to float noise (the xor rewards
    # make many) go to the lowest index on both routes
    assert joint.policy.tobytes() == joint_ref.policy.tobytes()
    q = joint_ref.q.table
    np.testing.assert_allclose(joint.values, joint_ref.values, rtol=0, atol=1e-12 * max(1.0, np.abs(q).max()))


def test_transition_rows_reject_bad_codes():
    # the factored draw checks its arguments the same way
    spec = grid_spec("separable_effects", "additive_monotonic", 0)
    nb = spec.n_blocks
    cases = [
        (spec, [spec.n_states], [0] * nb, None, DomainError),
        (spec, [-1], [0] * nb, None, DomainError),
        (spec, [0], [0] * (nb - 1) + [-1], None, DomainError),
        (spec, [0], [0] * (nb - 1) + [spec.block_sizes[-1]], (nb - 1,), DomainError),
        (spec, [0], [0] * nb, (nb,), DomainError),
        (spec, [0, 1], np.zeros((3, nb), dtype=np.int64), None, ShapeError),
    ]
    for case_spec, states, blocks, intervening, error in cases:
        with pytest.raises(error):
            transition_rows(case_spec, states, blocks, intervening)
        with pytest.raises(error):
            sample_successors(case_spec, states, blocks, np.random.default_rng(0), intervening)


# -- model learning ----------------------------------------------------------


def _logged_rows(spec, n, rng):
    """`learn_model` arguments for n transitions from uniform states and
    block actions; each row is fully intervened (tag -1) or projected
    onto one uniform block."""
    states = rng.integers(spec.n_states, size=n)
    actions = np.stack([rng.integers(size, size=n) for size in spec.block_sizes], axis=1)
    tags = rng.integers(-1, spec.n_blocks, size=n)
    next_states = np.empty(n, dtype=np.int64)
    for tag in range(-1, spec.n_blocks):
        sel = tags == tag
        rows = transition_rows(spec, states[sel], actions[sel], intervening=None if tag < 0 else (tag,))
        next_states[sel] = sample_rows(rows, rng)
    return dict(states=states, actions=actions, rewards=rng.normal(size=n), next_states=next_states, block_tags=tags)


def _assert_same_counts(got, want):
    for a, b in zip(got.sigma_value_counts + got.noop_counts, want.sigma_value_counts + want.noop_counts):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(got.reward_count, want.reward_count)
    assert got.reward_sum.tobytes() == want.reward_sum.tobytes()


@pytest.mark.parametrize("structure, kind, seed", GRID[::4])
def test_learn_model_matches_the_per_row_reference(structure, kind, seed):
    spec = grid_spec(structure, kind, seed)
    logged = _logged_rows(spec, 3000, np.random.default_rng(seed))
    assert {-1, 0} <= set(logged["block_tags"].tolist())
    _assert_same_counts(learn_model(spec, **logged), learn_model_reference(spec, **logged))


def _logged_treatment():
    """The treatment spec and 60 uniform-behavior episodes as `learn_model` arguments."""
    spec = treatment_spec()
    behavior = np.full((spec.n_states, spec.n_actions), 1.0 / spec.n_actions)
    data = episodes_to_transitions(generate_offline_dataset(spec, behavior, episodes=60, seed=2), spec)
    return spec, (data.states, data.actions, data.rewards, data.next_states)


def test_learn_model_matches_the_reference_on_a_logged_treatment_dataset():
    spec, logged = _logged_treatment()
    _assert_same_counts(learn_model(spec, *logged), learn_model_reference(spec, *logged))


# -- successor draws ---------------------------------------------------------


def _sparse_rows(rng, n=128, width=150):
    """Random distributions with many exact zeros, like transition rows."""
    rows = rng.random((n, width)) ** 4
    rows[rng.random((n, width)) < 0.7] = 0.0
    rows[:, rng.integers(width)] += 1e-3  # no all-zero row
    return rows / rows.sum(axis=1, keepdims=True)


@pytest.mark.parametrize("seed", range(100))
def test_vectorized_draw_matches_per_row_choice(seed):
    rows = _sparse_rows(np.random.default_rng(1000 + seed))
    fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
    np.testing.assert_array_equal(sample_rows(rows, fast), choice_rows(rows, slow))
    assert fast.bit_generator.state == slow.bit_generator.state


@pytest.mark.parametrize("bad", ["nan", "negative", "sum"])
def test_vectorized_draw_rejects_what_choice_rejects(bad):
    rows = _sparse_rows(np.random.default_rng(5), n=4, width=6)
    if bad == "nan":
        rows[2, 3] = np.nan
    elif bad == "negative":
        rows[1, :2] = [-0.1, rows[1, 0] + rows[1, 1] + 0.1]
    else:
        rows[3] *= 1.0 + 1e-6
    with pytest.raises(ValueError):
        choice_rows(rows, np.random.default_rng(0))
    with pytest.raises(ValueError):
        sample_rows(rows, np.random.default_rng(0))


def _random_queries(spec, n, rng):
    states = rng.integers(spec.n_states, size=n)
    return states, np.stack([rng.integers(size, size=n) for size in spec.block_sizes], axis=1)


@pytest.mark.parametrize("structure, kind, seed", GRID)
def test_factored_draws_land_on_positive_probability_successors(structure, kind, seed):
    spec = grid_spec(structure, kind, seed)
    rng = np.random.default_rng(seed)
    states, blocks = _random_queries(spec, 64, rng)
    for intervening in [None] + [(k,) for k in range(spec.n_blocks)]:
        draws = sample_successors(spec, states, blocks, rng, intervening)
        rows = transition_rows(spec, states, blocks, intervening)
        assert draws.dtype == np.int64 and (rows[np.arange(len(states)), draws] > 0).all()


@pytest.mark.parametrize(
    "make",
    [functools.partial(grid_spec, *case) for case in GRID] + [treatment_spec],
    ids=["-".join(map(str, case)) for case in GRID] + ["treatment"],
)
def test_each_factored_draw_has_its_dense_row_probability(make):
    # the exact law: the factor probabilities along a draw's path multiply to its row entry
    spec = make()
    rng = np.random.default_rng(5)
    states, blocks = _random_queries(spec, 40, rng)
    for intervening in [None] + [(k,) for k in range(spec.n_blocks)]:
        draws = sample_successors(spec, states, blocks, rng, intervening)
        rows = transition_rows(spec, states, blocks, intervening)
        law = [draw_probability(spec, int(s), tuple(b), int(d), intervening) for s, b, d in zip(states, blocks, draws)]
        assert min(law) > 0
        np.testing.assert_allclose(law, rows[np.arange(len(states)), draws], rtol=1e-12, atol=0)


def test_factored_draws_follow_the_dense_row_with_several_drawn_variables():
    spec = grid_spec("separable_effects", "additive_monotonic", 0)
    k, s, blocks = 0, 17, (1, 2, 1)
    # blocks 1 and 2 follow their no-op factors, and so does every uncontrolled variable
    assert sum(len(spec.eff_map[j]) for j in (1, 2)) + len(spec.uncontrolled_vars) >= 2
    n = 100_000
    draws = sample_successors(spec, np.full(n, s), blocks, np.random.default_rng(8), intervening=(k,))
    row = transition_rows(spec, [s], blocks, intervening=(k,))[0]
    assert 0.5 * np.abs(np.bincount(draws, minlength=spec.n_states) / n - row).sum() <= 0.02


def _learned_treatment_spec():
    """A learned model of the kind AD-BCQ's augmentation samples from."""
    spec, logged = _logged_treatment()
    return learn_model(spec, *logged).to_spec()[0]


@pytest.mark.parametrize("make", [treatment_spec, two_switch_spec, _learned_treatment_spec])
def test_one_drawn_variable_draws_what_the_dense_row_draws(make):
    spec = make()
    # with every block intervening only the one uncontrolled variable is drawn
    assert len(spec.uncontrolled_vars) == 1
    states, blocks = _random_queries(spec, 500, np.random.default_rng(3))
    fast, slow = np.random.default_rng(4), np.random.default_rng(4)
    np.testing.assert_array_equal(
        sample_successors(spec, states, blocks, fast), choice_rows(transition_rows(spec, states, blocks), slow)
    )
    assert fast.bit_generator.state == slow.bit_generator.state


# -- offline dataset draws -----------------------------------------------------


@pytest.mark.parametrize(
    "make",
    [functools.partial(grid_spec, *case) for case in GRID] + [treatment_spec, two_switch_spec, xor_trap_spec],
    ids=["-".join(map(str, case)) for case in GRID] + ["treatment", "two-switch", "xor-trap"],
)
def test_support_lists_each_query_in_code_order_like_the_dense_oracle(make):
    # every reader of the kernel takes its compact form: each query's codes
    # are its base plus ascending offsets, so a row's CDF equals the dense
    # row's at its codes, and its row of the distinct rows equals the
    # dense oracle's probabilities bit for bit.  The columns are every
    # joint action, and every column MBFPI reads under random policies.
    spec = make()
    states = np.arange(spec.n_states)
    rng = np.random.default_rng(0)
    policies = [FactoredPolicy.random(spec, rng).blocks.T for _ in range(2)]
    cases = [spec.action_radix.table()[:, None]] + [
        _q_columns(spec, blocks, k) for blocks in policies for k in range(spec.n_blocks)
    ]
    for columns in cases:
        base, offsets, index, rows = _support(spec, states, columns)
        assert (np.diff(offsets) > 0).all()
        assert base.shape == index.shape == (len(columns), spec.n_states)
        # one row per distinct tuple of the no-op table rows the drawn
        # factors read; the zero row keeps one key when nothing is drawn
        factors = [spec._index.factors[m] for m in spec.uncontrolled_vars]
        keys = np.stack([np.zeros_like(base)] + [table_rows[state_rows[states], base] for state_rows, table_rows, _ in factors])
        assert len(rows) == np.unique(keys.reshape(len(keys), -1), axis=1).shape[1]
        for c, blocks in enumerate(np.broadcast_to(columns, base.shape + (spec.n_blocks,))):
            codes, want = dense_support(spec, states, blocks)
            np.testing.assert_array_equal(base[c][:, None] + offsets, codes)
            assert rows[index[c]].tobytes() == want.tobytes()


def _two_drawn_spec():
    spec = grid_spec("separable_effects", "additive_monotonic", 0)
    # with every block intervening the uncontrolled variables are the drawn ones
    assert len(spec.uncontrolled_vars) >= 2
    return spec


def _dataset_behaviors(spec):
    """Uniform, and 0.6 on the joint-PI optimum with the rest uniform."""
    uniform = np.full((spec.n_states, spec.n_actions), 1.0 / spec.n_actions)
    greedy = 0.4 * uniform
    greedy[np.arange(spec.n_states), joint_policy_iteration(spec).policy] += 0.6
    return uniform, greedy


@pytest.mark.parametrize(
    "make", [treatment_spec, two_switch_spec, xor_trap_spec, _two_drawn_spec],
    ids=["treatment", "two-switch", "xor-trap", "two-drawn"],
)
@pytest.mark.parametrize("horizon", [1, 20])
def test_dataset_draws_equal_one_choice_per_draw(make, horizon):
    spec = make()
    for behavior in _dataset_behaviors(spec):
        for seed in range(5):
            got = generate_offline_dataset(spec, behavior, episodes=30, seed=seed, horizon=horizon)
            want = offline_dataset_reference(spec, behavior, episodes=30, seed=seed, horizon=horizon)
            assert [e.to_json() for e in got] == [e.to_json() for e in want]


# -- flat in-place Adam --------------------------------------------------------

# the reference Adam takes the learner's moment decays and denominator floor
ADAM = {"beta1": ADAM_BETA1, "beta2": ADAM_BETA2, "eps": ADAM_EPS}

SHAPES = {
    "trunk": (4, 512, 512, 10),
    "bcq_embed": (150, 128, 128),
    "bcq_head": (128, 128, 128, 5),
    "bcq_mixer": (10, 128, 128, 10),
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("weight_decay", [0.0, 1e-3])
def test_flat_adam_matches_per_array_adam(shape, weight_decay):
    rng = np.random.default_rng(len(shape) + int(weight_decay * 1e3))
    net = Mlp(SHAPES[shape], rng=rng)
    ref = [p.copy() for p in layer_views(net.flat, net.sizes)]
    fast = Optimizer(net, lr=3e-4, weight_decay=weight_decay)
    slow = ListAdam(ref, lr=3e-4, weight_decay=weight_decay, **ADAM)
    for _ in range(50):
        grad = np.concatenate([rng.normal(scale=rng.choice([1e-3, 1.0, 30.0]), size=p.size) for p in ref])
        fast.step(grad)
        slow.step(layer_views(grad, net.sizes))
    for got, want in zip(layer_views(net.flat, net.sizes), ref):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("weight_decay", [0.0, 1e-3])
def test_chunked_adam_matches_per_array_adam_across_chunk_boundaries(weight_decay):
    # 41,923 parameters: a chunk boundary falls inside w1
    net = Mlp((7, 300, 130, 3), rng=np.random.default_rng(5))
    assert net.flat.size > 32_768
    ref = [p.copy() for p in layer_views(net.flat, net.sizes)]
    fast = Optimizer(net, lr=1e-3, weight_decay=weight_decay)
    slow = ListAdam(ref, lr=1e-3, weight_decay=weight_decay, **ADAM)
    rng = np.random.default_rng(6)
    for _ in range(20):
        grad = rng.normal(scale=rng.choice([1e-3, 1.0, 30.0]), size=net.flat.size)
        fast.step(grad)
        slow.step(layer_views(grad, net.sizes))
    for got, want in zip(layer_views(net.flat, net.sizes), ref):
        np.testing.assert_array_equal(got, want)
    # a bad entry past the first chunk is named by its layer, before any update
    before = net.flat.copy()
    grad = np.zeros_like(net.flat)
    layer_views(grad, net.sizes)[3][-1] = np.nan
    with pytest.raises(NumericError, match="gradient 3 is not finite"):
        fast.step(grad)
    assert net.flat.tobytes() == before.tobytes()


def test_flat_adam_names_the_parameter_that_broke():
    for index in range(6):
        net = Mlp((3, 4, 4, 2), rng=np.random.default_rng(index))
        grad = np.ones_like(net.flat)
        layer_views(grad, net.sizes)[index].reshape(-1)[-1] = np.inf
        fast = Optimizer(net)
        slow = ListAdam([p.copy() for p in layer_views(net.flat, net.sizes)], **ADAM)
        with pytest.raises(NumericError, match=f"gradient {index} is not finite"):
            fast.step(grad)
        with pytest.raises(NumericError, match=f"gradient {index} is not finite"):
            slow.step(layer_views(grad, net.sizes))
        net = Mlp((3, 4, 4, 2), rng=np.random.default_rng(index))
        layer_views(net.flat, net.sizes)[index].reshape(-1)[0] = 1e308
        grad = np.zeros_like(net.flat)
        layer_views(grad, net.sizes)[index].reshape(-1)[0] = -1.0
        # Adam's first step moves each parameter by about lr against its gradient's sign
        with np.errstate(over="ignore"), pytest.raises(NumericError, match=f"parameter {index} became non-finite"):
            Optimizer(net, lr=1e308).step(grad)


def test_flat_adam_steps_when_finite_entries_overflow_their_sum():
    net = Mlp((3, 4, 4, 2), rng=np.random.default_rng(9))
    ref = [p.copy() for p in layer_views(net.flat, net.sizes)]
    fast, slow = Optimizer(net, lr=1e-3), ListAdam(ref, lr=1e-3, **ADAM)
    grad = np.zeros_like(net.flat)
    grad[:2] = 1e308  # each entry finite, their sum not
    with np.errstate(over="ignore"):  # Adam's second moment squares them
        fast.step(grad)
        slow.step(layer_views(grad, net.sizes))
    assert fast.t == 1
    # parameters whose sum overflows after the update pass the check too
    for p in (net.flat, ref[0].reshape(-1)):
        p[2:4] = 1e308
    fast.step(np.zeros_like(net.flat))
    slow.step(layer_views(np.zeros_like(net.flat), net.sizes))
    for got, want in zip(layer_views(net.flat, net.sizes), ref):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("bad", [[np.nan], [np.inf, -np.inf]], ids=["nan", "inf-minus-inf"])
def test_flat_adam_names_the_layer_of_a_non_finite_gradient(bad):
    net = Mlp((3, 4, 4, 2), rng=np.random.default_rng(10))
    before = net.flat.copy()
    grad = np.ones_like(net.flat)
    views = layer_views(grad, net.sizes)
    views[0].reshape(-1)[:2] = 1e308  # an earlier layer whose finite entries overflow the sum
    views[3][: len(bad)] = bad
    with pytest.raises(NumericError, match="gradient 3 is not finite"):
        Optimizer(net).step(grad)
    assert net.flat.tobytes() == before.tobytes()
