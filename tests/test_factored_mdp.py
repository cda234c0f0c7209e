import dataclasses

import numpy as np
import pytest

from frl.envs import SyntheticSpec, generate_synthetic, two_switch_spec
from frl.errors import (
    DomainError,
    NumericError,
    ShapeError,
    ValidationError,
)
from frl.factored_mdp import (
    FactoredMdpSpec,
    FactoredPolicy,
    NoopFactor,
    QTable,
    SigmaTable,
    evaluate,
    q_table,
)

from oracles import (
    enumerate_interventional,
    enumerate_projected,
    exact_q,
    noop_propensity,
    solve_q_dense,
    transition_rows,
)


def random_specs(n, seed=0, max_vars=6, max_blocks=3):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        K = int(rng.integers(1, max_blocks + 1))
        M = int(rng.integers(K, max_vars + 1))
        cards = tuple(int(c) for c in rng.integers(2, 4, size=M))
        out.append(
            generate_synthetic(
                SyntheticSpec(
                    structure="separable_effects",
                    n_vars=M,
                    n_blocks=K,
                    cards=cards,
                    seed=int(rng.integers(0, 2**31)),
                )
            )
        )
    return out


# -- frozen micro-MDP values -------------------------------------------------


def test_two_switch_interventional_frozen():
    spec = two_switch_spec()
    p = transition_rows(spec, [0], (1, 0))[0]
    expect = np.zeros(8)
    expect[spec.state_radix.encode((1, 0, 0))] = 0.7
    expect[spec.state_radix.encode((1, 0, 1))] = 0.3
    assert np.allclose(p, expect, atol=1e-15)


def test_two_switch_projected_frozen():
    spec = two_switch_spec()
    p = transition_rows(spec, [0], (1, 0), intervening=(0,))[0]
    expect = np.zeros(8)
    expect[spec.state_radix.encode((1, 0, 0))] = 0.63
    expect[spec.state_radix.encode((1, 0, 1))] = 0.27
    expect[spec.state_radix.encode((1, 1, 0))] = 0.07
    expect[spec.state_radix.encode((1, 1, 1))] = 0.03
    assert np.allclose(p, expect, atol=1e-15)


def test_two_switch_propensity_frozen():
    spec = two_switch_spec()
    s_next = spec.state_radix.encode((1, 1, 0))
    assert noop_propensity(spec, 0, 0, s_next, (1, 1)) == pytest.approx(0.1, abs=1e-15)


def test_single_block_propensity_is_one():
    spec = two_switch_spec(single_block=True)
    s_next = spec.state_radix.encode((1, 1, 0))
    assert noop_propensity(spec, 0, 0, s_next, (3,)) == 1.0


def test_expected_reward_forced_pair():
    spec = two_switch_spec(reward="and")
    assert transition_rows(spec, [0], (1, 1))[0] @ spec.reward[0] == pytest.approx(1.0, abs=1e-15)
    assert transition_rows(spec, [0], (1, 0))[0] @ spec.reward[0] == pytest.approx(0.0, abs=1e-15)


# -- oracle cross-checks ------------------------------------------------------


def test_transitions_match_enumeration_oracle():
    for spec in random_specs(8, seed=11, max_vars=4):
        rng = np.random.default_rng(5)
        for _ in range(4):
            s = int(rng.integers(spec.n_states))
            blocks = tuple(int(rng.integers(n)) for n in spec.block_sizes)
            lib = transition_rows(spec, [s], blocks)[0]
            ref = enumerate_interventional(spec, s, blocks)
            assert np.allclose(lib, ref, atol=1e-14)
            assert lib.sum() == pytest.approx(1.0, abs=1e-12)
            k = int(rng.integers(spec.n_blocks))
            libp = transition_rows(spec, [s], blocks, intervening=(k,))[0]
            refp = enumerate_projected(spec, k, s, blocks[k])
            assert np.allclose(libp, refp, atol=1e-14)
            assert libp.sum() == pytest.approx(1.0, abs=1e-12)


def test_reweighting_identity():
    # dividing the projected transition by the no-op propensity recovers
    # the interventional transition on the consistent support
    for spec in random_specs(6, seed=23, max_vars=5):
        rng = np.random.default_rng(9)
        for _ in range(4):
            s = int(rng.integers(spec.n_states))
            blocks = tuple(int(rng.integers(n)) for n in spec.block_sizes)
            joint = transition_rows(spec, [s], blocks)[0]
            for k in range(spec.n_blocks):
                proj = transition_rows(spec, [s], blocks, intervening=(k,))[0]
                for s_next in np.flatnonzero(joint > 0):
                    rho = noop_propensity(spec, k, s, int(s_next), blocks)
                    assert joint[s_next] == pytest.approx(proj[s_next] / rho, abs=1e-12)


def test_propensity_rejects_inconsistent_next_state():
    spec = two_switch_spec()
    s_next = spec.state_radix.encode((1, 0, 0))  # block 1 forced s2'=1, got 0
    with pytest.raises(DomainError):
        noop_propensity(spec, 0, 0, s_next, (1, 1))


@pytest.mark.parametrize("k, s, s_next, named", [
    (0, 0, -1, "state codes"),  # -1 would wrap to the last state
    (0, 0, 8, "state codes"),
    (0, -1, 6, "state codes"),
    (5, 0, 6, "block 5"),
    (-1, 0, 6, "block -1"),
])
def test_propensity_rejects_out_of_range_codes(k, s, s_next, named):
    with pytest.raises(DomainError, match=named):
        noop_propensity(two_switch_spec(), k, s, s_next, (1, 1))


def test_undefined_sigma_entry_raises():
    spec = two_switch_spec()
    table = np.array([[0], [-1]])
    with pytest.raises(ValidationError, match=r"sigma\[0\] undefined at projected action 1"):
        dataclasses.replace(spec, sigma=(SigmaTable(0, table), spec.sigma[1]))


# -- exact policy evaluation ---------------------------------------------------


def test_exact_q_matches_dense_solve():
    spec = two_switch_spec(reward="and", discount=0.9)
    rng = np.random.default_rng(2)
    policy = FactoredPolicy.random(spec, rng)
    q = exact_q(spec, policy, None)
    q_ref, _ = solve_q_dense(spec, policy)
    assert np.abs(q.table - q_ref).max() < 1e-8


def test_q_table_rejects_values_of_the_wrong_shape_and_a_block_without_actions():
    spec = two_switch_spec()
    for shape in [(spec.n_states + 1,), (spec.n_states - 1,), (spec.n_states, 1), ()]:
        # a longer vector would be read silently through the support's codes
        with pytest.raises(ShapeError, match="values have shape"):
            q_table(spec, np.zeros(shape))
    with pytest.raises(ShapeError, match="block 1"):
        q_table(spec, np.zeros(spec.n_states), k=1)


def test_exact_q_single_state_closed_form():
    spec = FactoredMdpSpec(
        state_vars=(1,),
        action_blocks=((1,),),
        eff_map=((0,),),
        pre_map=((),),
        sigma=(SigmaTable(0, np.zeros((1, 1), dtype=int)),),
        noop_dynamics=(NoopFactor(0, (), (), np.ones((1, 1))),),
        reward=np.array([[0.7]]),
        init_dist=np.array([1.0]),
        discount=0.9,
    )
    policy = FactoredPolicy(np.zeros((1, 1), dtype=int))
    q = exact_q(spec, policy, None)
    assert q.table[0, 0] == pytest.approx(0.7 / (1 - 0.9), abs=1e-8)


def test_projected_value_matches_joint_value():
    for spec in random_specs(5, seed=37, max_vars=5):
        rng = np.random.default_rng(1)
        policy = FactoredPolicy.random(spec, rng)
        v_joint = exact_q(spec, policy, None).values(policy.joint_codes(spec))
        for k in range(spec.n_blocks):
            qt = exact_q(spec, policy, k)
            v_proj = qt.values(policy.blocks[k])
            assert np.abs(v_joint - v_proj).max() < 1e-8


def test_projected_q_equals_joint_q_with_one_block_replaced():
    spec = two_switch_spec(reward="weighted", weights=(0.8, 0.5))
    rng = np.random.default_rng(4)
    policy = FactoredPolicy.random(spec, rng)
    q_joint = exact_q(spec, policy, None).table
    for k in range(spec.n_blocks):
        q_proj = exact_q(spec, policy, k).table
        for s in range(spec.n_states):
            for a_k in range(spec.block_sizes[k]):
                blocks = list(policy.joint_action(s))
                blocks[k] = a_k
                joint_code = spec.action_radix.encode(blocks)
                assert q_proj[s, a_k] == pytest.approx(q_joint[s, joint_code], abs=1e-8)


def test_terminal_states_absorb():
    spec = two_switch_spec(reward="and", discount=0.9)
    terminal = frozenset({spec.state_radix.encode((1, 1, 0)), spec.state_radix.encode((1, 1, 1))})
    spec = dataclasses.replace(spec, discount=1.0, terminal_states=terminal)
    policy = FactoredPolicy.constant(spec, (1, 1))
    q = exact_q(spec, policy, None)
    for s in terminal:
        assert np.all(q.table[s] == 0.0)
    # from any other state, both switches are forced on, so the episode
    # collects exactly one reward of 1 before absorbing
    for s in range(spec.n_states):
        if s not in terminal:
            assert q.values(policy.joint_codes(spec))[s] == pytest.approx(1.0, abs=1e-9)


def test_an_undiscounted_closed_class_of_non_terminal_states_raises():
    blocks = np.broadcast_to(two_switch_spec().action_as_blocks(3), (8, 2))
    # joint action 3 never reaches state 0, and its states pay reward
    spec = dataclasses.replace(two_switch_spec(), discount=1.0, terminal_states=(0,))
    with pytest.raises(NumericError, match="policy evaluation"):
        evaluate(spec, blocks)
    # it does reach state 6
    spec = dataclasses.replace(spec, terminal_states=(6,))
    values = evaluate(spec, blocks)
    assert values[6] == 0.0
    assert np.abs(values).max() == pytest.approx(10 / 3, abs=1e-12)


# -- validation ----------------------------------------------------------------


def test_validation_rejects_overlapping_effects():
    spec = two_switch_spec()
    with pytest.raises(ValidationError, match="state variable 0 appears in the effect set of more than one block"):
        dataclasses.replace(spec, eff_map=((0,), (0,)))


def test_validation_rejects_bad_rows():
    spec = two_switch_spec()
    bad_table = np.array([[0.9, 0.2], [0.1, 0.9]])
    factors = (NoopFactor(0, (0,), (), bad_table),) + spec.noop_dynamics[1:]
    with pytest.raises(ValidationError, match="sum to 1"):
        dataclasses.replace(spec, noop_dynamics=factors)


@pytest.mark.parametrize("entry", [-0.5, np.nan, np.inf], ids=["negative", "nan", "inf"])
def test_validation_rejects_an_init_dist_that_is_not_a_distribution(entry):
    spec = two_switch_spec()
    init = spec.init_dist.copy()
    init[3] = entry
    with pytest.raises(ValidationError, match="init_dist is not a distribution"):
        dataclasses.replace(spec, init_dist=init)


def test_validation_rejects_discount_one_without_terminals():
    spec = two_switch_spec()
    with pytest.raises(ValidationError, match="terminal"):
        dataclasses.replace(spec, discount=1.0)


def test_positivity_flag_rejects_zero_entries():
    spec = two_switch_spec()
    zero_table = np.array([[1.0, 0.0], [0.0, 1.0]])
    factors = (NoopFactor(0, (0,), (), zero_table),) + spec.noop_dynamics[1:]
    with pytest.raises(ValidationError, match="assume_positive"):
        dataclasses.replace(spec, noop_dynamics=factors)
    ok = dataclasses.replace(spec, noop_dynamics=factors, assume_positive=False)
    assert ok.n_states == 8


def test_validation_rejects_controlled_var_with_eff_parents():
    spec = two_switch_spec()
    factors = (NoopFactor(0, (0,), (1,), np.tile([0.5, 0.5], (4, 1))),) + spec.noop_dynamics[1:]
    with pytest.raises(ValidationError, match="next-state"):
        dataclasses.replace(spec, noop_dynamics=factors)


def test_json_round_trip_and_determinism():
    for seed in (0, 1):
        a = generate_synthetic(
            SyntheticSpec(structure="separable_effects", n_vars=4, n_blocks=2, cards=2, seed=seed)
        )
        b = generate_synthetic(
            SyntheticSpec(structure="separable_effects", n_vars=4, n_blocks=2, cards=2, seed=seed)
        )
        assert a.to_json() == b.to_json()
        back = FactoredMdpSpec.from_json(a.to_json())
        assert back.to_json() == a.to_json()
        s, blocks = 1, tuple(0 for _ in a.block_sizes)
        assert np.allclose(
            transition_rows(a, [s], blocks),
            transition_rows(back, [s], blocks),
        )


def test_qtable_greedy_breaks_ties_low():
    q = QTable(np.array([[1.0, 1.0, 0.5], [0.2, 0.9, 0.9]]))
    assert q.greedy().tolist() == [0, 1]


def test_qtable_greedy_keeps_incumbent_unless_beaten_beyond_noise():
    q = QTable(np.array([[1.0, 1.0 + 1e-15, 0.5], [0.2, 0.9, 0.9 + 1e-9], [3.0, 2.0, 1.0]]))
    assert q.greedy().tolist() == [1, 2, 0]
    # a 1e-15 edge is float noise; 1e-9 and 1.0 are real improvements
    assert q.greedy(incumbent=np.array([0, 1, 2])).tolist() == [0, 2, 0]
    # the tolerance scales with the largest |Q|
    big = QTable(np.array([[1e6, 1e6 + 1e-7]]))
    assert big.greedy(incumbent=np.array([0])).tolist() == [0]
    assert big.greedy(incumbent=np.array([1])).tolist() == [1]


def test_qtable_greedy_moves_to_the_lowest_action_tied_with_the_best():
    q = QTable(np.array([[0.0, 1.0, 1.0 + 1e-15, 1.0 - 1e-15], [0.0, 1.0 - 1e-9, 1.0, 1.0]]))
    # actions 1-3 of state 0 tie up to noise, so the lowest of them wins
    assert q.greedy(incumbent=np.array([0, 0])).tolist() == [1, 2]
    assert q.greedy(incumbent=np.array([3, 3])).tolist() == [3, 3]


def test_policy_validation():
    spec = two_switch_spec()
    with pytest.raises(ShapeError):
        FactoredPolicy(np.zeros((3, 8), dtype=int)).check(spec)
    with pytest.raises(DomainError):
        FactoredPolicy(np.full((2, 8), 5)).check(spec)
