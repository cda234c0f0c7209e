"""The planning kernel against the straight-line oracles over specs drawn
from the whole space `FactoredMdpSpec.check` accepts (`random_spec`):
multi-variable effect sets, repeated intervention entries, zero factor
entries, terminal sets, and discount 1 on specs where every policy
reaches a terminal state.

At each fixed seed: joint and per-block `q_table` equal the enumeration
oracle's backups at sampled states, `evaluate` the dense solve, joint
policy iteration reaches the values of the dense route and a policy
greedy on its Q table, MBFPI converges to values no better than the
joint optimum, and the spec survives its JSON round trip.  The offline
dataset generator logs the reference's episodes under a random
behaviour table, and no transition row or initial distribution of a
built spec is one `rng.choice` rejects, which is why the generator
checks none of them; every `sample_successors` draw has positive
probability along its one path, and `learn_model` counts the
reference's tables on rows drawn that way with block tags.  A failing
seed prints its spec; it is mended in the code, not replaced.
"""

import contextlib

import numpy as np
import pytest

from frl.envs import generate_offline_dataset
from frl.factored_mdp import (
    FactoredMdpSpec,
    FactoredPolicy,
    _cdfs_in_place,
    _support,
    evaluate,
    q_table,
    sample_successors,
)
from frl.tabular import factored_policy_iteration, joint_policy_iteration, learn_model

from oracles import (
    draw_probability,
    enumerate_interventional,
    evaluate_dense,
    joint_policy_iteration_dense,
    learn_model_reference,
    offline_dataset_reference,
    random_spec,
)

SEEDS = range(120)


@contextlib.contextmanager
def drawn(seed):
    """The spec of `seed`, printed if the block under it fails."""
    spec = random_spec(np.random.default_rng(seed))
    try:
        yield spec
    except BaseException:
        print(f"random_spec(np.random.default_rng({seed})):\n{spec.to_json()}")
        raise


def _tol(reference):
    return 1e-12 * max(1.0, float(np.abs(reference).max()))


def _backup(spec, values, s, blocks):
    if s in spec.terminal_states:
        return 0.0
    return enumerate_interventional(spec, s, blocks) @ (spec.reward[s] + spec.discount * values)


@pytest.mark.parametrize("seed", SEEDS)
def test_q_tables_equal_the_enumerated_backups(seed):
    with drawn(seed) as spec:
        rng = np.random.default_rng(1000 + seed)
        values = rng.normal(size=spec.n_states)
        others = FactoredPolicy.random(spec, rng).blocks.T
        joint = q_table(spec, values).table
        for s in rng.choice(spec.n_states, size=min(3, spec.n_states), replace=False):
            s = int(s)
            for a in rng.choice(spec.n_actions, size=min(3, spec.n_actions), replace=False):
                want = _backup(spec, values, s, spec.action_as_blocks(int(a)))
                assert abs(joint[s, a] - want) <= _tol(want), (s, a)
            k = int(rng.integers(spec.n_blocks))
            block = q_table(spec, values, others, k).table
            for a_k in range(spec.block_sizes[k]):
                blocks = list(others[s])
                blocks[k] = a_k
                want = _backup(spec, values, s, blocks)
                assert abs(block[s, a_k] - want) <= _tol(want), (s, k, a_k)


@pytest.mark.parametrize("seed", SEEDS)
def test_evaluate_equals_the_dense_solve(seed):
    with drawn(seed) as spec:
        blocks = FactoredPolicy.random(spec, np.random.default_rng(2000 + seed)).blocks.T
        want = evaluate_dense(spec, blocks)
        np.testing.assert_allclose(evaluate(spec, blocks), want, rtol=0, atol=1e-10 * max(1.0, np.abs(want).max()))


@pytest.mark.parametrize("seed", SEEDS)
def test_planners_reach_the_dense_joint_optimum(seed):
    with drawn(seed) as spec:
        joint, ref = joint_policy_iteration(spec), joint_policy_iteration_dense(spec)
        tol = 1e-10 * max(1.0, np.abs(ref.values).max())
        np.testing.assert_allclose(joint.values, ref.values, rtol=0, atol=tol)
        # ties up to float noise may go to different actions on the two routes
        q = ref.q.table
        assert (q.max(axis=1) - ref.q.values(joint.policy) <= _tol(q)).all()
        trace = factored_policy_iteration(spec, FactoredPolicy.constant(spec, [0] * spec.n_blocks), store_q=False)
        assert trace.terminated == "converged"
        assert (trace.final_values - ref.values).max() <= tol


@pytest.mark.parametrize("seed", SEEDS)
def test_json_round_trip_keeps_every_table(seed):
    with drawn(seed) as spec:
        back = FactoredMdpSpec.from_json(spec.to_json())
        assert back.to_json() == spec.to_json()
        for got, want in zip(back.noop_dynamics, spec.noop_dynamics, strict=True):
            assert got.table.tobytes() == want.table.tobytes()
        assert back.reward.tobytes() == spec.reward.tobytes()
        assert back.init_dist.tobytes() == spec.init_dist.tobytes()
        assert back.terminal_states == spec.terminal_states and back.discount == spec.discount


@pytest.mark.parametrize("seed", SEEDS)
def test_offline_dataset_equals_the_reference_under_a_random_behavior(seed):
    with drawn(seed) as spec:
        rng = np.random.default_rng(3000 + seed)
        behavior = rng.random((spec.n_states, spec.n_actions)) * (rng.random((spec.n_states, spec.n_actions)) < 0.7)
        behavior[np.arange(spec.n_states), rng.integers(spec.n_actions, size=spec.n_states)] += 0.1
        behavior /= behavior.sum(axis=1, keepdims=True)
        got = generate_offline_dataset(spec, behavior, episodes=4, seed=seed)
        want = offline_dataset_reference(spec, behavior, episodes=4, seed=seed)
        assert [e.to_json() for e in got] == [e.to_json() for e in want]


@pytest.mark.parametrize("seed", SEEDS)
def test_rng_choice_accepts_every_row_the_dataset_generator_draws_from(seed):
    with drawn(seed) as spec:
        _, _, _, rows = _support(spec, np.arange(spec.n_states), spec.action_radix.table()[:, None])
        assert not _cdfs_in_place(rows).any()
        assert not _cdfs_in_place(spec.init_dist.copy())


def _tagged_draws(spec, rng, n=60):
    """`learn_model` arguments for n rows at uniform states and block
    actions, each drawn by `sample_successors` with every block
    intervening (tag -1) or only the tagged block."""
    states = rng.integers(spec.n_states, size=n)
    actions = np.stack([rng.integers(size, size=n) for size in spec.block_sizes], axis=1)
    tags = rng.integers(-1, spec.n_blocks, size=n)
    next_states = np.empty(n, dtype=np.int64)
    for tag in range(-1, spec.n_blocks):
        sel = tags == tag
        next_states[sel] = sample_successors(spec, states[sel], actions[sel], rng, None if tag < 0 else (tag,))
    return dict(states=states, actions=actions, rewards=rng.normal(size=n), next_states=next_states, block_tags=tags)


@pytest.mark.parametrize("seed", SEEDS)
def test_successor_draws_land_on_positive_probability(seed):
    with drawn(seed) as spec:
        rows = _tagged_draws(spec, np.random.default_rng(4000 + seed))
        for s, blocks, s_next, tag in zip(rows["states"], rows["actions"], rows["next_states"], rows["block_tags"]):
            intervening = None if tag < 0 else (int(tag),)
            assert draw_probability(spec, int(s), tuple(blocks), int(s_next), intervening) > 0, (s, blocks, tag)


@pytest.mark.parametrize("seed", SEEDS)
def test_learn_model_equals_the_reference_on_tagged_draws(seed):
    with drawn(seed) as spec:
        rows = _tagged_draws(spec, np.random.default_rng(4000 + seed))
        got, want = learn_model(spec, **rows), learn_model_reference(spec, **rows)
        for a, b in zip(got.sigma_value_counts + got.noop_counts, want.sigma_value_counts + want.noop_counts,
                        strict=True):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert got.reward_count.tobytes() == want.reward_count.tobytes()
        assert got.reward_sum.tobytes() == want.reward_sum.tobytes()
