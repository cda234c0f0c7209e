"""Environment tests: point-mass physics, logged datasets, generators.

The integrator is checked against a hand-written Euler update, the
decoupled axes against a coordinate swap, and the dataset logger
against empirical transition frequencies of the spec it rolled out.
"""

import tracemalloc

import numpy as np
import pytest

from frl.envs import (
    PointMassEnv,
    SyntheticSpec,
    generate_offline_dataset,
    generate_synthetic,
    point_mass_step,
    treatment_spec,
)
from frl.envs.point_mass import BOX, DAMPING, DT, FlattenedEnv
from frl.errors import DomainError, ValidationError

from oracles import monotonic_suite, transition_rows


# -- point mass ---------------------------------------------------------------


def test_single_euler_step_by_hand():
    # bins=9 maps bin 8 to force +1 and bin 0 to force -1
    state = np.array([0.01, -0.02, 0.1, -0.05])
    nxt, reward = point_mass_step(state, (8, 0), 9)
    vx = DAMPING * 0.1 + 1.0 * DT
    vy = DAMPING * -0.05 + -1.0 * DT
    x = 0.01 + DT * vx
    y = -0.02 + DT * vy
    np.testing.assert_allclose(nxt, [x, y, vx, vy], rtol=1e-15)
    d = np.hypot(x - 0.15, y - 0.1)
    z = (d - 0.05) / 0.15
    np.testing.assert_allclose(reward, np.exp(-0.5 * z * z), rtol=1e-15)


def test_goal_region_pays_one_and_walls_clip():
    state = np.array([0.15, 0.1, 0.0, 0.0])
    nxt, reward = point_mass_step(state, (4, 4), 9)  # center bin = zero force
    np.testing.assert_array_equal(nxt, state)
    assert reward == 1.0
    pinned = np.array([BOX, BOX, 1.0, 1.0])
    nxt, _ = point_mass_step(pinned, (8, 8), 9)
    assert nxt[0] == BOX and nxt[1] == BOX  # position clipped at the box
    assert nxt[2] > 1.0 * DAMPING  # velocity is not clipped


def test_force_grid_endpoints_and_errors():
    with pytest.raises(DomainError):
        point_mass_step(np.zeros(4), (9, 0), 9)
    with pytest.raises(DomainError):
        point_mass_step(np.zeros(4), (-1, 0), 9)
    with pytest.raises(DomainError):
        PointMassEnv(bins=4)  # even grid has no zero-force bin
    with pytest.raises(DomainError):
        PointMassEnv(bins=1)


def test_axes_are_decoupled():
    # swapping the axes of state and action swaps the next state
    rng = np.random.default_rng(0)
    for _ in range(25):
        s = rng.uniform(-0.2, 0.2, size=4)
        a = tuple(rng.integers(0, 9, size=2))
        fwd, _ = point_mass_step(s, a, 9)
        swapped, _ = point_mass_step(s[[1, 0, 3, 2]], (a[1], a[0]), 9)
        np.testing.assert_allclose(fwd[[1, 0, 3, 2]], swapped, rtol=1e-15)


def test_same_seed_trajectories_are_bit_identical():
    def rollout():
        env = PointMassEnv(bins=5, episode_len=40, seed=11)
        rng = np.random.default_rng(2)
        states = [env.reset()]
        rewards = []
        done = False
        while not done:
            s, r, done = env.step(tuple(rng.integers(0, 5, size=2)))
            states.append(s)
            rewards.append(r)
        return np.stack(states), np.array(rewards)
    s1, r1 = rollout()
    s2, r2 = rollout()
    assert np.array_equal(s1, s2) and np.array_equal(r1, r2)
    assert len(r1) == 40


def test_env_metadata_and_episode_end():
    env = PointMassEnv(bins=9, episode_len=3, seed=0)
    assert env.block_sizes == (9, 9) and env.noop_actions == (4, 4)
    assert env.block_dims == ((0, 2), (1, 3))
    env.reset()
    flags = [env.step((4, 4))[2] for _ in range(3)]
    assert flags == [False, False, True]


def test_flattened_env_round_trips_action_codes():
    flat = FlattenedEnv(PointMassEnv(bins=3, episode_len=5, seed=0))
    assert flat.block_sizes == (9,) and flat.noop_actions == (4,)
    assert flat.block_dims == ((0, 2, 1, 3),)
    codes = [flat._split(c) for c in range(9)]
    assert codes == [(i, j) for i in range(3) for j in range(3)]
    # stepping through the wrapper matches stepping the inner env
    inner = PointMassEnv(bins=3, episode_len=5, seed=7)
    outer = FlattenedEnv(PointMassEnv(bins=3, episode_len=5, seed=7))
    inner.reset()
    outer.reset()
    for code in [0, 4, 8, 2, 6]:
        si, ri, di = inner.step((code // 3, code % 3))
        so, ro, do = outer.step((code,))
        assert np.array_equal(si, so) and ri == ro and di == do


# -- offline dataset logging --------------------------------------------------


def test_dataset_logs_true_propensities_and_rewards():
    spec = treatment_spec()
    rng = np.random.default_rng(1)
    behavior = rng.dirichlet(np.full(spec.n_actions, 2.0), size=spec.n_states)
    episodes = generate_offline_dataset(spec, behavior, episodes=50, seed=3)
    assert len(episodes) == 50
    for ep in episodes:
        np.testing.assert_array_equal(ep.propensities, behavior[ep.states, ep.actions])
        successors = list(ep.states[1:]) + [ep.final_state]
        for s, s2, r in zip(ep.states, successors, ep.rewards):
            assert r == spec.reward[s, s2]
        assert len(ep) == 20 or ep.final_state in spec.terminal_states
        assert not any(int(s) in spec.terminal_states for s in ep.states)


def test_dataset_transition_frequencies_match_the_spec():
    # a single-action behavior concentrates visits on a few (s, a) pairs,
    # so the busiest one gets enough samples for a tight frequency check
    spec = treatment_spec()
    behavior = np.zeros((spec.n_states, spec.n_actions))
    behavior[:, 7] = 1.0
    episodes = generate_offline_dataset(spec, behavior, episodes=4000, seed=5)
    counts: dict[tuple[int, int], np.ndarray] = {}
    for ep in episodes:
        successors = list(ep.states[1:]) + [ep.final_state]
        for s, a, s2 in zip(ep.states, ep.actions, successors):
            key = (int(s), int(a))
            counts.setdefault(key, np.zeros(spec.n_states))[int(s2)] += 1
    key, hist = max(counts.items(), key=lambda kv: kv[1].sum())
    assert hist.sum() >= 2000
    expected = transition_rows(spec, [key[0]], spec.action_as_blocks(key[1]))[0]
    tv = 0.5 * np.abs(hist / hist.sum() - expected).sum()
    assert tv <= 0.02


def test_dataset_rejects_malformed_behavior():
    spec = treatment_spec()
    with pytest.raises(ValidationError):
        generate_offline_dataset(spec, np.ones((3, 3)), episodes=1, seed=0)
    bad = np.full((spec.n_states, spec.n_actions), 1.0 / spec.n_actions)
    bad[0] *= 2.0
    with pytest.raises(ValidationError):
        generate_offline_dataset(spec, bad, episodes=1, seed=0)
    # a NaN row passes both a sign and a sum test; no episode need reach it
    bad = np.full((spec.n_states, spec.n_actions), 1.0 / spec.n_actions)
    bad[120] = np.nan
    with pytest.raises(ValidationError, match="behavior rows must be distributions"):
        generate_offline_dataset(spec, bad, episodes=1, seed=0)


def test_dataset_peak_memory_stays_below_one_dense_square():
    # S = 729 and A = 27: a dense (S, A, S) table of transition rows would take 115 MB
    spec = generate_synthetic(SyntheticSpec("separable_effects", 6, 3, 3, seed=0))
    behavior = np.full((spec.n_states, spec.n_actions), 1.0 / spec.n_actions)
    tracemalloc.start()
    try:
        generate_offline_dataset(spec, behavior, episodes=200, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < spec.n_states**2 * np.dtype(np.float64).itemsize


def test_same_seed_datasets_are_identical():
    spec = treatment_spec()
    behavior = np.full((spec.n_states, spec.n_actions), 1.0 / spec.n_actions)
    a = generate_offline_dataset(spec, behavior, episodes=20, seed=9)
    b = generate_offline_dataset(spec, behavior, episodes=20, seed=9)
    assert len(a) == len(b)
    for ea, eb in zip(a, b):
        assert ea.to_json() == eb.to_json()


# -- synthetic generator determinism ------------------------------------------


def test_same_seed_specs_serialize_identically():
    params = SyntheticSpec(structure="separable_effects", n_vars=4, n_blocks=2,
                           cards=3, seed=13)
    assert generate_synthetic(params).to_json() == generate_synthetic(params).to_json()
    other = generate_synthetic(
        SyntheticSpec(structure="separable_effects", n_vars=4, n_blocks=2, cards=3, seed=14)
    )
    assert other.to_json() != generate_synthetic(params).to_json()


def test_monotonic_suite_is_deterministic():
    a = monotonic_suite(4, seed=2)
    b = monotonic_suite(4, seed=2)
    assert len(a) == 4
    assert [s.to_json() for s in a] == [s.to_json() for s in b]
