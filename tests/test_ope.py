"""Weighted importance sampling and model-selection tests.

The two-episode example is small enough to evaluate by hand; its
weighted estimate and effective sample size are frozen below as exact
fractions, worked out step by step in the comments.
"""

import json

import numpy as np
import pytest

from frl.envs import generate_offline_dataset, treatment_spec
from frl.errors import DataError, DomainError, SelectionError, ShapeError, ValidationError
from frl.ope import (
    EpisodeLog,
    OpeResult,
    load_episodes,
    save_episodes,
    select_model,
    soften,
    wis_ess,
)
from oracles import wis_ess_reference

# target policy over two states, two actions
TARGET = np.array([[0.2, 0.8], [0.9, 0.1]])

# episode A: (s=0, a=1, mu=0.4) then (s=1, a=0, mu=0.45)
#   step ratios 0.8/0.4 = 2 and 0.9/0.45 = 2, cumulative [2, 4], return 1 + 2 = 3
# episode B: (s=0, a=0, mu=0.5), ratio 0.2/0.5 = 0.4, return 10
EP_A = EpisodeLog(states=[0, 1], actions=[1, 0], rewards=[1.0, 2.0], propensities=[0.4, 0.45])
EP_B = EpisodeLog(states=[0], actions=[0], rewards=[10.0], propensities=[0.5])

# step averages: [(2 + 0.4)/2, (4 + 0.4)/2] = [1.2, 2.2]  (B holds its ratio)
# WIS  = ((4/2.2)*3 + (0.4/1.2)*10) / 2 = 145/33
# ESS  = (4 + 0.4)^2 / (16 + 0.16)     = 121/101


def test_hand_example_wis_and_ess():
    res = wis_ess([EP_A, EP_B], TARGET)
    np.testing.assert_allclose(res.wis, 145 / 33, rtol=1e-12)
    np.testing.assert_allclose(res.ess, 121 / 101, rtol=1e-12)
    np.testing.assert_allclose(res.step_averages, [1.2, 2.2], rtol=1e-12)
    np.testing.assert_allclose(res.episode_weights, [4.0, 0.4], rtol=1e-12)
    assert res.clip_count == 0 and res.n_episodes == 2


def test_hand_example_discounted():
    # returns become 1 + 0.5*2 = 2 and 10; WIS = ((4/2.2)*2 + (0.4/1.2)*10)/2
    res = wis_ess([EP_A, EP_B], TARGET, gamma=0.5)
    np.testing.assert_allclose(res.wis, 115 / 33, rtol=1e-12)


def test_hand_example_with_clipping():
    # clip 3 caps episode A's cumulative ratio at its second step only:
    # cum rows become [2, 3] and [0.4, 0.4], step averages [1.2, 1.7],
    # WIS = ((3/1.7)*3 + (0.4/1.2)*10) / 2 = 220/51
    res = wis_ess([EP_A, EP_B], TARGET, clip=3.0)
    np.testing.assert_allclose(res.wis, 220 / 51, rtol=1e-12)
    assert res.clip_count == 1
    np.testing.assert_allclose(res.episode_weights, [3.0, 0.4], rtol=1e-12)


def test_on_policy_evaluation_is_exact():
    spec = treatment_spec()
    rng = np.random.default_rng(0)
    behavior = rng.dirichlet(np.ones(spec.n_actions), size=spec.n_states)
    episodes = generate_offline_dataset(spec, behavior, episodes=40, seed=1)
    res = wis_ess(episodes, behavior)
    returns = [float(ep.rewards.sum()) for ep in episodes]
    np.testing.assert_allclose(res.wis, np.mean(returns), rtol=1e-12)
    np.testing.assert_allclose(res.ess, len(episodes), rtol=1e-12)
    assert res.clip_count == 0


def test_equal_length_estimate_is_a_convex_combination():
    rng = np.random.default_rng(3)
    episodes = []
    for _ in range(30):
        n = 6
        states = rng.integers(0, 4, size=n)
        actions = rng.integers(0, 3, size=n)
        props = rng.uniform(0.2, 0.9, size=n)
        episodes.append(EpisodeLog(states, actions, rng.normal(size=n), props))
    target = rng.dirichlet(np.ones(3), size=4)
    res = wis_ess(episodes, target, clip=np.inf)
    returns = np.array([ep.rewards.sum() for ep in episodes])
    weights = res.episode_weights / res.episode_weights.sum() * len(episodes)
    np.testing.assert_allclose(res.wis, np.mean(weights * returns), rtol=1e-10)
    assert returns.min() - 1e-12 <= res.wis <= returns.max() + 1e-12


def test_target_scale_cancels_for_equal_lengths():
    rng = np.random.default_rng(4)
    episodes = []
    for _ in range(12):
        episodes.append(
            EpisodeLog(
                rng.integers(0, 2, size=5), rng.integers(0, 2, size=5),
                rng.normal(size=5), rng.uniform(0.3, 0.9, size=5),
            )
        )
    table = rng.dirichlet(np.ones(2), size=2)
    base = wis_ess(episodes, table, clip=np.inf)
    halved = wis_ess(episodes, 0.5 * table, clip=np.inf)
    np.testing.assert_allclose(halved.wis, base.wis, rtol=1e-10)
    np.testing.assert_allclose(halved.ess, base.ess, rtol=1e-10)


def test_soften_row_values():
    table = soften(np.array([2, 0]), 0.01, 25)
    assert table.shape == (2, 25)
    np.testing.assert_allclose(table[0, 2], 0.99)
    np.testing.assert_allclose(table[0, 1], 0.01 / 24)
    np.testing.assert_allclose(table.sum(axis=1), 1.0, rtol=1e-12)
    assert (table > 0).all()


def test_soften_rejects_bad_arguments():
    with pytest.raises(DomainError):
        soften(np.array([0]), 0.1, 1)
    with pytest.raises(DomainError):
        soften(np.array([0]), 1.0, 3)
    with pytest.raises(ShapeError):
        soften(np.zeros((2, 2), dtype=int), 0.1, 3)
    with pytest.raises(DomainError):
        soften(np.array([5]), 0.1, 3)


def test_wis_error_conditions():
    with pytest.raises(DomainError):
        wis_ess([], TARGET)
    # a target that never chooses the logged action starves every weight
    zero_target = np.array([[1.0, 0.0], [0.9, 0.1]])
    ep = EpisodeLog(states=[0], actions=[1], rewards=[1.0], propensities=[0.5])
    with pytest.raises(DataError):
        wis_ess([ep], zero_target)


def test_episode_log_validation():
    with pytest.raises(DataError):
        EpisodeLog(states=[], actions=[], rewards=[], propensities=[])
    with pytest.raises(ShapeError):
        EpisodeLog(states=[0, 1], actions=[0], rewards=[0.0, 0.0], propensities=[0.5, 0.5])
    with pytest.raises(DataError):
        EpisodeLog(states=[0], actions=[0], rewards=[0.0], propensities=[0.0])
    with pytest.raises(DataError):
        EpisodeLog(states=[0], actions=[0], rewards=[0.0], propensities=[1.5])


def test_episode_round_trip_preserves_final_state(tmp_path):
    eps = [
        EpisodeLog([0, 1], [1, 0], [1.0, 2.0], [0.4, 0.45], final_state=3),
        EpisodeLog([2], [1], [0.5], [0.9]),
    ]
    path = tmp_path / "episodes.jsonl"
    save_episodes(eps, path)
    back = load_episodes(path)
    assert len(back) == 2
    assert back[0].final_state == 3 and back[1].final_state is None
    np.testing.assert_array_equal(back[0].states, eps[0].states)
    np.testing.assert_array_equal(back[1].propensities, eps[1].propensities)


@pytest.mark.parametrize("line, message", [
    ('{"states": [0], "actions": [0], "rewards": [1.0]}', "lacks propensities"),
    ("[0, 0, 1.0, 0.5]", "not a JSON object"),
    ("{not json", "not valid JSON"),
])
def test_load_episodes_names_the_malformed_line(tmp_path, line, message):
    path = tmp_path / "episodes.jsonl"
    save_episodes([EP_A, EP_B], path)
    with open(path, "a") as fh:
        fh.write(line + "\n")
    with pytest.raises(ValidationError, match=f"line 3: episode line .*{message}"):
        load_episodes(path)


def test_result_serialization():
    doc = json.loads(wis_ess([EP_A, EP_B], TARGET).to_json())
    assert doc["n_episodes"] == 2
    np.testing.assert_allclose(doc["wis"], 145 / 33, rtol=1e-12)


@pytest.mark.parametrize("seed", range(60))
def test_wis_matches_the_per_step_reference_bitwise(seed):
    rng = np.random.default_rng(seed)
    n_states, n_actions = int(rng.integers(1, 6)), int(rng.integers(1, 4))
    episodes = []
    for _ in range(int(rng.integers(1, 15))):
        n = int(rng.integers(1, 12))
        episodes.append(EpisodeLog(
            rng.integers(0, n_states, size=n), rng.integers(0, n_actions, size=n),
            rng.normal(size=n), rng.uniform(0.05, 1.0, size=n),
        ))
    target = rng.dirichlet(np.ones(n_actions), size=n_states)
    gamma = float(rng.choice([1.0, 0.9]))
    clip = float(rng.choice([np.inf, 1000.0, 3.0, 1.5]))
    res = wis_ess(episodes, target, gamma=gamma, clip=clip)
    wis, ess, weights, step_avg, clip_count = wis_ess_reference(episodes, target, gamma=gamma, clip=clip)
    assert (res.wis, res.ess, res.clip_count) == (wis, ess, clip_count)
    assert res.episode_weights.tobytes() == weights.tobytes()
    assert res.step_averages.tobytes() == step_avg.tobytes()


def _result(wis, ess):
    return OpeResult(wis=wis, ess=ess, episode_weights=np.ones(1),
                     step_averages=np.ones(1), clip_count=0, n_episodes=1)


def test_select_model_prefers_best_feasible_wis():
    cands = [("a", _result(5.0, 2.0)), ("b", _result(9.0, 0.5)), ("c", _result(4.0, 3.0))]
    cid, res = select_model(cands, ess_cutoff=1.0)
    assert cid == "a" and res.wis == 5.0  # b wins on WIS but fails the cutoff


def test_select_model_tie_breaking_and_failure():
    cands = [("late", _result(5.0, 2.0)), ("early", _result(5.0, 4.0))]
    cid, _ = select_model(cands, ess_cutoff=1.0)
    assert cid == "early"  # equal WIS, higher ESS wins
    with pytest.raises(SelectionError, match="0.9"):
        select_model([("x", _result(1.0, 0.9))], ess_cutoff=5.0)
