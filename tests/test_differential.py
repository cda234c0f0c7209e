"""Randomized differential tests over a seeded grid of generated specs.

The batched transition kernel is checked row by row against the
enumeration oracles, and both planners are run to termination on every
grid spec: joint policy iteration must converge, and block-coordinate
policy iteration must converge to values no better than the joint
optimum (equal to it on the monotonic suite, whose rewards certify that
coordinate ascent reaches the optimum).
"""

import numpy as np
import pytest

from frl.envs import SyntheticSpec, generate_synthetic, monotonic_suite
from frl.envs.synthetic import REWARD_KINDS
from frl.errors import DomainError, ShapeError
from frl.factored_mdp import FactoredPolicy, transition_rows
from frl.tabular import factored_policy_iteration, joint_policy_iteration

from oracles import enumerate_interventional, enumerate_projected

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


def test_transition_rows_reject_bad_codes():
    spec = grid_spec("separable_effects", "additive_monotonic", 0)
    with pytest.raises(DomainError):
        transition_rows(spec, [spec.n_states], [0] * spec.n_blocks)
    with pytest.raises(DomainError):
        transition_rows(spec, [0], [0] * (spec.n_blocks - 1) + [-1])
    with pytest.raises(ShapeError):
        transition_rows(spec, [0, 1], np.zeros((3, spec.n_blocks), dtype=np.int64))
