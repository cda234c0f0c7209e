"""Randomized differential tests of the fast paths against oracles.

The batched transition kernel is checked row by row against the
enumeration oracles, and both planners are run to termination on every
grid spec of generated specs: joint policy iteration must converge, and
block-coordinate policy iteration must converge to values no better
than the joint optimum (equal to it on the monotonic suite, whose
rewards certify that coordinate ascent reaches the optimum).  The
vectorized successor draw is checked against one `rng.choice` per row,
and the flat in-place Adam against a per-array Adam, bit for bit.
"""

import numpy as np
import pytest

from frl.agents.models import sample_rows
from frl.approx import Mlp, Optimizer
from frl.envs import SyntheticSpec, generate_synthetic, monotonic_suite
from frl.envs.synthetic import REWARD_KINDS
from frl.errors import DomainError, NumericError, ShapeError
from frl.factored_mdp import FactoredPolicy, transition_rows
from frl.tabular import factored_policy_iteration, joint_policy_iteration

from oracles import ListAdam, choice_rows, enumerate_interventional, enumerate_projected, layer_views

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


# -- flat in-place Adam --------------------------------------------------------

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
    slow = ListAdam(ref, lr=3e-4, weight_decay=weight_decay)
    for _ in range(50):
        grad = np.concatenate([rng.normal(scale=rng.choice([1e-3, 1.0, 30.0]), size=p.size) for p in ref])
        fast.step(grad)
        slow.step(layer_views(grad, net.sizes))
    for got, want in zip(layer_views(net.flat, net.sizes), ref):
        np.testing.assert_array_equal(got, want)


def test_flat_adam_names_the_parameter_that_broke():
    for index in range(6):
        net = Mlp((3, 4, 4, 2), rng=np.random.default_rng(index))
        grad = np.ones_like(net.flat)
        layer_views(grad, net.sizes)[index].reshape(-1)[-1] = np.inf
        fast = Optimizer(net)
        slow = ListAdam([p.copy() for p in layer_views(net.flat, net.sizes)])
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
