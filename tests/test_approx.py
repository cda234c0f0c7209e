"""Gradient and optimizer tests.

Every analytic gradient is checked against central finite differences;
the forward pass is additionally re-derived by an independent loop in
this file so a shared bug in forward+backward cannot hide.
"""

import json

import numpy as np
import pytest

from frl.approx import (
    DecomposedQNet,
    Mlp,
    Optimizer,
    glorot_uniform,
    huber,
    target_update,
)
from frl.errors import ConfigurationError, NumericError, ShapeError, StateError
from oracles import coordinate_sweep_greedy, finite_difference_grads, layer_views


def manual_mlp_forward(net, x):
    """Straight-line reimplementation of the dense forward pass."""
    h = np.atleast_2d(np.asarray(x, dtype=np.float64))
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = h @ w + b
        name = net.out_activation if i == last else net.activation
        h = np.maximum(z, 0.0) if name == "relu" else z
    return h


# -- forward ------------------------------------------------------------------


def test_mlp_forward_matches_manual_reimplementation():
    rng = np.random.default_rng(0)
    net = Mlp((4, 8, 8, 3), rng=rng)
    x = rng.normal(size=(6, 4))
    np.testing.assert_allclose(net.forward(x)[0], manual_mlp_forward(net, x), atol=1e-12)
    # float input must be a 2-D batch of rows, even for one row
    with pytest.raises(ShapeError):
        net.forward(x[0])


def test_glorot_bounds():
    rng = np.random.default_rng(1)
    w = glorot_uniform(rng, 30, 50)
    a = np.sqrt(6.0 / 80.0)
    assert w.shape == (30, 50)
    assert np.abs(w).max() <= a
    assert np.abs(w).max() > 0.8 * a  # actually fills the range


def test_mlp_shape_and_configuration_errors():
    net = Mlp((3, 4, 2), rng=np.random.default_rng(2))
    with pytest.raises(ShapeError):
        net.forward(np.zeros((5, 7)))
    with pytest.raises(ConfigurationError):
        Mlp((3, 2), activation="softplus")
    with pytest.raises(ConfigurationError):
        Mlp((3,))


def test_mlp_parameters_live_in_one_buffer():
    net = Mlp((3, 4, 2), rng=np.random.default_rng(2))
    assert net.flat.size == 3 * 4 + 4 + 4 * 2 + 2
    for p in net.weights + net.biases:
        assert np.shares_memory(p, net.flat)
    net.flat[:] = 0.5
    assert (net.weights[1] == 0.5).all() and (net.biases[0] == 0.5).all()
    x = np.random.default_rng(3).normal(size=(5, 3))
    out, cache = net.forward(x)
    grad, _ = net.backward(np.ones_like(out), cache)
    assert grad.shape == net.flat.shape and not np.shares_memory(grad, net.flat)
    # laid out like flat: the bias gradients are the column sums of the output gradient
    np.testing.assert_array_equal(grad[-2:], [5.0, 5.0])
    clone = net.clone()
    clone.flat[:] = 0.0
    assert (net.flat == 0.5).all()


def test_in_place_glorot_matches_uniform_draws():
    for seed in range(20):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        bound = np.sqrt(6.0 / (7 + 5))
        np.testing.assert_array_equal(glorot_uniform(a, 7, 5), b.uniform(-bound, bound, size=(7, 5)))
        assert a.bit_generator.state == b.bit_generator.state


@pytest.mark.parametrize("sizes", [(6, 5, 3), (6, 8, 8, 2)])
def test_mlp_code_input_matches_one_hot_rows(sizes):
    rng = np.random.default_rng(sum(sizes))
    net = Mlp(sizes, rng=rng)
    twin = net.clone()  # buffers of its own, so a cache of each stays valid
    codes = rng.integers(0, sizes[0], size=12)
    out_c, cache_c = net.forward(codes)
    out_f, cache_f = twin.forward(np.eye(sizes[0])[codes])
    np.testing.assert_array_equal(out_c, out_f)
    g = rng.normal(size=out_c.shape)
    grad_c, grad_f = np.full(net.flat.size, np.nan), np.full(net.flat.size, np.nan)
    assert net.backward(g, cache_c, out=grad_c)[1] is None
    twin.backward(g, cache_f, out=grad_f)
    np.testing.assert_array_equal(grad_c, grad_f)
    assert np.isfinite(grad_c).all() and np.abs(grad_c).max() > 0
    # backward over a subset of the forward rows equals a forward on that subset
    rows = np.array([7, 2, 2, 9])
    sub_grad = net.backward(g[rows], cache_c, rows)[0]
    sub_out, sub_cache = twin.forward(codes[rows])
    np.testing.assert_array_equal(sub_out, out_c[rows])
    np.testing.assert_array_equal(sub_grad, twin.backward(g[rows], sub_cache)[0])


def test_code_input_gradient_is_the_same_for_every_integer_dtype():
    # code * width overflows a narrow dtype: 39 * 16 > 255
    net = Mlp((40, 16, 3), rng=np.random.default_rng(17))
    codes = np.array([39, 0, 39, 21, 7])
    g = np.random.default_rng(18).normal(size=(len(codes), 3))
    want = net.backward(g, net.forward(codes)[1])[0]
    for dtype in (np.uint8, np.int16, np.uint64):
        np.testing.assert_array_equal(net.backward(g, net.forward(codes.astype(dtype))[1])[0], want)


def test_a_cache_is_valid_until_its_network_runs_forward_again():
    rng = np.random.default_rng(21)
    net = Mlp((3, 8, 8, 2), rng=rng)
    x, g = rng.normal(size=(5, 3)), rng.normal(size=(5, 2))
    out, cache = net.forward(x)
    kept = out.copy()
    want = net.backward(g, cache)[0]
    # forwards of a clone or of another network at the same row count
    # use buffers of their own
    net.clone().forward(rng.normal(size=(5, 3)))
    Mlp((3, 8, 8, 2), rng=rng).forward(rng.normal(size=(5, 3)))
    np.testing.assert_array_equal(net.backward(g, cache)[0], want)
    net.forward(rng.normal(size=(5, 3)))
    with pytest.raises(StateError):
        net.backward(g, cache)
    # the output is the caller's: later forwards leave it as it was
    np.testing.assert_array_equal(out, kept)


def test_forwards_at_many_row_counts_keep_one_buffer_per_hidden_layer():
    rng = np.random.default_rng(22)
    net = Mlp((4, 6, 5, 3), rng=rng)
    for n in rng.permutation(np.arange(1, 41)):
        x = rng.normal(size=(n, 4))
        np.testing.assert_array_equal(net.forward(x)[0], manual_mlp_forward(net, x))
        codes = rng.integers(0, 4, size=n)
        np.testing.assert_array_equal(net.forward(codes)[0], manual_mlp_forward(net, np.eye(4)[codes]))
    assert [b.shape for b in net._hidden] == [(40, 6), (40, 5)]


@pytest.mark.parametrize("codes", [True, False])
def test_backward_over_gathered_rows_after_the_buffers_grew(codes):
    rng = np.random.default_rng(23)
    net = Mlp((6, 8, 8, 3), rng=rng)
    fresh = net.clone()
    # grow this network's buffers, and the shared scratch, past what the next calls need
    big = rng.integers(0, 6, size=300)
    out, cache = net.forward(big)
    net.backward(rng.normal(size=out.shape), cache, np.arange(300)[::-1])
    x = rng.integers(0, 6, size=12) if codes else rng.normal(size=(12, 6))
    rows = np.array([7, 2, 2, 9, 11, 0, -1])
    g = rng.normal(size=(len(rows), 3))
    got = net.backward(g, net.forward(x)[1], rows)[0]
    np.testing.assert_array_equal(got, fresh.backward(g, fresh.forward(x)[1], rows)[0])
    # and equals a backward of a forward on those rows alone
    np.testing.assert_array_equal(got, fresh.backward(g, fresh.forward(x[rows])[1])[0])
    for bad in (np.array([12]), np.array([-13]), np.array([0.5]), slice(0, 1)):
        with pytest.raises(ShapeError):
            net.backward(g[:1], net.forward(x)[1], bad)


def test_mlp_rejects_codes_out_of_range():
    net = Mlp((4, 3, 2), rng=np.random.default_rng(0))
    for bad in ([0, 4], [-1, 2], [[0, 1]]):
        with pytest.raises(ShapeError):
            net.forward(np.array(bad))


# -- gradients ------------------------------------------------------------------


def test_mlp_gradients_match_finite_differences():
    rng = np.random.default_rng(3)
    net = Mlp((5, 16, 8, 2), rng=rng)
    x = rng.normal(size=(12, 5))
    t = rng.normal(size=(12, 2))

    def loss_fn():
        return huber(net.forward(x)[0], t)[0]

    out, cache = net.forward(x)
    _, grad_out = huber(out, t)
    grad, _ = net.backward(grad_out, cache)
    fd = finite_difference_grads(loss_fn, [net.flat])[0]
    for g, f in zip(layer_views(grad, net.sizes), layer_views(fd, net.sizes)):
        denom = max(np.abs(f).max(), 1e-8)
        assert np.abs(g - f).max() / denom < 1e-4


def test_mlp_input_gradient_matches_finite_differences():
    rng = np.random.default_rng(4)
    net = Mlp((3, 10, 1), rng=rng)
    x = rng.normal(size=(4, 3))
    t = rng.normal(size=(4, 1))
    out, cache = net.forward(x)
    _, grad_out = huber(out, t)
    _, dx = net.backward(grad_out, cache)

    def loss_fn():
        return huber(net.forward(x)[0], t)[0]

    fd = finite_difference_grads(loss_fn, [x])[0]
    assert np.abs(dx - fd).max() / np.abs(fd).max() < 1e-4


@pytest.mark.parametrize("mixer", ["linear", "relu"])
@pytest.mark.parametrize("shared", [True, False])
def test_decomposed_q_gradients_match_finite_differences(mixer, shared):
    """The mixer's gradient, with the head values as frozen inputs."""
    rng = np.random.default_rng(5)
    net = DecomposedQNet(3, (2, 3), hidden=(8,), mixer=mixer, mixer_hidden=4, shared_trunk=shared, rng=rng)
    states = rng.normal(size=(10, 3))
    actions = np.stack([rng.integers(0, 2, size=10), rng.integers(0, 3, size=10)], axis=1)
    targets = rng.normal(size=10)

    def loss_fn():
        q, _ = net.joint_q(states, actions)
        return huber(q, targets)[0]

    q, cache = net.joint_q(states, actions)
    _, grad_q = huber(q, targets)
    grad = net.backward_mixer(grad_q, cache)
    fd = finite_difference_grads(loss_fn, [net.mixer.flat])[0]
    for g, f in zip(layer_views(grad, net.mixer.sizes), layer_views(fd, net.mixer.sizes)):
        denom = max(np.abs(f).max(), 1e-6)
        assert np.abs(g - f).max() / denom < 1e-4
    with pytest.raises(ShapeError):
        net.backward_mixer(grad_q[:-1], cache)


def test_average_mixer_is_mean_of_selected_entries():
    rng = np.random.default_rng(7)
    net = DecomposedQNet(4, (3, 2), hidden=(5,), mixer="average", rng=rng)
    states = rng.normal(size=(6, 4))
    actions = np.stack([rng.integers(0, 3, size=6), rng.integers(0, 2, size=6)], axis=1)
    q, _ = net.joint_q(states, actions)
    z, _ = net.head_values(states)
    manual = 0.5 * (
        z[np.arange(6), actions[:, 0]] + z[np.arange(6), 3 + actions[:, 1]]
    )
    np.testing.assert_allclose(q, manual, atol=1e-12)
    # greedy for the average mixer is exactly the per-head argmax
    expect = np.stack([z[:, :3].argmax(axis=1), z[:, 3:].argmax(axis=1)], axis=1)
    np.testing.assert_array_equal(net.greedy(states), expect)
    with pytest.raises(ConfigurationError):
        net.backward_mixer(np.ones(6), net.joint_q(states, actions)[1])


def test_greedy_coordinate_sweep_never_hurts():
    rng = np.random.default_rng(8)
    net = DecomposedQNet(3, (3, 4), hidden=(8,), mixer="relu", mixer_hidden=6, rng=rng)
    states = rng.normal(size=(20, 3))
    z, _ = net.head_values(states)
    start = np.stack([s.argmax(axis=1) for s in net.block_slices(z)], axis=1)
    q_start, _ = net.joint_q(states, start)
    greedy = net.greedy(states)
    q_greedy, _ = net.joint_q(states, greedy)
    assert (q_greedy >= q_start - 1e-12).all()
    np.testing.assert_array_equal(greedy, net.greedy(states))  # deterministic


@pytest.mark.parametrize("mixer", ["linear", "relu"])
@pytest.mark.parametrize("shared", [True, False])
@pytest.mark.parametrize("sizes", [(9, 9), (3, 4, 5), (2, 2, 2, 2)])
@pytest.mark.parametrize("flat", [False, True])
def test_greedy_matches_per_candidate_sweep_oracle(mixer, shared, sizes, flat):
    rng = np.random.default_rng(11)
    net = DecomposedQNet(4, sizes, hidden=(16, 16), mixer=mixer, mixer_hidden=8, shared_trunk=shared, rng=rng)
    if flat:
        # as ad_dqn_train initialises it: every candidate scores the same
        net.mixer.weights[-1][:] = 0.0
    for n in (1, 7, 128):
        states = rng.normal(size=(n, 4))
        got = net.greedy(states)
        np.testing.assert_array_equal(got, coordinate_sweep_greedy(net, states))
    z, _ = net.head_values(states)
    per_head = np.stack([s.argmax(axis=1) for s in net.block_slices(z)], axis=1)
    # the flat mixer keeps the per-head argmax; a random one moves some blocks
    assert (got == per_head).all() == flat


def test_joint_q_action_validation():
    net = DecomposedQNet(2, (2, 2), rng=np.random.default_rng(9))
    with pytest.raises(ShapeError):
        net.joint_q(np.zeros((1, 2)), np.array([[0, 0, 0]]))
    with pytest.raises(ShapeError):
        net.joint_q(np.zeros((1, 2)), np.array([[0, 5]]))
    with pytest.raises(ConfigurationError):
        DecomposedQNet(2, (2, 2), mixer="maxpool")


# -- huber ------------------------------------------------------------------


def test_huber_frozen_values():
    loss, grad = huber(np.array([0.5, 3.0]), np.array([0.0, 0.0]), delta=1.0)
    # 0.5*0.25 = 0.125 inside, 1*(3-0.5) = 2.5 outside -> mean 1.3125
    assert abs(loss - 1.3125) < 1e-12
    np.testing.assert_allclose(grad, [0.25, 0.5], atol=1e-12)  # clipped at delta, /n
    with pytest.raises(ShapeError):
        huber(np.zeros(3), np.zeros(4))


# -- optimizers ---------------------------------------------------------------


def _net_holding(values):
    """An Mlp((n - 1, 1)) whose n parameters are `values`."""
    values = np.asarray(values, dtype=np.float64)
    net = Mlp((values.size - 1, 1), rng=np.random.default_rng(0))
    net.flat[:] = values
    return net


def test_adam_first_step_closed_form():
    net = _net_holding([1.0, -1.0, 0.5])
    p0 = net.flat.copy()
    g = np.array([0.3, -0.2, 0.0])
    opt = Optimizer(net, lr=0.01)
    opt.step(g)
    # at t=1 the bias corrections cancel: update = lr * g / (|g| + eps)
    expect = p0 - 0.01 * g / (np.abs(g) + 1e-8)
    np.testing.assert_allclose(net.flat, expect, atol=1e-15)


def test_adam_decoupled_weight_decay_not_in_moments():
    net = _net_holding([10.0, 10.0])
    opt = Optimizer(net, lr=0.1, weight_decay=0.5)
    opt.step(np.zeros(2))
    # zero gradient: pure shrink, no adaptive update (0/(0+eps) = 0)
    np.testing.assert_allclose(net.flat, [10.0 * (1 - 0.1 * 0.5)] * 2, atol=1e-12)
    assert opt.m.shape == opt.v.shape == net.flat.shape
    assert (opt.m == 0.0).all() and (opt.v == 0.0).all()


def test_optimizer_errors():
    net = _net_holding([1.0, 1.0])
    with pytest.raises(ConfigurationError):
        Optimizer(net, lr=0.0)
    opt = Optimizer(net, lr=0.1)
    with pytest.raises(NumericError):
        opt.step(np.array([np.nan, 0.0]))
    with pytest.raises(ShapeError):
        opt.step(np.ones((2, 2)))
    with pytest.raises(ShapeError):
        opt.step(np.ones(3))


def test_optimizer_step_leaves_the_gradient_alone():
    rng = np.random.default_rng(13)
    net = Mlp((3, 5, 2), rng=rng)
    opt = Optimizer(net, lr=0.01, weight_decay=0.1)
    for _ in range(3):
        grad = rng.normal(size=net.flat.size)
        before = grad.tobytes()
        opt.step(grad)
        assert grad.tobytes() == before
    flat = net.flat.copy()
    for size in (net.flat.size - 1, net.flat.size + 1):
        with pytest.raises(ShapeError):
            opt.step(np.zeros(size))
    np.testing.assert_array_equal(net.flat, flat)


def test_target_update_hard_and_polyak():
    src = [np.array([1.0, 2.0])]
    dst = [np.array([0.0, 0.0])]
    target_update(src, dst, tau=0.005)
    np.testing.assert_allclose(dst[0], [0.005, 0.01], atol=1e-15)
    target_update(src, dst)
    np.testing.assert_allclose(dst[0], src[0], atol=1e-15)
    with pytest.raises(ShapeError):
        target_update(src, [])


@pytest.mark.parametrize("mixer", ["average", "linear", "relu"])
@pytest.mark.parametrize("shared", [True, False])
def test_decomposed_q_target_update_runs_per_network(mixer, shared):
    rng = np.random.default_rng(14)
    make = lambda: DecomposedQNet(3, (2, 3), hidden=(6, 5), mixer=mixer, mixer_hidden=4, shared_trunk=shared, rng=rng)
    net, target = make(), make()
    nets = lambda q: q.trunks + ([] if q.mixer is None else [q.mixer])
    assert all(p is m.flat for p, m in zip(target.params(), nets(target), strict=True))
    per_layer = target.clone()
    target_update(net.params(), target.params(), tau=0.05)
    for src, dst in zip(nets(net), nets(per_layer)):
        target_update(layer_views(src.flat, src.sizes), layer_views(dst.flat, dst.sizes), tau=0.05)
    for got, want in zip(target.params(), per_layer.params(), strict=True):
        assert got.tobytes() == want.tobytes()


# -- checkpoints -----------------------------------------------------------------


def test_mlp_checkpoint_round_trip():
    rng = np.random.default_rng(10)
    net = Mlp((3, 7, 2), rng=rng)
    x = rng.normal(size=(4, 3))
    clone = Mlp.from_json(net.to_json())
    np.testing.assert_allclose(clone.forward(x)[0], net.forward(x)[0], atol=1e-15)
    doc = net.to_doc()
    doc["format"] = "something-else"
    with pytest.raises(ConfigurationError):
        Mlp.from_doc(doc)


MLP_V1_DOC = (
    '{"format": "frl-mlp-v1", "sizes": [3, 2, 2], "activation": "relu", "out_activation": "identity", '
    '"weights": [[[0.25, 0.79], [0.55, -0.55], [-0.4, 0.75]], [[0.59, -0.06], [-0.39, -0.44]]], '
    '"biases": [[-0.99, 0.64], [-0.49, -0.11]]}'
)


def test_stored_mlp_checkpoint_still_loads():
    net = Mlp.from_json(MLP_V1_DOC)
    x = np.array([[0.5, -1.0, 2.0], [1.0, 0.0, -0.5]])
    np.testing.assert_allclose(
        net.forward(x)[0], [[-1.69315, -1.4674], [-0.90145, -0.5742]], rtol=1e-12
    )
    assert json.loads(net.to_json()) == json.loads(MLP_V1_DOC)
    doc = json.loads(MLP_V1_DOC)
    doc["biases"][1] = [0.0]
    with pytest.raises(ShapeError):
        Mlp.from_doc(doc)


def test_decomposed_q_checkpoint_round_trip():
    rng = np.random.default_rng(11)
    net = DecomposedQNet(3, (2, 3), hidden=(6,), mixer="linear", mixer_hidden=4, rng=rng)
    states = rng.normal(size=(5, 3))
    actions = np.stack([rng.integers(0, 2, size=5), rng.integers(0, 3, size=5)], axis=1)
    clone = DecomposedQNet.from_json(net.to_json())
    np.testing.assert_allclose(clone.joint_q(states, actions)[0], net.joint_q(states, actions)[0], atol=1e-15)
    np.testing.assert_array_equal(clone.greedy(states), net.greedy(states))
    assert clone.mixer_kind == "linear"


def test_decomposed_q_loader_checks_each_network():
    net = DecomposedQNet(3, (2, 3), hidden=(6,), mixer="linear", mixer_hidden=4, rng=np.random.default_rng(15))
    doc = net.to_doc()
    for field, value in (("block_sizes", [2, 2]), ("hidden", [7]), ("mixer_hidden", 5),
                         ("shared_trunk", False), ("mixer", "average"), ("mixer", "relu")):
        bad = json.loads(json.dumps(doc))
        bad[field] = value
        with pytest.raises(ShapeError):
            DecomposedQNet.from_doc(bad)
    bad = json.loads(json.dumps(doc))
    bad["mixer_net"]["activation"] = "relu"
    with pytest.raises(ShapeError):
        DecomposedQNet.from_doc(bad)


def test_loaders_reject_non_finite_weights():
    net = DecomposedQNet(3, (2, 3), hidden=(6,), rng=np.random.default_rng(16))
    doc = net.to_doc()
    doc["trunks"][0]["weights"][0][1][2] = float("nan")
    text = json.dumps(doc)
    assert "NaN" in text
    with pytest.raises(NumericError):
        DecomposedQNet.from_json(text)
    doc = json.loads(MLP_V1_DOC)
    doc["biases"][0][1] = float("inf")
    with pytest.raises(NumericError):
        Mlp.from_doc(doc)


def test_clone_is_detached():
    net = DecomposedQNet(2, (2,), hidden=(4,), rng=np.random.default_rng(12))
    clone = net.clone()
    for a, b in zip(net.params(), clone.params()):
        np.testing.assert_allclose(a, b, atol=1e-15)
        assert a is not b
    net.params()[0][...] += 1.0
    assert np.abs(net.params()[0] - clone.params()[0]).max() > 0.5
