"""Replay, model-augmentation, and learner tests.

The augmentation distribution is checked against the exact projected
transition; the single-block online learner is checked step for step
against an independently written flat DQN driven by the same random
streams; the batch-constrained learner's action filter is checked for
monotonicity and for refusing actions the dataset never shows.
"""

import copy
import json

import numpy as np
import pytest

import frl.agents.bcq as bcq_module
import frl.agents.dqn as dqn_module
from frl.agents import (
    Batch,
    BcqConfig,
    BcqNet,
    DqnConfig,
    DynamicsModel,
    ReplayBuffers,
    RewardModel,
    RingBuffer,
    TabularModelSampler,
    ad_bcq_train,
    ad_dqn_train,
    augment_batch,
    checkpoint_candidates,
    episodes_to_transitions,
    extract_policy,
    filtered_argmax,
    log_softmax,
    offline_preset,
    online_preset,
    select_action,
)
from frl.approx import DecomposedQNet, Mlp, Optimizer, huber, target_update
from frl.envs import PointMassEnv, generate_offline_dataset, treatment_spec, two_switch_spec
from frl.envs.point_mass import FlattenedEnv
from frl.errors import ConfigurationError, DataError, ShapeError, StateError
from frl.factored_mdp import projected_transition
from oracles import ListAdam, ListRing, bcq_tick_reference, layer_views


def _row(i, n_blocks=2):
    """Transition i with values that tell it apart from every other."""
    return (np.array([i, -i, 0.5 * i]), tuple((i + j) % 5 for j in range(n_blocks)),
            float(i), np.array([i + 1, -i, 0.25 * i]), i % 3 == 0)


# -- replay buffers -----------------------------------------------------------


def test_tagged_transitions_land_in_both_buffers():
    buffers = ReplayBuffers(n_blocks=2, capacity=10)
    buffers.add(*_row(0))
    buffers.add(*_row(1), block_tag=1)
    buffers.add(*_row(2), block_tag=0)
    assert len(buffers) == 3
    assert [len(b) for b in buffers.block_buffers] == [1, 1]
    # each tagged row sits in D and in its own D_k
    for k, i in ((0, 2), (1, 1)):
        mine = buffers.block_buffers[k].recent(1)
        want = buffers.global_buffer.recent(3).take([i])
        for got_a, want_a in zip(mine, want):
            np.testing.assert_array_equal(got_a, want_a)


def test_buffers_reject_bad_tags_and_actions():
    buffers = ReplayBuffers(n_blocks=2, capacity=10)
    with pytest.raises(ShapeError):
        buffers.add(*_row(0), block_tag=2)
    with pytest.raises(ShapeError):
        buffers.add(*_row(0, n_blocks=3))
    assert len(buffers) == 0
    with pytest.raises(DataError):
        buffers.global_buffer.sample(np.random.default_rng(0), 4)
    with pytest.raises(ConfigurationError):
        RingBuffer(0)


def test_ring_eviction_and_recent_window():
    buf = RingBuffer(4)
    for i in range(7):
        buf.append(*_row(i))
    assert len(buf) == 4
    # survivors are the last four, and recent() returns them oldest-first
    assert buf.recent(4).rewards.tolist() == [3, 4, 5, 6]
    assert buf.recent(2).rewards.tolist() == [5, 6]
    picked = buf.sample_recent(np.random.default_rng(0), 50, window=2)
    assert isinstance(picked, Batch) and picked.states.shape == (50, 3)
    assert set(picked.rewards.tolist()) <= {5, 6}
    with pytest.raises(DataError):
        buf.recent(0)


@pytest.mark.parametrize("capacity", range(1, 8))
def test_ring_returns_the_rows_of_the_list_oracle(capacity):
    """Same rows as a plain list ring for the same seeds, through the
    fill, the wraparound and windows larger than the fill."""
    ring, oracle = RingBuffer(capacity), ListRing(capacity)

    def check(got, want):
        assert len(got.rewards) == len(want)
        for field, column in zip(Batch._fields, zip(*want)):
            np.testing.assert_array_equal(getattr(got, field), np.array(column, dtype=getattr(got, field).dtype))

    for i in range(3 * capacity + 1):
        if i:
            for window in range(1, len(oracle.rows) + 3):
                check(ring.recent(window), oracle.recent(window))
                check(ring.sample_recent(np.random.default_rng(i * 31 + window), 9, window),
                      oracle.sample_recent(np.random.default_rng(i * 31 + window), 9, window))
            check(ring.sample(np.random.default_rng(i), 9), oracle.sample(np.random.default_rng(i), 9))
        ring.append(*_row(i))
        oracle.append(_row(i))


# -- action selection ---------------------------------------------------------


def _net(block_sizes=(3, 4), mixer="average", seed=0):
    return DecomposedQNet(4, block_sizes, hidden=(8,), mixer=mixer,
                          rng=np.random.default_rng(seed))


def test_projected_exploration_always_tags_and_is_uniform_over_blocks():
    net = _net()
    rng = np.random.default_rng(42)
    counts = np.zeros(2)
    state = np.zeros(4)
    for _ in range(10_000):
        meta = select_action(net, state, epsilon=1.0, p=1.0, rng=rng, noop_actions=(1, 2))
        assert meta.block_tag is not None and meta.explored
        # untouched blocks sit at their no-op index
        other = 1 - meta.block_tag
        assert meta.action[other] == (1, 2)[other]
        counts[meta.block_tag] += 1
    sigma = np.sqrt(10_000 * 0.5 * 0.5)
    assert abs(counts[0] - 5_000) <= 3 * sigma


def test_full_random_exploration_never_tags():
    net = _net()
    rng = np.random.default_rng(7)
    for _ in range(500):
        meta = select_action(net, np.zeros(4), epsilon=1.0, p=0.0, rng=rng)
        assert meta.block_tag is None and meta.explored


def test_greedy_selection_is_per_head_argmax_for_average_mixer():
    net = _net(mixer="average", seed=3)
    rng = np.random.default_rng(1)
    state = rng.normal(size=4)
    meta = select_action(net, state, epsilon=0.0, p=0.5, rng=rng)
    z, _ = net.head_values(state[None])
    expected = tuple(int(s.argmax()) for s in net.block_slices(z))
    assert meta.action == expected and not meta.explored and meta.block_tag is None


# -- learned models and augmentation ------------------------------------------


def test_untrained_models_raise_state_errors():
    dyn = DynamicsModel(4, (3, 3), ((0, 2), (1, 3)), rng=np.random.default_rng(0))
    with pytest.raises(StateError):
        dyn.predict_dims(0, np.zeros((1, 4)), [0], np.random.default_rng(0))
    rew = RewardModel(4, 2, rng=np.random.default_rng(0))
    with pytest.raises(StateError):
        rew.predict(np.zeros((1, 4)), np.zeros((1, 2)), np.zeros((1, 4)))


def test_zero_delta_dynamics_reproduce_the_state():
    dyn = DynamicsModel(4, (3, 3), ((0, 2), (1, 3)), noise_variance=0.0,
                        rng=np.random.default_rng(0))
    for net in dyn.nets:
        net.flat[:] = 0.0
    dyn.train_steps = [1, 1]
    states = np.random.default_rng(1).normal(size=(6, 4))
    out = dyn.sample_projected_next(states, 0, np.array([1] * 6), (1, 1),
                                    np.random.default_rng(2))
    np.testing.assert_array_equal(out, states)


def test_dynamics_model_fits_point_mass_physics():
    # interior transitions are affine in (state, one-hot force), so the
    # all-linear delta network should drive the error to numerical noise
    env = PointMassEnv(bins=3, episode_len=50, seed=0)
    rng = np.random.default_rng(5)
    states = np.column_stack([
        rng.uniform(-0.2, 0.2, size=512), rng.uniform(-0.2, 0.2, size=512),
        rng.uniform(-0.5, 0.5, size=512), rng.uniform(-0.5, 0.5, size=512),
    ])
    actions = rng.integers(0, 3, size=512)
    from frl.envs.point_mass import point_mass_step
    next_states = np.stack([
        point_mass_step(s, (a, 1), 3)[0] for s, a in zip(states, actions)
    ])
    dyn = DynamicsModel(4, (3, 3), ((0, 2), (1, 3)), lr=5e-3, noise_variance=0.0,
                        rng=np.random.default_rng(0))
    loss = None
    for _ in range(1500):
        loss = dyn.train_step(0, states, actions, next_states)
    assert loss < 1e-8
    pred = dyn.predict_dims(0, states[:16], actions[:16], np.random.default_rng(0))
    np.testing.assert_allclose(pred, next_states[:16][:, [0, 2]], atol=1e-3)


def test_augmentation_matches_projected_transition_distribution():
    spec = two_switch_spec(reward="weighted")
    sampler = TabularModelSampler(spec, noop_actions=(0, 0), mode="projected")
    s, n = 2, 10_000
    base = Batch(np.full(n, s), np.tile([1, 1], (n, 1)), np.zeros(n), np.zeros(n, dtype=np.int64), np.zeros(n))
    rng = np.random.default_rng(11)
    out = augment_batch(base, 0, sampler, sampler, (0, 0), rng)
    assert out.next_states.shape == base.next_states.shape
    np.testing.assert_array_equal(out.states, base.states)
    # forced block kept, other padded to no-op
    assert out.actions.dtype == np.int64 and (out.actions == [1, 0]).all()
    codes = out.next_states
    counts = np.bincount(codes, minlength=spec.n_states)
    tv = 0.5 * np.abs(counts / n - projected_transition(spec, 0, s, 1)).sum()
    assert tv <= 0.02
    # rewards come from the model's table at the synthesized successor
    np.testing.assert_array_equal(out.rewards, spec.reward[s, codes])


def test_sampler_takes_state_codes_only():
    spec = two_switch_spec()
    sampler = TabularModelSampler(spec)
    rng = np.random.default_rng(0)
    for bad in (np.eye(spec.n_states)[[0, 1]], np.array([0, spec.n_states]), np.array([-1])):
        with pytest.raises(ShapeError):
            sampler.sample_projected_next(bad, 0, np.array([1] * len(bad)), rng=rng)
    np.testing.assert_array_equal(
        sampler.terminal_of(np.arange(spec.n_states)),
        [s in spec.terminal_states for s in range(spec.n_states)],
    )


def test_padded_sampler_refreshes_terminal_flags():
    spec = treatment_spec()
    sampler = TabularModelSampler(spec, noop_actions=(0, 0))
    # a state one severity step from the healthy terminal
    source = next(s for s in range(spec.n_states)
                  if spec.state_radix.decode(s)[0] == 1
                  and s not in spec.terminal_states)
    n = 400
    rows = Batch(np.full(n, source), np.zeros((n, 2), dtype=np.int64), np.zeros(n),
                 np.full(n, source), np.zeros(n))
    out = augment_batch(rows, 0, sampler, sampler, (0, 0), np.random.default_rng(3))
    flags = [code in spec.terminal_states for code in out.next_states]
    assert any(flags) and not all(flags)
    # done mirrors terminal entry
    assert out.dones.dtype == np.float64 and out.dones.tolist() == [float(f) for f in flags]


# -- online learner -----------------------------------------------------------


def _small_cfg(**kw):
    base = dict(hidden=(12,), batch_size=8, episodes=4, episode_len=15,
                learning_starts=1, eval_every=2, eval_episodes=1,
                target_update_every=10, seed=5)
    base.update(kw)
    return DqnConfig(**base)


def _flat_dqn_reference(env, cfg):
    """Independent single-head DQN sharing the learner's random streams."""
    net_ss, act_ss, batch_ss, _, _ = np.random.SeedSequence(cfg.seed).spawn(5)
    act_rng = np.random.default_rng(act_ss)
    batch_rng = np.random.default_rng(batch_ss)
    n_actions = env.block_sizes[0]
    qnet = Mlp((env.state_dim, *cfg.hidden, n_actions), rng=np.random.default_rng(net_ss))
    tnet = Mlp((env.state_dim, *cfg.hidden, n_actions), rng=np.random.default_rng(123))
    target_update([qnet.flat], [tnet.flat])
    opt = Optimizer(qnet, lr=cfg.lr)
    buf: list[tuple] = []
    step = 0
    for ep in range(cfg.episodes):
        s = env.reset()
        done = False
        while not done:
            eps = cfg.epsilon_at(step)
            if act_rng.random() < eps:
                if act_rng.random() < cfg.noop_fraction:
                    act_rng.integers(1)  # block choice (always 0)
                    a = int(act_rng.integers(n_actions))
                else:
                    a = int(act_rng.integers(n_actions))
            else:
                a = int(qnet.forward(np.asarray(s)[None])[0].argmax())
            s2, r, done = env.step((a,))
            buf.append((s, a, r, s2))
            s = s2
            step += 1
            if ep < cfg.learning_starts or step % cfg.train_every:
                continue
            idx = batch_rng.integers(0, len(buf), size=cfg.batch_size)
            states = np.stack([buf[i][0] for i in idx])
            actions = np.array([buf[i][1] for i in idx])
            rewards = np.array([buf[i][2] for i in idx])
            nexts = np.stack([buf[i][3] for i in idx])
            targets = rewards + cfg.discount * (1.0 - 0.0) * tnet.forward(nexts)[0].max(axis=1)
            z, cache = qnet.forward(states)
            rows = np.arange(len(idx))
            _, dq = huber(z[rows, actions], targets)
            dz = np.zeros_like(z)
            dz[rows, actions] = dq
            grad, _ = qnet.backward(dz, cache)
            opt.step(grad)
            if step % cfg.target_update_every == 0:
                target_update([qnet.flat], [tnet.flat], cfg.target_tau)
    return qnet


def test_single_block_learner_is_bit_identical_to_flat_dqn():
    cfg = _small_cfg()
    env = FlattenedEnv(PointMassEnv(bins=3, episode_len=15, seed=9))
    res = ad_dqn_train(env, cfg)
    ref = _flat_dqn_reference(FlattenedEnv(PointMassEnv(bins=3, episode_len=15, seed=9)), cfg)
    assert res.net.trunks[0].sizes == ref.sizes
    np.testing.assert_array_equal(res.net.trunks[0].flat, ref.flat)


def test_metrics_stream_is_bit_identical_across_runs():
    def run():
        env = PointMassEnv(bins=3, episode_len=15, seed=2)
        cfg = _small_cfg(mixer="linear", mixer_hidden=6, augmentation=True,
                         model_steps_per_episode=1, model_batch_size=8)
        return ad_dqn_train(env, cfg).metrics
    a, b = run(), run()
    assert json.dumps(a) == json.dumps(b)


def _record_head_values(monkeypatch):
    """Keep a copy of the states passed to every DecomposedQNet.head_values."""
    calls = []
    original = DecomposedQNet.head_values

    def recorded(self, states):
        calls.append(np.array(states, dtype=np.float64, ndmin=2))
        return original(self, states)

    monkeypatch.setattr(DecomposedQNet, "head_values", recorded)
    return calls


@pytest.mark.parametrize("mixer", ["average", "linear", "relu"])
def test_greedy_runs_the_trunk_once(monkeypatch, mixer):
    calls = _record_head_values(monkeypatch)
    _net(block_sizes=(3, 4, 5), mixer=mixer).greedy(np.zeros((6, 4)))
    assert len(calls) == 1


@pytest.mark.parametrize("augmentation", [False, True])
def test_training_step_trunk_forwards(monkeypatch, augmentation):
    """Target head values are shared by the head and mixer steps of a batch;
    only a batch rewritten by augmentation gets its own target forward."""
    calls = _record_head_values(monkeypatch)
    steps, augmented = [], []
    mixer_step, augment = dqn_module._mixer_td_step, dqn_module.augment_batch

    def counted_mixer_step(*args):
        steps.append(1)
        return mixer_step(*args)

    def recorded_augment(*args):
        out = augment(*args)
        augmented.append(out.next_states)
        return out

    monkeypatch.setattr(dqn_module, "_mixer_td_step", counted_mixer_step)
    monkeypatch.setattr(dqn_module, "augment_batch", recorded_augment)
    cfg = _small_cfg(mixer="linear", mixer_hidden=6, augmentation=augmentation,
                     model_steps_per_episode=1, model_batch_size=8)
    ad_dqn_train(PointMassEnv(bins=3, episode_len=15, seed=2), cfg)
    batch_sized = [c for c in calls if len(c) == cfg.batch_size]
    assert steps and bool(augmented) == augmentation
    # two-block env: one shared target forward, one online forward per
    # head step and one for the mixer step
    assert len(batch_sized) == 4 * len(steps) + len(augmented)
    for next_states in augmented:
        assert any(np.array_equal(next_states, c) for c in batch_sized)


def test_augmentation_requires_block_dims():
    env = copy.deepcopy(PointMassEnv(bins=3, episode_len=5, seed=0))
    del env.block_dims
    with pytest.raises(ConfigurationError):
        ad_dqn_train(env, _small_cfg(augmentation=True))


@pytest.mark.parametrize(
    "field, value",
    [
        ("eval_every", 0),
        ("eval_episodes", 0),
        ("target_tau", 1.5),
        ("model_steps_per_episode", 0),
        ("model_batch_size", 0),
        ("discount", 1.5),
        ("discount", 0.0),
        ("learning_starts", -1),
        ("model_window_episodes", 0),
        ("model_window_episodes", -1),
        ("buffer_capacity", 0),
    ],
)
def test_config_rejects_settings_that_break_training(field, value):
    with pytest.raises(ConfigurationError):
        _small_cfg(**{field: value})


def test_presets_cover_the_configuration_grid():
    decqn = online_preset("DECQN")
    assert (decqn.mixer, decqn.shared_trunk, decqn.augmentation) == ("average", True, False)
    four = online_preset("AD-DQN-4", model_free_switch_value=12.0)
    assert four.mixer == "linear" and four.augmentation and four.model_free_switch_value == 12.0
    assert not online_preset("AD-DQN-3n").shared_trunk
    with pytest.raises(ConfigurationError):
        online_preset("AD-DQN-9z")
    assert offline_preset("BCQ").variant == "flat"
    assert offline_preset("AD-BCQ", tau_bcq=0.3).augmentation


# -- offline learner ----------------------------------------------------------


def test_filter_monotone_and_vacuous_at_zero():
    rng = np.random.default_rng(0)
    q = rng.normal(size=(40, 6))
    logp = log_softmax(rng.normal(size=(40, 6)))
    assert filtered_argmax(q, logp, 0.0)[0].tolist() == q.argmax(axis=1).tolist()
    probs = np.exp(logp)
    ratio = probs / probs.max(axis=1, keepdims=True)
    taus = [0.0, 0.05, 0.3, 0.7, 0.9999]
    for lo, hi in zip(taus, taus[1:]):
        assert ((ratio >= hi) <= (ratio >= lo)).all()  # candidate sets shrink
    # at the top of the grid only near-modal actions survive
    choice, fallbacks = filtered_argmax(q, logp, 0.9999)
    assert fallbacks == 0
    assert (ratio[np.arange(40), choice] >= 0.9999).all()


def _offline_setup(episodes=80, seed=0):
    spec = treatment_spec()
    behavior = np.full((spec.n_states, spec.n_actions), 1.0 / spec.n_actions)
    logs = generate_offline_dataset(spec, behavior, episodes=episodes, seed=seed)
    return spec, logs


def test_episode_expansion_marks_terminals_and_splits_actions():
    spec, logs = _offline_setup(episodes=30)
    data, samples = episodes_to_transitions(logs, spec, flat=False)
    assert len(data.rewards) == len(samples) == sum(len(ep) for ep in logs)
    for i, sample in enumerate(samples):
        assert (data.states[i], data.next_states[i]) == (sample.state, sample.next_state)
        assert tuple(data.actions[i]) == spec.action_as_blocks(sample.action)
        assert data.rewards[i] == sample.reward and sample.block_tag is None
        assert data.dones[i] == (sample.next_state in spec.terminal_states)
    assert data.dones.any()  # some episodes do terminate
    flat, _ = episodes_to_transitions(logs, spec, flat=True)
    np.testing.assert_array_equal(flat.actions, [[s.action] for s in samples])


def test_bcq_rejects_a_dataset_without_transitions():
    spec = treatment_spec()
    with pytest.raises(ConfigurationError):
        ad_bcq_train([], BcqConfig(train_steps=5), spec)


@pytest.mark.parametrize(
    "field, value",
    [("discount", 0.0), ("discount", 1.5), ("polyak", 0.0), ("polyak", 1.5), ("lr", 0.0), ("lr", -1e-3)],
)
def test_bcq_config_rejects_settings_that_break_training(field, value):
    with pytest.raises(ConfigurationError):
        BcqConfig(**{field: value})


def test_bcq_never_selects_an_unsupported_action():
    spec, logs = _offline_setup(episodes=20, seed=3)
    # strike one joint action from the dataset entirely
    banned = 7
    kept = []
    for ep in logs:
        keep = ep.actions != banned
        if not keep.all():
            first_bad = int(np.flatnonzero(~keep)[0])
            if first_bad == 0:
                continue
            kept.append(type(ep)(ep.states[:first_bad], ep.actions[:first_bad],
                                  ep.rewards[:first_bad], ep.propensities[:first_bad],
                                  final_state=int(ep.states[first_bad])))
        else:
            kept.append(ep)
    assert kept and all((ep.actions != banned).all() for ep in kept)
    cfg = BcqConfig(variant="flat", tau_bcq=0.3, hidden=48, batch_size=32,
                    train_steps=400, checkpoint_every=400, seed=1)
    res = ad_bcq_train(kept, cfg, spec)
    policy = np.asarray(res.checkpoints[-1]["policy"])
    seen_states = sorted({int(s) for ep in kept for s in ep.states})
    assert (policy[seen_states] != banned).all()


def test_bcq_runs_are_deterministic_given_seed():
    spec, logs = _offline_setup(episodes=25, seed=5)
    cfg = BcqConfig(variant="decomposed", tau_bcq=0.1, hidden=24, batch_size=16,
                    train_steps=60, checkpoint_every=30, seed=9)
    a = ad_bcq_train(logs, cfg, spec)
    b = ad_bcq_train(logs, cfg, spec)
    assert a.checkpoints == b.checkpoints
    assert json.dumps(a.metrics) == json.dumps(b.metrics)


BCQ_V1_DOC = {
    "format": "frl-bcq-v1", "state_dim": 3, "block_sizes": [2, 1], "variant": "decomposed", "hidden": 2,
    "nets": {
        "q_embed": {"format": "frl-mlp-v1", "sizes": [3, 2, 2], "activation": "relu", "out_activation": "identity",
                    "weights": [[[0.01, 0.11], [0.99, 0.59], [0.24, 0.98]], [[0.23, -0.91], [-0.93, 0.03]]],
                    "biases": [[-0.57, -0.68], [-0.07, 0.83]]},
        "q_heads": [
            {"format": "frl-mlp-v1", "sizes": [2, 2, 2, 2], "activation": "relu", "out_activation": "identity",
             "weights": [[[0.26, 0.03], [-0.01, -0.5]], [[0.38, -0.6], [-0.26, -0.99]], [[-0.46, 0.76], [0.02, 0.69]]],
             "biases": [[-0.98, -0.62], [0.66, -0.69], [0.28, 0.48]]},
            {"format": "frl-mlp-v1", "sizes": [2, 2, 2, 1], "activation": "relu", "out_activation": "identity",
             "weights": [[[-0.82, 0.08], [0.02, 0.74]], [[-0.88, -0.22], [-0.35, -0.7]], [[0.96], [0.18]]],
             "biases": [[-0.28, 0.2], [0.63, -0.24], [0.21]]},
        ],
        "q_mixer": {"format": "frl-mlp-v1", "sizes": [3, 2, 2, 3], "activation": "relu", "out_activation": "identity",
                    "weights": [[[0.28, 0.35], [-0.7, -0.12], [-0.52, -0.2]], [[-0.57, 0.34], [-0.4, 0.75]],
                                [[0.69, 0.89, 0.81], [0.14, -0.71, -0.62]]],
                    "biases": [[-0.81, 0.94], [0.32, -0.74], [0.86, 0.1, -0.64]]},
        "g_embed": {"format": "frl-mlp-v1", "sizes": [3, 2, 2], "activation": "relu", "out_activation": "identity",
                    "weights": [[[0.77, 0.28], [0.14, -0.25], [-0.18, -0.52]], [[-0.06, 0.1], [-0.36, 0.5]]],
                    "biases": [[-0.92, 0.75], [-0.95, -0.26]]},
        "g_heads": [
            {"format": "frl-mlp-v1", "sizes": [2, 2, 2, 2], "activation": "relu", "out_activation": "identity",
             "weights": [[[-0.94, -0.75], [0.93, 0.32]], [[0.75, -0.31], [0.18, 0.37]], [[0.53, 0.82], [-0.7, 0.87]]],
             "biases": [[-0.14, 0.05], [-0.29, 0.04], [-0.99, 0.51]]},
            {"format": "frl-mlp-v1", "sizes": [2, 2, 2, 1], "activation": "relu", "out_activation": "identity",
             "weights": [[[0.62, -0.73], [-0.16, 0.63]], [[0.59, 0.03], [0.45, -0.55]], [[-0.64], [-0.31]]],
             "biases": [[-0.97, 0.26], [-0.6, -0.27], [0.9]]},
        ],
        "g_mixer": {"format": "frl-mlp-v1", "sizes": [3, 2, 2, 3], "activation": "relu", "out_activation": "identity",
                    "weights": [[[0.15, -0.32], [-0.46, 0.9], [-0.11, 0.96]], [[0.79, 0.49], [0.16, -0.15]],
                                [[0.85, -0.86, -0.14], [0.04, 0.9, -0.5]]],
                    "biases": [[0.03, 0.04], [0.76, -0.18], [0.61, 0.35, 0.43]]},
    },
}


def test_stored_bcq_checkpoint_still_loads():
    net = BcqNet.from_doc(copy.deepcopy(BCQ_V1_DOC))
    states = np.arange(3)
    q, _ = net.mix_forward(states, "q")
    g, _ = net.mix_forward(states, "g")
    np.testing.assert_allclose(q, [[0.88613004608, 0.13370397248, -0.60932559808],
                                   [0.8912323808, 0.1402852448, -0.6033359008],
                                   [0.8853498024704, 0.1326975713024, -0.6102415362304]], rtol=1e-12)
    np.testing.assert_allclose(g, [[1.55883476039024, -0.609997522277184, 0.273721333582784],
                                   [1.5394427864416, -0.59037740745856, 0.27691530576256],
                                   [1.52857734204016, -0.579384134299456, 0.278704908369856]], rtol=1e-12)
    assert net.to_doc() == BCQ_V1_DOC
    codes, _ = extract_policy(net, states, tau=0.0)
    assert codes.tolist() == [0, 0, 0]


def test_bcq_loader_checks_each_network():
    for field, value in (("block_sizes", [1, 2]), ("block_sizes", [2]), ("state_dim", 4), ("hidden", 3)):
        doc = copy.deepcopy(BCQ_V1_DOC)
        doc[field] = value
        with pytest.raises(ShapeError):
            BcqNet.from_doc(doc)
    doc = copy.deepcopy(BCQ_V1_DOC)
    doc["nets"]["g_mixer"]["out_activation"] = "relu"
    with pytest.raises(ShapeError):
        BcqNet.from_doc(doc)
    flat = BcqNet(3, (2,), "flat", hidden=4, rng=np.random.default_rng(0)).to_doc()
    flat["variant"] = "factored"
    BcqNet.from_doc(flat)  # same networks: a flat net is a one-block factored net
    flat["block_sizes"] = [2, 1]
    with pytest.raises(ShapeError):
        BcqNet.from_doc(flat)


@pytest.mark.parametrize("variant", ["flat", "factored", "decomposed"])
def test_bcq_net_keeps_its_networks_in_one_table(variant):
    net = BcqNet(4, (2, 3), variant, hidden=8, rng=np.random.default_rng(3))
    if variant == "decomposed":
        names = ["q_embed", "q_heads", "q_mixer", "g_embed", "g_heads", "g_mixer"]
    else:
        names = ["q_net", "g_net"]
    opts = net.optimizers(lr=0.1)
    assert list(net.nets) == list(opts) == names
    flatten = lambda table: [x for v in table.values() for x in (v if isinstance(v, list) else [v])]
    params = [m.flat for m in flatten(net.nets)]
    assert len(net.params()) == len(flatten(opts)) == len(params)
    assert all(a is b is o.flat for a, b, o in zip(net.params(), params, flatten(opts)))
    clone = net.clone()
    for got, want in zip(clone.params(), net.params()):
        assert got.tobytes() == want.tobytes() and not np.shares_memory(got, want)


@pytest.mark.parametrize("variant", ["flat", "factored", "decomposed"])
def test_bcq_net_takes_only_a_vector_of_state_codes(variant):
    net = BcqNet(4, (2, 3), variant, hidden=8, rng=np.random.default_rng(7))
    codes = np.array([0, 3, 3, 1])
    q, _ = net.heads_forward(codes, "q")
    assert q.shape == (4, 5)
    for bad in (np.eye(4)[codes], codes.astype(float), codes[None, :], np.array([0, -1]), np.array([4])):
        with pytest.raises(ShapeError):
            net.heads_forward(bad, "q")
        with pytest.raises(ShapeError):
            net.mix_forward(bad, "g")
        with pytest.raises(ShapeError):
            extract_policy(net, bad, tau=0.1)


def test_decomposed_bcq_step_runs_each_network_once_per_version(monkeypatch):
    """Per step with two blocks: q, g and target q on embedding + head k for
    each block (12), q, g and target q heads for the mixers (9), and the
    two online mixers plus the target q mixer (3)."""
    spec, logs = _offline_setup(episodes=20, seed=1)
    forwards, heads, in_step = [], [], [False]
    mlp_forward, heads_forward = Mlp.forward, BcqNet.heads_forward

    def counted_forward(self, x):
        if in_step[0]:
            forwards.append(np.array(x))
        return mlp_forward(self, x)

    def counted_heads(self, *args, **kwargs):
        if in_step[0]:
            heads.append(1)
        return heads_forward(self, *args, **kwargs)

    def in_a_step(fn):
        def run(*args):
            in_step[0] = True
            try:
                return fn(*args)
            finally:
                in_step[0] = False
        return run

    monkeypatch.setattr(Mlp, "forward", counted_forward)
    monkeypatch.setattr(BcqNet, "heads_forward", counted_heads)
    monkeypatch.setattr(bcq_module, "_train_block", in_a_step(bcq_module._train_block))
    monkeypatch.setattr(bcq_module, "_train_mixers", in_a_step(bcq_module._train_mixers))
    cfg = BcqConfig(variant="decomposed", hidden=16, batch_size=16, train_steps=5, checkpoint_every=5, seed=2)
    ad_bcq_train(logs, cfg, spec)
    assert len(forwards) == 24 * cfg.train_steps
    assert len(heads) == 9 * cfg.train_steps
    # embeddings read each distinct state code once
    codes = [x for x in forwards if x.dtype.kind == "i"]
    assert codes and all(len(np.unique(x)) == len(x) for x in codes)


def _list_adams(net, **kwargs):
    """A per-layer `ListAdam` for each network, keyed like `net.nets`."""
    one = lambda m: ListAdam(layer_views(m.flat, m.sizes), **kwargs)
    return {name: [one(m) for m in v] if isinstance(v, list) else one(v) for name, v in net.nets.items()}


def test_decomposed_bcq_steps_match_the_per_path_reference():
    spec, logs = _offline_setup(episodes=20, seed=4)
    data, _ = episodes_to_transitions(logs, spec, flat=False)
    cfg = BcqConfig(variant="decomposed", tau_bcq=0.3, hidden=16, discount=0.9)
    net = BcqNet(spec.n_states, spec.block_sizes, "decomposed", hidden=16, rng=np.random.default_rng(6))
    target = net.clone()
    for p in target.params():
        p += 0.01  # keep online and target apart
    ref, ref_target = net.clone(), target.clone()
    opts, ref_opts = net.optimizers(lr=0.05), _list_adams(ref, lr=0.05)
    rng = np.random.default_rng(7)
    counters = {"fallbacks": 0, "mixer_fallbacks": 0}
    for _ in range(3):
        batch = data.take(rng.integers(0, len(data.rewards), size=12))
        for k in range(net.n_blocks):
            bcq_module._train_block(net, target, opts, batch, k, cfg, counters)
        bcq_module._train_mixers(net, target, opts, batch, cfg, counters)
        bcq_tick_reference(ref, ref_target, ref_opts, batch, cfg.tau_bcq, cfg.discount)
    for got, want in zip(net.params(), ref.params()):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)


def test_flat_variant_rejects_augmentation():
    spec, logs = _offline_setup(episodes=10)
    with pytest.raises(ConfigurationError):
        ad_bcq_train(logs, BcqConfig(variant="flat", augmentation=True, train_steps=5), spec)


def test_checkpoint_candidates_feed_model_selection():
    spec, logs = _offline_setup(episodes=40, seed=2)
    cfg = BcqConfig(variant="factored", tau_bcq=0.0, hidden=24, batch_size=16,
                    train_steps=40, checkpoint_every=20, seed=0)
    res = ad_bcq_train(logs, cfg, spec)
    cands = checkpoint_candidates(res.checkpoints, logs, spec.n_actions)
    assert [cid for cid, _ in cands] == [(0.0, 20), (0.0, 40)]
    for _, ope in cands:
        assert np.isfinite(ope.wis) and 0 < ope.ess <= len(logs)


def test_extreme_threshold_clones_the_behavior_mode():
    # tau at the top of the grid restricts candidates to near-modal
    # propensity, so at well-visited states the extracted policy must
    # reproduce the behavior policy's most likely action
    spec = treatment_spec()
    behavior = np.full((spec.n_states, spec.n_actions), 0.3 / (spec.n_actions - 1))
    modes = np.arange(spec.n_states) % spec.n_actions
    behavior[np.arange(spec.n_states), modes] = 0.7
    logs = generate_offline_dataset(spec, behavior, episodes=80, seed=8)
    cfg = BcqConfig(variant="flat", tau_bcq=0.9999, hidden=48, batch_size=32,
                    train_steps=600, checkpoint_every=600, seed=4)
    res = ad_bcq_train(logs, cfg, spec)
    policy = np.asarray(res.checkpoints[-1]["policy"])
    visits = np.bincount(
        np.concatenate([ep.states for ep in logs]), minlength=spec.n_states
    )
    well_seen = np.flatnonzero(visits >= 6)
    assert len(well_seen) >= 10
    assert (policy[well_seen] == modes[well_seen]).mean() > 0.8
