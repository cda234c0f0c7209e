"""Replay, model-augmentation, and learner tests.

The augmentation distribution is checked against the exact transition
with block k forced and the other blocks at their no-op actions; the
single-block online learner is checked step for step against an
independently written flat DQN driven by the same random streams; the
batch-constrained learner's action filter is checked for monotonicity
and for refusing actions the dataset never shows.
"""

import copy
import dataclasses
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
    ad_bcq_train,
    ad_dqn_train,
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
from frl.errors import ConfigurationError, DataError, DomainError, ShapeError, StateError
from frl.factored_mdp import sample_successors
from frl.tabular import learn_model
from oracles import ListAdam, ListRing, bcq_tick_reference, layer_views, transition_rows


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
        meta = select_action(net, np.zeros(4), epsilon=1.0, p=0.0, rng=rng, noop_actions=(0, 0))
        assert meta.block_tag is None and meta.explored


def test_greedy_selection_is_per_head_argmax_for_average_mixer():
    net = _net(mixer="average", seed=3)
    rng = np.random.default_rng(1)
    state = rng.normal(size=4)
    meta = select_action(net, state, epsilon=0.0, p=0.5, rng=rng, noop_actions=(0, 0))
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


def test_projected_batch_matches_projected_transition_distribution():
    spec = two_switch_spec(reward="weighted")
    s, n = 2, 10_000
    base = Batch(np.full(n, s), np.tile([1, 1], (n, 1)), np.zeros(n), np.zeros(n, dtype=np.int64), np.zeros(n))
    out = bcq_module._projected_batch(spec, base, 0, np.random.default_rng(11))
    assert out.next_states.shape == base.next_states.shape
    np.testing.assert_array_equal(out.states, base.states)
    # forced block kept, other padded to no-op
    assert out.actions.dtype == np.int64 and (out.actions == [1, 0]).all()
    codes = out.next_states
    counts = np.bincount(codes, minlength=spec.n_states)
    # padded: block 1 intervenes with its no-op action, so only the noise bit is drawn
    tv = 0.5 * np.abs(counts / n - transition_rows(spec, [s], (1, 0))[0]).sum()
    assert tv <= 0.02
    # rewards come from the model's table at the synthesized successor
    np.testing.assert_array_equal(out.rewards, spec.reward[s, codes])


def test_projected_batch_draws_from_the_spec_it_is_handed():
    """Next states, rewards and done flags all come from the handed model,
    a fit to a small log that differs from the spec the log came from."""
    spec, logs = _offline_setup(episodes=20, seed=6)
    data = episodes_to_transitions(logs, spec)
    model, imputed = learn_model(spec, data.states, data.actions, data.rewards, data.next_states).to_spec()
    assert imputed and not np.array_equal(model.reward, spec.reward)
    batch = data
    for k in range(spec.n_blocks):
        out = bcq_module._projected_batch(model, batch, k, np.random.default_rng(k))
        blocks = np.zeros_like(batch.actions)
        blocks[:, k] = batch.actions[:, k]
        np.testing.assert_array_equal(out.actions, blocks)
        # the same draws, in the same generator order, as one query of the model
        np.testing.assert_array_equal(
            out.next_states, sample_successors(model, batch.states, blocks, np.random.default_rng(k)))
        np.testing.assert_array_equal(out.rewards, model.reward[batch.states, out.next_states])
        np.testing.assert_array_equal(out.dones, [float(s in model.terminal_states) for s in out.next_states])
    bad = batch._replace(states=np.full(len(batch.rewards), spec.n_states))
    with pytest.raises(DomainError):
        bcq_module._projected_batch(model, bad, 0, np.random.default_rng(0))


def test_decomposed_bcq_augments_from_the_spec_it_is_handed(monkeypatch):
    spec, logs = _offline_setup(episodes=20, seed=1)
    handed, projected = [], bcq_module._projected_batch

    def recorded(model, *args):
        handed.append(model)
        return projected(model, *args)

    monkeypatch.setattr(bcq_module, "_projected_batch", recorded)
    cfg = BcqConfig(variant="decomposed", hidden=8, batch_size=8, train_steps=3, checkpoint_every=3)
    ad_bcq_train(episodes_to_transitions(logs, spec), cfg, spec)
    assert len(handed) == cfg.train_steps * spec.n_blocks and all(m is spec for m in handed)
    for variant in ("flat", "factored"):
        ad_bcq_train(episodes_to_transitions(logs, spec), dataclasses.replace(cfg, variant=variant), spec)
    assert len(handed) == cfg.train_steps * spec.n_blocks


def test_projected_batch_refreshes_terminal_flags():
    spec = treatment_spec()
    # a state one severity step from the healthy terminal
    source = next(s for s in range(spec.n_states)
                  if spec.state_radix.decode(s)[0] == 1
                  and s not in spec.terminal_states)
    n = 400
    rows = Batch(np.full(n, source), np.zeros((n, 2), dtype=np.int64), np.zeros(n),
                 np.full(n, source), np.zeros(n))
    out = bcq_module._projected_batch(spec, rows, 0, np.random.default_rng(3))
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
    # one shared target forward and one online forward for the mixer
    # step; the head steps run their trunk without head_values
    assert len(batch_sized) == 2 * len(steps) + len(augmented)
    for next_states in augmented:
        assert any(np.array_equal(next_states, c) for c in batch_sized)


@pytest.mark.parametrize("preset", ["AD-DQN-2n", "AD-DQN-3n"])
def test_head_step_runs_one_trunk_forward(monkeypatch, preset):
    """A head step forwards the trunk that outputs its block's values, the
    shared one or the block's own, and no other network."""
    forwards, per_step = [], []
    mlp_forward, head_step = Mlp.forward, dqn_module._head_td_step

    def counted_forward(self, x):
        forwards.append(self)
        return mlp_forward(self, x)

    def counted_head_step(net, trunk_opts, batch, z_next, k, gamma):
        forwards.clear()
        loss = head_step(net, trunk_opts, batch, z_next, k, gamma)
        per_step.append(forwards == [net.trunks[0 if net.shared_trunk else k]])
        return loss

    monkeypatch.setattr(Mlp, "forward", counted_forward)
    monkeypatch.setattr(dqn_module, "_head_td_step", counted_head_step)
    cfg = online_preset(preset, hidden=(12,), mixer_hidden=6, batch_size=8, episodes=3, episode_len=15,
                        learning_starts=1, eval_every=2, eval_episodes=1, seed=5)
    ad_dqn_train(PointMassEnv(bins=3, episode_len=15, seed=2), cfg)
    assert per_step and all(per_step)


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
    assert offline_preset("AD-BCQ", tau_bcq=0.3).variant == "decomposed"


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
    data = episodes_to_transitions(logs, spec)
    assert all(ep.final_state is not None for ep in logs)
    assert len(data.rewards) == sum(len(ep) for ep in logs)
    i = 0
    for ep in logs:
        nexts = list(ep.states[1:]) + [ep.final_state]
        for t in range(len(ep)):
            assert (data.states[i], data.next_states[i]) == (ep.states[t], nexts[t])
            assert tuple(data.actions[i]) == spec.action_as_blocks(ep.actions[t])
            assert data.rewards[i] == ep.rewards[t]
            assert data.dones[i] == (nexts[t] in spec.terminal_states)
            i += 1
    assert data.dones.any()  # some episodes do terminate
    # the flat variant's one-block codes are the logged joint codes
    joint_codes = np.concatenate([ep.actions for ep in logs])
    np.testing.assert_array_equal(spec.action_radix.encode_many(data.actions), joint_codes)


def test_episode_expansion_drops_unlogged_successors_and_bad_codes():
    spec, logs = _offline_setup(episodes=5)
    cut = [dataclasses.replace(ep, final_state=None) for ep in logs]
    data = episodes_to_transitions(cut, spec)
    assert len(data.rewards) == sum(len(ep) - 1 for ep in logs)
    np.testing.assert_array_equal(data.next_states[: len(logs[0]) - 1], logs[0].states[1:])
    bad = dataclasses.replace(logs[0], actions=np.full(len(logs[0]), spec.n_actions))
    with pytest.raises(DomainError):
        episodes_to_transitions([bad], spec)
    for bad in (dataclasses.replace(logs[0], final_state=spec.n_states),
                dataclasses.replace(logs[0], states=np.full(len(logs[0]), spec.n_states))):
        with pytest.raises(DomainError, match=rf"state codes out of range \[0, {spec.n_states}\)"):
            episodes_to_transitions([logs[1], bad], spec)


def test_bcq_rejects_a_dataset_without_transitions():
    spec = treatment_spec()
    with pytest.raises(ConfigurationError):
        ad_bcq_train(episodes_to_transitions([], spec), BcqConfig(train_steps=5), spec)


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
    res = ad_bcq_train(episodes_to_transitions(kept, spec), cfg, spec)
    policy = np.asarray(res.checkpoints[-1]["policy"])
    seen_states = sorted({int(s) for ep in kept for s in ep.states})
    assert (policy[seen_states] != banned).all()


def test_bcq_runs_are_deterministic_given_seed():
    spec, logs = _offline_setup(episodes=25, seed=5)
    cfg = BcqConfig(variant="decomposed", tau_bcq=0.1, hidden=24, batch_size=16,
                    train_steps=60, checkpoint_every=30, seed=9)
    data = episodes_to_transitions(logs, spec)
    a = ad_bcq_train(data, cfg, spec)
    b = ad_bcq_train(data, cfg, spec)
    assert a.checkpoints == b.checkpoints
    assert json.dumps(a.metrics) == json.dumps(b.metrics)


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
    """Per step with two blocks: q and g on embedding + head k for each
    block (8), q and g embeddings and heads for the mixers (6) and the two
    online mixers (2); the target q path once per tick on its embedding,
    both heads and its mixer (4).  Backward runs on head k and the
    embedding per block and path (8) and on the two mixers (2), each
    over distinct rows.  The distinct codes are found 8 times: once per
    block step and once for the mixers over the stacked rows, with the
    rows the backward passes read, and twice for the target."""
    spec, logs = _offline_setup(episodes=20, seed=1)
    forwards, backwards, heads, uniques, in_step = [], [], [], [], [False]
    mlp_forward, mlp_backward, heads_forward = Mlp.forward, Mlp.backward, BcqNet.heads_forward
    np_unique = np.unique

    def counted_unique(*args, **kwargs):
        if in_step[0]:
            uniques.append(1)
        return np_unique(*args, **kwargs)

    def counted_forward(self, x):
        if in_step[0]:
            forwards.append(np.array(x))
        return mlp_forward(self, x)

    def counted_backward(self, grad_out, cache, rows=None, out=None):
        if in_step[0]:
            inputs = cache["post"][0]
            backwards.append(inputs[np.arange(len(inputs)) if rows is None else rows])
        return mlp_backward(self, grad_out, cache, rows, out)

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
    monkeypatch.setattr(Mlp, "backward", counted_backward)
    monkeypatch.setattr(BcqNet, "heads_forward", counted_heads)
    monkeypatch.setattr(np, "unique", counted_unique)
    monkeypatch.setattr(bcq_module, "_train_block", in_a_step(bcq_module._train_block))
    monkeypatch.setattr(bcq_module, "_train_mixers", in_a_step(bcq_module._train_mixers))
    monkeypatch.setattr(bcq_module, "_target_q", in_a_step(bcq_module._target_q))
    cfg = BcqConfig(variant="decomposed", hidden=16, batch_size=16, train_steps=5, checkpoint_every=5, seed=2)
    ad_bcq_train(episodes_to_transitions(logs, spec), cfg, spec)
    assert len(forwards) == 20 * cfg.train_steps
    assert len(heads) == 7 * cfg.train_steps
    assert len(uniques) == 8 * cfg.train_steps
    # embeddings read each distinct state code once
    codes = [x for x in forwards if x.dtype.kind == "i"]
    assert codes and all(len(np.unique(x)) == len(x) for x in codes)
    # and every backward reads distinct inputs: codes, or rows of distinct embeddings or head outputs
    assert len(backwards) == 10 * cfg.train_steps
    assert all(len(np.unique(x, axis=0)) == len(x) for x in backwards)
    assert sum(x.dtype.kind == "i" for x in backwards) == 4 * cfg.train_steps


def _list_adams(net, **kwargs):
    """A per-layer `ListAdam` for each network, keyed like `net.nets`."""
    one = lambda m: ListAdam(layer_views(m.flat, m.sizes), **kwargs)
    return {name: [one(m) for m in v] if isinstance(v, list) else one(v) for name, v in net.nets.items()}


def _assert_ticks_match_the_reference(net, batches, cfg, lr):
    """Run one tick per batch (one step per block, then the mixers) and
    require the parameters `bcq_tick_reference` reaches from the same start."""
    target = net.clone()
    for p in target.params():
        p += 0.01  # keep online and target apart
    ref, ref_target = net.clone(), target.clone()
    opts, ref_opts = net.optimizers(lr=lr), _list_adams(ref, lr=lr)
    counters = {"fallbacks": 0, "mixer_fallbacks": 0}
    for batch in batches:
        q_next_t, qm_next_t = bcq_module._target_q(target, [batch] * net.n_blocks, batch)
        for k in range(net.n_blocks):
            bcq_module._train_block(net, q_next_t[k], opts, batch, k, cfg, counters)
        if net.variant == "decomposed":
            bcq_module._train_mixers(net, qm_next_t, opts, batch, cfg, counters)
        bcq_tick_reference(ref, ref_target, ref_opts, batch, cfg.tau_bcq, cfg.discount)
    for got, want in zip(net.params(), ref.params(), strict=True):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)


def test_decomposed_bcq_steps_match_the_per_path_reference():
    spec, logs = _offline_setup(episodes=20, seed=4)
    data = episodes_to_transitions(logs, spec)
    cfg = BcqConfig(variant="decomposed", tau_bcq=0.3, hidden=16, discount=0.9)
    net = BcqNet(spec.n_states, spec.block_sizes, "decomposed", hidden=16, rng=np.random.default_rng(6))
    rng = np.random.default_rng(7)
    batches = [data.take(rng.integers(0, len(data.rewards), size=12)) for _ in range(3)]
    _assert_ticks_match_the_reference(net, batches, cfg, lr=0.05)


@pytest.mark.parametrize("variant", ["flat", "factored", "decomposed"])
def test_bcq_steps_on_a_duplicate_heavy_batch_match_the_per_row_reference(variant):
    # 48 rows over 5 distinct state codes: backward sums each code's rows first
    spec = treatment_spec()
    block_sizes = (spec.n_actions,) if variant == "flat" else spec.block_sizes
    rng = np.random.default_rng(11)
    codes = rng.choice(spec.n_states, size=5, replace=False)
    n = 48
    batch = Batch(
        states=rng.choice(codes, size=n),
        actions=np.stack([rng.integers(b, size=n) for b in block_sizes], axis=1),
        rewards=rng.normal(size=n),
        next_states=rng.choice(codes, size=n),
        dones=(rng.random(n) < 0.2).astype(np.float64),
    )
    cfg = BcqConfig(variant=variant, tau_bcq=0.3, hidden=16, discount=0.9)
    net = BcqNet(spec.n_states, block_sizes, variant, hidden=16, rng=np.random.default_rng(12))
    # at the config's learning rate: Adam divides by the gradient's scale, so a
    # large rate carries the reordered sums' last bits into the parameters
    _assert_ticks_match_the_reference(net, [batch] * 3, cfg, lr=cfg.lr)


@pytest.mark.parametrize("variant", ["flat", "factored", "decomposed"])
def test_one_target_forward_per_tick_equals_one_per_step(variant):
    spec, logs = _offline_setup(episodes=20, seed=3)
    data = episodes_to_transitions(logs, spec)
    net = BcqNet(spec.n_states, (spec.n_actions,) if variant == "flat" else spec.block_sizes, variant,
                 hidden=16, rng=np.random.default_rng(8))
    rng = np.random.default_rng(9)
    batch = data.take(rng.integers(0, len(data.rewards), size=12))
    # block batches that left their own next states, as augmentation makes them
    moved = [batch._replace(next_states=rng.integers(0, spec.n_states, size=12)) for _ in range(net.n_blocks)]
    for block_batches in ([batch] * net.n_blocks, moved):
        q_next_t, qm_next_t = bcq_module._target_q(net, block_batches, batch)
        for got, b in zip(q_next_t, block_batches, strict=True):
            np.testing.assert_allclose(got, net.heads_forward(b.next_states, "q")[0], rtol=0, atol=1e-12)
        if variant == "decomposed":
            np.testing.assert_allclose(qm_next_t, net.mix_forward(batch.next_states, "q")[0], rtol=0, atol=1e-12)
        else:
            assert qm_next_t is None


def test_checkpoint_candidates_feed_model_selection():
    spec, logs = _offline_setup(episodes=40, seed=2)
    cfg = BcqConfig(variant="factored", tau_bcq=0.0, hidden=24, batch_size=16,
                    train_steps=40, checkpoint_every=20, seed=0)
    res = ad_bcq_train(episodes_to_transitions(logs, spec), cfg, spec)
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
    res = ad_bcq_train(episodes_to_transitions(logs, spec), cfg, spec)
    policy = np.asarray(res.checkpoints[-1]["policy"])
    visits = np.bincount(
        np.concatenate([ep.states for ep in logs]), minlength=spec.n_states
    )
    well_seen = np.flatnonzero(visits >= 6)
    assert len(well_seen) >= 10
    assert (policy[well_seen] == modes[well_seen]).mean() > 0.8
