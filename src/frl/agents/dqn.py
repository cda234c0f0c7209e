"""Online decomposed DQN with optional model-based projected augmentation.

The learner keeps one decomposed Q network (per-block heads plus an
optional mixer).  Each environment step stores the transition in the
global replay buffer (and the matching per-block buffer when the action
was projected), then samples a batch B, a replay `Batch` of arrays
that stays one up to the TD step, and takes one TD step per block:
with augmentation the batch is rewritten by the learned dynamics and
reward models to follow the block's projected transition, otherwise the
heads read the observed (s', r) with the action projected in place.
Parametric mixers take one further TD step on B with the head values
frozen; the average mixer has nothing to train.  The target network's
head values at B's next states are computed once per batch and shared
by every head step on B and by the mixer step, whose greedy target
sweep runs on the mixer alone; only a batch rewritten by augmentation
needs its own target forward.  Dynamics and reward models train once
per episode from recent replay data.

Randomness is split into fixed streams (network init, action selection,
batch indices, model batches, augmentation noise) so metric streams are
bit-identical given (config, seed, env seed).
"""

from __future__ import annotations

import copy
import json
import logging
from dataclasses import asdict, dataclass, field

import numpy as np

from ..approx import MIXERS, DecomposedQNet, Optimizer, huber, target_update
from ..errors import ConfigurationError, NumericError
from .models import DynamicsModel, RewardModel, augment_batch
from .replay import Batch, ReplayBuffers

logger = logging.getLogger(__name__)


@dataclass
class DqnConfig:
    """Hyperparameters for `ad_dqn_train`.

    `episode_len` is the planned steps per episode; the environment's
    own termination still rules, but the exploration anneal and the
    model-training window are sized from episodes * episode_len.
    A `model_free_switch_value` turns augmentation off permanently once
    the evaluation return exceeds it.
    """

    mixer: str = "average"
    shared_trunk: bool = True
    augmentation: bool = False
    hidden: tuple = (512, 512)
    mixer_hidden: int = 64
    lr: float = 1e-4
    model_lr: float = 1e-3
    discount: float = 0.99
    batch_size: int = 128
    target_update_every: int = 100
    target_tau: float | None = None
    epsilon_start: float = 1.0
    epsilon_end: float = 0.1
    anneal_fraction: float = 0.5
    noop_fraction: float = 0.1
    episodes: int = 200
    episode_len: int = 1000
    learning_starts: int = 20
    train_every: int = 1
    buffer_capacity: int = 100_000
    model_window_episodes: int = 200
    model_steps_per_episode: int = 1
    model_batch_size: int = 128
    eval_every: int = 10
    eval_episodes: int = 5
    model_free_switch_value: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.mixer not in MIXERS:
            raise ConfigurationError(f"unknown mixer {self.mixer!r}; expected one of {MIXERS}")
        self.hidden = tuple(int(h) for h in self.hidden)
        for name in (
            "episodes", "episode_len", "batch_size", "train_every", "target_update_every",
            "eval_every", "eval_episodes", "model_steps_per_episode", "model_batch_size",
            "model_window_episodes", "buffer_capacity",
        ):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be positive")
        if self.learning_starts < 0:
            raise ConfigurationError("learning_starts must be non-negative")
        if not 0.0 < self.discount <= 1.0:
            raise ConfigurationError("discount must be in (0, 1]")
        if self.target_tau is not None and not 0.0 < self.target_tau <= 1.0:
            raise ConfigurationError("target_tau must be in (0, 1], or None for hard copies")
        for name in ("epsilon_start", "epsilon_end", "noop_fraction"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1]")
        if not 0.0 < self.anneal_fraction <= 1.0:
            raise ConfigurationError("anneal_fraction must be in (0, 1]")

    def epsilon_at(self, step: int) -> float:
        total = max(1, int(self.episodes * self.episode_len * self.anneal_fraction))
        frac = min(1.0, step / total)
        return self.epsilon_start + (self.epsilon_end - self.epsilon_start) * frac

    def to_doc(self) -> dict:
        return asdict(self)


@dataclass
class SelectionMeta:
    action: tuple[int, ...]
    block_tag: int | None
    explored: bool


def select_action(net: DecomposedQNet, state, epsilon: float, p: float, rng, noop_actions) -> SelectionMeta:
    """Epsilon-greedy with projected-action exploration.

    With probability epsilon the step explores; inside exploration,
    with probability p one uniformly chosen block takes a uniform
    action while every other block stays at its `noop_actions` index
    (the step is tagged with that block), otherwise every block draws
    uniformly.  Greedy steps use the network's coordinate-sweep argmax,
    untagged.
    """
    sizes = net.block_sizes
    if rng.random() < epsilon:
        if rng.random() < p:
            k = int(rng.integers(len(sizes)))
            action = list(noop_actions)
            action[k] = int(rng.integers(sizes[k]))
            return SelectionMeta(tuple(action), k, True)
        return SelectionMeta(tuple(int(rng.integers(b)) for b in sizes), None, True)
    action = net.greedy(np.asarray(state, dtype=np.float64)[None])[0]
    return SelectionMeta(tuple(int(a) for a in action), None, False)


def _head_td_step(net, trunk_opts, batch: Batch, z_next, k, gamma):
    """One Huber TD step on block k's head at the taken block action.

    `z_next` holds the target network's head values at the batch's
    next states.  Only the trunk that outputs block k's values runs
    forward: the shared one, or block k's own.
    """
    states, actions, rewards, _, dones = batch
    sl = slice(int(net.offsets[k]), int(net.offsets[k + 1]))
    targets = rewards + gamma * (1.0 - dones) * z_next[:, sl].max(axis=1)
    j = 0 if net.shared_trunk else k
    trunk, opt = net.trunks[j], trunk_opts[j]
    z, cache = trunk.forward(np.atleast_2d(np.asarray(states, dtype=np.float64)))
    rows = np.arange(len(states))
    cols = actions[:, k] + (sl.start if net.shared_trunk else 0)
    loss, dq = huber(z[rows, cols], targets)
    dz = np.zeros_like(z)
    dz[rows, cols] = dq
    trunk.backward(dz, cache, out=opt.grad)
    opt.step(opt.grad)
    return loss


def _mixer_td_step(net, target_net, mixer_opt, batch: Batch, z_next, gamma):
    """One Huber TD step on the mixer with head outputs frozen.

    The target's greedy sweep and joint value both read `z_next`, the
    target head values at the batch's next states.
    """
    states, actions, rewards, _, dones = batch
    greedy_next = target_net.greedy_of_heads(z_next)
    q_next = target_net.joint_q_of_heads(z_next, greedy_next)
    targets = rewards + gamma * (1.0 - dones) * q_next
    q, cache = net.joint_q(states, actions)
    loss, dq = huber(q, targets)
    mixer_opt.step(net.backward_mixer(dq, cache, out=mixer_opt.grad))
    return loss


def evaluate_policy(net: DecomposedQNet, env, episodes: int) -> float:
    """Mean undiscounted return of the greedy policy."""
    total = 0.0
    for _ in range(episodes):
        state = env.reset()
        done = False
        while not done:
            action = net.greedy(np.asarray(state, dtype=np.float64)[None])[0]
            state, reward, done = env.step(tuple(int(a) for a in action))
            total += reward
    return total / episodes


@dataclass
class DqnResult:
    net: DecomposedQNet
    dynamics: DynamicsModel | None
    reward_model: RewardModel | None
    metrics: list[dict] = field(default_factory=list)
    buffers: ReplayBuffers | None = None


def ad_dqn_train(env, config: DqnConfig, *, eval_env=None, metrics_path=None) -> DqnResult:
    """Train a decomposed Q network online; see the module docstring.

    The environment must expose state_dim, block_sizes, noop_actions,
    reset() and step(action) -> (state, reward, done); augmentation
    additionally needs block_dims for the per-block dynamics models.
    A missing eval_env defaults to a deep copy of `env` taken before
    training, so evaluation never disturbs the training episode stream.
    """
    cfg = config
    n_blocks = len(env.block_sizes)
    noop = tuple(int(a) for a in env.noop_actions)
    net_ss, act_ss, batch_ss, model_ss, aug_ss = np.random.SeedSequence(cfg.seed).spawn(5)
    act_rng = np.random.default_rng(act_ss)
    batch_rng = np.random.default_rng(batch_ss)
    model_rng = np.random.default_rng(model_ss)
    aug_rng = np.random.default_rng(aug_ss)

    net = DecomposedQNet(
        env.state_dim,
        env.block_sizes,
        hidden=cfg.hidden,
        mixer=cfg.mixer,
        mixer_hidden=cfg.mixer_hidden,
        shared_trunk=cfg.shared_trunk,
        rng=np.random.default_rng(net_ss),
    )
    if net.mixer is not None:
        # start the re-mix flat so early greedy actions follow the
        # per-head argmax until the mixer has learned from data
        net.mixer.weights[-1][:] = 0.0
    target_net = net.clone()
    trunk_opts = [Optimizer(t, lr=cfg.lr) for t in net.trunks]
    mixer_opt = None
    if net.mixer is not None:
        mixer_opt = Optimizer(net.mixer, lr=cfg.lr)

    dynamics = reward_model = None
    if cfg.augmentation:
        if not hasattr(env, "block_dims"):
            raise ConfigurationError("augmentation needs the environment to declare block_dims")
        dynamics = DynamicsModel(
            env.state_dim,
            env.block_sizes,
            env.block_dims,
            lr=cfg.model_lr,
            rng=model_rng,
        )
        reward_model = RewardModel(env.state_dim, n_blocks, lr=cfg.model_lr, rng=model_rng)

    if eval_env is None:
        eval_env = copy.deepcopy(env)
    buffers = ReplayBuffers(n_blocks, cfg.buffer_capacity)
    metrics: list[dict] = []
    fh = open(metrics_path, "w") if metrics_path else None
    augmenting = cfg.augmentation
    model_window = cfg.model_window_episodes * cfg.episode_len
    global_step = 0
    try:
        for ep in range(cfg.episodes):
            state = env.reset()
            ep_return = 0.0
            head_losses: list[float] = []
            mixer_losses: list[float] = []
            used_models = False
            done = False
            while not done:
                eps = cfg.epsilon_at(global_step)
                meta = select_action(net, state, eps, cfg.noop_fraction, act_rng, noop)
                next_state, reward, done = env.step(meta.action)
                # episode ends here are time limits, so targets bootstrap
                buffers.add(state, meta.action, reward, next_state, done=False, block_tag=meta.block_tag)
                state = next_state
                ep_return += reward
                global_step += 1
                if ep < cfg.learning_starts or global_step % cfg.train_every != 0:
                    continue
                batch = buffers.global_buffer.sample(batch_rng, cfg.batch_size)
                use_models = augmenting and dynamics.ready() and reward_model.ready()
                used_models = used_models or use_models
                z_next = None
                if mixer_opt is not None or not use_models:
                    # one target forward serves every step that reads the sampled batch
                    z_next, _ = target_net.head_values(batch.next_states)
                for k in range(n_blocks):
                    if use_models:
                        batch_k = augment_batch(batch, k, dynamics, reward_model, noop, aug_rng)
                        z_next_k, _ = target_net.head_values(batch_k.next_states)
                    else:
                        # projected in place: the head only reads actions[:, k],
                        # keeping the observed next state and reward
                        batch_k, z_next_k = batch, z_next
                    head_losses.append(_head_td_step(net, trunk_opts, batch_k, z_next_k, k, cfg.discount))
                if mixer_opt is not None:
                    mixer_losses.append(_mixer_td_step(net, target_net, mixer_opt, batch, z_next, cfg.discount))
                last = head_losses[-n_blocks:] + mixer_losses[-1:]
                if not np.all(np.isfinite(last)):
                    raise NumericError(
                        f"non-finite loss at step {global_step} (episode {ep}): "
                        f"heads={head_losses[-n_blocks:]}, mixer={mixer_losses[-1:]}"
                    )
                if global_step % cfg.target_update_every == 0:
                    target_update(net.params(), target_net.params(), cfg.target_tau)

            line = {
                "episode": ep,
                "step": global_step,
                "epsilon": cfg.epsilon_at(global_step),
                "return": ep_return,
                "head_loss": float(np.mean(head_losses)) if head_losses else None,
                "mixer_loss": float(np.mean(mixer_losses)) if mixer_losses else None,
                "augmented": used_models,
                "buffer": len(buffers),
                "block_buffers": [len(b) for b in buffers.block_buffers],
            }
            if augmenting:
                reward_losses, dyn_losses = [], []
                for _ in range(cfg.model_steps_per_episode):
                    mb = buffers.global_buffer.sample_recent(model_rng, cfg.model_batch_size, model_window)
                    reward_losses.append(reward_model.train_step(mb.states, mb.actions, mb.next_states, mb.rewards))
                for k in range(n_blocks):
                    if len(buffers.block_buffers[k]) == 0:
                        logger.warning("episode %d: block %d has no projected samples; dynamics skipped", ep, k)
                        line.setdefault("warnings", []).append(f"empty block buffer {k}")
                        continue
                    for _ in range(cfg.model_steps_per_episode):
                        mb = buffers.block_buffers[k].sample_recent(model_rng, cfg.model_batch_size, model_window)
                        dyn_losses.append(dynamics.train_step(k, mb.states, mb.actions[:, k], mb.next_states))
                line["reward_model_loss"] = float(np.mean(reward_losses))
                line["dynamics_loss"] = float(np.mean(dyn_losses)) if dyn_losses else None
            if (ep + 1) % cfg.eval_every == 0:
                eval_return = evaluate_policy(net, eval_env, cfg.eval_episodes)
                line["eval_return"] = eval_return
                if (
                    augmenting
                    and cfg.model_free_switch_value is not None
                    and eval_return > cfg.model_free_switch_value
                ):
                    augmenting = False
                    line["model_free_switch"] = True
            metrics.append(line)
            if fh:
                fh.write(json.dumps(line) + "\n")
    finally:
        if fh:
            fh.close()
    return DqnResult(net=net, dynamics=dynamics, reward_model=reward_model, metrics=metrics, buffers=buffers)
