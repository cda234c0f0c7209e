"""Offline batch-constrained Q-learning over factored actions.

Three network shapes share one training loop:

* flat — one Q net and one generative net over the joint action space;
* factored — the same two nets, outputting every block's action values
  concatenated, with each block trained as an independent slice;
* decomposed — per-path state embeddings feeding per-block heads, plus
  vector mixers that read the concatenated (frozen) head outputs and
  emit re-mixed per-block vectors used for evaluation.

`BcqNet` keeps every network in one ordered table, `nets`, so its
parameters, clones, optimizers and checkpoint docs are one pass over it
whatever the shape.  The logged dataset is one replay `Batch` of state
codes, and the codes go into the networks as they are (an `Mlp` reads a
code as its one-hot row).  Each training tick samples rows from it,
takes one step per block (decomposed runs the batch through the learned
tabular model first so it follows that block's projected transition),
then one step on the mixers, then a Polyak target update.  Within a step
each network runs forward once per parameter version: the online q and
g paths once over the stacked [next_states; states] rows, the target q
path once over next_states; the decomposed embeddings and heads see each
distinct code once, and block k's step runs only head k.  Head and mixer
steps score each block's columns with one shared loss (`_block_loss`).
Targets are batch constrained: next-action candidates keep only actions
whose generative propensity is within `tau_bcq` of the state's best
before the argmax, which is taken on the online net and evaluated on the
target net.  A state whose candidate set comes up empty falls back to
the unfiltered argmax and bumps a counter.  The generative net takes the
logged action's negative log-likelihood.
"""

from __future__ import annotations

import copy
import json
import logging
from dataclasses import asdict, dataclass, field

import numpy as np

from ..approx import Mlp, Optimizer, huber, load_matching, target_update
from ..errors import ConfigurationError, NumericError, ShapeError
from ..factored_mdp import FactoredMdpSpec
from ..indexing import MixedRadix
from ..ope import soften, wis_ess
from ..tabular import ModelSample, learn_model
from .models import TabularModelSampler, augment_batch
from .replay import Batch

logger = logging.getLogger(__name__)

VARIANTS = ("flat", "factored", "decomposed")
_BCQ_FORMAT = "frl-bcq-v1"


@dataclass
class BcqConfig:
    """Hyperparameters for `ad_bcq_train`.

    `tau_bcq` constrains both the training targets and the extracted
    greedy policy, so each trained run is tied to its threshold.
    `augmentation=None` resolves to True for the decomposed variant and
    False otherwise.
    """

    variant: str = "decomposed"
    tau_bcq: float = 0.1
    hidden: int = 128
    lr: float = 3e-4
    weight_decay: float = 1e-3
    discount: float = 0.99
    polyak: float = 0.005
    batch_size: int = 128
    train_steps: int = 2000
    checkpoint_every: int = 500
    augmentation: bool | None = None
    seed: int = 0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigurationError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")
        if not 0.0 <= self.tau_bcq <= 1.0:
            raise ConfigurationError(f"tau_bcq must be in [0, 1], got {self.tau_bcq}")
        for name in ("train_steps", "batch_size", "checkpoint_every", "hidden"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be positive")
        for name in ("discount", "polyak"):
            if not 0.0 < getattr(self, name) <= 1.0:
                raise ConfigurationError(f"{name} must be in (0, 1], got {getattr(self, name)}")
        if self.lr <= 0:
            raise ConfigurationError(f"lr must be positive, got {self.lr}")
        if self.augmentation is None:
            self.augmentation = self.variant == "decomposed"

    def to_doc(self) -> dict:
        return asdict(self)

    @classmethod
    def from_doc(cls, doc: dict) -> "BcqConfig":
        return cls(**doc)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


def filtered_argmax(q: np.ndarray, logp: np.ndarray, tau: float):
    """Row-wise argmax of q over actions within tau of the best propensity.

    Returns (choices, fallback_count); a row with an empty candidate
    set (possible only through degenerate propensities) is scored
    unfiltered.
    """
    probs = np.exp(logp)
    allowed = probs / probs.max(axis=1, keepdims=True) >= tau
    fallback = ~allowed.any(axis=1)
    allowed[fallback] = True
    return np.where(allowed, q, -np.inf).argmax(axis=1), int(fallback.sum())


class BcqNet:
    """Q and generative networks in one of the three shapes above.

    `nets` is the one table of networks, keyed by name in parameter
    order: `q_embed`, `q_heads` (a list, one per block), `q_mixer`, then
    the same three for `g`; or `q_net` and `g_net` for the monolithic
    shapes.  Parameters, clones, optimizers and checkpoint docs are all
    one pass over it.
    """

    def __init__(self, state_dim: int, block_sizes, variant: str = "decomposed", hidden: int = 128, rng=None):
        if variant not in VARIANTS:
            raise ConfigurationError(f"unknown variant {variant!r}")
        self.state_dim = int(state_dim)
        self.block_sizes = tuple(int(b) for b in block_sizes)
        self.variant = variant
        self.hidden = int(hidden)
        self.head_dim = sum(self.block_sizes)
        self.offsets = np.concatenate([[0], np.cumsum(self.block_sizes)])
        rng = rng or np.random.default_rng()
        h = self.hidden
        self.nets: dict[str, Mlp | list[Mlp]] = {}
        for p in ("q", "g"):
            if variant == "decomposed":
                self.nets[f"{p}_embed"] = Mlp((self.state_dim, h, h), rng=rng)
                self.nets[f"{p}_heads"] = [Mlp((h, h, h, b), rng=rng) for b in self.block_sizes]
                self.nets[f"{p}_mixer"] = Mlp((self.head_dim, h, h, self.head_dim), rng=rng)
            else:
                self.nets[f"{p}_net"] = Mlp((self.state_dim, h, h, self.head_dim), rng=rng)

    @property
    def n_blocks(self) -> int:
        return len(self.block_sizes)

    def block_slice(self, k: int) -> slice:
        return slice(int(self.offsets[k]), int(self.offsets[k + 1]))

    def _map(self, fn) -> dict:
        """`fn` applied to every network, in a table shaped like `nets`."""
        return {name: [fn(m) for m in v] if isinstance(v, list) else fn(v) for name, v in self.nets.items()}

    def params(self) -> list[np.ndarray]:
        """One flat parameter buffer per network, in table order."""
        return [m.flat for v in self.nets.values() for m in (v if isinstance(v, list) else [v])]

    def clone(self) -> "BcqNet":
        other = copy.copy(self)
        other.nets = self._map(Mlp.clone)
        return other

    def optimizers(self, **kwargs) -> dict:
        """One `Optimizer(net, **kwargs)` per network, keyed like `nets`."""
        return self._map(lambda m: Optimizer(m, **kwargs))

    # -- forward paths ----------------------------------------------------

    def heads_forward(self, states: np.ndarray, path: str, k: int | None = None):
        """Per-block outputs at state codes for one path ('q'|'g').

        `states` must be an integer vector of codes (ShapeError
        otherwise).  Returns the (n, head_dim) outputs, or block k's
        (n, b_k) columns when k is given, and a cache for
        heads_backward_step.  The decomposed shape runs its embedding
        and heads (head k only when k is given) once per distinct code
        and gathers the rows back; a monolithic net runs on the rows as
        given, because its wide outputs come out of BLAS bit-identical
        only when the row count is kept.
        """
        states = np.asarray(states)
        if states.dtype.kind not in "iu" or states.ndim != 1:
            raise ShapeError(f"expected a vector of state codes, got {states.dtype} of shape {states.shape}")
        if self.variant != "decomposed":
            out, cache = self.nets[f"{path}_net"].forward(states)
            return (out if k is None else out[:, self.block_slice(k)]), {"net": cache}
        heads = self.nets[f"{path}_heads"]
        codes, index = np.unique(states, return_inverse=True)
        e, e_cache = self.nets[f"{path}_embed"].forward(codes)
        ks = range(self.n_blocks) if k is None else (k,)
        outs, caches = zip(*(heads[j].forward(e) for j in ks))
        out = np.concatenate(outs, axis=1) if k is None else outs[0]
        return out[index], {"embed": e_cache, "heads": dict(zip(ks, caches)), "index": index}

    def heads_backward_step(self, dz: np.ndarray, cache, opts, path: str, k: int, rows) -> None:
        """Backprop block k's output gradient and apply the optimizers.

        `dz` is d(loss)/d(block k's columns) at the forward rows `rows`;
        backward reads only those rows' activations.  `opts` is a table
        from `optimizers`.  For the decomposed shape only block k's head
        (plus the shared embedding) is touched; monolithic shapes update
        the whole net.
        """
        if self.variant != "decomposed":
            full = np.zeros((len(dz), self.head_dim))
            full[:, self.block_slice(k)] = dz
            grad, _ = self.nets[f"{path}_net"].backward(full, cache["net"], rows)
            opts[f"{path}_net"].step(grad)
            return
        index = cache["index"][rows]
        head_grad, d_embed = self.nets[f"{path}_heads"][k].backward(dz, cache["heads"][k], index)
        embed_grad, _ = self.nets[f"{path}_embed"].backward(d_embed, cache["embed"], index)
        opts[f"{path}_heads"][k].step(head_grad)
        opts[f"{path}_embed"].step(embed_grad)

    def mix_forward(self, states: np.ndarray, path: str):
        """Evaluation-path outputs: mixed vectors for decomposed, head
        outputs otherwise.  Returns (values, mixer cache or None); the
        mixer runs on the rows as given."""
        z, _ = self.heads_forward(states, path)
        if self.variant != "decomposed":
            return z, None
        return self.nets[f"{path}_mixer"].forward(z)

    def mix_backward_step(self, dz: np.ndarray, cache, opts, path: str, rows) -> None:
        """Backprop a mixed-output gradient at the forward rows `rows`."""
        grad, _ = self.nets[f"{path}_mixer"].backward(dz, cache, rows)
        opts[f"{path}_mixer"].step(grad)

    # -- serialization ------------------------------------------------------

    def to_doc(self) -> dict:
        return {
            "format": _BCQ_FORMAT,
            "state_dim": self.state_dim,
            "block_sizes": list(self.block_sizes),
            "variant": self.variant,
            "hidden": self.hidden,
            "nets": self._map(Mlp.to_doc),
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "BcqNet":
        if doc.get("format") != _BCQ_FORMAT:
            raise ConfigurationError(f"unexpected checkpoint format {doc.get('format')!r}")
        net = cls(doc["state_dim"], doc["block_sizes"], doc["variant"], doc["hidden"], rng=np.random.default_rng(0))
        for name, built in net.nets.items():
            if isinstance(built, list):
                net.nets[name] = load_matching(doc["nets"][name], built)
            else:
                net.nets[name] = load_matching([doc["nets"][name]], [built])[0]
        return net


# -- dataset plumbing ---------------------------------------------------------


def episodes_to_transitions(episodes, spec: FactoredMdpSpec, flat: bool):
    """Expand logged episodes into a replay batch plus model-teaching samples.

    The batch holds state codes in `states` and `next_states` (they go
    into the networks as they are) and one action row per step:
    per-block indices, or the whole joint code as a single block when
    `flat`; `dones` marks entry into one of the spec's terminal states.
    Episodes truncated by the logging horizon lose their final
    transition unless the log recorded the successor in `final_state`.
    """
    terminal = spec.terminal_states
    samples: list[ModelSample] = []
    dropped = 0
    for ep in episodes:
        states = [int(s) for s in ep.states]
        nexts = states[1:] + [None if getattr(ep, "final_state", None) is None else int(ep.final_state)]
        for t, (s, s2) in enumerate(zip(states, nexts)):
            if s2 is None:
                dropped += 1
                continue
            samples.append(ModelSample(state=s, action=int(ep.actions[t]), reward=float(ep.rewards[t]), next_state=s2))
    if dropped:
        logger.warning("dropped %d episode-final transitions with unlogged successors", dropped)
    codes = np.array([m.action for m in samples], dtype=np.int64)
    data = Batch(
        states=np.array([m.state for m in samples], dtype=np.int64),
        actions=codes[:, None] if flat else spec.action_radix.table()[codes],
        rewards=np.array([m.reward for m in samples], dtype=np.float64),
        next_states=np.array([m.next_state for m in samples], dtype=np.int64),
        dones=np.array([m.next_state in terminal for m in samples], dtype=np.float64),
    )
    return data, samples


# -- training -----------------------------------------------------------------


def _block_loss(q_next, logits_next, q_next_t, q, logits, batch: Batch, k, cfg):
    """BCQ loss of block k's columns, shared by the head and mixer steps.

    `q_next` and `logits_next` are the online q values and generative
    logits at next_states, `q_next_t` the target q values there, and `q`
    and `logits` the online outputs at states, each (n, b_k).  The q
    target is the filtered argmax of the online net evaluated on the
    target net; q takes a Huber loss on the logged action's column and g
    its negative log-likelihood.  Returns (loss_q, d loss_q / d q,
    loss_g, d loss_g / d logits, fallback count).
    """
    rows = np.arange(len(q))
    a_k = batch.actions[:, k]
    a_star, n_fallback = filtered_argmax(q_next, log_softmax(logits_next), cfg.tau_bcq)
    targets = batch.rewards + cfg.discount * (1.0 - batch.dones) * q_next_t[rows, a_star]
    loss_q, dq = huber(q[rows, a_k], targets)
    dz_q = np.zeros_like(q)
    dz_q[rows, a_k] = dq

    logp = log_softmax(logits)
    loss_g = -float(np.mean(logp[rows, a_k]))
    dlogits = np.exp(logp)
    dlogits[rows, a_k] -= 1.0
    return loss_q, dz_q, loss_g, dlogits / len(q), n_fallback


def _train_block(net, target_net, opts, batch: Batch, k, cfg, counters):
    n = len(batch.rewards)
    # One forward per network over [next_states; states]: the q step
    # below leaves the g path's parameters as they were.
    both = np.concatenate([batch.next_states, batch.states])
    own = slice(n, 2 * n)  # the rows of `states`; a slice keeps backward's reads views
    q, q_cache = net.heads_forward(both, "q", k)
    g, g_cache = net.heads_forward(both, "g", k)
    q_next_t, _ = target_net.heads_forward(batch.next_states, "q", k)
    loss_q, dz_q, loss_g, dz_g, n_fallback = _block_loss(q[:n], g[:n], q_next_t, q[own], g[own], batch, k, cfg)
    counters["fallbacks"] += n_fallback
    net.heads_backward_step(dz_q, q_cache, opts, "q", k, own)
    net.heads_backward_step(dz_g, g_cache, opts, "g", k, own)
    return loss_q, loss_g


def _train_mixers(net, target_net, opts, batch: Batch, cfg, counters):
    n = len(batch.rewards)
    both = np.concatenate([batch.next_states, batch.states])
    own = slice(n, 2 * n)
    qm, q_cache = net.mix_forward(both, "q")
    gm, g_cache = net.mix_forward(both, "g")
    qm_next_t, _ = target_net.mix_forward(batch.next_states, "q")
    slices = [net.block_slice(k) for k in range(net.n_blocks)]
    loss_q, dz_q, loss_g, dz_g, n_fallback = zip(*(
        _block_loss(qm[:n, sl], gm[:n, sl], qm_next_t[:, sl], qm[own, sl], gm[own, sl], batch, k, cfg)
        for k, sl in enumerate(slices)
    ))
    counters["mixer_fallbacks"] += sum(n_fallback)
    net.mix_backward_step(np.concatenate(dz_q, axis=1), q_cache, opts, "q", own)
    net.mix_backward_step(np.concatenate(dz_g, axis=1), g_cache, opts, "g", own)
    return sum(loss_q), sum(loss_g)


def extract_policy(net: BcqNet, states: np.ndarray, tau: float):
    """Greedy joint-action codes at each state code under the filter.

    Uses the evaluation path (mixed vectors when present); per-block
    filtered argmax, encoded back to a joint code.  Returns
    (codes, fallback_count).
    """
    q, _ = net.mix_forward(states, "q")
    g, _ = net.mix_forward(states, "g")
    parts = []
    fallbacks = 0
    for k in range(net.n_blocks):
        sl = net.block_slice(k)
        choice, n_fall = filtered_argmax(q[:, sl], log_softmax(g[:, sl]), tau)
        parts.append(choice)
        fallbacks += n_fall
    return MixedRadix(net.block_sizes).encode_many(np.stack(parts, axis=1)), fallbacks


@dataclass
class BcqResult:
    net: BcqNet
    checkpoints: list[dict] = field(default_factory=list)
    metrics: list[dict] = field(default_factory=list)
    learned_spec: FactoredMdpSpec | None = None


def ad_bcq_train(episodes, config: BcqConfig, spec: FactoredMdpSpec, *, metrics_path=None) -> BcqResult:
    """Train one offline run at the config's threshold; see module docstring.

    `spec` supplies structure only — state/action coding, terminal
    states and (for the decomposed variant) the skeleton the tabular
    dynamics/reward estimator is fitted over from the logged data.  The
    checkpoint stream carries greedy policy tables ready for
    importance-sampling evaluation.
    """
    cfg = config
    flat = cfg.variant == "flat"
    block_sizes = (spec.n_actions,) if flat else tuple(spec.block_sizes)
    data, model_samples = episodes_to_transitions(episodes, spec, flat)
    if not len(data.rewards):
        raise ConfigurationError("dataset has no usable transitions")

    net_ss, batch_ss, aug_ss = np.random.SeedSequence(cfg.seed).spawn(3)
    batch_rng = np.random.default_rng(batch_ss)
    aug_rng = np.random.default_rng(aug_ss)
    net = BcqNet(spec.n_states, block_sizes, cfg.variant, cfg.hidden, rng=np.random.default_rng(net_ss))
    target_net = net.clone()
    opts = net.optimizers(lr=cfg.lr, weight_decay=cfg.weight_decay)

    sampler = None
    learned_spec = None
    if cfg.augmentation:
        if flat:
            raise ConfigurationError("augmentation projects per block; the flat variant has none")
        learned_spec, _ = learn_model(model_samples, spec).to_spec(fill_unvisited=True)
        sampler = TabularModelSampler(learned_spec, noop_actions=(0,) * spec.n_blocks)
    noop = (0,) * len(block_sizes)

    all_states = np.arange(spec.n_states)
    checkpoints: list[dict] = []
    metrics: list[dict] = []
    fh = open(metrics_path, "w") if metrics_path else None
    counters = {"fallbacks": 0, "mixer_fallbacks": 0}
    try:
        for t in range(1, cfg.train_steps + 1):
            batch = data.take(batch_rng.integers(0, len(data.rewards), size=cfg.batch_size))
            q_losses, g_losses = [], []
            for k in range(len(block_sizes)):
                b_k = (
                    augment_batch(batch, k, sampler, sampler, noop, aug_rng)
                    if sampler is not None
                    else batch
                )
                lq, lg = _train_block(net, target_net, opts, b_k, k, cfg, counters)
                q_losses.append(lq)
                g_losses.append(lg)
            mixer_q = mixer_g = None
            if cfg.variant == "decomposed":
                mixer_q, mixer_g = _train_mixers(net, target_net, opts, batch, cfg, counters)
            if not np.all(np.isfinite(q_losses + g_losses + [mixer_q or 0.0, mixer_g or 0.0])):
                raise NumericError(
                    f"non-finite loss at step {t}: q={q_losses}, g={g_losses}, "
                    f"mixer=({mixer_q}, {mixer_g})"
                )
            target_update(net.params(), target_net.params(), cfg.polyak)
            if t % cfg.checkpoint_every == 0 or t == cfg.train_steps:
                policy, n_fall = extract_policy(net, all_states, cfg.tau_bcq)
                checkpoints.append(
                    {
                        "step": t,
                        "tau": cfg.tau_bcq,
                        "policy": policy.tolist(),
                        "extraction_fallbacks": n_fall,
                    }
                )
                line = {
                    "step": t,
                    "q_loss": float(np.mean(q_losses)),
                    "g_loss": float(np.mean(g_losses)),
                    "mixer_q_loss": mixer_q,
                    "mixer_g_loss": mixer_g,
                    "target_fallbacks": counters["fallbacks"],
                    "mixer_target_fallbacks": counters["mixer_fallbacks"],
                }
                metrics.append(line)
                if fh:
                    fh.write(json.dumps(line) + "\n")
    finally:
        if fh:
            fh.close()
    return BcqResult(net=net, checkpoints=checkpoints, metrics=metrics, learned_spec=learned_spec)


def checkpoint_candidates(checkpoints, val_episodes, n_actions: int, *, soften_epsilon=0.01, gamma=1.0, clip=1000.0):
    """Score each checkpoint's policy on validation episodes.

    Returns [( (tau, step), OpeResult ), ...] ready for `select_model`;
    the deterministic greedy table is softened before weighting so
    off-policy actions keep nonzero target propensity.
    """
    out = []
    for cp in checkpoints:
        table = soften(np.asarray(cp["policy"], dtype=np.int64), soften_epsilon, n_actions)
        res = wis_ess(val_episodes, table, gamma=gamma, clip=clip)
        out.append(((cp["tau"], cp["step"]), res))
    return out
