"""Offline batch-constrained Q-learning over factored actions.

Three network shapes share one training loop:

* flat — one Q net and one generative net over the joint action space;
* factored — the same two nets, outputting every block's action values
  concatenated, with each block trained as an independent slice;
* decomposed — per-path state embeddings feeding per-block heads, plus
  vector mixers that read the concatenated (frozen) head outputs and
  emit re-mixed per-block vectors used for evaluation.

`BcqNet` keeps every network in one ordered table, `nets`, so its
parameters, clones and optimizers are one pass over it whatever the
shape.  The logged dataset is one replay `Batch` of state codes, and
the codes go into the networks as they are (an `Mlp` reads a code as
its one-hot row).  Each training tick samples rows from it, takes one
step per block (decomposed first redraws the batch from the spec it is
handed so it follows that block's projected transition), then one step
on the mixers, then a Polyak target update.  Each network
runs forward once per parameter version: within a step the online q and
g paths run once over the stacked [next_states; states] rows, and the
target q path runs once per tick over every next state the tick's steps
read (`_target_q`); block k's step runs only head k.  Logged data
repeats a few states many times, so every network, in every shape, runs
forward once per distinct code and gathers the rows back, and runs
backward once per distinct code too: the rows' output gradients are
summed per code first (`_sum_by_code`).  Head and mixer steps score each
block's columns with one shared loss (`_block_loss`).
Targets are batch constrained: next-action candidates keep only actions
whose generative propensity is within `tau_bcq` of the state's best
before the argmax, which is taken on the online net and evaluated on the
target net.  A state whose candidate set comes up empty falls back to
the unfiltered argmax and bumps a counter.  The generative net takes the
logged action's negative log-likelihood.
"""

from __future__ import annotations

import copy
import logging
from dataclasses import asdict, dataclass, field

import numpy as np

from ..approx import Mlp, Optimizer, huber, target_update
from ..errors import ConfigurationError, DomainError, NumericError, ShapeError
from ..factored_mdp import FactoredMdpSpec, sample_successors
from ..indexing import MixedRadix
from ..ope import soften, wis_ess
from .replay import Batch

logger = logging.getLogger(__name__)

VARIANTS = ("flat", "factored", "decomposed")


@dataclass
class BcqConfig:
    """Hyperparameters for `ad_bcq_train`.

    `tau_bcq` constrains both the training targets and the extracted
    greedy policy, so each trained run is tied to its threshold.  The
    decomposed variant, and only it, trains on model-augmented batches.
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

    def to_doc(self) -> dict:
        return asdict(self)


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


def _rows_read(index: np.ndarray, rows):
    """(used, inv) of the rows `rows` (a slice or an integer vector) of a
    forward over distinct codes, where `index` maps each row to its
    code's forward row: the forward rows they read, ascending, and the
    position in `used` of the forward row each one reads."""
    return np.unique(index[rows], return_inverse=True)


def _sum_by_code(dz: np.ndarray, read, width: int, cols=slice(None)):
    """A batch's output gradient summed per distinct code, for backward.

    `dz` holds the gradient at the rows whose `_rows_read` is `read`.
    Returns (used, g): the forward rows those rows read, and the
    (len(used), width) gradient whose row j holds, in columns `cols`,
    the sum of dz's rows that read used[j].
    """
    used, inv = read
    g = np.zeros((len(used), width))
    np.add.at(g[:, cols], inv, dz)
    return used, g


class BcqNet:
    """Q and generative networks in one of the three shapes above.

    `nets` is the one table of networks, keyed by name in parameter
    order: `q_embed`, `q_heads` (a list, one per block), `q_mixer`, then
    the same three for `g`; or `q_net` and `g_net` for the monolithic
    shapes.  Parameters, clones and optimizers are all one pass over it.
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

    def heads_forward(self, states: np.ndarray, path: str, k: int | None = None, distinct=None):
        """Per-block outputs at state codes for one path ('q'|'g').

        `states` must be an integer vector of codes (ShapeError
        otherwise).  Returns the (n, head_dim) outputs, or block k's
        (n, b_k) columns when k is given, and a cache for
        heads_backward_step.  Every shape runs its networks (the
        decomposed embedding and heads, head k only when k is given, or
        the monolithic net) once per distinct code and gathers the rows
        back.  The cache's "codes" are the distinct codes, ascending,
        "index" maps each row to its code's row of them, and "distinct"
        holds the outputs at them.  `distinct`, the (codes, index) of an
        earlier forward over the same `states`, saves finding them again.
        """
        states = np.asarray(states)
        if states.dtype.kind not in "iu" or states.ndim != 1:
            raise ShapeError(f"expected a vector of state codes, got {states.dtype} of shape {states.shape}")
        codes, index = np.unique(states, return_inverse=True) if distinct is None else distinct
        if self.variant == "decomposed":
            heads = self.nets[f"{path}_heads"]
            e, e_cache = self.nets[f"{path}_embed"].forward(codes)
            ks = range(self.n_blocks) if k is None else (k,)
            outs, caches = zip(*(heads[j].forward(e) for j in ks))
            out = np.concatenate(outs, axis=1) if k is None else outs[0]
            cache = {"embed": e_cache, "heads": dict(zip(ks, caches))}
        else:
            out, net_cache = self.nets[f"{path}_net"].forward(codes)
            out = out if k is None else out[:, self.block_slice(k)]
            cache = {"net": net_cache}
        return out[index], {**cache, "codes": codes, "index": index, "distinct": out}

    def heads_backward_step(self, dz: np.ndarray, cache, opts, path: str, k: int, read) -> None:
        """Backprop block k's output gradient and apply the optimizers.

        `dz` is d(loss)/d(block k's columns) at the forward rows whose
        `_rows_read` is `read`.
        Rows that share a code have their gradients summed, so backward
        runs once per distinct code among them.  `opts` is a table from
        `optimizers`.  For the decomposed shape only block k's head
        (plus the shared embedding) is touched; monolithic shapes update
        the whole net.
        """
        if self.variant == "decomposed":
            used, g = _sum_by_code(dz, read, dz.shape[1])
            head_opt, embed_opt = opts[f"{path}_heads"][k], opts[f"{path}_embed"]
            _, d_embed = self.nets[f"{path}_heads"][k].backward(g, cache["heads"][k], used, out=head_opt.grad)
            self.nets[f"{path}_embed"].backward(d_embed, cache["embed"], used, out=embed_opt.grad)
            head_opt.step(head_opt.grad)
            embed_opt.step(embed_opt.grad)
            return
        used, g = _sum_by_code(dz, read, self.head_dim, self.block_slice(k))
        opt = opts[f"{path}_net"]
        self.nets[f"{path}_net"].backward(g, cache["net"], used, out=opt.grad)
        opt.step(opt.grad)

    def mix_forward(self, states: np.ndarray, path: str, distinct=None):
        """Evaluation-path outputs: mixed vectors for decomposed, head
        outputs otherwise.  Returns (values, mixer cache or None); the
        mixer runs once per distinct code, like the heads it reads, and
        its cache keeps their "codes" and "index".  `distinct` is as in
        heads_forward."""
        z, cache = self.heads_forward(states, path, distinct=distinct)
        if self.variant != "decomposed":
            return z, None
        mixed, m_cache = self.nets[f"{path}_mixer"].forward(cache["distinct"])
        return mixed[cache["index"]], {"mixer": m_cache, "codes": cache["codes"], "index": cache["index"]}

    def mix_backward_step(self, dz: np.ndarray, cache, opts, path: str, read) -> None:
        """Backprop a mixed-output gradient at the forward rows whose
        `_rows_read` is `read`, summed per distinct code as in
        heads_backward_step."""
        used, g = _sum_by_code(dz, read, dz.shape[1])
        opt = opts[f"{path}_mixer"]
        self.nets[f"{path}_mixer"].backward(g, cache["mixer"], used, out=opt.grad)
        opt.step(opt.grad)


# -- dataset plumbing ---------------------------------------------------------


def episodes_to_transitions(episodes, spec: FactoredMdpSpec) -> Batch:
    """Expand logged episodes into one replay batch, an episode at a time.

    The batch holds state codes in `states` and `next_states` (they go
    into the networks as they are) and one row of per-block action
    indices per step; `dones` marks entry into one of the spec's
    terminal states.  Every step is fully intervened, so the arrays are
    also what `learn_model` counts.  Episodes truncated by the logging
    horizon lose their final transition unless the log recorded the
    successor in `final_state`; one warning counts those dropped.  A
    logged action or state code (`final_state` included) outside the
    spec's range is a DomainError.
    """
    parts = []
    dropped = 0
    for ep in episodes:
        states = np.asarray(ep.states, dtype=np.int64)
        nexts = states[1:]
        final = getattr(ep, "final_state", None)
        if final is None:
            dropped += 1
        else:
            nexts = np.append(nexts, int(final))
        n = len(nexts)
        parts.append((states[:n], np.asarray(ep.actions[:n], dtype=np.int64),
                      np.asarray(ep.rewards[:n], dtype=np.float64), nexts))
    if dropped:
        logger.warning("dropped %d episode-final transitions with unlogged successors", dropped)
    empty = (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0), np.zeros(0, dtype=np.int64))
    states, codes, rewards, nexts = (np.concatenate(col) for col in zip(empty, *parts))
    if ((codes < 0) | (codes >= spec.n_actions)).any():
        raise DomainError(f"logged joint action codes out of range [0, {spec.n_actions})")
    if ((states < 0) | (states >= spec.n_states) | (nexts < 0) | (nexts >= spec.n_states)).any():
        raise DomainError(f"logged state codes out of range [0, {spec.n_states})")
    return Batch(
        states=states,
        actions=spec.action_radix.table()[codes],
        rewards=rewards,
        next_states=nexts,
        dones=np.isin(nexts, list(spec.terminal_states)).astype(np.float64),
    )


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


def _target_q(target_net: BcqNet, block_batches, batch: Batch):
    """The target q values one tick's steps read, from one target forward.

    The target's parameters change only at the tick's Polyak update.
    Returns each block batch's (n, head_dim) values at its next states,
    and the target mixer's outputs at `batch`'s next states (None unless
    decomposed).  The networks run once over the tick's distinct
    next-state codes, the target mixer once over the distinct codes
    among `batch`'s next states.
    """
    n = len(batch.rewards)
    codes = np.concatenate([b.next_states for b in block_batches] + [batch.next_states])
    z, cache = target_net.heads_forward(codes, "q")
    q = [z[k * n : (k + 1) * n] for k in range(len(block_batches))]
    if target_net.variant != "decomposed":
        return q, None
    own, at = _rows_read(cache["index"], slice(-n, None))
    mixed, _ = target_net.nets["q_mixer"].forward(cache["distinct"][own])
    return q, mixed[at]


def _train_block(net, q_next_t, opts, batch: Batch, k, cfg, counters):
    """One step of block k; `q_next_t` holds the target's (n, head_dim)
    values at the batch's next states."""
    n = len(batch.rewards)
    # One forward per network over [next_states; states]: the q step
    # below leaves the g path's parameters as they were.
    both = np.concatenate([batch.next_states, batch.states])
    own = slice(n, 2 * n)  # the rows of `states`
    # Both paths read the same rows, so the q path's distinct codes serve
    # the g path and both backward passes.
    q, q_cache = net.heads_forward(both, "q", k)
    g, g_cache = net.heads_forward(both, "g", k, distinct=(q_cache["codes"], q_cache["index"]))
    q_next_t = q_next_t[:, net.block_slice(k)]
    loss_q, dz_q, loss_g, dz_g, n_fallback = _block_loss(q[:n], g[:n], q_next_t, q[own], g[own], batch, k, cfg)
    counters["fallbacks"] += n_fallback
    read = _rows_read(q_cache["index"], own)
    net.heads_backward_step(dz_q, q_cache, opts, "q", k, read)
    net.heads_backward_step(dz_g, g_cache, opts, "g", k, read)
    return loss_q, loss_g


def _train_mixers(net, qm_next_t, opts, batch: Batch, cfg, counters):
    """One step of the mixers; `qm_next_t` holds the target mixer's
    outputs at the batch's next states."""
    n = len(batch.rewards)
    both = np.concatenate([batch.next_states, batch.states])
    own = slice(n, 2 * n)
    qm, q_cache = net.mix_forward(both, "q")
    gm, g_cache = net.mix_forward(both, "g", distinct=(q_cache["codes"], q_cache["index"]))
    slices = [net.block_slice(k) for k in range(net.n_blocks)]
    loss_q, dz_q, loss_g, dz_g, n_fallback = zip(*(
        _block_loss(qm[:n, sl], gm[:n, sl], qm_next_t[:, sl], qm[own, sl], gm[own, sl], batch, k, cfg)
        for k, sl in enumerate(slices)
    ))
    counters["mixer_fallbacks"] += sum(n_fallback)
    read = _rows_read(q_cache["index"], own)
    net.mix_backward_step(np.concatenate(dz_q, axis=1), q_cache, opts, "q", read)
    net.mix_backward_step(np.concatenate(dz_g, axis=1), g_cache, opts, "g", read)
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


def _projected_batch(model: FactoredMdpSpec, batch: Batch, k: int, rng: np.random.Generator) -> Batch:
    """`batch` redrawn to follow block k's projected transition in `model`.

    Every row keeps its state and block k's logged action, and every
    other block takes action index 0.  Each row's next state is one
    `sample_successors` draw under those actions, and its reward and
    done flag are read off `model` at that successor.
    """
    actions = np.zeros_like(batch.actions)
    actions[:, k] = batch.actions[:, k]
    next_states = sample_successors(model, batch.states, actions, rng)
    dones = np.isin(next_states, list(model.terminal_states)).astype(np.float64)
    return Batch(batch.states, actions, model.reward[batch.states, next_states], next_states, dones)


def ad_bcq_train(data: Batch, config: BcqConfig, model: FactoredMdpSpec) -> BcqResult:
    """Train one offline run at the config's threshold; see module docstring.

    `data` is the logged dataset as `episodes_to_transitions` returns
    it, with per-block actions; the flat variant trains on their joint
    codes as one block.  `model` supplies the state and action coding,
    and the decomposed variant draws each block's projected batches
    from it (`_projected_batch`); `offline_selection_run` hands in the
    tabular model it fitted to the train split.  The checkpoint stream
    carries greedy policy tables ready for importance-sampling
    evaluation.
    """
    cfg = config
    flat = cfg.variant == "flat"
    block_sizes = (model.n_actions,) if flat else tuple(model.block_sizes)
    if not len(data.rewards):
        raise ConfigurationError("dataset has no usable transitions")

    net_ss, batch_ss, aug_ss = np.random.SeedSequence(cfg.seed).spawn(3)
    batch_rng = np.random.default_rng(batch_ss)
    aug_rng = np.random.default_rng(aug_ss)
    net = BcqNet(model.n_states, block_sizes, cfg.variant, cfg.hidden, rng=np.random.default_rng(net_ss))
    target_net = net.clone()
    opts = net.optimizers(lr=cfg.lr, weight_decay=cfg.weight_decay)

    if flat:
        data = data._replace(actions=model.action_radix.encode_many(data.actions)[:, None])

    all_states = np.arange(model.n_states)
    checkpoints: list[dict] = []
    metrics: list[dict] = []
    counters = {"fallbacks": 0, "mixer_fallbacks": 0}
    for t in range(1, cfg.train_steps + 1):
        batch = data.take(batch_rng.integers(0, len(data.rewards), size=cfg.batch_size))
        block_batches = [
            _projected_batch(model, batch, k, aug_rng) if cfg.variant == "decomposed" else batch
            for k in range(len(block_sizes))
        ]
        q_next_t, qm_next_t = _target_q(target_net, block_batches, batch)
        q_losses, g_losses = [], []
        for k, b_k in enumerate(block_batches):
            lq, lg = _train_block(net, q_next_t[k], opts, b_k, k, cfg, counters)
            q_losses.append(lq)
            g_losses.append(lg)
        mixer_q = mixer_g = None
        if cfg.variant == "decomposed":
            mixer_q, mixer_g = _train_mixers(net, qm_next_t, opts, batch, cfg, counters)
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
    return BcqResult(net=net, checkpoints=checkpoints, metrics=metrics)


def checkpoint_candidates(checkpoints, val_episodes, n_actions: int, *, soften_epsilon=0.01):
    """Score each checkpoint's policy on validation episodes.

    Returns [( (tau, step), OpeResult ), ...] ready for `select_model`;
    the deterministic greedy table is softened before weighting so
    off-policy actions keep nonzero target propensity, and weighted at
    `wis_ess`'s defaults (undiscounted returns, ratios clipped at 1000).
    """
    out = []
    for cp in checkpoints:
        table = soften(np.asarray(cp["policy"], dtype=np.int64), soften_epsilon, n_actions)
        res = wis_ess(val_episodes, table)
        out.append(((cp["tau"], cp["step"]), res))
    return out
