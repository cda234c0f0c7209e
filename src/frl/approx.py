"""Small float64 networks with hand-written backward passes.

Everything here is deliberately explicit: dense layers as plain numpy
arrays, forward passes that return their caches, backward passes that
walk the caches in reverse.  Gradients are cross-checked against
central finite differences in the tests, which is the point of keeping
the arithmetic visible.

Each network has one format for its parameters and gradients: one
flat float64 buffer laid out w0, b0, w1, b1, ...  `Mlp.flat` holds
the parameters (the per-layer weights and biases are views into it),
`Mlp.backward` writes the gradient into a buffer with that layout
(`out`, usually the `Optimizer`'s `grad`), and `Optimizer.step` takes
that buffer and updates `flat` in place.  An integer input to an `Mlp`
is a vector of codes standing for one-hot rows, so a tabular state
needs no dense feature matrix: the first layer reads weight rows
instead of multiplying by a one-hot matrix, and backward scatter-adds
each row's gradient into the weight-gradient row of its code.

The hot path owns its buffers, so in steady state it allocates nothing
of a batch's size and its speed does not depend on the allocator.  Each
`Mlp` keeps one activation buffer per hidden layer, grown to the
largest row count it has seen; a forward's cache holds views into
them, so a cache is valid only until the next forward of its network
(backward raises StateError on a stale one).  Backward passes, Adam's
chunked update, the Polyak update and the greedy candidate stacks draw
their temporaries from one module-level scratch that every network
shares.  Every elementwise operation keeps its operands and order, so
results are bit-identical to computing each value in a fresh array.
None of this is thread-safe.

Every network's last layer is linear.  The fixed numbers are module
constants: `huber` at `HUBER_DELTA` = 1.0, and Adam at `ADAM_BETA1` =
0.9, `ADAM_BETA2` = 0.999 and `ADAM_EPS` = 1e-8.

`DecomposedQNet` is the factored-action value network: one head of
action values per block off a shared trunk, plus a mixer that reads the
per-block values selected by a joint action and produces the joint
value.  Mixers come in three shapes: a parameter-free average, a
two-layer linear bottleneck, and a three-layer ReLU network.
"""

from __future__ import annotations

import copy
import itertools
import json
import math

import numpy as np

from .errors import ConfigurationError, NumericError, ShapeError, StateError

_MLP_FORMAT = "frl-mlp-v1"
_DECQ_FORMAT = "frl-decq-v1"


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int, out=None) -> np.ndarray:
    """Uniform(-a, a) draws, a = sqrt(6 / (fan_in + fan_out)).

    With `out` the draws land in place in that (fan_in, fan_out) array.
    Either way the values and the generator's state afterwards equal
    those of rng.uniform(-a, a, (fan_in, fan_out)).
    """
    a = np.sqrt(6.0 / (fan_in + fan_out))
    if out is None:
        out = np.empty((fan_in, fan_out))
    rng.random(out=out)
    out *= 2 * a
    out += -a
    return out


ACTIVATIONS = ("relu", "identity")
# Coordinate passes a greedy call takes through the mixer.
GREEDY_PASSES = 2
HUBER_DELTA = 1.0
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


# Temporaries shared by every network (backward passes, Adam, the Polyak
# update, greedy candidate stacks): name -> flat buffer, grown to the
# largest size asked for.
_SCRATCH: dict[str, np.ndarray] = {}
# One stamp per forward pass; a cache is current while its stamp is its network's.
_STAMPS = itertools.count()


def _scratch(name: str, shape, dtype=np.float64) -> np.ndarray:
    """A view of the shared buffer `name` in `shape`, its contents undefined;
    a name always asks for the same dtype."""
    size = math.prod(shape)
    buf = _SCRATCH.get(name)
    if buf is None or buf.size < size:
        buf = _SCRATCH[name] = np.empty(size, dtype)
    return buf[:size].reshape(shape)


def _take_rows(a: np.ndarray, rows, name: str) -> np.ndarray:
    """a[rows]: `a` itself for None, else gathered into scratch `name`."""
    if rows is None:
        return a
    out = _scratch(name, (len(rows), a.shape[1]))
    return np.take(a, rows, axis=0, out=out, mode="wrap")  # rows were range-checked


def _layer_views(flat: np.ndarray, sizes) -> list[np.ndarray]:
    """[w0, b0, w1, b1, ...] as views laid back to back in `flat`."""
    views, pos = [], 0
    for n_in, n_out in zip(sizes, sizes[1:]):
        views.append(flat[pos : pos + n_in * n_out].reshape(n_in, n_out))
        pos += n_in * n_out
        views.append(flat[pos : pos + n_out])
        pos += n_out
    return views


class Mlp:
    """Dense network; sizes[0] inputs, sizes[-1] outputs.

    `activation` applies to hidden layers; the last layer is linear.
    All parameters live in one float64 buffer `flat`, laid out
    w0, b0, w1, b1, ...; `weights` and `biases` are views into it.
    Forward returns its cache next to the output and backward takes it
    back.  The hidden activations live in one buffer per hidden layer
    that the next forward of the same network overwrites, so a cache is
    valid until then; the output is always a fresh array, and a clone
    has buffers of its own.

    An integer input is a vector of codes in [0, sizes[0]): code c
    stands for the one-hot row e_c, and the first layer reads row c of
    its weights instead of multiplying.
    """

    def __init__(self, sizes, activation="relu", rng=None):
        self._configure(sizes, activation)
        rng = rng or np.random.default_rng()
        for w in self.weights:
            glorot_uniform(rng, *w.shape, out=w)

    def _configure(self, sizes, activation) -> None:
        if len(sizes) < 2:
            raise ConfigurationError("network needs at least input and output sizes")
        if activation not in ACTIVATIONS:
            raise ConfigurationError(f"unknown activation {activation!r}; expected one of {ACTIVATIONS}")
        self.sizes = tuple(int(s) for s in sizes)
        self.activation = activation
        n = sum(a * b + b for a, b in zip(self.sizes, self.sizes[1:]))
        self._bind(np.zeros(n))

    def _bind(self, flat: np.ndarray) -> None:
        self.flat = flat
        self._views = _layer_views(flat, self.sizes)
        self.weights = self._views[0::2]
        self.biases = self._views[1::2]
        self._hidden = [np.empty((0, s)) for s in self.sizes[1:-1]]
        self._stamp = None

    # -- parameters ------------------------------------------------------

    def clone(self) -> "Mlp":
        """An independent copy: one buffer copy, no initializer draw."""
        other = copy.copy(self)
        other._bind(self.flat.copy())
        return other

    def _relu(self, i: int) -> bool:  # a hidden layer of a ReLU network
        return self.activation == "relu" and i < len(self.weights) - 1

    # -- forward / backward ------------------------------------------------

    def forward(self, x: np.ndarray):
        """(output, cache for backward) of a vector of integer codes or
        a 2-D float batch of rows.

        Hidden layers write into this network's own buffers, grown to
        the largest row count seen, and ReLU runs in place; the output
        is a fresh array.  The cache holds views of those buffers (and
        the input and output themselves), so it is valid until the next
        forward of this network.
        """
        x = np.asarray(x)
        codes = x.dtype.kind in "iu"
        if codes:
            if x.ndim != 1:
                raise ShapeError(f"codes must form a vector, got shape {x.shape}")
            if x.size and (x.min() < 0 or x.max() >= self.sizes[0]):
                raise ShapeError(f"input code outside [0, {self.sizes[0]})")
        else:
            x = x.astype(np.float64, copy=False)
            if x.ndim != 2:
                raise ShapeError(f"float input must be 2-D (rows, features), got shape {x.shape}")
            if x.shape[1] != self.sizes[0]:
                raise ShapeError(f"input has {x.shape[1]} features, network expects {self.sizes[0]}")
        n = len(x)
        post = [x]
        h = x
        self._stamp = next(_STAMPS)  # before any buffer changes: older caches are stale now
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if i < len(self._hidden):
                if len(self._hidden[i]) < n:
                    self._hidden[i] = np.empty((n, w.shape[1]))
                z = self._hidden[i][:n]
            else:
                z = np.empty((n, w.shape[1]))
            if codes and i == 0:
                np.take(w, h, axis=0, out=z, mode="clip")  # codes were range-checked
            else:
                np.matmul(h, w, out=z)
            z += b
            if self._relu(i):
                np.maximum(z, 0.0, out=z)
            post.append(z)
            h = z
        return h, {"post": post, "codes": codes, "stamp": self._stamp}

    def backward(self, grad_out: np.ndarray, cache, rows=None, out=None):
        """Grads of a scalar loss given d(loss)/d(output) and forward's cache.

        `rows` names the forward rows `grad_out` belongs to (all when
        None; else an integer vector); only their activations
        enter the gradients.  The flat gradient, laid out like `flat`,
        lands in `out` (usually the optimizer's `grad`; a fresh buffer
        when None).  Returns (that buffer, d(loss)/d(input)); the input
        gradient is None for a code input and otherwise a view of the
        shared scratch, valid until the next backward of any network.
        A cache that a later forward of this network has overwritten
        raises StateError.  ReLU's mask is read off the activations
        (h > 0 exactly where z > 0).
        """
        if cache["stamp"] != self._stamp:
            raise StateError("stale cache: this network has run forward since")
        post, codes = cache["post"], cache["codes"]
        n = m = len(post[0])  # forward rows, rows read
        if rows is not None:
            rows = np.asarray(rows)
            if rows.dtype.kind not in "iu" or rows.ndim != 1:
                raise ShapeError(f"rows must be an integer vector, got shape {rows.shape}")
            if rows.size and (rows.min() < -n or rows.max() >= n):
                raise ShapeError(f"rows outside the {n} forward rows")
            m = len(rows)
        g = np.asarray(grad_out, dtype=np.float64)
        if g.shape != (m, self.sizes[-1]):
            raise ShapeError(f"output gradient has shape {g.shape}, expected {(m, self.sizes[-1])}")
        if out is None:
            out = np.empty(self.flat.size)
        elif out.shape != self.flat.shape:
            raise ShapeError(f"gradient buffer has shape {out.shape}, parameters have {self.flat.shape}")
        views = _layer_views(out, self.sizes)
        h = None  # the current layer's activations at `rows`
        for i in range(len(self.weights) - 1, -1, -1):
            if self._relu(i):
                if h is None:
                    h = _take_rows(post[i + 1], rows, "mask")
                mask = _scratch("mask", g.shape)
                np.greater(h, 0.0, out=mask)
                g = np.multiply(g, mask, out=mask)
            if codes and i == 0:
                # row c of w0's gradient sums the rows of g whose code is c,
                # scattered through flat indices: numpy's add.at runs several
                # times faster on a 1-D target
                x = post[0] if rows is None else post[0][rows]
                index = _scratch("code_index", g.shape, np.intp)
                np.multiply(x[:, None], g.shape[1], out=index, dtype=np.intp)  # any integer dtype
                index += np.arange(g.shape[1])
                views[0].fill(0.0)
                np.add.at(views[0].reshape(-1), index.reshape(-1), g.reshape(-1))
            else:
                h = _take_rows(post[i], rows, "x")
                np.matmul(h.T, g, out=views[2 * i])
            np.sum(g, axis=0, out=views[2 * i + 1])
            if i or not codes:
                g = np.matmul(g, self.weights[i].T, out=_scratch("dx" if i == 0 else f"g{i % 2}", h.shape))
        return out, (None if codes else g)

    # -- serialization ------------------------------------------------------

    def to_doc(self) -> dict:
        return {
            "format": _MLP_FORMAT,
            "sizes": list(self.sizes),
            "activation": self.activation,
            "out_activation": "identity",
            "weights": [w.tolist() for w in self.weights],
            "biases": [b.tolist() for b in self.biases],
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "Mlp":
        if doc.get("format") != _MLP_FORMAT:
            raise ConfigurationError(f"unexpected checkpoint format {doc.get('format')!r}")
        if doc["out_activation"] != "identity":
            raise ConfigurationError(f"unknown output activation {doc['out_activation']!r}; expected 'identity'")
        net = cls.__new__(cls)
        net._configure(doc["sizes"], doc["activation"])
        stored = [np.asarray(a, dtype=np.float64) for pair in zip(doc["weights"], doc["biases"]) for a in pair]
        if len(stored) != len(net._views):
            raise ShapeError("checkpoint layer count does not match sizes")
        for view, a in zip(net._views, stored):
            if a.shape != view.shape:
                raise ShapeError(f"checkpoint parameter shape {a.shape} does not match sizes")
            view[...] = a
        if not np.isfinite(net.flat).all():
            raise NumericError("checkpoint holds a non-finite parameter")
        return net

    def to_json(self) -> str:
        return json.dumps(self.to_doc())

    @classmethod
    def from_json(cls, text: str) -> "Mlp":
        return cls.from_doc(json.loads(text))


def load_matching(docs, nets) -> list[Mlp]:
    """One Mlp per checkpoint doc, each shaped like its partner in `nets`.

    A loader builds `nets` from the checkpoint's own fields and passes
    them here; a stored network whose sizes or activations differ from
    its partner's, or a different network count, raises ShapeError.
    """
    docs = list(docs)
    if len(docs) != len(nets):
        raise ShapeError(f"checkpoint holds {len(docs)} networks, expected {len(nets)}")
    loaded = [Mlp.from_doc(d) for d in docs]
    shape = lambda m: (m.sizes, m.activation)
    for got, want in zip(loaded, nets):
        if shape(got) != shape(want):
            raise ShapeError(f"checkpoint network {shape(got)} does not match the expected {shape(want)}")
    return loaded


def huber(pred: np.ndarray, target: np.ndarray):
    """Mean Huber loss at threshold `HUBER_DELTA` and its gradient w.r.t. pred."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ShapeError(f"prediction shape {pred.shape} != target shape {target.shape}")
    err = pred - target
    small = np.abs(err) <= HUBER_DELTA
    loss = np.where(small, 0.5 * err**2, HUBER_DELTA * (np.abs(err) - 0.5 * HUBER_DELTA))
    grad = np.clip(err, -HUBER_DELTA, HUBER_DELTA) / err.size
    return float(loss.mean()), grad


_CHUNK = 32_768  # elements per pass of Optimizer.step: its working set stays in cache


class Optimizer:
    """Adam over the flat parameter buffer of one `Mlp`, in place.

    `step` takes the network's gradient as one buffer laid out like
    `net.flat`; `grad` is such a buffer owned by the optimizer, for
    `Mlp.backward(..., out=opt.grad)` to fill.  The update runs over
    chunks of `_CHUNK` elements with chunk-sized shared scratch and
    never writes into the gradient.  Within a chunk every elementwise
    operation of the per-array update keeps its operands and order, so
    results are bit-identical to updating each layer's array on its own.
    `m` and `v` are Adam's flat moment buffers.  Weight decay is
    decoupled: applied as a direct shrink, never mixed into the adaptive
    moments.  Raises NumericError, naming the parameter's index in the
    layer order w0, b0, w1, b1, ..., when a gradient is not finite (before
    any update) or when an updated parameter is not (after the update).
    """

    def __init__(self, net: Mlp, lr=1e-3, weight_decay=0.0):
        if lr <= 0:
            raise ConfigurationError(f"learning rate must be positive, got {lr}")
        self.flat = net.flat
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        self._ends = np.cumsum([n for a, b in zip(net.sizes, net.sizes[1:]) for n in (a * b, b)])
        self.grad = np.empty_like(self.flat)
        self.m = np.zeros_like(self.flat)
        self.v = np.zeros_like(self.flat)
        self._finite = np.empty(min(_CHUNK, self.flat.size), dtype=bool)

    def _chunks(self):
        return ((lo, min(lo + _CHUNK, self.flat.size)) for lo in range(0, self.flat.size, _CHUNK))

    def _first_bad(self, flat: np.ndarray, lo: int) -> int | None:
        """Layer-order index of the array holding `flat`'s first non-finite
        entry (`flat` starting at flat index `lo`), or None.

        A finite sum means every entry is finite, so one reduction
        settles the usual case; only a sum that is not finite (a NaN or
        an infinity, or finite entries that overflow) runs the search.
        """
        with np.errstate(over="ignore", invalid="ignore"):  # finite entries may overflow, inf - inf is NaN
            total = np.add.reduce(flat)
        if math.isfinite(total):
            return None
        ok = np.isfinite(flat, out=self._finite[: flat.size])
        if ok.all():
            return None
        return int(np.searchsorted(self._ends, lo + int(ok.argmin()), side="right"))

    def step(self, grad: np.ndarray) -> None:
        if np.shape(grad) != self.flat.shape:
            raise ShapeError(f"gradient has shape {np.shape(grad)}, parameters have {self.flat.shape}")
        for lo, hi in self._chunks():
            bad = self._first_bad(grad[lo:hi], lo)
            if bad is not None:
                raise NumericError(f"gradient {bad} is not finite")
        self.t += 1
        c1, c2 = 1 - ADAM_BETA1**self.t, 1 - ADAM_BETA2**self.t
        bad = None
        for lo, hi in self._chunks():
            p, g, m, v = self.flat[lo:hi], grad[lo:hi], self.m[lo:hi], self.v[lo:hi]
            s, d = _scratch("adam", (2, hi - lo))
            if self.weight_decay:
                np.multiply(p, self.lr * self.weight_decay, out=s)
                p -= s
            m *= ADAM_BETA1
            np.multiply(g, 1 - ADAM_BETA1, out=s)
            m += s
            v *= ADAM_BETA2
            np.multiply(g, 1 - ADAM_BETA2, out=s)
            s *= g
            v += s
            np.divide(m, c1, out=s)
            s *= self.lr
            np.divide(v, c2, out=d)
            np.sqrt(d, out=d)
            d += ADAM_EPS
            s /= d
            p -= s
            if bad is None:
                bad = self._first_bad(p, lo)
        if bad is not None:
            raise NumericError(f"parameter {bad} became non-finite after update")


def target_update(src_params, dst_params, tau: float | None = None) -> None:
    """Copy (tau=None) or Polyak-average source parameters into targets.

    One operation per array pair, so a list of whole-network buffers
    costs one pass per network; `tau * s` goes into one shared scratch.
    """
    src, dst = list(src_params), list(dst_params)
    if len(src) != len(dst):
        raise ShapeError("parameter lists have different lengths")
    for s, d in zip(src, dst):
        if tau is None:
            d[...] = s
        else:
            d *= 1.0 - tau
            d += np.multiply(s, tau, out=_scratch("polyak", np.shape(s)))


MIXERS = ("average", "linear", "relu")


class DecomposedQNet:
    """Per-block action values plus a mixer for the joint value.

    The trunk maps a state to one concatenated vector holding every
    block's action values (`shared_trunk=False` uses one network per
    block instead).  A joint action selects one entry per block; the
    mixer sees the full head vector with unselected entries zeroed, so
    its input dimension is the concatenated action count.

    Greedy actions start at the per-head argmax and take coordinate
    passes through the mixer.  A call costs one trunk forward for the
    batch, then one stacked mixer forward per pass and block that scores
    every candidate of that block; the trunk never sees a candidate.
    With the average mixer greedy is the per-head argmax.

    Each trunk, and the mixer unless it is the average, is an `Mlp`
    with its own flat buffer: `params()` lists those buffers, so a
    target update costs one pass per network.  A trunk's gradient comes
    from its own `Mlp.backward`; `backward_mixer` writes the mixer's.
    """

    def __init__(
        self,
        state_dim: int,
        block_sizes,
        hidden=(64, 64),
        mixer: str = "average",
        mixer_hidden: int = 32,
        shared_trunk: bool = True,
        rng=None,
    ):
        if mixer not in MIXERS:
            raise ConfigurationError(f"unknown mixer {mixer!r}; expected one of {MIXERS}")
        self.state_dim = int(state_dim)
        self.block_sizes = tuple(int(b) for b in block_sizes)
        if not self.block_sizes or min(self.block_sizes) < 1:
            raise ConfigurationError("need at least one action per block")
        self.hidden = tuple(int(h) for h in hidden)
        self.mixer_kind = mixer
        self.mixer_hidden = int(mixer_hidden)
        self.shared_trunk = bool(shared_trunk)
        rng = rng or np.random.default_rng()
        self.head_dim = sum(self.block_sizes)
        self.offsets = np.concatenate([[0], np.cumsum(self.block_sizes)])
        if shared_trunk:
            self.trunks = [Mlp((self.state_dim, *self.hidden, self.head_dim), rng=rng)]
        else:
            self.trunks = [
                Mlp((self.state_dim, *self.hidden, b), rng=rng) for b in self.block_sizes
            ]
        if mixer == "average":
            self.mixer = None
        elif mixer == "linear":
            self.mixer = Mlp(
                (self.head_dim, self.mixer_hidden, 1),
                activation="identity",
                rng=rng,
            )
        else:
            self.mixer = Mlp(
                (self.head_dim, self.mixer_hidden, self.mixer_hidden, 1),
                activation="relu",
                rng=rng,
            )

    # -- parameters --------------------------------------------------------

    def _nets(self) -> list[Mlp]:
        return self.trunks + ([] if self.mixer is None else [self.mixer])

    def params(self) -> list[np.ndarray]:
        """One flat parameter buffer per network: the trunks, then the mixer."""
        return [net.flat for net in self._nets()]

    def clone(self) -> "DecomposedQNet":
        other = copy.copy(self)
        other.trunks = [t.clone() for t in self.trunks]
        other.mixer = None if self.mixer is None else self.mixer.clone()
        return other

    # -- forward -------------------------------------------------------------

    def head_values(self, states: np.ndarray):
        """Concatenated per-block action values (n, sum(block_sizes)) and the trunk caches."""
        states = np.atleast_2d(np.asarray(states, dtype=np.float64))
        outs, caches = zip(*(t.forward(states) for t in self.trunks))
        return np.concatenate(outs, axis=1), caches

    def block_slices(self, z: np.ndarray) -> list[np.ndarray]:
        return [z[:, self.offsets[k] : self.offsets[k + 1]] for k in range(len(self.block_sizes))]

    def _mask(self, actions: np.ndarray) -> np.ndarray:
        actions = np.atleast_2d(np.asarray(actions, dtype=np.int64))
        n = actions.shape[0]
        if actions.shape[1] != len(self.block_sizes):
            raise ShapeError(
                f"actions have {actions.shape[1]} blocks, network has {len(self.block_sizes)}"
            )
        mask = np.zeros((n, self.head_dim))
        for k, b in enumerate(self.block_sizes):
            col = actions[:, k]
            if col.min() < 0 or col.max() >= b:
                raise ShapeError(f"block {k} action out of range [0, {b})")
            mask[np.arange(n), self.offsets[k] + col] = 1.0
        return mask

    def _mix(self, masked: np.ndarray):
        """Joint values of masked head vectors: (values (n,), mixer cache)."""
        if self.mixer is None:
            return masked.sum(axis=1) / len(self.block_sizes), None
        out, cache = self.mixer.forward(masked)
        return out[:, 0], cache

    def joint_q(self, states: np.ndarray, actions: np.ndarray):
        """Joint value of (state, per-block action) pairs.

        Returns (values (n,), cache for backward_mixer).
        """
        z, _ = self.head_values(states)
        q, mix_cache = self._mix(z * self._mask(actions))
        return q, {"mix_cache": mix_cache, "n": z.shape[0]}

    def joint_q_of_heads(self, z: np.ndarray, actions: np.ndarray) -> np.ndarray:
        """Joint values (n,) from head values `z` that head_values returned."""
        return self._mix(z * self._mask(actions))[0]

    def backward_mixer(self, grad_q: np.ndarray, cache, out=None) -> np.ndarray:
        """The mixer's flat gradient given d(loss)/d(joint value), in `out`
        as `Mlp.backward` writes it.

        The head values count as inputs, so the mixer trains against
        frozen heads.  The average mixer has no parameters to train
        (ConfigurationError).
        """
        if self.mixer is None:
            raise ConfigurationError("the average mixer has no parameters")
        grad_q = np.asarray(grad_q, dtype=np.float64).reshape(-1)
        if grad_q.shape[0] != cache["n"]:
            raise ShapeError("gradient length does not match the cached batch")
        grad, _ = self.mixer.backward(grad_q[:, None], cache["mix_cache"], out=out)
        return grad

    # -- action selection -----------------------------------------------------

    def greedy(self, states: np.ndarray) -> np.ndarray:
        """Per-block greedy actions via coordinate sweeps through the mixer.

        Costs one trunk forward for the batch, then one stacked mixer
        forward per pass and block; greedy_of_heads runs the sweep.
        """
        z, _ = self.head_values(states)
        return self.greedy_of_heads(z)

    def greedy_of_heads(self, z: np.ndarray) -> np.ndarray:
        """Greedy actions for head values `z` (n, head_dim) from head_values.

        Starts at each head's own argmax; each of `GREEDY_PASSES` passes
        re-picks every block against the others' current choices.  A
        block only moves when the switch strictly improves the mixed
        value, so a mixer that is flat (e.g. freshly initialized) leaves
        the per-head argmax in place instead of collapsing every block to
        action 0.  Each pass and block scores all b candidates of all n
        rows with one mixer forward over an (n * b, head_dim) stack of
        masked head vectors, built in the shared scratch.
        """
        z = np.atleast_2d(np.asarray(z, dtype=np.float64))
        actions = np.stack([s.argmax(axis=1) for s in self.block_slices(z)], axis=1)
        if self.mixer is None:
            return actions
        n = z.shape[0]
        rows = np.arange(n)
        for _ in range(GREEDY_PASSES):
            for k, b in enumerate(self.block_sizes):
                # mask[r, c] selects row r's current actions with block k's set to c
                mask = _scratch("greedy_mask", (n, b, self.head_dim))
                mask.fill(0.0)
                for j, a in enumerate(actions.T):
                    if j != k:
                        mask[rows, :, self.offsets[j] + a] = 1.0
                mask[:, np.arange(b), self.offsets[k] + np.arange(b)] = 1.0
                stack = np.multiply(z[:, None, :], mask, out=_scratch("greedy_stack", mask.shape))
                scores = self._mix(stack.reshape(n * b, self.head_dim))[0].reshape(n, b)
                best = scores.argmax(axis=1)
                improves = scores[rows, best] > scores[rows, actions[:, k]]
                actions[improves, k] = best[improves]
        return actions

    # -- serialization ----------------------------------------------------------

    def to_doc(self) -> dict:
        return {
            "format": _DECQ_FORMAT,
            "state_dim": self.state_dim,
            "block_sizes": list(self.block_sizes),
            "hidden": list(self.hidden),
            "mixer": self.mixer_kind,
            "mixer_hidden": self.mixer_hidden,
            "shared_trunk": self.shared_trunk,
            "trunks": [t.to_doc() for t in self.trunks],
            "mixer_net": None if self.mixer is None else self.mixer.to_doc(),
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "DecomposedQNet":
        if doc.get("format") != _DECQ_FORMAT:
            raise ConfigurationError(f"unexpected checkpoint format {doc.get('format')!r}")
        net = cls(
            doc["state_dim"],
            doc["block_sizes"],
            hidden=doc["hidden"],
            mixer=doc["mixer"],
            mixer_hidden=doc["mixer_hidden"],
            shared_trunk=doc["shared_trunk"],
            rng=np.random.default_rng(0),
        )
        stored = doc["trunks"] + ([] if doc["mixer_net"] is None else [doc["mixer_net"]])
        loaded = load_matching(stored, net._nets())
        net.trunks = loaded[: len(net.trunks)]
        if net.mixer is not None:
            net.mixer = loaded[-1]
        return net

    def to_json(self) -> str:
        return json.dumps(self.to_doc())

    @classmethod
    def from_json(cls, text: str) -> "DecomposedQNet":
        return cls.from_doc(json.loads(text))
