"""Small float64 networks with hand-written backward passes.

Everything here is deliberately explicit: dense layers as plain numpy
arrays, forward passes that return their caches, backward passes that
walk the caches in reverse.  Gradients are cross-checked against
central finite differences in the tests, which is the point of keeping
the arithmetic visible.

Each network has one format for its parameters and gradients: one
flat float64 buffer laid out w0, b0, w1, b1, ...  `Mlp.flat` holds
the parameters (the per-layer weights and biases are views into it),
`Mlp.backward` returns the gradient as one buffer with that layout,
and `Optimizer.step` takes that buffer and updates `flat` in one
in-place pass.  An integer input to an `Mlp` is a vector
of codes standing for one-hot rows, so a tabular state needs no dense
feature matrix: the first layer reads weight rows instead of
multiplying by a one-hot matrix.

`DecomposedQNet` is the factored-action value network: one head of
action values per block off a shared trunk, plus a mixer that reads the
per-block values selected by a joint action and produces the joint
value.  Mixers come in three shapes: a parameter-free average, a
two-layer linear bottleneck, and a three-layer ReLU network.
"""

from __future__ import annotations

import copy
import json

import numpy as np

from .errors import ConfigurationError, NumericError, ShapeError

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


def _act(name: str, z: np.ndarray) -> np.ndarray:
    if name == "relu":
        return np.maximum(z, 0.0)
    if name == "identity":
        return z
    raise ConfigurationError(f"unknown activation {name!r}")


def _act_grad(name: str, z: np.ndarray) -> np.ndarray:
    if name == "relu":
        return (z > 0.0).astype(np.float64)
    if name == "identity":
        return np.ones_like(z)
    raise ConfigurationError(f"unknown activation {name!r}")


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

    `activation` applies to hidden layers, `out_activation` to the last
    layer.  All parameters live in one float64 buffer `flat`, laid out
    w0, b0, w1, b1, ...; `weights` and `biases` are views into it.
    Forward returns its cache next to the output and backward takes it
    back, so interleaved evaluations on one network each keep their
    own.

    An integer input is a vector of codes in [0, sizes[0]): code c
    stands for the one-hot row e_c, and the first layer reads row c of
    its weights instead of multiplying.
    """

    def __init__(self, sizes, activation="relu", out_activation="identity", rng=None):
        self._configure(sizes, activation, out_activation)
        rng = rng or np.random.default_rng()
        for w in self.weights:
            glorot_uniform(rng, *w.shape, out=w)

    def _configure(self, sizes, activation, out_activation) -> None:
        if len(sizes) < 2:
            raise ConfigurationError("network needs at least input and output sizes")
        _act(activation, np.zeros(1))
        _act(out_activation, np.zeros(1))
        self.sizes = tuple(int(s) for s in sizes)
        self.activation = activation
        self.out_activation = out_activation
        n = sum(a * b + b for a, b in zip(self.sizes, self.sizes[1:]))
        self._bind(np.zeros(n))

    def _bind(self, flat: np.ndarray) -> None:
        self.flat = flat
        self._views = _layer_views(flat, self.sizes)
        self.weights = self._views[0::2]
        self.biases = self._views[1::2]

    # -- parameters ------------------------------------------------------

    def clone(self) -> "Mlp":
        """An independent copy: one buffer copy, no initializer draw."""
        other = copy.copy(self)
        other._bind(self.flat.copy())
        return other

    def _layer_act(self, i: int) -> str:
        return self.out_activation if i == len(self.weights) - 1 else self.activation

    # -- forward / backward ------------------------------------------------

    def forward(self, x: np.ndarray):
        """(output, cache for backward) of a vector of integer codes or
        a 2-D float batch of rows."""
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
        pre, post = [], [x]
        h = x
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = (w[h] if codes and i == 0 else h @ w) + b
            pre.append(z)
            h = _act(self._layer_act(i), z)
            post.append(h)
        cache = {"pre": pre, "post": post, "codes": codes}
        return h, cache

    def backward(self, grad_out: np.ndarray, cache, rows=None):
        """Grads of a scalar loss given d(loss)/d(output) and forward's cache.

        `rows` names the forward rows `grad_out` belongs to (all when
        None); only their activations enter the gradients.  Returns
        (grad, d(loss)/d(input)): `grad` is one fresh 1-D buffer laid
        out like `flat`, ready for `Optimizer.step`; the input gradient
        is None for a code input.
        """
        grad_out = np.asarray(grad_out, dtype=np.float64)
        pre, post = cache["pre"], cache["post"][:-1]
        if rows is not None:
            pre = [z[rows] for z in pre]
            post = [h[rows] for h in post]
        codes = cache["codes"]
        grad = np.empty(self.flat.size)
        views = _layer_views(grad, self.sizes)
        g = grad_out
        for i in range(len(self.weights) - 1, -1, -1):
            g = g * _act_grad(self._layer_act(i), pre[i])
            x = post[i]
            if codes and i == 0:
                x = np.zeros((len(x), self.sizes[0]))
                x[np.arange(len(x)), post[0]] = 1.0
            np.matmul(x.T, g, out=views[2 * i])
            np.sum(g, axis=0, out=views[2 * i + 1])
            if i or not codes:
                g = g @ self.weights[i].T
        if codes:
            return grad, None
        return grad, g

    # -- serialization ------------------------------------------------------

    def to_doc(self) -> dict:
        return {
            "format": _MLP_FORMAT,
            "sizes": list(self.sizes),
            "activation": self.activation,
            "out_activation": self.out_activation,
            "weights": [w.tolist() for w in self.weights],
            "biases": [b.tolist() for b in self.biases],
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "Mlp":
        if doc.get("format") != _MLP_FORMAT:
            raise ConfigurationError(f"unexpected checkpoint format {doc.get('format')!r}")
        net = cls.__new__(cls)
        net._configure(doc["sizes"], doc["activation"], doc["out_activation"])
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
    shape = lambda m: (m.sizes, m.activation, m.out_activation)
    for got, want in zip(loaded, nets):
        if shape(got) != shape(want):
            raise ShapeError(f"checkpoint network {shape(got)} does not match the expected {shape(want)}")
    return loaded


def huber(pred: np.ndarray, target: np.ndarray, delta: float = 1.0):
    """Mean Huber loss and its gradient w.r.t. pred."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ShapeError(f"prediction shape {pred.shape} != target shape {target.shape}")
    err = pred - target
    small = np.abs(err) <= delta
    loss = np.where(small, 0.5 * err**2, delta * (np.abs(err) - 0.5 * delta))
    grad = np.clip(err, -delta, delta) / err.size
    return float(loss.mean()), grad


class Optimizer:
    """Adam over the flat parameter buffer of one `Mlp`, in place.

    `step` takes the network's gradient as the one buffer `Mlp.backward`
    returns, laid out like `net.flat`, and makes one pass over `flat`
    with preallocated scratch; it never writes into the gradient.  Every
    elementwise operation of the per-array update keeps its order, so
    results are bit-identical to updating each layer's array on its own.
    `m` and `v` are Adam's flat moment buffers.  Weight decay is
    decoupled: applied as a direct shrink, never mixed into the adaptive
    moments.  Raises NumericError, naming the parameter's index in the
    layer order w0, b0, w1, b1, ..., as soon as a gradient or an updated
    parameter stops being finite.
    """

    def __init__(self, net: Mlp, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8, weight_decay=0.0):
        if lr <= 0:
            raise ConfigurationError(f"learning rate must be positive, got {lr}")
        self.flat = net.flat
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self._ends = np.cumsum([n for a, b in zip(net.sizes, net.sizes[1:]) for n in (a * b, b)])
        self._scratch = np.empty_like(self.flat)
        self.m = np.zeros_like(self.flat)
        self.v = np.zeros_like(self.flat)
        self._denom = np.empty_like(self.flat)

    def _first_bad(self, flat: np.ndarray) -> int | None:
        """Layer-order index of the array holding the first non-finite entry, or None."""
        if np.isfinite(flat).all():
            return None
        return int(np.searchsorted(self._ends, np.flatnonzero(~np.isfinite(flat))[0], side="right"))

    def step(self, grad: np.ndarray) -> None:
        if np.shape(grad) != self.flat.shape:
            raise ShapeError(f"gradient has shape {np.shape(grad)}, parameters have {self.flat.shape}")
        bad = self._first_bad(grad)
        if bad is not None:
            raise NumericError(f"gradient {bad} is not finite")
        self.t += 1
        p, s, m, v, d = self.flat, self._scratch, self.m, self.v, self._denom
        if self.weight_decay:
            np.multiply(p, self.lr * self.weight_decay, out=s)
            p -= s
        m *= self.beta1
        np.multiply(grad, 1 - self.beta1, out=s)
        m += s
        v *= self.beta2
        np.multiply(grad, 1 - self.beta2, out=s)
        s *= grad
        v += s
        np.divide(m, 1 - self.beta1**self.t, out=s)
        s *= self.lr
        np.divide(v, 1 - self.beta2**self.t, out=d)
        np.sqrt(d, out=d)
        d += self.eps
        s /= d
        p -= s
        bad = self._first_bad(p)
        if bad is not None:
            raise NumericError(f"parameter {bad} became non-finite after update")


def target_update(src_params, dst_params, tau: float | None = None) -> None:
    """Copy (tau=None) or Polyak-average source parameters into targets.

    One operation per array pair, so a list of whole-network buffers
    costs one pass per network.
    """
    src, dst = list(src_params), list(dst_params)
    if len(src) != len(dst):
        raise ShapeError("parameter lists have different lengths")
    for s, d in zip(src, dst):
        if tau is None:
            d[...] = s
        else:
            d *= 1.0 - tau
            d += tau * s


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
    from its own `Mlp.backward`; `backward_mixer` returns the mixer's.
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

    def backward_mixer(self, grad_q: np.ndarray, cache) -> np.ndarray:
        """The mixer's flat gradient given d(loss)/d(joint value).

        The head values count as inputs, so the mixer trains against
        frozen heads.  The average mixer has no parameters to train
        (ConfigurationError).
        """
        if self.mixer is None:
            raise ConfigurationError("the average mixer has no parameters")
        grad_q = np.asarray(grad_q, dtype=np.float64).reshape(-1)
        if grad_q.shape[0] != cache["n"]:
            raise ShapeError("gradient length does not match the cached batch")
        grad, _ = self.mixer.backward(grad_q[:, None], cache["mix_cache"])
        return grad

    # -- action selection -----------------------------------------------------

    def greedy(self, states: np.ndarray, passes: int = 2) -> np.ndarray:
        """Per-block greedy actions via coordinate sweeps through the mixer.

        Costs one trunk forward for the batch, then one stacked mixer
        forward per pass and block; greedy_of_heads runs the sweep.
        """
        z, _ = self.head_values(states)
        return self.greedy_of_heads(z, passes)

    def greedy_of_heads(self, z: np.ndarray, passes: int = 2) -> np.ndarray:
        """Greedy actions for head values `z` (n, head_dim) from head_values.

        Starts at each head's own argmax; each pass re-picks every block
        against the others' current choices.  A block only moves when
        the switch strictly improves the mixed value, so a mixer that is
        flat (e.g. freshly initialized) leaves the per-head argmax in
        place instead of collapsing every block to action 0.  Each pass
        and block scores all b candidates of all n rows with one mixer
        forward over an (n * b, head_dim) stack.
        """
        z = np.atleast_2d(np.asarray(z, dtype=np.float64))
        actions = np.stack([s.argmax(axis=1) for s in self.block_slices(z)], axis=1)
        if self.mixer is None:
            return actions
        n = z.shape[0]
        rows = np.arange(n)
        for _ in range(passes):
            for k, b in enumerate(self.block_sizes):
                cand = np.repeat(actions, b, axis=0)
                cand[:, k] = np.tile(np.arange(b), n)
                scores = self.joint_q_of_heads(np.repeat(z, b, axis=0), cand).reshape(n, b)
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
