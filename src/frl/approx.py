"""Small float64 networks with hand-written backward passes.

Everything here is deliberately explicit: dense layers as plain numpy
arrays, forward passes that return their caches, backward passes that
walk the caches in reverse.  Gradients are cross-checked against
central finite differences in the tests, which is the point of keeping
the arithmetic visible.

`DecomposedQNet` is the factored-action value network: one head of
action values per block off a shared trunk, plus a mixer that reads the
per-block values selected by a joint action and produces the joint
value.  Mixers come in three shapes: a parameter-free average, a
two-layer linear bottleneck, and a three-layer ReLU network.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import ConfigurationError, NumericError, ShapeError

_MLP_FORMAT = "frl-mlp-v1"
_DECQ_FORMAT = "frl-decq-v1"


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    a = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-a, a, size=(fan_in, fan_out))


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


class Mlp:
    """Dense network; sizes[0] inputs, sizes[-1] outputs.

    `activation` applies to hidden layers, `out_activation` to the last
    layer.  Forward returns its cache next to the output and backward
    takes it back, so interleaved evaluations on one network each keep
    their own.
    """

    def __init__(self, sizes, activation="relu", out_activation="identity", rng=None):
        if len(sizes) < 2:
            raise ConfigurationError("network needs at least input and output sizes")
        _act(activation, np.zeros(1))
        _act(out_activation, np.zeros(1))
        self.sizes = tuple(int(s) for s in sizes)
        self.activation = activation
        self.out_activation = out_activation
        rng = rng or np.random.default_rng()
        self.weights = [
            glorot_uniform(rng, self.sizes[i], self.sizes[i + 1]) for i in range(len(sizes) - 1)
        ]
        self.biases = [np.zeros(self.sizes[i + 1]) for i in range(len(sizes) - 1)]

    # -- parameters ------------------------------------------------------

    def params(self) -> list[np.ndarray]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out

    def _layer_act(self, i: int) -> str:
        return self.out_activation if i == len(self.weights) - 1 else self.activation

    # -- forward / backward ------------------------------------------------

    def forward(self, x: np.ndarray):
        """(output, cache for backward); a 1-D input gives a 1-D output."""
        x = np.asarray(x, dtype=np.float64)
        squeeze = x.ndim == 1
        if squeeze:
            x = x[None, :]
        if x.shape[1] != self.sizes[0]:
            raise ShapeError(f"input has {x.shape[1]} features, network expects {self.sizes[0]}")
        pre, post = [], [x]
        h = x
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = h @ w + b
            pre.append(z)
            h = _act(self._layer_act(i), z)
            post.append(h)
        cache = {"pre": pre, "post": post, "squeeze": squeeze}
        return (h[0] if squeeze else h), cache

    def backward(self, grad_out: np.ndarray, cache):
        """Grads of a scalar loss given d(loss)/d(output) and forward's cache.

        Returns (param_grads aligned with params(), d(loss)/d(input)).
        """
        grad_out = np.asarray(grad_out, dtype=np.float64)
        if cache["squeeze"] and grad_out.ndim == 1:
            grad_out = grad_out[None, :]
        pre, post = cache["pre"], cache["post"]
        g = grad_out
        w_grads = [None] * len(self.weights)
        b_grads = [None] * len(self.biases)
        for i in range(len(self.weights) - 1, -1, -1):
            g = g * _act_grad(self._layer_act(i), pre[i])
            w_grads[i] = post[i].T @ g
            b_grads[i] = g.sum(axis=0)
            g = g @ self.weights[i].T
        grads = []
        for wg, bg in zip(w_grads, b_grads):
            grads.append(wg)
            grads.append(bg)
        dx = g[0] if cache["squeeze"] else g
        return grads, dx

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
        net = cls(doc["sizes"], doc["activation"], doc["out_activation"], rng=np.random.default_rng(0))
        net.weights = [np.asarray(w, dtype=np.float64) for w in doc["weights"]]
        net.biases = [np.asarray(b, dtype=np.float64) for b in doc["biases"]]
        for w, s_in, s_out in zip(net.weights, net.sizes, net.sizes[1:]):
            if w.shape != (s_in, s_out):
                raise ShapeError(f"checkpoint weight shape {w.shape} does not match sizes")
        return net

    def to_json(self) -> str:
        return json.dumps(self.to_doc())

    @classmethod
    def from_json(cls, text: str) -> "Mlp":
        return cls.from_doc(json.loads(text))


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
    """SGD or Adam over a fixed list of live parameter arrays.

    Weight decay is decoupled: applied as a direct shrink, never mixed
    into the adaptive moments.  Raises NumericError as soon as a
    gradient or an updated parameter stops being finite.
    """

    def __init__(self, params, kind="adam", lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8, weight_decay=0.0):
        if kind not in ("sgd", "adam"):
            raise ConfigurationError(f"unknown optimizer {kind!r}")
        if lr <= 0:
            raise ConfigurationError(f"learning rate must be positive, got {lr}")
        self.params = list(params)
        self.kind = kind
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        if kind == "adam":
            self.m = [np.zeros_like(p) for p in self.params]
            self.v = [np.zeros_like(p) for p in self.params]

    def step(self, grads) -> None:
        grads = list(grads)
        if len(grads) != len(self.params):
            raise ShapeError(f"got {len(grads)} gradients for {len(self.params)} parameters")
        self.t += 1
        for i, (p, g) in enumerate(zip(self.params, grads)):
            g = np.asarray(g, dtype=np.float64)
            if g.shape != p.shape:
                raise ShapeError(f"gradient {i} has shape {g.shape}, parameter has {p.shape}")
            if not np.isfinite(g).all():
                raise NumericError(f"gradient {i} is not finite")
            if self.weight_decay:
                p -= self.lr * self.weight_decay * p
            if self.kind == "sgd":
                p -= self.lr * g
            else:
                self.m[i] = self.beta1 * self.m[i] + (1 - self.beta1) * g
                self.v[i] = self.beta2 * self.v[i] + (1 - self.beta2) * g * g
                m_hat = self.m[i] / (1 - self.beta1**self.t)
                v_hat = self.v[i] / (1 - self.beta2**self.t)
                p -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
            if not np.isfinite(p).all():
                raise NumericError(f"parameter {i} became non-finite after update")


def target_update(src_params, dst_params, tau: float | None = None) -> None:
    """Copy (tau=None) or Polyak-average source parameters into targets."""
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

    def head_params(self) -> list[np.ndarray]:
        out = []
        for t in self.trunks:
            out.extend(t.params())
        return out

    def mixer_params(self) -> list[np.ndarray]:
        return [] if self.mixer is None else self.mixer.params()

    def params(self) -> list[np.ndarray]:
        return self.head_params() + self.mixer_params()

    def clone(self) -> "DecomposedQNet":
        other = DecomposedQNet(
            self.state_dim,
            self.block_sizes,
            hidden=self.hidden,
            mixer=self.mixer_kind,
            mixer_hidden=self.mixer_hidden,
            shared_trunk=self.shared_trunk,
            rng=np.random.default_rng(0),
        )
        target_update(self.params(), other.params())
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

        Returns (values (n,), cache for backward_joint).
        """
        z, head_caches = self.head_values(states)
        mask = self._mask(actions)
        q, mix_cache = self._mix(z * mask)
        cache = {"head_caches": head_caches, "mask": mask, "mix_cache": mix_cache, "n": z.shape[0]}
        return q, cache

    def joint_q_of_heads(self, z: np.ndarray, actions: np.ndarray) -> np.ndarray:
        """Joint values (n,) from head values `z` that head_values returned."""
        return self._mix(z * self._mask(actions))[0]

    def backward_joint(self, grad_q: np.ndarray, cache, detach_heads: bool = False):
        """Backprop d(loss)/d(joint value) through mixer and heads.

        Returns (head_grads aligned with head_params(), mixer_grads
        aligned with mixer_params()).  With detach_heads=True the head
        gradients are zeros: the mixer trains against frozen head
        values.
        """
        grad_q = np.asarray(grad_q, dtype=np.float64).reshape(-1)
        if grad_q.shape[0] != cache["n"]:
            raise ShapeError("gradient length does not match the cached batch")
        mask = cache["mask"]
        if self.mixer is None:
            mixer_grads = []
            d_masked = grad_q[:, None] * mask / len(self.block_sizes)
        else:
            mixer_grads, d_masked = self.mixer.backward(grad_q[:, None], cache["mix_cache"])
        if detach_heads:
            return [np.zeros_like(p) for p in self.head_params()], mixer_grads
        dz = d_masked * mask
        head_grads = []
        if self.shared_trunk:
            grads, _ = self.trunks[0].backward(dz, cache["head_caches"][0])
            head_grads.extend(grads)
        else:
            for k, t in enumerate(self.trunks):
                grads, _ = t.backward(dz[:, self.offsets[k] : self.offsets[k + 1]], cache["head_caches"][k])
                head_grads.extend(grads)
        return head_grads, mixer_grads

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
        net.trunks = [Mlp.from_doc(d) for d in doc["trunks"]]
        if doc["mixer_net"] is not None:
            net.mixer = Mlp.from_doc(doc["mixer_net"])
        return net

    def to_json(self) -> str:
        return json.dumps(self.to_doc())

    @classmethod
    def from_json(cls, text: str) -> "DecomposedQNet":
        return cls.from_doc(json.loads(text))
