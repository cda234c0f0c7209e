"""Independent reference implementations the tests check the library against.

Everything here is deliberately straight-line python over the raw spec
tables: no shared code with the library's vectorized evaluators.
"""

import itertools

import numpy as np


def _sigma_lookup(spec, k, a_k, svals):
    """Forced effect values of block k, by direct table indexing."""
    row = 0
    for v in spec.pre_map[k]:
        row = row * spec.state_vars[v] + svals[v]
    code = int(spec.sigma[k].table[a_k, row])
    eff = spec.eff_map[k]
    out = {}
    for v in reversed(eff):
        out[v] = code % spec.state_vars[v]
        code //= spec.state_vars[v]
    return out


def _factor_lookup(spec, m, svals, nvals):
    """P(next value of var m | parents) by direct table indexing."""
    fac = spec.noop_dynamics[m]
    row = 0
    for v in fac.state_parents:
        row = row * spec.state_vars[v] + svals[v]
    for v in fac.eff_parents:
        row = row * spec.state_vars[v] + nvals[v]
    return float(fac.table[row, nvals[m]])


def enumerate_interventional(spec, s, a_blocks):
    """Joint next-state distribution when every block intervenes."""
    svals = spec.state_radix.decode(s)
    forced = {}
    for k, a_k in enumerate(a_blocks):
        forced.update(_sigma_lookup(spec, k, a_k, svals))
    out = np.zeros(spec.n_states)
    for nvals in itertools.product(*[range(c) for c in spec.state_vars]):
        p = 1.0
        for v, val in forced.items():
            if nvals[v] != val:
                p = 0.0
                break
        if p == 0.0:
            continue
        for m in range(spec.n_vars):
            if m in forced:
                continue
            p *= _factor_lookup(spec, m, svals, nvals)
        out[spec.state_radix.encode(nvals)] = p
    return out


def enumerate_projected(spec, k, s, a_k):
    """Next-state distribution when only block k intervenes."""
    svals = spec.state_radix.decode(s)
    forced = _sigma_lookup(spec, k, a_k, svals)
    out = np.zeros(spec.n_states)
    for nvals in itertools.product(*[range(c) for c in spec.state_vars]):
        p = 1.0
        for v, val in forced.items():
            if nvals[v] != val:
                p = 0.0
                break
        if p == 0.0:
            continue
        for m in range(spec.n_vars):
            if m in forced:
                continue
            p *= _factor_lookup(spec, m, svals, nvals)
        out[spec.state_radix.encode(nvals)] = p
    return out


def solve_q_dense(spec, policy, tol_unused=None):
    """Q_pi by direct dense linear solve: V = (I - gamma P_pi)^-1 r_pi.

    Terminal states are held at value zero and their rows dropped from
    the linear system.
    """
    n = spec.n_states
    term = np.zeros(n, dtype=bool)
    for s in spec.terminal_states:
        term[s] = True
    P = np.zeros((n, n))
    r = np.zeros(n)
    for s in range(n):
        if term[s]:
            continue
        row = enumerate_interventional(spec, s, policy.joint_action(s))
        P[s] = row
        r[s] = row @ spec.reward[s]
    free = ~term
    A = np.eye(free.sum()) - spec.discount * P[np.ix_(free, free)]
    v = np.zeros(n)
    v[free] = np.linalg.solve(A, r[free])
    q = np.zeros((n, spec.n_actions))
    for s in range(n):
        if term[s]:
            continue
        for a in range(spec.n_actions):
            row = enumerate_interventional(spec, s, spec.action_as_blocks(a))
            q[s, a] = row @ (spec.reward[s] + spec.discount * v)
    return q, v


def layer_views(buf, sizes):
    """[w0, b0, w1, b1, ...] as views of a buffer laid out like `Mlp.flat`."""
    views, pos = [], 0
    for n_in, n_out in zip(sizes, sizes[1:]):
        for shape in ((n_in, n_out), (n_out,)):
            n = int(np.prod(shape))
            views.append(buf[pos : pos + n].reshape(shape))
            pos += n
    return views


def finite_difference_grads(loss_fn, params, h=1e-5):
    """Central finite differences of loss_fn() w.r.t. a list of arrays."""
    grads = []
    for p in params:
        g = np.zeros_like(p)
        flat = p.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi = loss_fn()
            flat[i] = orig - h
            lo = loss_fn()
            flat[i] = orig
            gflat[i] = (hi - lo) / (2 * h)
        grads.append(g)
    return grads


def enumerate_optimal_values(spec):
    """Optimal state values by brute force over every deterministic joint
    policy: one batched dense solve per policy class, elementwise max.

    Only usable on small discounted specs without terminal states.
    """
    n, A = spec.n_states, spec.n_actions
    assert not spec.terminal_states and spec.discount < 1.0
    assert A**n <= 1 << 20, "policy space too large to enumerate"
    P = np.zeros((n, A, n))
    r = np.zeros((n, A))
    for s in range(n):
        for a in range(A):
            row = enumerate_interventional(spec, s, spec.action_as_blocks(a))
            P[s, a] = row
            r[s, a] = row @ spec.reward[s]
    codes = np.arange(A**n)
    digits = (codes[:, None] // A ** np.arange(n)) % A  # (n_policies, n)
    P_pi = P[np.arange(n)[None, :], digits]  # (n_policies, n, n)
    r_pi = r[np.arange(n)[None, :], digits]
    eye = np.eye(n)
    values = np.linalg.solve(eye[None] - spec.discount * P_pi, r_pi[..., None])[..., 0]
    return values.max(axis=0), values


def coordinate_sweep_greedy(net, states, passes=2):
    """Greedy joint actions by re-running `net.joint_q` on every candidate.

    Starts at each head's argmax; each pass re-picks every block against
    the others' current choices, moving only on a strict improvement.
    """
    states = np.atleast_2d(np.asarray(states, dtype=np.float64))
    z, _ = net.head_values(states)
    actions = np.stack(
        [z[:, net.offsets[k] : net.offsets[k + 1]].argmax(axis=1) for k in range(len(net.block_sizes))],
        axis=1,
    )
    if net.mixer is None:
        return actions
    rows = np.arange(states.shape[0])
    for _ in range(passes):
        for k, b in enumerate(net.block_sizes):
            scores = np.empty((states.shape[0], b))
            for a in range(b):
                cand = actions.copy()
                cand[:, k] = a
                scores[:, a], _ = net.joint_q(states, cand)
            best = scores.argmax(axis=1)
            improves = scores[rows, best] > scores[rows, actions[:, k]]
            actions[improves, k] = best[improves]
    return actions


class ListRing:
    """Fixed-capacity FIFO as a python list of row tuples.

    Overwrites the oldest slot once full; `recent` walks back from the
    write cursor.  Draws the same `rng.integers` as the library's ring.
    """

    def __init__(self, capacity):
        self.capacity = capacity
        self.rows = []
        self.cursor = 0

    def append(self, row):
        if len(self.rows) < self.capacity:
            self.rows.append(row)
        else:
            self.rows[self.cursor] = row
        self.cursor = (self.cursor + 1) % self.capacity

    def sample(self, rng, n):
        idx = rng.integers(0, len(self.rows), size=n)
        return [self.rows[i] for i in idx]

    def recent(self, n):
        if len(self.rows) < self.capacity:
            return self.rows[-n:] if n < len(self.rows) else list(self.rows)
        n = min(n, self.capacity)
        return [self.rows[(self.cursor - i) % self.capacity] for i in range(n, 0, -1)]

    def sample_recent(self, rng, n, window):
        pool = self.recent(window)
        idx = rng.integers(0, len(pool), size=n)
        return [pool[i] for i in idx]


def choice_rows(rows, rng):
    """One `rng.choice(len(row), p=row)` call per row, in row order."""
    return np.array([rng.choice(len(row), p=row) for row in rows], dtype=np.int64)


class ListAdam:
    """Adam over a list of separate arrays, one array at a time.

    Decoupled weight decay shrinks each array before its update; every
    update allocates its temporaries.  Raises NumericError naming the
    first array whose gradient, or whose updated value, is not finite.
    """

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8, weight_decay=0.0):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self.m = [np.zeros_like(p) for p in self.params]
        self.v = [np.zeros_like(p) for p in self.params]

    def step(self, grads):
        from frl.errors import NumericError

        self.t += 1
        for i, (p, g) in enumerate(zip(self.params, grads)):
            if not np.isfinite(g).all():
                raise NumericError(f"gradient {i} is not finite")
            if self.weight_decay:
                p -= self.lr * self.weight_decay * p
            self.m[i] = self.beta1 * self.m[i] + (1 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1 - self.beta2) * g * g
            m_hat = self.m[i] / (1 - self.beta1**self.t)
            v_hat = self.v[i] / (1 - self.beta2**self.t)
            p -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
            if not np.isfinite(p).all():
                raise NumericError(f"parameter {i} became non-finite after update")


def _log_softmax(z):
    z = z - z.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


def _filtered_argmax(q, logp, tau):
    probs = np.exp(logp)
    allowed = probs / probs.max(axis=1, keepdims=True) >= tau
    allowed[~allowed.any(axis=1)] = True
    return np.where(allowed, q, -np.inf).argmax(axis=1)


def bcq_tick_reference(net, target_net, opts, batch, tau, discount):
    """One step per block, then one on the mixers, of a decomposed BcqNet.

    Written the direct way: states are one-hot feature rows, and every
    forward runs the embedding and all heads (and the mixer) over the
    batch's own rows, next states and states separately, right before
    the value is used.  Networks are read from `net.nets` by name, and
    `opts` maps the same names to `ListAdam`s over each network's
    per-layer arrays, which are fed the per-layer views of each flat
    gradient.
    """
    from frl.approx import huber

    eye = np.eye(net.state_dim)
    x_next, x = eye[batch.next_states], eye[batch.states]
    n = len(batch.rewards)
    rows = np.arange(n)
    actions = batch.actions

    def heads(model, feats, path):
        e, e_cache = model.nets[f"{path}_embed"].forward(feats)
        outs = [h.forward(e) for h in model.nets[f"{path}_heads"]]
        return np.concatenate([o for o, _ in outs], axis=1), e_cache, [c for _, c in outs]

    def mixed(model, feats, path):
        z, _, _ = heads(model, feats, path)
        return model.nets[f"{path}_mixer"].forward(z)

    for k in range(net.n_blocks):
        sl = slice(int(net.offsets[k]), int(net.offsets[k + 1]))
        a_k = actions[:, k]
        q_next = heads(net, x_next, "q")[0][:, sl]
        g_next = heads(net, x_next, "g")[0][:, sl]
        a_star = _filtered_argmax(q_next, _log_softmax(g_next), tau)
        targets = batch.rewards + discount * (1.0 - batch.dones) * heads(target_net, x_next, "q")[0][:, sl][rows, a_star]
        for path in ("q", "g"):
            z, e_cache, h_caches = heads(net, x, path)
            if path == "q":
                _, dq = huber(z[:, sl][rows, a_k], targets)
                dz = np.zeros((n, sl.stop - sl.start))
                dz[rows, a_k] = dq
            else:
                dz = np.exp(_log_softmax(z[:, sl]))
                dz[rows, a_k] -= 1.0
                dz = dz / n
            head = net.nets[f"{path}_heads"][k]
            embed = net.nets[f"{path}_embed"]
            head_grad, d_embed = head.backward(dz, h_caches[k])
            embed_grad, _ = embed.backward(d_embed, e_cache)
            opts[f"{path}_heads"][k].step(layer_views(head_grad, head.sizes))
            opts[f"{path}_embed"].step(layer_views(embed_grad, embed.sizes))

    qm_next, _ = mixed(net, x_next, "q")
    gm_next, _ = mixed(net, x_next, "g")
    qm_next_t, _ = mixed(target_net, x_next, "q")
    for path in ("q", "g"):
        out, cache = mixed(net, x, path)
        dz = np.zeros_like(out)
        for k in range(net.n_blocks):
            sl = slice(int(net.offsets[k]), int(net.offsets[k + 1]))
            if path == "q":
                a_star = _filtered_argmax(qm_next[:, sl], _log_softmax(gm_next[:, sl]), tau)
                targets = batch.rewards + discount * (1.0 - batch.dones) * qm_next_t[:, sl][rows, a_star]
                _, dq = huber(out[:, sl][rows, actions[:, k]], targets)
                dz[rows, sl.start + actions[:, k]] += dq
            else:
                d = np.exp(_log_softmax(out[:, sl]))
                d[rows, actions[:, k]] -= 1.0
                dz[:, sl] = d / n
        mixer = net.nets[f"{path}_mixer"]
        grad, _ = mixer.backward(dz, cache)
        opts[f"{path}_mixer"].step(layer_views(grad, mixer.sizes))


def wis_ess_reference(episodes, target, gamma=1.0, clip=1000.0):
    """Weighted importance sampling one episode and one step at a time.

    Returns (wis, ess, episode_weights, step_averages, clip_count): the
    cumulative ratio is a running python product, clipped per step, and
    a finished episode's row holds its final clipped ratio.
    """
    m = len(episodes)
    max_len = max(len(ep) for ep in episodes)
    cum = np.zeros((m, max_len))
    returns = np.zeros(m)
    clip_count = 0
    for j, ep in enumerate(episodes):
        ratio = 1.0
        for t in range(len(ep)):
            ratio *= float(target[int(ep.states[t]), int(ep.actions[t])]) / float(ep.propensities[t])
            if ratio > clip:
                clip_count += 1
            cum[j, t] = min(ratio, clip)
        cum[j, len(ep):] = cum[j, len(ep) - 1]
        returns[j] = float(np.sum(ep.rewards * gamma ** np.arange(len(ep))))
    step_avg = cum.mean(axis=0)
    final = np.array([cum[j, len(ep) - 1] for j, ep in enumerate(episodes)])
    final_avg = np.array([step_avg[len(ep) - 1] for ep in episodes])
    wis = float(np.mean(final / final_avg * returns))
    ess = float(np.sum(final) ** 2 / np.sum(final**2))
    return wis, ess, final, step_avg, clip_count
