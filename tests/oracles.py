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
