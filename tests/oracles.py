"""Independent reference implementations the tests check the library against.

Everything here is deliberately straight-line python over the raw spec
tables: no shared code with the library's vectorized evaluators.  The
exceptions say so: `dense_support` lists each query's support from the
library's pinned and drawn variables, `transition_rows` scatters it into
dense rows, which the enumeration oracles check, and the dense planning
references and the offline dataset reference build their rows with it.
`exact_q` runs the library's solve and backups on the reweighted
projected supports, `offline_selection_reference` runs the library's
trainer and scorers one tau after another in this process, and
`theorem_sample_bounds` reads the library's domain sizes.
"""

import itertools
import math

import numpy as np

from frl.agents import ad_bcq_train, checkpoint_candidates, episodes_to_transitions, offline_preset
from frl.cli import split_episodes
from frl.envs import SyntheticSpec, generate_synthetic
from frl.errors import ConfigurationError, DomainError, NumericError
from frl.factored_mdp import (
    FactoredMdpSpec,
    NoopFactor,
    QTable,
    SigmaTable,
    _check_block,
    _check_codes,
    _checked_query,
    _forced_codes,
    _q_columns,
    _q_table,
    _solve,
    _successor_args,
    _terminal_mask,
    evaluate,
    q_table,
)
from frl.indexing import MixedRadix
from frl.ope import EpisodeLog, select_model, soften, wis_ess
from frl.tabular import JointPiResult, _bound_sizes, learn_model


def dense_support(spec, states, blocks, intervening=None):
    """The next states each (state, block actions) query can reach, as
    (n, D) codes and probs: the base code plus every assignment of the
    drawn variables (`factored_mdp._successor_args`), and the product of
    their factor probabilities at that code, in drawing order.  Blocks
    in `intervening` (every block when None) pin their effect variables
    to their intervention-table values; every other variable follows
    its no-op factor, conditioning on the candidate next state for its
    eff parents.  With every block intervening, `factored_mdp._support`
    lists the same codes and probabilities bit for bit.  Trusts the
    codes."""
    states, base, drawn = _successor_args(spec, states, blocks, intervening)
    offsets = np.zeros(1, dtype=np.int64)
    for m in drawn:
        offsets = (offsets[:, None] + np.arange(spec.state_vars[m]) * spec.state_radix.strides[m]).reshape(-1)
    codes = base[:, None] + offsets
    probs = np.ones(codes.shape)
    for m in drawn:
        state_rows, _, p = spec._index.factors[m]
        probs *= np.take(p, state_rows[states][:, None] * spec.n_states + codes)
    return codes, probs


def transition_rows(spec, states, blocks, intervening=None):
    """Next-state distributions of a batch of (state, block actions) pairs.

    Row i of the (n, n_states) result is P(s' | states[i], blocks[i]):
    `dense_support`'s reachable next states and probabilities, scattered
    into a dense row.  `blocks` is (n, n_blocks), or one action per block
    for every row; blocks in `intervening` (every block when None) pin
    their effect variables.  Codes are checked as the library's public
    entry points check them.
    """
    codes, probs = dense_support(spec, *_checked_query(spec, states, blocks), intervening)
    out = np.zeros((len(codes), spec.n_states))
    np.put_along_axis(out, codes, probs, axis=1)
    return out


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


def _path_probability(spec, svals, forced, nvals):
    """0 unless next values `nvals` carry the `forced` ones, else the
    product of every other variable's no-op probability along them."""
    for v, val in forced.items():
        if nvals[v] != val:
            return 0.0
    p = 1.0
    for m in range(spec.n_vars):
        if m not in forced:
            p *= _factor_lookup(spec, m, svals, nvals)
    return p


def _enumerate(spec, svals, forced):
    out = np.zeros(spec.n_states)
    for nvals in itertools.product(*[range(c) for c in spec.state_vars]):
        out[spec.state_radix.encode(nvals)] = _path_probability(spec, svals, forced, nvals)
    return out


def enumerate_interventional(spec, s, a_blocks):
    """Joint next-state distribution when every block intervenes."""
    svals = spec.state_radix.decode(s)
    forced = {}
    for k, a_k in enumerate(a_blocks):
        forced.update(_sigma_lookup(spec, k, a_k, svals))
    return _enumerate(spec, svals, forced)


def enumerate_projected(spec, k, s, a_k):
    """Next-state distribution when only block k intervenes."""
    svals = spec.state_radix.decode(s)
    return _enumerate(spec, svals, _sigma_lookup(spec, k, a_k, svals))


def draw_probability(spec, s, a_blocks, s_next, intervening=None):
    """P(s_next | s, a_blocks) read along the one path to s_next, with the
    blocks in `intervening` (all when None) pinning their effect values."""
    svals = spec.state_radix.decode(s)
    forced = {}
    for k in range(spec.n_blocks) if intervening is None else intervening:
        forced.update(_sigma_lookup(spec, k, a_blocks[k], svals))
    return _path_probability(spec, svals, forced, spec.state_radix.decode(s_next))


# -- the reweighting identity -------------------------------------------------


def _propensity(spec, k, states, blocks, codes):
    """(consistent, rho), both shaped like the (n, m) next-state `codes`,
    over the blocks i != k acting with blocks[j] from states[j]: whether
    codes[j] carries every such block's forced values, and the product of
    the no-op probabilities of those values."""
    consistent = np.ones(codes.shape, dtype=bool)
    rho = np.ones(codes.shape)
    for i in range(spec.n_blocks):
        if i == k:
            continue
        consistent &= spec._index.eff_codes[i][codes] == _forced_codes(spec, i, states, blocks[:, i])[:, None]
        for v in spec.eff_map[i]:
            state_rows, _, p = spec._index.factors[v]
            rho *= np.take(p, state_rows[states][:, None] * spec.n_states + codes)
    return consistent, rho


def noop_propensity(spec, k, s, s_next, a):
    """Product over blocks i != k of the no-op probability of the effect
    values that block i's intervention would have forced.

    Requires s_next to be consistent with those forced values; dividing
    the projected transition by this propensity recovers the fully
    interventional transition on its support.
    """
    k = _check_block(spec, k)
    blocks = np.array([spec.action_as_blocks(a)])
    _check_codes(spec, np.array([s, s_next]), blocks)
    consistent, rho = _propensity(spec, k, np.array([s]), blocks, np.array([[s_next]]))
    if not consistent[0, 0]:
        raise DomainError(
            f"next state {s_next} does not carry the values the other blocks' "
            f"interventions force from state {s}"
        )
    if rho[0, 0] <= 0.0:
        raise NumericError(
            "a no-op factor has zero probability at an intervened value; "
            "reweighting is undefined without positivity"
        )
    return float(rho[0, 0])


def _reweighted_support(spec, k, blocks):
    """Block k's projected support, divided by the no-op propensity of
    the other blocks' forced values on the next states consistent with
    them and 0 on the others.

    This renormalizes the projected transition onto the slice where
    every other block's intervention holds.
    """
    states = np.arange(spec.n_states)
    codes, probs = dense_support(spec, states, blocks, intervening=(k,))
    consistent, rho = _propensity(spec, k, states, blocks, codes)
    support = (probs > 0) & consistent
    empty = ~support.any(axis=1) & ~_terminal_mask(spec)
    if empty.any():
        raise NumericError(
            f"no next state is consistent with the pinned interventions from state "
            f"{int(np.flatnonzero(empty)[0])}; a no-op factor assigns zero probability "
            f"to an intervened value"
        )
    return codes, np.divide(probs, rho, out=np.zeros_like(probs), where=support)


def _compact(supports):
    """Dense (codes, probs) supports over every state, one per column, in
    `factored_mdp._support`'s (base, offsets, index, rows) form with one
    row per query: the codes share their offsets, and the first is 0."""
    codes = np.stack([c for c, _ in supports])
    rows = np.concatenate([p for _, p in supports])
    return codes[:, :, 0], codes[0, 0] - codes[0, 0, 0], np.arange(len(rows)).reshape(codes.shape[:2]), rows


def exact_q(spec, policy, block=None):
    """Exact action-value table of a deterministic factored policy.

    With block=None the table covers joint actions and uses the fully
    interventional transition.  With block=k the table covers block k's
    projected actions and is computed through the projected transition
    reweighted by the no-op propensity of the remaining blocks, whose
    actions are pinned to the policy.  The two routes agree state-wise:
    the joint value function equals the reweighted projected one.
    """
    policy.check(spec)
    blocks = policy.blocks.T
    if block is None:
        return q_table(spec, evaluate(spec, blocks))
    k = _check_block(spec, block)
    values = _solve(spec, _compact([_reweighted_support(spec, k, blocks)]))
    columns = [_reweighted_support(spec, k, b) for b in _q_columns(spec, blocks, k)]
    return _q_table(spec, values, _compact(columns))


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


def finite_horizon_values(spec, horizon, policy=None):
    """Backward-induction state values over a fixed horizon.

    With a policy the values are that policy's; without one they are
    optimal.  Terminal states stay at zero throughout.  Unlike the rest
    of this file it composes the library's `q_table` over joint actions,
    so checking it against enumeration checks that.
    """
    v = np.zeros(spec.n_states)
    for _ in range(horizon):
        q = q_table(spec, v)
        v = q.table.max(axis=1) if policy is None else q.values(policy.joint_codes(spec))
    return v


def solve_dense(spec, rows):
    """State values of the policy whose dense (S, S) transition rows are
    `rows`: r and I - discount P read every entry of each row, zeros
    included, and one dense linear solve runs over the non-terminal
    states.  It is the dense LU reference for `factored_mdp._solve`'s
    GMRES on the support, which must match it up to float noise."""
    free = ~_terminal_mask(spec)
    r = np.einsum("ij,ij->i", rows, spec.reward)[free]
    values = np.zeros(spec.n_states)
    values[free] = np.linalg.solve(np.eye(len(r)) - spec.discount * rows[np.ix_(free, free)], r)
    return values


def evaluate_dense(spec, blocks):
    """`factored_mdp.evaluate` over the dense rows of `transition_rows`."""
    return solve_dense(spec, transition_rows(spec, np.arange(spec.n_states), blocks))


def q_table_dense(spec, values, blocks=None, k=None):
    """`factored_mdp.q_table` over dense rows: each column builds its
    (S, S) rows with `transition_rows` and sums every entry of
    rows * (reward + discount V), zeros included."""
    if k is None:
        columns = spec.action_radix.table()
    else:
        columns = np.repeat(np.asarray(blocks, dtype=np.int64)[None], spec.block_sizes[k], axis=0)
        columns[:, :, k] = np.arange(spec.block_sizes[k])[:, None]
    states = np.arange(spec.n_states)
    target = spec.reward + spec.discount * np.asarray(values)
    q = np.stack([np.einsum("ij,ij->i", transition_rows(spec, states, b), target) for b in columns], axis=1)
    q[_terminal_mask(spec)] = 0.0
    return QTable(q)


def joint_policy_iteration_dense(spec, max_iters=500):
    """`tabular.joint_policy_iteration` from the all-zero policy over dense
    rows: each iteration runs `evaluate_dense` at the policy and
    `q_table_dense` at its values, then keeps the incumbent up to float
    noise and sets terminal states to action 0."""
    actions = spec.action_radix.table()
    term = _terminal_mask(spec)
    policy = np.zeros(spec.n_states, dtype=np.int64)
    for it in range(max_iters):
        values = evaluate_dense(spec, actions[policy])
        q = q_table_dense(spec, values)
        new_policy = q.greedy(incumbent=policy)
        new_policy[term] = 0
        if np.array_equal(new_policy, policy):
            return JointPiResult(policy, q, values, it + 1)
        policy = new_policy
    raise AssertionError(f"dense joint policy iteration did not converge in {max_iters} iterations")


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


def offline_dataset_reference(spec, behavior, episodes, seed, horizon=20):
    """Logged episodes of `behavior` on `spec` with one `rng.choice` call
    per draw: the initial state, then each step's joint action and next
    state, from dense rows built by `transition_rows`."""
    rng = np.random.default_rng(seed)
    rows = np.empty((spec.n_states, spec.n_actions, spec.n_states))
    for a, blocks in enumerate(spec.action_radix.table()):
        rows[:, a] = transition_rows(spec, np.arange(spec.n_states), blocks)
    out = []
    for _ in range(episodes):
        s = int(rng.choice(spec.n_states, p=spec.init_dist))
        states, actions, rewards, props = [], [], [], []
        for _ in range(horizon):
            a = int(rng.choice(spec.n_actions, p=behavior[s]))
            s_next = int(rng.choice(spec.n_states, p=rows[s, a]))
            states.append(s)
            actions.append(a)
            rewards.append(float(spec.reward[s, s_next]))
            props.append(float(behavior[s, a]))
            s = s_next
            if s in spec.terminal_states:
                break
        out.append(EpisodeLog(np.array(states), np.array(actions), np.array(rewards), np.array(props), s))
    return out


class ListAdam:
    """Adam over a list of separate arrays, one array at a time.

    Decoupled weight decay shrinks each array before its update; every
    update allocates its temporaries.  Raises NumericError naming the
    first array whose gradient, or whose updated value, is not finite.
    """

    def __init__(self, params, *, beta1, beta2, eps, lr=1e-3, weight_decay=0.0):
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
    """One step per block, then one on the mixers, of a BcqNet of any shape.

    Written the direct way: states are one-hot feature rows, and every
    forward runs the whole path (the embedding and all heads, or the
    monolithic net, and the mixer) over the batch's own rows, next
    states and states separately, right before the value is used; every
    backward runs over those rows as they are, duplicates included.
    Networks are read from `net.nets` by name, and `opts` maps the same
    names to `ListAdam`s over each network's per-layer arrays, which are
    fed the per-layer views of each flat gradient.  Monolithic shapes
    have no mixers.
    """
    from frl.approx import huber

    eye = np.eye(net.state_dim)
    x_next, x = eye[batch.next_states], eye[batch.states]
    n = len(batch.rewards)
    rows = np.arange(n)
    actions = batch.actions
    decomposed = net.variant == "decomposed"

    def heads(model, feats, path):
        """Every block's outputs, and a function that backprops block
        k's column gradient through the networks that made them."""
        if not decomposed:
            whole = model.nets[f"{path}_net"]
            out, cache = whole.forward(feats)

            def back(k, sl, dz):
                full = np.zeros((n, out.shape[1]))
                full[:, sl] = dz
                opts[f"{path}_net"].step(layer_views(whole.backward(full, cache)[0], whole.sizes))

            return out, back
        embed = model.nets[f"{path}_embed"]
        e, e_cache = embed.forward(feats)
        outs = [h.forward(e) for h in model.nets[f"{path}_heads"]]

        def back(k, sl, dz):
            head = model.nets[f"{path}_heads"][k]
            head_grad, d_embed = head.backward(dz, outs[k][1])
            embed_grad, _ = embed.backward(d_embed, e_cache)
            opts[f"{path}_heads"][k].step(layer_views(head_grad, head.sizes))
            opts[f"{path}_embed"].step(layer_views(embed_grad, embed.sizes))

        return np.concatenate([o for o, _ in outs], axis=1), back

    def mixed(model, feats, path):
        z, _ = heads(model, feats, path)
        return model.nets[f"{path}_mixer"].forward(z)

    for k in range(net.n_blocks):
        sl = slice(int(net.offsets[k]), int(net.offsets[k + 1]))
        a_k = actions[:, k]
        q_next = heads(net, x_next, "q")[0][:, sl]
        g_next = heads(net, x_next, "g")[0][:, sl]
        a_star = _filtered_argmax(q_next, _log_softmax(g_next), tau)
        targets = batch.rewards + discount * (1.0 - batch.dones) * heads(target_net, x_next, "q")[0][:, sl][rows, a_star]
        for path in ("q", "g"):
            z, back = heads(net, x, path)
            if path == "q":
                _, dq = huber(z[:, sl][rows, a_k], targets)
                dz = np.zeros((n, sl.stop - sl.start))
                dz[rows, a_k] = dq
            else:
                dz = np.exp(_log_softmax(z[:, sl]))
                dz[rows, a_k] -= 1.0
                dz = dz / n
            back(k, sl, dz)
    if not decomposed:
        return

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
        opts[f"{path}_mixer"].step(layer_views(mixer.backward(dz, cache)[0], mixer.sizes))


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


def _row_code(spec, variables, values):
    """Mixed-radix code of `values[v]` over `variables`, first most significant."""
    code = 0
    for v in variables:
        code = code * spec.state_vars[v] + int(values[v])
    return code


def learn_model_reference(skeleton, states, actions, rewards, next_states, block_tags=None):
    """`tabular.learn_model` one logged row at a time.

    Every precondition, effect and no-op row code is written out from
    the decoded state values, and each count and reward lands with one
    python `+=` in row order.
    """
    from frl.tabular import LearnedModel

    sk = skeleton
    sigma_counts = [
        np.zeros((sk.block_sizes[k], sk.pre_radix[k].size, sk.eff_radix[k].size), dtype=np.int64)
        for k in range(sk.n_blocks)
    ]
    noop_counts = [np.zeros_like(fac.table, dtype=np.int64) for fac in sk.noop_dynamics]
    reward_sum = np.zeros((sk.n_states, sk.n_states))
    reward_count = np.zeros((sk.n_states, sk.n_states), dtype=np.int64)
    for i in range(len(states)):
        s, s_next = int(states[i]), int(next_states[i])
        svals = sk.state_radix.decode(s)
        nvals = sk.state_radix.decode(s_next)
        tag = -1 if block_tags is None else int(block_tags[i])
        taught = list(range(sk.n_blocks)) if tag == -1 else [tag]
        for k in taught:
            pre_row = _row_code(sk, sk.pre_map[k], svals)
            eff_code = _row_code(sk, sk.eff_map[k], nvals)
            sigma_counts[k][int(actions[i][k]), pre_row, eff_code] += 1
        for m in range(sk.n_vars):
            block_of_m = int(sk.var_block[m])
            if block_of_m >= 0 and block_of_m in taught:
                continue  # intervened, not a no-op observation
            fac = sk.noop_dynamics[m]
            row = _row_code(sk, fac.state_parents, svals)
            for v in fac.eff_parents:
                row = row * sk.state_vars[v] + nvals[v]
            noop_counts[m][row, nvals[m]] += 1
        reward_sum[s, s_next] += float(rewards[i])
        reward_count[s, s_next] += 1
    return LearnedModel(sk, sigma_counts, noop_counts, reward_sum, reward_count)


def offline_selection_reference(episodes, spec, preset, seed, *, tau_grid, split=(0.7, 0.15, 0.15),
                                ess_cutoff_frac=0.1, soften_epsilon=0.01, overrides=None):
    """`cli.offline_selection_run` in this process, one tau after another."""
    train, val, test = split_episodes(episodes, split, seed)
    data = episodes_to_transitions(train, spec)
    model, imputed = learn_model(spec, data.states, data.actions, data.rewards, data.next_states).to_spec()
    candidates, metrics, checkpoints = [], [], []
    for tau in tau_grid:
        cfg = offline_preset(preset, tau_bcq=float(tau), seed=seed, **(overrides or {}))
        run_metrics, run_checkpoints = ad_bcq_train(data, cfg, model)
        metrics.extend({"tau": float(tau), **line} for line in run_metrics)
        checkpoints.extend(run_checkpoints)
        candidates.extend(checkpoint_candidates(run_checkpoints, val, spec.n_actions, soften_epsilon=soften_epsilon))
    cutoff = ess_cutoff_frac * len(val)
    cid, val_result = select_model(candidates, cutoff)
    policy = np.asarray(next(cp["policy"] for cp in checkpoints if (cp["tau"], cp["step"]) == cid), dtype=np.int64)
    test_result = wis_ess(test, soften(policy, soften_epsilon, spec.n_actions))
    selection = {
        "preset": preset, "seed": seed, "tau": cid[0], "step": cid[1], "ess_cutoff": cutoff,
        "val_wis": val_result.wis, "val_ess": val_result.ess, "val_clip_count": val_result.clip_count,
        "test_wis": test_result.wis, "test_ess": test_result.ess, "test_clip_count": test_result.clip_count,
        "policy": policy.tolist(), "n_train": len(train), "n_val": len(val), "n_test": len(test),
        "imputed_cells": len(imputed),
    }
    return selection, metrics, checkpoints


def random_spec(rng):
    """A spec drawn from the space `FactoredMdpSpec.check` accepts, well
    beyond the generators' corner of it.

    1-5 state variables of cardinality 1-3 with at most 200 states; 1-3
    blocks of 1-3 actions whose disjoint effect sets often hold several
    variables, and some variables left uncontrolled; intervention tables
    drawn with repeats, over 0-2 precondition variables; factors with
    0-2 state parents and, on uncontrolled variables, 0-2 eff parents;
    zero factor entries in half the specs (`assume_positive` set on
    some of the rest), and terminal sets in a third, at discount 0.5,
    0.9 or 0.99.  A fifth of the specs run at discount 1 instead: an
    uncontrolled variable is a clock whose top value every factor row
    reaches with positive probability and never leaves, and the states
    at the top are terminal, so every policy reaches a terminal state.
    """
    def some(pool):  # 0-2 distinct entries of pool
        return [int(v) for v in rng.choice(pool, size=rng.integers(0, min(2, len(pool)) + 1), replace=False)]

    proper = rng.random() < 0.2
    while True:
        cards = rng.choice([1, 2, 3], p=[0.2, 0.4, 0.4], size=rng.integers(2 if proper else 1, 6))
        if proper:
            cards[-1] = max(cards[-1], 2)  # the clock, uncontrolled below
        if np.prod(cards) <= 200:
            break
    n_vars = len(cards)
    n_blocks = int(rng.integers(1, min(3, n_vars - proper) + 1))
    n_controlled = int(rng.integers(n_blocks, n_vars - proper + 1))
    order = rng.permutation(n_vars - proper)[:n_controlled]
    cuts = np.sort(rng.choice(np.arange(1, n_controlled), size=n_blocks - 1, replace=False))
    eff_map = [tuple(sorted(int(v) for v in part)) for part in np.split(order, cuts)]
    controlled = sorted(int(v) for v in order)
    pre_map = [tuple(some(range(n_vars))) for _ in range(n_blocks)]
    block_sizes = [int(b) for b in rng.integers(1, 4, size=n_blocks)]
    sigma = [
        SigmaTable(k, rng.integers(0, np.prod(cards[list(eff)]), size=(size, int(np.prod(cards[list(pre)])))))
        for k, (size, eff, pre) in enumerate(zip(block_sizes, eff_map, pre_map))
    ]
    zeros = rng.random() < 0.5
    clock = n_vars - 1 if proper else None
    factors = []
    for m in range(n_vars):
        state_parents = some([v for v in range(n_vars) if v != clock])
        if m == clock:
            state_parents.insert(0, clock)
        eff_parents = [] if m in controlled else some(controlled)
        n_rows = int(np.prod(cards[state_parents + eff_parents]))
        table = rng.dirichlet(np.ones(cards[m]), size=n_rows)
        if zeros:
            cut = rng.random(table.shape) < 0.3
            cut[np.arange(n_rows), table.argmax(axis=1)] = False
            table[cut] = 0.0
        if m == clock:
            top = cards[m] - 1
            table[:, top] += 0.05  # every row moves to the top with positive probability
            table[n_rows // cards[m] * top:] = np.eye(cards[m])[top]  # rows whose clock is at the top stay there
        factors.append(NoopFactor(m, state_parents, eff_parents, table / table.sum(axis=1, keepdims=True)))
    n_states = int(np.prod(cards))
    if proper:
        terminal = np.flatnonzero(MixedRadix(cards).table()[:, clock] == cards[clock] - 1)
    elif rng.random() < 1 / 3:
        terminal = rng.choice(n_states, size=rng.integers(1, min(3, n_states) + 1), replace=False)
    else:
        terminal = []
    return FactoredMdpSpec(
        state_vars=tuple(int(c) for c in cards),
        action_blocks=tuple((b,) for b in block_sizes),
        eff_map=tuple(eff_map),
        pre_map=tuple(pre_map),
        sigma=tuple(sigma),
        noop_dynamics=tuple(factors),
        reward=rng.normal(size=(n_states, n_states)),
        init_dist=rng.dirichlet(np.ones(n_states)),
        discount=1.0 if proper else float(rng.choice((0.5, 0.9, 0.99))),
        assume_positive=not (zeros or proper) and rng.random() < 0.5,
        terminal_states=frozenset(int(s) for s in terminal),
    )


def theorem_sample_bounds(spec, eps, delta):
    """Closed-form sample counts sufficient for eps-accurate tables, the
    form `tabular.error_bounds_at` inverts.

    n_p covers the no-op/uncontrolled dynamics: parameter-set size is
    the uncontrolled domain, conditioning-set size the full state domain
    times the controlled domain.  n_sigma covers the intervention tables
    per block (effect domain times precondition domain).
    """
    if not (0 < eps and 0 < delta < 1):
        raise DomainError("need eps > 0 and delta in (0, 1)")
    u_dom, c_dom, s_dom, blocks = _bound_sizes(spec)
    n_p = u_dom * s_dom * c_dom / eps**2 * math.log(2 * s_dom * c_dom / delta)
    n_sigma = [e_dom * p_dom / eps**2 * math.log(2 * p_dom / delta) for e_dom, p_dom in blocks]
    return {"n_p": n_p, "n_sigma": n_sigma}


def monotonic_suite(n_instances, seed=0):
    """Instances whose additive rewards carry a certified dominance margin,
    so block-coordinate policy improvement reaches the joint optimum."""
    out = []
    rng = np.random.default_rng(seed)
    i = 0
    while len(out) < n_instances:
        K = int(rng.integers(2, 4))
        M = int(rng.integers(K, min(K + 3, 6) + 1))
        cards = tuple(int(c) for c in rng.integers(2, 4, size=M))
        structure = "fully_separable" if rng.random() < 0.3 else "separable_effects"
        params = SyntheticSpec(
            structure=structure,
            n_vars=M,
            n_blocks=K,
            cards=cards,
            seed=int(rng.integers(0, 2**31)) + i,
            reward_kind="additive_monotonic",
        )
        i += 1
        try:
            out.append(generate_synthetic(params))
        except ConfigurationError:
            continue
    return out
