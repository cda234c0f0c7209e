"""Span recorder for the traced benchmark run.

The recorder wraps `frl` entry points from outside the package: for
each entry point it replaces every module attribute (or class
attribute) bound to the original function with a timing wrapper, so a
function that `frl.tabular` imported by name is traced where
`frl.tabular` calls it.  Spans live in compact in-memory arrays and are
written out once, when the run ends.  An entry point that no longer
exists is skipped, so its metrics read zero instead of crashing the run.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager, nullcontext


# The hooks read positional arguments only and skip calls they cannot
# read, so a changed signature loses a count instead of failing the run.


def _row_key(args):
    """(spec, state, action) identity of an interventional row build."""
    if len(args) < 3:
        return None
    spec, s, a = args[:3]
    try:
        action = tuple(int(x) for x in a)
    except TypeError:
        action = int(a)
    return id(spec), "i", int(s), action


def _projected_key(args):
    if len(args) < 4:
        return None
    spec, k, s, a_k = args[:4]
    return id(spec), "p", int(k), int(s), int(a_k)


def _dense_mflop(args) -> float:
    """2 * rows * in * out summed over the dense layers, in MFLOP."""
    if len(args) < 2:
        return 0.0
    net, x = args[:2]
    rows = 1 if getattr(x, "ndim", 2) == 1 else len(x)
    sizes = getattr(net, "sizes", ())
    return 2.0 * rows * sum(a * b for a, b in zip(sizes, sizes[1:])) / 1e6


# (span name, defining module, attribute path, on_call hook, on_result hook)
# Hooks receive (recorder, args) and (recorder, result) respectively.
ENTRY_POINTS = (
    ("factored_mdp.interventional_transition", "frl.factored_mdp", "interventional_transition",
     lambda r, a: r.key("rows", _row_key(a)), None),
    ("factored_mdp.projected_transition", "frl.factored_mdp", "projected_transition",
     lambda r, a: r.key("rows", _projected_key(a)), None),
    ("factored_mdp._evaluate_rows", "frl.factored_mdp", "_evaluate_rows", None, None),
    ("tabular._block_q_tables", "frl.tabular", "_block_q_tables", None, None),
    ("tabular.learn_model", "frl.tabular", "learn_model", None, None),
    ("approx.DecomposedQNet.greedy", "frl.approx", "DecomposedQNet.greedy", None, None),
    ("approx.DecomposedQNet.head_values", "frl.approx", "DecomposedQNet.head_values", None, None),
    ("approx.Mlp.forward", "frl.approx", "Mlp.forward",
     lambda r, a: r.add("approx.mlp_mflop", _dense_mflop(a)), None),
    ("approx.Mlp.backward", "frl.approx", "Mlp.backward",
     lambda r, a: r.add("approx.mlp_mflop", _dense_mflop(a)), None),
    ("approx.Optimizer.step", "frl.approx", "Optimizer.step", None, None),
    ("approx.target_update", "frl.approx", "target_update", None, None),
    ("agents.replay.TransitionRecord", "frl.agents.replay", "TransitionRecord.__post_init__", None, None),
    ("agents.replay.batch_arrays", "frl.agents.replay", "batch_arrays", None, None),
    ("agents.models.augment_batch", "frl.agents.models", "augment_batch", None, None),
    ("agents.models.sample_projected_next", "frl.agents.models",
     "TabularModelSampler.sample_projected_next", None, None),
    ("agents.dqn.head_td", "frl.agents.dqn", "_head_td_step", None, None),
    ("agents.dqn.mixer_td", "frl.agents.dqn", "_mixer_td_step", None, None),
    ("agents.dqn.select_action", "frl.agents.dqn", "select_action", None, None),
    ("agents.bcq.train_block", "frl.agents.bcq", "_train_block", None, None),
    ("agents.bcq.train_mixers", "frl.agents.bcq", "_train_mixers", None, None),
    ("agents.bcq.heads_forward", "frl.agents.bcq", "BcqNet.heads_forward", None, None),
    ("agents.bcq.extract_policy", "frl.agents.bcq", "extract_policy", None, None),
    ("ope.wis_ess", "frl.ope", "wis_ess", None,
     lambda r, res: r.add("ope.clip_count", getattr(res, "clip_count", 0))),
    ("envs.env_step", "frl.envs.point_mass", "PointMassEnv.step", None, None),
    ("envs.generate_offline_dataset", "frl.envs.offline", "generate_offline_dataset", None, None),
    ("envs.generate_synthetic", "frl.envs.synthetic", "generate_synthetic", None, None),
    ("envs.treatment_spec", "frl.envs.synthetic", "treatment_spec", None, None),
)


class NullRecorder:
    """Stand-in for untraced runs: records nothing and patches nothing."""

    def span(self, name):
        return nullcontext()

    def add(self, name, value=1):
        pass


class SpanRecorder:
    """Keeps (name, start, end, parent, repetition) spans in memory.

    A repetition is one set-up plus one round of a workload; counters
    and distinct-key sets are kept per repetition so that exact counts
    can be compared between repetitions and between runs.
    """

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.rep = array("i")
        self.current_rep = 0
        self.counters: dict[tuple[int, str], float] = defaultdict(float)
        self.keys: dict[tuple[int, str], set] = defaultdict(set)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.rep.append(self.current_rep)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start[idx] = time.perf_counter()
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def add(self, name: str, value=1) -> None:
        self.counters[(self.current_rep, name)] += value

    def key(self, group: str, key) -> None:
        if key is not None:
            self.keys[(self.current_rep, group)].add(key)

    def wrap(self, name, fn, on_call=None, on_result=None):
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(self, args)
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if on_result is not None:
                on_result(self, result)
            return result

        return traced

    # -- patching ----------------------------------------------------------

    def install(self, entry_points=ENTRY_POINTS) -> None:
        """Wrap every binding of each entry point inside the frl package."""
        for name, module_name, path, on_call, on_result in entry_points:
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                continue
            frl_modules = [m for n, m in list(sys.modules.items()) if n == "frl" or n.startswith("frl.")]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            if owner is None:
                continue
            if isinstance(owner, type):
                original = vars(owner).get(attr)
                if original is None:
                    continue
                self._patch(owner, attr, self.wrap(name, original, on_call, on_result))
                continue
            original = getattr(owner, attr, None)
            if original is None:
                continue
            traced = self.wrap(name, original, on_call, on_result)
            for module in frl_modules:
                for binding, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, binding, traced)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- summaries -----------------------------------------------------------

    def summary(self, rep: int) -> "RepSummary":
        return RepSummary(self, rep)

    def write(self, path) -> None:
        """Write every span as a tab-separated line."""
        with open(path, "w") as fh:
            fh.write("index\trep\tname\tstart_s\tend_s\tparent\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.rep[i]}\t{self.names[self.name_id[i]]}\t"
                    f"{self.start[i]:.9f}\t{self.end[i]:.9f}\t{self.parent[i]}\n"
                )


class RepSummary:
    """Calls, busy time, self time and nested counts of one repetition."""

    def __init__(self, rec: SpanRecorder, rep: int):
        self.rec = rec
        self.rep = rep
        n_names = len(rec.names)
        self.calls = [0] * n_names
        self.busy = [0.0] * n_names
        child = defaultdict(float)
        spans = [i for i in range(len(rec.start)) if rec.rep[i] == rep]
        for i in spans:
            nid = rec.name_id[i]
            dur = rec.end[i] - rec.start[i]
            self.calls[nid] += 1
            self.busy[nid] += dur
            if rec.parent[i] >= 0:
                child[rec.parent[i]] += dur
        self.self_time = [0.0] * n_names
        for i in spans:
            self.self_time[rec.name_id[i]] += rec.end[i] - rec.start[i] - child[i]
        self._spans = spans

    def _nid(self, name):
        return self.rec._name_ids.get(name)

    def n(self, name) -> int:
        nid = self._nid(name)
        return 0 if nid is None else self.calls[nid]

    def busy_s(self, name) -> float:
        nid = self._nid(name)
        return 0.0 if nid is None else self.busy[nid]

    def self_s(self, name) -> float:
        nid = self._nid(name)
        return 0.0 if nid is None else self.self_time[nid]

    def counter(self, name) -> float:
        return self.rec.counters.get((self.rep, name), 0.0)

    def distinct(self, group) -> int:
        return len(self.rec.keys.get((self.rep, group), ()))

    def nested(self, name, ancestor) -> int:
        """Spans called `name` with a span called `ancestor` above them."""
        nid, aid = self._nid(name), self._nid(ancestor)
        if nid is None or aid is None:
            return 0
        rec = self.rec
        count = 0
        for i in self._spans:
            if rec.name_id[i] != nid:
                continue
            p = rec.parent[i]
            while p >= 0 and rec.name_id[p] != aid:
                p = rec.parent[p]
            count += p >= 0
        return count
