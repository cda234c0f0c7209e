"""Experiment runner.

Every run writes a self-describing directory: `config.json` holds the
resolved configuration, `metrics.jsonl` the per-step or per-iteration
log, `checkpoints/` any saved policies or networks, and `summary.csv`
the aggregate table.  An `INCOMPLETE` marker file exists while a run is
in flight (and afterwards, if it failed), so partial outputs are never
mistaken for finished ones.

Input files: a JSON spec (`validate`, `mbfpi`, `sample-complexity`,
`train-offline`), a JSON-lines episode log (`train-offline`, `ope`), a
JSON policy (`ope`), JSON-lines candidates (`select`), and each run's
`config.json` and `metrics.jsonl` (`report`).  `frl.jsonio` reads them
all, so a missing, unreadable or malformed file exits 2 with an `error:`
line naming the file, and the line in JSON lines.

Exit codes: 0 success, 2 configuration problems (bad flags, malformed
files, failed validation), 1 runtime failures.  `FRL_OUT` prefixes
relative output paths.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from .agents import (
    BCQ_TAU_GRID,
    ad_bcq_train,
    ad_dqn_train,
    checkpoint_candidates,
    episodes_to_transitions,
    offline_preset,
    online_preset,
)
from .envs import (
    PointMassEnv,
    SyntheticSpec,
    generate_offline_dataset,
    generate_synthetic,
    treatment_spec,
    two_switch_spec,
    xor_trap_spec,
)
from .envs.point_mass import FlattenedEnv
from .envs.synthetic import STRUCTURES
from .errors import (
    ConfigurationError,
    DomainError,
    FrlError,
    SelectionError,
    ShapeError,
    ValidationError,
)
from .factored_mdp import FactoredMdpSpec, FactoredPolicy
from .jsonio import read_json, read_jsonl
from .ope import SOFTEN_EPSILON, OpeResult, load_episodes, save_episodes, select_model, soften, wis_ess
from .tabular import factored_policy_iteration, learn_model, sample_complexity_experiment

logger = logging.getLogger(__name__)

CONFIG_ERRORS = (ConfigurationError, ValidationError, DomainError, ShapeError)
# config fields that a flag of their own sets, one run per value
FLAG_FIELDS = {"seed": "--seeds", "tau_bcq": "--tau-grid"}


def _out_path(raw: str) -> Path:
    path = Path(raw)
    if path.is_absolute():
        return path
    return Path(os.environ.get("FRL_OUT", ".")) / path


@contextlib.contextmanager
def _run_dir(path: Path, config: dict):
    """Create a run directory with its config embedded and an in-flight
    marker that only a clean finish removes."""
    path.mkdir(parents=True, exist_ok=True)
    (path / "checkpoints").mkdir(exist_ok=True)
    (path / "config.json").write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
    marker = path / "INCOMPLETE"
    marker.write_text("run in progress\n")
    try:
        yield path
    except BaseException as e:
        marker.write_text(f"run failed: {e}\n")
        raise
    marker.unlink()


def _write_jsonl(path: Path, rows) -> None:
    with open(path, "w") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _load_spec(path: str) -> FactoredMdpSpec:
    return read_json(path, "spec", FactoredMdpSpec.from_doc)


def _parse_overrides(pairs, make, preset: str) -> dict:
    """Parse repeated `--set key=value` flags for a preset's config; values
    are JSON when they parse, bare strings otherwise.  The config is built
    alone and with each override, so an unknown preset, key or value exits
    2, named, before any file is read, as does a key of `FLAG_FIELDS`."""
    known = {f.name for f in dataclasses.fields(make(preset))}
    out = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise ConfigurationError(f"override {pair!r} is not of the form key=value")
        key, raw = pair.split("=", 1)
        if key not in known:
            raise ConfigurationError(
                f"unknown config key {key!r}; valid keys: {', '.join(sorted(known))}"
            )
        if key in FLAG_FIELDS:
            raise ConfigurationError(f"{key} is driven by {FLAG_FIELDS[key]}, not --set")
        try:
            out[key] = json.loads(raw)
        except json.JSONDecodeError:
            out[key] = raw
        try:
            make(preset, **{key: out[key]})
        except (TypeError, ValueError) as e:
            raise ConfigurationError(f"bad --set value for {key}: {e}") from e
    return out


def _write_summary(root: Path, rows: list[dict], runs: str) -> None:
    rows.sort(key=lambda r: r["seed"])
    header = list(rows[0].keys())
    _write_csv(root / "summary.csv", header, [[r[h] for h in header] for r in rows])
    print(f"{len(rows)} {runs} complete; summary in {root / 'summary.csv'}")


def _numbers(text: str, kind=float) -> list:
    """A flag's non-empty comma-separated list of `kind` values."""
    try:
        out = [kind(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as e:
        raise ConfigurationError(f"expected a comma-separated {kind.__name__} list: {e}") from e
    if not out:
        raise ConfigurationError(f"expected a comma-separated {kind.__name__} list, got {text!r}")
    return out


def _seed(flag: str, value: int) -> int:
    """`value`, unless it is negative: numpy seeds a generator from
    non-negative integers only."""
    if value < 0:
        raise ConfigurationError(f"{flag} {value} is negative; a seed is a non-negative integer")
    return value


# -- validate -----------------------------------------------------------------


def _cmd_validate(args) -> int:
    spec = _load_spec(args.spec)
    print(
        f"OK: {spec.n_vars} state vars ({spec.n_states} states), "
        f"{spec.n_blocks} blocks ({spec.n_actions} joint actions), "
        f"discount {spec.discount}"
    )
    return 0


# -- gen ----------------------------------------------------------------------


def _build_task_spec(args) -> FactoredMdpSpec:
    if args.task == "two-switch":
        return two_switch_spec()
    if args.task == "treatment":
        return treatment_spec()
    if args.task == "xor-trap":
        return xor_trap_spec()
    return generate_synthetic(
        SyntheticSpec(
            structure=args.structure,
            n_vars=args.n_vars,
            n_blocks=args.n_blocks,
            cards=args.cards,
            seed=args.seed,
        )
    )


def _cmd_gen(args) -> int:
    _seed("--seed", args.seed)
    _seed("--dataset-seed", args.dataset_seed)
    spec = _build_task_spec(args)
    config = {k: v for k, v in vars(args).items() if k not in ("func", "out")}
    with _run_dir(_out_path(args.out), {"subcommand": "gen", **config}) as run:
        (run / "spec.json").write_text(spec.to_json() + "\n")
        if args.episodes:
            behavior = np.full((spec.n_states, spec.n_actions), 1.0 / spec.n_actions)
            episodes = generate_offline_dataset(
                spec, behavior, episodes=args.episodes, seed=args.dataset_seed,
                horizon=args.horizon,
            )
            save_episodes(episodes, run / "episodes.jsonl")
            print(f"wrote spec.json and {len(episodes)} episodes to {run}")
        else:
            print(f"wrote spec.json to {run}")
    return 0


# -- mbfpi --------------------------------------------------------------------


def _cmd_mbfpi(args) -> int:
    spec = _load_spec(args.spec)
    init = FactoredPolicy(np.zeros((spec.n_blocks, spec.n_states), dtype=np.int64))
    with _run_dir(_out_path(args.out), {"subcommand": "mbfpi", "spec": args.spec}) as run:
        trace = factored_policy_iteration(spec, init)
        (run / "metrics.jsonl").write_text(trace.to_jsonl())
        values = trace.final_values
        _write_csv(
            run / "summary.csv",
            ["iterations", "terminated", "value_min", "value_mean", "value_max"],
            [[len(trace.iterations), trace.terminated,
              float(values.min()), float(values.mean()), float(values.max())]],
        )
        print(f"{len(trace.iterations)} iterations ({trace.terminated}); artifacts in {run}")
    return 0


# -- sample-complexity --------------------------------------------------------


def _cmd_sample_complexity(args) -> int:
    _seed("--seed", args.seed)
    spec = _load_spec(args.spec)
    sizes = _numbers(args.sizes, int)
    config = {"subcommand": "sample-complexity", "spec": args.spec, "sizes": sizes,
              "trials": args.trials, "delta": args.delta, "seed": args.seed}
    with _run_dir(_out_path(args.out), config) as run:
        rows = sample_complexity_experiment(spec, sizes, args.trials, args.delta, args.seed)
        _write_jsonl(run / "metrics.jsonl", (
            {"n": r["n"], "trial": t, "dyn_err": de, "sigma_err": se}
            for r in rows for t, (de, se) in enumerate(zip(r["dyn_errors"], r["sigma_errors"]))
        ))
        header = ["n", "trials", "delta", "dyn_err_median", "dyn_err_hi",
                  "sigma_err_median", "sigma_err_hi", "bound_eps_p", "bound_eps_sigma"]
        _write_csv(run / "summary.csv", header, [[r[h] for h in header] for r in rows])
        print(f"{len(sizes)} sample sizes x {args.trials} trials; artifacts in {run}")
    return 0


# -- train-online -------------------------------------------------------------


def _one_online_run(preset: str, seed: int, args, overrides: dict, root: Path) -> dict:
    cfg = online_preset(preset, seed=seed, **overrides)
    config = {"subcommand": "train-online", "preset": preset, "seed": seed,
              "bins": args.bins, **cfg.to_doc()}
    with _run_dir(root / f"{preset}-seed{seed}", config) as run:
        env = PointMassEnv(bins=args.bins, episode_len=cfg.episode_len, seed=seed)
        if preset == "FLAT-DQN":
            env = FlattenedEnv(env)
        result = ad_dqn_train(env, cfg, metrics_path=run / "metrics.jsonl")
        (run / "checkpoints" / "final_net.json").write_text(result.net.to_json())
        evals = [m["eval_return"] for m in result.metrics if "eval_return" in m]
        returns = [m["return"] for m in result.metrics]
    return {
        "preset": preset,
        "seed": seed,
        "episodes": len(result.metrics),
        "steps": result.metrics[-1]["step"] if result.metrics else 0,
        "final_return": returns[-1] if returns else None,
        "best_eval_return": max(evals, default=None),
        "final_eval_return": evals[-1] if evals else None,
    }


def _cmd_train_online(args) -> int:
    overrides = _parse_overrides(args.set, online_preset, args.preset)
    seeds = [_seed("--seeds", s) for s in _numbers(args.seeds, int)]
    root = _out_path(args.out)
    _write_summary(root, [_one_online_run(args.preset, s, args, overrides, root) for s in seeds], "runs")
    return 0


# -- train-offline ------------------------------------------------------------


def split_episodes(episodes, fractions, seed: int):
    """Shuffle and cut a dataset into train/validation/test slices."""
    if len(fractions) != 3 or abs(sum(fractions) - 1.0) > 1e-9 or min(fractions) <= 0:
        raise ConfigurationError(f"split fractions must be three positives summing to 1, got {fractions}")
    order = np.random.default_rng(seed).permutation(len(episodes))
    n_train = int(round(fractions[0] * len(episodes)))
    n_val = int(round(fractions[1] * len(episodes)))
    train = [episodes[i] for i in order[:n_train]]
    val = [episodes[i] for i in order[n_train:n_train + n_val]]
    test = [episodes[i] for i in order[n_train + n_val:]]
    if not (train and val and test):
        raise ConfigurationError(f"split of {len(episodes)} episodes left an empty slice")
    return train, val, test


_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@contextlib.contextmanager
def _blas_threads(n: int):
    """Set the BLAS thread-count variables to `n`, restoring them on exit."""
    saved = {var: os.environ.get(var) for var in _BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, str(n)))
    try:
        yield
    finally:
        for var, value in saved.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value


def _check_codes(episodes, spec: FactoredMdpSpec) -> None:
    """DomainError unless every logged state, action and final state is a
    code of `spec`; a bad step is named with its episode's index in the log."""
    if any(ep.final_state is not None and not 0 <= ep.final_state < spec.n_states for ep in episodes):
        raise DomainError(f"logged state codes out of range [0, {spec.n_states})")
    for i, ep in enumerate(episodes):
        bad = (ep.states < 0) | (ep.states >= spec.n_states) | (ep.actions < 0) | (ep.actions >= spec.n_actions)
        if bad.any():
            t = int(bad.argmax())
            raise DomainError(
                f"episode {i} step {t}: state {ep.states[t]} or action {ep.actions[t]} is outside "
                f"the spec's {spec.n_states} states x {spec.n_actions} joint actions"
            )


def offline_selection_run(
    episodes,
    spec: FactoredMdpSpec,
    preset: str,
    seed: int,
    *,
    tau_grid,
    split=(0.7, 0.15, 0.15),
    ess_cutoff_frac: float = 0.1,
    soften_epsilon: float = SOFTEN_EPSILON,
    overrides: dict | None = None,
):
    """Train one offline preset across the threshold grid and pick a model.

    Every episode's logged codes are range-checked first, whichever
    split it lands in (`_check_codes`).  The train split is converted to
    one transitions batch here, once, so a log with truncated episodes
    warns of its dropped transitions once per call, a split with no
    usable transition fails before any worker starts, and the tabular
    model is fitted to that batch once (`learn_model`, then
    `LearnedModel.to_spec`, which imputes the unvisited cells).  Every
    tau trains on that batch and model in one of `min(len(tau_grid),
    usable CPUs)` spawned worker processes, each with its BLAS pool
    capped at cpus // workers threads (the BLAS variables are set only
    while the workers start); the workers relay no log records.  Results
    are gathered in grid order.  The first failure in grid order is
    re-raised, the taus not yet started are cancelled, and no worker
    outlives the call.  Each worker imports the caller's main module, so
    a script must make this call under `if __name__ == "__main__":`.

    Returns (selection dict, combined metrics list, checkpoints list);
    the selection records the winning (tau, step), its validation score,
    the chosen policy's test-set score, the ratios clipped in each
    score, and how many cells the model imputed.  SelectionError when no
    checkpoint's validation ESS reaches `ess_cutoff_frac` times the size
    of the validation split.
    """
    selection, metrics, checkpoints = _selection_run(
        episodes, spec, preset, seed, tau_grid, split, ess_cutoff_frac, overrides, soften_epsilon
    )
    if "stop" in selection:
        raise SelectionError(selection["stop"])
    return selection, metrics, checkpoints


def _selection_run(episodes, spec, preset, seed, tau_grid, split, ess_cutoff_frac, overrides,
                   soften_epsilon=SOFTEN_EPSILON):
    """`offline_selection_run`, which describes it, save that a selection
    no candidate passes returns a record of the stop, the cutoff and the
    best validation ESS in place of the selection."""
    # Imported here: the pool's modules add about 1.7 MB to the resident
    # set of every process that imports this module.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    _check_codes(episodes, spec)
    train, val, test = split_episodes(episodes, split, seed)
    data = episodes_to_transitions(train, spec)
    if not len(data.rewards):
        raise ConfigurationError("dataset has no usable transitions")
    model, imputed = learn_model(spec, data.states, data.actions, data.rewards, data.next_states).to_spec()
    configs = [offline_preset(preset, tau_bcq=float(tau), seed=seed, **(overrides or {})) for tau in tau_grid]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = max(1, min(len(configs), cpus))  # an empty grid starts no worker
    candidates, metrics, checkpoints = [], [], []
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn")) as pool:
        with _blas_threads(max(1, cpus // workers)):  # a spawn pool starts its workers in submit
            futures = [pool.submit(ad_bcq_train, data, cfg, model) for cfg in configs]
        try:
            for cfg, future in zip(configs, futures):
                run_metrics, run_checkpoints = future.result()
                metrics.extend({"tau": cfg.tau_bcq, **line} for line in run_metrics)
                checkpoints.extend(run_checkpoints)
                candidates.extend(checkpoint_candidates(
                    run_checkpoints, val, spec.n_actions, soften_epsilon=soften_epsilon
                ))
        finally:
            for future in futures:
                future.cancel()
    cutoff = ess_cutoff_frac * len(val)
    sizes = {"n_train": len(train), "n_val": len(val), "n_test": len(test), "imputed_cells": len(imputed)}
    try:
        cid, val_result = select_model(candidates, cutoff)
    except SelectionError as e:
        stop = {"preset": preset, "seed": seed, "stop": str(e), "ess_cutoff": cutoff,
                "best_val_ess": max(res.ess for _, res in candidates), **sizes}
        return stop, metrics, checkpoints
    policies = {(cp["tau"], cp["step"]): cp["policy"] for cp in checkpoints}
    policy = np.asarray(policies[cid], dtype=np.int64)
    test_result = wis_ess(test, soften(policy, soften_epsilon, spec.n_actions))
    selection = {
        "preset": preset,
        "seed": seed,
        "tau": cid[0],
        "step": cid[1],
        "ess_cutoff": cutoff,
        "val_wis": val_result.wis,
        "val_ess": val_result.ess,
        "val_clip_count": val_result.clip_count,
        "test_wis": test_result.wis,
        "test_ess": test_result.ess,
        "test_clip_count": test_result.clip_count,
        "policy": policy.tolist(),
        **sizes,
    }
    return selection, metrics, checkpoints


def _one_offline_run(seed: int, args, tau_grid, split, episodes, spec, overrides, root: Path) -> dict:
    cfg_doc = offline_preset(args.preset, seed=seed, **overrides).to_doc()
    del cfg_doc["tau_bcq"]  # each run trains at every tau of tau_grid
    config = {"subcommand": "train-offline", "preset": args.preset, "seed": seed,
              "tau_grid": tau_grid, "split": split,
              "ess_cutoff_frac": args.ess_cutoff_frac, **cfg_doc}
    with _run_dir(root / f"{args.preset}-seed{seed}", config) as run:
        selection, metrics, checkpoints = _selection_run(
            episodes, spec, args.preset, seed, tau_grid, tuple(split), args.ess_cutoff_frac, overrides
        )
        _write_jsonl(run / "metrics.jsonl", metrics)
        for cp in checkpoints:
            name = f"policy-tau{cp['tau']}-step{cp['step']}.json"
            (run / "checkpoints" / name).write_text(json.dumps(cp) + "\n")
        (run / "selection.json").write_text(json.dumps(selection, indent=2) + "\n")
    # a failed selection leaves its selection fields empty
    return {k: selection.get(k) for k in
            ("preset", "seed", "tau", "step", "val_wis", "val_ess", "test_wis", "test_ess")}


def _cmd_train_offline(args) -> int:
    overrides = _parse_overrides(args.set, offline_preset, args.preset)
    tau_grid, split = _numbers(args.tau_grid), _numbers(args.split)
    seeds = [_seed("--seeds", s) for s in _numbers(args.seeds, int)]
    spec = _load_spec(args.spec)
    episodes = load_episodes(args.episodes)
    root = _out_path(args.out)
    rows = [_one_offline_run(s, args, tau_grid, split, episodes, spec, overrides, root) for s in seeds]
    _write_summary(root, rows, "selection runs")
    failed = [str(r["seed"]) for r in rows if r["tau"] is None]
    if failed:
        raise SelectionError(f"no candidate reached the ESS cutoff at seeds {', '.join(failed)}")
    return 0


# -- ope ----------------------------------------------------------------------


def _cmd_ope(args) -> int:
    episodes = load_episodes(args.episodes)
    # the file holds the action codes, bare or under "policy"
    table = read_json(args.policy, "policy", lambda doc: soften(
        doc["policy"] if isinstance(doc, dict) else doc, SOFTEN_EPSILON, args.n_actions
    ))
    result = wis_ess(episodes, table, gamma=args.gamma)
    text = result.to_json()
    if args.out:
        path = _out_path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text + "\n")
    print(text)
    return 0


# -- select -------------------------------------------------------------------


def _candidate(doc: dict):
    cid = doc.get("id")
    return tuple(cid) if isinstance(cid, list) else cid, OpeResult(
        wis=float(doc["wis"]), ess=float(doc["ess"]),
        episode_weights=np.zeros(0), step_averages=np.zeros(0),
        clip_count=int(doc.get("clip_count", 0)), n_episodes=int(doc.get("n_episodes", 0)),
    )


def _cmd_select(args) -> int:
    candidates = [c for path in args.candidates for c in read_jsonl(path, "candidate", _candidate)]
    if not candidates:
        raise ValidationError(f"no candidates in {', '.join(args.candidates)}")
    cid, chosen = select_model(candidates, args.ess_cutoff)
    print(json.dumps({"id": cid, "wis": chosen.wis, "ess": chosen.ess}))
    return 0


# -- report -------------------------------------------------------------------


def _run_preset(doc, default: str) -> str:
    if not isinstance(doc, dict):
        raise ValidationError("config is not a JSON object")
    preset = doc.get("preset", default)
    if not isinstance(preset, str):
        raise ValidationError(f"preset {preset!r} is not a string")
    return preset


def _metrics_point(doc: dict, preset: str, key: str):
    """(axis, label, x, value) of one metrics line, None if it lacks `key`;
    x is None on a per-episode line that does not number its episode.  A
    float or bool x is rejected: it would merge into another x's group."""
    value = doc.get(key)
    if value is None:
        return None
    if isinstance(value, bool):
        raise ValidationError(f"{key} value {value} is not a number")
    axis, label = ("step", f"{preset} tau={doc['tau']}") if "tau" in doc else ("episode", preset)
    if axis == "episode" and "episode" not in doc:
        return axis, label, None, float(value)
    x = doc[axis]
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValidationError(f"{axis} {json.dumps(x)} is not an integer")
    return axis, label, x, float(value)


def _cmd_report(args) -> int:
    """Quantiles of one metrics field per label and x value.

    Online lines are grouped by `episode` under the run's preset, or by
    their position in the log if they carry no episode number.  Offline
    lines carry `tau` and `step`; they are grouped by step under one
    label per tau, such as "AD-BCQ tau=0.1", so the taus a run trained
    do not mix.
    """
    groups: dict[str, dict[int, list[float]]] = {}
    axes = set()
    complete = 0
    for raw in args.runs:
        run = Path(raw)
        if (run / "INCOMPLETE").exists():
            logger.warning("skipping incomplete run %s", run)
            continue
        complete += 1
        preset = read_json(run / "config.json", "config", lambda doc: _run_preset(doc, run.name))
        points = read_jsonl(run / "metrics.jsonl", "metrics",
                            lambda doc: _metrics_point(doc, preset, args.key))
        for i, point in enumerate(points):
            if point is not None:
                axis, label, x, value = point
                axes.add(axis)
                groups.setdefault(label, {}).setdefault(i if x is None else x, []).append(value)
    if not complete:
        raise ConfigurationError("no complete runs to report on")
    if len(axes) > 1:
        raise ConfigurationError("cannot report online (per-episode) and offline (per-step) runs together")
    rows = []
    for label in sorted(groups):
        for x in sorted(groups[label]):
            vals = np.asarray(groups[label][x])
            rows.append([
                label, x, len(vals), float(vals.mean()),
                float(np.quantile(vals, 0.25)), float(np.quantile(vals, 0.5)),
                float(np.quantile(vals, 0.75)),
            ])
    header = ["preset", axes.pop() if axes else "episode", "n", "mean", "q25", "q50", "q75"]
    if args.out:
        path = _out_path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        _write_csv(path, header, rows)
        print(f"wrote {len(rows)} rows to {path}")
    else:
        writer = csv.writer(sys.stdout)
        writer.writerow(header)
        writer.writerows(rows)
    return 0


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frl",
        description="Factored-action RL experiments: spec tooling, tabular "
                    "solvers, online/offline agents, and off-policy evaluation.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("validate", help="check a spec file's invariants, as every command does")
    p.add_argument("spec")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("gen", help="generate a spec (and optionally a logged dataset)")
    p.add_argument("--task", choices=("random", "two-switch", "treatment", "xor-trap"),
                   default="random")
    p.add_argument("--structure", choices=STRUCTURES,
                   default="separable_effects")
    p.add_argument("--n-vars", type=int, default=4)
    p.add_argument("--n-blocks", type=int, default=2)
    p.add_argument("--cards", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--episodes", type=int, default=0,
                   help="also log this many uniform-behavior episodes")
    p.add_argument("--horizon", type=int, default=20)
    p.add_argument("--dataset-seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("mbfpi", help="run factored policy iteration on a spec")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_mbfpi)

    p = sub.add_parser("sample-complexity", help="estimation error vs. the sample bounds")
    p.add_argument("--spec", required=True)
    p.add_argument("--sizes", default="100,400,1600", help="comma-separated sample sizes")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sample_complexity)

    p = sub.add_parser("train-online", help="train an online preset on the point-mass task")
    p.add_argument("--preset", required=True)
    p.add_argument("--seeds", default="0", help="comma-separated seeds")
    p.add_argument("--bins", type=int, default=9)
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a training-config field")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train_online)

    p = sub.add_parser("train-offline", help="train an offline preset and select a model")
    p.add_argument("--preset", required=True)
    p.add_argument("--spec", required=True)
    p.add_argument("--episodes", required=True, help="JSON-lines episode log")
    p.add_argument("--seeds", default="0")
    p.add_argument("--tau-grid", default=",".join(map(str, BCQ_TAU_GRID)))
    p.add_argument("--split", default="0.7,0.15,0.15")
    p.add_argument("--ess-cutoff-frac", type=float, default=0.1)
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train_offline)

    p = sub.add_parser("ope", help="score a greedy policy file on logged episodes, softened as "
                                   "train-offline softens its candidates")
    p.add_argument("--episodes", required=True)
    p.add_argument("--policy", required=True, help="JSON per-state action codes")
    p.add_argument("--n-actions", type=int, required=True)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_ope)

    p = sub.add_parser("select", help="pick the best candidate above an ESS cutoff")
    p.add_argument("--candidates", nargs="+", required=True,
                   help="JSON-lines files of {id, wis, ess} records")
    p.add_argument("--ess-cutoff", type=float, required=True)
    p.set_defaults(func=_cmd_select)

    p = sub.add_parser("report", help="aggregate run metrics into quantile curves")
    p.add_argument("--runs", nargs="+", required=True, help="run directories")
    p.add_argument("--key", default="return", help="metrics field to aggregate")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FrlError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2 if isinstance(e, CONFIG_ERRORS) else 1


if __name__ == "__main__":
    sys.exit(main())
