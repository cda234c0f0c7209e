"""Experiment runner.

Every run writes a self-describing directory: `config.json` holds the
resolved configuration, `metrics.jsonl` the per-step or per-iteration
log, `checkpoints/` any saved policies or networks, and `summary.csv`
the aggregate table.  An `INCOMPLETE` marker file exists while a run is
in flight (and afterwards, if it failed), so partial outputs are never
mistaken for finished ones.

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
    BcqConfig,
    DqnConfig,
    OFFLINE_PRESETS,
    ONLINE_PRESETS,
    ad_bcq_train,
    ad_dqn_train,
    checkpoint_candidates,
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
from .errors import (
    ConfigurationError,
    DomainError,
    FrlError,
    SelectionError,
    ShapeError,
    ValidationError,
)
from .factored_mdp import FactoredMdpSpec, FactoredPolicy
from .ope import OpeResult, load_episodes, save_episodes, select_model, soften, wis_ess
from .tabular import factored_policy_iteration, sample_complexity_experiment

logger = logging.getLogger(__name__)

CONFIG_ERRORS = (ConfigurationError, ValidationError, DomainError, ShapeError)


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


def _load_spec(path: str, validate: bool = True) -> FactoredMdpSpec:
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise ConfigurationError(f"cannot read spec {path}: {e}") from e
    return FactoredMdpSpec.from_json(text, validate=validate)


def _parse_overrides(pairs, config_cls) -> dict:
    """Parse repeated `--set key=value` flags; values are JSON when they
    parse, bare strings otherwise; keys must name config fields."""
    known = {f.name for f in dataclasses.fields(config_cls)}
    out = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise ConfigurationError(f"override {pair!r} is not of the form key=value")
        key, raw = pair.split("=", 1)
        if key not in known:
            raise ConfigurationError(
                f"unknown config key {key!r}; valid keys: {', '.join(sorted(known))}"
            )
        try:
            out[key] = json.loads(raw)
        except json.JSONDecodeError:
            out[key] = raw
    return out


def _int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as e:
        raise ConfigurationError(f"expected a comma-separated integer list: {e}") from e


def _float_list(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as e:
        raise ConfigurationError(f"expected a comma-separated number list: {e}") from e


# -- validate -----------------------------------------------------------------


def _cmd_validate(args) -> int:
    spec = _load_spec(args.spec, validate=False)
    spec.check(require_disjoint_effects=args.require_assumption_1)
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
    config = {"subcommand": "mbfpi", "spec": args.spec, "block_order": args.block_order,
              "seed": args.seed}
    with _run_dir(_out_path(args.out), config) as run:
        trace = factored_policy_iteration(spec, init, block_order=args.block_order, seed=args.seed)
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
    spec = _load_spec(args.spec)
    sizes = _int_list(args.sizes)
    config = {"subcommand": "sample-complexity", "spec": args.spec, "sizes": sizes,
              "trials": args.trials, "delta": args.delta, "seed": args.seed}
    with _run_dir(_out_path(args.out), config) as run:
        rows = sample_complexity_experiment(
            spec, sizes, args.trials, args.delta, args.seed, keep_trials=True
        )
        lines = []
        for row in rows:
            for t, (de, se) in enumerate(zip(row["dyn_errors"], row["sigma_errors"])):
                lines.append({"n": row["n"], "trial": t, "dyn_err": de, "sigma_err": se})
        _write_jsonl(run / "metrics.jsonl", lines)
        _write_csv(
            run / "summary.csv",
            ["n", "trials", "delta", "dyn_err_median", "dyn_err_hi",
             "sigma_err_median", "sigma_err_hi", "bound_eps_p", "bound_eps_sigma"],
            [[r["n"], r["trials"], r["delta"], r["dyn_err_median"], r["dyn_err_hi"],
              r["sigma_err_median"], r["sigma_err_hi"], r["bound_eps_p"], r["bound_eps_sigma"]]
             for r in rows],
        )
        print(f"{len(sizes)} sample sizes x {args.trials} trials; artifacts in {run}")
    return 0


# -- train-online -------------------------------------------------------------


def _online_env(preset: str, args, seed: int, episode_len: int):
    env = PointMassEnv(
        bins=args.bins, episode_len=episode_len,
        force_scale=args.force_scale, seed=seed,
    )
    if preset == "FLAT-DQN":
        return FlattenedEnv(env)
    return env


def _one_online_run(preset: str, seed: int, args, overrides: dict, root: Path) -> dict:
    cfg = online_preset(preset, seed=seed, **overrides)
    env_len = args.env_episode_len or cfg.episode_len
    run_path = root / f"{preset}-seed{seed}"
    config = {"subcommand": "train-online", "preset": preset, "seed": seed,
              "bins": args.bins, "env_episode_len": env_len,
              "force_scale": args.force_scale, **cfg.to_doc()}
    with _run_dir(run_path, config) as run:
        env = _online_env(preset, args, seed, env_len)
        result = ad_dqn_train(env, cfg, metrics_path=run / "metrics.jsonl")
        (run / "checkpoints" / "final_net.json").write_text(result.net.to_json())
        evals = [(m["episode"], m["eval_return"]) for m in result.metrics if "eval_return" in m]
        returns = [m["return"] for m in result.metrics]
        row = {
            "preset": preset,
            "seed": seed,
            "episodes": len(result.metrics),
            "steps": result.metrics[-1]["step"] if result.metrics else 0,
            "final_return": returns[-1] if returns else None,
            "best_eval_return": max((v for _, v in evals), default=None),
            "final_eval_return": evals[-1][1] if evals else None,
        }
        if args.threshold is not None:
            hit = [ep for ep, v in evals if v >= args.threshold]
            row["episodes_to_threshold"] = min(hit) if hit else None
    return row


def _cmd_train_online(args) -> int:
    if args.preset not in ONLINE_PRESETS:
        raise ConfigurationError(
            f"unknown preset {args.preset!r}; choose from {', '.join(sorted(ONLINE_PRESETS))}"
        )
    overrides = _parse_overrides(args.set, DqnConfig)
    seeds = _int_list(args.seeds)
    root = _out_path(args.out)
    rows = [_one_online_run(args.preset, s, args, overrides, root) for s in seeds]
    rows.sort(key=lambda r: r["seed"])
    header = list(rows[0].keys())
    _write_csv(root / "summary.csv", header, [[r[h] for h in header] for r in rows])
    print(f"{len(seeds)} runs complete; summary in {root / 'summary.csv'}")
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


def offline_selection_run(
    episodes,
    spec: FactoredMdpSpec,
    preset: str,
    seed: int,
    *,
    tau_grid,
    split=(0.7, 0.15, 0.15),
    ess_cutoff_frac: float = 0.1,
    soften_epsilon: float = 0.01,
    overrides: dict | None = None,
):
    """Train one offline preset across the threshold grid and pick a model.

    Returns (selection dict, combined metrics list, checkpoints list);
    the selection records the winning (tau, step), its validation score,
    and the chosen policy's test-set score.
    """
    train, val, test = split_episodes(episodes, split, seed)
    candidates = []
    metrics = []
    checkpoints = []
    policies = {}
    for tau in tau_grid:
        cfg = offline_preset(preset, tau_bcq=float(tau), seed=seed, **(overrides or {}))
        result = ad_bcq_train(train, cfg, spec)
        metrics.extend({"tau": float(tau), **line} for line in result.metrics)
        for cp in result.checkpoints:
            checkpoints.append(cp)
            policies[(cp["tau"], cp["step"])] = cp["policy"]
        candidates.extend(checkpoint_candidates(
            result.checkpoints, val, spec.n_actions, soften_epsilon=soften_epsilon
        ))
    cutoff = ess_cutoff_frac * len(val)
    cid, val_result = select_model(candidates, cutoff)
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
        "test_wis": test_result.wis,
        "test_ess": test_result.ess,
        "policy": policy.tolist(),
        "n_train": len(train),
        "n_val": len(val),
        "n_test": len(test),
    }
    return selection, metrics, checkpoints


def _one_offline_run(preset: str, seed: int, args, episodes, spec, overrides, root: Path) -> dict:
    cfg_doc = offline_preset(preset, seed=seed, **overrides).to_doc()
    config = {"subcommand": "train-offline", "preset": preset, "seed": seed,
              "tau_grid": _float_list(args.tau_grid), "split": _float_list(args.split),
              "ess_cutoff_frac": args.ess_cutoff_frac, **cfg_doc}
    with _run_dir(root / f"{preset}-seed{seed}", config) as run:
        selection, metrics, checkpoints = offline_selection_run(
            episodes, spec, preset, seed,
            tau_grid=_float_list(args.tau_grid),
            split=tuple(_float_list(args.split)),
            ess_cutoff_frac=args.ess_cutoff_frac,
            overrides=overrides,
        )
        _write_jsonl(run / "metrics.jsonl", metrics)
        for cp in checkpoints:
            name = f"policy-tau{cp['tau']}-step{cp['step']}.json"
            (run / "checkpoints" / name).write_text(json.dumps(cp) + "\n")
        (run / "selection.json").write_text(json.dumps(selection, indent=2) + "\n")
    return {k: selection[k] for k in
            ("preset", "seed", "tau", "step", "val_wis", "val_ess", "test_wis", "test_ess")}


def _cmd_train_offline(args) -> int:
    if args.preset not in OFFLINE_PRESETS:
        raise ConfigurationError(
            f"unknown preset {args.preset!r}; choose from {', '.join(sorted(OFFLINE_PRESETS))}"
        )
    overrides = _parse_overrides(args.set, BcqConfig)
    if "tau_bcq" in overrides:
        raise ConfigurationError("tau_bcq is driven by --tau-grid, not --set")
    spec = _load_spec(args.spec)
    episodes = load_episodes(args.episodes)
    seeds = _int_list(args.seeds)
    root = _out_path(args.out)
    rows = [_one_offline_run(args.preset, s, args, episodes, spec, overrides, root) for s in seeds]
    rows.sort(key=lambda r: r["seed"])
    header = list(rows[0].keys())
    _write_csv(root / "summary.csv", header, [[r[h] for h in header] for r in rows])
    print(f"{len(seeds)} selection runs complete; summary in {root / 'summary.csv'}")
    return 0


# -- ope ----------------------------------------------------------------------


def _cmd_ope(args) -> int:
    episodes = load_episodes(args.episodes)
    try:
        doc = json.loads(Path(args.policy).read_text())
    except OSError as e:
        raise ConfigurationError(f"cannot read policy {args.policy}: {e}") from e
    except json.JSONDecodeError as e:
        raise ValidationError(f"policy file is not valid JSON: {e}") from e
    if isinstance(doc, dict) and "policy" not in doc:
        raise ValidationError(f"policy file {args.policy} has no \"policy\" key")
    policy = doc["policy"] if isinstance(doc, dict) else doc
    table = soften(np.asarray(policy, dtype=np.int64), args.soften_epsilon, args.n_actions)
    result = wis_ess(episodes, table, gamma=args.gamma, clip=args.clip)
    text = result.to_json()
    if args.out:
        path = _out_path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text + "\n")
    print(text)
    return 0


# -- select -------------------------------------------------------------------


def _cmd_select(args) -> int:
    candidates = []
    for path in args.candidates:
        try:
            lines = Path(path).read_text().splitlines()
        except OSError as e:
            raise ConfigurationError(f"cannot read candidates {path}: {e}") from e
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as e:
                raise ValidationError(f"{path}: bad candidate line: {e}") from e
            if not isinstance(doc, dict) or not {"wis", "ess"} <= doc.keys():
                raise ValidationError(f"{path}: a candidate line must be an object with \"wis\" and \"ess\"")
            cid = doc.get("id")
            cid = tuple(cid) if isinstance(cid, list) else cid
            candidates.append(
                (cid, OpeResult(
                    wis=float(doc["wis"]), ess=float(doc["ess"]),
                    episode_weights=np.zeros(0), step_averages=np.zeros(0),
                    clip_count=int(doc.get("clip_count", 0)),
                    n_episodes=int(doc.get("n_episodes", 0)),
                ))
            )
    if not candidates:
        raise ValidationError("no candidates found in the given files")
    cid, chosen = select_model(candidates, args.ess_cutoff)
    print(json.dumps({"id": cid, "wis": chosen.wis, "ess": chosen.ess}))
    return 0


# -- report -------------------------------------------------------------------


def _cmd_report(args) -> int:
    """Quantiles of one metrics field per label and x value.

    Online lines are grouped by `episode` under the run's preset.
    Offline lines carry `tau` and `step`; they are grouped by step under
    one label per tau, such as "AD-BCQ tau=0.1", so the taus a run
    trained do not mix.
    """
    groups: dict[str, dict[int, list[float]]] = {}
    axes = set()
    complete = 0
    for raw in args.runs:
        run = Path(raw)
        cfg_path = run / "config.json"
        metrics_path = run / "metrics.jsonl"
        if not cfg_path.exists() or not metrics_path.exists():
            raise ConfigurationError(f"{run} is not a run directory (missing config.json/metrics.jsonl)")
        if (run / "INCOMPLETE").exists():
            logger.warning("skipping incomplete run %s", run)
            continue
        complete += 1
        config = json.loads(cfg_path.read_text())
        preset = str(config.get("preset", run.name))
        for i, line in enumerate(metrics_path.read_text().splitlines()):
            if not line.strip():
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as e:
                raise ValidationError(f"{metrics_path}: line {i + 1} is not valid JSON: {e}") from e
            if not isinstance(doc, dict):
                raise ValidationError(f"{metrics_path}: line {i + 1} is not a JSON object")
            value = doc.get(args.key)
            if value is None:
                continue
            if "tau" in doc:
                axes.add("step")
                label, x = f"{preset} tau={doc['tau']}", int(doc["step"])
            else:
                axes.add("episode")
                label, x = preset, int(doc.get("episode", i))
            groups.setdefault(label, {}).setdefault(x, []).append(float(value))
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

    p = sub.add_parser("validate", help="check a spec file's invariants")
    p.add_argument("spec")
    p.add_argument("--require-assumption-1", action="store_true",
                   help="additionally require pairwise-disjoint block effect sets")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("gen", help="generate a spec (and optionally a logged dataset)")
    p.add_argument("--task", choices=("random", "two-switch", "treatment", "xor-trap"),
                   default="random")
    p.add_argument("--structure", choices=("fully_separable", "separable_effects", "non_separable"),
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
    p.add_argument("--block-order", choices=("round_robin", "random"), default="round_robin")
    p.add_argument("--seed", type=int, default=0)
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
    p.add_argument("--env-episode-len", type=int, default=None,
                   help="environment episode length (default: the config's episode_len)")
    p.add_argument("--force-scale", type=float, default=1.0)
    p.add_argument("--threshold", type=float, default=None,
                   help="also report episodes-to-threshold on eval returns")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a training-config field")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train_online)

    p = sub.add_parser("train-offline", help="train an offline preset and select a model")
    p.add_argument("--preset", required=True)
    p.add_argument("--spec", required=True)
    p.add_argument("--episodes", required=True, help="JSON-lines episode log")
    p.add_argument("--seeds", default="0")
    p.add_argument("--tau-grid", default="0.0,0.01,0.05,0.1,0.3,0.5,0.75,0.9999")
    p.add_argument("--split", default="0.7,0.15,0.15")
    p.add_argument("--ess-cutoff-frac", type=float, default=0.1)
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train_offline)

    p = sub.add_parser("ope", help="score a greedy policy file on logged episodes")
    p.add_argument("--episodes", required=True)
    p.add_argument("--policy", required=True, help="JSON per-state action codes")
    p.add_argument("--n-actions", type=int, required=True)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--clip", type=float, default=1000.0)
    p.add_argument("--soften-epsilon", type=float, default=0.01)
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
    except CONFIG_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (SelectionError, FrlError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
