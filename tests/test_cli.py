"""Command-line runner tests: exit codes, artifacts, determinism.

Commands run in-process through `main(argv)`; each test works inside a
temporary directory via the FRL_OUT environment override.
"""

import concurrent.futures
import dataclasses
import json
import logging
import multiprocessing
import os
from pathlib import Path

import numpy as np
import pytest

import frl.cli as cli_module
from frl.cli import main, offline_selection_run, split_episodes
from frl.envs import generate_offline_dataset, treatment_spec, two_switch_spec
from frl.errors import ConfigurationError, SelectionError, ValidationError
from frl.ope import load_episodes, soften, wis_ess
from oracles import offline_selection_reference


@pytest.fixture()
def workspace(tmp_path, monkeypatch):
    monkeypatch.setenv("FRL_OUT", str(tmp_path))
    return tmp_path


def _gen_two_switch(workspace, episodes=0):
    argv = ["gen", "--task", "two-switch", "--out", "tsw"]
    if episodes:
        argv += ["--episodes", str(episodes)]
    assert main(argv) == 0
    return workspace / "tsw"


# -- validate / gen -----------------------------------------------------------


def test_validate_accepts_a_generated_spec(workspace, capsys):
    run = _gen_two_switch(workspace)
    capsys.readouterr()
    assert main(["validate", str(run / "spec.json")]) == 0
    assert capsys.readouterr().out == "OK: 3 state vars (8 states), 2 blocks (4 joint actions), discount 0.9\n"


def test_gen_writes_selfdescribing_run(workspace):
    run = _gen_two_switch(workspace, episodes=12)
    assert (run / "config.json").exists()
    assert not (run / "INCOMPLETE").exists()
    config = json.loads((run / "config.json").read_text())
    assert config["subcommand"] == "gen" and config["task"] == "two-switch"
    episodes = load_episodes(run / "episodes.jsonl")
    assert len(episodes) == 12
    spec = two_switch_spec()
    assert (run / "spec.json").read_text().strip() == spec.to_json()


def test_gen_is_deterministic_across_invocations(workspace):
    for name in ("a", "b"):
        assert main(["gen", "--task", "random", "--seed", "5", "--episodes", "8",
                     "--out", name]) == 0
    read = lambda n, f: (workspace / n / f).read_text()
    assert read("a", "spec.json") == read("b", "spec.json")
    assert read("a", "episodes.jsonl") == read("b", "episodes.jsonl")


def test_unknown_flags_exit_two(workspace):
    with pytest.raises(SystemExit) as exit_info:
        main(["gen", "--task", "two-switch", "--out", "x", "--no-such-flag"])
    assert exit_info.value.code == 2


# -- tabular runners ----------------------------------------------------------


def test_mbfpi_emits_trace_and_summary(workspace):
    run = _gen_two_switch(workspace)
    assert main(["mbfpi", "--spec", str(run / "spec.json"), "--out", "fpi"]) == 0
    out = workspace / "fpi"
    lines = [json.loads(l) for l in (out / "metrics.jsonl").read_text().splitlines()]
    assert len(lines) >= 2
    *iters, final = lines
    assert all({"iter", "improved_block", "values"} <= l.keys() for l in iters)
    assert [l["iter"] for l in iters] == list(range(len(iters)))
    assert "final_values" in final
    rows = (out / "summary.csv").read_text().splitlines()
    assert rows[0].startswith("iterations,terminated")
    assert len(rows) == 2


def test_sample_complexity_logs_every_trial(workspace):
    run = _gen_two_switch(workspace)
    assert main(["sample-complexity", "--spec", str(run / "spec.json"),
                 "--sizes", "40,80", "--trials", "4", "--out", "sc"]) == 0
    out = workspace / "sc"
    lines = [json.loads(l) for l in (out / "metrics.jsonl").read_text().splitlines()]
    assert len(lines) == 8  # one record per (N, trial)
    assert {l["n"] for l in lines} == {40, 80}
    summary = (out / "summary.csv").read_text().splitlines()
    assert len(summary) == 3


# -- training runners ---------------------------------------------------------

TINY_ONLINE = ["--bins", "3", "--set", "hidden=[10]", "--set", "episodes=3",
               "--set", "episode_len=15", "--set", "learning_starts=1",
               "--set", "batch_size=8", "--set", "eval_every=2",
               "--set", "eval_episodes=1"]


def test_train_online_run_layout_and_determinism(workspace):
    argv = ["train-online", "--preset", "DECQN", "--seeds", "1,2", *TINY_ONLINE]
    assert main(argv + ["--out", "on1"]) == 0
    assert main(argv + ["--out", "on2"]) == 0
    for seed in (1, 2):
        run = workspace / "on1" / f"DECQN-seed{seed}"
        assert (run / "config.json").exists()
        assert (run / "checkpoints" / "final_net.json").exists()
        assert not (run / "INCOMPLETE").exists()
        config = json.loads((run / "config.json").read_text())
        assert config["preset"] == "DECQN" and config["seed"] == seed
        first = (run / "metrics.jsonl").read_text()
        second = (workspace / "on2" / f"DECQN-seed{seed}" / "metrics.jsonl").read_text()
        assert first == second  # bit-identical regeneration
    summary = (workspace / "on1" / "summary.csv").read_text().splitlines()
    assert len(summary) == 3 and summary[1].startswith("DECQN,1,")


def test_train_online_rejects_unknown_override(workspace, capsys):
    assert main(["train-online", "--preset", "DECQN", "--set", "not_a_key=1",
                 "--out", "bad"]) == 2
    assert "unknown config key" in capsys.readouterr().err
    assert main(["train-online", "--preset", "DECQN", "--set", "malformed",
                 "--out", "bad"]) == 2


@pytest.mark.parametrize("command, key", [("train-online", "target_tau=0.5"), ("train-offline", "polyak=0.01")])
def test_a_fixed_hyperparameter_is_not_a_config_key(workspace, capsys, command, key):
    """The target update rule is a module constant of each learner; the
    other settings keep a run short where the key is still accepted."""
    run = _gen_two_switch(workspace, episodes=20)
    if command == "train-online":
        rest = ["--preset", "AD-DQN-2n", *TINY_ONLINE]
    else:
        rest = ["--preset", "AD-BCQ", "--spec", str(run / "spec.json"), "--episodes", str(run / "episodes.jsonl"),
                "--tau-grid", "0.1", "--set", "train_steps=2", "--set", "checkpoint_every=1"]
    capsys.readouterr()
    code = main([command, "--set", key, *rest, "--out", "fixed"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: unknown config key {key.split('=')[0]!r}") and "Traceback" not in err
    assert not (workspace / "fixed").exists()


def test_train_offline_selection_artifacts(workspace):
    run = _gen_two_switch(workspace, episodes=40)
    assert main(["train-offline", "--preset", "AD-BCQ",
                 "--spec", str(run / "spec.json"),
                 "--episodes", str(run / "episodes.jsonl"),
                 "--seeds", "3", "--tau-grid", "0.0,0.1",
                 "--set", "train_steps=30", "--set", "checkpoint_every=15",
                 "--set", "hidden=12", "--set", "batch_size=8",
                 "--out", "off"]) == 0
    out = workspace / "off" / "AD-BCQ-seed3"
    selection = json.loads((out / "selection.json").read_text())
    assert selection["tau"] in (0.0, 0.1) and selection["step"] in (15, 30)
    assert np.isfinite(selection["val_wis"]) and np.isfinite(selection["test_wis"])
    assert len(selection["policy"]) == 8
    assert type(selection["imputed_cells"]) is int and selection["imputed_cells"] >= 0
    policies = list((out / "checkpoints").glob("policy-tau*.json"))
    assert len(policies) == 4  # two taus x two checkpoints
    lines = [json.loads(l) for l in (out / "metrics.jsonl").read_text().splitlines()]
    assert {l["tau"] for l in lines} == {0.0, 0.1}
    summary = (workspace / "off" / "summary.csv").read_text().splitlines()
    assert len(summary) == 2


def test_train_offline_config_records_the_tau_grid_and_no_single_tau(workspace):
    run = _gen_two_switch(workspace, episodes=20)
    assert main(["train-offline", "--preset", "AD-BCQ", "--spec", str(run / "spec.json"),
                 "--episodes", str(run / "episodes.jsonl"), "--tau-grid", "0.0,0.5",
                 "--set", "train_steps=2", "--set", "checkpoint_every=1", "--out", "off"]) == 0
    config = json.loads((workspace / "off" / "AD-BCQ-seed0" / "config.json").read_text())
    assert config["tau_grid"] == [0.0, 0.5] and config["train_steps"] == 2
    assert "tau_bcq" not in config


def test_failed_run_keeps_incomplete_marker(workspace):
    run = _gen_two_switch(workspace, episodes=6)
    code = main(["train-offline", "--preset", "AD-BCQ",
                 "--spec", str(run / "spec.json"),
                 "--episodes", str(run / "episodes.jsonl"),
                 "--seeds", "0", "--tau-grid", "0.0",
                 "--split", "0.9,0.05,0.05",  # 6 episodes cannot fill 3 slices
                 "--out", "fail"])
    assert code == 2
    marker = workspace / "fail" / "AD-BCQ-seed0" / "INCOMPLETE"
    assert marker.exists() and "failed" in marker.read_text()


def test_a_failed_selection_keeps_its_training_and_the_other_seeds_run(workspace, capsys):
    """At an ESS cutoff of the whole validation split no candidate passes
    (ESS reaches n only when every episode weighs the same).  Each seed's
    run dir still holds the metrics and checkpoints of its training, and
    a selection.json that records the stop; the command exits 1 at the
    end, naming both seeds."""
    assert main(["gen", "--task", "treatment", "--episodes", "60", "--out", "data"]) == 0
    data = workspace / "data"
    capsys.readouterr()
    code = main(["train-offline", "--preset", "AD-BCQ", "--spec", str(data / "spec.json"),
                 "--episodes", str(data / "episodes.jsonl"), "--seeds", "0,1", "--tau-grid", "0.1,0.5",
                 "--set", "train_steps=20", "--set", "checkpoint_every=10", "--ess-cutoff-frac", "1.0",
                 "--out", "off"])
    assert code == 1
    assert capsys.readouterr().err.splitlines()[-1] == "error: no candidate reached the ESS cutoff at seeds 0, 1"
    assert (workspace / "off" / "summary.csv").read_text().splitlines() == [
        "preset,seed,tau,step,val_wis,val_ess,test_wis,test_ess", "AD-BCQ,0,,,,,,", "AD-BCQ,1,,,,,,"]
    spec = treatment_spec()
    episodes = load_episodes(data / "episodes.jsonl")
    for seed in (0, 1):
        run = workspace / "off" / f"AD-BCQ-seed{seed}"
        assert not (run / "INCOMPLETE").exists()
        # the training a passing cutoff keeps
        passed, metrics, checkpoints = offline_selection_reference(
            episodes, spec, "AD-BCQ", seed, tau_grid=(0.1, 0.5), ess_cutoff_frac=0.0,
            overrides={"train_steps": 20, "checkpoint_every": 10})
        assert (run / "metrics.jsonl").read_text() == "".join(json.dumps(m) + "\n" for m in metrics)
        assert len(checkpoints) == 4
        for cp in checkpoints:
            path = run / "checkpoints" / f"policy-tau{cp['tau']}-step{cp['step']}.json"
            assert path.read_text() == json.dumps(cp) + "\n"
        _, val, _ = split_episodes(episodes, (0.7, 0.15, 0.15), seed)
        best = max(wis_ess(val, soften(np.asarray(cp["policy"]), 0.01, spec.n_actions)).ess for cp in checkpoints)
        assert json.loads((run / "selection.json").read_text()) == {
            "preset": "AD-BCQ", "seed": seed, "stop": f"no candidate reached ESS 9.0; best available was {best:.3f}",
            "ess_cutoff": 1.0 * len(val), "best_val_ess": best,
            **{k: passed[k] for k in ("n_train", "n_val", "n_test", "imputed_cells")},
        }


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SMALL_BCQ = {"train_steps": 20, "checkpoint_every": 10, "hidden": 16, "batch_size": 16}


@pytest.mark.parametrize("seed, blas_env", [
    (0, {"OPENBLAS_NUM_THREADS": "2", "MKL_NUM_THREADS": "3"}),
    (7, {}),
])
def test_offline_selection_run_equals_the_sequential_oracle(seed, blas_env, monkeypatch):
    """Three taus, so that they outnumber the workers on a 2-CPU machine;
    the BLAS variables read as before the call, unset ones included."""
    spec = treatment_spec()
    behavior = np.full((spec.n_states, spec.n_actions), 1.0 / spec.n_actions)
    episodes = generate_offline_dataset(spec, behavior, episodes=60, seed=seed)
    for var in BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    for var, value in blas_env.items():
        monkeypatch.setenv(var, value)
    kwargs = {"tau_grid": (0.0, 0.1, 0.5), "overrides": SMALL_BCQ}
    got = offline_selection_run(episodes, spec, "AD-BCQ", seed, **kwargs)
    assert {var: os.environ.get(var) for var in BLAS_THREAD_VARS} == {var: blas_env.get(var) for var in BLAS_THREAD_VARS}
    assert not multiprocessing.active_children()
    want = offline_selection_reference(episodes, spec, "AD-BCQ", seed, **kwargs)
    for got_part, want_part in zip(got, want):  # selection, metrics, checkpoints
        assert json.dumps(got_part) == json.dumps(want_part)


def test_offline_selection_run_raises_when_no_candidate_passes():
    """A caller of the library call, such as the benchmark, sees the
    failed selection as a SelectionError naming the best ESS."""
    spec = two_switch_spec()
    behavior = np.full((spec.n_states, spec.n_actions), 1.0 / spec.n_actions)
    episodes = generate_offline_dataset(spec, behavior, episodes=20, seed=0)
    with pytest.raises(SelectionError, match=r"^no candidate reached ESS 3\.0; best available was "):
        offline_selection_run(episodes, spec, "AD-BCQ", 0, tau_grid=(0.1,), ess_cutoff_frac=1.0,
                              overrides=SMALL_BCQ)
    assert not multiprocessing.active_children()


def test_truncated_episodes_warn_once_per_selection_run(caplog):
    """The train split is converted once, in this process, for every tau."""
    spec = two_switch_spec()
    behavior = np.full((spec.n_states, spec.n_actions), 1.0 / spec.n_actions)
    episodes = [dataclasses.replace(ep, final_state=None)
                for ep in generate_offline_dataset(spec, behavior, episodes=20, seed=0)]
    with caplog.at_level(logging.WARNING):
        selection, _, _ = offline_selection_run(episodes, spec, "AD-BCQ", 0, tau_grid=(0.0, 0.1, 0.5),
                                                overrides=SMALL_BCQ)
    dropped = [r.getMessage() for r in caplog.records if r.name == "frl.agents.bcq"]
    n_train = selection["n_train"]
    assert dropped == [f"dropped {n_train} episode-final transitions with unlogged successors"]


def test_offline_selection_run_fits_the_model_once_in_this_process(monkeypatch):
    """One `learn_model` call per run, whatever the grid; the selection
    counts the cells its `to_spec` imputed."""
    spec = treatment_spec()
    behavior = np.full((spec.n_states, spec.n_actions), 1.0 / spec.n_actions)
    episodes = generate_offline_dataset(spec, behavior, episodes=40, seed=3)
    fits, fit = [], cli_module.learn_model

    def counted(*args):
        fits.append(fit(*args))
        return fits[-1]

    monkeypatch.setattr(cli_module, "learn_model", counted)
    selection, _, _ = offline_selection_run(episodes, spec, "AD-BCQ", 3, tau_grid=(0.0, 0.1, 0.5),
                                            overrides=SMALL_BCQ)
    assert len(fits) == 1
    imputed = fits[0].to_spec()[1]
    assert imputed and selection["imputed_cells"] == len(imputed)


def _one_step_log(workspace) -> Path:
    """20 one-step episodes with no final state: no usable transition."""
    episode = {"states": [0], "actions": [1], "rewards": [0.0], "propensities": [0.25]}
    log = workspace / "one-step.jsonl"
    log.write_text((json.dumps(episode) + "\n") * 20)
    return log


def _forbid_worker_pools(monkeypatch):
    """Make starting a worker pool fail the test."""
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)


def test_train_offline_on_a_log_with_no_usable_transitions_exits_two(workspace, capsys, caplog):
    """Every episode is one step long with no final state, so the train
    split converts to an empty batch and the run fails in this process."""
    run = _gen_two_switch(workspace)
    log = _one_step_log(workspace)
    capsys.readouterr()
    with caplog.at_level(logging.WARNING):
        code = main(["train-offline", "--preset", "AD-BCQ", "--spec", str(run / "spec.json"),
                     "--episodes", str(log), "--seeds", "0", "--tau-grid", "0.1,0.5",
                     "--set", "train_steps=5", "--out", "empty"])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "error: dataset has no usable transitions\n"
    assert not multiprocessing.active_children()
    # the train split's conversion warned once, before the run failed
    assert [r.getMessage() for r in caplog.records if r.name == "frl.agents.bcq"] == [
        "dropped 14 episode-final transitions with unlogged successors"]


def test_a_train_split_with_no_usable_transitions_starts_no_worker(workspace, capsys, monkeypatch):
    run = _gen_two_switch(workspace)
    log = _one_step_log(workspace)
    _forbid_worker_pools(monkeypatch)
    capsys.readouterr()
    code = main(["train-offline", "--preset", "AD-BCQ", "--spec", str(run / "spec.json"),
                 "--episodes", str(log), "--seeds", "0", "--tau-grid", "0.1,0.5",
                 "--set", "train_steps=5", "--out", "empty"])
    assert code == 2
    assert capsys.readouterr().err == "error: dataset has no usable transitions\n"


@pytest.mark.parametrize("part, field, step, code", [("validation", "states", 0, 999), ("train", "actions", 1, 99)])
def test_train_offline_on_a_code_out_of_range_exits_two_before_training(
    workspace, capsys, monkeypatch, part, field, step, code
):
    """The first episode of the seed-0 validation split starts in state
    999, or that of the train split takes action 99 at its second step:
    the parent names the episode by its index in the log, and no worker
    starts."""
    run = _gen_two_switch(workspace, episodes=20)
    episodes = load_episodes(str(run / "episodes.jsonl"))
    train, val, _ = split_episodes(episodes, (0.7, 0.15, 0.15), 0)
    bad = next(i for i, ep in enumerate(episodes) if ep is (train if part == "train" else val)[0])
    lines = (run / "episodes.jsonl").read_text().splitlines()
    doc = json.loads(lines[bad])
    doc[field][step] = code
    lines[bad] = json.dumps(doc)
    log = workspace / "bad-code.jsonl"
    log.write_text("\n".join(lines) + "\n")
    _forbid_worker_pools(monkeypatch)
    capsys.readouterr()
    exit_code = main(["train-offline", "--preset", "AD-BCQ", "--spec", str(run / "spec.json"),
                      "--episodes", str(log), "--seeds", "0", "--tau-grid", "0.1,0.5",
                      "--set", "train_steps=5", "--out", "bad-code"])
    assert exit_code == 2
    assert capsys.readouterr().err == (
        f"error: episode {bad} step {step}: state {doc['states'][step]} or action {doc['actions'][step]} "
        "is outside the spec's 8 states x 4 joint actions\n"
    )
    if part == "validation":
        assert bad == 18


@pytest.mark.parametrize("part", ["train", "validation"])
@pytest.mark.parametrize("preset", ["AD-BCQ", "BCQ"])
def test_train_offline_on_a_final_state_out_of_range_exits_two_before_training(workspace, capsys, preset, part):
    """An episode of the seed-0 train or validation split ends in state
    999: the parent's check names the range before any worker starts,
    whichever split the episode lands in."""
    run = _gen_two_switch(workspace, episodes=20)
    episodes = load_episodes(str(run / "episodes.jsonl"))
    train, val, _ = split_episodes(episodes, (0.7, 0.15, 0.15), 0)
    bad = next(i for i, ep in enumerate(episodes) if ep is (train if part == "train" else val)[0])
    lines = (run / "episodes.jsonl").read_text().splitlines()
    lines[bad] = json.dumps({**json.loads(lines[bad]), "final_state": 999})
    log = workspace / "bad-final.jsonl"
    log.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    code = main(["train-offline", "--preset", preset, "--spec", str(run / "spec.json"),
                 "--episodes", str(log), "--seeds", "0", "--tau-grid", "0.1,0.5",
                 "--set", "train_steps=5", "--out", "bad-final"])
    assert code == 2
    assert capsys.readouterr().err == "error: logged state codes out of range [0, 8)\n"
    assert not multiprocessing.active_children()


def test_split_episodes_partitions_without_overlap():
    spec = two_switch_spec()
    behavior = np.full((spec.n_states, spec.n_actions), 1.0 / spec.n_actions)
    episodes = generate_offline_dataset(spec, behavior, episodes=20, seed=0)
    train, val, test = split_episodes(episodes, (0.7, 0.15, 0.15), seed=1)
    assert len(train) == 14 and len(val) == 3 and len(test) == 3
    ids = [id(e) for e in train + val + test]
    assert sorted(ids) == sorted(id(e) for e in episodes)
    with pytest.raises(ConfigurationError):
        split_episodes(episodes, (0.5, 0.5), seed=0)


# -- evaluation and reporting -------------------------------------------------


def test_ope_command_matches_library_result(workspace, capsys):
    run = _gen_two_switch(workspace, episodes=25)
    policy_path = workspace / "policy.json"
    policy_path.write_text(json.dumps({"policy": [0] * 8}))
    capsys.readouterr()  # drain the gen command's status line
    assert main(["ope", "--episodes", str(run / "episodes.jsonl"),
                 "--policy", str(policy_path), "--n-actions", "4",
                 "--gamma", "0.9", "--out", "ope.json"]) == 0
    printed = json.loads(capsys.readouterr().out.strip())
    episodes = load_episodes(run / "episodes.jsonl")
    expected = wis_ess(episodes, soften(np.zeros(8, dtype=int), 0.01, 4), gamma=0.9)
    assert printed["wis"] == expected.wis and printed["ess"] == expected.ess
    on_disk = json.loads((workspace / "ope.json").read_text())
    assert on_disk == printed


def test_select_command_applies_cutoff(workspace, capsys):
    cands = workspace / "cands.jsonl"
    cands.write_text(
        '{"id": ["a", 1], "wis": 2.0, "ess": 5.0}\n'
        '{"id": ["b", 2], "wis": 3.0, "ess": 0.5}\n'
    )
    assert main(["select", "--candidates", str(cands), "--ess-cutoff", "1.0"]) == 0
    chosen = json.loads(capsys.readouterr().out)
    assert chosen["id"] == ["a", 1]  # higher-WIS candidate fails the cutoff
    assert main(["select", "--candidates", str(cands), "--ess-cutoff", "50"]) == 1
    assert main(["select", "--candidates", str(workspace / "absent.jsonl"),
                 "--ess-cutoff", "1"]) == 2


def _fake_run(root: Path, preset: str, seed: int, returns):
    run = root / f"{preset}-seed{seed}"
    run.mkdir(parents=True)
    (run / "config.json").write_text(json.dumps({"preset": preset, "seed": seed}))
    with open(run / "metrics.jsonl", "w") as fh:
        for ep, value in enumerate(returns):
            fh.write(json.dumps({"episode": ep, "return": value}) + "\n")
    return run


def test_report_aggregates_quantiles_per_preset(workspace):
    runs = [
        _fake_run(workspace, "A", 1, [1.0, 2.0]),
        _fake_run(workspace, "A", 2, [3.0, 6.0]),
        _fake_run(workspace, "B", 1, [5.0]),
    ]
    assert main(["report", "--runs", *[str(r) for r in runs],
                 "--out", "summary.csv"]) == 0
    rows = (workspace / "summary.csv").read_text().splitlines()
    assert rows[0] == "preset,episode,n,mean,q25,q50,q75"
    table = {tuple(r.split(",")[:2]): r.split(",") for r in rows[1:]}
    assert float(table[("A", "0")][3]) == 2.0  # mean of 1 and 3
    assert float(table[("A", "1")][5]) == 4.0  # median of 2 and 6
    assert float(table[("B", "0")][3]) == 5.0


def test_report_skips_incomplete_and_fails_when_empty(workspace):
    run = _fake_run(workspace, "A", 1, [1.0])
    (run / "INCOMPLETE").write_text("run in progress\n")
    assert main(["report", "--runs", str(run), "--out", "s.csv"]) == 2
    assert main(["report", "--runs", str(workspace / "nope"), "--out", "s.csv"]) == 2


def test_report_groups_offline_lines_by_step_within_each_tau(workspace):
    run = _gen_two_switch(workspace, episodes=30)
    assert main(["train-offline", "--preset", "AD-BCQ",
                 "--spec", str(run / "spec.json"),
                 "--episodes", str(run / "episodes.jsonl"),
                 "--seeds", "1", "--tau-grid", "0.0,0.1",
                 "--set", "train_steps=20", "--set", "checkpoint_every=10",
                 "--set", "hidden=8", "--set", "batch_size=8",
                 "--out", "off"]) == 0
    out = workspace / "off" / "AD-BCQ-seed1"
    assert main(["report", "--runs", str(out), "--key", "q_loss", "--out", "r.csv"]) == 0
    rows = (workspace / "r.csv").read_text().splitlines()
    assert rows[0] == "preset,step,n,mean,q25,q50,q75"
    table = {tuple(r.split(",")[:2]): r.split(",") for r in rows[1:]}
    assert set(table) == {("AD-BCQ tau=0.0", "10"), ("AD-BCQ tau=0.0", "20"),
                          ("AD-BCQ tau=0.1", "10"), ("AD-BCQ tau=0.1", "20")}
    for line in (json.loads(l) for l in (out / "metrics.jsonl").read_text().splitlines()):
        row = table[(f"AD-BCQ tau={line['tau']}", str(line["step"]))]
        assert row[2] == "1" and float(row[3]) == line["q_loss"]
    # per-episode and per-step lines of one key do not share a table
    online = _fake_run(workspace, "B", 1, [2.0])
    with open(online / "metrics.jsonl", "a") as fh:
        fh.write(json.dumps({"episode": 1, "q_loss": 0.5}) + "\n")
    assert main(["report", "--runs", str(out), str(online), "--key", "q_loss", "--out", "m.csv"]) == 2


# -- malformed input files exit 2 ---------------------------------------------


def test_ope_rejects_a_policy_file_without_a_policy_key(workspace, capsys):
    run = _gen_two_switch(workspace, episodes=5)
    policy_path = workspace / "policy.json"
    policy_path.write_text(json.dumps({"actions": [0] * 8}))
    assert main(["ope", "--episodes", str(run / "episodes.jsonl"),
                 "--policy", str(policy_path), "--n-actions", "4"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("policy", [["a"] * 8, [], [[0, 1], [2]]])
def test_ope_rejects_a_policy_that_is_not_integer_codes(workspace, capsys, policy):
    run = _gen_two_switch(workspace, episodes=5)
    policy_path = workspace / "policy.json"
    policy_path.write_text(json.dumps({"policy": policy}))
    capsys.readouterr()
    assert main(["ope", "--episodes", str(run / "episodes.jsonl"),
                 "--policy", str(policy_path), "--n-actions", "4"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_episode_line_with_a_bad_propensity_exits_two(workspace, capsys):
    run = _gen_two_switch(workspace, episodes=3)
    policy_path = workspace / "policy.json"
    policy_path.write_text(json.dumps({"policy": [0] * 8}))
    for propensity in (1.5, float("nan")):  # json writes NaN, and reads it back
        lines = (run / "episodes.jsonl").read_text().splitlines()
        broken = json.loads(lines[1])
        broken["propensities"][0] = propensity
        lines[1] = json.dumps(broken)
        bad = workspace / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValidationError, match=r"line 2: propensity out of \(0, 1\] at step 0"):
            load_episodes(bad)
        capsys.readouterr()
        assert main(["ope", "--episodes", str(bad), "--policy", str(policy_path), "--n-actions", "4"]) == 2
        assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("line", ['{"id": "a", "wis": 2.0}', '{"id": "a", "ess": 2.0}', "[2.0, 5.0]"])
def test_select_rejects_a_candidate_line_without_wis_and_ess(workspace, capsys, line):
    cands = workspace / "cands.jsonl"
    cands.write_text('{"id": "ok", "wis": 1.0, "ess": 5.0}\n' + line + "\n")
    assert main(["select", "--candidates", str(cands), "--ess-cutoff", "1.0"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("command", ["ope", "train-offline"])
def test_episode_line_missing_a_field_exits_two(workspace, capsys, command):
    run = _gen_two_switch(workspace, episodes=5)
    lines = (run / "episodes.jsonl").read_text().splitlines()
    broken = json.loads(lines[2])
    del broken["states"]
    lines[2] = json.dumps(broken)
    bad = workspace / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValidationError, match="line 3: episode line lacks states"):
        load_episodes(bad)
    policy_path = workspace / "policy.json"
    policy_path.write_text(json.dumps({"policy": [0] * 8}))
    argv = {
        "ope": ["ope", "--episodes", str(bad), "--policy", str(policy_path), "--n-actions", "4"],
        "train-offline": ["train-offline", "--preset", "AD-BCQ", "--spec", str(run / "spec.json"),
                          "--episodes", str(bad), "--seeds", "1", "--out", "off"],
    }[command]
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_report_rejects_a_metrics_line_that_is_not_json(workspace, capsys):
    run = _fake_run(workspace, "A", 1, [1.0, 2.0])
    with open(run / "metrics.jsonl", "a") as fh:
        fh.write("{not json\n")
    assert main(["report", "--runs", str(run), "--out", "s.csv"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "line 3" in err


# -- one table: every input file x every way it can be malformed --------------

SPEC_TEXT = two_switch_spec().to_json()
EPISODE = {"states": [0, 1], "actions": [1, 0], "rewards": [1.0, 0.0],
           "propensities": [0.25, 0.25], "final_state": 2}


def _lines(*docs) -> str:
    return "".join(json.dumps(d) + "\n" for d in docs)


# input: (path, valid content, truncated, wrong JSON type, wrong field type)
INPUTS = {
    "spec": ("spec.json", SPEC_TEXT, SPEC_TEXT[:200], "[1, 2]",
             json.dumps({**json.loads(SPEC_TEXT), "discount": "x"})),
    "episodes": ("episodes.jsonl", _lines(EPISODE), '{"states": [0, 1], "act', "[1, 2]\n",
                 _lines({**EPISODE, "rewards": ["a", "b"]})),
    "policy": ("policy.json", json.dumps({"policy": [0] * 8}), '{"policy": [0, 0', '"abc"',
               json.dumps({"policy": ["a"] * 8})),
    "candidates": ("cands.jsonl", _lines({"id": "a", "wis": 1.0, "ess": 5.0}), '{"id": "a", "wis": 1',
                   "[2.0, 5.0]\n", _lines({"id": "a", "wis": "x", "ess": 5.0})),
    "config": ("run/config.json", json.dumps({"preset": "A"}), '{"preset": "A"', "[1, 2]",
               json.dumps({"preset": 5})),
    "metrics": ("run/metrics.jsonl", _lines({"episode": 0, "return": 1.0}), '{"episode": 0, "ret',
                "[1, 2]\n", _lines({"episode": 0, "return": "abc"})),
}

COMMANDS = {
    "validate": ["validate", "{spec}"],
    "mbfpi": ["mbfpi", "--spec", "{spec}", "--out", "out"],
    "sample-complexity": ["sample-complexity", "--spec", "{spec}", "--out", "out"],
    "train-offline": ["train-offline", "--preset", "AD-BCQ", "--spec", "{spec}",
                      "--episodes", "{episodes}", "--out", "out"],
    "ope": ["ope", "--episodes", "{episodes}", "--policy", "{policy}", "--n-actions", "4"],
    "select": ["select", "--candidates", "{candidates}", "--ess-cutoff", "1"],
    "report": ["report", "--runs", "{run}"],
    "train-online": ["train-online", "--preset", "AD-DQN-2n", "--out", "out"],
    "gen": ["gen", "--task", "two-switch", "--out", "out"],
}

ROWS = [("validate", "spec"), ("mbfpi", "spec"), ("sample-complexity", "spec"),
        ("train-offline", "spec"), ("train-offline", "episodes"), ("ope", "episodes"),
        ("ope", "policy"), ("select", "candidates"), ("report", "config"), ("report", "metrics")]

COLUMNS = ("missing", "directory", "empty", "binary", "truncated JSON", "wrong JSON type",
           "wrong field type")
MISSING, DIRECTORY = object(), object()


def _column(name: str, item: str):
    _, _, truncated, wrong_type, wrong_field = INPUTS[item]
    return {"missing": MISSING, "directory": DIRECTORY, "empty": "", "binary": b"\xff\xfe",
            "truncated JSON": truncated, "wrong JSON type": wrong_type,
            "wrong field type": wrong_field}[name]


# (command, input, content, extra argv, what stderr must name: None for the input's
# path, else a string formatted with the input paths)
CASES = [
    pytest.param(cmd, item, _column(col, item), [], None, id=f"{cmd}-{item}-{col}")
    for cmd, item in ROWS for col in COLUMNS
] + [
    pytest.param("train-offline", "episodes", _lines({**EPISODE, "final_state": "q"}), [], None,
                 id="train-offline-episodes-final-state"),
    pytest.param("report", "metrics", _lines({"episode": "zz", "return": 1.0}), [], None,
                 id="report-metrics-episode"),
    pytest.param("report", "metrics", _lines({"tau": 0.1, "return": 1.0}), [], "lacks step",
                 id="report-metrics-no-step"),
    # a float or bool episode or step would merge into another one's group
    pytest.param("report", "metrics", _lines({"episode": 2.5, "return": 1.0}), [], "episode 2.5",
                 id="report-metrics-float-episode"),
    pytest.param("report", "metrics", _lines({"episode": True, "return": 1.0}), [], "episode true",
                 id="report-metrics-bool-episode"),
    pytest.param("report", "metrics", _lines({"tau": 0.1, "step": 2.5, "return": 1.0}), [], "step 2.5",
                 id="report-metrics-float-step"),
    pytest.param("report", "metrics", _lines({"tau": 0.1, "step": True, "return": 1.0}), [], "step true",
                 id="report-metrics-bool-step"),
    # codes outside the policy table: a state of -1 would read its last row
    pytest.param("ope", "episodes", _lines({**EPISODE, "states": [-1, 1]}), [], "episode 0 step 0",
                 id="ope-episodes-state-out-of-range"),
    pytest.param("ope", "episodes", _lines({**EPISODE, "actions": [1, 9]}), [], "episode 0 step 1",
                 id="ope-episodes-action-out-of-range"),
    # a non-integer code is rejected, not truncated or read as 0/1
    pytest.param("ope", "episodes", _lines({**EPISODE, "states": [5.7, 1]}), [], None,
                 id="ope-episodes-float-state"),
    pytest.param("ope", "episodes", _lines({**EPISODE, "actions": [True, 0]}), [], None,
                 id="ope-episodes-bool-action"),
    pytest.param("ope", "episodes", _lines({**EPISODE, "final_state": True}), [], None,
                 id="ope-episodes-bool-final-state"),
    pytest.param("ope", "policy", json.dumps({"policy": [1.9] + [0] * 7}), [], None,
                 id="ope-policy-float-action"),
    pytest.param("ope", "policy", json.dumps([True] + [0] * 7), [], None, id="ope-policy-bool-action"),
    pytest.param("report", "metrics", _lines({"episode": 0, "return": True}), [], None,
                 id="report-metrics-bool-value"),
    # json reads the NaN literal; neither a NaN probability nor a NaN reward is data
    pytest.param("validate", "spec", json.dumps({**json.loads(SPEC_TEXT), "init_dist": [float("nan")] + [0.0] * 7}),
                 [], "{spec}: init_dist is not a distribution", id="validate-spec-nan-init-dist"),
    pytest.param("ope", "episodes", _lines({**EPISODE, "rewards": [float("nan"), 0.0]}), [], None,
                 id="ope-episodes-nan-reward"),
    pytest.param("train-online", None, None, ["--set", "episodes=abc"], "episodes", id="set-episodes"),
    pytest.param("train-online", None, None, ["--set", "hidden=abc"], "hidden", id="set-hidden"),
    pytest.param("train-offline", None, None, ["--set", "train_steps=abc"], "train_steps",
                 id="set-train-steps"),
    pytest.param("train-online", None, None, ["--seeds", ","], "int list", id="seeds-empty"),
    # numbers outside an option's domain
    pytest.param("sample-complexity", None, None, ["--sizes", "0"], "sizes [0]", id="sizes-zero"),
    pytest.param("sample-complexity", None, None, ["--sizes", "-5"], "sizes [-5]", id="sizes-negative"),
    pytest.param("sample-complexity", None, None, ["--trials", "0"], "trials 0", id="trials-zero"),
    pytest.param("sample-complexity", None, None, ["--delta", "1.5"], "delta 1.5", id="delta-above-one"),
    pytest.param("gen", None, None, ["--episodes", "1", "--horizon", "0"], "horizon=0", id="gen-horizon-zero"),
    pytest.param("gen", None, None, ["--episodes", "-3"], "episodes=-3", id="gen-episodes-negative"),
    # numpy seeds a generator from non-negative integers only
    pytest.param("gen", None, None, ["--seed", "-1"], "--seed -1", id="gen-seed-negative"),
    pytest.param("gen", None, None, ["--episodes", "3", "--dataset-seed", "-1"], "--dataset-seed -1",
                 id="gen-dataset-seed-negative"),
    pytest.param("sample-complexity", None, None, ["--seed", "-1"], "--seed -1", id="sample-complexity-seed-negative"),
    pytest.param("train-online", None, None, ["--seeds", "-1"], "--seeds -1", id="train-online-seeds-negative"),
    pytest.param("train-offline", None, None, ["--seeds", "-1"], "--seeds -1", id="train-offline-seeds-negative"),
    # a run's seed is one of --seeds, as its tau is one of --tau-grid
    pytest.param("train-online", None, None, ["--set", "seed=3"], "seed is driven by --seeds", id="train-online-set-seed"),
    pytest.param("train-offline", None, None, ["--set", "seed=3"], "seed is driven by --seeds", id="train-offline-set-seed"),
]


@pytest.mark.parametrize("command, item, content, extra, named", CASES)
def test_malformed_input_exits_two_naming_it(workspace, capsys, command, item, content, extra, named):
    paths = {}
    for name, (rel, valid, *_) in INPUTS.items():
        path = workspace / rel
        path.parent.mkdir(exist_ok=True)
        path.write_text(valid)
        paths[name] = str(path)
    paths["run"] = str(workspace / "run")
    if item is not None:
        path = workspace / INPUTS[item][0]
        path.unlink()
        if content is DIRECTORY:
            path.mkdir()
        elif isinstance(content, bytes):
            path.write_bytes(content)
        elif content is not MISSING:
            path.write_text(content)
    argv = [arg.format(**paths) for arg in COMMANDS[command]] + extra
    code = main(argv)
    err = capsys.readouterr().err
    if (item, content) == ("metrics", ""):
        assert code == 0  # an empty metrics log is valid: a run that logged nothing
        return
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err
    assert (paths[item] if named is None else named.format(**paths)) in err
    if "seed" in " ".join(extra):
        assert not (workspace / "out").exists()  # seeds are checked before any file is written


@pytest.mark.parametrize("command", ["validate", "mbfpi", "sample-complexity", "train-offline"])
def test_overlapping_effect_sets_exit_two_under_every_command(workspace, capsys, command):
    """One rule for every command that reads a spec: both blocks of this
    two-switch spec intervene on switch 0, and each command exits 2
    naming the variable before it writes anything."""
    spec = workspace / "overlap.json"
    spec.write_text(json.dumps({**json.loads(SPEC_TEXT), "eff_map": [[0], [0]]}))
    episodes = workspace / "episodes.jsonl"
    episodes.write_text(_lines(EPISODE))
    argv = [arg.format(spec=spec, episodes=episodes) for arg in COMMANDS[command]]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: {spec}: state variable 0 appears in the effect set of more than one block\n"
    )
    assert not (workspace / "out").exists()


@pytest.mark.parametrize("command, flag", [
    ("mbfpi", ["--block-order", "random"]),
    ("mbfpi", ["--seed", "1"]),
    ("train-online", ["--env-episode-len", "10"]),
    ("train-online", ["--force-scale", "2"]),
    ("train-online", ["--threshold", "0.5"]),
    ("ope", ["--clip", "10"]),
    ("ope", ["--soften-epsilon", "0.1"]),
], ids=lambda v: v if isinstance(v, str) else v[0])
def test_a_removed_flag_is_an_unrecognized_argument(workspace, capsys, command, flag):
    """MBFPI runs its blocks round-robin, the point mass's episodes end
    at the config's `episode_len` under forces in [-1, 1], and `ope`
    softens and clips as model selection does; none is a flag."""
    argv = [arg.format(spec="spec.json", episodes="episodes.jsonl", policy="policy.json")
            for arg in COMMANDS[command]]
    with pytest.raises(SystemExit) as exit_info:
        main(argv + flag)
    assert exit_info.value.code == 2
    assert f"error: unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert not (workspace / "out").exists()
