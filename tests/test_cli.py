"""Command-line runner tests: exit codes, artifacts, determinism.

Commands run in-process through `main(argv)`; each test works inside a
temporary directory via the FRL_OUT environment override.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from frl.cli import main, split_episodes
from frl.envs import generate_offline_dataset, two_switch_spec
from frl.errors import ConfigurationError, ValidationError
from frl.ope import EpisodeLog, load_episodes, soften, wis_ess


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


def test_validate_accepts_separable_and_flags_overlap(workspace, capsys):
    run = _gen_two_switch(workspace)
    spec_path = str(run / "spec.json")
    assert main(["validate", spec_path, "--require-assumption-1"]) == 0
    assert "OK" in capsys.readouterr().out

    assert main(["gen", "--task", "random", "--structure", "non_separable",
                 "--n-vars", "4", "--n-blocks", "2", "--out", "nsep"]) == 0
    nsep = str(workspace / "nsep" / "spec.json")
    assert main(["validate", nsep]) == 0
    capsys.readouterr()
    assert main(["validate", nsep, "--require-assumption-1"]) == 2
    err = capsys.readouterr().err
    assert "state variable" in err  # the message names the violator


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
    policies = list((out / "checkpoints").glob("policy-tau*.json"))
    assert len(policies) == 4  # two taus x two checkpoints
    lines = [json.loads(l) for l in (out / "metrics.jsonl").read_text().splitlines()]
    assert {l["tau"] for l in lines} == {0.0, 0.1}
    summary = (workspace / "off" / "summary.csv").read_text().splitlines()
    assert len(summary) == 2


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
