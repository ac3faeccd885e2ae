import ast
import csv
import hashlib
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deferkit import cli, rng
from deferkit.cli import load_dataset, main
from deferkit.models import (TrainConfig, init_linear, realized_deferral_loss,
                             replace_rows, system_accuracy, train)
from deferkit.synthdata import MogConfig, gen_random_discrete_task, gen_realizable_mog


def write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def test_gen_data_writes_npz_and_manifest(tmp_path):
    cfg = write(tmp_path / "gen.json",
                {"version": 1, "kind": "mog_single", "num_samples": 100})
    out = tmp_path / "data.npz"
    assert main(["gen-data", "--config", cfg, "--out", str(out), "--seed", "7"]) == 0
    ds = load_dataset(str(out))
    assert len(ds) == 100 and ds.stage == "single"
    manifest = json.loads((tmp_path / "data.manifest.json").read_text())
    assert manifest["seed"] == 7
    assert len(manifest["config_sha256"]) == 64


def test_gen_data_range_experts(tmp_path):
    cfg = write(tmp_path / "gen.json",
                {"version": 1, "kind": "range_experts", "num_samples": 50,
                 "n": 6, "ranges": [[0, 2], [2, 4]]})
    out = tmp_path / "d.npz"
    assert main(["gen-data", "--config", cfg, "--out", str(out)]) == 0
    ds = load_dataset(str(out))
    assert ds.shape.n == 6


def test_train_writes_model_and_trajectory(tmp_path):
    data_cfg = write(tmp_path / "gen.json",
                     {"version": 1, "kind": "mog_single", "num_samples": 200})
    data = tmp_path / "data.npz"
    main(["gen-data", "--config", data_cfg, "--out", str(data), "--seed", "1"])
    cfg = write(tmp_path / "train.json",
                {"version": 1, "data": str(data), "loss": "surrogate_mae",
                 "epochs": 5})
    out = tmp_path / "model.json"
    assert main(["train", "--config", cfg, "--out", str(out), "--seed", "1"]) == 0
    model = json.loads(out.read_text())
    assert model["kind"] == "linear"
    lines = (tmp_path / "model.trajectory.csv").read_text().splitlines()
    assert lines[0] == "epoch,surrogate_loss,target_loss"
    assert len(lines) == 6


def test_train_stage_mismatch_is_config_error(tmp_path):
    data_cfg = write(tmp_path / "gen.json",
                     {"version": 1, "kind": "mog_two", "num_samples": 50})
    data = tmp_path / "data.npz"
    main(["gen-data", "--config", data_cfg, "--out", str(data)])
    cfg = write(tmp_path / "train.json",
                {"version": 1, "data": str(data), "loss": "surrogate_mae"})
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "m.json")]) == 1


def test_unknown_field_rejected(tmp_path):
    cfg = write(tmp_path / "bad.json",
                {"version": 1, "kind": "mog_single", "num_samples": 5,
                 "typo_field": True})
    assert main(["gen-data", "--config", cfg, "--out", str(tmp_path / "x.npz")]) == 1


def test_wrong_version_rejected(tmp_path):
    cfg = write(tmp_path / "bad.json",
                {"version": 2, "kind": "mog_single", "num_samples": 5})
    assert main(["gen-data", "--config", cfg, "--out", str(tmp_path / "x.npz")]) == 1


def test_missing_required_field_rejected(tmp_path):
    cfg = write(tmp_path / "bad.json", {"version": 1, "kind": "mog_single"})
    assert main(["gen-data", "--config", cfg, "--out", str(tmp_path / "x.npz")]) == 1


def _unreadable_data(tmp_path, case):
    """A data file that train cannot load as a dataset, of each kind."""
    path = tmp_path / "set.npz"
    if case == "text":
        path.write_text("features,labels\n1,0\n")
    elif case == "one_array":
        with open(path, "wb") as fh:
            np.save(fh, np.zeros((3, 2)))
    elif case != "missing":
        arrays = dict(features=np.zeros((3, 2)), labels=np.zeros(3, dtype=int),
                      costs=np.zeros((3, 1)), n=2, n_e=1, stage="single")
        if case == "no_costs":
            del arrays["costs"]
        if case == "flat_features":
            arrays["features"] = np.zeros(3)
        np.savez(path, **arrays)
        if case == "truncated":
            path.write_bytes(path.read_bytes()[:100])
    return path


@pytest.mark.parametrize("case", ["missing", "no_costs", "text", "one_array",
                                  "truncated", "flat_features"])
def test_unreadable_data_file_is_config_error(tmp_path, capsys, case):
    cfg = write(tmp_path / "t.json", {"version": 1, "loss": "surrogate_mae",
                                      "data": str(_unreadable_data(tmp_path, case))})
    out = tmp_path / "m.json"
    assert main(["train", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: data: ")  # the path may say "data"
    assert not list(tmp_path.glob("m.*"))


@pytest.mark.parametrize("command,jobs,doc", [
    ("sweep", "0", {"sizes": [50], "trials": 1, "epochs": 1, "test_samples": 20}),
    ("verify", "-3", {"num_tasks": 1}),
])
def test_jobs_below_one_is_config_error(tmp_path, capsys, command, jobs, doc):
    # the same config runs with --jobs 1, so only --jobs is at fault
    cfg = write(tmp_path / "c.json", dict(doc, version=1))
    assert main([command, "--config", cfg, "--out", str(tmp_path / "ok.csv")]) == 0
    out = tmp_path / "out.csv"
    assert main([command, "--config", cfg, "--out", str(out), "--jobs", jobs]) == 1
    assert "--jobs" in capsys.readouterr().err
    assert not out.exists()


def test_bad_arguments_exit_code():
    assert main(["gen-data"]) == 1
    assert main(["no-such-command", "--config", "x", "--out", "y"]) == 1


def test_verify_writes_report(tmp_path):
    cfg = write(tmp_path / "v.json",
                {"version": 1, "num_tasks": 2, "hyps_per_task": 2,
                 "families": ["single_mae", "two_stage_q1"]})
    out = tmp_path / "report.csv"
    assert main(["verify", "--config", cfg, "--out", str(out), "--seed", "3"]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "family,task_id,point,lhs,rhs,slack,verdict"
    assert all(line.endswith("ok") for line in lines[1:])


@pytest.mark.parametrize("field,value", [
    ("num_tasks", "ten"), ("num_tasks", 2.5), ("num_tasks", True),
    ("hyps_per_task", 0), ("n_max", 1), ("ne_max", 0), ("k_max", 1), ("ne_max", 1),
])
def test_verify_bad_config_value_is_config_error(tmp_path, capsys, field, value):
    cfg = write(tmp_path / "v.json", {"version": 1, "num_tasks": 2, field: value})
    out = tmp_path / "report.csv"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 1
    assert field in capsys.readouterr().err
    assert not out.exists()


def test_verify_checking_nothing_fails(tmp_path):
    cfg = write(tmp_path / "v.json", {"version": 1, "families": []})
    out = tmp_path / "report.csv"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 1
    assert not out.exists()


@pytest.fixture(scope="module")
def two_stage_data(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    data = root / "data.npz"
    cfg = write(root / "gen.json", {"version": 1, "kind": "mog_two", "num_samples": 50})
    assert main(["gen-data", "--config", cfg, "--out", str(data)]) == 0
    return str(data)


@pytest.mark.parametrize("command,field,value,extra", [
    ("gen-data", "num_samples", -5, {}),
    ("gen-data", "num_samples", "ten", {}),
    ("gen-data", "dim", 0, {}),
    ("train", "epochs", 0, {}),
    ("train", "epochs", "ten", {}),
    ("train", "batch_size", 0, {}),
    ("train", "batch_size", "half", {}),
    ("train", "learning_rate", -1, {}),
    ("train", "learning_rate", "fast", {}),
    ("train", "momentum", -0.5, {}),
    ("train", "hidden", 0, {"model": "mlp"}),
    ("train", "optimizer", "adam", {}),
    ("train", "standardize", "no", {}),
    ("sweep", "epochs", 0, {}),
    ("sweep", "sizes", [0], {}),
    ("sweep", "sizes", 100, {}),
    ("sweep", "test_samples", 0, {}),
    ("sweep", "batch_size", 0, {}),
    ("sweep", "n", 1, {}),
    ("gen-data", "ranges", [[0, 2]], {"kind": "range_experts", "n": 6}),
    ("gen-data", "ranges", [[0, 9], [2, 4]], {"kind": "range_experts", "n": 6}),
    ("gen-data", "ranges", "abc", {"kind": "range_experts", "n": 6}),
    ("gen-data", "ranges", [[2, 1], [0, 2]], {"kind": "range_experts", "n": 6}),
    ("gen-data", "ranges", [[0, 2.5], [0, 2]], {"kind": "range_experts", "n": 6}),
    ("gen-data", "ranges", [[0, True], [0, 2]], {"kind": "range_experts", "n": 6}),
    ("gen-data", "ranges", [[-1, 2], [0, 2]], {"kind": "range_experts", "n": 6}),
    ("gen-data", "ranges", [[0, 2, 4], [0, 2]], {"kind": "range_experts", "n": 6}),
    ("train", "loss", "bogus", {}),
    ("train", "q", None, {"loss": "surrogate_single"}),
    ("train", "q", 2, {}),
    ("train", "q", "abc", {}),
    ("train", "phi", "bogus", {}),
    ("train", "q", True, {}),
    ("train", "phi", "logistic", {"loss": "surrogate_mae", "q": None}),
    ("train", "phi", "logistic", {}),
    ("train", "q", 0.5, {"loss": "two_stage_phi", "phi": "logistic"}),
    ("train", "loss", "two_stage_deferral", {"q": None}),
    ("train", "hidden", 0, {}),
    ("gen-data", "num_samples", 5, {}),
    ("gen-data", "num_samples", 1, {"kind": "mog_two"}),
])
def test_bad_config_value_is_config_error(tmp_path, capsys, two_stage_data,
                                          command, field, value, extra):
    base = {
        "gen-data": {"kind": "mog_single", "num_samples": 50},
        "train": {"data": two_stage_data, "loss": "two_stage_psi", "q": 0.5,
                  "epochs": 2},
        "sweep": {"sizes": [50], "trials": 1, "epochs": 1, "test_samples": 20,
                  "methods": ["ours_q1"]},
    }[command]
    cfg = write(tmp_path / "c.json", dict(base, version=1, **extra, **{field: value}))
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 1
    # the field as a word: a substring test passes the one-letter fields
    # n and q on almost any message
    assert re.search(rf"\b{re.escape(field)}\b", capsys.readouterr().err)
    assert not list(tmp_path.glob("out*"))


# per command, each field's bad values: a wrong type, then a value below the
# rule's least or outside its choices where the rule has one
BAD_VALUES = {
    "gen-data": {"kind": [5, "mog"], "num_samples": ["ten", 2.5, True, 0], "dim": ["16", 0],
                 "components": [None, 0], "n": [4.0, 1], "n_e": [False, 0],
                 "ranges": ["abc", [[0, 9], [2, 4]]]},
    "train": {"data": [5], "loss": [5, "bogus"], "q": ["abc", True, -0.5], "phi": [5, "bogus"],
              "model": [5, "cnn"], "hidden": [1.5, 0], "learning_rate": ["fast", True, -1],
              "epochs": ["ten", 2.0, 0], "batch_size": ["half", 2.5, 0], "optimizer": [5, "adam"],
              "momentum": ["x", None, -0.5], "standardize": ["no", 1]},
    "sweep": {"methods": ["ours_q1", [5], ["bogus"], []], "sizes": [100, ["50"], [0], []],
              "trials": ["1", 0], "dim": [1.0, 0], "components": ["8", 0], "n": [True, 1],
              "n_e": [2.5, 0], "epochs": [None, 0], "learning_rate": ["0.3", -0.1],
              "test_samples": [20.0, 0], "optimizer": [None, "adam"],
              "batch_size": ["half", 0]},
    "verify": {"families": ["single_mae", [1], ["bogus"], []], "num_tasks": ["ten", 0],
               "hyps_per_task": [2.0, 0], "n_max": ["4", 1], "ne_max": [None, 0],
               "k_max": [6.5, 1]},
}
# fields whose rule another field sets off
BAD_VALUE_EXTRA = {("gen-data", "ranges"): {"kind": "range_experts", "n": 6,
                                             "ranges": [[0, 2], [2, 4]]},
                   ("train", "phi"): {"loss": "two_stage_phi", "q": None, "phi": "hinge"}}


def config_base(command, two_stage_data):
    """A config of each command that runs, and runs briefly."""
    return {
        "gen-data": {"kind": "mog_single", "num_samples": 50},
        "train": {"data": two_stage_data, "loss": "two_stage_psi", "q": 0.5, "epochs": 2},
        "sweep": {"sizes": [50], "trials": 1, "epochs": 1, "test_samples": 20,
                  "methods": ["ours_q1"]},
        "verify": {"num_tasks": 2, "hyps_per_task": 1, "families": ["single_mae"]},
    }[command]


def test_every_config_field_has_bad_values():
    assert {c: set(fields) for c, fields in BAD_VALUES.items()} == {
        c: set(table) for c, table in cli._CONFIGS.items()}


@pytest.mark.parametrize("command,field,value", [
    (command, field, value) for command, fields in BAD_VALUES.items()
    for field, values in fields.items() for value in values])
def test_each_config_rule_names_its_field(tmp_path, capsys, two_stage_data, command, field,
                                          value):
    base = dict(config_base(command, two_stage_data),
                **BAD_VALUE_EXTRA.get((command, field), {}), version=1)
    ok = tmp_path / "ok" / "out"
    ok.parent.mkdir()
    assert main([command, "--config", write(tmp_path / "ok.json", base), "--out", str(ok)]) == 0
    cfg = write(tmp_path / "c.json", dict(base, **{field: value}))
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 1
    assert re.search(rf"(?<![\w-]){re.escape(field)}(?![\w-])", capsys.readouterr().err)
    assert not list(tmp_path.glob("out*"))


def test_each_cli_config_key_is_a_field_of_its_command():
    # every cfg["..."] that a function of cli.py reads is a field of each
    # command whose function is, or names, that function
    tree = ast.parse(Path(cli.__file__).read_text())
    functions = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}
    names = {name: {n.id for n in ast.walk(f) if isinstance(n, ast.Name)}
             for name, f in functions.items()}
    read = {command: set() for command in cli._COMMANDS}
    for name, function in functions.items():
        keys = {n.slice.value for n in ast.walk(function) if isinstance(n, ast.Subscript)
                and getattr(n.value, "id", None) == "cfg" and isinstance(n.slice, ast.Constant)}
        commands = [c for c, cmd in cli._COMMANDS.items()
                    if cmd.__name__ == name or name in names[cmd.__name__]]
        assert commands or not keys, name
        for command in commands:
            assert keys <= set(cli._CONFIGS[command]), (name, command, keys)
            read[command] |= keys
    assert all(read.values()), read   # each command's own function reads its config


@pytest.mark.parametrize("command,given,resolved", [
    ("gen-data", {"kind": "mog_single", "num_samples": 50},
     {"kind": "mog_single", "num_samples": 50, "dim": 16, "components": 8, "n": 4, "n_e": 2,
      "ranges": None}),
    ("train", {"data": "d.npz", "loss": "surrogate_mae"},
     {"data": "d.npz", "loss": "surrogate_mae", "q": None, "phi": None, "model": "linear",
      "hidden": 64, "learning_rate": 0.5, "epochs": 500, "batch_size": "full",
      "optimizer": "gd", "momentum": 0.9, "standardize": True}),
    ("sweep", {},
     {"methods": ["ours_q07", "ours_q1", "verma23", "mao24"],
      "sizes": [250, 500, 1000, 2000, 4000, 8000, 16000], "trials": 5, "dim": 16,
      "components": 8, "n": 4, "n_e": 2, "epochs": 200, "learning_rate": 0.3,
      "test_samples": 10_000, "optimizer": "momentum", "batch_size": 128}),
    ("verify", {},
     {"families": ["single_mae", "two_stage_q0", "two_stage_q05", "two_stage_q1",
                   "two_expert_logistic"],
      "num_tasks": 100, "hyps_per_task": 5, "n_max": 4, "ne_max": 3, "k_max": 6}),
])
def test_load_config_resolves_the_defaults(tmp_path, command, given, resolved):
    cfg = write(tmp_path / "c.json", dict(given, version=1))
    assert cli._load_config(cfg, command) == resolved
    # a config that gives every field, one of them off its default, keeps them all
    key = next(k for k, v in resolved.items() if type(v) is int)
    given = dict(resolved, **{key: resolved[key] + 1})
    assert cli._load_config(write(tmp_path / "c.json", dict(given, version=1)), command) == given


@pytest.mark.parametrize("field,value", [("trials", 0), ("methods", []), ("sizes", [])])
def test_sweep_running_no_cell_fails(tmp_path, field, value):
    cfg = write(tmp_path / "s.json", {"version": 1, field: value})
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 1
    assert not out.exists()


def test_verify_generates_each_task_once(tmp_path, monkeypatch):
    # the three two_stage_q* families share their tasks
    from deferkit import cli
    calls = []

    def counting(*args, **kwargs):
        calls.append((args, sorted(kwargs.items())))
        return gen(*args, **kwargs)

    gen = cli.gen_random_discrete_task
    monkeypatch.setattr(cli, "gen_random_discrete_task", counting)
    cfg = write(tmp_path / "v.json", {"version": 1, "num_tasks": 3, "hyps_per_task": 1})
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "r.csv")]) == 0
    assert len(calls) == 9 and len({repr(c) for c in calls}) == 9


def test_verify_checks_each_task_and_family_in_one_call(tmp_path, monkeypatch):
    # all tasks of one shape (K, n, n_e) of a family, with all their
    # hypotheses, are one stacked check, whose target and surrogate regrets
    # take one conditional minimum each
    from deferkit import oracles
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("verify_bound_single_mae", "verify_bound_two_stage",
                 "verify_bound_two_expert_phi"):
        monkeypatch.setattr(cli, name, counting(name, getattr(cli, name)))
    monkeypatch.setattr(oracles, "conditional_min_surrogate",
                        counting("cond_min", oracles.conditional_min_surrogate))
    cfg = write(tmp_path / "v.json", {"version": 1, "num_tasks": 3, "hyps_per_task": 4,
                                      "n_max": 2, "k_max": 2})
    out = tmp_path / "r.csv"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0

    def groups(ne_max, constraint):
        tasks = [gen_random_discrete_task(0, i, n_max=2, ne_max=ne_max, k_max=2,
                                          constraint=constraint) for i in range(3)]
        return len({(t.num_points, t.shape) for t in tasks})

    single, premise, two_expert = (groups(3, "none"), groups(3, "theorem7_premise"),
                                   groups(2, "theorem7_premise"))
    assert min(single, premise, two_expert) < 3   # some shape holds several tasks
    assert calls == {"verify_bound_single_mae": single, "verify_bound_two_stage": 3 * premise,
                     "verify_bound_two_expert_phi": two_expert,
                     "cond_min": 2 * (single + 3 * premise + two_expert)}
    task_ids = {line.split(",")[1] for line in out.read_text().splitlines()[1:]}
    assert task_ids == {f"task{i}_h{h}" for i in range(3) for h in range(4)}


def test_verify_exits_3_on_a_violation(tmp_path, monkeypatch):
    # a NaN bound at one point of each single_mae check is one violation row
    # per check, and any violation makes the exit code 3
    check = cli.verify_bound_single_mae

    def broken(task, hyp):
        report = check(task, hyp)
        report.rhs[(0,) * report.rhs.ndim] = np.nan
        return report

    monkeypatch.setattr(cli, "verify_bound_single_mae", broken)
    cfg = write(tmp_path / "v.json", {"version": 1, "num_tasks": 3, "hyps_per_task": 2})
    out = tmp_path / "r.csv"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 3
    tasks = [gen_random_discrete_task(0, i) for i in range(3)]
    checks = len({(t.num_points, t.shape) for t in tasks})
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [r[0] for r in rows if r[-1] == "violation"] == ["single_mae"] * checks


def test_verify_output_is_pinned(tmp_path):
    # sha256 of the CSV that checking one hypothesis per call wrote for this
    # config (20 tasks, all five families, 5 hypotheses each): the stacked
    # check must keep every byte
    cfg = write(tmp_path / "v.json", {"version": 1, "num_tasks": 20})
    out = tmp_path / "bounds.csv"
    assert main(["verify", "--config", cfg, "--out", str(out), "--seed", "0"]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "56912f696dd3531fb251890626baa04a9082a22274eaf459eb316c4cb325f997")


def test_verify_output_with_full_shape_groups_is_pinned(tmp_path):
    # sha256 of the CSV that checking one task per call wrote at the held-out
    # seed: 60 tasks of at most 4 points, so that each shape holds several
    cfg = write(tmp_path / "v.json", {"version": 1, "num_tasks": 60, "k_max": 4})
    out = tmp_path / "bounds.csv"
    assert main(["verify", "--config", cfg, "--out", str(out), "--seed", "9173"]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "0b2894226994a1ee70a0c82e53e7341a512416e623a344d39a0909d77f90eec3")


@pytest.mark.parametrize("kind,extra,digest", [
    ("mog_single", {}, "0ba6b4647139e99c7ca3650337a2b2b38c63b35ad26eb65263a4efca7c4ab496"),
    ("mog_two", {"n_e": 3}, "2de513cc3cbf8e32c1932cb8a1e2ad7d908d418cb8bb56de437848104b9be6f7"),
    ("range_experts", {"n": 6, "ranges": [[0, 2], [2, 4]]},
     "90cf0e26b3c4383eb03859c8efe1ca7ab5d9ce3ebb1e277bcd462299ad4356aa"),
])
def test_gen_data_output_is_pinned(tmp_path, kind, extra, digest):
    # sha256 of the features, labels and costs bytes, in that order: the data
    # of a seed must not move when a generator is rewritten
    cfg = write(tmp_path / "d.json", dict(version=1, kind=kind, num_samples=300, **extra))
    out = tmp_path / "d.npz"
    assert main(["gen-data", "--config", cfg, "--out", str(out), "--seed", "7"]) == 0
    ds = load_dataset(str(out))
    h = hashlib.sha256()
    for array in (ds.features, ds.labels, ds.costs):
        h.update(array.tobytes())
    assert h.hexdigest() == digest


def test_sweep_output_is_pinned(tmp_path):
    # sha256 of the CSV of all four methods on two trials of one small size
    cfg = write(tmp_path / "s.json", {"version": 1, "sizes": [100], "trials": 2,
                                      "epochs": 10, "test_samples": 100})
    out = tmp_path / "s.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--seed", "5"]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "5c59091a7bf10e69614c273ba0159f9d9babbbb6bc705f74468cee573fd61d34")


@pytest.mark.parametrize("methods,jobs", [
    (["ours_q07", "ours_q1", "verma23", "mao24"], "1"),
    (["ours_q07", "ours_q1", "verma23", "mao24"], "2"),
    (["mao24", "verma23", "ours_q1", "ours_q07"], "1"),
])
def test_minibatch_sweep_output_is_pinned(tmp_path, methods, jobs):
    # sha256 of the CSV of all four methods trained in minibatches of 64 of
    # 300 rows, so every step of the stacked trainer's minibatch path counts;
    # the rows are sorted by key, so the order of the methods does not matter
    cfg = write(tmp_path / "s.json", {"version": 1, "methods": methods, "sizes": [300],
                                      "trials": 2, "epochs": 3, "batch_size": 64,
                                      "test_samples": 100})
    out = tmp_path / "s.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--seed", "5",
                 "--jobs", jobs]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "0ccbed978c1fad1761530bb88536480fc169909120b7c6c7e5ca670be6ad0c9b")


@pytest.mark.parametrize("data,train,digest", [
    ({"kind": "mog_two", "n_e": 4},
     {"loss": "two_stage_psi", "q": 0.0, "optimizer": "momentum", "learning_rate": 5.0,
      "epochs": 20, "batch_size": "full"},
     "5df8edc08b65c638d9c46b35094b72643e410fa4513f6602a17f2ee3ea9b8b6d"),
    ({"kind": "mog_single"},
     {"loss": "surrogate_single", "q": 0.7, "model": "mlp", "hidden": 8,
      "optimizer": "momentum", "epochs": 10, "batch_size": 64, "standardize": True},
     "c3b0448a5281293101c6342ef2a20407be4cabdbb5d6828429150bee6fa4dbdb"),
], ids=["linear-full-batch", "mlp-minibatch"])
def test_train_output_is_pinned(tmp_path, data, train, digest):
    # sha256 of the scorer JSON and then the trajectory CSV: a rewrite of
    # the scorers or the trainer must keep every byte
    data_cfg = write(tmp_path / "d.json", dict(version=1, num_samples=300, **data))
    main(["gen-data", "--config", data_cfg, "--out", str(tmp_path / "d.npz"), "--seed", "3"])
    cfg = write(tmp_path / "t.json", dict(version=1, data=str(tmp_path / "d.npz"), **train))
    out = tmp_path / "scorer.json"
    assert main(["train", "--config", cfg, "--out", str(out), "--seed", "3"]) == 0
    h = hashlib.sha256(out.read_bytes())
    h.update((tmp_path / "scorer.trajectory.csv").read_bytes())
    assert h.hexdigest() == digest


def test_sweep_parallel_output_is_byte_identical(tmp_path):
    cfg = write(tmp_path / "s.json",
                {"version": 1, "sizes": [100], "trials": 2, "epochs": 10,
                 "test_samples": 100, "methods": ["ours_q1", "verma23"]})
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out1), "--seed", "5"]) == 0
    assert main(["sweep", "--config", cfg, "--out", str(out2), "--seed", "5",
                 "--jobs", "3"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_csv_floats_have_17_significant_digits(tmp_path):
    cfg = write(tmp_path / "s.json",
                {"version": 1, "sizes": [100], "trials": 1, "epochs": 3,
                 "test_samples": 50, "methods": ["ours_q1"]})
    out = tmp_path / "s.csv"
    main(["sweep", "--config", cfg, "--out", str(out), "--seed", "5"])
    row = out.read_text().splitlines()[1].split(",")
    val = row[-1]
    assert float(val) == float(format(float(val), ".17g"))
    # LF line endings, no CR
    assert b"\r" not in out.read_bytes()


def reference_write_csv(path, header, rows):
    """The CSV writer that the array writer replaced: csv.writer over rows,
    floats formatted to 17 significant digits and anything else with str."""
    def fmt(x):
        return format(x, ".17g") if isinstance(x, float) else str(x)

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(v) for v in row])


# csv.writer (Python 3.11, "\n" line terminator) leaves a bare "\r" unquoted,
# which a reader takes for a line break; the array writer quotes it, so the
# shared alphabet leaves it out and test_write_csv_quotes_a_carriage_return
# checks it
TEXT = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\r")
               | st.sampled_from(',"\n %'), max_size=8)
SPECIAL_FLOATS = st.sampled_from([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 2.2e-308,
                                  1e300, -1e300, 0.1, 1 / 3, 2 / 3, 1e16 + 2, 123456789.123])
CELLS = {
    "str": TEXT,
    "int": st.integers(-2**63, 2**63 - 1),
    "seed": st.integers(0, 2**64 - 1),
    "float": st.floats(allow_subnormal=True) | SPECIAL_FLOATS,
}
ARRAY_DTYPES = {"int": np.int64, "seed": np.uint64, "float": np.float64}


@st.composite
def csv_blocks(draw):
    """A header, rows of one type per column, and the same rows cut into
    blocks of columns, given as lists, arrays or a str that fills a column."""
    kinds = draw(st.lists(st.sampled_from(sorted(CELLS)), min_size=2, max_size=6))
    header = draw(st.lists(TEXT, min_size=len(kinds), max_size=len(kinds)))
    rows, blocks = [], []
    for _ in range(draw(st.integers(1, 3))):
        size = draw(st.integers(0, 6))
        columns = []
        for kind in kinds:
            if kind == "str" and size and draw(st.booleans()):
                value = draw(TEXT)
                columns.append(value)
                continue
            values = draw(st.lists(CELLS[kind], min_size=size, max_size=size))
            as_array = kind in ARRAY_DTYPES and draw(st.booleans())
            columns.append(np.array(values, dtype=ARRAY_DTYPES[kind]) if as_array else values)
        if all(isinstance(c, str) for c in columns):
            continue   # a block needs a column that sets its length
        blocks.append(columns)
        rows += zip(*(c.tolist() if isinstance(c, np.ndarray)
                      else [c] * size if isinstance(c, str) else c for c in columns))
    return header, blocks, rows


@settings(max_examples=300, deadline=None)
@given(csv_blocks())
def test_write_csv_matches_the_row_writer(tmp_path_factory, case):
    header, blocks, rows = case
    tmp = tmp_path_factory.mktemp("csv")
    reference_write_csv(tmp / "want.csv", header, rows)
    cli._write_csv(tmp / "got.csv", header, blocks)
    assert (tmp / "got.csv").read_bytes() == (tmp / "want.csv").read_bytes()


def test_write_csv_quotes_a_carriage_return(tmp_path):
    cli._write_csv(tmp_path / "r.csv", ["a\rb", "c"], [(["x\r"], np.array([1]))])
    assert (tmp_path / "r.csv").read_bytes() == b'"a\rb",c\n"x\r",1\n'


def test_write_csv_rejects_mixed_or_ragged_columns(tmp_path):
    for block, match in [([[1, 2.0], [1, 2]], "alone"), ([["a", 1], [1, 2]], "alone"),
                         ([[1, 2], [1.0]], "of one length"), (["a", "b"], "of one length")]:
        with pytest.raises(ValueError, match=match):
            cli._write_csv(tmp_path / "x.csv", ["a", "b"], [block])


def reference_sweep_cell(master_seed, method, size, trial, mog, epochs,
                         learning_rate, test_samples, optimizer, batch_size):
    """The sweep cell before one draw served every method of a (size, trial):
    each (method, size, trial) generates its own data."""
    seed = rng.derive_seed(master_seed, f"sweep-{method}-{size}", trial)
    data_seed = rng.derive_seed(master_seed, "sweep-data", trial)
    train_set, _ = gen_realizable_mog(mog, size + test_samples, data_seed)
    test_set = replace_rows(train_set, np.arange(size, size + test_samples))
    train_set = replace_rows(train_set, np.arange(size))
    scorer = init_linear(mog.dim, mog.shape.augmented_size, seed)
    tc = TrainConfig(learning_rate=learning_rate, epochs=epochs, seed=seed,
                     optimizer=optimizer, batch_size=batch_size)
    fitted, _ = train(scorer, train_set, cli.SWEEP_SELECTORS[method], tc)
    return (method, size, trial, seed,
            float(realized_deferral_loss(fitted, train_set).mean()),
            float(realized_deferral_loss(fitted, test_set).mean()),
            system_accuracy(fitted, test_set))


# the cells at master seed 5, then master seeds, sizes and trials drawn once:
# the sweep's train_deferral, read off the trainer's last evaluation, must be
# the float that scoring the training rows again gives
_DRAWN = np.random.default_rng(2026)
SWEEP_CELLS = [pytest.param(5, size, trial, id=f"{trial}-{size}")
               for trial in (0, 1) for size in (200, 300)] + [
    pytest.param(seed, size, trial, id=f"seed{seed}-{trial}-{size}")
    for seed, size, trial in zip(_DRAWN.integers(0, 2**32, 4).tolist(),
                                 _DRAWN.integers(100, 4001, 4).tolist(), (0, 1, 0, 1))]


@pytest.mark.parametrize("master_seed,size,trial", SWEEP_CELLS)
def test_sweep_trial_matches_per_cell_reference(master_seed, size, trial):
    mog = MogConfig()
    args = (size, trial, mog, 3, 0.3, 150, "momentum", 64)
    expected = [reference_sweep_cell(master_seed, m, *args) for m in cli.SWEEP_METHODS]
    config = TrainConfig(learning_rate=0.3, epochs=3, optimizer="momentum", batch_size=64)
    assert cli.run_sweep_trial(master_seed, cli.SWEEP_METHODS, size, trial, mog, 150,
                               config) == expected


def test_sweep_draws_each_size_and_trial_once(tmp_path, monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append((args, sorted(kwargs.items())))
        return gen(*args, **kwargs)

    gen = cli.gen_realizable_mog
    monkeypatch.setattr(cli, "gen_realizable_mog", counting)
    cfg = write(tmp_path / "s.json",
                {"version": 1, "sizes": [200, 300], "trials": 2, "epochs": 3,
                 "test_samples": 150, "batch_size": 64})
    out = tmp_path / "s.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    assert len(calls) == 4 and len({repr(c) for c in calls}) == 4
    assert len(out.read_text().splitlines()) == 1 + 4 * len(cli.SWEEP_METHODS)


def test_importing_the_cli_leaves_multiprocessing_unloaded():
    # only a sweep with --jobs > 1 imports it; every other run skips that cost
    src = str(Path(cli.__file__).resolve().parents[1])
    code = "import sys, deferkit.cli; print('multiprocessing' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "False"
