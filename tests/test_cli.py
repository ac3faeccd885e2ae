import hashlib
import json
from collections import Counter

import numpy as np
import pytest

from deferkit import cli, rng
from deferkit.cli import load_dataset, main
from deferkit.models import (TrainConfig, init_linear, realized_deferral_loss,
                             replace_rows, system_accuracy, train)
from deferkit.synthdata import MogConfig, gen_realizable_mog


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


def test_missing_file_is_runtime_error_for_train(tmp_path):
    cfg = write(tmp_path / "t.json",
                {"version": 1, "data": str(tmp_path / "nope.npz"),
                 "loss": "surrogate_mae"})
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "m.json")]) == 2


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
    ("hyps_per_task", 0), ("n_max", 1), ("ne_max", 0), ("k_max", 1),
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
    assert field in capsys.readouterr().err
    assert not list(tmp_path.glob("out*"))


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
    # all hypotheses of a (task, family) are one stacked check, whose target
    # and surrogate regrets take one conditional minimum each
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
    cfg = write(tmp_path / "v.json", {"version": 1, "num_tasks": 3, "hyps_per_task": 4})
    out = tmp_path / "r.csv"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    assert calls == {"verify_bound_single_mae": 3, "verify_bound_two_stage": 9,
                     "verify_bound_two_expert_phi": 3, "cond_min": 2 * 15}
    task_ids = {line.split(",")[1] for line in out.read_text().splitlines()[1:]}
    assert task_ids == {f"task{i}_h{h}" for i in range(3) for h in range(4)}


def test_verify_output_is_pinned(tmp_path):
    # sha256 of the CSV that checking one hypothesis per call wrote for this
    # config (20 tasks, all five families, 5 hypotheses each): the stacked
    # check must keep every byte
    cfg = write(tmp_path / "v.json", {"version": 1, "num_tasks": 20})
    out = tmp_path / "bounds.csv"
    assert main(["verify", "--config", cfg, "--out", str(out), "--seed", "0"]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "56912f696dd3531fb251890626baa04a9082a22274eaf459eb316c4cb325f997")


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


@pytest.mark.parametrize("size", [200, 300])
@pytest.mark.parametrize("trial", [0, 1])
def test_sweep_trial_matches_per_cell_reference(size, trial):
    mog = MogConfig()
    args = (size, trial, mog, 3, 0.3, 150, "momentum", 64)
    expected = [reference_sweep_cell(5, m, *args) for m in cli.SWEEP_METHODS]
    config = TrainConfig(learning_rate=0.3, epochs=3, optimizer="momentum", batch_size=64)
    assert cli.run_sweep_trial(5, cli.SWEEP_METHODS, size, trial, mog, 150, config) == expected


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
