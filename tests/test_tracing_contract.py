"""The benchmark tracer finds every function it wraps, and a small run of
each benchmark workload (verify, a minibatch sweep, a full-batch train)
calls each one the benchmark must see: a renamed entry point, or a call site
routed past a wrapped name, fails here, in the main suite, and not only in
the benchmark's own tests."""

import ast
import importlib.util
import json
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACING = BENCH / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def must_record() -> dict:
    """bench/run.py's MUST_RECORD, read without importing the benchmark."""
    tree = ast.parse((BENCH / "run.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "MUST_RECORD"
                                                for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/run.py defines no MUST_RECORD")


def test_tracer_finds_every_target():
    from deferkit import models, oracles

    tracing = load_tracing()
    real = models.losses
    undo, missing = tracing.Tracer().install()
    try:
        assert missing == []
    finally:
        tracing.Tracer.uninstall(undo)
    assert models.losses is real and oracles.losses is real


def traced_run(workload: str, argvs: list[list[str]]) -> dict:
    """Runs each command in-process through a traced ``cli.main`` (each must
    exit 0), asserts that every metric the benchmark requires of ``workload``
    reads above 0, and returns the metrics of that one iteration."""
    from deferkit import cli

    tracing = load_tracing()
    tracer = tracing.Tracer()
    undo, missing = tracer.install()
    try:
        main = tracer.wrap("cli.main", cli.main)
        for argv in argvs:
            assert main(argv) == 0, argv
    finally:
        tracing.Tracer.uninstall(undo)
    assert missing == []
    metrics = tracing.layer_metrics(tracer.spans, 1, tracer.errors)
    for name in must_record()[workload]:
        assert metrics[name] > 0, name
    return metrics


def command(tmp_path, name: str, cfg: dict, out: str) -> list[str]:
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(dict(cfg, version=1)))
    return [name, "--config", str(path), "--out", str(tmp_path / out)]


def test_traced_verify_records_every_required_metric(tmp_path):
    traced_run("verify-bounds", [command(tmp_path, "verify", {"num_tasks": 4}, "b.csv")])


def test_traced_sweep_records_every_required_metric(tmp_path):
    # minibatches of 128 rows: each loss+grad call counts as a minibatch call
    cfg = {"sizes": [300], "test_samples": 100, "trials": 1, "epochs": 1,
           "batch_size": 128}
    metrics = traced_run("sweep-minibatch", [command(tmp_path, "sweep", cfg, "s.csv")])
    # each step makes one loss+grad call, so one method's kernel called past
    # its wrapped name leaves a shortfall; an evaluation computes values alone
    assert metrics["losses.loss_grad.mini.calls"] == metrics["models.steps"]
    # 300 rows in batches of 128 for one epoch: the four methods train as one
    # model stack, which makes 3 steps, and each model is evaluated once
    assert metrics["models.steps"] == 3 and metrics["models.evals"] == 4


def test_traced_sweep_evaluates_each_model_once(tmp_path):
    # two epochs of 3 steps each; the sweep keeps no trajectory, so each of
    # the four models is evaluated on its training rows after the last epoch
    cfg = {"sizes": [300], "test_samples": 100, "trials": 1, "epochs": 2,
           "batch_size": 128}
    metrics = traced_run("sweep-minibatch", [command(tmp_path, "sweep", cfg, "s.csv")])
    assert metrics["models.steps"] == 6 and metrics["models.evals"] == 4
    assert metrics["losses.loss_grad.mini.calls"] == metrics["models.steps"]


def test_traced_full_batch_train_records_every_required_metric(tmp_path):
    # more rows than a minibatch call may hold, so each call counts as full
    data = {"kind": "mog_two", "num_samples": 1500, "n_e": 4}
    train = {"data": str(tmp_path / "d.npz"), "loss": "two_stage_psi", "q": 0.0,
             "epochs": 3, "batch_size": "full"}
    traced_run("train-fullbatch", [command(tmp_path, "gen-data", data, "d.npz"),
                                   command(tmp_path, "train", train, "scorer.json")])
