"""The benchmark tracer finds every function it wraps, and a small verify run
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


def test_traced_verify_records_every_required_metric(tmp_path):
    from deferkit import cli

    tracing = load_tracing()
    cfg = tmp_path / "v.json"
    cfg.write_text(json.dumps({"version": 1, "num_tasks": 4}))
    tracer = tracing.Tracer()
    undo, missing = tracer.install()
    try:
        main = tracer.wrap("cli.main", cli.main)
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "b.csv")]) == 0
    finally:
        tracing.Tracer.uninstall(undo)
    assert missing == []
    metrics = tracing.layer_metrics(tracer.spans, 1, tracer.errors)
    for name in must_record()["verify-bounds"]:
        assert metrics[name] > 0, name
