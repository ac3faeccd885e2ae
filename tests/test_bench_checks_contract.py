"""The benchmark's train check passes on a small run of the benchmark's
train config: it round-trips the scorer JSON and reads ``params()``, so a
scorer API change that would fail the benchmark fails here, in the main
suite, too."""

import ast
import importlib.util
import json
from pathlib import Path

from deferkit.cli import main

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_checks():
    spec = importlib.util.spec_from_file_location("bench_checks", BENCH / "checks.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bench_constant(name: str):
    """A config constant of bench/run.py, read without importing the
    benchmark: a literal, or ``dict(BASE, field=literal, ...)``."""
    tree = ast.parse((BENCH / "run.py").read_text())
    values = {t.id: node.value for node in tree.body if isinstance(node, ast.Assign)
              for t in node.targets if isinstance(t, ast.Name)}
    node = values[name]
    if isinstance(node, ast.Call):
        return dict(bench_constant(node.args[0].id),
                    **{k.arg: ast.literal_eval(k.value) for k in node.keywords})
    return ast.literal_eval(node)


def test_benchmark_train_check_passes_on_its_smoke_data(tmp_path):
    data, train = tmp_path / "data.npz", bench_constant("TRAIN")
    for command, cfg, out in [("gen-data", bench_constant("DATA_SMOKE"), data),
                              ("train", dict(train, data=str(data)), tmp_path / "scorer.json")]:
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps(dict(cfg, version=1)))
        returncode = main([command, "--config", str(path), "--out", str(out), "--seed", "0"])
        assert returncode == 0, command
    assert load_checks().check_train(out, train["epochs"], returncode) == (1, 0)
