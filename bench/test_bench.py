"""Tests of the benchmark itself, on tiny inputs (``smoke=True``).

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracing  # noqa: E402

sys.path.insert(0, str(run.SRC))
run.WORK.mkdir(exist_ok=True)

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
REFERENCE = json.loads((run.BENCH_DIR / "reference.json").read_text())
TOL = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}["system_accuracy"]


def _assert_metrics(result: dict, spec_key: str) -> None:
    want = {m["name"]: m["unit"] for m in SPEC[spec_key]}
    assert set(result["metrics"]) == set(want)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == want[name], name
        assert isinstance(metric["value"], (int, float)), name
        assert math.isfinite(metric["value"]), name


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(name):
    out = run.run_workload(name, 5, 0, False, smoke=True)
    result, record = out["result"], out["record"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    _assert_metrics(result, "end_to_end")
    assert result["metrics"]["output_stable"]["value"] == 1.0
    assert record["ops_failed_ratio"] == 0.0
    json.dumps(result, allow_nan=False)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(name):
    out = run.run_workload(name, 5, 0, True, smoke=True)
    result = out["result"]
    assert result["correct"] and result["failed"] == 0
    _assert_metrics(result, "per_layer")
    for metric in run.MUST_RECORD[name]:
        assert result["metrics"][metric]["value"] > 0, metric
    if name == "train-fullbatch":
        # one full-batch step and one evaluation per epoch
        assert result["metrics"]["models.grad_useful_ratio"]["value"] == 0.5
    assert out["record"]["missing_targets"] == [] and out["record"]["trace_gaps"] == []
    assert result["metrics"]["trace.child_coverage"]["value"] >= tracing.MIN_CHILD_COVERAGE
    # every wrapper was removed again
    from deferkit import cli, models, oracles
    assert cli.train is models.train
    assert models.losses.__name__ == "deferkit.losses"
    assert oracles.losses.__name__ == "deferkit.losses"


def test_traced_run_with_unrecorded_layer_is_not_correct(monkeypatch, capsys):
    # a renamed entry point: its wrapper is never installed
    monkeypatch.setattr(tracing, "MODULE_TARGETS", tracing.MODULE_TARGETS
                        + (("deferkit.oracles", "renamed_away", "oracles.gone", None),))
    # a layer the workload no longer reaches reads 0
    monkeypatch.setitem(run.MUST_RECORD, "verify-bounds",
                        run.MUST_RECORD["verify-bounds"] + ("models.steps",))
    out = run.run_workload("verify-bounds", 5, 0, True, smoke=True)
    assert out["result"]["failed"] == 0 and not out["result"]["correct"]
    assert out["record"]["trace_gaps"] == [
        "trace target not found: deferkit.oracles.renamed_away",
        "traced run recorded nothing for models.steps"]
    assert "models.steps" in capsys.readouterr().err


def _fresh(name: str) -> run.Workload:
    """A smoke workload whose command has just run in-process."""
    from deferkit import cli
    wl = run.Workload(name, 5, True, REFERENCE, TOL)
    if name == "train-fullbatch":
        assert cli.main(wl.setup_argv[3:]) == 0
    assert cli.main(wl.argv[3:]) == 0
    attempted, failed = wl.check(0)
    assert attempted >= 1 and failed == 0
    return wl


def test_flipped_verdict_raises_failed_ratio():
    wl = _fresh("verify-bounds")
    text = wl.out.read_text()
    wl.out.write_text(text.replace(",ok\n", ",violation\n", 1))
    attempted, failed = wl.check(0)
    assert failed / attempted > 0
    # a violation exit code fails every report even when the file is intact
    wl.out.write_text(text)
    attempted, failed = wl.check(3)
    assert failed == attempted


def test_dropped_sweep_row_raises_failed_ratio():
    wl = _fresh("sweep-minibatch")
    lines = wl.out.read_text().splitlines(keepends=True)
    wl.out.write_text("".join(lines[:-1]))
    attempted, failed = wl.check(0)
    assert failed == 1 and failed / attempted > 0


def test_nan_in_trajectory_raises_failed_ratio():
    wl = _fresh("train-fullbatch")
    path = wl.out.with_suffix(".trajectory.csv")
    lines = path.read_text().splitlines(keepends=True)
    epoch, surrogate, _ = lines[2].rstrip("\n").split(",")
    lines[2] = f"{epoch},{surrogate},nan\n"
    path.write_text("".join(lines))
    assert wl.check(0) == (1, 1)


def test_self_time_is_duration_minus_child_coverage():
    spans = [("cli.main", 0, 100, -1, 0, None),
             ("models.train", 10, 40, 0, 0, None),
             ("losses.loss_grad", 20, 30, 1, 0, 128),
             ("cli.write_csv", 50, 60, 0, 0, 10)]
    assert tracing.self_times(spans) == [60, 20, 10, 10]
    assert tracing.child_coverage(spans) == pytest.approx(0.4)


def test_wrapped_exception_is_counted_and_reraised():
    tracer = tracing.Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap("oracles.cond_min", boom)()
    assert tracer.errors["oracles"] == 1 and tracer.spans[0][0] == "oracles.cond_min"


def test_exits_nonzero_without_program_sources():
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH_DIR, bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "verify-bounds",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and proc.stdout == ""
