"""The benchmark tracer finds every function it wraps: a renamed entry point
fails here, in the main suite, and not only in the benchmark's own tests."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
