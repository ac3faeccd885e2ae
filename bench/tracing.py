"""In-memory span recorder and the per-layer metrics derived from it.

The traced run calls ``deferkit.cli.main`` in-process after replacing the
public functions of each layer, at the names the calling code looks them up
by, with wrappers that record one span per call. Nothing in the package is
edited; :meth:`Tracer.install` returns an undo list that puts every original
back.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import statistics
import time
from collections import Counter, defaultdict
from pathlib import Path

LAYERS = ("cli", "models", "losses", "oracles", "synthdata", "rng")

# Loss+grad calls on at most this many rows count as minibatch calls; larger
# ones are full-set calls (steps of a full-batch run, per-epoch evaluations).
MINI_MAX_ROWS = 1024

# The span under each cli.main call that is not covered by a child span is
# cli self time (argument parsing, config checks, building CSV rows). A
# smaller covered share means some layer is being called unwrapped.
MIN_CHILD_COVERAGE = 0.85


def _rows(args, kwargs, out):
    return len(args[0])


def _points(args, kwargs, out):
    return len(out.target_regrets)


def _file_bytes(args, kwargs, out):
    return Path(args[0]).stat().st_size


def _mog_key(args, kwargs, out):
    return repr(args)


def _task_key(args, kwargs, out):
    return repr((args, sorted(kwargs.items())))


_LOSS_GRAD = ("surrogate_single_with_grad_batch", "baseline_verma_with_grad_batch",
              "baseline_mao_with_grad_batch",
              "two_stage_surrogate_phi_with_grad_batch",
              "two_stage_surrogate_psi_with_grad_batch")
_TARGET = ("deferral_loss_batch", "two_stage_deferral_loss_batch")

# (module, attribute, span name, span attribute). An attribute path with a
# dot names a method on a class in that module.
MODULE_TARGETS = (
    ("deferkit.cli", "_write_csv", "cli.write_csv", _file_bytes),
    ("deferkit.cli", "load_dataset", "cli.load_dataset", None),
    ("deferkit.cli", "train", "models.train", None),
    ("deferkit.cli", "init_linear", "models.init", None),
    ("deferkit.cli", "replace_rows", "models.replace_rows", None),
    ("deferkit.cli", "scorer_to_json", "models.scorer_to_json", None),
    ("deferkit.cli", "system_accuracy", "models.system_accuracy", None),
    ("deferkit.cli", "realized_deferral_loss", "models.realized_deferral_loss", None),
    ("deferkit.models", "realized_deferral_loss", "models.realized_deferral_loss", None),
    # optimizer steps have no public boundary; one _backprop call is one step
    ("deferkit.models", "_backprop", "models.step", None),
    ("deferkit.cli", "verify_bound_single_mae", "oracles.report.single_mae", _points),
    ("deferkit.cli", "verify_bound_two_stage", "oracles.report.two_stage", _points),
    ("deferkit.cli", "verify_bound_two_expert_phi", "oracles.report.two_expert_phi", _points),
    ("deferkit.oracles", "conditional_min_surrogate", "oracles.cond_min", None),
    ("deferkit.oracles", "conditional_error", "oracles.cond_error", None),
    ("deferkit.oracles", "RegretReport.csv_rows", "oracles.csv_rows", None),
    ("deferkit.cli", "gen_realizable_mog", "synthdata.mog", _mog_key),
    ("deferkit.cli", "gen_realizable_two_stage", "synthdata.mog", _mog_key),
    ("deferkit.cli", "gen_random_discrete_task", "synthdata.task", _task_key),
    ("deferkit.rng", "substream", "rng.substream", None),
    ("deferkit.rng", "derive_seed", "rng.derive_seed", None),
    ("deferkit.models", "substream", "rng.substream", None),
)

# models and oracles call losses as ``losses.<name>``, so each gets its own
# proxy of the losses module: calls made inside losses itself stay unwrapped.
LOSSES_TARGETS = {
    "deferkit.models": [(n, "losses.loss_grad", _rows) for n in _LOSS_GRAD]
                       + [(n, "losses.target", _rows) for n in _TARGET],
    "deferkit.oracles": [("surrogate_mae_batch", "losses.small", None),
                         ("softmax", "losses.small", None)],
}


class _ModuleProxy:
    """Stands in for a module: overridden names first, the module otherwise."""

    def __init__(self, module, overrides: dict):
        self.__dict__.update(overrides)
        self._module = module

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    """Records spans as tuples (name, start_ns, end_ns, parent, run_id, attr).

    ``parent`` is the index of the enclosing span, or -1 for a root. Spans
    are single-threaded and nested, so a span's children never overlap.
    """

    def __init__(self):
        self.spans: list = []
        self.errors: Counter = Counter()
        self.run_id = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn, attr=None):
        spans, stack, errors = self.spans, self._stack, self.errors
        layer = name.split(".", 1)[0]
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            value = None
            start = clock()
            try:
                out = fn(*args, **kwargs)
                if attr is not None:
                    value = attr(args, kwargs, out)
                return out
            except BaseException:
                errors[layer] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.run_id, value)

        return wrapper

    def install(self) -> tuple[list, list[str]]:
        """Wraps every target; returns the undo list and the names missing."""
        undo, missing = [], []

        def patch(owner, attr, new):
            undo.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, new)

        for modname, path, name, attr in MODULE_TARGETS:
            owner = importlib.import_module(modname)
            *outer, leaf = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            if not hasattr(owner, leaf):
                missing.append(f"{modname}.{path}")
                continue
            patch(owner, leaf, self.wrap(name, getattr(owner, leaf), attr))
        for modname, targets in LOSSES_TARGETS.items():
            module = importlib.import_module(modname)
            real = module.losses
            overrides = {}
            for fname, name, attr in targets:
                if hasattr(real, fname):
                    overrides[fname] = self.wrap(name, getattr(real, fname), attr)
                else:
                    missing.append(f"deferkit.losses.{fname}")
            patch(module, "losses", _ModuleProxy(real, overrides))
        return undo, missing

    @staticmethod
    def uninstall(undo: list) -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        with gzip.open(path, "wt") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\trun_id\tattr\n")
            for span in self.spans:
                fh.write("\t".join("" if v is None else str(v) for v in span) + "\n")


def self_times(spans: list) -> list[int]:
    """Each span's duration minus the part of it its child spans cover."""
    own = [end - start for _, start, end, *_ in spans]
    for _, start, end, parent, *_ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _tail(values: list) -> float:
    """The highest sample with at least ten samples above it (the maximum
    when there are fewer than eleven)."""
    ordered = sorted(values)
    return ordered[-11] if len(ordered) > 10 else ordered[-1]


def layer_metrics(spans: list, iterations: int, errors: Counter) -> dict:
    """Per-layer metrics from the spans of ``iterations`` traced iterations
    and the exceptions counted per layer.

    Counts and times are per iteration; ``p50``/``tail`` are over every call.
    """
    own = self_times(spans)
    durs = defaultdict(list)
    attrs = defaultdict(list)
    keys = defaultdict(set)
    self_ns = defaultdict(int)
    layer_self_ns = defaultdict(int)
    for (name, start, end, parent, run_id, attr), s in zip(spans, own):
        if name == "losses.loss_grad":
            name += ".mini" if attr <= MINI_MAX_ROWS else ".full"
        durs[name].append(end - start)
        attrs[name].append(attr)
        keys[name].add((run_id, attr))
        self_ns[name] += s
        layer_self_ns[name.split(".", 1)[0]] += s
    root_ns = sum(end - start for _, start, end, parent, *_ in spans if parent < 0)
    per = 1.0 / iterations

    def calls(name):
        return len(durs[name]) * per

    def p50_us(name):
        return statistics.median(durs[name]) / 1e3 if durs[name] else 0.0

    def tail_us(name):
        return _tail(durs[name]) / 1e3 if durs[name] else 0.0

    def total_s(name):
        return sum(durs[name]) / 1e9 * per

    def unique_ratio(name):
        """Distinct calls within an iteration over all calls."""
        return len(keys[name]) / len(attrs[name]) if attrs[name] else 0.0

    # a step or an evaluation counts when it happens inside models.train
    in_train = [False] * len(spans)
    for i, (name, _, _, parent, *_) in enumerate(spans):
        in_train[i] = name == "models.train" or (parent >= 0 and in_train[parent])
    train_loss_grad = sum(1 for s, t in zip(spans, in_train)
                          if t and s[0] == "losses.loss_grad")
    steps = sum(1 for s, t in zip(spans, in_train) if t and s[0] == "models.step")
    evals = sum(1 for s, t in zip(spans, in_train) if t and s[0] == "losses.target")
    full = durs["losses.loss_grad.full"]
    full_rows = sum(attrs["losses.loss_grad.full"])
    reports = sum(len(durs[f"oracles.report.{f}"])
                  for f in ("single_mae", "two_stage", "two_expert_phi"))
    points = sum(sum(attrs[f"oracles.report.{f}"])
                 for f in ("single_mae", "two_stage", "two_expert_phi"))
    train_ns = sum(durs["models.train"])

    m = {
        "losses.loss_grad.mini.calls": calls("losses.loss_grad.mini"),
        "losses.loss_grad.mini.p50_us": p50_us("losses.loss_grad.mini"),
        "losses.loss_grad.mini.tail_us": tail_us("losses.loss_grad.mini"),
        "losses.loss_grad.full.calls": calls("losses.loss_grad.full"),
        "losses.loss_grad.full.p50_us": p50_us("losses.loss_grad.full"),
        "losses.loss_grad.full.ns_per_row": sum(full) / full_rows if full_rows else 0.0,
        "losses.target.p50_us": p50_us("losses.target"),
        "losses.small.calls": calls("losses.small"),
        "losses.small.p50_us": p50_us("losses.small"),
        "models.train.calls": calls("models.train"),
        "models.train.s": total_s("models.train"),
        "models.train.share": train_ns / root_ns,
        "models.train.self_share": self_ns["models.train"] / train_ns if train_ns else 0.0,
        "models.steps": steps * per,
        "models.evals": evals * per,
        "models.grad_useful_ratio": steps / train_loss_grad if train_loss_grad else 0.0,
        "models.realized_deferral_loss.p50_us": p50_us("models.realized_deferral_loss"),
    }
    for fam in ("single_mae", "two_stage", "two_expert_phi"):
        m[f"oracles.report.{fam}.calls"] = calls(f"oracles.report.{fam}")
        m[f"oracles.report.{fam}.p50_us"] = p50_us(f"oracles.report.{fam}")
        m[f"oracles.report.{fam}.tail_us"] = tail_us(f"oracles.report.{fam}")
    m.update({
        "oracles.cond_min.calls": calls("oracles.cond_min"),
        "oracles.cond_min.p50_us": p50_us("oracles.cond_min"),
        "oracles.cond_min.share": sum(durs["oracles.cond_min"]) / root_ns,
        "oracles.cond_error.calls": calls("oracles.cond_error"),
        "oracles.cond_error.p50_us": p50_us("oracles.cond_error"),
        "oracles.points_per_report": points / reports if reports else 0.0,
        "synthdata.mog.calls": calls("synthdata.mog"),
        "synthdata.mog.ms_per_call": p50_us("synthdata.mog") / 1e3,
        "synthdata.mog.unique_ratio": unique_ratio("synthdata.mog"),
        "synthdata.task.calls": calls("synthdata.task"),
        "synthdata.task.p50_us": p50_us("synthdata.task"),
        "synthdata.task.unique_ratio": unique_ratio("synthdata.task"),
        "rng.substream.calls": calls("rng.substream"),
        "rng.substream.p50_us": p50_us("rng.substream"),
        "cli.write_csv.s": total_s("cli.write_csv"),
        "cli.write_csv.bytes": sum(attrs["cli.write_csv"]) * per,
        "cli.self_s": layer_self_ns["cli"] / 1e9 * per,
    })
    for layer in LAYERS:
        m[f"{layer}.self_share"] = layer_self_ns[layer] / root_ns
        m[f"{layer}.errors"] = errors[layer] * per
    m["trace.spans"] = len(spans) * per
    m["trace.child_coverage"] = child_coverage(spans)
    return m


def child_coverage(spans: list) -> float:
    """Share of the root spans' time that their direct children cover."""
    root_ns = covered_ns = 0
    for _, start, end, parent, *_ in spans:
        if parent < 0:
            root_ns += end - start
    for _, start, end, parent, *_ in spans:
        if parent >= 0 and spans[parent][3] < 0:
            covered_ns += end - start
    return covered_ns / root_ns if root_ns else 0.0
