"""Command-line interface.

Subcommands: gen-data (synthetic datasets with a manifest), train (fit one
scorer from a config), sweep (learning-curve comparison across losses and
training-set sizes), verify (bound checks on random finite-support tasks).

Exit codes: 0 success, 1 invalid config or arguments, 2 runtime failure,
3 bound violations found by verify.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import itertools
import json
import math
import multiprocessing
import sys
import zipfile
from collections.abc import Iterable, Sequence
from pathlib import Path

import numpy as np

from . import __version__, rng
from .losses import LossSelector, PhiKind, PhiSpec, ProblemShape, PsiSpec
from .models import (LabeledDataset, TrainConfig, init_linear,
                     init_mlp, replace_rows, scorer_to_json, system_accuracy,
                     train, realized_deferral_loss)
from .oracles import (DiscreteTask, TabularHypothesis, verify_bound_single_mae,
                      verify_bound_two_expert_phi, verify_bound_two_stage)
from .synthdata import (ExpertRangeSpec, MogConfig, gen_class_range_experts,
                        gen_realizable_mog, gen_realizable_two_stage,
                        gen_random_discrete_task)

# system_accuracy stays a name of this module: bench/tracing.py wraps it here
__all__ = ["main", "run_sweep_trial", "system_accuracy"]

SWEEP_SIZES = (250, 500, 1000, 2000, 4000, 8000, 16000)
SWEEP_SELECTORS = {
    "ours_q07": LossSelector("surrogate_single", psi=PsiSpec(q=0.7)),
    "ours_q1": LossSelector("surrogate_mae"),
    "verma23": LossSelector("baseline_verma"),
    # the published comparison uses the logistic auxiliary, i.e. q = 0
    "mao24": LossSelector("baseline_mao", psi=PsiSpec(q=0.0)),
}
SWEEP_METHODS = tuple(SWEEP_SELECTORS)


class ConfigError(ValueError):
    pass


_QUOTED = ',"\r\n'


def _quote(text: str) -> str:
    """A field as csv.writer writes it: quoted, with its quotes doubled, when
    it holds a comma, a quote or a line break."""
    if any(c in text for c in _QUOTED):
        return '"' + text.replace('"', '""') + '"'
    return text


def _cells(column) -> tuple[str, list]:
    """The % template of a column and its values: floats with 17 significant
    digits, integers in full and strings quoted where they need it."""
    values = column.tolist() if isinstance(column, np.ndarray) else list(column)
    kinds = set(map(type, values))
    if kinds <= {float}:
        return "%.17g", values
    if kinds <= {int}:
        return "%d", values
    if not kinds <= {str}:
        raise ValueError(f"a column holds floats, integers or strings alone, "
                         f"got {sorted(k.__name__ for k in kinds)}")
    if any(c in "".join(values) for c in _QUOTED):
        values = list(map(_quote, values))
    return "%s", values


def _write_csv(path: Path, header: list[str], blocks: Iterable[Sequence]) -> None:
    """Writes the header, then each block's rows as the block comes.

    A block is a sequence of two or more columns: sequences of one length,
    each of floats, of integers or of strings, or a str that fills its
    column. Every block is formatted in one pass and written before the
    next is read."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(map(_quote, header)) + "\n")
        for block in blocks:
            templates, columns = [], []
            for column in block:
                if isinstance(column, str):
                    templates.append(_quote(column).replace("%", "%%"))
                else:
                    template, values = _cells(column)
                    templates.append(template)
                    columns.append(values)
            if len({len(values) for values in columns}) != 1:
                raise ValueError("a block needs columns of values, all of one length")
            row = ",".join(templates) + "\n"
            fh.write(row * len(columns[0]) % tuple(itertools.chain.from_iterable(zip(*columns))))


def _load_config(path: str, allowed: dict) -> dict:
    """Reads a JSON config, checks the schema version, fills defaults and
    rejects unknown fields."""
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    if doc.get("version") != 1:
        raise ConfigError(f"unsupported config version {doc.get('version')!r}")
    unknown = set(doc) - set(allowed) - {"version"}
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    merged = dict(allowed)
    merged.update({k: v for k, v in doc.items() if k != "version"})
    missing = [k for k, v in merged.items() if v is _REQUIRED]
    if missing:
        raise ConfigError(f"missing config fields: {missing}")
    _check_minima(merged, {name: least for name, least in _LEAST.items()
                           if name in merged and (name, merged[name]) not in _UNSET})
    return merged


_REQUIRED = object()
# least value of each numeric config field of any command; the task generator
# draws label counts from [2, n_max] and support sizes from [2, k_max]
_LEAST = {"num_samples": 1, "dim": 1, "components": 1, "n": 2, "n_e": 1,
          "epochs": 1, "learning_rate": 0.0, "batch_size": 1, "momentum": 0.0,
          "hidden": 1, "q": 0.0, "trials": 1, "test_samples": 1,
          "num_tasks": 1, "hyps_per_task": 1, "n_max": 2, "ne_max": 1, "k_max": 2}
# (field, value) pairs that leave a field unset, so it has no least value
_UNSET = (("q", None), ("batch_size", "full"))


def _check_minima(cfg: dict, minima: dict) -> None:
    """Raises ConfigError naming the first field that has the wrong type or
    lies below its least value. An int least value asks for an integer, a
    float one for any finite number."""
    for name, least in minima.items():
        value = cfg[name]
        kind = int if isinstance(least, int) else (int, float)
        if (isinstance(value, bool) or not isinstance(value, kind)
                or (isinstance(value, float) and not math.isfinite(value))
                or value < least):
            what = "an integer" if kind is int else "a number"
            raise ConfigError(f"{name} must be {what} >= {least}, got {value!r}")


def _train_config(**fields) -> TrainConfig:
    try:
        return TrainConfig(**fields)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _mog_config(cfg: dict) -> MogConfig:
    return MogConfig(dim=cfg["dim"], components=cfg["components"],
                     n=cfg["n"], n_e=cfg["n_e"])


def _save_dataset(path: Path, dataset: LabeledDataset, seed: int,
                  config_text: str) -> None:
    np.savez(path, features=dataset.features, labels=dataset.labels,
             costs=dataset.costs, n=dataset.shape.n, n_e=dataset.shape.n_e,
             stage=dataset.stage)
    manifest = {
        "seed": seed,
        "config_sha256": hashlib.sha256(config_text.encode()).hexdigest(),
        "generator_version": __version__,
    }
    path.with_suffix(".manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n")


def load_dataset(path: str) -> LabeledDataset:
    doc = np.load(path)
    if not isinstance(doc, np.lib.npyio.NpzFile):   # a .npy file holds one array
        raise ValueError(f"{path} holds one array, not a dataset archive")
    with doc:
        return LabeledDataset(features=doc["features"], labels=doc["labels"],
                              costs=doc["costs"],
                              shape=ProblemShape(int(doc["n"]), int(doc["n_e"])),
                              stage=str(doc["stage"]))


def cmd_gen_data(args) -> int:
    cfg = _load_config(args.config, {
        "kind": _REQUIRED, "num_samples": _REQUIRED, "dim": 16,
        "components": 8, "n": 4, "n_e": 2, "ranges": None,
    })
    mog = _mog_config(cfg)
    num = cfg["num_samples"]
    generate = {"mog_single": gen_realizable_mog, "mog_two": gen_realizable_two_stage}
    if cfg["kind"] in generate:
        try:
            dataset, _ = generate[cfg["kind"]](mog, num, args.seed)
        except ValueError as exc:   # fewer rows than outputs
            raise ConfigError(str(exc)) from exc
    elif cfg["kind"] == "range_experts":
        try:
            dataset = gen_class_range_experts(mog, ExpertRangeSpec(cfg["ranges"]),
                                              num, args.seed)
        except ValueError as exc:
            raise ConfigError(f"ranges: {exc}") from exc
    else:
        raise ConfigError(f"unknown data kind {cfg['kind']!r}")
    _save_dataset(Path(args.out), dataset, args.seed, Path(args.config).read_text())
    return 0


def _selector_from_config(cfg: dict) -> LossSelector:
    """The surrogate a train config names; an error names the field at fault."""
    try:
        psi = None if cfg["q"] is None else PsiSpec(q=float(cfg["q"]))
        phi = None if cfg["phi"] is None else PhiSpec(cfg["phi"])
        selector = LossSelector(cfg["loss"], psi=psi, phi=phi)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if selector.is_target:
        raise ConfigError(f"loss {selector.name!r} is a target loss; train needs a surrogate")
    return selector


def cmd_train(args) -> int:
    cfg = _load_config(args.config, {
        "data": _REQUIRED, "loss": _REQUIRED, "q": None, "phi": None,
        "model": "linear", "hidden": 64, "learning_rate": 0.5,
        "epochs": 500, "batch_size": "full", "optimizer": "gd",
        "momentum": 0.9, "standardize": True,
    })
    if cfg["model"] not in ("linear", "mlp"):
        raise ConfigError(f"unknown model {cfg['model']!r}")
    if not isinstance(cfg["standardize"], bool):
        raise ConfigError(f"standardize must be true or false, got {cfg['standardize']!r}")
    tc = _train_config(learning_rate=float(cfg["learning_rate"]),
                       epochs=cfg["epochs"], batch_size=cfg["batch_size"],
                       seed=args.seed, optimizer=cfg["optimizer"],
                       momentum=float(cfg["momentum"]),
                       standardize=cfg["standardize"])
    try:
        dataset = load_dataset(cfg["data"])
    except (OSError, KeyError, ValueError, zipfile.BadZipFile) as exc:
        raise ConfigError(f"data: cannot load {cfg['data']!r}: {exc}") from exc
    selector = _selector_from_config(cfg)
    if selector.stage != dataset.stage:
        raise ConfigError("loss stage does not match dataset stage")
    dim, width = dataset.features.shape[1], dataset.shape.width(dataset.stage)
    if cfg["model"] == "linear":
        scorer = init_linear(dim, width, args.seed)
    else:
        scorer = init_mlp(dim, cfg["hidden"], width, args.seed)
    fitted, trajectory = train(scorer, dataset, selector, tc)
    out = Path(args.out)
    out.write_text(scorer_to_json(fitted) + "\n")
    _write_csv(out.with_suffix(".trajectory.csv"), ["epoch", "surrogate_loss", "target_loss"],
               [(np.arange(len(trajectory)), trajectory[:, 0], trajectory[:, 1])])
    return 0


def run_sweep_trial(master_seed: int, methods: Sequence[str], size: int, trial: int,
                    mog: MogConfig, test_samples: int, config: TrainConfig) -> list[tuple]:
    """One (size, trial) of the sweep: one draw of realizable data, split into
    train and held-out test rows, on which each method trains its own linear
    scorer under ``config`` at its own seed. The methods' losses share one
    kernel, so they train as one model stack. Returns one row per method."""
    data_seed = rng.derive_seed(master_seed, "sweep-data", trial)
    train_set, _ = gen_realizable_mog(mog, size + test_samples, data_seed)
    test_set = replace_rows(train_set, slice(size, size + test_samples))   # views, not copies
    train_set = replace_rows(train_set, slice(size))
    seeds = [rng.derive_seed(master_seed, f"sweep-{method}-{size}", trial) for method in methods]
    fitted, _ = train([init_linear(mog.dim, mog.shape.augmented_size, seed) for seed in seeds],
                      train_set, [SWEEP_SELECTORS[method] for method in methods],
                      [dataclasses.replace(config, seed=seed) for seed in seeds],
                      trajectory=False)
    rows = []
    for method, seed, scorer in zip(methods, seeds, fitted):
        test_deferral = float(realized_deferral_loss(scorer, test_set).mean())
        rows.append((method, size, trial, seed,
                     float(realized_deferral_loss(scorer, train_set).mean()),
                     test_deferral, 1.0 - test_deferral))
    return rows


def cmd_sweep(args) -> int:
    cfg = _load_config(args.config, {
        "methods": list(SWEEP_METHODS), "sizes": list(SWEEP_SIZES),
        "trials": 5, "dim": 16, "components": 8, "n": 4, "n_e": 2,
        "epochs": 200, "learning_rate": 0.3, "test_samples": 10_000,
        # minibatch updates matter here: full-batch descent stalls on the
        # saturated plateaus of the single-stage surrogates on some draws
        "optimizer": "momentum", "batch_size": 128,
    })
    bad = set(cfg["methods"]) - set(SWEEP_METHODS)
    if bad:
        raise ConfigError(f"unknown sweep methods: {sorted(bad)}")
    if not isinstance(cfg["sizes"], list):
        raise ConfigError("sizes must be a list")
    for size in cfg["sizes"]:
        _check_minima({"sizes": size}, {"sizes": 1})
    tc = _train_config(learning_rate=float(cfg["learning_rate"]), epochs=cfg["epochs"],
                       optimizer=cfg["optimizer"], batch_size=cfg["batch_size"])
    mog = _mog_config(cfg)
    # one job per (size, trial): its methods share that job's data draw
    jobs = [(args.seed, cfg["methods"], s, t, mog, cfg["test_samples"], tc)
            for s in cfg["sizes"] for t in range(cfg["trials"])]
    if not jobs or not cfg["methods"]:
        raise ConfigError("sweep config runs no cells")
    if args.jobs > 1:
        with multiprocessing.Pool(args.jobs) as pool:
            trials = pool.starmap(run_sweep_trial, jobs)
    else:
        trials = [run_sweep_trial(*job) for job in jobs]
    # rows are keyed by derived seeds, so sorting makes the output identical
    # for any --jobs value
    results = sorted((row for rows in trials for row in rows),
                     key=lambda r: (r[0], r[1], r[2]))
    _write_csv(Path(args.out),
               ["method", "size", "trial", "seed", "train_deferral",
                "test_deferral", "test_accuracy"], [list(zip(*results))])
    return 0


_LOGISTIC = PhiSpec(PhiKind.LOGISTIC)
# family -> (stage, expert cap or None for the config's ne_max, check); each
# check names its verifier when called, so a wrapper set on this module counts
_VERIFY_FAMILIES = {
    "single_mae": ("single", None, lambda task, hyp: verify_bound_single_mae(task, hyp)),
    "two_stage_q0": ("two", None, lambda task, hyp: verify_bound_two_stage(task, hyp, 0.0)),
    "two_stage_q05": ("two", None, lambda task, hyp: verify_bound_two_stage(task, hyp, 0.5)),
    "two_stage_q1": ("two", None, lambda task, hyp: verify_bound_two_stage(task, hyp, 1.0)),
    "two_expert_logistic": ("two", 2, lambda task, hyp: verify_bound_two_expert_phi(
        task, hyp, _LOGISTIC)),
}


def cmd_verify(args) -> int:
    cfg = _load_config(args.config, {
        "families": list(_VERIFY_FAMILIES), "num_tasks": 100,
        "hyps_per_task": 5, "n_max": 4, "ne_max": 3, "k_max": 6,
    })
    if not isinstance(cfg["families"], list):
        raise ConfigError("families must be a list")
    bad = set(cfg["families"]) - set(_VERIFY_FAMILIES)
    if bad:
        raise ConfigError(f"unknown verify families: {sorted(bad)}")
    checked: list[tuple[str, list]] = []   # per family: (task indices, report) per check
    # families with the same generator arguments check the same tasks
    tasks = {}
    for family in cfg["families"]:
        stage, ne_cap, check = _VERIFY_FAMILIES[family]
        constraint = "none" if stage == "single" else "theorem7_premise"
        ne_max = cfg["ne_max"] if ne_cap is None else ne_cap
        groups, family_checks = {}, []
        for i in range(cfg["num_tasks"]):
            key = (constraint, ne_max, i)
            if key not in tasks:
                try:
                    tasks[key] = gen_random_discrete_task(
                        args.seed, index=i, n_max=cfg["n_max"], ne_max=ne_max,
                        k_max=cfg["k_max"], constraint=constraint)
                except ValueError as exc:   # a bound that the family cannot draw under
                    raise ConfigError(str(exc)) from exc
            task = tasks[key]
            # one draw (the numbers of a draw per hypothesis) per task
            g = rng.substream(args.seed, f"verify-{family}", i)
            scores = g.standard_normal((cfg["hyps_per_task"], task.num_points,
                                        task.shape.width(stage)))
            groups.setdefault((task.num_points, task.shape), []).append((i, task, scores))
        # one check for all the tasks of a shape and all their hypotheses
        for members in groups.values():
            index, group, scores = zip(*members)
            family_checks.append((index, check(DiscreteTask.stack(group),
                                               TabularHypothesis(np.stack(scores)))))
        checked.append((family, family_checks))
    if not checked:
        raise ConfigError("verify config checks no reports")
    violations: list[int] = []
    _write_csv(Path(args.out), ["family", "task_id", "point", "lhs", "rhs", "slack", "verdict"],
               _verify_blocks(checked, cfg["hyps_per_task"], violations))
    return 3 if sum(violations) else 0


def _verify_blocks(checked, hyps: int, violations: list[int]):
    """One CSV block per family from the table of each of its checks, its rows
    in task, hypothesis, point order; appends each family's count of
    violation rows to ``violations``."""
    for family, family_checks in checked:
        tables, order = [], []
        for index, report in family_checks:
            points, *columns = report.table()    # each (T, H, K + 1)
            ids = [f"task{i}_h{h}" for i in index for h in range(hyps)]
            tables.append([np.repeat(ids, points.shape[-1]), points.ravel()]
                          + [c.ravel() for c in columns])
            order.append(np.repeat(index, points[0].size))
        rows = np.argsort(np.concatenate(order), kind="stable")
        block = [family] + [np.concatenate(c)[rows] for c in zip(*tables)]
        violations.append(int(np.count_nonzero(block[-1] == "violation")))
        yield block


_COMMANDS = {
    "gen-data": cmd_gen_data,
    "train": cmd_train,
    "sweep": cmd_sweep,
    "verify": cmd_verify,
}


@functools.cache  # built once per process: building costs several times a parse
def build_parser() -> argparse.ArgumentParser:
    # every command takes the same options, so one parser serves them all
    parser = argparse.ArgumentParser(prog="deferkit")
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("command", choices=list(_COMMANDS))
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--jobs", type=int, default=1)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on bad arguments; remap to the config code
        return 0 if exc.code in (0, None) else 1
    try:
        _check_minima({"--jobs": args.jobs}, {"--jobs": 1})
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
