"""Command-line interface.

Subcommands: gen-data (synthetic datasets with a manifest), train (fit one
scorer from a config), sweep (learning-curve comparison across losses and
training-set sizes), verify (bound checks on random finite-support tasks).
Each command's config fields, defaults and rules are its table in ``_CONFIGS``.

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
import sys
import zipfile
from collections.abc import Iterable, Sequence
from pathlib import Path

import numpy as np

from . import __version__, rng
from .losses import (LossSelector, PhiKind, PhiSpec, ProblemShape, PsiSpec, check_int,
                     check_number)
from .models import (LabeledDataset, TrainConfig, init_linear, init_mlp, replace_rows,
                     scorer_to_json, system_accuracy, train, realized_deferral_loss)
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


@dataclasses.dataclass(frozen=True)
class Rule:
    """The values of a config field: an integer (``int``) or a finite number
    (``float``) at least ``arg``; a bool; a string (``str``), one of ``arg``
    if given; or any value (``object``), which its domain object checks.
    ``many`` asks for a nonempty list of such values, and a value in
    ``unset`` leaves the field unset."""

    kind: type
    arg: object = None
    many: bool = False
    unset: tuple = ()

    def check(self, name: str, value) -> None:
        """Raises ConfigError, naming the field, when the value breaks the rule."""
        if value in self.unset:
            return
        if self.many and not (isinstance(value, list) and value):
            raise ConfigError(f"{name} must be a nonempty list, got {value!r}")
        for item in value if self.many else [value]:
            try:   # an integer or a number follows the rule of the package's own arguments
                if self.kind in (int, float):
                    (check_int if self.kind is int else check_number)(item, name, self.arg)
                elif not isinstance(item, self.kind) or self.arg is not None and item not in self.arg:
                    what = f"one of {list(self.arg)}" if self.arg else f"a {self.kind.__name__}"
                    raise ValueError(f"{name} must be {what}, got {item!r}")
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc


def _load_config(path: str, command: str) -> dict:
    """Reads a JSON config, checks its version and its fields against the
    command's table in ``_CONFIGS``, and returns it resolved: every field of
    the table, with its default where the config leaves it out."""
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    version = doc.pop("version", None)
    if version != 1:
        raise ConfigError(f"unsupported config version {version!r}")
    table = _CONFIGS[command]
    unknown = set(doc) - set(table)
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    cfg = {name: doc.get(name, default) for name, (default, _) in table.items()}
    missing = [name for name, value in cfg.items() if value is REQUIRED]
    if missing:
        raise ConfigError(f"missing config fields: {missing}")
    for name, (_, rule) in table.items():
        rule.check(name, cfg[name])
    return cfg


def _mog_config(cfg: dict) -> MogConfig:
    return MogConfig(**{name: cfg[name] for name in _MOG})


def _save_dataset(path: Path, dataset: LabeledDataset, seed: int,
                  config_text: str) -> None:
    np.savez(path, features=dataset.features, labels=dataset.labels,
             costs=dataset.costs, n=dataset.shape.n, n_e=dataset.shape.n_e,
             stage=dataset.stage)
    manifest = {"seed": seed, "config_sha256": hashlib.sha256(config_text.encode()).hexdigest(),
                "generator_version": __version__}
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
    cfg = _load_config(args.config, "gen-data")
    mog, num, kind = _mog_config(cfg), cfg["num_samples"], cfg["kind"]
    try:   # ranges that do not fit, or fewer rows than outputs
        if kind == "range_experts":
            dataset = gen_class_range_experts(mog, ExpertRangeSpec(cfg["ranges"]), num, args.seed)
        else:
            generate = gen_realizable_mog if kind == "mog_single" else gen_realizable_two_stage
            dataset, _ = generate(mog, num, args.seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    _save_dataset(Path(args.out), dataset, args.seed, Path(args.config).read_text())
    return 0


def cmd_train(args) -> int:
    cfg = _load_config(args.config, "train")
    tc = TrainConfig(learning_rate=float(cfg["learning_rate"]), epochs=cfg["epochs"],
                     batch_size=cfg["batch_size"], seed=args.seed, optimizer=cfg["optimizer"],
                     momentum=float(cfg["momentum"]), standardize=cfg["standardize"])
    try:
        dataset = load_dataset(cfg["data"])
    except (OSError, KeyError, ValueError, zipfile.BadZipFile) as exc:
        raise ConfigError(f"data: cannot load {cfg['data']!r}: {exc}") from exc
    try:
        psi = None if cfg["q"] is None else PsiSpec(q=float(cfg["q"]))
        phi = None if cfg["phi"] is None else PhiSpec(cfg["phi"])
        selector = LossSelector(cfg["loss"], psi=psi, phi=phi)
    except ValueError as exc:   # a spec the loss does not take, or q above 1
        raise ConfigError(str(exc)) from exc
    if selector.is_target:
        raise ConfigError(f"loss {selector.name!r} is a target loss; train needs a surrogate")
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
    try:
        train_set, _ = gen_realizable_mog(mog, size + test_samples, data_seed)
    except ValueError as exc:   # fewer rows than outputs
        raise ConfigError(f"sizes and test_samples: {exc}") from exc
    test_set = replace_rows(train_set, slice(size, size + test_samples))   # views, not copies
    train_set = replace_rows(train_set, slice(size))
    seeds = [rng.derive_seed(master_seed, f"sweep-{method}-{size}", trial) for method in methods]
    fitted, last = train([init_linear(mog.dim, mog.shape.augmented_size, seed) for seed in seeds],
                         train_set, [SWEEP_SELECTORS[method] for method in methods],
                         [dataclasses.replace(config, seed=seed) for seed in seeds],
                         trajectory=False)
    # train_deferral is the target loss of the last trajectory row, on the training rows
    tests = [float(realized_deferral_loss(scorer, test_set).mean()) for scorer in fitted]
    return [(method, size, trial, seed, float(row[1]), test, 1.0 - test)
            for method, seed, row, test in zip(methods, seeds, last[0], tests)]


def cmd_sweep(args) -> int:
    cfg = _load_config(args.config, "sweep")
    tc = TrainConfig(learning_rate=float(cfg["learning_rate"]), epochs=cfg["epochs"],
                     optimizer=cfg["optimizer"], batch_size=cfg["batch_size"])
    mog = _mog_config(cfg)
    # one job per (size, trial): its methods share that job's data draw
    jobs = [(args.seed, cfg["methods"], s, t, mog, cfg["test_samples"], tc)
            for s in cfg["sizes"] for t in range(cfg["trials"])]
    if args.jobs > 1:
        import multiprocessing   # here, not at the top: a one-process run skips its import
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
    cfg = _load_config(args.config, "verify")
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


REQUIRED = object()   # the default of a field that each config must give
_COUNT, _NUMBER = Rule(int, 1), Rule(float, 0.0)
_BATCH, _OPTIMIZER = Rule(int, 1, unset=("full",)), Rule(str, TrainConfig.optimizers)
# the MogConfig fields of gen-data and sweep; a label set holds at least 2 labels
_MOG = {"dim": (16, _COUNT), "components": (8, _COUNT), "n": (4, Rule(int, 2)), "n_e": (2, _COUNT)}
# each command's table: field -> (default or REQUIRED, rule)
_CONFIGS = {
    "gen-data": {"kind": (REQUIRED, Rule(str, ("mog_single", "mog_two", "range_experts"))),
                 "num_samples": (REQUIRED, _COUNT), **_MOG, "ranges": (None, Rule(object))},
    "train": {
        "data": (REQUIRED, Rule(str)), "loss": (REQUIRED, Rule(str)),
        "q": (None, Rule(float, 0.0, unset=(None,))),
        "phi": (None, Rule(str, tuple(kind.value for kind in PhiKind), unset=(None,))),
        "model": ("linear", Rule(str, ("linear", "mlp"))), "hidden": (64, _COUNT),
        "learning_rate": (0.5, _NUMBER), "epochs": (500, _COUNT), "batch_size": ("full", _BATCH),
        "optimizer": ("gd", _OPTIMIZER), "momentum": (0.9, _NUMBER),
        "standardize": (True, Rule(bool))},
    "sweep": {
        "methods": (list(SWEEP_METHODS), Rule(str, SWEEP_METHODS, many=True)),
        "sizes": (list(SWEEP_SIZES), Rule(int, 1, many=True)), "trials": (5, _COUNT), **_MOG,
        "epochs": (200, _COUNT), "learning_rate": (0.3, _NUMBER), "test_samples": (10_000, _COUNT),
        # minibatch updates matter here: full-batch descent stalls on the
        # saturated plateaus of the single-stage surrogates on some draws
        "optimizer": ("momentum", _OPTIMIZER), "batch_size": (128, _BATCH)},
    # the task generator draws label counts from [2, n_max] and support sizes
    # from [2, k_max]; it checks ne_max >= 2 for a two-stage family
    "verify": {
        "families": (list(_VERIFY_FAMILIES), Rule(str, tuple(_VERIFY_FAMILIES), many=True)),
        "num_tasks": (100, _COUNT), "hyps_per_task": (5, _COUNT), "n_max": (4, Rule(int, 2)),
        "ne_max": (3, _COUNT), "k_max": (6, Rule(int, 2))},
}
_COMMANDS = {"gen-data": cmd_gen_data, "train": cmd_train, "sweep": cmd_sweep,
             "verify": cmd_verify}


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
        _COUNT.check("--jobs", args.jobs)
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
