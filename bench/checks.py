"""Output checks. Each returns (attempted, failed) operations for one
command's outputs: sweep rows, verify reports, or one train run."""

from __future__ import annotations

import csv
import math
from pathlib import Path

SWEEP_HEADER = ["method", "size", "trial", "seed", "train_deferral",
                "test_deferral", "test_accuracy"]
VERIFY_HEADER = ["family", "task_id", "point", "lhs", "rhs", "slack", "verdict"]
TRAJECTORY_HEADER = ["epoch", "surrogate_loss", "target_loss"]
# criterion 9's threshold on the routed cost after two-stage training
TRAIN_TARGET_MAX = 0.01


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError:
        return [], []
    return (rows[0], rows[1:]) if rows else ([], [])


def _finite(*texts: str) -> list[float] | None:
    try:
        vals = [float(t) for t in texts]
    except ValueError:
        return None
    return vals if all(math.isfinite(v) for v in vals) else None


def check_sweep(path: Path, cfg: dict, floors: dict, tol: float,
                returncode: int) -> tuple[int, int]:
    """One row per (method, trial): finite values, accuracy equal to one
    minus the test deferral loss and no lower than the method's floor."""
    expected = {(m, str(s), str(t)) for m in cfg["methods"] for s in cfg["sizes"]
                for t in range(cfg["trials"])}
    header, rows = _read_csv(path)
    if returncode != 0 or header != SWEEP_HEADER:
        return len(expected), len(expected)
    good, seen, extra = 0, set(), 0
    for row in rows:
        key = tuple(row[:3])
        if len(row) != len(SWEEP_HEADER) or key not in expected or key in seen:
            extra += 1
            continue
        seen.add(key)
        vals = _finite(*row[3:])
        if vals is None:
            continue
        _, train_def, test_def, acc = vals
        if (0.0 <= train_def <= 1.0 and 0.0 <= test_def <= 1.0
                and abs(acc - (1.0 - test_def)) <= 1e-12
                and acc >= floors[row[0]] - tol):
            good += 1
    return len(expected) + extra, len(expected) + extra - good


def verify_layout(cfg: dict, seed: int) -> list[tuple[str, str, int]]:
    """(family, task_id, K) of every report the verify config asks for,
    with K taken from the same task generator the command uses."""
    from deferkit.synthdata import gen_random_discrete_task
    layout = []
    for family in cfg["families"]:
        constraint = "none" if family == "single_mae" else "theorem7_premise"
        ne_max = 2 if family == "two_expert_logistic" else cfg["ne_max"]
        for i in range(cfg["num_tasks"]):
            k = gen_random_discrete_task(seed, index=i, n_max=cfg["n_max"],
                                         ne_max=ne_max, k_max=cfg["k_max"],
                                         constraint=constraint).num_points
            layout.extend((family, f"task{i}_h{h}", k)
                          for h in range(cfg["hyps_per_task"]))
    return layout


def check_verify(path: Path, layout: list, returncode: int) -> tuple[int, int]:
    """Every report has K point rows then the aggregate row, each finite with
    slack = rhs - lhs and verdict ok."""
    header, rows = _read_csv(path)
    if returncode != 0 or header != VERIFY_HEADER:
        return len(layout), len(layout)
    pos, good = 0, 0
    for family, task_id, k in layout:
        block = rows[pos:pos + k + 1]
        pos += k + 1
        if len(block) != k + 1:
            continue
        ok = True
        for point, row in zip(list(range(k)) + [-1], block):
            vals = _finite(*row[3:6]) if len(row) == len(VERIFY_HEADER) else None
            if (vals is None or row[0] != family or row[1] != task_id
                    or row[2] != str(point) or row[6] != "ok"
                    or vals[2] != vals[1] - vals[0]):
                ok = False
                break
        good += ok
    extra = 1 if pos != len(rows) else 0
    return len(layout) + extra, len(layout) + extra - good


def check_train(scorer_path: Path, epochs: int, returncode: int) -> tuple[int, int]:
    """One train run: `epochs` finite trajectory rows, final target loss at
    most TRAIN_TARGET_MAX, and a scorer that round-trips through JSON."""
    from deferkit.models import scorer_from_json, scorer_to_json
    header, rows = _read_csv(scorer_path.with_suffix(".trajectory.csv"))
    if returncode != 0 or header != TRAJECTORY_HEADER or len(rows) != epochs:
        return 1, 1
    for e, row in enumerate(rows):
        if len(row) != 3 or row[0] != str(e) or _finite(*row[1:]) is None:
            return 1, 1
    if float(rows[-1][2]) > TRAIN_TARGET_MAX:
        return 1, 1
    try:
        text = scorer_path.read_text().strip()
        scorer = scorer_from_json(text)
    except (OSError, ValueError, KeyError):
        return 1, 1
    if scorer_to_json(scorer) != text or not all(
            math.isfinite(v) for p in scorer.params() for v in p.ravel()):
        return 1, 1
    return 1, 0


def sweep_accuracy(path: Path) -> float:
    _, rows = _read_csv(path)
    return sum(float(r[6]) for r in rows) / len(rows)


def verify_accuracy(path: Path) -> float:
    """One minus the mean excess deferral regret over reports (the lhs of
    each report's aggregate row)."""
    _, rows = _read_csv(path)
    lhs = [float(r[3]) for r in rows if r[2] == "-1"]
    return 1.0 - sum(lhs) / len(lhs)


def train_accuracy(scorer_path: Path) -> float:
    _, rows = _read_csv(scorer_path.with_suffix(".trajectory.csv"))
    return 1.0 - float(rows[-1][2])
