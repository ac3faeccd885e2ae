#!/usr/bin/env python3
"""Writes bench/reference.json from the checked-out code.

    python3 bench/make_reference.py

Two things are recorded. ``sweep_floors``: per sweep method, the lowest test
accuracy over seeds 0..FLOOR_SEEDS-1, for the full and the smoke config; the
sweep check fails a row that falls more than the system_accuracy bound
below it. ``sha256``: the main-output digest of each workload at the
default and the confirmation seed, compared for information only. Run it
only to re-baseline, and say so in CHANGES.md.
"""

from __future__ import annotations

import csv
import json
import sys

import run

FLOOR_SEEDS = 40


def sweep_floors(smoke: bool) -> dict:
    from deferkit import cli
    floors = {}
    for seed in range(FLOOR_SEEDS):
        wl = run.Workload("sweep-minibatch", seed, smoke, None, 0.0)
        if cli.main(wl.argv[3:]) != 0:
            raise RuntimeError(f"sweep failed at seed {seed}")
        with open(wl.out, newline="") as fh:
            for row in csv.DictReader(fh):
                acc = float(row["test_accuracy"])
                floors[row["method"]] = min(acc, floors.get(row["method"], acc))
    return floors


def digest(name: str, seed: int) -> str:
    wl = run.Workload(name, seed, False, None, 0.0)
    run._setup(wl, 0)
    _, _, _, code = run.run_child(wl.argv, wl.dir / "command.log")
    if code != 0:
        raise RuntimeError(f"{name} failed at seed {seed}")
    return wl.digest()


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    run.WORK.mkdir(exist_ok=True)
    ref = {"sweep_floors": {"full": sweep_floors(False), "smoke": sweep_floors(True)},
           "sha256": {name: {str(s): digest(name, s)
                             for s in (run.DEFAULT_SEED, run.CONFIRM_SEED)}
                      for name in run.WORKLOADS}}
    (run.BENCH_DIR / "reference.json").write_text(json.dumps(ref, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
