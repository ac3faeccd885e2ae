"""Synthetic data generators.

Gaussian-mixture feature data with costs produced by a hidden linear scorer,
so that the generated problem is realizable: the hidden scorer attains zero
deferral loss by construction. Also a random finite-support task sampler
with optional structural constraints, used by the verification suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import rng
from .losses import ProblemShape, check_int, expert_brackets
from .models import LabeledDataset, Scorer
from .oracles import DiscreteTask, minimal_margin

__all__ = [
    "MogConfig",
    "ExpertRangeSpec",
    "gen_realizable_mog",
    "gen_class_range_experts",
    "gen_realizable_two_stage",
    "gen_random_discrete_task",
]

_MAX_RESAMPLES = 10_000


@dataclass(frozen=True)
class MogConfig:
    """Gaussian-mixture feature model: unit-covariance components with means
    drawn from N(0, mean_scale^2 I)."""

    dim: int = 16
    components: int = 8
    n: int = 4
    n_e: int = 2
    mean_scale: ClassVar[float] = 2.0

    def __post_init__(self) -> None:
        check_int(self.dim, "dim", 1)
        check_int(self.components, "components", 1)
        ProblemShape(self.n, self.n_e)  # checks n >= 2 and n_e >= 1

    @property
    def shape(self) -> ProblemShape:
        return ProblemShape(self.n, self.n_e)


def _sample_features(config: MogConfig, num_samples: int, seed: int,
                     tag: str) -> tuple[np.ndarray, np.ndarray]:
    """Mixture features and the component index of each row."""
    g_means = rng.substream(seed, f"{tag}-means", 0)
    means = config.mean_scale * g_means.standard_normal((config.components, config.dim))
    g = rng.substream(seed, f"{tag}-sample", 0)
    comps = g.integers(0, config.components, size=num_samples)
    features = g.standard_normal((num_samples, config.dim))
    return np.add(features, means[comps], out=features), comps


def _draw_full_coverage_scorer(config: MogConfig, features: np.ndarray,
                               width: int, seed: int, tag: str) -> tuple[Scorer, np.ndarray]:
    """Random linear scorer redrawn until every output wins at least once on
    the given sample, so no action is vacuous."""
    for attempt in range(100):
        g = rng.substream(seed, f"{tag}-scorer", attempt)
        scorer = Scorer([(g.standard_normal((width, config.dim)), np.zeros(width))], seed)
        preds = np.argmax(scorer.scores(features), axis=1)
        if np.bincount(preds, minlength=width).all():
            return scorer, preds
    raise RuntimeError("no scorer draw covered every output in 100 attempts")


def _gen_realizable(config: MogConfig, num_samples: int, seed: int, tag: str,
                    stage: str) -> tuple[LabeledDataset, Scorer]:
    """Realizable data: the action a hidden linear scorer picks is free and every
    other one costs 1, so the scorer has zero deferral loss. A picked label is
    the true label; other rows draw theirs uniformly."""
    width = config.shape.width(stage)
    check_int(num_samples, "num_samples", width)   # one row per output
    features, _ = _sample_features(config, num_samples, seed, tag)
    scorer, preds = _draw_full_coverage_scorer(config, features, width, seed, tag)
    g = rng.substream(seed, f"{tag}-labels", 0)
    offset = config.n if stage == "single" else 0   # score index of expert 0
    labels = np.where(preds < offset, preds, g.integers(0, config.n, size=num_samples))
    costs = np.ones((num_samples, config.n_e))
    deferred = preds >= offset
    costs[deferred, preds[deferred] - offset] = 0.0
    dataset = LabeledDataset(features=features, labels=labels, costs=costs,
                             shape=config.shape, stage=stage)
    return dataset, scorer


def gen_realizable_mog(config: MogConfig, num_samples: int,
                       seed: int) -> tuple[LabeledDataset, Scorer]:
    """Single-stage realizable data from a hidden predict-or-defer scorer."""
    return _gen_realizable(config, num_samples, seed, "mog", "single")


@dataclass(frozen=True)
class ExpertRangeSpec:
    """Per-expert competence ranges over the label set: each expert is correct
    on labels in [lo, hi) and guesses uniformly inside its own range elsewhere.
    A range is a pair of integers (not booleans) with 0 <= lo < hi; the
    generator checks hi <= n and one range per expert."""

    ranges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        try:
            ranges = tuple(map(tuple, self.ranges))
        except TypeError:
            raise ValueError(f"ranges: need a sequence of [lo, hi] pairs, "
                             f"got {self.ranges!r}") from None
        for r in ranges:
            if not (len(r) == 2
                    and all(isinstance(v, int) and not isinstance(v, bool) for v in r)
                    and 0 <= r[0] < r[1]):
                raise ValueError(f"ranges: bad range {r!r}: need integers 0 <= lo < hi")
        object.__setattr__(self, "ranges", ranges)


def gen_class_range_experts(config: MogConfig, spec: ExpertRangeSpec,
                            num_samples: int, seed: int) -> LabeledDataset:
    """Mixture features with labels tied to components; expert costs come
    from simulated range-limited predictions."""
    if len(spec.ranges) != config.n_e or any(hi > config.n for _, hi in spec.ranges):
        raise ValueError(f"ranges: need one range per expert (n_e = {config.n_e}), each with "
                         f"hi <= n = {config.n}; got {spec.ranges}")
    features, comps = _sample_features(config, num_samples, seed, "range")
    labels = comps % config.n
    g = rng.substream(seed, "range-experts", 0)
    costs = np.empty((num_samples, config.n_e))
    for j, (lo, hi) in enumerate(spec.ranges):
        guesses = g.integers(lo, hi, size=num_samples)
        preds = np.where((labels >= lo) & (labels < hi), labels, guesses)
        costs[:, j] = (preds != labels).astype(float)
    return LabeledDataset(features=features, labels=labels.astype(int),
                          costs=costs, shape=config.shape, stage="single")


def gen_realizable_two_stage(config: MogConfig, num_samples: int,
                             seed: int) -> tuple[LabeledDataset, Scorer]:
    """Two-stage realizable data from a hidden linear router over the experts."""
    return _gen_realizable(config, num_samples, seed, "two", "two")


def _premise_costs(g: np.random.Generator, rows: int, n_e: int) -> np.ndarray:
    """The first ``rows`` uniform cost rows of g whose leave-one-expert-out sums
    all reach n_e - 2, each within _MAX_RESAMPLES + 1 draws, drawn a block at a
    time (g serves nothing afterwards, so surplus draws change no result)."""
    kept, misses = [], 0
    while len(kept) < rows:
        block = g.uniform(0.0, 1.0, size=(rows, n_e))
        for row, ok in zip(block, (expert_brackets(block) >= 0).all(axis=-1)):
            misses = 0 if ok else misses + 1
            if misses > _MAX_RESAMPLES and len(kept) < rows:
                raise RuntimeError("cost resampling cap reached for premise constraint")
            if ok and len(kept) < rows:
                kept.append(row)
    return np.array(kept)


def gen_random_discrete_task(seed: int, index: int = 0, n_max: int = 4,
                             ne_max: int = 3, k_max: int = 6,
                             constraint: str = "none") -> DiscreteTask:
    """Random finite-support task.

    constraint:
      'none'             unconstrained draws
      'theorem7_premise' per-row cost resampling so every leave-one-out
                         cost sum reaches n_e - 2 (requires n_e >= 2)
      'positive_margin'  whole-task resampling until both the single-stage
                         and two-stage action margins are at least 1e-3
    """
    if constraint not in ("none", "theorem7_premise", "positive_margin"):
        raise ValueError(f"unknown constraint {constraint!r}")
    # margins and brackets over experts need at least two of them
    ne_min = 1 if constraint == "none" else 2
    for name, value, least in (("n_max", n_max, 2), ("ne_max", ne_max, ne_min), ("k_max", k_max, 2)):
        check_int(value, name, least)
    g = rng.substream(seed, f"task-{constraint}", index)
    for attempt in range(_MAX_RESAMPLES + 1):
        n = int(g.integers(2, n_max + 1))
        n_e = int(g.integers(ne_min, ne_max + 1))
        k = int(g.integers(2, k_max + 1))
        mu = g.dirichlet(np.ones(k))
        conditionals = g.dirichlet(np.ones(n), size=k)
        if constraint == "theorem7_premise":
            costs = _premise_costs(g, k * n, n_e).reshape(k, n, n_e)
        else:
            costs = g.uniform(0.0, 1.0, size=(k, n, n_e))
        task = DiscreteTask(mu=mu, conditionals=conditionals, costs=costs,
                            shape=ProblemShape(n, n_e))
        if constraint != "positive_margin":
            return task
        if (minimal_margin(task, "single").min() >= 1e-3
                and minimal_margin(task, "two").min() >= 1e-3):
            return task
    raise RuntimeError("task resampling cap reached for margin constraint")
