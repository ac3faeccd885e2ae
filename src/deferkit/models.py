"""Seedable linear / one-hidden-layer scorers and a deterministic trainer.

Training is a pure function of (initial scorer, dataset, config): two runs
with the same seed produce bit-identical parameters and trajectories.

Scorers compute their outputs class-major, ``W @ x.T + b[:, None]``, and
return the ``(m, width)`` transposed view: the bias add is one call per
class, and the class-major loss kernels read the scores without a copy. The
values are the bits of ``x @ W.T + b``.

Parameters with a leading model axis make a stack of S scorers, which
scores ``(S, m, d)`` rows, one batch per model, as ``(m, S, width)``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from . import losses
from .losses import LossSelector, ProblemShape
from .rng import substream

__all__ = [
    "LinearScorer",
    "MlpScorer",
    "TrainConfig",
    "LabeledDataset",
    "TrainingDiverged",
    "init_linear",
    "init_mlp",
    "loss_and_grad",
    "train",
    "system_accuracy",
    "scorer_to_json",
    "scorer_from_json",
]

SCHEMA_VERSION = 1


class TrainingDiverged(RuntimeError):
    """Raised when a non-finite loss appears during training."""

    def __init__(self, epoch: int):
        super().__init__(f"non-finite loss at epoch {epoch}")
        self.epoch = epoch


@dataclass
class LinearScorer:
    weights: np.ndarray  # ([S,] output_width, input_dim)
    bias: np.ndarray     # ([S,] output_width)
    seed: int = 0

    def scores(self, features: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(features, dtype=float))
        if x.shape[-1] != self.weights.shape[-1]:
            raise ValueError(f"input dim {x.shape[-1]} != {self.weights.shape[-1]}")
        return _rows_first(self.weights @ x.swapaxes(-1, -2) + self.bias[..., None])

    def params(self) -> list[np.ndarray]:
        return [self.weights, self.bias]


@dataclass
class MlpScorer:
    w1: np.ndarray  # ([S,] hidden_dim, input_dim)
    b1: np.ndarray
    w2: np.ndarray  # ([S,] output_width, hidden_dim)
    b2: np.ndarray
    seed: int = 0

    def scores(self, features: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(features, dtype=float))
        if x.shape[-1] != self.w1.shape[-1]:
            raise ValueError(f"input dim {x.shape[-1]} != {self.w1.shape[-1]}")
        hidden = np.maximum(0.0, x @ self.w1.swapaxes(-1, -2) + self.b1[..., None, :])
        return _rows_first(self.w2 @ hidden.swapaxes(-1, -2) + self.b2[..., None])

    def params(self) -> list[np.ndarray]:
        return [self.w1, self.b1, self.w2, self.b2]


Scorer = LinearScorer | MlpScorer


def _rows_first(out: np.ndarray) -> np.ndarray:
    """A class-major ``([S,] width, m)`` output as its ``(m, [S,] width)`` view."""
    return out.transpose(-1, *range(out.ndim - 1))


def init_linear(input_dim: int, output_width: int, seed: int) -> LinearScorer:
    """Uniform(-1/sqrt(d), 1/sqrt(d)) weights, zero biases."""
    rng = substream(seed, "init-linear")
    lim = 1.0 / np.sqrt(input_dim)
    w = rng.uniform(-lim, lim, size=(output_width, input_dim))
    return LinearScorer(w, np.zeros(output_width), seed)


def init_mlp(input_dim: int, hidden_dim: int, output_width: int, seed: int) -> MlpScorer:
    if hidden_dim < 1:
        raise ValueError("hidden_dim must be >= 1")
    rng = substream(seed, "init-mlp")
    lim1 = 1.0 / np.sqrt(input_dim)
    lim2 = 1.0 / np.sqrt(hidden_dim)
    w1 = rng.uniform(-lim1, lim1, size=(hidden_dim, input_dim))
    w2 = rng.uniform(-lim2, lim2, size=(output_width, hidden_dim))
    return MlpScorer(w1, np.zeros(hidden_dim), w2, np.zeros(output_width), seed)


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.5
    epochs: int = 500
    batch_size: int | str = "full"
    seed: int = 0
    optimizer: str = "gd"          # "gd" or "momentum"
    momentum: float = 0.9
    standardize: bool = True

    def __post_init__(self) -> None:
        for name in ("learning_rate", "momentum"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0):   # NaN fails too
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.optimizer not in ("gd", "momentum"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.batch_size != "full" and int(self.batch_size) < 1:
            raise ValueError("batch_size must be positive or 'full'")


@dataclass
class LabeledDataset:
    """Features, labels in [n), and realized per-expert deferral costs."""

    features: np.ndarray   # (m, input_dim)
    labels: np.ndarray     # (m,) int, single-stage only
    costs: np.ndarray      # (m, n_e) in [0, 1]
    shape: ProblemShape
    stage: str = "single"  # "single" or "two"

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=float)
        self.labels = losses.as_labels(self.labels)
        self.costs = np.asarray(self.costs, dtype=float)
        m = len(self.features) if self.features.ndim == 2 else None
        if m is None or self.costs.shape != (m, self.shape.n_e) or self.labels.shape != (m,):
            raise ValueError(f"need features (m, d), labels (m,) and costs (m, {self.shape.n_e}); "
                             f"got {self.features.shape}, {self.labels.shape} and {self.costs.shape}")
        if not np.isfinite(self.features).all():
            raise ValueError("features must be finite")
        # written so that NaN fails: every comparison with NaN is false
        if not ((self.costs >= 0) & (self.costs <= 1)).all():
            raise ValueError("costs must lie in [0, 1]")
        if not ((self.labels >= 0) & (self.labels < self.shape.n)).all():
            raise ValueError(f"labels must lie in [0, {self.shape.n})")
        if self.stage not in ("single", "two"):
            raise ValueError(f"unknown stage {self.stage!r}")

    def __len__(self) -> int:
        return len(self.features)


def loss_and_grad(selector: LossSelector, scores, y: np.ndarray, c: np.ndarray,
                  shp: ProblemShape, psi=None):
    """Per-row surrogate losses and their score gradients, from the kernel
    that the selector's row of the loss table names. A model stack passes
    ``psi``, its models' specs stacked by ``PsiSpec.stack``, in place of the
    selector's."""
    if selector.kernel is None:
        raise ValueError(f"{selector.name} is a target loss: it has no gradient to train on")
    kernel, spec = getattr(losses, selector.kernel), selector.phi or psi or selector.psi
    return kernel(scores, y, c, shp, spec) if selector.stage == "single" else kernel(scores, c, spec)


def _deferral_losses(scores: np.ndarray, dataset: LabeledDataset) -> np.ndarray:
    if dataset.stage == "single":
        return losses.deferral_loss_batch(scores, dataset.labels, dataset.costs, dataset.shape)
    return losses.two_stage_deferral_loss_batch(scores, dataset.costs)


def realized_deferral_loss(scorer: Scorer, dataset: LabeledDataset) -> np.ndarray:
    return _deferral_losses(scorer.scores(dataset.features), dataset)


def system_accuracy(scorer: Scorer, dataset: LabeledDataset) -> float:
    """Mean of one minus the realized deferral loss."""
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    return float(1.0 - realized_deferral_loss(scorer, dataset).mean())


@dataclass
class Standardizer:
    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, features: np.ndarray) -> "Standardizer":
        mean = features.mean(axis=0)
        std = features.std(axis=0)
        std = np.where(std < 1e-12, 1.0, std)
        return cls(mean, std)

    def apply(self, features: np.ndarray) -> np.ndarray:
        return (np.asarray(features, dtype=float) - self.mean) / self.std


def _backprop(scorer: Scorer, x: np.ndarray, gout: np.ndarray) -> list[np.ndarray]:
    """Mean-over-batch parameter gradients given dL/dscores: ``(m, d)`` rows
    and an ``(m, width)`` gradient, or for a stack ``(S, m, d)`` rows and an
    ``(m, S, width)`` gradient."""
    m = x.shape[-2]
    gt = gout.transpose(*range(1, gout.ndim), 0)     # ([S,] width, m)
    if isinstance(scorer, LinearScorer):
        return [gt @ x / m, gout.mean(axis=0)]
    hidden_pre = x @ scorer.w1.swapaxes(-1, -2) + scorer.b1[..., None, :]
    hidden = np.maximum(0.0, hidden_pre)
    gw2 = gt @ hidden / m
    gb2 = gout.mean(axis=0)
    ghid = (gt.swapaxes(-1, -2) @ scorer.w2) * (hidden_pre > 0)
    return [ghid.swapaxes(-1, -2) @ x / m, ghid.mean(axis=-2), gw2, gb2]


def train(scorer: Scorer | list[Scorer], dataset: LabeledDataset,
          selector: LossSelector | list[LossSelector], config: TrainConfig | list[TrainConfig]):
    """Gradient-descent training.

    Returns the trained scorer and a (epochs, 2) trajectory of
    (mean surrogate loss, mean deferral loss), both evaluated on the full
    training set after each epoch's update. When one batch holds every row,
    an epoch makes one loss+grad call: its evaluation feeds the next step.

    A stack of S models passes the three as sequences, one entry per model,
    and gets a list of scorers and an (epochs, S, 2) trajectory; model s is,
    bit for bit, the model trained alone. A minibatch step gathers the
    stack's batches with one (S, B) index and makes one forward pass, loss
    kernel call, backward pass and update. Full-set evaluations (and the
    full-batch steps that reuse them) run per model, to hold one model's
    full-set temporaries at a time. A non-finite loss in any model stops the
    stack with TrainingDiverged.
    """
    stacked = isinstance(scorer, (list, tuple))
    scorers, selectors, configs = (list(a) if stacked else [a] for a in (scorer, selector, config))
    if not 0 < len(scorers) == len(selectors) == len(configs):
        raise ValueError("a stack needs one scorer, selector and config per model")
    selector, config = selectors[0], configs[0]
    if (len({type(s) for s in scorers}) > 1
            or any((s.kernel, s.phi) != (selector.kernel, selector.phi) for s in selectors)
            or any(replace(c, seed=config.seed) != config for c in configs)):
        raise ValueError("a stack needs one scorer kind, loss kernel, phi and config (but for "
                         "the seed) for all its models")
    if selector.stage != dataset.stage:
        raise ValueError(f"loss stage {selector.stage!r} != dataset stage {dataset.stage!r}")
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    model = type(scorers[0])(*(np.stack(p) for p in zip(*(s.params() for s in scorers))))
    if not all(np.isfinite(p).all() for p in model.params()):
        raise ValueError("scorer parameters must be finite")
    psi = selector.psi and losses.PsiSpec.stack([s.psi for s in selectors])
    x = dataset.features
    std = Standardizer.fit(x) if config.standardize else None
    if std is not None:
        x = std.apply(x)
    m = len(dataset)
    batch = m if config.batch_size == "full" else min(int(config.batch_size), m)
    shuffles = [substream(c.seed, "train-shuffle") for c in configs]
    velocity = [np.zeros_like(p) for p in model.params()]
    # each model as a scorer and velocity that view its slice of the stack
    views = [(type(model)(*(p[s] for p in model.params()), sc.seed), [v[s] for v in velocity])
             for s, sc in enumerate(scorers)]
    trajectory = np.empty((config.epochs, len(scorers), 2))

    if batch == m:
        evals = [loss_and_grad(sel, one.scores(x), dataset.labels, dataset.costs, dataset.shape)
                 for sel, (one, _) in zip(selectors, views)]
    for epoch in range(config.epochs):
        if batch < m:
            order = np.stack([g.permutation(m) for g in shuffles])
        for start in range(0, m, batch):
            if batch == m:
                # each model steps at the parameters that its last evaluation
                # scored on every row, so it reuses that loss and gradient
                steps = [(one, x, *ev, vel) for (one, vel), ev in zip(views, evals)]
            else:
                idx = order[:, start:start + batch]
                xb = x.take(idx, axis=0)
                loss_vals, gout = loss_and_grad(
                    selector, model.scores(xb), dataset.labels.take(idx.T),
                    dataset.costs.take(idx.T, axis=0), dataset.shape, psi)
                steps = [(model, xb, loss_vals, gout, velocity)]
            for one, xb, loss_vals, gout, vel in steps:
                if not np.isfinite(loss_vals).all():
                    raise TrainingDiverged(epoch)
                for p, g, v in zip(one.params(), _backprop(one, xb, gout), vel):
                    if config.optimizer == "momentum":
                        v *= config.momentum
                        v += g
                        p -= config.learning_rate * v
                    else:
                        p -= config.learning_rate * g

        evals = []
        for s, (sel, (one, _)) in enumerate(zip(selectors, views)):
            full_scores = one.scores(x)
            sur, gout = loss_and_grad(sel, full_scores, dataset.labels, dataset.costs,
                                      dataset.shape)
            tgt = _deferral_losses(full_scores, dataset)
            if not np.all(np.isfinite(sur)):
                raise TrainingDiverged(epoch)
            trajectory[epoch, s] = (sur.mean(), tgt.mean())
            if batch == m:
                evals.append((sur, gout))

    fitted = [one if std is None else fold_standardizer(one, std) for one, _ in views]
    return (fitted, trajectory) if stacked else (fitted[0], trajectory[:, 0])


def replace_rows(dataset: LabeledDataset, idx: np.ndarray) -> LabeledDataset:
    return LabeledDataset(dataset.features[idx], dataset.labels[idx],
                          dataset.costs[idx], dataset.shape, dataset.stage)


def fold_standardizer(model: Scorer, std: Standardizer) -> Scorer:
    """Rewrite the first affine layer so the scorer acts on raw features."""
    w, b, *rest = model.params()
    w = w / std.std
    return type(model)(w, b - w @ std.mean, *(p.copy() for p in rest), model.seed)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def scorer_to_json(scorer: Scorer) -> str:
    if isinstance(scorer, LinearScorer):
        doc = {
            "version": SCHEMA_VERSION,
            "kind": "linear",
            "dims": list(scorer.weights.shape),
            "weights": scorer.weights.ravel().tolist(),
            "bias": scorer.bias.tolist(),
            "seed": scorer.seed,
        }
    else:
        doc = {
            "version": SCHEMA_VERSION,
            "kind": "mlp",
            "dims": [list(scorer.w1.shape), list(scorer.w2.shape)],
            "weights": [scorer.w1.ravel().tolist(), scorer.w2.ravel().tolist()],
            "bias": [scorer.b1.tolist(), scorer.b2.tolist()],
            "seed": scorer.seed,
        }
    return json.dumps(doc, sort_keys=True)


def scorer_from_json(text: str) -> Scorer:
    doc = json.loads(text)
    if doc.get("version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported scorer schema version {doc.get('version')}")
    if doc["kind"] == "linear":
        dims = tuple(doc["dims"])
        return LinearScorer(np.array(doc["weights"]).reshape(dims),
                            np.array(doc["bias"]), doc["seed"])
    if doc["kind"] == "mlp":
        d1, d2 = (tuple(d) for d in doc["dims"])
        return MlpScorer(np.array(doc["weights"][0]).reshape(d1), np.array(doc["bias"][0]),
                         np.array(doc["weights"][1]).reshape(d2), np.array(doc["bias"][1]),
                         doc["seed"])
    raise ValueError(f"unknown scorer kind {doc['kind']!r}")
