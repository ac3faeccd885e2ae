"""Seedable linear / one-hidden-layer scorers and a deterministic trainer.

Training is a pure function of (initial scorer, dataset, config): two runs
with the same seed produce bit-identical parameters and trajectories.

Scorers compute their output layer class-major, ``W @ x.T + b[:, None]``,
and return the ``(m, width)`` transposed view: the bias add is one call per
class, and the class-major loss kernels read the scores without a copy. The
values are the bits of ``x @ W.T + b``.

Parameters with a leading model axis make a stack of S scorers, which
scores ``(S, m, d)`` rows, one batch per model, as ``(m, S, width)``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from . import losses
from .losses import LossSelector, ProblemShape
from .rng import substream

__all__ = [
    "Scorer",
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
class Scorer:
    """Affine layers with a ReLU between them. ``layers`` holds one
    ``(W, b)`` pair per layer, ``W`` of shape ``([S,] out, in)``: one pair is
    a linear scorer, two are a one-hidden-layer MLP. Hidden layers run
    row-major, the output layer class-major."""

    layers: list[tuple[np.ndarray, np.ndarray]]
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.layers:
            raise ValueError("layers: a scorer needs at least one (W, b) layer")
        width = np.shape(self.layers[0][0])[-1:]
        for k, (w, b) in enumerate(self.layers):
            # W is ([S,] out, in), in the width of the layer before; b is ([S,] out)
            if np.ndim(w) < 2 or np.shape(w)[-1:] != width or np.shape(b) != np.shape(w)[:-1]:
                raise ValueError(f"layers: layer {k} has W {np.shape(w)} and b {np.shape(b)}")
            width = np.shape(w)[-2:-1]
        for p in self.params():
            losses.check_array(p, "layers: a scorer's parameters")

    def scores(self, features: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(features, dtype=float))
        if x.shape[-1] != self.layers[0][0].shape[-1]:
            raise ValueError(f"input dim {x.shape[-1]} != {self.layers[0][0].shape[-1]}")
        for w, b in self.layers[:-1]:
            x = np.maximum(0.0, x @ w.swapaxes(-1, -2) + b[..., None, :])
        w, b = self.layers[-1]
        return _rows_first(w @ x.swapaxes(-1, -2) + b[..., None])

    def params(self) -> list[np.ndarray]:
        return [p for layer in self.layers for p in layer]


def _rows_first(out: np.ndarray) -> np.ndarray:
    """A class-major ``([S,] width, m)`` output as its ``(m, [S,] width)`` view."""
    return out.transpose(-1, *range(out.ndim - 1))


def _init(dims: dict[str, int], seed: int, tag: str) -> Scorer:
    """Uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) weights drawn layer by layer
    from one substream, zero biases; ``dims`` names each layer width."""
    for name, d in dims.items():
        losses.check_int(d, name, 1)
    widths, rng = list(dims.values()), substream(seed, tag)
    return Scorer([(rng.uniform(-1.0 / np.sqrt(d_in), 1.0 / np.sqrt(d_in), size=(d_out, d_in)),
                    np.zeros(d_out)) for d_in, d_out in zip(widths, widths[1:])], seed)


def init_linear(input_dim: int, output_width: int, seed: int) -> Scorer:
    return _init({"input_dim": input_dim, "output_width": output_width}, seed, "init-linear")


def init_mlp(input_dim: int, hidden_dim: int, output_width: int, seed: int) -> Scorer:
    return _init({"input_dim": input_dim, "hidden_dim": hidden_dim, "output_width": output_width},
                 seed, "init-mlp")


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.5
    epochs: int = 500
    batch_size: int | str = "full"
    seed: int = 0
    optimizer: str = "gd"          # one of optimizers
    momentum: float = 0.9
    standardize: bool = True
    optimizers: ClassVar[tuple[str, ...]] = ("gd", "momentum")

    def __post_init__(self) -> None:
        for name in ("learning_rate", "momentum"):
            losses.check_number(getattr(self, name), name, 0.0)
        for name in ("epochs", "batch_size"):
            if (name, getattr(self, name)) != ("batch_size", "full"):
                losses.check_int(getattr(self, name), name, 1)
        if self.optimizer not in self.optimizers:
            raise ValueError(f"unknown optimizer {self.optimizer!r}")


@dataclass
class LabeledDataset:
    """Features, labels in [n), and realized per-expert deferral costs."""

    features: np.ndarray   # (m, input_dim)
    labels: np.ndarray     # (m,) int, single-stage only
    costs: np.ndarray      # (m, n_e) in [0, 1]
    shape: ProblemShape
    stage: str = "single"  # "single" or "two"

    def __post_init__(self) -> None:
        self.features = losses.check_array(self.features, "features")
        self.labels = losses.as_labels(self.labels)
        self.costs = losses.check_array(self.costs, "costs", 0.0, 1.0)
        m = len(self.features) if self.features.ndim == 2 else None
        if m is None or self.costs.shape != (m, self.shape.n_e) or self.labels.shape != (m,):
            raise ValueError(f"need features (m, d), labels (m,) and costs (m, {self.shape.n_e}); "
                             f"got {self.features.shape}, {self.labels.shape} and {self.costs.shape}")
        losses.check_array(self.labels, "labels", 0, self.shape.n - 1)
        if self.stage not in ("single", "two"):
            raise ValueError(f"unknown stage {self.stage!r}")

    def __len__(self) -> int:
        return len(self.features)


def loss_and_grad(selector: LossSelector, scores, y: np.ndarray, c: np.ndarray,
                  shp: ProblemShape, psi=None):
    """Per-row surrogate losses and their score gradients, from the kernel
    that the selector's row of the loss table names. A model stack passes
    ``psi``, ``LossSelector.stack`` of its models' selectors, in place of the
    selector's own spec."""
    if selector.kernel is None:
        raise ValueError(f"{selector.name} is a target loss: it has no gradient to train on")
    kernel, spec = getattr(losses, selector.kernel), psi or LossSelector.stack([selector])
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
    inputs, active = [x], []       # each layer's input rows; each ReLU's open units
    for w, b in scorer.layers[:-1]:
        pre = inputs[-1] @ w.swapaxes(-1, -2) + b[..., None, :]
        inputs.append(np.maximum(0.0, pre))
        active.append(pre > 0)
    gt = gout.transpose(*range(1, gout.ndim), 0)     # ([S,] width, m)
    grads = [gt @ inputs[-1] / m, gout.mean(axis=0)]
    for (w, _), x_in, on in zip(scorer.layers[:0:-1], inputs[-2::-1], active[::-1]):
        g = (gt.swapaxes(-1, -2) @ w) * on           # ([S,] m, hidden)
        gt = g.swapaxes(-1, -2)
        grads[:0] = [gt @ x_in / m, g.mean(axis=-2)]
    return grads


def train(scorer: Scorer | list[Scorer], dataset: LabeledDataset,
          selector: LossSelector | list[LossSelector], config: TrainConfig | list[TrainConfig],
          *, trajectory: bool = True):
    """Gradient-descent training.

    Returns the trained scorer and a (epochs, 2) trajectory of
    (mean surrogate loss, mean deferral loss), both evaluated on the full
    training set after each epoch's update. When one batch holds every row,
    an epoch makes one loss+grad call: its evaluation feeds the next step.
    ``trajectory=False`` keeps only the last row, so a minibatch run evaluates just once.

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
    if (len({tuple(p.shape for p in s.params()) for s in scorers}) > 1
            or any((s.kernel, s.phi) != (selector.kernel, selector.phi) for s in selectors)
            or any(replace(c, seed=config.seed) != config for c in configs)):
        raise ValueError("a stack needs one scorer shape, loss kernel, phi and config (but for "
                         "the seed) for all its models")
    if selector.stage != dataset.stage:
        raise ValueError(f"loss stage {selector.stage!r} != dataset stage {dataset.stage!r}")
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    model = Scorer([tuple(np.stack(p) for p in zip(*layer))
                    for layer in zip(*(s.layers for s in scorers))])
    spec = LossSelector.stack(selectors)
    x = dataset.features
    std = Standardizer.fit(x) if config.standardize else None
    if std is not None:
        x = std.apply(x)
    m = len(dataset)
    batch = m if config.batch_size == "full" else min(int(config.batch_size), m)
    shuffles = [substream(c.seed, "train-shuffle") for c in configs]
    velocity = [np.zeros_like(p) for p in model.params()]
    # each model as a scorer and velocity that view its slice of the stack
    views = [(Scorer([(w[s], b[s]) for w, b in model.layers], sc.seed), [v[s] for v in velocity])
             for s, sc in enumerate(scorers)]
    rows = np.empty((config.epochs, len(scorers), 2))

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
                    dataset.costs.take(idx.T, axis=0), dataset.shape, spec)
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

        if batch < m and not trajectory and epoch < config.epochs - 1:
            continue
        evals = []
        for s, (sel, (one, _)) in enumerate(zip(selectors, views)):
            full_scores = one.scores(x)
            sur, gout = loss_and_grad(sel, full_scores, dataset.labels, dataset.costs,
                                      dataset.shape)
            tgt = _deferral_losses(full_scores, dataset)
            if not np.all(np.isfinite(sur)):
                raise TrainingDiverged(epoch)
            rows[epoch, s] = (sur.mean(), tgt.mean())
            if batch == m:
                evals.append((sur, gout))

    fitted = [one if std is None else fold_standardizer(one, std) for one, _ in views]
    rows = rows if trajectory else rows[-1:]
    return (fitted, rows) if stacked else (fitted[0], rows[:, 0])


def replace_rows(dataset: LabeledDataset, idx: np.ndarray | slice) -> LabeledDataset:
    return LabeledDataset(dataset.features[idx], dataset.labels[idx],
                          dataset.costs[idx], dataset.shape, dataset.stage)


def fold_standardizer(model: Scorer, std: Standardizer) -> Scorer:
    """Rewrite the first affine layer so the scorer acts on raw features."""
    (w, b), *rest = model.layers
    w = w / std.std
    return Scorer([(w, b - w @ std.mean), *rest], model.seed)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def scorer_to_json(scorer: Scorer) -> str:
    """The ``linear`` kind writes its one layer's fields unnested, the
    ``mlp`` kind a list of two per field."""
    kind = {1: "linear", 2: "mlp"}.get(len(scorer.layers))
    if kind is None:
        raise ValueError(f"a scorer JSON holds 1 or 2 layers, not {len(scorer.layers)}")
    if not all(np.isfinite(p).all() for p in scorer.params()):
        raise ValueError("a scorer JSON holds finite parameters only")
    fields = {"dims": [list(w.shape) for w, _ in scorer.layers],
              "weights": [w.ravel().tolist() for w, _ in scorer.layers],
              "bias": [b.tolist() for _, b in scorer.layers]}
    doc = {name: value[0] if kind == "linear" else value for name, value in fields.items()}
    return json.dumps(dict(doc, version=SCHEMA_VERSION, kind=kind, seed=scorer.seed),
                      sort_keys=True)


def scorer_from_json(text: str) -> Scorer:
    doc = json.loads(text)
    if doc.get("version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported scorer schema version {doc.get('version')}")
    missing = [name for name in ("kind", "dims", "weights", "bias", "seed") if name not in doc]
    if missing:
        raise ValueError(f"a scorer JSON needs the fields {missing}")
    if doc["kind"] not in ("linear", "mlp"):
        raise ValueError(f"unknown scorer kind {doc['kind']!r}")
    fields = [[doc[name]] if doc["kind"] == "linear" else doc[name]
              for name in ("dims", "weights", "bias")]
    if doc["kind"] == "mlp" and any(len(f) != 2 for f in fields):
        raise ValueError("an mlp scorer holds exactly two layers")
    return Scorer([(np.array(w).reshape(tuple(d)), np.array(b)) for d, w, b in zip(*fields)],
                  doc["seed"])
