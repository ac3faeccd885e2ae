"""Target and surrogate losses for multiple-expert deferral.

:class:`LossSelector` is the one table of losses. It names each loss by the
name configs use, gives its stage and carries the Psi or Phi spec it takes.
Each surrogate has one batch kernel for its values, ``<loss>_batch``, and
one for its values and score gradients, ``<loss>_with_grad_batch``. Both
take their values from one terms function per loss, so they agree bit for
bit, and the value kernel skips the gradient work. Verma's baseline
has no value kernel of its own: its value is :func:`baseline_mao_batch` at
q = 0.

Batch kernels take ``(m, width)`` scores (a single score vector is one row)
with one label and one cost row per score row, and raise ``ValueError`` on
any other shape. A stack of S models passes ``(m, S, width)`` scores,
``(m, S)`` labels and ``(m, S, n_e)`` costs and gets ``(m, S)`` values;
slice s is, bit for bit, the kernel on model s alone. The softmax kernels
work class-major: they lay the scores out as ``(width, [S,] m)`` (free for
the transposed views that the scorers in :mod:`deferkit.models` return), so
each max, sum and per-class term is one contiguous call per class. numpy
sums a row of up to 7 values left to right, as these sums run, so values
keep the bits of row-wise kernels; from 8 values on it sums a row pairwise,
and the last bits can differ. Gradients come back ``(m, [S,] width)`` with
each model's rows C-contiguous. The scalar forms the package exports run the
batch kernel on one row. Argmax ties always break to the lowest index. All
operations are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import ClassVar

import numpy as np

__all__ = [
    "ProblemShape",
    "PsiSpec",
    "PhiKind",
    "PhiSpec",
    "LossSelector",
    "softmax",
    "deferral_loss",
    "two_stage_deferral_loss",
    "surrogate_single",
    "surrogate_mae",
    "two_stage_surrogate_phi",
    "two_stage_surrogate_psi",
]
@dataclass(frozen=True)
class ProblemShape:
    """Number of class labels and experts; the joint output width is n + n_e."""

    n: int
    n_e: int

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("need at least 2 class labels")
        if self.n_e < 1:
            raise ValueError("need at least 1 expert")

    @property
    def augmented_size(self) -> int:
        return self.n + self.n_e

    def width(self, stage: str) -> int:
        """Score width of a stage: n + n_e single-stage, n_e two-stage."""
        return self.augmented_size if stage == "single" else self.n_e


@dataclass(frozen=True)
class PsiSpec:
    """Selects the decreasing auxiliary function applied to softmax sums.

    q = 0 is the negative log; q in (0, 1] is (1 - u**q) / q. For q = 0 the
    argument is clamped to [clamp_epsilon, 1] to keep values finite.
    """

    q: float
    clamp_epsilon: ClassVar[float] = 1e-12

    def __post_init__(self) -> None:
        if not 0.0 <= self.q <= 1.0:
            raise ValueError(f"q must lie in [0, 1], got {self.q}")

    # np.minimum(np.maximum(...)) is np.clip (NaN included) without the
    # Python wrapper np.clip adds to every call
    def value(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        if self.q == 0.0:
            return -np.log(np.minimum(np.maximum(u, self.clamp_epsilon), 1.0))
        return (1.0 - np.minimum(np.maximum(u, 0.0), 1.0) ** self.q) / self.q

    def deriv(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        if self.q == 0.0:
            return -1.0 / np.minimum(np.maximum(u, self.clamp_epsilon), 1.0)
        if self.q == 1.0:
            return -np.ones_like(u)
        return -np.minimum(np.maximum(u, self.clamp_epsilon), 1.0) ** (self.q - 1.0)

    @staticmethod
    def stack(specs) -> "PsiSpec | _PsiColumn":
        """One spec for the models of a stack: the one they share, else a column."""
        if len(set(specs)) == 1:
            return specs[0]
        if not all(spec.q for spec in specs):
            raise ValueError("a model stack cannot mix q = 0 with q > 0")
        return _PsiColumn(specs)


class _PsiColumn:
    """The specs, with different q in (0, 1], of a model stack: q is an
    ``(S, 1)`` column over the model axis of the class-major terms. A scalar
    ``** 0.5`` is a square root, so models at q = 0.5 take ``np.sqrt``."""

    def __init__(self, specs):
        self.q = np.array([[spec.q] for spec in specs], dtype=float)
        self.roots = [s for s, spec in enumerate(specs) if spec.q == 0.5]

    def value(self, u: np.ndarray) -> np.ndarray:
        x = np.minimum(np.maximum(u, 0.0), 1.0)
        power = x ** self.q
        for s in self.roots:
            power[..., s, :] = np.sqrt(x[..., s, :])
        return (1.0 - power) / self.q

    def deriv(self, u: np.ndarray) -> np.ndarray:
        return -np.minimum(np.maximum(u, PsiSpec.clamp_epsilon), 1.0) ** (self.q - 1.0)


class PhiKind(str, Enum):
    LOGISTIC = "logistic"
    EXPONENTIAL = "exponential"
    HINGE = "hinge"


@dataclass(frozen=True)
class PhiSpec:
    """Margin loss for the two-expert deferral surrogate."""

    kind: PhiKind = PhiKind.LOGISTIC

    def __post_init__(self) -> None:
        try:
            object.__setattr__(self, "kind", PhiKind(self.kind))
        except ValueError:
            raise ValueError(f"phi must be one of {[k.value for k in PhiKind]}, "
                             f"got {self.kind!r}") from None

    def value(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        if self.kind is PhiKind.LOGISTIC:
            return np.logaddexp(0.0, -t)
        if self.kind is PhiKind.EXPONENTIAL:
            return np.exp(-t)
        return np.maximum(0.0, 1.0 - t)

    def deriv(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        if self.kind is PhiKind.LOGISTIC:
            return -1.0 / (1.0 + np.exp(t))
        if self.kind is PhiKind.EXPONENTIAL:
            return -np.exp(-t)
        return np.where(t < 1.0, -1.0, 0.0)


def as_scores(scores) -> np.ndarray:
    """Scores as a float array; a NaN or infinite score is an error."""
    s = np.asarray(scores, dtype=float)
    if not np.isfinite(s).all():
        raise ValueError("invalid scores")
    return s


def softmax(scores) -> np.ndarray:
    """Stable softmax over the last axis (max-shifted before exponentiation)."""
    s = as_scores(scores)
    e = np.exp(s - s.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _class_softmax(s: np.ndarray) -> np.ndarray:
    """The softmax of checked ``(m, [S,] width)`` scores as a ``(width, [S,] m)``
    array: column i is the softmax of row i."""
    st = np.ascontiguousarray(s.T)
    e = np.exp(st - st.max(axis=0))
    return e / e.sum(axis=0)


def _row_major(g: np.ndarray) -> np.ndarray:
    """A ``(width, [S,] m)`` gradient as ``(m, [S,] width)``, each model's
    ``(m, width)`` rows C-contiguous: the trainer sums them row by row in
    memory order, and a stack's matrix products see one model's layout."""
    rows = np.ascontiguousarray(g.transpose(*range(1, g.ndim), 0))    # ([S,] m, width)
    return rows if rows.ndim == 2 else rows.swapaxes(0, 1)


def _label_slots(y: np.ndarray) -> tuple:
    """Each row's label slot in class-major ``(width, [S,] m)`` arrays."""
    rows = np.arange(len(y))
    return (y, rows) if y.ndim == 1 else (y.T, np.arange(y.shape[1])[:, None], rows)


def _argmax(s: np.ndarray) -> np.ndarray:
    """The argmax over the last axis by a compare over the class-major rows
    ``s.T``; the strict compare breaks ties to the lowest index."""
    st = s.T
    best, pred = st[0], np.zeros(st.shape[1:], dtype=int)
    for k in range(1, len(st)):
        pred = np.where(st[k] > best, k, pred)
        best = np.maximum(best, st[k])
    return pred.T


def as_labels(y) -> np.ndarray:
    """Labels as an int array; a float, bool or str label is an error, never
    truncated to a class."""
    y = np.asarray(y)
    if y.dtype.kind not in "iu" and y.size:   # an empty list is no labels
        raise ValueError(f"labels must be integers, got dtype {y.dtype}")
    return y.astype(int, copy=False)


def _labeled_inputs(scores, y, costs, shape: ProblemShape):
    """A single-stage batch, checked: finite ``(m, [S,] n + n_e)`` scores,
    integer labels ``(m, [S])`` in [0, n) and ``(m, [S,] n_e)`` costs."""
    s = np.atleast_2d(as_scores(scores))
    y = np.atleast_1d(as_labels(y))
    c = np.atleast_2d(np.asarray(costs, dtype=float))
    rows = s.shape[:-1]
    if (s.ndim > 3 or s.shape[-1] != shape.augmented_size or y.shape != rows
            or c.shape != (*rows, shape.n_e)):
        raise ValueError(f"need scores (m, [S,] {shape.augmented_size}), labels (m, [S]) and "
                         f"costs (m, [S,] {shape.n_e}); got {s.shape}, {y.shape} and {c.shape}")
    if ((y < 0) | (y >= shape.n)).any():
        raise ValueError(f"label out of range [0, {shape.n})")
    return s, y, c


def _two_stage_inputs(scores, costs):
    """A two-stage batch, checked: finite ``(m, [S,] n_e)`` scores and costs
    of the same shape."""
    s = np.atleast_2d(as_scores(scores))
    c = np.atleast_2d(np.asarray(costs, dtype=float))
    if s.ndim > 3 or c.shape != s.shape:
        raise ValueError(f"scores {s.shape} and costs {c.shape} differ: need one cost "
                         "row per score row and cost width = score width")
    return s, c


# ---------------------------------------------------------------------------
# target losses
# ---------------------------------------------------------------------------


def deferral_loss_batch(scores, y, costs, shape: ProblemShape) -> np.ndarray:
    """Single-stage deferral loss: zero-one error when predicting, expert
    cost when the argmax lands on an expert slot."""
    s, y, c = _labeled_inputs(scores, y, costs, shape)
    pred = _argmax(s)
    defer = pred >= shape.n
    out = np.where(pred == y, 0.0, 1.0)
    out[defer] = c[(*np.nonzero(defer), pred[defer] - shape.n)]
    return out


def deferral_loss_alt_batch(scores, y, costs, shape: ProblemShape) -> np.ndarray:
    """Rewritten deferral loss: a miss term weighted by the cost sum plus
    per-expert terms that vanish exactly at the chosen expert. Must agree
    with :func:`deferral_loss_batch` on all inputs."""
    s, y, c = _labeled_inputs(scores, y, costs, shape)
    pred = _argmax(s)
    miss = (pred != y).astype(float)
    bracket = c.sum(axis=-1) + 1.0 - shape.n_e
    not_j = (pred[..., None] != shape.n + np.arange(shape.n_e)).astype(float)
    return bracket * miss + ((1.0 - c) * not_j).sum(axis=-1) * miss


def two_stage_deferral_loss_batch(scores, costs) -> np.ndarray:
    """Two-stage deferral loss: cost of the expert with the highest score."""
    s, c = _two_stage_inputs(scores, costs)
    return np.take_along_axis(c, _argmax(s)[..., None], axis=-1)[..., 0]


# ---------------------------------------------------------------------------
# single-stage surrogates
# ---------------------------------------------------------------------------


def _single_stage_terms(scores, y, costs, shape: ProblemShape, psi: PsiSpec):
    """The surrogate values and their class-major terms: the ``(width, [S,] m)``
    softmax p, the label slots, the label and label-or-expert masses u0
    ``([S,] m)`` and uj ``(n_e, [S,] m)`` and their brackets a0 and wj."""
    s, y, c = _labeled_inputs(scores, y, costs, shape)
    p = _class_softmax(s)
    at = _label_slots(y)
    ct = np.ascontiguousarray(c.T)
    u0 = p[at]                               # softmax mass on the true label
    uj = u0 + p[shape.n:]                    # mass on {label, expert j}
    a0 = ct.sum(axis=0) + 1.0 - shape.n_e    # may be negative; kept as-is
    wj = 1.0 - ct
    values = a0 * psi.value(u0) + (wj * psi.value(uj)).sum(axis=0)
    return values.T, (p, at, u0, uj, a0, wj)


def surrogate_single_batch(scores, y, costs, shape: ProblemShape, psi: PsiSpec) -> np.ndarray:
    """Comp-sum deferral surrogate: the miss bracket applied to the true-label
    softmax mass plus per-expert brackets applied to pairwise masses."""
    return _single_stage_terms(scores, y, costs, shape, psi)[0]


def surrogate_single_with_grad_batch(scores, y, costs, shape: ProblemShape,
                                     psi: PsiSpec) -> tuple[np.ndarray, np.ndarray]:
    """Loss and score gradient from a single softmax pass."""
    loss, (p, at, u0, uj, a0, wj) = _single_stage_terms(scores, y, costs, shape, psi)
    p0 = a0 * psi.deriv(u0)                  # coefficient of the label term
    pj = wj * psi.deriv(uj)                  # per-expert coefficients
    base = -(p0 * u0 + (pj * uj).sum(axis=0))
    grad = p * base
    grad[at] += u0 * (p0 + pj.sum(axis=0))
    grad[shape.n:] += p[shape.n:] * pj
    return loss, _row_major(grad)


_MAE = PsiSpec(q=1.0)
_LOG = PsiSpec(q=0.0)


def surrogate_mae_batch(scores, y, costs, shape: ProblemShape) -> np.ndarray:
    """The q = 1 member of the surrogate family; same code path as
    :func:`surrogate_single_batch` so values are bit-identical."""
    return surrogate_single_batch(scores, y, costs, shape, _MAE)


# ---------------------------------------------------------------------------
# baseline surrogates (comparison arms only)
# ---------------------------------------------------------------------------


def _baseline_terms(scores, y, costs, shape: ProblemShape, psi: PsiSpec):
    """The baseline values and their class-major terms: the softmax p, the
    label mass u0, the expert masses pe and their weights wj."""
    s, y, c = _labeled_inputs(scores, y, costs, shape)
    p, at = _class_softmax(s), _label_slots(y)
    u0, pe, wj = p[at], p[shape.n:], 1.0 - np.ascontiguousarray(c.T)
    return (psi.value(u0) + (wj * psi.value(pe)).sum(axis=0)).T, (p, at, u0, pe, wj)


def baseline_mao_batch(scores, y, costs, shape: ProblemShape, psi: PsiSpec) -> np.ndarray:
    """Comp-sum cross-entropy-style baseline: separate terms on the label
    slot and each expert slot, weighted by one minus the expert cost. At
    q = 0 it is the multi-expert cross-entropy of Verma et al."""
    return _baseline_terms(scores, y, costs, shape, psi)[0]


def baseline_mao_with_grad_batch(scores, y, costs, shape: ProblemShape,
                                 psi: PsiSpec) -> tuple[np.ndarray, np.ndarray]:
    """Loss and score gradient from a single softmax pass."""
    loss, (p, at, u0, pe, wj) = _baseline_terms(scores, y, costs, shape, psi)
    q0 = psi.deriv(u0) * u0
    qj = wj * psi.deriv(pe) * pe
    total = q0 + qj.sum(axis=0)
    grad = -p * total
    grad[at] += q0
    grad[shape.n:] += qj
    return loss, _row_major(grad)


def baseline_verma_with_grad_batch(scores, y, costs, shape: ProblemShape) -> tuple[np.ndarray, np.ndarray]:
    """Multi-expert cross-entropy baseline: :func:`baseline_mao_with_grad_batch`
    at q = 0."""
    return baseline_mao_with_grad_batch(scores, y, costs, shape, _LOG)


# ---------------------------------------------------------------------------
# two-stage surrogates
# ---------------------------------------------------------------------------


def _phi_terms(scores, costs, phi: PhiSpec):
    """The surrogate values, the costs c and the margins d."""
    s, c = _two_stage_inputs(scores, costs)
    if s.shape[-1] != 2:
        raise ValueError("two_stage_surrogate_phi requires exactly 2 experts")
    d = s[..., 0] - s[..., 1]
    return c[..., 0] * phi.value(-d) + c[..., 1] * phi.value(d), (c, d)


def two_stage_surrogate_phi_batch(scores, costs, phi: PhiSpec) -> np.ndarray:
    """Two-expert margin surrogate: each cost weights the margin loss of the
    opposing score difference."""
    return _phi_terms(scores, costs, phi)[0]


def two_stage_surrogate_phi_with_grad_batch(scores, costs, phi: PhiSpec) -> tuple[np.ndarray, np.ndarray]:
    loss, (c, d) = _phi_terms(scores, costs, phi)
    g1 = -c[..., 0] * phi.deriv(-d) + c[..., 1] * phi.deriv(d)
    return loss, _row_major(np.stack([g1.T, -g1.T]))


def expert_brackets(costs: np.ndarray, n_e: int, axis: int = -1) -> np.ndarray:
    """Per-expert coefficients: sum of the other experts' costs minus n_e - 2.
    ``axis`` is the axis that runs over the experts."""
    c = np.atleast_2d(np.asarray(costs, dtype=float))
    return c.sum(axis=axis, keepdims=True) - c - (n_e - 2)


def _psi_terms(scores, costs, psi: PsiSpec):
    """The surrogate values and the class-major ``(n_e, [S,] m)`` brackets and
    softmax."""
    s, c = _two_stage_inputs(scores, costs)
    if s.shape[-1] < 2:
        raise ValueError("two-stage surrogate requires at least 2 experts")
    b = expert_brackets(np.ascontiguousarray(c.T), s.shape[-1], axis=0)
    p = _class_softmax(s)
    return (b * psi.value(p)).sum(axis=0).T, (b, p)


def two_stage_surrogate_psi_batch(scores, costs, psi: PsiSpec) -> np.ndarray:
    """Multiple-expert comp-sum surrogate over the expert softmax."""
    return _psi_terms(scores, costs, psi)[0]


def two_stage_surrogate_psi_with_grad_batch(scores, costs, psi: PsiSpec) -> tuple[np.ndarray, np.ndarray]:
    loss, (b, p) = _psi_terms(scores, costs, psi)
    q = b * psi.deriv(p) * p
    return loss, _row_major(q - p * q.sum(axis=0))


# ---------------------------------------------------------------------------
# the loss table and the scalar forms
# ---------------------------------------------------------------------------

# name -> (stage, spec, kernel): "psi" or "phi" for the spec a loss takes, a
# PsiSpec for the one a loss fixes, None for a target loss, which takes no
# spec and has no value-and-gradient kernel (named here, looked up on losses)
_LOSSES = {
    "surrogate_single": ("single", "psi", "surrogate_single_with_grad_batch"),
    "surrogate_mae": ("single", _MAE, "surrogate_single_with_grad_batch"),
    "baseline_verma": ("single", _LOG, "baseline_mao_with_grad_batch"),
    "baseline_mao": ("single", "psi", "baseline_mao_with_grad_batch"),
    "two_stage_phi": ("two", "phi", "two_stage_surrogate_phi_with_grad_batch"),
    "two_stage_psi": ("two", "psi", "two_stage_surrogate_psi_with_grad_batch"),
    "deferral": ("single", None, None),
    "two_stage_deferral": ("two", None, None),
}


@dataclass(frozen=True)
class LossSelector:
    """One loss of the table, by the name configs use, with the spec it takes.

    surrogate_mae and baseline_verma fix their PsiSpec (q = 1 and q = 0) and
    fill in ``psi`` themselves. deferral and two_stage_deferral are the
    target losses: they take no spec and have no gradient.
    """

    name: str
    psi: PsiSpec | None = None
    phi: PhiSpec | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or self.name not in _LOSSES:
            raise ValueError(f"unknown loss {self.name!r}; the losses are {list(_LOSSES)}")
        takes = _LOSSES[self.name][1]
        if isinstance(takes, PsiSpec):
            if self.psi not in (None, takes):
                raise ValueError(f"{self.name} fixes q = {takes.q}, got {self.psi!r}")
            object.__setattr__(self, "psi", takes)
            takes = "psi"
        for field, what in (("psi", "q (a PsiSpec)"), ("phi", "phi (a PhiSpec)")):
            given = getattr(self, field) is not None
            if given != (field == takes):
                raise ValueError(f"{self.name} {'takes no' if given else 'requires'} {what}")

    @property
    def stage(self) -> str:
        return _LOSSES[self.name][0]

    @property
    def is_target(self) -> bool:
        return _LOSSES[self.name][1] is None

    @property
    def kernel(self) -> str | None:
        """The name of the value-and-gradient kernel (a model stack shares one)."""
        return _LOSSES[self.name][2]


def _one_row(kernel, row_args: int):
    """The scalar form of a batch kernel: one score vector and ``row_args``
    more per-row arguments (label and costs, or costs) in, a float out."""
    def one_row(scores, *args):
        rows = [[a] for a in args[:row_args]]
        return float(kernel([scores], *rows, *args[row_args:])[0])

    one_row.__name__ = one_row.__qualname__ = kernel.__name__.removesuffix("_batch")
    one_row.__doc__ = f"One row of :func:`{kernel.__name__}`, as a float."
    return one_row


deferral_loss = _one_row(deferral_loss_batch, 2)
two_stage_deferral_loss = _one_row(two_stage_deferral_loss_batch, 1)
surrogate_single = _one_row(surrogate_single_batch, 2)
surrogate_mae = _one_row(surrogate_mae_batch, 2)
two_stage_surrogate_phi = _one_row(two_stage_surrogate_phi_batch, 1)
two_stage_surrogate_psi = _one_row(two_stage_surrogate_psi_batch, 1)
