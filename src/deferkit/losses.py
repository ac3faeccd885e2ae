"""Target and surrogate losses for multiple-expert deferral.

All operations are pure functions. Scalar signatures take a single score
vector; the ``*_batch`` variants operate on ``(m, width)`` score matrices
and are what the trainer uses. Argmax ties always break to the lowest
index.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "ProblemShape",
    "PsiSpec",
    "PhiKind",
    "PhiSpec",
    "softmax",
    "deferral_loss",
    "deferral_loss_alt",
    "two_stage_deferral_loss",
    "surrogate_single",
    "surrogate_single_grad",
    "surrogate_mae",
    "surrogate_mae_grad",
    "baseline_verma",
    "baseline_verma_grad",
    "baseline_mao",
    "baseline_mao_grad",
    "two_stage_surrogate_phi",
    "two_stage_surrogate_phi_grad",
    "two_stage_surrogate_psi",
    "two_stage_surrogate_psi_grad",
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


@dataclass(frozen=True)
class PsiSpec:
    """Selects the decreasing auxiliary function applied to softmax sums.

    q = 0 is the negative log; q in (0, 1] is (1 - u**q) / q. For q = 0 the
    argument is clamped to [clamp_epsilon, 1] to keep values finite.
    """

    q: float
    clamp_epsilon: float = 1e-12

    def __post_init__(self) -> None:
        if not 0.0 <= self.q <= 1.0:
            raise ValueError(f"q must lie in [0, 1], got {self.q}")
        if not 0.0 < self.clamp_epsilon <= 1e-6:
            raise ValueError("clamp_epsilon must lie in (0, 1e-6]")

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


class PhiKind(str, Enum):
    LOGISTIC = "logistic"
    EXPONENTIAL = "exponential"
    HINGE = "hinge"


@dataclass(frozen=True)
class PhiSpec:
    """Margin loss for the two-expert deferral surrogate."""

    kind: PhiKind = PhiKind.LOGISTIC

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", PhiKind(self.kind))

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


def _as_scores(scores, width: int | None = None) -> np.ndarray:
    s = np.asarray(scores, dtype=float)
    if not np.isfinite(s).all():
        raise ValueError("invalid scores")
    if width is not None and s.shape[-1] != width:
        raise ValueError(f"score width {s.shape[-1]} != expected {width}")
    return s


def _softmax(s: np.ndarray) -> np.ndarray:
    """:func:`softmax` of scores that have already passed :func:`_as_scores`."""
    z = s - s.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def softmax(scores) -> np.ndarray:
    """Stable softmax over the last axis (max-shifted before exponentiation)."""
    return _softmax(_as_scores(scores))


def _check_labels(y: np.ndarray, n: int) -> None:
    if ((y < 0) | (y >= n)).any():
        raise ValueError(f"label out of range [0, {n})")


def _argmax_low(scores: np.ndarray) -> np.ndarray:
    # np.argmax already breaks ties to the lowest index
    return np.argmax(scores, axis=-1)


# ---------------------------------------------------------------------------
# target losses
# ---------------------------------------------------------------------------


def deferral_loss_batch(scores, y, costs, shape: ProblemShape) -> np.ndarray:
    """Single-stage deferral loss: zero-one error when predicting, expert
    cost when the argmax lands on an expert slot."""
    s = np.atleast_2d(_as_scores(scores, shape.augmented_size))
    y = np.atleast_1d(np.asarray(y, dtype=int))
    c = np.atleast_2d(np.asarray(costs, dtype=float))
    _check_labels(y, shape.n)
    pred = _argmax_low(s)
    rows = np.arange(len(y))
    defer = pred >= shape.n
    out = np.where(pred == y, 0.0, 1.0)
    out[defer] = c[rows[defer], pred[defer] - shape.n]
    return out


def deferral_loss(scores, y: int, costs, shape: ProblemShape) -> float:
    return float(deferral_loss_batch(scores, [y], [costs], shape)[0])


def deferral_loss_alt_batch(scores, y, costs, shape: ProblemShape) -> np.ndarray:
    """Rewritten deferral loss: a miss term weighted by the cost sum plus
    per-expert terms that vanish exactly at the chosen expert. Must agree
    with :func:`deferral_loss_batch` on all inputs."""
    s = np.atleast_2d(_as_scores(scores, shape.augmented_size))
    y = np.atleast_1d(np.asarray(y, dtype=int))
    c = np.atleast_2d(np.asarray(costs, dtype=float))
    _check_labels(y, shape.n)
    pred = _argmax_low(s)
    miss = (pred != y).astype(float)
    bracket = c.sum(axis=1) + 1.0 - shape.n_e
    not_j = (pred[:, None] != (shape.n + np.arange(shape.n_e))[None, :]).astype(float)
    return bracket * miss + ((1.0 - c) * not_j).sum(axis=1) * miss


def deferral_loss_alt(scores, y: int, costs, shape: ProblemShape) -> float:
    return float(deferral_loss_alt_batch(scores, [y], [costs], shape)[0])


def two_stage_deferral_loss_batch(scores, costs) -> np.ndarray:
    """Two-stage deferral loss: cost of the expert with the highest score."""
    s = np.atleast_2d(_as_scores(scores))
    c = np.atleast_2d(np.asarray(costs, dtype=float))
    if s.shape != c.shape:
        raise ValueError(f"score width {s.shape[-1]} != cost width {c.shape[-1]}")
    pred = _argmax_low(s)
    return c[np.arange(len(pred)), pred]


def two_stage_deferral_loss(scores, costs) -> float:
    return float(two_stage_deferral_loss_batch([scores], [costs])[0])


# ---------------------------------------------------------------------------
# single-stage surrogates
# ---------------------------------------------------------------------------


def _single_stage_terms(scores, y, costs, shape: ProblemShape):
    s = np.atleast_2d(_as_scores(scores, shape.augmented_size))
    y = np.atleast_1d(np.asarray(y, dtype=int))
    c = np.atleast_2d(np.asarray(costs, dtype=float))
    _check_labels(y, shape.n)
    p = _softmax(s)
    rows = np.arange(len(y))
    u0 = p[rows, y]                          # softmax mass on the true label
    uj = u0[:, None] + p[:, shape.n:]        # mass on {label, expert j}
    a0 = c.sum(axis=1) + 1.0 - shape.n_e     # may be negative; kept as-is
    wj = 1.0 - c
    return p, rows, y, u0, uj, a0, wj


def surrogate_single_with_grad_batch(scores, y, costs, shape: ProblemShape,
                                     psi: PsiSpec) -> tuple[np.ndarray, np.ndarray]:
    """Loss and score gradient from a single softmax pass."""
    p, rows, y, u0, uj, a0, wj = _single_stage_terms(scores, y, costs, shape)
    loss = a0 * psi.value(u0) + (wj * psi.value(uj)).sum(axis=1)
    p0 = a0 * psi.deriv(u0)                  # coefficient of the label term
    pj = wj * psi.deriv(uj)                  # per-expert coefficients
    base = -(p0 * u0 + (pj * uj).sum(axis=1))
    grad = p * base[:, None]
    grad[rows, y] += p[rows, y] * (p0 + pj.sum(axis=1))
    grad[:, shape.n:] += p[:, shape.n:] * pj
    return loss, grad


def surrogate_single_batch(scores, y, costs, shape: ProblemShape, psi: PsiSpec) -> np.ndarray:
    """Comp-sum deferral surrogate: the miss bracket applied to the true-label
    softmax mass plus per-expert brackets applied to pairwise masses."""
    _, _, _, u0, uj, a0, wj = _single_stage_terms(scores, y, costs, shape)
    return a0 * psi.value(u0) + (wj * psi.value(uj)).sum(axis=1)


def surrogate_single(scores, y: int, costs, shape: ProblemShape, psi: PsiSpec) -> float:
    return float(surrogate_single_batch(scores, [y], [costs], shape, psi)[0])


def surrogate_single_grad_batch(scores, y, costs, shape: ProblemShape, psi: PsiSpec) -> np.ndarray:
    return surrogate_single_with_grad_batch(scores, y, costs, shape, psi)[1]


def surrogate_single_grad(scores, y: int, costs, shape: ProblemShape, psi: PsiSpec) -> np.ndarray:
    return surrogate_single_grad_batch(scores, [y], [costs], shape, psi)[0]


_MAE = PsiSpec(q=1.0)


def surrogate_mae_batch(scores, y, costs, shape: ProblemShape) -> np.ndarray:
    """The q = 1 member of the surrogate family; same code path as
    :func:`surrogate_single_batch` so values are bit-identical."""
    return surrogate_single_batch(scores, y, costs, shape, _MAE)


def surrogate_mae(scores, y: int, costs, shape: ProblemShape) -> float:
    return surrogate_single(scores, y, costs, shape, _MAE)


def surrogate_mae_grad_batch(scores, y, costs, shape: ProblemShape) -> np.ndarray:
    return surrogate_single_grad_batch(scores, y, costs, shape, _MAE)


def surrogate_mae_grad(scores, y: int, costs, shape: ProblemShape) -> np.ndarray:
    return surrogate_single_grad(scores, y, costs, shape, _MAE)


# ---------------------------------------------------------------------------
# baseline surrogates (comparison arms only)
# ---------------------------------------------------------------------------


def _baseline_terms(scores, y, costs, shape: ProblemShape):
    s = np.atleast_2d(_as_scores(scores, shape.augmented_size))
    y = np.atleast_1d(np.asarray(y, dtype=int))
    c = np.atleast_2d(np.asarray(costs, dtype=float))
    _check_labels(y, shape.n)
    p = _softmax(s)
    return p, np.arange(len(y)), y, 1.0 - c


def baseline_mao_batch(scores, y, costs, shape: ProblemShape, psi: PsiSpec) -> np.ndarray:
    """Comp-sum cross-entropy-style baseline: separate terms on the label
    slot and each expert slot, weighted by one minus the expert cost."""
    p, rows, y, wj = _baseline_terms(scores, y, costs, shape)
    return psi.value(p[rows, y]) + (wj * psi.value(p[:, shape.n:])).sum(axis=1)


def baseline_mao(scores, y: int, costs, shape: ProblemShape, psi: PsiSpec) -> float:
    return float(baseline_mao_batch(scores, [y], [costs], shape, psi)[0])


def baseline_mao_with_grad_batch(scores, y, costs, shape: ProblemShape,
                                 psi: PsiSpec) -> tuple[np.ndarray, np.ndarray]:
    """Loss and score gradient from a single softmax pass."""
    p, rows, y, wj = _baseline_terms(scores, y, costs, shape)
    u0, pe = p[rows, y], p[:, shape.n:]
    loss = psi.value(u0) + (wj * psi.value(pe)).sum(axis=1)
    q0 = psi.deriv(u0) * u0
    qj = wj * psi.deriv(pe) * pe
    total = q0 + qj.sum(axis=1)
    grad = -p * total[:, None]
    grad[rows, y] += q0
    grad[:, shape.n:] += qj
    return loss, grad


def baseline_mao_grad_batch(scores, y, costs, shape: ProblemShape, psi: PsiSpec) -> np.ndarray:
    return baseline_mao_with_grad_batch(scores, y, costs, shape, psi)[1]


def baseline_mao_grad(scores, y: int, costs, shape: ProblemShape, psi: PsiSpec) -> np.ndarray:
    return baseline_mao_grad_batch(scores, [y], [costs], shape, psi)[0]


_LOG = PsiSpec(q=0.0)


def baseline_verma_batch(scores, y, costs, shape: ProblemShape) -> np.ndarray:
    """Multi-expert cross-entropy baseline: negative log mass on the label
    plus cost-weighted negative logs on expert slots."""
    p, rows, y, wj = _baseline_terms(scores, y, costs, shape)
    lp = np.log(np.clip(p, _LOG.clamp_epsilon, 1.0))
    return -lp[rows, y] - (wj * lp[:, shape.n:]).sum(axis=1)


def baseline_verma(scores, y: int, costs, shape: ProblemShape) -> float:
    return float(baseline_verma_batch(scores, [y], [costs], shape)[0])


def baseline_verma_with_grad_batch(scores, y, costs, shape: ProblemShape) -> tuple[np.ndarray, np.ndarray]:
    return baseline_mao_with_grad_batch(scores, y, costs, shape, _LOG)


def baseline_verma_grad_batch(scores, y, costs, shape: ProblemShape) -> np.ndarray:
    return baseline_mao_grad_batch(scores, y, costs, shape, _LOG)


def baseline_verma_grad(scores, y: int, costs, shape: ProblemShape) -> np.ndarray:
    return baseline_mao_grad(scores, y, costs, shape, _LOG)


# ---------------------------------------------------------------------------
# two-stage surrogates
# ---------------------------------------------------------------------------


def two_stage_surrogate_phi_batch(scores, costs, phi: PhiSpec) -> np.ndarray:
    """Two-expert margin surrogate: each cost weights the margin loss of the
    opposing score difference."""
    s = np.atleast_2d(_as_scores(scores, 2))
    c = np.atleast_2d(np.asarray(costs, dtype=float))
    if c.shape[-1] != 2:
        raise ValueError("two_stage_surrogate_phi requires exactly 2 experts")
    d = s[:, 0] - s[:, 1]
    return c[:, 0] * phi.value(-d) + c[:, 1] * phi.value(d)


def two_stage_surrogate_phi(scores, costs, phi: PhiSpec) -> float:
    return float(two_stage_surrogate_phi_batch([scores], [costs], phi)[0])


def two_stage_surrogate_phi_with_grad_batch(scores, costs, phi: PhiSpec) -> tuple[np.ndarray, np.ndarray]:
    s = np.atleast_2d(_as_scores(scores, 2))
    c = np.atleast_2d(np.asarray(costs, dtype=float))
    if c.shape[-1] != 2:
        raise ValueError("two_stage_surrogate_phi requires exactly 2 experts")
    d = s[:, 0] - s[:, 1]
    loss = c[:, 0] * phi.value(-d) + c[:, 1] * phi.value(d)
    g1 = -c[:, 0] * phi.deriv(-d) + c[:, 1] * phi.deriv(d)
    return loss, np.stack([g1, -g1], axis=1)


def two_stage_surrogate_phi_grad_batch(scores, costs, phi: PhiSpec) -> np.ndarray:
    return two_stage_surrogate_phi_with_grad_batch(scores, costs, phi)[1]


def two_stage_surrogate_phi_grad(scores, costs, phi: PhiSpec) -> np.ndarray:
    return two_stage_surrogate_phi_grad_batch([scores], [costs], phi)[0]


def expert_brackets(costs: np.ndarray, n_e: int) -> np.ndarray:
    """Per-expert coefficients: sum of the other experts' costs minus n_e - 2."""
    c = np.atleast_2d(np.asarray(costs, dtype=float))
    return c.sum(axis=-1, keepdims=True) - c - (n_e - 2)


def two_stage_surrogate_psi_batch(scores, costs, psi: PsiSpec) -> np.ndarray:
    """Multiple-expert comp-sum surrogate over the expert softmax."""
    s = np.atleast_2d(_as_scores(scores))
    c = np.atleast_2d(np.asarray(costs, dtype=float))
    if s.shape != c.shape:
        raise ValueError(f"score width {s.shape[-1]} != cost width {c.shape[-1]}")
    n_e = s.shape[-1]
    if n_e < 2:
        raise ValueError("two-stage surrogate requires at least 2 experts")
    b = expert_brackets(c, n_e)
    return (b * psi.value(_softmax(s))).sum(axis=1)


def two_stage_surrogate_psi(scores, costs, psi: PsiSpec) -> float:
    return float(two_stage_surrogate_psi_batch([scores], [costs], psi)[0])


def two_stage_surrogate_psi_with_grad_batch(scores, costs, psi: PsiSpec) -> tuple[np.ndarray, np.ndarray]:
    s = np.atleast_2d(_as_scores(scores))
    c = np.atleast_2d(np.asarray(costs, dtype=float))
    if s.shape != c.shape:
        raise ValueError(f"score width {s.shape[-1]} != cost width {c.shape[-1]}")
    n_e = s.shape[-1]
    if n_e < 2:
        raise ValueError("two-stage surrogate requires at least 2 experts")
    b = expert_brackets(c, n_e)
    p = _softmax(s)
    loss = (b * psi.value(p)).sum(axis=1)
    q = b * psi.deriv(p) * p
    return loss, q - p * q.sum(axis=1, keepdims=True)


def two_stage_surrogate_psi_grad_batch(scores, costs, psi: PsiSpec) -> np.ndarray:
    return two_stage_surrogate_psi_with_grad_batch(scores, costs, psi)[1]


def two_stage_surrogate_psi_grad(scores, costs, psi: PsiSpec) -> np.ndarray:
    return two_stage_surrogate_psi_grad_batch([scores], [costs], psi)[0]
