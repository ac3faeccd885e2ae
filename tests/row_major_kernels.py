"""The row-major loss kernels: each softmax, label pick and sum over experts
runs along the ``(m, width)`` rows. The package's class-major kernels must
match them byte for byte at widths up to 7 and within rounding beyond."""

import numpy as np

from deferkit.losses import (ProblemShape, PsiSpec, _labeled_inputs, _two_stage_inputs,
                             expert_brackets)


def _softmax(s: np.ndarray) -> np.ndarray:
    z = s - s.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _single_stage_terms(scores, y, costs, shape: ProblemShape):
    s, y, c = _labeled_inputs(scores, y, costs, shape)
    p = _softmax(s)
    rows = np.arange(len(y))
    u0 = p[rows, y]                          # softmax mass on the true label
    uj = u0[:, None] + p[:, shape.n:]        # mass on {label, expert j}
    a0 = c.sum(axis=1) + 1.0 - shape.n_e     # may be negative; kept as-is
    wj = 1.0 - c
    return p, rows, y, u0, uj, a0, wj


def surrogate_single_batch(scores, y, costs, shape: ProblemShape, psi: PsiSpec) -> np.ndarray:
    _, _, _, u0, uj, a0, wj = _single_stage_terms(scores, y, costs, shape)
    return a0 * psi.value(u0) + (wj * psi.value(uj)).sum(axis=1)


def surrogate_single_with_grad_batch(scores, y, costs, shape: ProblemShape,
                                     psi: PsiSpec) -> tuple[np.ndarray, np.ndarray]:
    p, rows, y, u0, uj, a0, wj = _single_stage_terms(scores, y, costs, shape)
    loss = a0 * psi.value(u0) + (wj * psi.value(uj)).sum(axis=1)
    p0 = a0 * psi.deriv(u0)                  # coefficient of the label term
    pj = wj * psi.deriv(uj)                  # per-expert coefficients
    base = -(p0 * u0 + (pj * uj).sum(axis=1))
    grad = p * base[:, None]
    grad[rows, y] += p[rows, y] * (p0 + pj.sum(axis=1))
    grad[:, shape.n:] += p[:, shape.n:] * pj
    return loss, grad


def _baseline_terms(scores, y, costs, shape: ProblemShape):
    s, y, c = _labeled_inputs(scores, y, costs, shape)
    return _softmax(s), np.arange(len(y)), y, 1.0 - c


def baseline_mao_batch(scores, y, costs, shape: ProblemShape, psi: PsiSpec) -> np.ndarray:
    p, rows, y, wj = _baseline_terms(scores, y, costs, shape)
    return psi.value(p[rows, y]) + (wj * psi.value(p[:, shape.n:])).sum(axis=1)


def baseline_mao_with_grad_batch(scores, y, costs, shape: ProblemShape,
                                 psi: PsiSpec) -> tuple[np.ndarray, np.ndarray]:
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


def _psi_terms(scores, costs):
    s, c = _two_stage_inputs(scores, costs)
    if s.shape[1] < 2:
        raise ValueError("two-stage surrogate requires at least 2 experts")
    return expert_brackets(c), _softmax(s)


def two_stage_surrogate_psi_batch(scores, costs, psi: PsiSpec) -> np.ndarray:
    b, p = _psi_terms(scores, costs)
    return (b * psi.value(p)).sum(axis=1)


def two_stage_surrogate_psi_with_grad_batch(scores, costs, psi: PsiSpec) -> tuple[np.ndarray, np.ndarray]:
    b, p = _psi_terms(scores, costs)
    loss = (b * psi.value(p)).sum(axis=1)
    q = b * psi.deriv(p) * p
    return loss, q - p * q.sum(axis=1, keepdims=True)
