"""Numeric minima of conditional surrogate errors, the independent checks of
the closed forms in :mod:`deferkit.oracles`.

:func:`numeric_min_two_stage_psi` minimizes a stack of two-stage Psi
objectives at once: each row runs the adaptive-step projected gradient of
the scalar reference :func:`numeric_min_two_stage_psi_scalar`, with masks in
place of its branches, and is projected onto the simplex with the row-wise
sort-based rule of Duchi, Shalev-Shwartz, Singer & Chandra (ICML 2008).
:func:`grid_min_simplex` evaluates a function on one lattice array of
simplex points.
"""

import itertools

import numpy as np

from deferkit.losses import PsiSpec
from deferkit.oracles import DiscreteTask


def _project_simplex_rows(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of each row of v onto the probability simplex."""
    u = np.sort(v, axis=-1)[..., ::-1]
    css = np.cumsum(u, axis=-1) - 1.0
    idx = np.arange(1, v.shape[-1] + 1)
    cond = u - css / idx > 0
    rho = v.shape[-1] - np.argmax(cond[..., ::-1], axis=-1)   # the last index that holds
    theta = np.take_along_axis(css, rho[..., None] - 1, axis=-1) / rho[..., None]
    return np.maximum(v - theta, 0.0)


def numeric_min_two_stage_psi(qbar: np.ndarray, psi: PsiSpec) -> np.ndarray:
    """Projected-gradient minima of sum_j qbar_j Psi(S_j) over the simplex,
    one per row of a ``(B, n_e)`` stack of qbar rows.

    Each row keeps its own step: it grows by 1.5 on measurable progress
    (to at most 100) and halves on rejection, and the row stops after 400
    steps without progress or once its step falls below 1e-18. The stall
    cutoff matters because the objective is badly conditioned when the
    qbar entries are very unbalanced."""
    qbar = np.asarray(qbar, dtype=float)

    def value(s: np.ndarray) -> np.ndarray:
        # one product per row, rounded as the scalar reference's dot is
        return np.matmul(qbar[:, None, :], psi.value(np.clip(s, 1e-14, 1.0))[:, :, None])[:, 0, 0]

    s = np.full(qbar.shape, 1.0 / qbar.shape[1])
    best = value(s)
    step = np.full(len(qbar), 0.1)
    stall = np.zeros(len(qbar), dtype=int)
    live = np.ones(len(qbar), dtype=bool)
    for _ in range(30000):
        if not live.any():
            break
        grad = qbar * psi.deriv(np.clip(s, 1e-14, 1.0))
        cand = _project_simplex_rows(s - step[:, None] * grad)
        fc = value(cand)
        gain = live & (fc < best - 1e-11 * np.maximum(1.0, np.abs(best)))
        accept = live & (fc <= best)
        reject = live & ~accept
        s = np.where(accept[:, None], cand, s)
        best = np.where(accept, fc, best)
        stall = np.where(gain, 0, stall + live)
        step = np.where(gain, np.minimum(step * 1.5, 1e2), np.where(reject, step * 0.5, step))
        live &= (step >= 1e-18) & (stall <= 400)
    return best


def _project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort-based)."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, len(v) + 1)
    cond = u - css / idx > 0
    rho = idx[cond][-1]
    theta = css[rho - 1] / rho
    return np.maximum(v - theta, 0.0)


def numeric_min_two_stage_psi_scalar(qbar: np.ndarray, psi: PsiSpec) -> float:
    """The reference for :func:`numeric_min_two_stage_psi`: projected-gradient
    minimization of sum_j qbar_j Psi(S_j) over the simplex for one qbar
    vector, one Python step at a time.

    Adaptive step: grow on measurable progress, halve on rejection, and stop
    after 30000 steps or once a run of them makes no relative progress. The
    stall cutoff matters because the objective is badly conditioned when the
    qbar entries are very unbalanced."""
    qbar = np.asarray(qbar, dtype=float)
    n_e = len(qbar)
    floor = 1e-14

    def value(sv: np.ndarray) -> float:
        return float(qbar @ psi.value(np.clip(sv, floor, 1.0)))

    s = np.full(n_e, 1.0 / n_e)
    best = value(s)
    step = 0.1
    stall = 0
    for _ in range(30000):
        grad = qbar * psi.deriv(np.clip(s, floor, 1.0))
        cand = _project_simplex(s - step * grad)
        fc = value(cand)
        if fc < best - 1e-11 * max(1.0, abs(best)):
            s, best, stall = cand, fc, 0
            step = min(step * 1.5, 1e2)
        elif fc <= best:
            s, best = cand, fc
            stall += 1
        else:
            step *= 0.5
            stall += 1
        if step < 1e-18 or stall > 400:
            break
    return best


def grid_min_simplex(fn, width: int) -> float:
    """Minimum of fn over the points of the probability simplex whose
    coordinates are multiples of 0.02; fn takes them as one ``(P, width)``
    stack and returns their ``(P,)`` values."""
    steps = 50
    heads = np.array(list(itertools.product(range(steps + 1), repeat=width - 1)),
                     dtype=int).reshape(-1, width - 1)
    heads = heads[heads.sum(axis=1) <= steps]
    return float(np.min(fn(np.column_stack([heads, steps - heads.sum(axis=1)]) / steps)))


def mae_given_probs(probs: np.ndarray, task: DiscreteTask, k: int) -> np.ndarray:
    """Expected q=1 surrogate at point k for each row of a ``(P, n + n_e)``
    stack of output probability vectors, in the loss's bracket form (affine
    in the probabilities)."""
    n, n_e = task.shape.n, task.shape.n_e
    c = task.costs[k]                       # (n, n_e)
    a0 = c.sum(axis=1) + 1.0 - n_e          # (n,)
    u0 = probs[:, :n, None]
    per_label = (a0 * (1.0 - probs[:, :n])
                 + ((1.0 - c) * (1.0 - u0 - probs[:, None, n:])).sum(axis=-1))
    return per_label @ task.conditionals[k]
