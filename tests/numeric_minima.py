"""Numeric minima of conditional surrogate errors, the independent checks of
the closed forms in :mod:`deferkit.oracles`.

:func:`numeric_min_two_stage_psi` minimizes a stack of two-stage Psi
objectives at once: each row runs the adaptive-step exponentiated gradient
of the scalar reference :func:`numeric_min_two_stage_psi_scalar`, with masks
in place of its branches. The multiplicative step is mirror descent under
the entropy (Kivinen & Warmuth, Information and Computation 1997; Beck &
Teboulle, Operations Research Letters 2003): it scales each coordinate's
move by its own mass, so a minimum with some tiny coordinates is no worse
conditioned than one without. :func:`grid_min_simplex` evaluates a function
on one lattice array of simplex points.
"""

import itertools

import numpy as np

from deferkit.losses import PsiSpec
from deferkit.oracles import DiscreteTask

# the clamp of the masses that Psi sees, and the least mass a step leaves, so
# that a coordinate a long step underflows can still regain mass
_CLAMP, _LEAST = 1e-14, 1e-300


def numeric_min_two_stage_psi(qbar: np.ndarray, psi: PsiSpec) -> np.ndarray:
    """Exponentiated-gradient minima of sum_j qbar_j Psi(S_j) over the simplex,
    one per row of a ``(B, n_e)`` stack of qbar rows.

    Each row keeps its own step: it grows by 1.5 on measurable progress (a
    relative gain of 1e-11, to a step of at most 100) and halves on any
    other step, accepted or not. So a row stops, with its step below 1e-18,
    within about 60 steps of its last measurable gain."""
    qbar = np.asarray(qbar, dtype=float)

    def value(s: np.ndarray) -> np.ndarray:
        # one product per row, rounded as the scalar reference's dot is
        return np.matmul(qbar[:, None, :], psi.value(np.clip(s, _CLAMP, 1.0))[:, :, None])[:, 0, 0]

    s = np.full(qbar.shape, 1.0 / qbar.shape[1])
    best = value(s)
    step = np.full(len(qbar), 0.1)
    live = np.ones(len(qbar), dtype=bool)
    for _ in range(30000):
        if not live.any():
            break
        grad = qbar * psi.deriv(np.clip(s, _CLAMP, 1.0))
        # shifted by the least entry, so no factor exceeds 1
        cand = np.maximum(s * np.exp(-step[:, None] * (grad - grad.min(axis=-1, keepdims=True))),
                          _LEAST)
        cand /= cand.sum(axis=-1, keepdims=True)
        fc = value(cand)
        gain = live & (fc < best - 1e-11 * np.maximum(1.0, np.abs(best)))
        accept = live & (fc <= best)
        s = np.where(accept[:, None], cand, s)
        best = np.where(accept, fc, best)
        step = np.where(gain, np.minimum(step * 1.5, 1e2), np.where(live, step * 0.5, step))
        live &= step >= 1e-18
    return best


def numeric_min_two_stage_psi_scalar(qbar: np.ndarray, psi: PsiSpec) -> float:
    """The reference for :func:`numeric_min_two_stage_psi`: exponentiated-
    gradient minimization of sum_j qbar_j Psi(S_j) over the simplex for one
    qbar vector, one Python step at a time, under the same step rule."""
    qbar = np.asarray(qbar, dtype=float)

    def value(sv: np.ndarray) -> float:
        return float(qbar @ psi.value(np.clip(sv, _CLAMP, 1.0)))

    s = np.full(len(qbar), 1.0 / len(qbar))
    best = value(s)
    step = 0.1
    for _ in range(30000):
        grad = qbar * psi.deriv(np.clip(s, _CLAMP, 1.0))
        cand = np.maximum(s * np.exp(-step * (grad - grad.min())), _LEAST)
        cand /= cand.sum()
        fc = value(cand)
        gain = fc < best - 1e-11 * max(1.0, abs(best))
        if fc <= best:
            s, best = cand, fc
        step = min(step * 1.5, 1e2) if gain else step * 0.5
        if step < 1e-18:
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
