"""Target and surrogate losses for multiple-expert deferral.

:class:`LossSelector` is the one table of losses. It names each loss by the
name configs use, gives its stage and carries the Psi or Phi spec it takes.
Each surrogate has one batch kernel for its values, ``<loss>_batch``, and
one for its values and score gradients, ``<loss>_with_grad_batch``. Both
take their values from one terms function per loss, so they agree bit for
bit, and the value kernel skips the gradient work. The four single-stage
surrogates share :func:`surrogate_single_with_grad_batch`, whose unpaired
rows are the baselines; the baselines' values are
:func:`surrogate_single_batch` on the spec ``LossSelector.stack`` gives them.
Psi_q is computed in one place, :class:`_PsiColumn`.

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

import functools
import inspect
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
        check_int(self.n, "n", 2)
        check_int(self.n_e, "n_e", 1)

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
    argument is clamped to [clamp_epsilon, 1] to keep values finite. Values
    and derivatives are those of the spec's one-model :class:`_PsiColumn`.
    """

    q: float
    clamp_epsilon: ClassVar[float] = 1e-12

    def __post_init__(self) -> None:
        check_number(self.q, "q", 0.0)
        if self.q > 1.0:
            raise ValueError(f"q must lie in [0, 1], got {self.q}")

    def value(self, u: np.ndarray) -> np.ndarray:
        return _column(self).value(u)

    def deriv(self, u: np.ndarray) -> np.ndarray:
        return _column(self).deriv(u)


class _PsiColumn:
    """Psi_q and the comp-sum pairing of one model (one PsiSpec and one bool)
    or of a stack (lists of them). A paired model's expert term j takes the
    mass u0 + p_{n+j} and its label term the bracket a0; an unpaired one (a
    baseline) takes p_{n+j} and 1. ``paired`` is that factor, 1.0 or 0.0, for
    all the models, or an ``(S, 1)`` column of them on a stack's model axis,
    as is the clamp floor. psi clamps all rows at once (np.minimum(np.maximum())
    is np.clip, NaN included, without its Python wrapper), then runs each q's
    formula on its models (1 - u, with derivative -1, at q = 1), so each model
    keeps the bits it has alone."""

    def __init__(self, specs, paired):
        column = (len(specs), 1) if isinstance(specs, list) else ()
        specs = specs if column else [specs]
        paired = np.reshape(np.asarray(paired, dtype=float), column)
        self.paired = float(paired.flat[0]) if len(set(paired.flat)) == 1 else paired
        self.floor = np.reshape([PsiSpec.clamp_epsilon * (s.q == 0.0) for s in specs], column)
        runs = {s.q: [k for k, other in enumerate(specs) if other.q == s.q] for s in specs}
        self.only = specs[0].q if len(runs) == 1 else None
        # each q's models but q = 1 as an index of a stack's terms, a slice where they run
        self.groups = [((..., slice(r[0], r[-1] + 1) if r[-1] - r[0] == len(r) - 1 else r,
                         slice(None)), q) for q, r in runs.items() if q != 1.0]

    def _per_q(self, x: np.ndarray, fill, term) -> np.ndarray:
        """``term(x, q)`` on each q's models, on a ``fill(x)`` that holds the q = 1 terms."""
        if self.only is not None:
            return fill(x) if self.only == 1.0 else term(x, self.only)
        out = fill(x)
        for at, q in self.groups:
            out[at] = term(x[at], q)
        return out

    def value(self, u: np.ndarray) -> np.ndarray:
        return self._per_q(np.minimum(np.maximum(u, self.floor), 1.0), lambda x: 1.0 - x,
                           lambda x, q: -np.log(x) if q == 0.0 else (1.0 - x ** q) / q)

    def deriv(self, u: np.ndarray) -> np.ndarray:
        return self._per_q(np.minimum(np.maximum(u, PsiSpec.clamp_epsilon), 1.0),
                           lambda x: np.full(x.shape, -1.0),
                           lambda x, q: -1.0 / x if q == 0.0 else -(x ** (q - 1.0)))


@functools.cache
def _column(spec: PsiSpec) -> _PsiColumn:
    """A PsiSpec's paired one-model column, built once per spec."""
    return _PsiColumn(spec, True)


def _psi_column(psi) -> _PsiColumn:
    """The column a Psi kernel runs: a PsiSpec's paired one-model column, or a stack's."""
    psi = _column(psi) if isinstance(psi, PsiSpec) else psi
    if not isinstance(psi, _PsiColumn):
        raise ValueError(f"psi must be a PsiSpec or a LossSelector.stack column, got {psi!r}")
    return psi


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


def check_int(value, name: str, least: int) -> None:
    """Raises ValueError naming the argument unless the value is an integer
    (not a bool) of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def check_number(value, name: str, least: float) -> None:
    """Raises ValueError naming the argument unless the value is a finite real
    number (not a bool) of at least ``least``."""
    if (isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating))
            or not least <= value < np.inf):   # NaN fails: its comparisons are false
        raise ValueError(f"{name} must be finite and >= {least}, got {value!r}")


def as_scores(scores) -> np.ndarray:
    """Scores as a float array; a NaN or infinite score is an error."""
    s = np.asarray(scores, dtype=float)
    if not np.isfinite(s).all():
        raise ValueError("invalid scores")
    return s


def check_array(value, name: str, least: float = -np.inf, most: float = np.inf) -> np.ndarray:
    """The value as a float array; raises ValueError naming the argument unless it
    holds numbers (not strings or bools), each finite and in [least, most]. It makes
    one isfinite pass, then a min or a max only for a bound that it is given."""
    a = np.asarray(value)
    if (a.dtype.kind not in "iuf" or not np.isfinite(a).all()
            or least > -np.inf and a.min(initial=least) < least
            or most < np.inf and a.max(initial=most) > most):
        raise ValueError(f"{name} must lie in [{least}, {most}] and be finite numbers")
    return a.astype(float, copy=False)


def softmax(scores) -> np.ndarray:
    """Stable softmax over the last axis (max-shifted before exponentiation)."""
    s = as_scores(scores)
    if s.ndim == 0 or s.shape[-1] == 0:
        raise ValueError(f"scores need a nonempty last axis, got shape {s.shape}")
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


def _label_slots(y: np.ndarray) -> np.ndarray:
    """Each row's label slot in the flat view of a class-major ``(width, [S,] m)``
    array: one index array, which numpy reads several times faster than a
    tuple of them."""
    return y.T * y.size + np.arange(y.size).reshape(y.shape[::-1])


def _argmax(s: np.ndarray) -> np.ndarray:
    """The argmax over the last axis by a compare over the class-major rows
    ``s.T``; the strict compare breaks ties to the lowest index."""
    st = s.T
    best, pred = st[0], np.zeros(st.shape[1:], dtype=int)
    for k in range(1, len(st)):
        np.maximum(pred, (st[k] > best) * k, out=pred)   # exact: pred < k here
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
    out = (pred != y).astype(float)
    out[defer] = c[(*np.nonzero(defer), pred[defer] - shape.n)]
    return out


def two_stage_deferral_loss_batch(scores, costs) -> np.ndarray:
    """Two-stage deferral loss: cost of the expert with the highest score."""
    s, c = _two_stage_inputs(scores, costs)
    pred = _argmax(s)
    pred += np.arange(0, c.size, c.shape[-1]).reshape(pred.shape)   # its row's flat offset
    return c.reshape(-1).take(pred)


# ---------------------------------------------------------------------------
# single-stage surrogates
# ---------------------------------------------------------------------------


def _single_stage_terms(scores, y, costs, shape: ProblemShape, psi):
    """The comp-sum values and their class-major terms: the column psi (a
    PsiSpec stands for its paired column), the ``(width, [S,] m)`` softmax
    p, the label slots, the label mass u0 ``([S,] m)``, the expert masses uj
    ``(n_e, [S,] m)`` and their brackets a0 and wj."""
    psi = _psi_column(psi)
    s, y, c = _labeled_inputs(scores, y, costs, shape)
    p = _class_softmax(s)
    at = _label_slots(y)
    ct = np.ascontiguousarray(c.T)
    u0 = p.reshape(-1)[at]                   # softmax mass on the true label
    # paired: the mass on {label, expert j} and a0 (may be negative; kept
    # as-is); unpaired: each expert's own mass and 1
    uj = psi.paired * u0 + p[shape.n:]
    a0 = np.where(psi.paired, ct.sum(axis=0) + 1.0 - shape.n_e, 1.0)
    wj = 1.0 - ct
    label, experts = _bracketed(psi.value, psi, u0, uj, a0, wj)
    values = label + experts.sum(axis=0)
    return values.T, (psi, p, at, u0, uj, a0, wj)


def _bracketed(f, psi: _PsiColumn, u0: np.ndarray, uj: np.ndarray, a0, wj: np.ndarray) -> tuple:
    """``a0 f(u0)`` and ``wj f(uj)`` for ``f`` psi's value or deriv; a column of
    several q takes u0 and uj as one array, halving its per-q work."""
    if psi.only is not None:
        return a0 * f(u0), wj * f(uj)
    both = f(np.concatenate((u0[None], uj)))
    return a0 * both[0], wj * both[1:]


def surrogate_single_batch(scores, y, costs, shape: ProblemShape, psi) -> np.ndarray:
    """Comp-sum deferral surrogate: the miss bracket applied to the true-label
    softmax mass plus per-expert brackets applied to pairwise masses."""
    return _single_stage_terms(scores, y, costs, shape, psi)[0]


def surrogate_single_with_grad_batch(scores, y, costs, shape: ProblemShape,
                                     psi) -> tuple[np.ndarray, np.ndarray]:
    """Loss and score gradient from a single softmax pass: the one kernel of
    the surrogate family and the baselines, on one model or a stack."""
    loss, (psi, p, at, u0, uj, a0, wj) = _single_stage_terms(scores, y, costs, shape, psi)
    # the coefficients of the label term and of each expert term
    p0, pj = _bracketed(psi.deriv, psi, u0, uj, a0, wj)
    base = -(p0 * u0 + (pj * uj).sum(axis=0))
    grad = p * base
    # paired expert terms hold the label's mass
    grad.reshape(-1)[at] += u0 * (p0 + psi.paired * pj.sum(axis=0))
    grad[shape.n:] += p[shape.n:] * pj
    return loss, _row_major(grad)


_MAE = PsiSpec(q=1.0)
_LOG = PsiSpec(q=0.0)


def surrogate_mae_batch(scores, y, costs, shape: ProblemShape) -> np.ndarray:
    """The q = 1 member of the surrogate family; same code path as
    :func:`surrogate_single_batch` so values are bit-identical."""
    return surrogate_single_batch(scores, y, costs, shape, _MAE)


def baseline_mao_with_grad_batch(scores, y, costs, shape: ProblemShape,
                                 psi: PsiSpec) -> tuple[np.ndarray, np.ndarray]:
    """Mao et al.'s comp-sum baseline, the unpaired comp-sum rows; at q = 0 it
    is the multi-expert cross-entropy of Verma et al."""
    return surrogate_single_with_grad_batch(scores, y, costs, shape, _PsiColumn(psi, False))


def baseline_verma_with_grad_batch(scores, y, costs, shape: ProblemShape) -> tuple[np.ndarray, np.ndarray]:
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


def expert_brackets(costs: np.ndarray, axis: int = -1) -> np.ndarray:
    """Per-expert coefficients: sum of the other experts' costs minus n_e - 2.
    ``axis`` is the axis that runs over the n_e experts."""
    c = np.atleast_2d(np.asarray(costs, dtype=float))
    return c.sum(axis=axis, keepdims=True) - c - (c.shape[axis] - 2)


def _psi_terms(scores, costs, psi):
    """The surrogate values, and the column psi and the class-major
    ``(n_e, [S,] m)`` brackets and softmax."""
    psi = _psi_column(psi)
    s, c = _two_stage_inputs(scores, costs)
    if s.shape[-1] < 2:
        raise ValueError("two-stage surrogate requires at least 2 experts")
    b = expert_brackets(np.ascontiguousarray(c.T), axis=0)
    p = _class_softmax(s)
    return (b * psi.value(p)).sum(axis=0).T, (psi, b, p)


def two_stage_surrogate_psi_batch(scores, costs, psi: PsiSpec) -> np.ndarray:
    """Multiple-expert comp-sum surrogate over the expert softmax."""
    return _psi_terms(scores, costs, psi)[0]


def two_stage_surrogate_psi_with_grad_batch(scores, costs, psi: PsiSpec) -> tuple[np.ndarray, np.ndarray]:
    loss, (psi, b, p) = _psi_terms(scores, costs, psi)
    q = b * psi.deriv(p) * p
    return loss, _row_major(q - p * q.sum(axis=0))


# ---------------------------------------------------------------------------
# the loss table and the scalar forms
# ---------------------------------------------------------------------------

# name -> (stage, spec, kernel, paired): "psi" or "phi" for the spec a loss
# takes, a PsiSpec for the one a loss fixes, None for a target loss, which
# takes no spec and has no value-and-gradient kernel (named here, looked up on
# losses); the baselines are the unpaired rows of the comp-sum kernel
_COMP_SUM = "surrogate_single_with_grad_batch"
_LOSSES = {
    "surrogate_single": ("single", "psi", _COMP_SUM, True),
    "surrogate_mae": ("single", _MAE, _COMP_SUM, True),
    "baseline_verma": ("single", _LOG, _COMP_SUM, False),
    "baseline_mao": ("single", "psi", _COMP_SUM, False),
    "two_stage_phi": ("two", "phi", "two_stage_surrogate_phi_with_grad_batch", True),
    "two_stage_psi": ("two", "psi", "two_stage_surrogate_psi_with_grad_batch", True),
    "deferral": ("single", None, None, True),
    "two_stage_deferral": ("two", None, None, True),
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

    @property
    def paired(self) -> bool:
        return _LOSSES[self.name][3]

    @staticmethod
    def stack(selectors) -> "PsiSpec | PhiSpec | _PsiColumn | None":
        """The spec that one model, or a stack, with these selectors passes to
        their shared kernel: the one spec they share, else a column."""
        specs = [(sel.phi or sel.psi, sel.paired) for sel in selectors]
        if len(set(specs)) > 1:
            return _PsiColumn(*(list(column) for column in zip(*specs)))
        spec, paired = specs[0]
        return spec if paired or spec is None else _PsiColumn(spec, False)


def _one_row(kernel):
    """The scalar form of a batch kernel, a float: it takes the kernel's arguments by
    position or keyword, with one score vector, label and cost row (costs checked)."""
    signature = inspect.signature(kernel)

    def one_row(*args, **kwargs):
        given = signature.bind(*args, **kwargs).arguments
        given["costs"] = check_array(given["costs"], "costs", 0.0, 1.0)
        return float(kernel(**{name: [value] if name in ("scores", "y", "costs") else value
                               for name, value in given.items()})[0])

    one_row.__name__ = one_row.__qualname__ = kernel.__name__.removesuffix("_batch")
    one_row.__doc__ = f"One row of :func:`{kernel.__name__}`, as a float."
    return one_row


deferral_loss = _one_row(deferral_loss_batch)
two_stage_deferral_loss = _one_row(two_stage_deferral_loss_batch)
surrogate_single = _one_row(surrogate_single_batch)
surrogate_mae = _one_row(surrogate_mae_batch)
two_stage_surrogate_phi = _one_row(two_stage_surrogate_phi_batch)
two_stage_surrogate_psi = _one_row(two_stage_surrogate_psi_batch)
