"""Exact computations on finite-support tasks.

Everything here works on a :class:`DiscreteTask`, a finite-support
distribution on which expectations, conditional regrets, Bayes actions and
minimizability gaps are computed by exact summation. The bound verifiers
check the per-point and aggregated consistency inequalities; a slack below
``-SLACK_FLOOR`` counts as a genuine violation, anything above it as
floating-point noise, and a NaN or infinite slack as a violation. Per-point
functions take ``k``: an int gives that point's value, any other index
(``slice(None)``, an index array) those points' values on a leading axis.
Hypotheses stacked on leading axes, ``(H, K, width)``, get one value per
hypothesis on those axes from the per-point oracles and the bound verifiers.
Tasks of one shape stack the same way, ``mu (T, K)``: a stacked task takes
hypotheses that lead with its task axes, ``(T, H, K, width)``, and the
report of the pair holds ``report[t, h]``.
"""

from __future__ import annotations

import copy
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from . import losses
from .losses import LossSelector, PhiSpec, ProblemShape, PsiSpec

__all__ = [
    "SLACK_FLOOR",
    "DiscreteTask",
    "TabularHypothesis",
    "RegretReport",
    "NoiseProfile",
    "augmented_values",
    "expected_costs",
    "bayes_deferral",
    "bayes_two_stage",
    "conditional_error",
    "conditional_min_surrogate",
    "conditional_regret_surrogate",
    "minimizability_gap",
    "empirical_excess",
    "verify_bound_single_mae",
    "verify_bound_two_stage",
    "verify_bound_two_expert_phi",
    "minimal_margin",
    "fit_tsybakov_B",
    "verify_lemma_noise",
    "verify_enhanced_bound",
]

SLACK_FLOOR = 1e-9

# the target loss of each stage
_DEFERRAL = {"single": LossSelector("deferral"), "two": LossSelector("two_stage_deferral")}


@dataclass
class DiscreteTask:
    """Finite-support distribution: point marginals, label conditionals and
    a per-point, per-label, per-expert cost tensor. Tasks of one shape may
    be stacked on leading task axes."""

    mu: np.ndarray           # (K,), or (T, K) for T stacked tasks
    conditionals: np.ndarray  # (K, n), after the same task axes
    costs: np.ndarray        # (K, n, n_e), likewise
    shape: ProblemShape

    def __post_init__(self) -> None:
        if not isinstance(self.shape, ProblemShape):
            raise ValueError(f"shape must be a ProblemShape, got {self.shape!r}")
        for name in ("mu", "conditionals", "costs"):   # probabilities and costs
            setattr(self, name, losses.check_array(getattr(self, name), name, 0.0, 1.0))
        for name in ("mu", "conditionals"):
            if (np.abs(getattr(self, name).sum(axis=-1) - 1.0) > 1e-12).any():
                raise ValueError(f"{name} must sum to 1 over its last axis")
        if self.conditionals.shape != self.mu.shape + (self.shape.n,):
            raise ValueError("conditionals shape mismatch")
        if self.costs.shape != self.mu.shape + (self.shape.n, self.shape.n_e):
            raise ValueError("cost tensor shape mismatch")

    @classmethod
    def stack(cls, tasks: Sequence["DiscreteTask"]) -> "DiscreteTask":
        """Tasks of one shape on a new leading task axis; each was checked
        when it was made, so the stack is not checked again."""
        if not tasks or any(t.shape != tasks[0].shape for t in tasks):
            raise ValueError("tasks must be nonempty and share n and n_e")
        stacked = copy.copy(tasks[0])
        stacked.mu, stacked.conditionals, stacked.costs = (
            np.stack([getattr(t, name) for t in tasks]) for name in ("mu", "conditionals", "costs"))
        return stacked

    @property
    def num_points(self) -> int:
        return self.mu.shape[-1]


@dataclass
class TabularHypothesis:
    """One score vector per support point; realizes the complete class."""

    scores: np.ndarray  # (K, width), or (H, K, width) for H stacked hypotheses

    def __post_init__(self) -> None:
        self.scores = losses.check_array(self.scores, "scores")
        if self.scores.ndim < 2 or 0 in self.scores.shape[-2:]:
            raise ValueError(f"scores must hold one score row per point, got {self.scores.shape}")

    def action(self, k):
        """Argmax action at point k (or at each point of an index k)."""
        return np.argmax(self.scores[..., k, :], axis=-1)


def _aligned(task: DiscreteTask, hyp: TabularHypothesis, stage: str) -> DiscreteTask:
    """The task with a unit axis after its task axes for each further
    hypothesis axis, so that its arrays broadcast against the scores."""
    want = task.shape.width(stage)
    lead, hyp_lead = task.mu.shape[:-1], hyp.scores.shape[:-2]
    if hyp.scores.shape[-2:] != (task.num_points, want):
        raise ValueError(f"hypothesis shape {hyp.scores.shape} != (..., {task.num_points}, {want})")
    if len(lead) > len(hyp_lead) or any(a not in (1, b) for a, b in zip(lead, hyp_lead)):
        raise ValueError(f"hypothesis shape {hyp.scores.shape} does not lead with the "
                         f"task axes {lead}")
    if len(lead) == len(hyp_lead):
        return task
    units = (1,) * (len(hyp_lead) - len(lead))
    view = copy.copy(task)
    view.mu, view.conditionals, view.costs = (a.reshape(lead + units + a.shape[len(lead):])
                                              for a in (task.mu, task.conditionals, task.costs))
    return view


def _one_hypothesis(hyp: TabularHypothesis) -> TabularHypothesis:
    if hyp.scores.ndim != 2:
        raise ValueError(f"needs one hypothesis, got a stack of shape {hyp.scores.shape}")
    return hyp


def _per_point(x):
    """A Python scalar for a single value, the array for an index of them."""
    return np.asarray(x).item() if np.ndim(x) == 0 else x


def _dot(p: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``p @ v`` over the last axis, broadcast, rounded as the 1-D product is."""
    return np.matmul(p[..., None, :], v[..., :, None])[..., 0, 0]


def _vecmat(p: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``p @ m`` per point, rounded as the 1-D product is."""
    return np.matmul(p[..., None, :], m)[..., 0, :]


def _pick(values: np.ndarray, actions) -> np.ndarray:
    values = np.broadcast_to(values, actions.shape + values.shape[-1:])
    return np.take_along_axis(values, actions[..., None], axis=-1)[..., 0]


def augmented_values(task: DiscreteTask, k) -> np.ndarray:
    """Augmented action values at point k: p(y|x) for labels, then the
    expected agreement mass sum_y p(y|x)(1 - c_j(x, y)) for each expert."""
    p = task.conditionals[..., k, :]
    p_expert = (p[..., :, None] * (1.0 - task.costs[..., k, :, :])).sum(axis=-2)
    return np.concatenate([p, p_expert], axis=-1)


def expected_costs(task: DiscreteTask, k) -> np.ndarray:
    return _vecmat(task.conditionals[..., k, :], task.costs[..., k, :, :])


def _action_values(task: DiscreteTask, k, stage: str) -> tuple[float, np.ndarray]:
    """A stage's action values at point k, best highest, and the offset whose
    ``offset - values`` are the target's conditional errors: (1.0, augmented
    values) or (0.0, -expected costs), exact as -x and 0 - (-x) round nothing."""
    if not isinstance(task, DiscreteTask):
        raise ValueError(f"task must be a DiscreteTask, got {task!r}")
    task.shape.width(stage)   # refuses an unknown stage
    if stage == "single":
        return 1.0, augmented_values(task, k)
    return 0.0, -expected_costs(task, k)


def bayes_deferral(task: DiscreteTask) -> TabularHypothesis:
    """Per-point argmax over the action values; ties to the lowest index."""
    acts = np.argmax(_action_values(task, slice(None), "single")[1], axis=-1)
    return TabularHypothesis(np.eye(task.shape.augmented_size)[acts])


def bayes_two_stage(task: DiscreteTask) -> TabularHypothesis:
    acts = np.argmax(_action_values(task, slice(None), "two")[1], axis=-1)
    return TabularHypothesis(np.eye(task.shape.n_e)[acts])


# ---------------------------------------------------------------------------
# conditional surrogate errors and their exact minima
# ---------------------------------------------------------------------------


def _qbar(task: DiscreteTask, k) -> np.ndarray:
    """Expected per-expert bracket coefficients for the two-stage surrogate."""
    b = losses.expert_brackets(task.costs[..., k, :, :])  # (..., n, n_e)
    return _vecmat(task.conditionals[..., k, :], b)


def conditional_error(task: DiscreteTask, hyp: TabularHypothesis, k,
                      loss: LossSelector):
    """Expected loss at point k under the label conditional, for every loss
    of the table: its row's stage, target flag and spec choose the path."""
    try:
        np.empty(task.num_points)[k]   # k indexes the points as every per-point array does
    except IndexError:
        raise ValueError(f"k must index the task's {task.num_points} points, got {k!r}") from None
    task = _aligned(task, hyp, loss.stage)
    s = hyp.scores[..., k, :]
    if loss.is_target:
        offset, values = _action_values(task, k, loss.stage)
        out = offset - _pick(values, hyp.action(k))
    elif loss.stage == "single":
        # every comp-sum row: one row per (hypothesis, point, label), the scores against that label
        lead = s.shape[:-1] + (task.shape.n,)
        rows = np.broadcast_to(s[..., None, :], lead + s.shape[-1:]).reshape(-1, s.shape[-1])
        labels = np.broadcast_to(np.arange(task.shape.n), lead).ravel()
        costs = np.broadcast_to(task.costs[..., k, :, :], lead + task.costs.shape[-1:])
        vals = losses.surrogate_single_batch(rows, labels, costs.reshape(-1, task.shape.n_e),
                                             task.shape, LossSelector.stack([loss]))
        out = _dot(task.conditionals[..., k, :], vals.reshape(lead))
    elif loss.psi is not None:
        out = _dot(_qbar(task, k), loss.psi.value(losses.softmax(s)))
    else:
        # linear in the costs: the terms at the expected costs, which the
        # checked task bounds but whose sums may round just above 1; the terms
        # reject a width other than 2
        out = losses._phi_terms(s, np.broadcast_to(expected_costs(task, k), s.shape), loss.phi)[0]
    return _per_point(out)


def conditional_min_surrogate(task: DiscreteTask, k, loss: LossSelector):
    """Infimum of the conditional surrogate error over all score vectors. A
    target's is its best action's error, and so is surrogate_mae's, whose
    brackets a0_y + sum_j (1 - c_yj) sum to 1; the paired comp-sum rows at
    q < 1 have no closed form. Every other row's is its spec's least: a
    baseline's Psi form weighs the augmented values, as qbar would."""
    single = loss.stage == "single"
    if loss.is_target or single and loss.paired and loss.psi.q == 1.0:
        offset, values = _action_values(task, k, loss.stage)
        out = offset - values.max(axis=-1)
    elif single and not loss.paired:
        out = loss.psi.least(augmented_values(task, k))
    elif single:
        raise ValueError(f"no exact oracle for loss {loss.name!r} at q = {loss.psi.q}")
    elif loss.psi is not None:
        out = loss.psi.least(_qbar(task, k))
    else:
        out = loss.phi.least(expected_costs(task, k))
    return _per_point(out)


def conditional_regret_surrogate(task: DiscreteTask, hyp: TabularHypothesis,
                                 k, loss: LossSelector):
    task = _aligned(task, hyp, loss.stage)
    return conditional_error(task, hyp, k, loss) - conditional_min_surrogate(task, k, loss)


# ---------------------------------------------------------------------------
# gaps, excesses
# ---------------------------------------------------------------------------


def empirical_excess(task: DiscreteTask, hyp: TabularHypothesis,
                     loss: LossSelector) -> float:
    """Excess error over the tabular-class optimum, by exact summation."""
    _one_hypothesis(hyp)
    return float(task.mu @ conditional_regret_surrogate(task, hyp, slice(None), loss))


def minimizability_gap(task: DiscreteTask, loss: LossSelector,
                       candidates: list[TabularHypothesis] | None = None) -> float:
    """Best-in-class error minus the expectation of the per-point best
    conditional error. The class is the tabular one when ``candidates`` is
    None, where the gap is zero on finite support, and the fixed family of
    the candidates otherwise."""
    if candidates is None:
        # the class optimum decouples across support points, so it equals the
        # expectation of the per-point minima exactly
        return 0.0
    if not candidates:
        raise ValueError("a fixed family requires a nonempty candidate set")
    errors = [conditional_error(task, _one_hypothesis(h), slice(None), loss) for h in candidates]
    best_overall = min(float(task.mu @ e) for e in errors)
    return float(best_overall - task.mu @ np.min(errors, axis=0))


# ---------------------------------------------------------------------------
# bound verifiers
# ---------------------------------------------------------------------------


@np.errstate(invalid="ignore")  # a NaN slack from a non-finite side fails
def _holds(lhs, rhs, premise=True):
    """The one verdict rule: lhs <= rhs holds where its slack rhs - lhs is finite and
    at least -SLACK_FLOOR, so broken arithmetic cannot pass; where the premise is
    unmet the bound claims nothing, and it holds where lhs is finite."""
    slack = rhs - lhs
    return np.where(premise, (slack >= -SLACK_FLOOR) & (slack < np.inf), np.isfinite(lhs))


class _Verdict:
    """A check that passes when it counts no violations."""

    @property
    def ok(self) -> bool:
        return self.violations == 0


@dataclass
class RegretReport(_Verdict):
    """Per-point bound check plus the aggregated excess-error statement, on
    tasks that meet the bound's assumptions (a verifier refuses any other).
    Stacked tasks and hypotheses lead every field: ``report[h]``, or
    ``report[t, h]`` for a task stack, is one report."""

    target_regrets: np.ndarray   # (K,), (H, K) or (T, H, K)
    surrogate_regrets: np.ndarray
    rhs: np.ndarray
    excess_target: float         # a float, or an array over the leading axes
    excess_surrogate: float
    aggregate_rhs: float
    label: str = ""

    def __getitem__(self, index) -> "RegretReport":
        aggregates = (self.excess_target, self.excess_surrogate, self.aggregate_rhs)
        return RegretReport(self.target_regrets[index], self.surrogate_regrets[index],
                            self.rhs[index], *(x[index].item() for x in aggregates), self.label)

    @np.errstate(invalid="ignore")  # a NaN slack from a non-finite side is a violation
    def table(self) -> tuple[np.ndarray, ...]:
        """The CSV columns of each report over (..., K + 1): point (-1 for
        the aggregate row, which comes last), lhs, rhs, slack and verdict."""
        lhs = np.concatenate([self.target_regrets, np.expand_dims(self.excess_target, -1)], -1)
        rhs = np.concatenate([self.rhs, np.expand_dims(self.aggregate_rhs, -1)], -1)
        ok = _holds(lhs, rhs)
        points = np.broadcast_to(np.r_[:lhs.shape[-1] - 1, -1], lhs.shape)
        return points, lhs, rhs, rhs - lhs, np.where(ok, "ok", "violation")

    @property
    def violations(self) -> int:
        return int(np.count_nonzero(self.table()[-1] == "violation"))

    def csv_rows(self, task_id: str) -> list[tuple]:
        """One row per point, then the aggregate row, of one report."""
        if np.ndim(self.excess_target):
            raise ValueError(f"csv_rows takes one report: use report[h] (report[t, h] for a "
                             f"task stack) of this stack of {np.shape(self.excess_target)}")
        return [(task_id, *row) for row in zip(*(c.tolist() for c in self.table()))]


def _per_point_regrets(task, hyp, target: LossSelector, surrogate: LossSelector):
    tgt = conditional_regret_surrogate(task, hyp, slice(None), target)
    sur = conditional_regret_surrogate(task, hyp, slice(None), surrogate)
    return tgt, np.maximum(sur, 0.0)


def _premise(holds, message: str) -> None:
    """Refuses a task that breaks a bound's assumption: holds is one bool per task
    of a stack (or one), and the ValueError names a stack's first failing task."""
    failed = np.argwhere(~holds)
    if len(failed):
        where = f" for task {tuple(failed[0].tolist())}" if np.ndim(holds) else ""
        raise ValueError(message + where)


def _regret_report(task, hyp, target: LossSelector, surrogate: LossSelector,
                   gamma, label: str) -> RegretReport:
    """Bound target regret <= gamma(surrogate regret), per point and on the
    mu-weighted excesses, for each stacked task and hypothesis. Per-task
    constants in gamma carry a trailing unit point axis, and the excesses
    get one to meet them."""
    task = _aligned(task, hyp, target.stage)
    tgt, sur = _per_point_regrets(task, hyp, target, surrogate)
    excess_sur = _dot(task.mu, sur)
    return RegretReport(
        target_regrets=tgt, surrogate_regrets=sur, rhs=gamma(sur),
        excess_target=_per_point(_dot(task.mu, tgt)), excess_surrogate=_per_point(excess_sur),
        aggregate_rhs=_per_point(gamma(excess_sur[..., None])[..., 0]), label=label)


def verify_bound_single_mae(task: DiscreteTask, hyp: TabularHypothesis) -> RegretReport:
    """Per-point and aggregated check of the (n + n_e)-factor bound tying the
    deferral regret to the q=1 surrogate regret."""
    factor = task.shape.augmented_size
    return _regret_report(task, hyp, _DEFERRAL["single"], LossSelector("surrogate_mae"),
                          lambda t: factor * t, "single_mae")


def two_stage_gamma(q: float, cbar_max, n_e: int):
    """Concave transform for the multiple-expert two-stage bound."""
    c_up = (n_e - 1) * cbar_max - n_e + 2
    if q == 1.0:
        return lambda t: n_e * t
    return lambda t: 2.0 * np.sqrt(n_e ** q) * np.sqrt(c_up) * np.sqrt(t)


def verify_bound_two_stage(task: DiscreteTask, hyp: TabularHypothesis,
                           q: float) -> RegretReport:
    """Two-stage multiple-expert bound with the cost-dependent constant and
    the q-dependent square-root / linear transform. Every leave-one-out cost
    sum of every task must reach n_e - 2, or the task is refused."""
    _premise(np.all(losses.expert_brackets(task.costs) >= 0.0, axis=(-3, -2, -1)),
             "assumption sum of other experts' costs >= n_e - 2 fails")
    task = _aligned(task, hyp, "two")
    cbar_max = task.costs.max(axis=(-3, -2, -1))[..., None]
    return _regret_report(task, hyp, _DEFERRAL["two"],
                          LossSelector("two_stage_psi", psi=PsiSpec(q=q)),
                          two_stage_gamma(q, cbar_max, task.shape.n_e), f"two_stage_q{q}")


def verify_bound_two_expert_phi(task: DiscreteTask, hyp: TabularHypothesis,
                                phi: PhiSpec) -> RegretReport:
    """Two-expert bound: cost-range prefactors around the binary-classification
    square-root transform (logistic/exponential margin losses). Its constant divides
    by the sum of the per-expert lower costs: a task whose sum is 0 or NaN is refused."""
    surrogate = LossSelector("two_stage_phi", phi=phi)   # refuses a phi that is no PhiSpec
    if task.shape.n_e != 2:
        raise ValueError("two-expert bound requires n_e = 2")
    if phi.kind not in (losses.PhiKind.LOGISTIC, losses.PhiKind.EXPONENTIAL):
        raise ValueError("square-root transform applies to logistic/exponential only")
    lead = task.mu.shape[:-1]
    task = _aligned(task, hyp, "two")
    # per task: sums of the per-expert lower and upper cost bounds
    denom = task.costs.min(axis=(-3, -2)).sum(axis=-1, keepdims=True)
    scale = task.costs.max(axis=(-3, -2)).sum(axis=-1, keepdims=True)
    _premise((denom > 0.0).reshape(lead), "costs: the per-expert lower costs must not sum to 0")
    return _regret_report(task, hyp, _DEFERRAL["two"], surrogate,
                          lambda t: scale * np.sqrt(2.0 * t / denom),
                          f"two_expert_{phi.kind.value}")


# ---------------------------------------------------------------------------
# margins, noise profiles, enhanced bounds
# ---------------------------------------------------------------------------


def minimal_margin(task: DiscreteTask, stage: str) -> np.ndarray:
    """Gap between the best and second-best action value at each point."""
    v = np.sort(_action_values(task, slice(None), stage)[1], axis=-1)
    return v[..., -1] - v[..., -2]


def _noise_support(alpha: float, margins, marginals) -> tuple[np.ndarray, np.ndarray]:
    """The margins and marginals of a noise profile, checked with its alpha;
    a bad value raises ValueError naming its field."""
    losses.check_number(alpha, "alpha", 0.0)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    margins = losses.check_array(margins, "margins")
    marginals = losses.check_array(marginals, "marginals", 0.0)
    if not margins.size or np.any(margins <= 0.0):
        raise ValueError("margins must be nonempty and > 0, with no zero margin")
    if marginals.shape != margins.shape:
        raise ValueError(f"marginals shape {marginals.shape} != margins shape {margins.shape}")
    return margins, marginals


def _check_noise(profile: "NoiseProfile", margins, marginals, where: str) -> None:
    """Raise unless Pr[margin <= t] <= B t^(alpha/(1-alpha)) at each support point t."""
    if not isinstance(profile, NoiseProfile):
        raise ValueError(f"profile must be a NoiseProfile, got {profile!r}")
    expo = profile.alpha / (1.0 - profile.alpha)
    for t in np.unique(margins):
        if not marginals[margins <= t].sum() <= profile.B * t ** expo + 1e-12:   # NaN fails
            raise ValueError(f"profile: noise inequality violated at a support point of {where}")


@dataclass
class NoiseProfile:
    """Fitted low-noise constants: Pr[margin <= t] <= B t^(alpha/(1-alpha)).
    alpha must lie in (0, 1), B be finite and >= 0, the margins be nonempty,
    finite and > 0, and the marginals finite, >= 0 and of the margins' shape."""

    alpha: float
    B: float
    margins: np.ndarray
    marginals: np.ndarray
    c_const: float = field(init=False)

    def __post_init__(self) -> None:
        self.margins, self.marginals = _noise_support(self.alpha, self.margins, self.marginals)
        losses.check_number(self.B, "B", 0.0)
        self.c_const = self.B ** (1.0 - self.alpha) / self.alpha ** self.alpha
        _check_noise(self, self.margins, self.marginals, "its margins")


def fit_tsybakov_B(margins: np.ndarray, marginals: np.ndarray, alpha: float) -> NoiseProfile:
    """Tightest B for the given margins; the step-function supremum of
    Pr[margin <= t] / t^(alpha/(1-alpha)) is attained at support points."""
    margins, marginals = _noise_support(alpha, margins, marginals)
    expo = alpha / (1.0 - alpha)
    b = max(float(marginals[margins <= t].sum()) / t ** expo
            for t in np.unique(margins))
    return NoiseProfile(alpha=alpha, B=b, margins=margins, marginals=marginals)


@dataclass
class ChainReport(_Verdict):
    lhs: float
    middle: float
    rhs: float
    label: str = ""

    @property
    def violations(self) -> int:
        return int(not _holds(self.lhs, self.middle)) + int(not _holds(self.middle, self.rhs))


def _disagreement(task: DiscreteTask, hyp: TabularHypothesis, stage: str) -> np.ndarray:
    bayes = np.argmax(_action_values(task, slice(None), stage)[1], axis=-1)
    return (hyp.action(slice(None)) != bayes).astype(float)


def verify_lemma_noise(task: DiscreteTask, hyp: TabularHypothesis,
                       profile: NoiseProfile, stage: str) -> ChainReport:
    """Checks Pr[disagree] <= c E[margin * disagree]^alpha <= c excess^alpha;
    a profile whose noise condition fails on the task's margins raises."""
    _one_hypothesis(hyp)
    margins = minimal_margin(task, stage)
    _check_noise(profile, margins, task.mu, f"the task's {stage}-stage margins")
    disagree = _disagreement(task, hyp, stage)
    lhs = float(task.mu @ disagree)
    middle = profile.c_const * float(task.mu @ (margins * disagree)) ** profile.alpha
    rhs = profile.c_const * empirical_excess(task, hyp, _DEFERRAL[stage]) ** profile.alpha
    return ChainReport(lhs=lhs, middle=middle, rhs=rhs, label=f"noise_{stage}")


@dataclass
class EnhancedReport(_Verdict):
    lhs: float
    rhs: float
    premise_met: bool
    label: str = ""

    @property
    def violations(self) -> int:
        # an unmet premise leaves rhs undefined (inf): only a non-finite lhs is a violation
        return int(not _holds(self.lhs, self.rhs, self.premise_met))


def verify_enhanced_bound(task: DiscreteTask, hyp: TabularHypothesis,
                          surrogate: LossSelector, s: float, mode: str,
                          profile: NoiseProfile | None = None) -> EnhancedReport:
    """Hypothesis-dependent-factor bound (mode='theorem_multi') and the
    noise-sharpened exponent bound (mode='theorem_mm').

    Both gate on the pointwise premise: target regret <= surrogate
    regret^(1/s) at every support point. Tabular hypotheses make the target
    minimizability gap vanish, as theorem_mm requires; its profile must meet
    the noise condition on the task's margins.
    """
    if mode not in ("theorem_multi", "theorem_mm"):
        raise ValueError(f"mode must be 'theorem_multi' or 'theorem_mm', got {mode!r}")
    if mode == "theorem_mm" and profile is None:
        raise ValueError("profile: theorem_mm requires a fitted NoiseProfile")
    if not isinstance(surrogate, LossSelector) or surrogate.is_target:
        raise ValueError(f"surrogate must be a surrogate LossSelector, got {surrogate!r}")
    _one_hypothesis(hyp)
    losses.check_number(s, "s", 1.0)
    stage = surrogate.stage
    if mode == "theorem_mm":
        _check_noise(profile, minimal_margin(task, stage), task.mu, f"the task's {stage}-stage margins")
    tgt, sur = _per_point_regrets(task, hyp, _DEFERRAL[stage], surrogate)
    # unmet only where a point is known to break it, so NaN cannot skip the check
    premise = not np.any(tgt > sur ** (1.0 / s) + SLACK_FLOOR)
    excess_t = float(task.mu @ tgt)
    excess_s = float(task.mu @ sur)
    if not premise:
        return EnhancedReport(lhs=excess_t, rhs=np.inf, premise_met=False,
                              label=f"{mode}_premise_unmet")
    if mode == "theorem_multi":
        disagree_mass = float(task.mu @ _disagreement(task, hyp, stage))
        # conjugate exponent; s = 1 degenerates to the linear premise itself
        factor = 1.0 if s == 1.0 else disagree_mass ** (1.0 - 1.0 / s)
        rhs = factor * excess_s ** (1.0 / s)
    else:
        denom = s - profile.alpha * (s - 1.0)
        rhs = profile.c_const ** ((s - 1.0) / denom) * excess_s ** (1.0 / denom)
    return EnhancedReport(lhs=excess_t, rhs=float(rhs), premise_met=True, label=mode)
