import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deferkit import oracles
from deferkit.losses import LossSelector, PhiKind, PhiSpec, ProblemShape, PsiSpec, surrogate_single
from deferkit.oracles import (
    ChainReport,
    DiscreteTask,
    EnhancedReport,
    NoiseProfile,
    RegretReport,
    TabularHypothesis,
    _qbar,
    augmented_values,
    bayes_deferral,
    bayes_two_stage,
    conditional_error,
    conditional_min_surrogate,
    conditional_regret_surrogate,
    empirical_excess,
    expected_costs,
    fit_tsybakov_B,
    minimal_margin,
    minimizability_gap,
    verify_bound_single_mae,
    verify_bound_two_expert_phi,
    verify_bound_two_stage,
    verify_enhanced_bound,
    verify_lemma_noise,
)
from deferkit.synthdata import gen_random_discrete_task
from numeric_minima import (
    _project_simplex,
    _project_simplex_rows,
    grid_min_simplex,
    numeric_min_two_stage_psi,
    numeric_min_two_stage_psi_scalar,
)


def one_point_task(p, costs, n_e):
    """Single-support-point task with the given conditional and cost matrix."""
    p = np.asarray(p, dtype=float)
    costs = np.asarray(costs, dtype=float)
    return DiscreteTask(np.array([1.0]), p[None], costs[None],
                        ProblemShape(len(p), n_e))


def test_augmented_values_free_expert():
    # expert with zero cost on both labels gets full agreement mass
    t = one_point_task([0.5, 0.5], [[0.0], [0.0]], 1)
    np.testing.assert_allclose(augmented_values(t, 0), [0.5, 0.5, 1.0])


DEFERRAL = LossSelector("deferral")
TWO_STAGE_DEFERRAL = LossSelector("two_stage_deferral")


def test_conditional_regret_def_hand_value():
    t = one_point_task([0.5, 0.5], [[0.0], [0.0]], 1)
    hyp = TabularHypothesis(np.array([[1.0, 0.0, 0.0]]))  # predicts label 1
    assert conditional_regret_surrogate(t, hyp, 0, DEFERRAL) == pytest.approx(0.5)
    assert conditional_regret_surrogate(t, bayes_deferral(t), 0, DEFERRAL) == 0.0


def test_conditional_regret_def_all_experts_useless():
    t = one_point_task([0.5, 0.5], [[1.0], [1.0]], 1)
    hyp = TabularHypothesis(np.array([[1.0, 0.0, 0.0]]))
    assert conditional_regret_surrogate(t, hyp, 0, DEFERRAL) == pytest.approx(0.0)


def test_bayes_deferral_prefers_dominant_value():
    # p = (0.6, 0.4), expert agreement mass 0.55: predict label 1
    t = one_point_task([0.6, 0.4], [[0.45], [0.45]], 1)
    assert augmented_values(t, 0)[2] == pytest.approx(0.55)
    assert bayes_deferral(t).action(0) == 0


def test_conditional_regret_tdef_hand_values():
    costs = [[0.3, 0.7], [0.3, 0.7]]
    t = one_point_task([0.5, 0.5], costs, 2)
    r = TabularHypothesis(np.array([[0.0, 1.0]]))
    assert conditional_regret_surrogate(t, r, 0, TWO_STAGE_DEFERRAL) == pytest.approx(0.4)
    assert conditional_regret_surrogate(t, bayes_two_stage(t), 0, TWO_STAGE_DEFERRAL) == 0.0
    same = one_point_task([1.0, 0.0], [[0.5, 0.5], [0.5, 0.5]], 2)
    assert conditional_regret_surrogate(same, r, 0, TWO_STAGE_DEFERRAL) == 0.0


def test_two_stage_q0_closed_form_hand_value():
    # costs (1.0, 0.5) at the active label give qbar = (0.5, 1.0)
    t = one_point_task([1.0, 0.0], [[1.0, 0.5], [0.0, 0.0]], 2)
    loss = LossSelector("two_stage_psi", psi=PsiSpec(q=0.0))
    from deferkit.oracles import _qbar
    qbar = _qbar(t, 0)
    expected = -(qbar * np.log(qbar / qbar.sum())).sum()
    assert conditional_min_surrogate(t, 0, loss) == pytest.approx(expected)
    # the documented (2, 1) instance via the numeric minimizer
    [val] = numeric_min_two_stage_psi(np.array([[2.0, 1.0]]), PsiSpec(q=0.0))
    assert val == pytest.approx(3 * np.log(3) - 2 * np.log(2), abs=1e-7)
    assert val == pytest.approx(1.9095, abs=1e-4)


def test_two_stage_q1_vertex_minimum():
    [val] = numeric_min_two_stage_psi(np.array([[2.0, 1.0]]), PsiSpec(q=1.0))
    assert val == pytest.approx(1.0, abs=1e-7)


def test_batched_psi_minimizer_matches_the_scalar_reference():
    # 8 qbar rows per (q, n_e), with costs in [0.75, 1] as in criterion 5
    g = np.random.default_rng(5)
    for q in (0.0, 0.25, 0.5, 0.75):
        psi = PsiSpec(q=q)
        for n_e in (2, 3, 4):
            qbars = np.array([_qbar(one_point_task(g.dirichlet(np.ones(3)),
                                                   g.uniform(0.75, 1.0, (3, n_e)), n_e), 0)
                              for _ in range(8)])
            batched = numeric_min_two_stage_psi(qbars, psi)
            for qbar, got in zip(qbars, batched):
                # bit for bit: a changed step rule that converges to the same
                # minimum still moves the last bits
                assert got == numeric_min_two_stage_psi_scalar(qbar, psi), (q, n_e)
    rows = g.standard_normal((50, 4)) * 3
    for v, got in zip(rows, _project_simplex_rows(rows)):
        np.testing.assert_allclose(got, _project_simplex(v), rtol=0, atol=1e-15)


def test_mae_conditional_min_degenerate():
    t = one_point_task([1.0, 0.0], [[1.0, 1.0], [1.0, 1.0]], 2)
    assert conditional_min_surrogate(t, 0, LossSelector("surrogate_mae")) == pytest.approx(0.0)


def test_minimizability_gap_cases():
    task = gen_random_discrete_task(3, 0)
    loss = LossSelector("deferral")
    assert minimizability_gap(task, loss) == 0.0
    width = task.shape.augmented_size
    g = np.random.default_rng(0)
    single = TabularHypothesis(g.standard_normal((task.num_points, width)))
    assert minimizability_gap(task, loss, [single]) == \
        pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        minimizability_gap(task, loss, [])


def test_minimizability_gap_positive_for_conflicting_family():
    # two points; each constant hypothesis is optimal on exactly one of them
    t = DiscreteTask(np.array([0.5, 0.5]),
                     np.array([[1.0, 0.0], [0.0, 1.0]]),
                     np.ones((2, 2, 1)),
                     ProblemShape(2, 1))
    h0 = TabularHypothesis(np.tile([1.0, 0.0, 0.0], (2, 1)))
    h1 = TabularHypothesis(np.tile([0.0, 1.0, 0.0], (2, 1)))
    gap = minimizability_gap(t, LossSelector("deferral"), [h0, h1])
    assert gap == pytest.approx(0.5)


def test_verify_bound_single_mae_at_bayes():
    task = gen_random_discrete_task(11, 0)
    rep = verify_bound_single_mae(task, bayes_deferral(task))
    assert rep.ok
    assert np.all(rep.target_regrets <= 1e-12)


def test_verify_bound_single_mae_hand_instance():
    t = one_point_task([0.5, 0.5], [[0.0], [0.0]], 1)
    hyp = TabularHypothesis(np.array([[1.0, 0.0, 0.0]]))
    rep = verify_bound_single_mae(t, hyp)
    assert rep.target_regrets[0] == pytest.approx(0.5)
    assert rep.table()[3][0] >= 0.0
    rows = rep.csv_rows("t")
    assert rows[0][-1] == "ok" and rows[-1][1] == -1


def test_verify_bound_two_stage_premise_error():
    # n_e = 3 with a zero cost row violates the leave-one-out premise
    t = one_point_task([1.0, 0.0], [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]], 3)
    hyp = TabularHypothesis(np.zeros((1, 3)))
    with pytest.raises(ValueError, match="n_e - 2"):
        verify_bound_two_stage(t, hyp, 0.5)


def test_verify_bound_two_expert_requires_two():
    task = gen_random_discrete_task(5, 0, ne_max=3, constraint="theorem7_premise")
    if task.shape.n_e == 2:
        task = gen_random_discrete_task(5, 1, ne_max=3, constraint="theorem7_premise")
    hyp = TabularHypothesis(np.zeros((task.num_points, task.shape.n_e)))
    if task.shape.n_e != 2:
        with pytest.raises(ValueError):
            verify_bound_two_expert_phi(task, hyp, PhiSpec(PhiKind.LOGISTIC))


def test_minimal_margin_hand_values():
    t = one_point_task([0.6, 0.4], [[1.0], [1.0]], 1)  # values (0.6, 0.4, 0)
    assert minimal_margin(t, "single")[0] == pytest.approx(0.2)
    tie = one_point_task([0.5, 0.5], [[1.0], [1.0]], 1)
    assert minimal_margin(tie, "single")[0] == pytest.approx(0.0)
    dom = one_point_task([0.6, 0.4], [[0.0], [0.0]], 1)  # expert mass 1
    assert minimal_margin(dom, "single")[0] == pytest.approx(0.4)
    two = one_point_task([1.0, 0.0], [[0.3, 0.7], [0.0, 0.0]], 2)
    assert minimal_margin(two, "two")[0] == pytest.approx(0.4)


def test_fit_tsybakov_hand_values():
    prof = fit_tsybakov_B(np.array([0.2, 0.5]), np.array([0.4, 0.6]), 0.5)
    assert prof.B == pytest.approx(2.0)
    assert prof.c_const == pytest.approx(np.sqrt(2.0) / np.sqrt(0.5))
    single = fit_tsybakov_B(np.array([0.25]), np.array([1.0]), 0.5)
    assert single.B == pytest.approx(4.0)
    big = fit_tsybakov_B(np.array([1.0, 2.0]), np.array([0.5, 0.5]), 0.5)
    assert big.B <= 1.0


def test_fit_tsybakov_inequality_on_dense_grid():
    g = np.random.default_rng(8)
    margins = g.uniform(0.05, 1.0, size=6)
    marginals = g.dirichlet(np.ones(6))
    prof = fit_tsybakov_B(margins, marginals, 0.4)
    expo = 0.4 / 0.6
    for t in np.linspace(1e-6, margins.max(), 1000):
        prob = marginals[margins <= t].sum()
        assert prob <= prof.B * t ** expo + 1e-9


def test_fit_tsybakov_zero_margin_error():
    with pytest.raises(ValueError, match="zero margin"):
        fit_tsybakov_B(np.array([0.0, 0.5]), np.array([0.5, 0.5]), 0.5)
    with pytest.raises(ValueError):
        fit_tsybakov_B(np.array([0.5]), np.array([1.0]), 1.5)


_GOOD_NOISE = dict(alpha=0.5, B=2.0, margins=np.array([0.25, 0.5]), marginals=np.array([0.5, 0.5]))


@pytest.mark.parametrize("field, value", [
    ("alpha", 0.0), ("alpha", -0.5), ("alpha", 1.0), ("alpha", float("nan")),
    ("B", float("nan")), ("B", float("inf")), ("B", -1.0),
    ("margins", np.array([])), ("margins", np.array([0.25, np.nan])),
    ("margins", np.array([0.25, np.inf])), ("margins", np.array([0.0, 0.5])),
    ("margins", np.array([-0.25, 0.5])), ("marginals", np.array([1.0])),
    ("marginals", np.array([np.nan, np.nan])), ("marginals", np.array([-5.0, 0.1])),
], ids=lambda v: str(np.asarray(v).tolist()))
def test_noise_profile_rejects_a_bad_field(field, value):
    # an alpha of 0 made c_const 1 and every noise chain an equality that passes
    with pytest.raises(ValueError, match=rf"\b{field}\b"):
        NoiseProfile(**{**_GOOD_NOISE, field: value})
    if field != "B":
        fit = {k: v for k, v in _GOOD_NOISE.items() if k != "B"}
        with pytest.raises(ValueError, match=rf"\b{field}\b"):
            fit_tsybakov_B(**{**fit, field: value})


def test_noise_chain_at_bayes():
    task = gen_random_discrete_task(9, 0, constraint="positive_margin")
    prof = fit_tsybakov_B(minimal_margin(task, "single"), task.mu, 0.5)
    rep = verify_lemma_noise(task, bayes_deferral(task), prof, "single")
    assert rep.lhs == 0.0 and rep.ok


def test_noise_verifiers_reject_a_profile_that_fails_on_the_task():
    # fitted on margins 0.5 and 0.9, B = 1.11 claims no mass below margin
    # 0.5; this task's smallest margin is 0.014, so the premise fails
    task = gen_random_discrete_task(9, 0, constraint="positive_margin")
    prof = fit_tsybakov_B(np.array([0.5, 0.9]), np.array([0.5, 0.5]), 0.5)
    assert minimal_margin(task, "single").min() < 0.5
    hyp = bayes_deferral(task)
    with pytest.raises(ValueError, match="profile"):
        verify_lemma_noise(task, hyp, prof, "single")
    with pytest.raises(ValueError, match="profile"):
        verify_enhanced_bound(task, hyp, LossSelector("surrogate_mae"), 2.0, "theorem_mm",
                              profile=prof)
    # a loose profile fitted on another task still meets the condition here
    other = gen_random_discrete_task(400, 1, constraint="positive_margin")
    loose = fit_tsybakov_B(minimal_margin(other, "two"), other.mu, 0.5)
    task = gen_random_discrete_task(400, 0, constraint="positive_margin")
    hyp = TabularHypothesis(np.random.default_rng(0).standard_normal(
        (task.num_points, task.shape.augmented_size)))
    assert verify_lemma_noise(task, hyp, loose, "single").ok


def test_noise_chain_single_disagreement_hand_value():
    # two points, hypothesis differs from Bayes only on the first
    t = DiscreteTask(np.array([0.3, 0.7]),
                     np.array([[0.9, 0.1], [0.2, 0.8]]),
                     np.ones((2, 2, 1)),
                     ProblemShape(2, 1))
    margins = minimal_margin(t, "single")
    prof = fit_tsybakov_B(margins, t.mu, 0.5)
    scores = bayes_deferral(t).scores.copy()
    scores[0] = [0.0, 1.0, 0.0]  # wrong label on point 0
    rep = verify_lemma_noise(t, TabularHypothesis(scores), prof, "single")
    assert rep.lhs == pytest.approx(0.3)
    assert rep.middle == pytest.approx(prof.c_const * (0.3 * margins[0]) ** 0.5)
    assert rep.ok


def test_enhanced_bound_at_bayes_and_errors():
    task = gen_random_discrete_task(13, 0, constraint="positive_margin")
    bayes = bayes_deferral(task)
    rep = verify_enhanced_bound(task, bayes, LossSelector("surrogate_mae"), 2.0, "theorem_multi")
    assert rep.premise_met and rep.lhs == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        verify_enhanced_bound(task, bayes, LossSelector("surrogate_mae"), 0.5, "theorem_multi")
    with pytest.raises(ValueError, match="s must"):
        verify_enhanced_bound(task, bayes, LossSelector("surrogate_mae"), float("nan"),
                              "theorem_multi")
    with pytest.raises(ValueError):
        verify_enhanced_bound(task, bayes, LossSelector("surrogate_mae"), 2.0, "theorem_mm")


def test_enhanced_bound_premise_unmet_is_not_violation():
    # at s = 1 the premise is the linear inequality tgt <= sur, which random
    # hypotheses violate often; that must be reported, not thrown
    task = gen_random_discrete_task(17, 0, constraint="positive_margin")
    g = np.random.default_rng(17)
    width = task.shape.augmented_size
    found = False
    for _ in range(200):
        hyp = TabularHypothesis(g.standard_normal((task.num_points, width)))
        rep = verify_enhanced_bound(task, hyp, LossSelector("surrogate_mae"), 1.0,
                                    "theorem_multi")
        if not rep.premise_met:
            assert rep.violations == 0
            found = True
            break
    assert found


def test_enhanced_bound_checks_its_mode_before_its_premise():
    # an unknown mode once passed vacuously wherever the premise was unmet
    task = gen_random_discrete_task(17, 0, constraint="positive_margin")
    g = np.random.default_rng(17)
    loss = LossSelector("surrogate_mae")
    unmet = next(hyp for hyp in (TabularHypothesis(g.standard_normal(
        (task.num_points, task.shape.augmented_size))) for _ in range(200))
        if not verify_enhanced_bound(task, hyp, loss, 1.0, "theorem_multi").premise_met)
    bayes = bayes_deferral(task)
    assert verify_enhanced_bound(task, bayes, loss, 1.0, "theorem_multi").premise_met
    for hyp in (unmet, bayes):
        with pytest.raises(ValueError, match="^mode must be"):
            verify_enhanced_bound(task, hyp, loss, 1.0, "nope")
        with pytest.raises(ValueError, match="^profile: theorem_mm requires"):
            verify_enhanced_bound(task, hyp, loss, 1.0, "theorem_mm")


def test_empirical_excess_weighted_sum():
    task = gen_random_discrete_task(19, 0)
    g = np.random.default_rng(19)
    hyp = TabularHypothesis(g.standard_normal((task.num_points,
                                               task.shape.augmented_size)))
    loss = LossSelector("deferral")
    regrets = [conditional_regret_surrogate(task, hyp, k, loss)
               for k in range(task.num_points)]
    assert empirical_excess(task, hyp, loss) == pytest.approx(task.mu @ regrets)
    assert empirical_excess(task, bayes_deferral(task), loss) == \
        pytest.approx(0.0, abs=1e-12)


def test_task_validation():
    with pytest.raises(ValueError):
        DiscreteTask(np.array([0.5, 0.4]), np.full((2, 2), 0.5),
                     np.ones((2, 2, 1)), ProblemShape(2, 1))
    with pytest.raises(ValueError):
        DiscreteTask(np.array([1.0]), np.array([[0.9, 0.2]]),
                     np.ones((1, 2, 1)), ProblemShape(2, 1))


def test_grid_matches_vertex_minimum_for_affine_losses():
    # q = 1 two-stage: objective is affine in S, grid cannot beat the vertices
    g = np.random.default_rng(31)
    qbar = g.uniform(0.2, 2.0, size=3)
    vertex = qbar.sum() - qbar.max()
    grid = grid_min_simplex(lambda s: (1.0 - s) @ qbar, 3)
    assert grid == pytest.approx(vertex, abs=1e-12)


def test_phi_conditional_min_against_margin_grid():
    # closed form <= grid value + 1e-9 and within 1e-5 of it at every point
    task = gen_random_discrete_task(37, 0, ne_max=2, constraint="theorem7_premise")
    e = np.einsum("ky,kyj->kj", task.conditionals, task.costs)
    for kind in PhiKind:
        phi = PhiSpec(kind)
        closed = conditional_min_surrogate(task, slice(None),
                                           LossSelector("two_stage_phi", phi=phi))
        ms = np.linspace(-60, 60, 20001)
        if kind is PhiKind.HINGE:
            # piecewise linear with kinks at +-1, which the 0.006 spacing misses
            ms = np.union1d(ms, [-1.0, 1.0])
        brute = (e[:, :1] * phi.value(-ms) + e[:, 1:] * phi.value(ms)).min(axis=1)
        assert np.all(closed <= brute + 1e-9), kind
        np.testing.assert_allclose(closed, brute, rtol=0, atol=1e-5, err_msg=kind.value)


ORACLE_LOSSES = ([LossSelector("deferral"), LossSelector("two_stage_deferral"), LossSelector("surrogate_mae")]
                 + [LossSelector("two_stage_psi", psi=PsiSpec(q=q))
                    for q in (0.0, 0.25, 0.5, 1.0)]
                 + [LossSelector("two_stage_phi", phi=PhiSpec(kind)) for kind in PhiKind])


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ORACLE_LOSSES), st.integers(0, 2**31 - 1))
def test_all_points_equal_stacked_per_point(loss, seed):
    # every per-point function: the all-points array equals the per-k
    # results stacked within 1e-12, and an index array selects those rows
    if loss.stage == "single":
        task = gen_random_discrete_task(seed, 0)
        width, target = task.shape.augmented_size, DEFERRAL
    else:
        ne_max = 2 if loss.name == "two_stage_phi" else 3
        task = gen_random_discrete_task(seed, 0, ne_max=ne_max,
                                        constraint="theorem7_premise")
        width, target = task.shape.n_e, TWO_STAGE_DEFERRAL
    hyp = TabularHypothesis(np.random.default_rng(seed).standard_normal(
        (task.num_points, width)))
    per_point = [
        lambda k: augmented_values(task, k),
        lambda k: expected_costs(task, k),
        lambda k: conditional_regret_surrogate(task, hyp, k, target),
        lambda k: conditional_error(task, hyp, k, loss),
        lambda k: conditional_min_surrogate(task, k, loss),
        lambda k: conditional_regret_surrogate(task, hyp, k, loss),
    ]
    if loss.stage == "two":
        per_point.append(lambda k: _qbar(task, k))
    order = np.arange(task.num_points)[::-1]
    for f in per_point:
        stacked = np.array([f(k) for k in range(task.num_points)])
        np.testing.assert_allclose(f(slice(None)), stacked, rtol=0, atol=1e-12)
        np.testing.assert_allclose(f(order), stacked[order], rtol=0, atol=1e-12)
    # the all-points-only functions against per-point loops
    v = np.array([augmented_values(task, k) for k in range(task.num_points)])
    e = np.array([expected_costs(task, k) for k in range(task.num_points)])
    top2 = np.sort(v, axis=1)[:, ::-1]
    low2 = np.sort(e, axis=1)
    np.testing.assert_allclose(minimal_margin(task, "single"), top2[:, 0] - top2[:, 1],
                               rtol=0, atol=1e-12)
    if task.shape.n_e >= 2:
        np.testing.assert_allclose(minimal_margin(task, "two"), low2[:, 1] - low2[:, 0],
                                   rtol=0, atol=1e-12)
    assert np.array_equal(bayes_deferral(task).action(slice(None)), [np.argmax(r) for r in v])
    assert np.array_equal(bayes_two_stage(task).action(slice(None)), [np.argmin(r) for r in e])


VERIFY_FAMILIES = {
    "single_mae": verify_bound_single_mae,
    "two_stage_q0": lambda task, hyp: verify_bound_two_stage(task, hyp, 0.0),
    "two_stage_q05": lambda task, hyp: verify_bound_two_stage(task, hyp, 0.5),
    "two_stage_q1": lambda task, hyp: verify_bound_two_stage(task, hyp, 1.0),
    "two_expert_logistic": lambda task, hyp: verify_bound_two_expert_phi(
        task, hyp, PhiSpec(PhiKind.LOGISTIC)),
}


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def worst_slack(report) -> float:
    """The most negative slack of the report's rows, or 0.0 if none is."""
    return min(report.table()[3].min(), 0.0)


def assert_same_report(got, want, task_id="t"):
    for name in ("target_regrets", "surrogate_regrets", "rhs"):
        assert same_bits(getattr(got, name), getattr(want, name)), name
    for name in ("excess_target", "excess_surrogate", "aggregate_rhs"):
        assert type(getattr(got, name)) is float, name
        assert same_bits(getattr(got, name), getattr(want, name)), name
    # the slack of every point, then of the aggregate row
    assert same_bits(got.table()[3], want.table()[3])
    assert same_bits(worst_slack(got), worst_slack(want))
    assert (got.label, got.premise_met, got.note) == (want.label, want.premise_met, want.note)
    assert type(got.premise_met) is bool and type(got.note) is str
    assert got.violations == want.violations
    assert got.csv_rows(task_id) == want.csv_rows(task_id)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(VERIFY_FAMILIES)), st.sampled_from([1, 3]),
       st.integers(0, 2**31 - 1))
def test_stacked_report_slices_equal_single_reports(family, num_hyps, seed):
    # one check of H stacked hypotheses: report[h] is, bit for bit, the
    # report of hypothesis h checked on its own
    if family == "single_mae":
        task = gen_random_discrete_task(seed, 0)
        width = task.shape.augmented_size
    else:
        ne_max = 2 if family == "two_expert_logistic" else 3
        task = gen_random_discrete_task(seed, 0, ne_max=ne_max,
                                        constraint="theorem7_premise")
        width = task.shape.n_e
    scores = np.random.default_rng(seed).standard_normal((num_hyps, task.num_points, width))
    check = VERIFY_FAMILIES[family]
    stacked = check(task, TabularHypothesis(scores))
    assert stacked.target_regrets.shape == (num_hyps, task.num_points)
    for h in range(num_hyps):
        assert_same_report(stacked[h], check(task, TabularHypothesis(scores[h])), f"t{h}")
    assert stacked.violations == sum(stacked[h].violations for h in range(num_hyps))
    assert worst_slack(stacked) == min(worst_slack(stacked[h]) for h in range(num_hyps))
    # a NaN slack in one slice, per point or in aggregate, fails the stack
    g = np.random.default_rng(seed)
    h, k = g.integers(num_hyps), g.integers(task.num_points)
    for name, index in (("rhs", (h, k)), ("aggregate_rhs", h)):
        broken = check(task, TabularHypothesis(scores))
        getattr(broken, name)[index] = np.nan
        assert not broken.ok and not broken[h].ok
        assert broken.violations == stacked.violations + 1


def same_shape_tasks(family, seed, size):
    """The first ``size`` tasks of one seed that share the shape of its task 0,
    from the generator verify uses for the family, with small n and K so
    that shapes repeat."""
    single = family == "single_mae"
    kwargs = dict(n_max=3, k_max=4, ne_max=2 if family == "two_expert_logistic" else 3,
                  constraint="none" if single else "theorem7_premise")
    first = gen_random_discrete_task(seed, 0, **kwargs)
    group = [first]
    for i in range(1, 400):
        if len(group) == size:
            break
        task = gen_random_discrete_task(seed, i, **kwargs)
        if (task.num_points, task.shape) == (first.num_points, first.shape):
            group.append(task)
    width = first.shape.width("single" if single else "two")
    return group, width


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(VERIFY_FAMILIES)), st.integers(1, 4), st.sampled_from([1, 3]),
       st.integers(0, 2**31 - 1))
def test_task_stack_slices_equal_single_task_reports(family, num_tasks, num_hyps, seed):
    # one check of T stacked tasks with H hypotheses each: report[t, h] is,
    # bit for bit, the report of task t and hypothesis h checked on their own
    group, width = same_shape_tasks(family, seed % 1000, num_tasks)
    stack = DiscreteTask.stack(group)
    t_count, k_count = len(group), stack.num_points
    scores = np.random.default_rng(seed).standard_normal((t_count, num_hyps, k_count, width))
    check = VERIFY_FAMILIES[family]
    stacked = check(stack, TabularHypothesis(scores))
    assert stacked.target_regrets.shape == (t_count, num_hyps, k_count)
    for t in range(t_count):
        for h in range(num_hyps):
            assert_same_report(stacked[t, h], check(group[t], TabularHypothesis(scores[t, h])))
    assert stacked.violations == sum(stacked[t, h].violations
                                     for t in range(t_count) for h in range(num_hyps))
    # a NaN slack in one (t, h) slice, per point or in aggregate, fails that
    # slice and adds exactly one violation
    g = np.random.default_rng(seed)
    t, h, k = g.integers(t_count), g.integers(num_hyps), g.integers(k_count)
    for name, index in (("rhs", (t, h, k)), ("aggregate_rhs", (t, h))):
        broken = check(stack, TabularHypothesis(scores))
        getattr(broken, name)[index] = np.nan
        assert not broken.ok and not broken[t, h].ok
        assert broken.violations == stacked.violations + 1


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(list(PhiKind)), st.sampled_from(["one", "hyps", "stack"]),
       st.integers(1, 3), st.integers(0, 2**31 - 1))
def test_phi_conditional_error_is_the_margin_formula_bit_for_bit(kind, form, size, seed):
    # e0 phi(-m) + e1 phi(m) at the expected costs e, the margin m = s0 - s1,
    # for one hypothesis, a stack of them, and a stack of tasks and hypotheses
    group, _ = same_shape_tasks("two_expert_logistic", seed % 1000, size)
    task = DiscreteTask.stack(group) if form == "stack" else group[0]
    lead = {"one": (), "hyps": (size,), "stack": (len(group), size)}[form]
    scores = np.random.default_rng(seed).standard_normal(lead + (task.num_points, 2))
    hyp, phi = TabularHypothesis(scores), PhiSpec(kind)
    loss = LossSelector("two_stage_phi", phi=phi)
    for k in [slice(None)] + list(range(task.num_points)):
        e = expected_costs(task, k)
        if form == "stack":
            e = e[:, None]                   # the hypothesis axis of each task
        m = scores[..., k, 0] - scores[..., k, 1]
        want = e[..., 0] * phi.value(-m) + e[..., 1] * phi.value(m)
        assert same_bits(np.asarray(conditional_error(task, hyp, k, loss)), want), (k, kind)


def test_one_vacuous_task_leaves_its_neighbours_verdicts():
    # lower costs summing to 0 make only that task's two-expert bound vacuous
    group, _ = same_shape_tasks("two_expert_logistic", 7, 3)
    costs = group[1].costs.copy()
    costs[0, 0] = 0.0
    group[1] = DiscreteTask(group[1].mu, group[1].conditionals, costs, group[1].shape)
    stack = DiscreteTask.stack(group)
    scores = np.random.default_rng(7).standard_normal((3, 2, stack.num_points, 2))
    check = VERIFY_FAMILIES["two_expert_logistic"]
    stacked = check(stack, TabularHypothesis(scores))
    np.testing.assert_array_equal(stacked.premise_met, [True, False, True])
    assert stacked.note[1] and not stacked.note[0] and not stacked.note[2]
    for t in range(3):
        for h in range(2):
            want = check(group[t], TabularHypothesis(scores[t, h]))
            assert want.premise_met == (t != 1) and bool(want.note) == (t == 1)
            assert_same_report(stacked[t, h], want)


def test_two_stage_stack_names_the_task_that_breaks_the_premise():
    # with three experts every pair of other costs must sum to at least 1
    groups = (same_shape_tasks("two_stage_q05", seed, 3)[0] for seed in range(100))
    group = next(g for g in groups if g[0].shape.n_e == 3 and len(g) == 3)
    bad = 1
    costs = group[bad].costs.copy()
    costs[0, 0] = 0.0
    group[bad] = DiscreteTask(group[bad].mu, group[bad].conditionals, costs, group[bad].shape)
    stack = DiscreteTask.stack(group)
    scores = np.zeros((len(group), 1, stack.num_points, 3))
    with pytest.raises(ValueError, match=rf"n_e - 2 fails for task \({bad},\)"):
        verify_bound_two_stage(stack, TabularHypothesis(scores), 0.5)


def test_task_stack_rejects_mixed_shapes_and_unaligned_hypotheses():
    small = one_point_task([0.5, 0.5], [[0.2], [0.4]], 1)
    wide = one_point_task([0.2, 0.3, 0.5], [[0.2], [0.4], [0.1]], 1)
    with pytest.raises(ValueError, match="share n and n_e"):
        DiscreteTask.stack([small, wide])
    with pytest.raises(ValueError, match="^tasks must be nonempty"):
        DiscreteTask.stack([])
    with pytest.raises(ValueError):
        DiscreteTask.stack([small, gen_random_discrete_task(3, 0, n_max=2, ne_max=1)])
    stack = DiscreteTask.stack([small, small])
    for lead in ((), (3,), (3, 2)):
        with pytest.raises(ValueError, match="task axes"):
            verify_bound_single_mae(stack, TabularHypothesis(np.zeros(lead + (1, 3))))


def test_tabular_hypothesis_needs_a_score_row_per_point():
    for scores in ([], np.zeros(3), np.zeros((0, 3)), np.zeros((2, 0)), np.zeros((4, 0, 3))):
        with pytest.raises(ValueError, match="^scores must hold one score row per point"):
            TabularHypothesis(scores)


def test_conditional_error_names_a_point_outside_the_task():
    task = next(t for t in (gen_random_discrete_task(5, i) for i in range(100))
                if t.num_points == 5)
    hyp = TabularHypothesis(np.zeros((5, task.shape.augmented_size)))
    for k in (99, 5, -6, [0, 99], 1.5):
        with pytest.raises(ValueError, match="^k must index the task's 5 points"):
            conditional_error(task, hyp, k, LossSelector("deferral"))
    assert conditional_error(task, hyp, -1, LossSelector("deferral")) == conditional_error(
        task, hyp, 4, LossSelector("deferral"))


def test_single_hypothesis_functions_reject_a_stack():
    task = gen_random_discrete_task(43, 0, constraint="positive_margin")
    g = np.random.default_rng(43)
    stack = TabularHypothesis(g.standard_normal((2, task.num_points,
                                                 task.shape.augmented_size)))
    profile = fit_tsybakov_B(minimal_margin(task, "single"), task.mu, 0.5)
    checks = [
        lambda: empirical_excess(task, stack, LossSelector("deferral")),
        lambda: minimizability_gap(task, LossSelector("deferral"), [stack]),
        lambda: verify_lemma_noise(task, stack, profile, "single"),
        lambda: verify_enhanced_bound(task, stack, LossSelector("surrogate_mae"), 2.0,
                                      "theorem_multi"),
    ]
    for check in checks:
        with pytest.raises(ValueError, match="one hypothesis"):
            check()


def test_csv_rows_of_a_stack_names_report_h():
    task = DiscreteTask(np.array([1.0]), np.array([[0.3, 0.7]]), np.full((1, 2, 1), 0.5),
                        ProblemShape(2, 1))
    hyp = TabularHypothesis(np.random.default_rng(5).standard_normal((3, 1, 3)))
    report = verify_bound_single_mae(task, hyp)
    with pytest.raises(ValueError, match=r"report\[h\]"):
        report.csv_rows("t")
    assert len(report[2].csv_rows("t")) == 2


@pytest.mark.parametrize("name,spec", [("surrogate_single", {"psi": PsiSpec(q=0.5)}),
                                       ("surrogate_single", {"psi": PsiSpec(q=0.0)})])
def test_oracles_reject_a_loss_without_one(name, spec):
    # a paired comp-sum row below q = 1 has an exact conditional error, but
    # no closed-form minimum
    task = gen_random_discrete_task(3, 0)
    hyp = TabularHypothesis(np.zeros((task.num_points, task.shape.augmented_size)))
    loss = LossSelector(name, **spec)
    assert np.isfinite(conditional_error(task, hyp, 0, loss))
    with pytest.raises(ValueError, match=f"no exact oracle for loss '{name}'"):
        conditional_min_surrogate(task, 0, loss)


@pytest.mark.parametrize("name,q", [("baseline_mao", 0.0), ("baseline_mao", 0.3),
                                    ("baseline_mao", 0.7), ("baseline_mao", 1.0),
                                    ("baseline_verma", 0.0)])
def test_baseline_minimum_is_exact_and_attained(name, q):
    # a baseline's conditional error is sum_i w_i Psi_q(s_i), w the augmented
    # values: least at s* proportional to w^(1/(1-q)), at the best vertex for
    # q = 1, and argmax s* is then the Bayes deferral action
    loss = LossSelector(name, psi=None if name == "baseline_verma" else PsiSpec(q=q))
    values, minima = [], []
    for i in range(20):
        task = gen_random_discrete_task(2026, i)
        w = augmented_values(task, slice(None))
        if q < 1.0:
            s_star = w ** (1.0 / (1.0 - q))
            s_star /= s_star.sum(axis=-1, keepdims=True)
            scores = np.log(s_star)
            np.testing.assert_array_equal(np.argmax(s_star, axis=-1),
                                          bayes_deferral(task).action(slice(None)))
        else:
            scores = 50.0 * np.eye(w.shape[-1])[np.argmax(w, axis=-1)]
        exact = conditional_min_surrogate(task, slice(None), loss)
        np.testing.assert_allclose(conditional_error(task, TabularHypothesis(scores),
                                                     slice(None), loss), exact, rtol=0, atol=1e-12)
        values.append(w)
        minima.append(exact)
    # one numeric run over every point: weights padded with zeros to one width,
    # which leaves each infimum as it is
    width = max(w.shape[-1] for w in values)
    rows = np.concatenate([np.pad(w, ((0, 0), (0, width - w.shape[-1]))) for w in values])
    assert (numeric_min_two_stage_psi(rows, loss.psi) >= np.concatenate(minima) - 1e-9).all()


def test_surrogate_single_conditional_error_is_its_label_average():
    psi = PsiSpec(q=0.5)
    loss = LossSelector("surrogate_single", psi=psi)
    g = np.random.default_rng(11)
    for i in range(10):
        task = gen_random_discrete_task(11, i)
        scores = 3.0 * g.standard_normal((task.num_points, task.shape.augmented_size))
        want = [sum(task.conditionals[k, y] * surrogate_single(scores[k], y, task.costs[k, y],
                                                                  task.shape, psi)
                    for y in range(task.shape.n)) for k in range(task.num_points)]
        got = conditional_error(task, TabularHypothesis(scores), slice(None), loss)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-15)


def test_oracles_choose_their_path_from_the_loss_table():
    # no loss name is compared in the two per-point oracles: a new row of the
    # table reaches them through its columns (stage, target flag, spec, pairing)
    tree = ast.parse(Path(oracles.__file__).read_text())
    checked = set()
    for fn in tree.body:
        if isinstance(fn, ast.FunctionDef) and fn.name in ("conditional_error",
                                                           "conditional_min_surrogate"):
            checked.add(fn.name)
            tests = [node for node in ast.walk(fn) if isinstance(node, (ast.Compare, ast.Match))]
            named = [ast.unparse(node) for node in tests
                     if any(isinstance(a, ast.Attribute) and a.attr == "name"
                            for a in ast.walk(node))]
            assert named == [], (fn.name, named)
    assert checked == {"conditional_error", "conditional_min_surrogate"}


def test_two_expert_bound_without_lower_costs_is_vacuous():
    # each expert has a zero cost somewhere, so gamma is +inf: the bound
    # claims nothing and a zero target regret is no violation
    task = DiscreteTask(np.array([0.5, 0.5]), np.full((2, 2), 0.5),
                        np.array([[[0.0, 0.6], [0.2, 0.4]],
                                  [[0.7, 0.0], [0.3, 0.2]]]), ProblemShape(2, 2))
    hyp = bayes_two_stage(task)
    rep = verify_bound_two_expert_phi(task, hyp, PhiSpec(PhiKind.LOGISTIC))
    assert not rep.premise_met and rep.note
    np.testing.assert_array_equal(rep.target_regrets, [0.0, 0.0])
    assert np.all(rep.surrogate_regrets > 0) and np.all(rep.rhs == np.inf)
    assert rep.ok and rep.violations == 0
    assert [row[-1] for row in rep.csv_rows("t")] == ["ok"] * 3
    # a stack of that hypothesis and a wrong one: still no violation
    wrong = TabularHypothesis(hyp.scores[:, ::-1])
    stacked = verify_bound_two_expert_phi(
        task, TabularHypothesis(np.stack([hyp.scores, wrong.scores])),
        PhiSpec(PhiKind.LOGISTIC))
    assert not stacked.premise_met and stacked.ok
    assert np.all(stacked.target_regrets[1] > 0)


def test_single_point_calls_return_floats():
    task = gen_random_discrete_task(41, 0)
    hyp = bayes_deferral(task)
    for loss in (LossSelector("deferral"), LossSelector("surrogate_mae")):
        assert isinstance(conditional_error(task, hyp, 0, loss), float)
        assert isinstance(conditional_min_surrogate(task, 0, loss), float)
    assert isinstance(conditional_regret_surrogate(task, hyp, 0, DEFERRAL), float)


# ---------------------------------------------------------------------------
# fail closed on non-finite input
# ---------------------------------------------------------------------------

NON_FINITE = st.sampled_from([np.nan, np.inf, -np.inf])


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["mu", "conditionals", "costs"]), NON_FINITE,
       st.integers(0, 2**31 - 1))
def test_task_rejects_non_finite(field, bad, seed):
    task = gen_random_discrete_task(seed % 1000, 0)
    arrays = {"mu": task.mu.copy(), "conditionals": task.conditionals.copy(),
              "costs": task.costs.copy()}
    arrays[field].flat[np.random.default_rng(seed).integers(arrays[field].size)] = bad
    with pytest.raises(ValueError, match="finite"):
        DiscreteTask(shape=task.shape, **arrays)


@settings(max_examples=60, deadline=None)
@given(NON_FINITE, st.integers(0, 3), st.integers(0, 5))
def test_reports_with_non_finite_slack_are_not_ok(bad, where, point):
    regrets = np.full(6, 0.1)
    fields = dict(target_regrets=regrets.copy(), surrogate_regrets=regrets.copy(),
                  rhs=regrets + 0.1, excess_target=0.1, excess_surrogate=0.1,
                  aggregate_rhs=0.2)
    assert RegretReport(**fields).ok
    name = ("target_regrets", "rhs", "excess_target", "aggregate_rhs")[where]
    if isinstance(fields[name], np.ndarray):
        fields[name][point] = bad
    else:
        fields[name] = bad
    rep = RegretReport(**fields)
    assert not rep.ok and rep.violations >= 1
    assert "violation" in [row[-1] for row in rep.csv_rows("t")]
    chain = [0.1, 0.2, 0.3]
    chain[where % 3] = bad
    assert not ChainReport(*chain).ok
    assert not EnhancedReport(lhs=bad, rhs=1.0, premise_met=True).ok
    assert not EnhancedReport(lhs=bad, rhs=np.inf, premise_met=False).ok
    assert not EnhancedReport(lhs=0.1, rhs=bad, premise_met=True).ok


def test_enhanced_bound_nan_surrogate_regret_is_a_violation(monkeypatch):
    # a NaN regret must fail the check, not pass as "premise unmet"
    import deferkit.oracles as oracles
    task = gen_random_discrete_task(13, 0, constraint="positive_margin")
    zeros = np.zeros(task.num_points)
    monkeypatch.setattr(oracles, "_per_point_regrets",
                        lambda *args: (zeros, np.full_like(zeros, np.nan)))
    rep = verify_enhanced_bound(task, bayes_deferral(task), LossSelector("surrogate_mae"), 2.0,
                                "theorem_multi")
    assert rep.premise_met and not rep.ok


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["mu", "conditionals", "costs"]), st.integers(0, 2**31 - 1))
def test_verifiers_fail_closed_on_nan(field, seed):
    # NaN written into a task after validation: every verifier either
    # refuses the task or reports a violation, never ok
    task = gen_random_discrete_task(seed % 1000, 0, ne_max=2,
                                    constraint="theorem7_premise")
    g = np.random.default_rng(seed)
    single = TabularHypothesis(g.standard_normal((task.num_points,
                                                  task.shape.augmented_size)))
    two = TabularHypothesis(g.standard_normal((task.num_points, 2)))
    # each profile fits its stage's margins, so the NaN, not the profile, is checked
    profile = {stage: fit_tsybakov_B(minimal_margin(task, stage), task.mu, 0.5)
               for stage in ("single", "two")}
    poisoned = getattr(task, field)
    poisoned.flat[g.integers(poisoned.size)] = np.nan
    checks = [
        lambda: verify_bound_single_mae(task, single),
        lambda: verify_bound_two_stage(task, two, 0.5),
        lambda: verify_bound_two_expert_phi(task, two, PhiSpec(PhiKind.LOGISTIC)),
        lambda: verify_lemma_noise(task, single, profile["single"], "single"),
        lambda: verify_lemma_noise(task, two, profile["two"], "two"),
        lambda: verify_enhanced_bound(task, single, LossSelector("surrogate_mae"), 2.0,
                                      "theorem_multi"),
        lambda: verify_enhanced_bound(task, two, LossSelector("two_stage_psi",
                                                              psi=PsiSpec(q=0.5)),
                                      2.0, "theorem_mm", profile=profile["two"]),
    ]
    for check in checks:
        try:
            rep = check()
        except ValueError:
            continue
        assert not rep.ok, rep


@settings(max_examples=40, deadline=None)
@given(NON_FINITE, st.integers(0, 3), st.booleans())
def test_unmet_premise_keeps_non_finite_target_regret_a_violation(bad, point, aggregate):
    regrets = np.full(4, 0.1)
    fields = dict(target_regrets=regrets.copy(), surrogate_regrets=regrets.copy(),
                  rhs=np.full(4, np.inf), excess_target=0.1, excess_surrogate=0.1,
                  aggregate_rhs=np.inf, premise_met=False)
    assert RegretReport(**fields).ok
    if aggregate:
        fields["excess_target"] = bad
    else:
        fields["target_regrets"][point] = bad
    rep = RegretReport(**fields)
    assert rep.violations == 1
    assert [row[-1] for row in rep.csv_rows("t")].count("violation") == 1
