"""Acceptance gate: ten numbered criteria, each with a pinned tolerance and a
runtime budget, printing one PASS line on success.

Criteria 1-2 check the loss identities and analytic gradients, 3-7 the
consistency-bound verifiers against exact oracles, 8-10 the training-based
realizability and Bayes-consistency properties.
"""

import time

import numpy as np
import pytest

from deferkit.losses import (
    LossSelector,
    PhiKind,
    PhiSpec,
    ProblemShape,
    PsiSpec,
    deferral_loss_batch,
    surrogate_mae,
    surrogate_single,
    surrogate_single_with_grad_batch,
    two_stage_surrogate_phi,
    two_stage_surrogate_psi,
)
from numeric_minima import grid_min_simplex, mae_given_probs, numeric_min_two_stage_psi
from scalar_forms import (
    baseline_mao,
    baseline_mao_grad,
    baseline_verma,
    baseline_verma_grad,
    deferral_loss_alt_batch,
    surrogate_mae_grad,
    surrogate_single_grad,
    two_stage_surrogate_phi_grad,
    two_stage_surrogate_psi_grad,
)
from deferkit.models import (
    TrainConfig,
    init_linear,
    realized_deferral_loss,
    train,
)
from deferkit.oracles import (
    DiscreteTask,
    TabularHypothesis,
    _qbar,
    bayes_deferral,
    bayes_two_stage,
    conditional_min_surrogate,
    empirical_excess,
    fit_tsybakov_B,
    minimal_margin,
    verify_bound_single_mae,
    verify_bound_two_expert_phi,
    verify_bound_two_stage,
    verify_enhanced_bound,
    verify_lemma_noise,
)
from deferkit.cli import SWEEP_METHODS, run_sweep_trial
from deferkit.synthdata import (
    MogConfig,
    gen_random_discrete_task,
    gen_realizable_two_stage,
)


def report(num, detail):
    print(f"[criterion {num}] PASS: {detail}")


def budget(num, elapsed, limit):
    assert elapsed < limit, f"criterion {num} exceeded {limit}s ({elapsed:.1f}s)"


# ---------------------------------------------------------------------------


def test_criterion_1_loss_identity_fuzz():
    """10^5 random tuples: both deferral-loss forms agree within 1e-12."""
    t0 = time.time()
    g = np.random.default_rng(2024)
    total = 0
    max_diff = 0.0
    while total < 100_000:
        n = int(g.integers(2, 11))
        n_e = int(g.integers(1, 6))
        shape = ProblemShape(n, n_e)
        m = 1000
        scores = g.standard_normal((m, n + n_e)) * 3
        ys = g.integers(0, n, size=m)
        costs = g.uniform(0, 1, size=(m, n_e))
        a = deferral_loss_batch(scores, ys, costs, shape)
        b = deferral_loss_alt_batch(scores, ys, costs, shape)
        max_diff = max(max_diff, float(np.abs(a - b).max()))
        total += m
    assert max_diff <= 1e-12
    elapsed = time.time() - t0
    budget(1, elapsed, 10.0)
    report(1, f"{total} tuples, max |direct - expanded| = {max_diff:.2e}, "
              f"{elapsed:.1f}s")


def _fd(fn, scores, step=1e-5):
    grad = np.empty_like(scores)
    for i in range(len(scores)):
        hi, lo = scores.copy(), scores.copy()
        hi[i] += step
        lo[i] -= step
        grad[i] = (fn(hi) - fn(lo)) / (2 * step)
    return grad


def test_criterion_2_gradients_vs_finite_differences():
    """Every analytic gradient matches central differences (step 1e-5) to a
    relative error of 1e-5 on 100 random points per operation."""
    t0 = time.time()
    g = np.random.default_rng(7)
    shape = ProblemShape(3, 2)
    psi_a, psi_b = PsiSpec(q=0.5), PsiSpec(q=1.0)
    logistic = PhiSpec(PhiKind.LOGISTIC)

    def single_case():
        return (g.standard_normal(5), int(g.integers(0, 3)),
                g.uniform(0, 1, size=2))

    checks = {
        "surrogate_single": lambda: _pair(
            lambda s, y, c: surrogate_single(s, y, c, shape, psi_a),
            lambda s, y, c: surrogate_single_grad(s, y, c, shape, psi_a)),
        "surrogate_mae": lambda: _pair(
            lambda s, y, c: surrogate_mae(s, y, c, shape),
            lambda s, y, c: surrogate_mae_grad(s, y, c, shape)),
        "baseline_verma": lambda: _pair(
            lambda s, y, c: baseline_verma(s, y, c, shape),
            lambda s, y, c: baseline_verma_grad(s, y, c, shape)),
        "baseline_mao": lambda: _pair(
            lambda s, y, c: baseline_mao(s, y, c, shape, psi_b),
            lambda s, y, c: baseline_mao_grad(s, y, c, shape, psi_b)),
    }

    def _pair(fn, gr):
        return fn, gr

    worst = 0.0
    for name, make in checks.items():
        fn, gr = make()
        for _ in range(100):
            s, y, c = single_case()
            num = _fd(lambda v: fn(v, y, c), s)
            ana = gr(s, y, c)
            rel = np.linalg.norm(ana - num) / max(np.linalg.norm(num), 1e-8)
            assert rel <= 1e-5, f"{name}: rel error {rel:.2e}"
            worst = max(worst, rel)
    # two-stage pair
    for _ in range(100):
        s2 = g.standard_normal(2)
        c2 = g.uniform(0, 1, size=2)
        num = _fd(lambda v: two_stage_surrogate_phi(v, c2, logistic), s2)
        ana = two_stage_surrogate_phi_grad(s2, c2, logistic)
        rel = np.linalg.norm(ana - num) / max(np.linalg.norm(num), 1e-8)
        assert rel <= 1e-5
        worst = max(worst, rel)
        n_e = int(g.integers(2, 5))
        s3 = g.standard_normal(n_e)
        c3 = g.uniform(0, 1, size=n_e)
        num = _fd(lambda v: two_stage_surrogate_psi(v, c3, psi_a), s3)
        ana = two_stage_surrogate_psi_grad(s3, c3, psi_a)
        rel = np.linalg.norm(ana - num) / max(np.linalg.norm(num), 1e-8)
        assert rel <= 1e-5
        worst = max(worst, rel)
    elapsed = time.time() - t0
    budget(2, elapsed, 30.0)
    report(2, f"six gradient ops x 100 points, worst rel error = {worst:.2e}, "
              f"{elapsed:.1f}s")


def test_criterion_3_single_stage_factor_bound():
    """Deferral regret <= (n + n_e) x q=1 surrogate regret per point and in
    aggregate, on 1000 random tasks x 10 tabular hypotheses each; each task's
    10 hypotheses are one stacked check of the same draws."""
    t0 = time.time()
    violations = 0
    worst_slack = 0.0
    for i in range(1000):
        task = gen_random_discrete_task(100, i, n_max=4, ne_max=3, k_max=6)
        g = np.random.default_rng(i)
        width = task.shape.augmented_size
        hyp = TabularHypothesis(g.standard_normal((10, task.num_points, width)))
        rep = verify_bound_single_mae(task, hyp)
        violations += rep.violations
        worst_slack = min(worst_slack, rep.table()[3].min())
    assert violations == 0, f"{violations} violations beyond -1e-9"
    elapsed = time.time() - t0
    budget(3, elapsed, 120.0)
    report(3, f"10000 reports, 0 violations, worst slack = {worst_slack:.2e}, "
              f"{elapsed:.1f}s")


def test_criterion_4_two_stage_bounds():
    """Two-stage bound with the cost constant and q-transform on 1000 premise
    tasks per q in {0, 0.5, 1}; two-expert square-root bound on 500 tasks."""
    t0 = time.time()
    violations = 0
    for i in range(1000):
        task = gen_random_discrete_task(200, i, constraint="theorem7_premise")
        g = np.random.default_rng(10_000 + i)
        hyp = TabularHypothesis(g.standard_normal((task.num_points,
                                                   task.shape.n_e)))
        for q in (0.0, 0.5, 1.0):
            violations += verify_bound_two_stage(task, hyp, q).violations
    logistic = PhiSpec(PhiKind.LOGISTIC)
    for i in range(500):
        task = gen_random_discrete_task(300, i, ne_max=2,
                                        constraint="theorem7_premise")
        g = np.random.default_rng(20_000 + i)
        hyp = TabularHypothesis(g.standard_normal((task.num_points, 2)))
        violations += verify_bound_two_expert_phi(task, hyp, logistic).violations
    assert violations == 0
    elapsed = time.time() - t0
    budget(4, elapsed, 180.0)
    report(4, f"3000 multi-expert + 500 two-expert reports, 0 violations, "
              f"{elapsed:.1f}s")


def test_criterion_5_closed_forms_vs_numeric():
    """Closed-form two-stage conditional minima match exponentiated-gradient
    minimization within 1e-7 (200 instances per q, solved in one stack per
    n_e); affine vertex minima match 0.02-resolution grid search."""
    t0 = time.time()
    g = np.random.default_rng(55)
    worst = 0.0
    for q in (0.0, 0.25, 0.5, 0.75):
        psi = PsiSpec(q=q)
        loss = LossSelector("two_stage_psi", psi=psi)
        by_width = {}   # n_e -> (closed minima, qbar rows)
        for _ in range(200):
            n = int(g.integers(2, 4))
            n_e = int(g.integers(2, 5))
            k = int(g.integers(1, 3))
            # costs bounded away from 0 keep every expert bracket positive
            # and the simplex optimum moderately conditioned
            task_costs = g.uniform(0.75, 1.0, size=(k, n, n_e))
            task = DiscreteTask(g.dirichlet(np.ones(k)),
                                g.dirichlet(np.ones(n), size=k),
                                task_costs, ProblemShape(n, n_e))
            kk = int(g.integers(0, k))
            closed, qbars = by_width.setdefault(n_e, ([], []))
            closed.append(conditional_min_surrogate(task, kk, loss))
            qbars.append(_qbar(task, kk))
        for closed, qbars in by_width.values():
            diff = np.abs(np.array(closed) - numeric_min_two_stage_psi(np.array(qbars), psi))
            assert np.all(diff <= 1e-7), f"q={q}: |closed - numeric| = {diff.max():.2e}"
            worst = max(worst, float(diff.max()))
    # vertex property vs dense grid: two-stage q=1 (width <= 3)
    grid_worst = 0.0
    for i in range(10):
        task = gen_random_discrete_task(500, i, n_max=3, ne_max=3,
                                        constraint="theorem7_premise")
        qbar = _qbar(task, 0)
        vertex = conditional_min_surrogate(task, 0,
                                           LossSelector("two_stage_psi",
                                                        psi=PsiSpec(q=1.0)))
        grid = grid_min_simplex(lambda s: (1.0 - s) @ qbar, task.shape.n_e)
        assert vertex <= grid + 1e-9
        grid_worst = max(grid_worst, abs(vertex - grid))
    # single-stage mae on n + n_e <= 4 shapes
    for i in range(10):
        task = gen_random_discrete_task(600, i, n_max=3, ne_max=2, k_max=3)
        if task.shape.augmented_size > 4:
            continue
        vertex = conditional_min_surrogate(task, 0, LossSelector("surrogate_mae"))
        grid = grid_min_simplex(lambda s: mae_given_probs(s, task, 0),
                                task.shape.augmented_size)
        assert vertex <= grid + 1e-9
        grid_worst = max(grid_worst, abs(vertex - grid))
    elapsed = time.time() - t0
    budget(5, elapsed, 120.0)
    report(5, f"800 numeric cross-checks (worst {worst:.2e}) + grid vertex checks "
              f"(worst gap {grid_worst:.2e}), {elapsed:.1f}s")


def test_criterion_6_noise_chains():
    """Tsybakov chain Pr[disagree] <= c E[gamma 1]^a <= c excess^a on 100
    positive-margin tasks x 10 hypotheses x alpha in {0.3, 0.5, 0.9}, for
    both the single-stage and two-stage targets."""
    t0 = time.time()
    violations = 0
    checked = 0
    for i in range(100):
        task = gen_random_discrete_task(400, i, constraint="positive_margin")
        g = np.random.default_rng(40_000 + i)
        for stage, width in (("single", task.shape.augmented_size),
                             ("two", task.shape.n_e)):
            margins = minimal_margin(task, stage)
            for alpha in (0.3, 0.5, 0.9):
                prof = fit_tsybakov_B(margins, task.mu, alpha)
                for _ in range(10):
                    hyp = TabularHypothesis(
                        g.standard_normal((task.num_points, width)))
                    rep = verify_lemma_noise(task, hyp, prof, stage)
                    violations += rep.violations
                    checked += 1
    assert violations == 0
    elapsed = time.time() - t0
    budget(6, elapsed, 60.0)
    report(6, f"{checked} chains, 0 violations, {elapsed:.1f}s")


def test_criterion_7_enhanced_bounds():
    """Hypothesis-dependent and noise-sharpened excess bounds at s = 2 on 500
    premise-satisfying pairs, single- and two-stage."""
    t0 = time.time()
    counts = {"single_multi": 0, "single_mm": 0, "two_multi": 0, "two_mm": 0}
    violations = 0
    mae = LossSelector("surrogate_mae")
    psi_loss = LossSelector("two_stage_psi", psi=PsiSpec(q=0.5))
    i = 0
    while min(counts.values()) < 500 and i < 20_000:
        task = gen_random_discrete_task(700, i, constraint="theorem7_premise")
        i += 1
        if (minimal_margin(task, "single").min() < 1e-3
                or minimal_margin(task, "two").min() < 1e-3):
            continue
        g = np.random.default_rng(50_000 + i)
        # hypotheses near the Bayes action keep the pointwise premise alive
        for stage, surrogate, bayes in (
                ("single", mae, bayes_deferral(task)),
                ("two", psi_loss, bayes_two_stage(task))):
            hyp = TabularHypothesis(bayes.scores
                                    + 0.4 * g.standard_normal(bayes.scores.shape))
            prof = fit_tsybakov_B(minimal_margin(task, stage), task.mu, 0.5)
            rep = verify_enhanced_bound(task, hyp, surrogate, 2.0,
                                        "theorem_multi")
            if rep.premise_met:
                counts[f"{stage[:6] if stage == 'single' else 'two'}_multi"] += 1
                violations += rep.violations
            rep = verify_enhanced_bound(task, hyp, surrogate, 2.0,
                                        "theorem_mm", profile=prof)
            if rep.premise_met:
                counts[f"{stage[:6] if stage == 'single' else 'two'}_mm"] += 1
                violations += rep.violations
    assert min(counts.values()) >= 500, f"too few premise-met pairs: {counts}"
    assert violations == 0
    elapsed = time.time() - t0
    budget(7, elapsed, 120.0)
    report(7, f"premise-met pairs {counts}, 0 violations, {elapsed:.1f}s")


@pytest.mark.slow
def test_criterion_8_realizable_learning_curves():
    """On the realizable mixture data with linear scorers, the deferral-aware
    surrogates reach >= 0.98 mean test accuracy at 16000 samples while both
    baselines trail by at least 0.05."""
    t0 = time.time()
    mog = MogConfig()
    rows = [row for trial in range(5)
            for row in run_sweep_trial(77, SWEEP_METHODS, 16_000, trial, mog,
                                       test_samples=10_000, config=TrainConfig(
                                           learning_rate=0.3, epochs=200,
                                           optimizer="momentum", batch_size=128))]
    means = {method: float(np.mean([r[-1] for r in rows if r[0] == method]))
             for method in SWEEP_METHODS}
    assert means["ours_q07"] >= 0.98, means
    assert means["ours_q1"] >= 0.98, means
    assert means["verma23"] <= means["ours_q1"] - 0.05, means
    assert means["mao24"] <= means["ours_q1"] - 0.05, means
    elapsed = time.time() - t0
    budget(8, elapsed, 600.0)
    report(8, f"mean test accuracy {means}, {elapsed:.1f}s")


@pytest.mark.slow
def test_criterion_9_two_stage_realizability():
    """Two-stage training drives the allocation loss to ~0 on realizable
    routing data: logistic margin loss at n_e = 2, q = 0 family at n_e = 4."""
    t0 = time.time()
    results = {}
    for n_e, selector in (
            (2, LossSelector("two_stage_phi", phi=PhiSpec(PhiKind.LOGISTIC))),
            (4, LossSelector("two_stage_psi", psi=PsiSpec(q=0.0)))):
        cfg = MogConfig(n_e=n_e)
        vals = []
        for trial in range(5):
            ds, _ = gen_realizable_two_stage(cfg, 4000, seed=900 + trial)
            scorer = init_linear(cfg.dim, n_e, trial)
            fitted, _ = train(scorer, ds, selector,
                              TrainConfig(learning_rate=5.0, epochs=300,
                                          seed=trial, optimizer="momentum"))
            vals.append(float(realized_deferral_loss(fitted, ds).mean()))
        results[n_e] = float(np.mean(vals))
        assert results[n_e] <= 0.01, results
    elapsed = time.time() - t0
    budget(9, elapsed, 180.0)
    report(9, f"mean allocation loss {results}, {elapsed:.1f}s")


def test_criterion_10_tabular_bayes_consistency():
    """Gradient descent on a tabular hypothesis under the q=1 surrogate
    reaches near-zero deferral excess on a fixed six-point task."""
    t0 = time.time()
    for idx in range(1000):
        task = gen_random_discrete_task(4242, idx, n_max=4, ne_max=3, k_max=6)
        if task.num_points == 6:
            break
    assert task.num_points == 6
    shape = task.shape
    width = shape.augmented_size
    scores = np.zeros((task.num_points, width))
    lr = 2.0
    # one row per (point, label), weighted by mu_k p(y|k)
    labels = np.tile(np.arange(shape.n), task.num_points)
    costs = task.costs.reshape(-1, shape.n_e)
    weights = (task.mu[:, None] * task.conditionals)[..., None]
    for _ in range(3000):
        _, grads = surrogate_single_with_grad_batch(np.repeat(scores, shape.n, axis=0), labels,
                                                    costs, shape, PsiSpec(q=1.0))
        scores -= lr * (weights * grads.reshape(task.num_points, shape.n, width)).sum(axis=1)
    excess = empirical_excess(task, TabularHypothesis(scores),
                              LossSelector("deferral"))
    assert excess <= 1e-3, f"deferral excess {excess:.2e}"
    elapsed = time.time() - t0
    budget(10, elapsed, 60.0)
    report(10, f"deferral excess after tabular GD = {excess:.2e}, "
               f"{elapsed:.1f}s")
