"""Analytic gradients against central finite differences."""

import numpy as np
import pytest

from deferkit.losses import (
    PhiKind,
    PhiSpec,
    ProblemShape,
    PsiSpec,
    surrogate_mae,
    surrogate_single,
    two_stage_surrogate_phi,
    two_stage_surrogate_psi,
)
from scalar_forms import (
    baseline_mao,
    baseline_mao_grad,
    baseline_verma,
    baseline_verma_grad,
    surrogate_mae_grad,
    surrogate_single_grad,
    two_stage_surrogate_phi_grad,
    two_stage_surrogate_psi_grad,
)

STEP = 1e-5
RTOL = 1e-5


def central_diff(fn, scores):
    grad = np.empty_like(scores)
    for i in range(len(scores)):
        hi = scores.copy()
        lo = scores.copy()
        hi[i] += STEP
        lo[i] -= STEP
        grad[i] = (fn(hi) - fn(lo)) / (2 * STEP)
    return grad


def assert_matches_fd(fn, grad_fn, scores):
    num = central_diff(fn, scores)
    ana = grad_fn(scores)
    denom = max(np.linalg.norm(num), 1e-8)
    assert np.linalg.norm(ana - num) / denom <= RTOL


@pytest.mark.parametrize("q", [0.0, 0.3, 0.7, 1.0])
def test_surrogate_single_grad(q):
    g = np.random.default_rng(1)
    shape = ProblemShape(3, 2)
    psi = PsiSpec(q=q)
    for _ in range(20):
        scores = g.standard_normal(5)
        y = int(g.integers(0, 3))
        costs = g.uniform(0, 1, size=2)
        assert_matches_fd(
            lambda s: surrogate_single(s, y, costs, shape, psi),
            lambda s: surrogate_single_grad(s, y, costs, shape, psi),
            scores)


def test_surrogate_mae_grad():
    g = np.random.default_rng(2)
    shape = ProblemShape(4, 3)
    for _ in range(20):
        scores = g.standard_normal(7)
        y = int(g.integers(0, 4))
        costs = g.uniform(0, 1, size=3)
        assert_matches_fd(
            lambda s: surrogate_mae(s, y, costs, shape),
            lambda s: surrogate_mae_grad(s, y, costs, shape),
            scores)


@pytest.mark.parametrize("q", [0.0, 0.5, 1.0])
def test_baseline_mao_grad(q):
    g = np.random.default_rng(3)
    shape = ProblemShape(3, 2)
    psi = PsiSpec(q=q)
    for _ in range(20):
        scores = g.standard_normal(5)
        y = int(g.integers(0, 3))
        costs = g.uniform(0, 1, size=2)
        assert_matches_fd(
            lambda s: baseline_mao(s, y, costs, shape, psi),
            lambda s: baseline_mao_grad(s, y, costs, shape, psi),
            scores)


def test_baseline_verma_grad():
    g = np.random.default_rng(4)
    shape = ProblemShape(3, 2)
    for _ in range(20):
        scores = g.standard_normal(5)
        y = int(g.integers(0, 3))
        costs = g.uniform(0, 1, size=2)
        assert_matches_fd(
            lambda s: baseline_verma(s, y, costs, shape),
            lambda s: baseline_verma_grad(s, y, costs, shape),
            scores)


@pytest.mark.parametrize("kind", [PhiKind.LOGISTIC, PhiKind.EXPONENTIAL])
def test_two_stage_phi_grad(kind):
    g = np.random.default_rng(5)
    phi = PhiSpec(kind)
    for _ in range(20):
        scores = g.standard_normal(2)
        costs = g.uniform(0, 1, size=2)
        assert_matches_fd(
            lambda s: two_stage_surrogate_phi(s, costs, phi),
            lambda s: two_stage_surrogate_phi_grad(s, costs, phi),
            scores)


def test_two_stage_hinge_grad_off_kink():
    # hinge is non-differentiable at margin 1; stay away from it
    g = np.random.default_rng(6)
    phi = PhiSpec(PhiKind.HINGE)
    for _ in range(20):
        scores = g.standard_normal(2) * 0.3  # margins well inside (-1, 1)
        costs = g.uniform(0, 1, size=2)
        assert_matches_fd(
            lambda s: two_stage_surrogate_phi(s, costs, phi),
            lambda s: two_stage_surrogate_phi_grad(s, costs, phi),
            scores)


@pytest.mark.parametrize("q", [0.0, 0.5, 1.0])
def test_two_stage_psi_grad(q):
    g = np.random.default_rng(7)
    psi = PsiSpec(q=q)
    for _ in range(20):
        n_e = int(g.integers(2, 5))
        scores = g.standard_normal(n_e)
        costs = g.uniform(0, 1, size=n_e)
        assert_matches_fd(
            lambda s: two_stage_surrogate_psi(s, costs, psi),
            lambda s: two_stage_surrogate_psi_grad(s, costs, psi),
            scores)


def test_saturated_gradient_is_small():
    shape = ProblemShape(2, 1)
    scores = np.array([60.0, 0.0, 0.0])
    grad = surrogate_single_grad(scores, 0, np.array([1.0]), shape, PsiSpec(q=1.0))
    assert np.linalg.norm(grad) <= 1e-9
