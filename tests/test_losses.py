import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deferkit import losses
from deferkit.losses import (
    LossSelector,
    PhiKind,
    PhiSpec,
    ProblemShape,
    PsiSpec,
    deferral_loss,
    softmax,
    surrogate_mae,
    surrogate_single,
    two_stage_deferral_loss,
    two_stage_surrogate_phi,
    two_stage_surrogate_psi,
    two_stage_surrogate_psi_with_grad_batch,
)
from deferkit.models import loss_and_grad
import row_major_kernels
import scalar_forms
from scalar_forms import baseline_mao, baseline_mao_batch, baseline_verma, deferral_loss_alt


def test_softmax_uniform():
    np.testing.assert_allclose(softmax(np.zeros(3)), np.full(3, 1 / 3))


def test_softmax_no_overflow():
    s = softmax(np.array([1000.0, 0.0, 0.0]))
    assert np.all(np.isfinite(s))
    assert s[0] == pytest.approx(1.0)


def test_softmax_two_point():
    s = softmax(np.array([1.0, 2.0]))
    np.testing.assert_allclose(s, [1 / (1 + np.e), np.e / (1 + np.e)])


def test_softmax_rejects_nonfinite():
    with pytest.raises(ValueError, match="^scores must"):
        softmax(np.array([np.nan, 0.0]))
    # an empty score axis is an error that names the scores
    for empty in ([], np.zeros((3, 0)), 1.0):
        with pytest.raises(ValueError, match="^scores need a nonempty last axis"):
            softmax(empty)


def test_deferral_loss_correct_prediction():
    shape = ProblemShape(3, 2)
    scores = np.array([0.0, 5.0, 0.0, 0.0, 0.0])
    assert deferral_loss(scores, 1, np.array([0.4, 0.9]), shape) == 0.0


def test_deferral_loss_reads_expert_cost():
    shape = ProblemShape(3, 2)
    scores = np.array([0.0, 0.0, 0.0, 5.0, 0.0])  # argmax at expert 1
    assert deferral_loss(scores, 0, np.array([0.4, 0.9]), shape) == 0.4


def test_deferral_loss_misclassification():
    shape = ProblemShape(2, 2)
    scores = np.array([0.0, 5.0, 0.0, 0.0])
    assert deferral_loss(scores, 0, np.array([0.5, 0.5]), shape) == 1.0


def test_deferral_loss_alt_hand_example():
    # defer to expert 2 with c = (1, 0): both forms give 0
    shape = ProblemShape(2, 2)
    scores = np.array([0.0, 0.0, 0.0, 5.0])
    costs = np.array([1.0, 0.0])
    assert deferral_loss_alt(scores, 0, costs, shape) == pytest.approx(0.0)
    assert deferral_loss(scores, 0, costs, shape) == 0.0


def test_deferral_loss_alt_zero_when_correct():
    shape = ProblemShape(4, 3)
    scores = np.array([0.0, 0.0, 9.0, 0.0, 0.0, 0.0, 0.0])
    costs = np.array([0.2, 0.8, 0.5])
    assert deferral_loss_alt(scores, 2, costs, shape) == 0.0


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 10), st.integers(1, 5), st.integers(0, 2**31 - 1))
def test_deferral_loss_forms_agree(n, n_e, seed):
    g = np.random.default_rng(seed)
    shape = ProblemShape(n, n_e)
    scores = g.standard_normal(n + n_e)
    y = int(g.integers(0, n))
    costs = g.uniform(0.0, 1.0, size=n_e)
    a = deferral_loss(scores, y, costs, shape)
    b = deferral_loss_alt(scores, y, costs, shape)
    assert abs(a - b) <= 1e-12


def test_two_stage_deferral_examples():
    assert two_stage_deferral_loss(np.array([2.0, 1.0]), np.array([0.3, 0.7])) == 0.3
    # tie broken to the lowest index
    assert two_stage_deferral_loss(np.array([0.0, 0.0]), np.array([0.3, 0.7])) == 0.3
    assert two_stage_deferral_loss(np.array([-1.0, 4.0, 2.0]),
                                   np.array([1.0, 0.0, 0.5])) == 0.0


def test_two_stage_deferral_width_mismatch():
    with pytest.raises(ValueError):
        two_stage_deferral_loss(np.array([1.0, 2.0]), np.array([0.3, 0.7, 0.1]))


def test_surrogate_single_hand_values():
    shape = ProblemShape(2, 1)
    psi = PsiSpec(q=1.0)
    scores = np.zeros(3)
    val = surrogate_single(scores, 0, np.array([1.0]), shape, psi)
    assert val == pytest.approx(2 / 3)
    val = surrogate_single(scores, 0, np.array([0.0]), shape, psi)
    assert val == pytest.approx(1 / 3)


def test_surrogate_single_saturates_to_zero():
    shape = ProblemShape(2, 1)
    scores = np.array([50.0, 0.0, 0.0])
    val = surrogate_single(scores, 0, np.array([0.3]), shape, PsiSpec(q=1.0))
    assert val == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("n,n_e,field", [
    (2, float("nan"), "n_e"), (2.5, 1, "n"), ("a", 1, "n"), (True, 1, "n"), (2, 1.0, "n_e"),
    (1, 1, "n"), (2, 0, "n_e"),
])
def test_problem_shape_needs_integer_counts(n, n_e, field):
    with pytest.raises(ValueError, match=f"^{field} must be an integer >= "):
        ProblemShape(n, n_e)
    assert ProblemShape(np.int64(2), np.int64(1)).augmented_size == 3


def test_surrogate_single_names_a_missing_psi():
    with pytest.raises(ValueError, match="^psi must be a PsiSpec"):
        surrogate_single(np.zeros(3), 0, [0.5], ProblemShape(2, 1), None)


def test_psi_spec_validation():
    with pytest.raises(ValueError):
        PsiSpec(q=1.5)
    with pytest.raises(ValueError):
        PsiSpec(q=-0.1)
    for q in ("0.5", float("nan"), float("inf"), None, True):
        with pytest.raises(ValueError, match="^q must be finite and >= 0.0"):
            PsiSpec(q=q)


def test_surrogate_mae_is_q1_alias():
    g = np.random.default_rng(0)
    shape = ProblemShape(3, 2)
    psi = PsiSpec(q=1.0)
    for _ in range(50):
        scores = g.standard_normal(5)
        y = int(g.integers(0, 3))
        costs = g.uniform(0, 1, size=2)
        assert surrogate_mae(scores, y, costs, shape) == \
            surrogate_single(scores, y, costs, shape, psi)


def test_scale_realizability_limit():
    # a correct prediction scaled by 1e3 drives the surrogate to ~0 for q > 0
    shape = ProblemShape(3, 2)
    base = np.array([3.0, 1.0, 0.0, -1.0, 0.5])  # argmax at label 0
    costs = np.array([1.0, 1.0])
    for q in (0.3, 0.7, 1.0):
        val = surrogate_single(1e3 * base, 0, costs, shape, PsiSpec(q=q))
        assert val <= 1e-6
    # deferral case: chosen expert free, others cost 1
    base = np.array([0.0, 1.0, 0.0, 3.0, 0.5])  # argmax at expert 1
    val = surrogate_single(1e3 * base, 1, np.array([0.0, 1.0]), shape, PsiSpec(q=1.0))
    assert val <= 1e-6


def test_decision_scale_invariance():
    g = np.random.default_rng(7)
    for _ in range(100):
        scores = g.standard_normal(5)
        for alpha in (0.5, 3.0, 1e4):
            assert np.argmax(alpha * scores) == np.argmax(scores)


def test_baseline_verma_hand_values():
    shape = ProblemShape(2, 1)
    scores = np.zeros(3)
    # all costs 1: only the -log s_y term survives
    assert baseline_verma(scores, 0, np.array([1.0]), shape) == \
        pytest.approx(-np.log(1 / 3))
    # free expert adds its own log term
    assert baseline_verma(scores, 0, np.array([0.0]), shape) == \
        pytest.approx(-2 * np.log(1 / 3))
    assert baseline_verma(np.array([50.0, 0, 0]), 0, np.array([1.0]), shape) == \
        pytest.approx(0.0, abs=1e-9)


def verma_reference(scores, y, costs, shape):
    """Verma et al.'s multi-expert cross-entropy written out: negative log
    mass on the label plus cost-weighted negative logs on expert slots."""
    lp = np.log(np.clip(softmax(scores), 1e-12, 1.0))
    return -lp[y] - ((1.0 - costs) * lp[shape.n:]).sum()


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 6), st.integers(1, 3), st.integers(0, 2**31 - 1))
def test_baseline_mao_q0_equals_verma(n, n_e, seed):
    g = np.random.default_rng(seed)
    shape = ProblemShape(n, n_e)
    scores = g.standard_normal(n + n_e)
    y = int(g.integers(0, n))
    costs = g.uniform(0, 1, size=n_e)
    a = baseline_mao(scores, y, costs, shape, PsiSpec(q=0.0))
    b = verma_reference(scores, y, costs, shape)
    assert abs(a - b) <= 1e-12


def test_baseline_mao_q1_hand_value():
    shape = ProblemShape(2, 1)
    val = baseline_mao(np.zeros(3), 0, np.array([0.0]), shape, PsiSpec(q=1.0))
    assert val == pytest.approx(4 / 3)


def test_two_stage_phi_hand_values():
    logistic = PhiSpec(PhiKind.LOGISTIC)
    assert two_stage_surrogate_phi(np.array([0.0, 0.0]), np.array([1.0, 0.0]),
                                   logistic) == pytest.approx(np.log(2))
    assert two_stage_surrogate_phi(np.array([3.0, -1.0]), np.array([0.0, 0.0]),
                                   logistic) == 0.0
    hinge = PhiSpec(PhiKind.HINGE)
    assert two_stage_surrogate_phi(np.array([2.0, 0.0]), np.array([1.0, 1.0]),
                                   hinge) == pytest.approx(3.0)


def test_two_stage_phi_requires_two_experts():
    with pytest.raises(ValueError):
        two_stage_surrogate_phi(np.array([1.0, 2.0, 3.0]),
                                np.array([1.0, 0.0, 0.0]),
                                PhiSpec(PhiKind.LOGISTIC))


def test_two_stage_psi_hand_values():
    # n_e=2, q=0 coincides with the margin form at equal scores
    val = two_stage_surrogate_psi(np.zeros(2), np.array([1.0, 0.0]), PsiSpec(q=0.0))
    assert val == pytest.approx(np.log(2))
    # n_e=3, all costs 1, uniform scores, q=1
    val = two_stage_surrogate_psi(np.zeros(3), np.ones(3), PsiSpec(q=1.0))
    assert val == pytest.approx(2.0)


def test_two_stage_psi_grad_batch_checks_shapes():
    # the gradient entry point rejects what its loss sibling rejects
    psi = PsiSpec(q=0.5)
    with pytest.raises(ValueError, match="cost width"):
        two_stage_surrogate_psi_with_grad_batch(np.zeros((2, 3)), np.ones((2, 2)), psi)
    with pytest.raises(ValueError, match="at least 2 experts"):
        two_stage_surrogate_psi_with_grad_batch(np.zeros((2, 1)), np.ones((2, 1)), psi)


def test_two_stage_psi_realizable_limit():
    # one free expert, the others cost 1: saturating its score kills the loss
    costs = np.array([1.0, 0.0, 1.0])
    scores = np.array([0.0, 60.0, 0.0])
    for q in (0.0, 1.0):
        assert two_stage_surrogate_psi(scores, costs, PsiSpec(q=q)) <= 1e-9


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_two_stage_psi_matches_phi_for_two_experts(seed):
    # with Phi(t) = Psi(sigmoid(t)) and Psi = -log, the two forms coincide
    g = np.random.default_rng(seed)
    scores = g.standard_normal(2)
    costs = g.uniform(0, 1, size=2)
    psi_val = two_stage_surrogate_psi(scores, costs, PsiSpec(q=0.0))
    phi_val = two_stage_surrogate_phi(scores, costs, PhiSpec(PhiKind.LOGISTIC))
    assert abs(psi_val - phi_val) <= 1e-12


def test_loss_range_invariants():
    g = np.random.default_rng(42)
    shape = ProblemShape(3, 2)
    for _ in range(200):
        scores = g.standard_normal(5)
        y = int(g.integers(0, 3))
        costs = g.uniform(0, 1, size=2)
        assert deferral_loss(scores, y, costs, shape) in {0.0, 1.0} or \
            0.0 <= deferral_loss(scores, y, costs, shape) <= 1.0
        assert surrogate_mae(scores, y, costs, shape) >= -1e-12
        assert baseline_verma(scores, y, costs, shape) >= -1e-12


def clip_value(psi, u):
    """PsiSpec.value written with np.clip, as before the clamp used
    np.minimum/np.maximum."""
    if psi.q == 0.0:
        return -np.log(np.clip(u, psi.clamp_epsilon, 1.0))
    return (1.0 - np.clip(u, 0.0, 1.0) ** psi.q) / psi.q


def clip_deriv(psi, u):
    if psi.q == 0.0:
        return -1.0 / np.clip(u, psi.clamp_epsilon, 1.0)
    if psi.q == 1.0:
        return -np.ones_like(u)
    return -np.clip(u, psi.clamp_epsilon, 1.0) ** (psi.q - 1.0)


_EDGE_U = [0.0, -0.0, 1e-12, 5e-13, 1.0, 1.0 + 1e-16, -1e-300, -2.0, 3.0,
           np.inf, -np.inf, np.nan]


@settings(max_examples=200, deadline=None)
@given(q=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
       u=st.lists(st.one_of(st.sampled_from(_EDGE_U), st.floats(-2.0, 3.0),
                            st.floats()), min_size=1, max_size=16))
def test_psi_clamp_equals_clip(q, u):
    psi = PsiSpec(q=q)
    u = np.array(u)
    # same bits, so the same NaNs and signed zeros
    for got, want in ((psi.value(u), clip_value(psi, u)),
                      (psi.deriv(u), clip_deriv(psi, u))):
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


# each scalar form on one row, called with that row's costs
_SCALAR_FORMS = {
    "deferral_loss": lambda c: deferral_loss([0.0, 0.0, 5.0, 0.0], 0, c, ProblemShape(2, 2)),
    "two_stage_deferral_loss": lambda c: two_stage_deferral_loss([5.0, 0.0], c),
    "surrogate_single": lambda c: surrogate_single([0.0, 1.0, 0.5, 0.0], 0, c,
                                                   ProblemShape(2, 2), PsiSpec(q=0.7)),
    "surrogate_mae": lambda c: surrogate_mae([0.0, 1.0, 0.5, 0.0], 0, c, ProblemShape(2, 2)),
    "two_stage_surrogate_phi": lambda c: two_stage_surrogate_phi([0.5, 0.0], c, PhiSpec()),
    "two_stage_surrogate_psi": lambda c: two_stage_surrogate_psi([0.5, 0.0], c, PsiSpec(q=0.7)),
}


# each scalar form's arguments, in order and by name
_SCALAR_ARGUMENTS = {
    deferral_loss: dict(scores=[0.0, 0.0, 5.0, 0.0], y=0, costs=[0.2, 0.7],
                        shape=ProblemShape(2, 2)),
    two_stage_deferral_loss: dict(scores=[5.0, 0.0], costs=[0.2, 0.7]),
    surrogate_single: dict(scores=[0.0, 1.0, 0.5, 0.0], y=1, costs=[0.2, 0.7],
                           shape=ProblemShape(2, 2), psi=PsiSpec(q=0.5)),
    surrogate_mae: dict(scores=[0.0, 1.0, 0.5, 0.0], y=1, costs=[0.2, 0.7],
                        shape=ProblemShape(2, 2)),
    two_stage_surrogate_phi: dict(scores=[0.5, 0.0], costs=[0.2, 0.7], phi=PhiSpec()),
    two_stage_surrogate_psi: dict(scores=[0.5, 0.0, -1.0], costs=[0.2, 0.7, 0.9],
                                  psi=PsiSpec(q=0.5)),
}


@pytest.mark.parametrize("form", _SCALAR_ARGUMENTS, ids=lambda form: form.__name__)
def test_scalar_forms_take_their_arguments_by_keyword(form):
    named = list(_SCALAR_ARGUMENTS[form].items())
    want = np.float64(form(*(value for _, value in named))).view(np.uint64)
    for split in range(len(named)):   # the first `split` by position, the rest by keyword
        got = form(*(value for _, value in named[:split]), **dict(named[split:]))
        assert np.float64(got).view(np.uint64) == want, split
    # the Psi and Phi kernels check their spec
    spec = {surrogate_single: "psi", two_stage_surrogate_psi: "psi",
            two_stage_surrogate_phi: "phi"}.get(form)
    if spec is not None:
        with pytest.raises(ValueError, match=f"^{spec} must be a {spec.capitalize()}Spec"):
            form(**dict(named, **{spec: None}))
    if form in (two_stage_surrogate_psi, two_stage_surrogate_phi):
        for kernel in (getattr(losses, f"{form.__name__}_batch"),
                       getattr(losses, f"{form.__name__}_with_grad_batch")):
            with pytest.raises(ValueError, match=f"^{spec} must be a {spec.capitalize()}Spec"):
                kernel([named[0][1]], [named[1][1]], None)


@settings(max_examples=150, deadline=None)
@given(form=st.sampled_from(sorted(_SCALAR_FORMS)),
       bad=st.one_of(st.just(np.nan), st.floats(max_value=-5e-324),
                     st.floats(min_value=1.0, exclude_min=True)),
       good=st.floats(0.0, 1.0), slot=st.integers(0, 1))
def test_scalar_forms_reject_a_cost_outside_the_unit_interval(form, bad, good, slot):
    # a cost outside [0, 1] is refused, never read into a loss
    costs = [good, good]
    assert np.isfinite(_SCALAR_FORMS[form](costs))
    costs[slot] = bad
    with pytest.raises(ValueError, match="^costs must lie in"):
        _SCALAR_FORMS[form](costs)


_REFERENCE_U = [0.0, 1e-13, 1e-12, 0.5, 1.0, 1.5, np.nan]


@settings(max_examples=200, deadline=None)
@given(q=st.one_of(st.sampled_from([0.0, 0.5, 0.7, 1.0]), st.floats(0.0, 1.0)),
       u=st.lists(st.one_of(st.sampled_from(_REFERENCE_U), st.floats(-2.0, 3.0)), max_size=16))
def test_psi_spec_keeps_the_bits_of_its_own_formulas(q, u):
    # PsiSpec's value and deriv, which its comp-sum column computes, keep the
    # bits of the reference formulas
    psi, u = PsiSpec(q=q), np.array(u + _REFERENCE_U)
    with np.errstate(over="ignore"):         # a subnormal q overflows both alike
        pairs = ((psi.value(u), scalar_forms.psi_value_reference(psi, u)),
                 (psi.deriv(u), scalar_forms.psi_deriv_reference(psi, u)))
    for got, want in pairs:
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


_SHAPE = ProblemShape(3, 2)
_PSI = PsiSpec(q=0.7)
_PHI = PhiSpec(PhiKind.LOGISTIC)


def _labeled(fn, *extra):
    return lambda s, y, c: fn(s, y, c, _SHAPE, *extra)


def _two_stage(fn, *extra):
    return lambda s, y, c: fn(s, c, *extra)


def _trainer(selector):
    return lambda s, y, c: loss_and_grad(selector, s, y, c, _SHAPE)


# every batch kernel by id, called on (scores, labels, costs), and whether it
# reads labels. The ids of the removed *_grad_batch forms run the trainer's
# dispatch for that loss, and baseline_mao_batch and baseline_verma_batch
# run the comp-sum value kernel on the baseline's spec.
_KERNELS = [
    ("deferral_loss_batch", _labeled(losses.deferral_loss_batch), True),
    ("deferral_loss_alt_batch", _labeled(scalar_forms.deferral_loss_alt_batch), True),
    ("surrogate_single_batch", _labeled(losses.surrogate_single_batch, _PSI), True),
    ("surrogate_single_with_grad_batch",
     _labeled(losses.surrogate_single_with_grad_batch, _PSI), True),
    ("surrogate_single_grad_batch", _trainer(LossSelector("surrogate_single", psi=_PSI)), True),
    ("surrogate_mae_batch", _labeled(losses.surrogate_mae_batch), True),
    ("surrogate_mae_grad_batch", _trainer(LossSelector("surrogate_mae")), True),
    ("baseline_mao_batch", _labeled(baseline_mao_batch, _PSI), True),
    ("baseline_mao_with_grad_batch", _labeled(losses.baseline_mao_with_grad_batch, _PSI), True),
    ("baseline_mao_grad_batch", _trainer(LossSelector("baseline_mao", psi=_PSI)), True),
    ("baseline_verma_batch", _labeled(baseline_mao_batch, PsiSpec(q=0.0)), True),
    ("baseline_verma_with_grad_batch", _labeled(losses.baseline_verma_with_grad_batch), True),
    ("baseline_verma_grad_batch", _trainer(LossSelector("baseline_verma")), True),
    ("two_stage_deferral_loss_batch", _two_stage(losses.two_stage_deferral_loss_batch), False),
    ("two_stage_surrogate_phi_batch", _two_stage(losses.two_stage_surrogate_phi_batch, _PHI), False),
    ("two_stage_surrogate_phi_with_grad_batch",
     _two_stage(losses.two_stage_surrogate_phi_with_grad_batch, _PHI), False),
    ("two_stage_surrogate_phi_grad_batch", _trainer(LossSelector("two_stage_phi", phi=_PHI)), False),
    ("two_stage_surrogate_psi_batch", _two_stage(losses.two_stage_surrogate_psi_batch, _PSI), False),
    ("two_stage_surrogate_psi_with_grad_batch",
     _two_stage(losses.two_stage_surrogate_psi_with_grad_batch, _PSI), False),
    ("two_stage_surrogate_psi_grad_batch", _trainer(LossSelector("two_stage_psi", psi=_PSI)), False),
]


def call_kernel(kernel, scores, labels, costs):
    return kernel[1](scores, labels, costs)


def kernel_inputs(kernel, m, seed):
    g = np.random.default_rng(seed)
    width = _SHAPE.augmented_size if kernel[2] else _SHAPE.n_e
    return (g.standard_normal((m, width)), g.integers(0, _SHAPE.n, size=m),
            g.uniform(0.0, 1.0, size=(m, _SHAPE.n_e)))


_kernel_ids = [k[0] for k in _KERNELS]


@pytest.mark.parametrize("kernel", _KERNELS, ids=_kernel_ids)
@settings(max_examples=25, deadline=None)
@given(m=st.integers(1, 6), where=st.integers(0, 10**6), seed=st.integers(0, 2**16),
       bad=st.sampled_from([np.nan, np.inf, -np.inf]))
def test_kernels_reject_non_finite_scores(kernel, m, where, seed, bad):
    scores, labels, costs = kernel_inputs(kernel, m, seed)
    scores.flat[where % scores.size] = bad
    with pytest.raises(ValueError, match="^scores must"):
        call_kernel(kernel, scores, labels, costs)


@pytest.mark.parametrize("kernel", [k for k in _KERNELS if k[2]],
                         ids=[i for i, k in zip(_kernel_ids, _KERNELS) if k[2]])
@settings(max_examples=25, deadline=None)
@given(m=st.integers(1, 6), where=st.integers(0, 10**6), seed=st.integers(0, 2**16),
       bad=st.one_of(st.integers(-10**6, -1), st.integers(_SHAPE.n, 10**6)))
def test_kernels_reject_out_of_range_labels(kernel, m, where, seed, bad):
    scores, labels, costs = kernel_inputs(kernel, m, seed)
    labels[where % m] = bad
    with pytest.raises(ValueError, match="^labels must"):
        call_kernel(kernel, scores, labels, costs)


@pytest.mark.parametrize("kernel", _KERNELS, ids=_kernel_ids)
@settings(max_examples=25, deadline=None)
@given(m=st.integers(1, 6), where=st.integers(0, 10**6), seed=st.integers(0, 2**16),
       bad=st.one_of(st.sampled_from([np.nan, np.inf, -np.inf]), st.floats(max_value=-5e-324),
                     st.floats(min_value=1.0, exclude_min=True)))
def test_kernels_reject_a_cost_outside_the_unit_interval(kernel, m, where, seed, bad):
    # a NaN or out-of-range cost once gave a NaN loss, or a loss off the
    # surrogate's scale, instead of an error
    scores, labels, costs = kernel_inputs(kernel, m, seed)
    costs.flat[where % costs.size] = bad
    with pytest.raises(ValueError, match="^costs must lie in"):
        call_kernel(kernel, scores, labels, costs)


@pytest.mark.parametrize("kernel", [k for k in _KERNELS if k[2]],
                         ids=[i for i, k in zip(_kernel_ids, _KERNELS) if k[2]])
@settings(max_examples=25, deadline=None)
@given(m=st.integers(1, 6), seed=st.integers(0, 2**16),
       kind=st.sampled_from(["float", "fractional", "bool"]), shift=st.floats(0.01, 0.99))
def test_kernels_reject_non_integer_labels(kernel, m, seed, kind, shift):
    # a label of 1.7 once scored as class 1; labels must be integers, not
    # numbers that truncate to one
    scores, labels, costs = kernel_inputs(kernel, m, seed)
    labels = {"float": labels.astype(float), "fractional": labels + shift,
              "bool": labels % 2 == 1}[kind]
    with pytest.raises(ValueError, match="labels must be integers"):
        call_kernel(kernel, scores, labels, costs)


# each turns well-formed (scores, labels, costs) of m >= 2 rows into a batch
# whose shapes do not fit together
_LABEL_MIS_SHAPES = [
    lambda s, y, c: (s, y[:1], c),           # one label for m score rows
    lambda s, y, c: (s, y[:, None], c),      # a column of labels
]
_COST_MIS_SHAPES = [
    lambda s, y, c: (s, y, c[:, :1]),        # (m, 1) costs
    lambda s, y, c: (s, y, c[:1]),           # (1, n_e) costs
    lambda s, y, c: (s, y, np.hstack([c, c[:, :1]])),  # (m, n_e + 1) costs
    lambda s, y, c: (s[None], y, c),         # scores stacked on a third axis
]


@pytest.mark.parametrize("kernel", _KERNELS, ids=_kernel_ids)
@settings(max_examples=25, deadline=None)
@given(m=st.integers(2, 6), seed=st.integers(0, 2**16), which=st.integers(0, 5))
def test_kernels_reject_mis_shaped_inputs(kernel, m, seed, which):
    mis_shapes = (_LABEL_MIS_SHAPES if kernel[2] else []) + _COST_MIS_SHAPES
    bad = mis_shapes[which % len(mis_shapes)](*kernel_inputs(kernel, m, seed))
    with pytest.raises(ValueError, match="need scores|cost width"):
        call_kernel(kernel, *bad)


@pytest.mark.parametrize("kernel", _KERNELS, ids=_kernel_ids)
def test_kernels_accept_an_empty_batch(kernel):
    scores, labels, costs = kernel_inputs(kernel, 0, 0)
    out = call_kernel(kernel, scores, labels, costs)
    for arr in out if isinstance(out, tuple) else (out,):
        assert arr.size == 0 and len(arr) == 0


# each surrogate row with the batch kernel that serves its values
_VALUE_KERNELS = {
    "surrogate_single": lambda sel, s, y, c, shp: losses.surrogate_single_batch(s, y, c, shp, sel.psi),
    "surrogate_mae": lambda sel, s, y, c, shp: losses.surrogate_mae_batch(s, y, c, shp),
    "baseline_verma": lambda sel, s, y, c, shp: baseline_mao_batch(s, y, c, shp, sel.psi),
    "baseline_mao": lambda sel, s, y, c, shp: baseline_mao_batch(s, y, c, shp, sel.psi),
    "two_stage_phi": lambda sel, s, y, c, shp: losses.two_stage_surrogate_phi_batch(s, c, sel.phi),
    "two_stage_psi": lambda sel, s, y, c, shp: losses.two_stage_surrogate_psi_batch(s, c, sel.psi),
}


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(sorted(_VALUE_KERNELS)), q=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
       kind=st.sampled_from(list(PhiKind)), n=st.sampled_from([2, 4, 5]),
       n_e=st.sampled_from([1, 2, 3]), m=st.integers(0, 8), scale=st.sampled_from([1.0, 40.0]),
       seed=st.integers(0, 2**31 - 1))
def test_value_kernel_equals_with_grad_value(name, q, kind, n, n_e, m, scale, seed):
    # the loss-only path gives the bits of the loss+grad path
    takes = {"surrogate_single": "psi", "baseline_mao": "psi", "two_stage_psi": "psi",
             "two_stage_phi": "phi"}.get(name)
    sel = LossSelector(name, psi=PsiSpec(q=q) if takes == "psi" else None,
                       phi=PhiSpec(kind) if takes == "phi" else None)
    if sel.stage == "two":
        n_e = 2 if name == "two_stage_phi" else max(n_e, 2)
    shape = ProblemShape(n, n_e)
    width = shape.augmented_size if sel.stage == "single" else n_e
    g = np.random.default_rng(seed)
    scores = scale * g.standard_normal((m, width))
    labels = g.integers(0, n, size=m)
    costs = g.uniform(0.0, 1.0, size=(m, n_e))
    value = _VALUE_KERNELS[name](sel, scores, labels, costs, shape)
    with_grad, _ = loss_and_grad(sel, scores, labels, costs, shape)
    assert value.dtype == with_grad.dtype and value.shape == with_grad.shape == (m,)
    assert value.tobytes() == with_grad.tobytes()


_CLASS_MAJOR_TWO_STAGE = ("two_stage_surrogate_psi_batch",
                          "two_stage_surrogate_psi_with_grad_batch")
_CLASS_MAJOR_SINGLE = ("surrogate_single_batch", "surrogate_single_with_grad_batch",
                       "baseline_mao_batch", "baseline_mao_with_grad_batch")


@settings(max_examples=300, deadline=None)
@given(width=st.integers(2, 12), q=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
       m=st.one_of(st.just(0), st.just(1), st.integers(2, 300)),
       layout=st.sampled_from(["C", "F", "transposed view"]),
       scale=st.sampled_from([1e-3, 1.0, 30.0]), seed=st.integers(0, 2**31 - 1))
def test_class_major_kernels_match_row_major(width, q, m, layout, scale, seed):
    # up to 7 classes numpy sums a row left to right, as the class-major sums
    # run, so the bits agree; from 8 on it sums a row pairwise
    g = np.random.default_rng(seed)
    s = scale * g.standard_normal((m, width))
    s = {"C": s, "F": np.asfortranarray(s),
         # a class-major array with a row stride of 2m, seen as (m, width)
         "transposed view": np.repeat(s.T, 2, axis=0)[::2].T}[layout]
    c = g.uniform(0.0, 1.0, (m, width)) if g.integers(2) else g.integers(0, 2, (m, width)) * 1.0
    psi = PsiSpec(q=q)
    calls = [(name, (s, c, psi)) for name in _CLASS_MAJOR_TWO_STAGE]
    if width >= 3:
        n = int(g.integers(2, width))
        shape, y = ProblemShape(n, width - n), g.integers(0, n, m)
        calls += [(name, (s, y, c[:, n:], shape, psi)) for name in _CLASS_MAJOR_SINGLE]
    for name, args in calls:
        kernel = getattr(losses, name, None) or getattr(scalar_forms, name)
        got, want = kernel(*args), getattr(row_major_kernels, name)(*args)
        if name.endswith("_with_grad_batch"):
            assert got[1].flags.c_contiguous, name
        else:
            got, want = (got,), (want,)
        for a, b in zip(got, want):
            assert a.shape == b.shape, name
            if width <= 7:
                assert a.tobytes() == b.tobytes(), name
            else:
                assert np.all(np.abs(a - b) <= 1e-12 * np.maximum(np.abs(b), 1.0)), name


# each stack kernel by name: (single stage, the spec it takes), called with
# the spec of the stack or of one model. The comp-sum kernel's models each
# take the surrogate or the baseline, so the stack mixes q and pairing, as
# LossSelector.stack gives it; the baseline kernels take one shared PsiSpec.
_STACK_KERNELS = {
    "deferral_loss_batch": (True, None), "deferral_loss_alt_batch": (True, None),
    "surrogate_single_batch": (True, "comp_sum"),
    "surrogate_single_with_grad_batch": (True, "comp_sum"),
    "baseline_mao_batch": (True, "one_psi"), "baseline_mao_with_grad_batch": (True, "one_psi"),
    "two_stage_deferral_loss_batch": (False, None),
    "two_stage_surrogate_psi_batch": (False, "two_stage_psi"),
    "two_stage_surrogate_psi_with_grad_batch": (False, "two_stage_psi"),
    "two_stage_surrogate_phi_batch": (False, "phi"),
    "two_stage_surrogate_phi_with_grad_batch": (False, "phi"),
}


@settings(max_examples=150, deadline=None)
@given(n=st.integers(2, 4), n_e=st.integers(1, 3), m=st.integers(0, 40), models=st.integers(1, 4),
       qs=st.one_of(st.just([0.0] * 4),
                    st.lists(st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.01, 1.0)),
                             min_size=4, max_size=4)),
       kind=st.sampled_from(list(PhiKind)), ties=st.booleans(),
       layout=st.sampled_from(["scorer", "C"]), seed=st.integers(0, 2**31 - 1))
def test_kernels_on_a_model_stack_equal_each_model_alone(n, n_e, m, models, qs, kind, ties,
                                                         layout, seed):
    g = np.random.default_rng(seed)
    specs = [PsiSpec(q=q) for q in qs[:models]]
    comp_sum = [LossSelector(("surrogate_single", "baseline_mao")[b], psi=spec)
                for b, spec in zip(g.integers(0, 2, models), specs)]
    two_stage_psi = [LossSelector("two_stage_psi", psi=spec) for spec in specs]
    for name, (single, takes) in _STACK_KERNELS.items():
        ne = 2 if "phi" in name else n_e if single else max(n_e, 2)
        shape = ProblemShape(n, ne)
        width = shape.augmented_size if single else ne
        # the scorers' stack output is the (m, S, width) view of (S, width, m)
        s = g.standard_normal((models, width, m)).transpose(2, 0, 1)
        s = np.round(2 * s) / 2 if ties else s
        s = np.ascontiguousarray(s) if layout == "C" else s
        y, c = g.integers(0, n, (m, models)), g.uniform(0.0, 1.0, (m, models, ne))
        selectors = {"comp_sum": comp_sum, "two_stage_psi": two_stage_psi}.get(takes)
        if selectors:
            spec, per_model = (LossSelector.stack(selectors),
                               [LossSelector.stack([sel]) for sel in selectors])
        else:
            spec = {"one_psi": specs[0], "phi": PhiSpec(kind), None: None}[takes]
            per_model = [spec] * models
        kernel = getattr(losses, name, None) or getattr(scalar_forms, name)

        def call(s, y, c, spec):
            args = (s, y, c, shape) if single else (s, c)
            return kernel(*args, *([] if spec is None else [spec]))

        got = call(s, y, c, spec)
        for k, one in enumerate(per_model):
            want = call(s[:, k], y[:, k], c[:, k], one)
            for a, b in zip(*((got, want) if isinstance(got, tuple) else ((got,), (want,)))):
                assert a[:, k].shape == b.shape and a[:, k].tobytes() == b.tobytes(), name


@settings(max_examples=150, deadline=None)
@given(n=st.integers(2, 5), n_e=st.integers(1, 4), m=st.integers(0, 60),
       layout=st.sampled_from(["scorer", "C"]), seed=st.integers(0, 2**31 - 1))
def test_target_kernels_take_the_first_of_tied_maxima(n, n_e, m, layout, seed):
    # scores in {-1, 0, 1} tie often; np.argmax keeps the lowest index
    g = np.random.default_rng(seed)
    shape = ProblemShape(n, n_e)
    s = g.integers(-1, 2, (shape.augmented_size, m)).astype(float).T
    s = np.ascontiguousarray(s) if layout == "C" else s
    y, c = g.integers(0, n, m), g.uniform(0.0, 1.0, (m, n_e))
    pred, rows = np.argmax(s, axis=-1), np.arange(m)
    want = np.where(pred >= n, c[rows, np.maximum(pred - n, 0)], (pred != y) * 1.0)
    assert losses.deferral_loss_batch(s, y, c, shape).tobytes() == want.tobytes()
    two, c2 = s[:, :max(n_e, 2)], g.uniform(0.0, 1.0, (m, max(n_e, 2)))
    want = c2[rows, np.argmax(two, axis=-1)]
    assert losses.two_stage_deferral_loss_batch(two, c2).tobytes() == want.tobytes()


# nonnegative weights, zeros included; small positive ones keep every power of
# a Psi minimiser above underflow
_WEIGHTS = st.one_of(st.just(0.0), st.floats(1e-3, 1.0))


@settings(max_examples=200, deadline=None)
@given(w=st.lists(_WEIGHTS, min_size=2, max_size=6),
       q=st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.7, 0.9, 1.0]), seed=st.integers(0, 2**32 - 1))
def test_psi_least_is_the_minimum_over_the_simplex(w, q, seed):
    # no simplex point (random ones, and the vertices) beats least, and the
    # closed-form minimiser, s proportional to w**(1/(1-q)) or the best vertex, reaches it
    psi, w = PsiSpec(q=q), np.array(w)
    least = psi.least(w)
    points = np.vstack([np.random.default_rng(seed).dirichlet(np.ones(len(w)), 256),
                        np.eye(len(w))])
    assert (w * psi.value(points)).sum(axis=-1).min() >= least - 1e-12
    if q == 1.0:
        best = np.eye(len(w))[np.argmax(w)]
    else:
        power = w ** (1.0 / (1.0 - q))
        best = power / power.sum() if power.sum() > 0.0 else np.full(len(w), 1.0 / len(w))
    assert abs((w * psi.value(best)).sum() - least) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(e=st.tuples(_WEIGHTS, _WEIGHTS), kind=st.sampled_from(list(PhiKind)),
       seed=st.integers(0, 2**32 - 1))
def test_phi_least_is_the_minimum_over_margins(e, kind, seed):
    # no margin d (random ones, and the hinge's kinks) beats the least risk
    # e0 phi(-d) + e1 phi(d), and with both weights positive the known
    # minimiser reaches it
    phi, e = PhiSpec(kind), np.array(e)
    least = phi.least(e)
    d = np.concatenate([np.random.default_rng(seed).standard_normal(256) * 4.0, [-1.0, 0.0, 1.0]])
    assert (e[0] * phi.value(-d) + e[1] * phi.value(d)).min() >= least - 1e-12
    if e.min() > 0.0:
        best = {PhiKind.LOGISTIC: np.log(e[1] / e[0]), PhiKind.EXPONENTIAL: np.log(e[1] / e[0]) / 2,
                PhiKind.HINGE: 1.0 if e[1] >= e[0] else -1.0}[kind]
        assert abs(e[0] * phi.value(-best) + e[1] * phi.value(best) - least) <= 1e-12
