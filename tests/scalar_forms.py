"""One-row value and gradient forms of the batch loss kernels that the
package does not export, for tests written against one score vector, and
the rewritten deferral loss that tests check the package's against."""

import numpy as np

from deferkit import losses
from deferkit.losses import LossSelector, PsiSpec, ProblemShape, _argmax, _labeled_inputs, _one_row


def deferral_loss_alt_batch(scores, y, costs, shape: ProblemShape) -> np.ndarray:
    """Rewritten deferral loss: a miss term weighted by the cost sum plus
    per-expert terms that vanish exactly at the chosen expert. Must agree
    with :func:`deferkit.losses.deferral_loss_batch` on all inputs."""
    s, y, c = _labeled_inputs(scores, y, costs, shape)
    pred = _argmax(s)
    miss = (pred != y).astype(float)
    bracket = c.sum(axis=-1) + 1.0 - shape.n_e
    not_j = (pred[..., None] != shape.n + np.arange(shape.n_e)).astype(float)
    return bracket * miss + ((1.0 - c) * not_j).sum(axis=-1) * miss


def _one_row_grad(kernel, row_args: int):
    """The score gradient of one row from a value-and-gradient batch kernel;
    arguments as for :func:`deferkit.losses._one_row`."""
    def grad(scores, *args):
        rows = [[a] for a in args[:row_args]]
        return kernel([scores], *rows, *args[row_args:])[1][0]

    return grad


def baseline_mao_batch(scores, y, costs, shape: ProblemShape, psi: PsiSpec) -> np.ndarray:
    """Mao et al.'s baseline values: the comp-sum value kernel on the spec
    that ``LossSelector.stack`` gives a lone baseline_mao model."""
    spec = LossSelector.stack([LossSelector("baseline_mao", psi=psi)])
    return losses.surrogate_single_batch(scores, y, costs, shape, spec)


def psi_value_reference(psi: PsiSpec, u) -> np.ndarray:
    """PsiSpec.value written out on its own: the reference for the column's bits."""
    u = np.asarray(u, dtype=float)
    if psi.q == 0.0:
        return -np.log(np.minimum(np.maximum(u, psi.clamp_epsilon), 1.0))
    return (1.0 - np.minimum(np.maximum(u, 0.0), 1.0) ** psi.q) / psi.q


def psi_deriv_reference(psi: PsiSpec, u) -> np.ndarray:
    """PsiSpec.deriv written out on its own: the reference for the column's bits."""
    u = np.asarray(u, dtype=float)
    if psi.q == 0.0:
        return -1.0 / np.minimum(np.maximum(u, psi.clamp_epsilon), 1.0)
    if psi.q == 1.0:
        return -np.ones_like(u)
    return -np.minimum(np.maximum(u, psi.clamp_epsilon), 1.0) ** (psi.q - 1.0)


_LOG = PsiSpec(q=0.0)
_MAE = PsiSpec(q=1.0)

deferral_loss_alt = _one_row(deferral_loss_alt_batch, 2)
baseline_mao = _one_row(baseline_mao_batch, 2)
surrogate_single_grad = _one_row_grad(losses.surrogate_single_with_grad_batch, 2)
baseline_mao_grad = _one_row_grad(losses.baseline_mao_with_grad_batch, 2)
baseline_verma_grad = _one_row_grad(losses.baseline_verma_with_grad_batch, 2)
two_stage_surrogate_phi_grad = _one_row_grad(losses.two_stage_surrogate_phi_with_grad_batch, 1)
two_stage_surrogate_psi_grad = _one_row_grad(losses.two_stage_surrogate_psi_with_grad_batch, 1)


def baseline_verma(scores, y: int, costs, shape) -> float:
    """Verma et al.'s multi-expert cross-entropy: baseline_mao at q = 0."""
    return baseline_mao(scores, y, costs, shape, _LOG)


def surrogate_mae_grad(scores, y: int, costs, shape):
    return surrogate_single_grad(scores, y, costs, shape, _MAE)
