"""One-row value and gradient forms of the batch loss kernels that the
package does not export, for tests written against one score vector."""

from deferkit import losses
from deferkit.losses import PsiSpec, _one_row


def _one_row_grad(kernel, row_args: int):
    """The score gradient of one row from a value-and-gradient batch kernel;
    arguments as for :func:`deferkit.losses._one_row`."""
    def grad(scores, *args):
        rows = [[a] for a in args[:row_args]]
        return kernel([scores], *rows, *args[row_args:])[1][0]

    return grad


_LOG = PsiSpec(q=0.0)
_MAE = PsiSpec(q=1.0)

deferral_loss_alt = _one_row(losses.deferral_loss_alt_batch, 2)
baseline_mao = _one_row(losses.baseline_mao_batch, 2)
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
