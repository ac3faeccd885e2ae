"""Surrogate losses and exact consistency checks for learning to defer to
multiple experts, in single-stage and two-stage form."""

__version__ = "0.1.0"

from .losses import (LossSelector, PhiKind, PhiSpec, ProblemShape, PsiSpec,
                     deferral_loss, softmax, surrogate_mae, surrogate_single,
                     two_stage_deferral_loss, two_stage_surrogate_phi,
                     two_stage_surrogate_psi)
from .models import (LabeledDataset, LinearScorer, MlpScorer,
                     TrainConfig, TrainingDiverged, init_linear, init_mlp,
                     system_accuracy, train)
from .oracles import (DiscreteTask, NoiseProfile, RegretReport,
                      TabularHypothesis, bayes_deferral, bayes_two_stage,
                      conditional_regret_def, conditional_regret_tdef,
                      fit_tsybakov_B, verify_bound_single_mae,
                      verify_bound_two_expert_phi, verify_bound_two_stage,
                      verify_enhanced_bound, verify_lemma_noise)
from .synthdata import (ExpertRangeSpec, MogConfig, gen_random_discrete_task,
                        gen_realizable_mog, gen_realizable_two_stage)

__all__ = [
    "__version__",
    "LossSelector", "PhiKind", "PhiSpec", "ProblemShape", "PsiSpec",
    "deferral_loss", "softmax", "surrogate_mae", "surrogate_single",
    "two_stage_deferral_loss", "two_stage_surrogate_phi",
    "two_stage_surrogate_psi",
    "LabeledDataset", "LinearScorer", "MlpScorer",
    "TrainConfig", "TrainingDiverged", "init_linear", "init_mlp",
    "system_accuracy", "train",
    "DiscreteTask", "NoiseProfile", "RegretReport", "TabularHypothesis",
    "bayes_deferral", "bayes_two_stage", "conditional_regret_def",
    "conditional_regret_tdef", "fit_tsybakov_B",
    "verify_bound_single_mae", "verify_bound_two_expert_phi",
    "verify_bound_two_stage", "verify_enhanced_bound", "verify_lemma_noise",
    "ExpertRangeSpec", "MogConfig", "gen_random_discrete_task",
    "gen_realizable_mog", "gen_realizable_two_stage",
]
