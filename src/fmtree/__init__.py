"""Effort estimation from Use Case Points with a fuzzy-membership model tree.

The package couples fuzzy c-means memberships with an M5-style model tree for
early effort estimation, alongside three reference estimators (Huber-loss
stochastic gradient boosting, log-space multiple linear regression, and the
classical fixed-ratio UCP rule) and the evaluation protocol used to compare
them (MMRE/MdMRE/pred, residual boxplots, Wilcoxon-gated win-tie-loss ranks).
"""

from .baselines import (
    MlrModel,
    TreeboostConfig,
    TreeboostModel,
    fit_mlr,
    fit_treeboost,
    predict_mlr_dataset,
    predict_treeboost_dataset,
)
from .data import (
    EDU,
    IND1,
    IND2,
    PROFILES,
    Dataset,
    SourceProfile,
    generate_synthetic,
    parse_dataset,
    render_dataset,
    split_holdout,
)
from .evaluation import (
    BoxplotSummary,
    EvalReport,
    boxplot_summary,
    evaluate,
    mdmre,
    mmre,
    mre_vector,
    pred,
    wilcoxon_signed_rank,
    win_tie_loss,
)
from .fcm import (
    FcmConfig,
    FuzzyInferenceModel,
    FuzzyPartition,
    Standardization,
    build_fuzzy_model,
    fcm_cluster,
    membership_matrix,
)
from .fmt import FmtModel, predict_fmt_dataset, train_fmt
from .mtree import (
    ModelTree,
    TreeConfig,
    build_tree,
    prune,
)
from .ucp import (
    UcpBreakdown,
    UseCaseModel,
    classical_effort,
    compute_adjustment_factors,
    compute_ucp,
    compute_uucp,
)

__version__ = "0.1.0"

__all__ = [
    "BoxplotSummary",
    "Dataset",
    "EDU",
    "EvalReport",
    "FcmConfig",
    "FmtModel",
    "FuzzyInferenceModel",
    "FuzzyPartition",
    "IND1",
    "IND2",
    "MlrModel",
    "ModelTree",
    "PROFILES",
    "SourceProfile",
    "Standardization",
    "TreeConfig",
    "TreeboostConfig",
    "TreeboostModel",
    "UcpBreakdown",
    "UseCaseModel",
    "boxplot_summary",
    "build_fuzzy_model",
    "build_tree",
    "classical_effort",
    "compute_adjustment_factors",
    "compute_ucp",
    "compute_uucp",
    "evaluate",
    "fcm_cluster",
    "fit_mlr",
    "fit_treeboost",
    "generate_synthetic",
    "mdmre",
    "membership_matrix",
    "mmre",
    "mre_vector",
    "parse_dataset",
    "pred",
    "predict_fmt_dataset",
    "predict_mlr_dataset",
    "predict_treeboost_dataset",
    "prune",
    "render_dataset",
    "split_holdout",
    "train_fmt",
    "wilcoxon_signed_rank",
    "win_tie_loss",
]
