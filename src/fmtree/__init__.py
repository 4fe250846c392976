"""Effort estimation from Use Case Points with a fuzzy-membership model tree.

The package couples fuzzy c-means memberships with an M5-style model tree for
early effort estimation, alongside three reference estimators (Huber-loss
stochastic gradient boosting, log-space multiple linear regression, and the
classical fixed-ratio UCP rule) and the evaluation protocol used to compare
them (MMRE/MdMRE/pred, residual boxplots, Wilcoxon-gated win-tie-loss ranks).

Importing the package loads no numpy: each name below imports its module on
first use (PEP 562), so `fmtree.cli` can set up the process before numpy loads.
"""

import importlib

__version__ = "0.1.0"

_MODULES = {
    "baselines": "MlrModel TreeboostConfig TreeboostModel fit_mlr fit_treeboost "
    "predict_mlr_dataset predict_treeboost_dataset",
    "data": "EDU IND1 IND2 PROFILES Dataset SourceProfile generate_synthetic parse_dataset "
    "render_dataset split_holdout",
    "evaluation": "BoxplotSummary EvalReport boxplot_summary evaluate mdmre mmre mre_vector "
    "pred wilcoxon_signed_rank win_tie_loss",
    "fcm": "FcmConfig FuzzyInferenceModel FuzzyPartition Standardization build_fuzzy_model "
    "fcm_cluster membership_matrix",
    "fmt": "FmtModel predict_fmt_dataset train_fmt",
    "mtree": "ModelTree TreeConfig build_tree prune",
    "ucp": "UcpBreakdown UseCaseModel classical_effort compute_ucp",
}
# Each exported name mapped to the module that defines it.
_SOURCES = {name: module for module, names in _MODULES.items() for name in names.split()}
# Every submodule that resolves as an attribute on first use.  `cli` is left
# out: importing it sets OPENBLAS_NUM_THREADS, so it is imported explicitly.
_SUBMODULES = {*_MODULES, "svgplot"}

__all__ = sorted(_SOURCES)


def __getattr__(name: str):
    if name in _SUBMODULES:  # a submodule not yet imported
        return importlib.import_module(f".{name}", __name__)
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SOURCES[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
