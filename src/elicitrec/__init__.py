"""Toolkit for recommending requirements-elicitation techniques.

A supervised pipeline over categorical project-context data: minority
oversampling (SMOTE), a from-scratch random forest with the mean split
entropy of each forest, from its trees' class counts, ROC convex-hull
model comparison, filter-based feature scoring, and threshold-based
technique recommendations.

The names of `__all__` load on first use (PEP 562), each from the module
that defines it, so neither `import elicitrec` nor a name from a
numpy-free module imports numpy. Those modules are `config`, `scores`,
`model_file` and `files`.
"""

import importlib

__version__ = "0.1.0"

#: the exported names, by the module that defines them
_EXPORTS = {
    "config": (
        "FeatureSchema", "FilterConfig", "ForestParams", "METHODS", "MODES", "MODE_BALANCE_FIRST",
        "MODE_SOUND", "PipelineConfig", "ROLE_CONTEXT", "ROLE_TECHNIQUE", "SmoteConfig",
    ),
    "data_model": (
        "Dataset", "SyntheticSpec", "derive_seed", "drop_constant_features", "generate_synthetic",
        "load_csv", "minority_label", "select_features", "split_train_test", "write_csv",
    ),
    "evaluation": (
        "EvaluationReport", "RocAnalysis", "analyze_scores", "auc", "dominates",
        "paired_t_test", "roc_convex_hull", "roc_curve",
    ),
    "feature_scoring": ("score_all",),
    "forest": (
        "RandomForestModel", "mean_split_entropy", "model_from_dict", "predict_proba", "predict_proba_many",
        "train_forest",
    ),
    "model_file": ("model_to_dict",),
    "recommender": ("FilterSelection", "run_pipeline", "select_best_filter"),
    "sampler": ("smote_details", "smote_oversample"),
    "scores": ("FeatureScoreTable", "Prediction", "form_recommendations"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
