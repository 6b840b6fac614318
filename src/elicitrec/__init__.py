"""Toolkit for recommending requirements-elicitation techniques.

A supervised pipeline over categorical project-context data: minority
oversampling (SMOTE), a from-scratch random forest with per-split entropy
instrumentation, ROC convex-hull model comparison, filter-based feature
scoring, and threshold-based technique recommendations.
"""

from .data_model import (
    Dataset,
    FeatureSchema,
    ROLE_CONTEXT,
    ROLE_TECHNIQUE,
    SyntheticSpec,
    derive_seed,
    drop_constant_features,
    generate_synthetic,
    load_csv,
    minority_label,
    select_features,
    split_train_test,
    write_csv,
)
from .evaluation import (
    EvaluationReport,
    RocAnalysis,
    TTestResult,
    analyze_scores,
    auc,
    dominates,
    paired_t_test,
    roc_convex_hull,
    roc_curve,
)
from .feature_scoring import FeatureScoreTable, METHODS, score_all
from .forest import (
    ForestParams,
    RandomForestModel,
    mean_split_entropy,
    model_from_dict,
    model_to_dict,
    predict_proba,
    predict_proba_many,
    train_forest,
)
from .recommender import (
    MODE_BALANCE_FIRST,
    MODE_SOUND,
    MODES,
    FilterConfig,
    FilterSelection,
    PipelineConfig,
    Prediction,
    RecommendationSet,
    combine_reports,
    form_recommendations,
    run_pipeline,
    select_best_filter,
)
from .sampler import SmoteConfig, smote_details, smote_oversample

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "EvaluationReport",
    "FeatureSchema",
    "FeatureScoreTable",
    "FilterConfig",
    "FilterSelection",
    "ForestParams",
    "METHODS",
    "MODES",
    "MODE_BALANCE_FIRST",
    "MODE_SOUND",
    "PipelineConfig",
    "Prediction",
    "RandomForestModel",
    "RecommendationSet",
    "ROLE_CONTEXT",
    "ROLE_TECHNIQUE",
    "RocAnalysis",
    "SmoteConfig",
    "SyntheticSpec",
    "TTestResult",
    "analyze_scores",
    "auc",
    "combine_reports",
    "derive_seed",
    "dominates",
    "drop_constant_features",
    "form_recommendations",
    "generate_synthetic",
    "load_csv",
    "mean_split_entropy",
    "minority_label",
    "model_from_dict",
    "model_to_dict",
    "paired_t_test",
    "predict_proba",
    "predict_proba_many",
    "roc_convex_hull",
    "roc_curve",
    "run_pipeline",
    "score_all",
    "select_best_filter",
    "select_features",
    "smote_details",
    "smote_oversample",
    "split_train_test",
    "train_forest",
    "write_csv",
]
