"""Uncertainty-splitting neural regression trees.

Recursive feature-space partitioning driven by a variance-equality test on
network residuals, with per-leaf mean and sigma networks, heteroscedastic
baselines, and a calibration-evaluation suite.
"""

from .baselines import (
    EnsembleModel,
    HnnModel,
    train_ensemble,
    train_hnn,
)
from .data import (
    Dataset,
    PreprocessState,
    Schema,
    SynthSpec,
    fit_transform,
    generate_synthetic,
    load_csv,
    train_test_split,
)
from .metrics import (
    MetricsReport,
    calibration_curve,
    compute_report,
    ece,
    predicted_quantile,
    sharpness,
    tce,
)
from .model_io import load_model
from .nn_core import (
    Activation,
    Mlp,
    TrainConfig,
    nll_loss,
    train_mse,
    train_nll_fixed_mean,
)
from .stats import LeveneResult, levene_test, normal_inverse_cdf, student_t_cdf
from .tree import (
    SplitCandidate,
    UsnrtConfig,
    UsnrtModel,
    build,
    find_best_split,
    leaf_report,
)

__version__ = "0.1.0"

__all__ = [
    "Activation",
    "Dataset",
    "EnsembleModel",
    "HnnModel",
    "LeveneResult",
    "MetricsReport",
    "Mlp",
    "PreprocessState",
    "Schema",
    "SplitCandidate",
    "SynthSpec",
    "TrainConfig",
    "UsnrtConfig",
    "UsnrtModel",
    "build",
    "calibration_curve",
    "compute_report",
    "ece",
    "find_best_split",
    "fit_transform",
    "generate_synthetic",
    "leaf_report",
    "levene_test",
    "load_csv",
    "load_model",
    "nll_loss",
    "normal_inverse_cdf",
    "predicted_quantile",
    "sharpness",
    "student_t_cdf",
    "tce",
    "train_ensemble",
    "train_hnn",
    "train_mse",
    "train_nll_fixed_mean",
    "train_test_split",
]
