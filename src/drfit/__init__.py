"""Noise-robust neural network training by jointly learned observation
weights, with population-level analysis tools for the weighted logistic
estimator and experiment drivers around both.
"""

from .core import (
    ClassPartition,
    ConfigError,
    DrFitConfig,
    analytic_weights,
    entropy_penalty,
    full_objective,
    objective_constant,
    reduced_loss,
    reduced_loss_grad,
)
from .data import (
    DataError,
    IdxCountMismatchError,
    IdxError,
    IdxMagicError,
    IdxTruncatedError,
    LabeledDataset,
    NoiseSpec,
    estimate_rho,
    inject_label_noise,
    load_dataset_csv,
    load_mnist_idx,
    prepare_ones_vs_sevens,
    save_dataset_csv,
    stratified_split,
    synthetic_gaussian_2class,
)
from .metrics import (
    SeparationCurve,
    UndefinedAucError,
    WeightHistogram,
    crash_detector,
    detection_auc,
    separation_curve,
    weight_histogram,
)
from .nn import (
    ForwardCache,
    MlpParams,
    NumericError,
    ShapeError,
    init_params,
    mlp_forward,
    per_example_loss,
    softmax_probs,
    weighted_backward,
)
from .theory import (
    DIVERGENT,
    Discrete,
    DivergenceError,
    Gaussian,
    HypothesisViolation,
    MvGaussian,
    MvUniformBox,
    PopulationProblem,
    QuadratureRule,
    Uniform,
    clean_estimator_1d,
    discontinuity_scan,
    expect,
    find_bstar_1d,
    find_mv_bstar,
    general_mv_estimator,
    mv_gaussian_case,
    noisy_estimator_1d,
    w_identity_residual,
    weighted_estimator_1d,
    weighted_objective_1d,
)
from .train import (
    EpochRecord,
    TrainConfig,
    TrainingError,
    TrainTrace,
    evaluate,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
