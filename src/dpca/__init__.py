"""Discriminative analytics toolkit.

PCA, contrastive PCA with automatic contrast-strength selection, and
ratio-based discriminative PCA on top of a symmetric-definite generalized
eigensolver, plus factor-model generators for benchmarking and a CLI.
"""

from .datamodel import (
    CenteredDataset,
    CovarianceEstimate,
    DataMatrix,
    center,
    concat_rows,
    sample_covariance,
)
from .eigencore import (
    EigenDecomposition,
    GeneralizedEigenPairs,
    WhiteningFactor,
    generalized_eig,
    power_topd,
    sym_eigendecompose,
    whitening_factor,
)
from .errors import (
    DimensionError,
    DpcaError,
    FloorAppliedWarning,
    InvalidInputError,
    NonConvergenceError,
    NumericalError,
    RankZeroError,
    SymmetryError,
)
from .methods import (
    AlphaSelection,
    ComponentModel,
    EmbeddingResult,
    cpca_fit,
    cpca_select_alphas,
    dpca_fit,
    pca_fit,
    pencil_residual,
    transform,
)
from .synthgen import (
    FactorModelSpec,
    LabeledDataset,
    default_subgroup_spec,
    gen_background,
    gen_pair,
    gen_target,
    random_spec,
    spread_offsets,
)

__version__ = "0.1.0"

__all__ = [
    "AlphaSelection",
    "CenteredDataset",
    "ComponentModel",
    "CovarianceEstimate",
    "DataMatrix",
    "DimensionError",
    "DpcaError",
    "EigenDecomposition",
    "EmbeddingResult",
    "FactorModelSpec",
    "FloorAppliedWarning",
    "GeneralizedEigenPairs",
    "InvalidInputError",
    "LabeledDataset",
    "NonConvergenceError",
    "NumericalError",
    "RankZeroError",
    "SymmetryError",
    "WhiteningFactor",
    "center",
    "concat_rows",
    "cpca_fit",
    "cpca_select_alphas",
    "default_subgroup_spec",
    "dpca_fit",
    "gen_background",
    "gen_pair",
    "gen_target",
    "generalized_eig",
    "pca_fit",
    "pencil_residual",
    "power_topd",
    "random_spec",
    "sample_covariance",
    "spread_offsets",
    "sym_eigendecompose",
    "transform",
    "whitening_factor",
]
