"""Structure learning for latent factor models by correlation thresholding.

The pipeline: threshold a correlation matrix, read the independent maximal
cliques of the resulting graph as factor clusters, fit each candidate
structure by constrained Gaussian maximum likelihood, and pick one by BIC.
Simulation generators, population diagnostics, and structure metrics round
out the toolkit. See the ``ctfactor`` command line tool for the same
functionality on files.
"""

from .ct import CtCandidate, CtConfig, CtResult, ct_run, default_thresholds
from .errors import (
    ConstantColumn,
    CtFactorError,
    DimensionMismatch,
    DomainError,
    EmptyCliqueSet,
    GenerationFailure,
    InvalidSpec,
    MissingTruth,
    NonPDSampleWarning,
    NotPositiveDefinite,
    ParseError,
)
from .estimate import (
    FitResult,
    bic_value,
    count_free_params,
    fit_mle,
    pearson_correlation,
    sample_covariance,
)
from .graph import (
    CliqueSet,
    ThresholdedGraph,
    build_graph,
    independent_maximal_cliques,
    structure_from_cliques,
)
from .metrics import MetricReport, hamming_distance
from .model import (
    FactorParams,
    Structure,
    ThresholdabilityReport,
    consistency_bound,
    implied_correlation,
    implied_covariance,
    rotational_uniqueness_check,
    thresholdability,
    unique_children,
)
from .numerics import cholesky, logdet_pd, mvn_sample, philox
from .simgen import (
    HIGHDIM_PRESETS,
    SimSpec,
    data_rng,
    gen_independent_cluster,
    gen_phi,
    gen_ucc_violation,
    sample_dataset,
)

__version__ = "0.1.0"

__all__ = [
    "CliqueSet",
    "ConstantColumn",
    "CtCandidate",
    "CtConfig",
    "CtFactorError",
    "CtResult",
    "DimensionMismatch",
    "DomainError",
    "EmptyCliqueSet",
    "FactorParams",
    "FitResult",
    "GenerationFailure",
    "HIGHDIM_PRESETS",
    "InvalidSpec",
    "MetricReport",
    "MissingTruth",
    "NonPDSampleWarning",
    "NotPositiveDefinite",
    "ParseError",
    "SimSpec",
    "Structure",
    "ThresholdabilityReport",
    "ThresholdedGraph",
    "bic_value",
    "build_graph",
    "cholesky",
    "consistency_bound",
    "count_free_params",
    "ct_run",
    "data_rng",
    "default_thresholds",
    "fit_mle",
    "gen_independent_cluster",
    "gen_phi",
    "gen_ucc_violation",
    "hamming_distance",
    "implied_correlation",
    "implied_covariance",
    "independent_maximal_cliques",
    "logdet_pd",
    "mvn_sample",
    "pearson_correlation",
    "philox",
    "rotational_uniqueness_check",
    "sample_covariance",
    "sample_dataset",
    "structure_from_cliques",
    "thresholdability",
    "unique_children",
]
