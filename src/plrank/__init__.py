"""Utility estimation and uncertainty quantification for the Plackett-Luce
model on multiway comparison hypergraphs."""

from .model import (
    Dataset,
    DataFormatError,
    Observation,
    broken_pairs,
    center,
    check_utilities,
    full_breaking,
    load_dataset,
    marginal_probability,
    pl_log_probability,
    sample_ranking,
    sample_rankings,
    save_dataset,
)
from .likelihood import (
    EnumerationBudgetError,
    expected_marginal_hessian,
    marginal_hessian,
    marginal_log_likelihood,
    marginal_score,
    quasi_hessian,
    quasi_log_likelihood,
    quasi_score,
)
from .estimators import (
    ESTIMATOR_CUTOFFS,
    ESTIMATOR_KINDS,
    FitConfig,
    FitResult,
    NonexistenceError,
    apply_estimator_cutoff,
    existence_check,
    fit,
    fit_marginal_mle,
    fit_qmle,
)
from .inference import (
    InferenceReport,
    batch_marginal_inverse_variance,
    batch_qmle_inverse_variance,
    marginal_info_term,
    marginal_inverse_variance,
    normal_quantile,
    pairwise_info_term,
    pairwise_var_term,
    qmle_inverse_variance,
    standard_errors,
    z_for_level,
)
from .graphs import (
    BlockModelConfig,
    CapExceededError,
    EdgeSizeRule,
    GraphDiagnostics,
    IsolatedVertexError,
    RandomHypergraphConfig,
    boundary_edges,
    degree_stats,
    edge_sharing_ratio,
    expansion_chain_bound,
    graph_diagnostics,
    is_connected,
    modified_cheeger,
    sample_block_model,
    sample_distinct_edges,
    sample_random_hypergraph,
    sample_uniform_edges,
    shared_edges,
    spectral_diagnostics,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
