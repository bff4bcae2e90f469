"""Data-driven configuration of partitioning algorithms.

Two pipelines share one parameter-search core: agglomerative merge trees
with dynamic-programming pruning (tuned over merge-family parameters and
the pruning exponent), and rounding of SDP embeddings for quadratic
programs (tuned over rounding-function parameters).  Benchmark generators
with known optimal parameters serve as ground truth for both.
"""

from .errors import (
    AsymmetricMatrix,
    BadAlphaRange,
    CenterOutsideCluster,
    ClassTooLarge,
    DataError,
    DimensionMismatch,
    Disconnected,
    DomainError,
    InconsistentMetric,
    KTooLarge,
    MissingGroundTruth,
    NonFiniteDistance,
    NonFiniteValue,
    NonNullDiagonal,
    NonPositiveDistance,
    NumericError,
    OffsetsNotDecreasing,
    Overflow,
    ParseError,
    PartitionTunerError,
    RootNotConverged,
    SigmaTooLargeForExact,
    SweepDiverged,
    UnknownFamily,
)
from .instances import (
    ClusteringInstance,
    Embedding,
    FixtureSpec,
    MaxQPInstance,
    ValidationReport,
    complete_metric_max,
    fixture_path,
    gen_general_lb,
    gen_k4_shatter,
    gen_oscillation,
    gen_two_gadget,
    k4_witness,
    load_embedding,
    load_fixture,
    load_instance,
    oscillation_profile_bounds,
    oscillation_spread,
    save_embedding,
    save_instance,
    two_gadget_spread,
    validate,
)
from .linkage import (
    FAMILIES,
    Comparison,
    MergeRule,
    MergeTree,
    build_tree,
    record_comparisons,
    rule_value,
    selector_indices,
)
from .pruning_dp import (
    Objective,
    PruningResult,
    PruningRule,
    best_k_pruning,
    clusters_to_labels,
    objective_value,
    pair_distance,
    voronoi_reassign,
)
from .param_search import (
    IDENTICALLY_ZERO,
    ErmResult,
    ExpSum,
    PiecewiseProfile,
    erm_alpha,
    erm_joint,
    erm_sigma_linear,
    find_roots,
    pdim_table,
    sample_size,
    sweep_alpha,
    sweep_p,
)
from .sdp_round import (
    DiscretizedSpec,
    EmbedResult,
    RoundingErmResult,
    cut_value,
    disc_best,
    discretized_count,
    embed_bm,
    enumerate_discretized,
    owr_erm,
    owr_value,
    qp_value,
    rprt_assign,
    rprt_erm,
    rprt_expect,
    sample_q,
    sample_z,
    slin_erm,
    slin_value,
)

__version__ = "0.1.0"
