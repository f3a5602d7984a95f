"""Branching random walk toolkit: exact transition kernels on regular
trees, free groups and lattices; Galton-Watson tree samplers; tree-indexed
walks and traces; branching-vertex bounds; mass-transport checks; and
intersection experiments."""

__version__ = "0.1.0"

from .groups import (
    GroupSpec,
    InvalidElementError,
    VisitsSeries,
    distance,
    elements_within,
    neighbors,
    p_series,
    scaled_p_series,
    spectral_radius_trajectory,
    visits_series,
)
from .gw import (
    MarkedTree,
    OffspringDistribution,
    extinction_probability,
    percolate_root_component,
    sample_gw,
    sample_marked_fuzz_tree,
    sample_unimodular_gw,
    thin,
)
from .walks import TreeWalk, run_walk, trace
from .magic import (
    OrientedTree,
    TreeBatch,
    branch_deficiency_values,
    counting_bound,
    supported_gap_values,
)
from .mtp import (
    BUILTIN_TRANSPORT,
    BUILTIN_WEIGHT,
    MtpSample,
    MtpTestReport,
    TransportFunction,
    TruncationError,
    exact_mtp_check,
    fixed_root_sampler,
    mc_mtp_test,
    pullback_sampler,
    pushforward_trace_sampler,
    uniform_root_sampler,
)
from .intersections import (
    IntersectionRecord,
    ThinSweepReplicate,
    TraceEndsResult,
    expected_pairs_profile,
    expected_pairs_truncated,
    sample_intersections,
    thinned_intersection_sweep,
    trace_ends_experiment,
)
from .rng import substream
