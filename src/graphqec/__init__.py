"""Qudit graph codes: exact correctability checks, decoder synthesis,
noisy-channel simulation, random code search, and capacity bound curves."""

from .channels import (
    Channel,
    KLReport,
    KL_TOLERANCE,
    apply_channel,
    choi_state,
    error_space_basis,
    identity_channel,
    kl_verify,
    localized_error_basis,
    synthesize_decoder,
    tensor_channels,
    verify_etd,
    weyl_operator,
)
from .errors import (
    CompositeModulus,
    DeltaTooLarge,
    DimensionMismatch,
    DimensionOverflow,
    GraphQECError,
    InvalidSubset,
    KLViolated,
    NotIsometry,
    NotUnitary,
    ParamOutOfRange,
    PreconditionViolated,
    TooManyErrors,
    UnsupportedDimension,
)
from .graphs import (
    GraphCode,
    build_isometry,
    check_subset,
    corrects_f,
    dump_graph,
    find_uncorrectable_subset,
    first_failing_subset,
    graph_to_dict,
    load_graph,
    loads_graph,
    max_correctable_f,
    prism_code,
    wheel_code,
)
from .modular import (
    ModMatrix,
    is_prime,
    kernel_trivial,
    rank_prime,
)
from .noise import (
    binary_entropy,
    binomial_error_bound,
    cb_lower_witness,
    delta_exponent,
    error_threshold,
    make_depolarizing,
    make_unitary_channel,
    phase_rotation,
    transposition_map,
    truncated_binomial_bound,
    zero_map,
)
from .rates import (
    RatePoint,
    achievable_pair,
    capacity_from_finite_coding,
    capacity_lower_bound_small_noise,
    emit_curves,
    error_exponent_curve,
    gv_allows,
    hamming_allows,
    ideal_capacity,
    region_boundaries,
    singleton_allows,
    singleton_standard_allows,
)
from .search import (
    SearchConfig,
    SearchReport,
    failure_bound_log2,
    run_search,
    sample_graph,
    singular_fraction_experiment,
    trial_rng,
)

__version__ = "0.1.0"
