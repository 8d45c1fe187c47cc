"""Qudit graph codes: exact correctability checks, decoder synthesis,
noisy-channel simulation, random code search, and capacity bound curves.

Every public name below is importable from the package, but its module is
imported on first use (PEP 562), so `import graphqec.cli` compiles only
the modules a command needs.  A name the table lacks raises
AttributeError, which lets `from graphqec import channels` fall through
to the submodule.
"""

_EXPORTS = {
    "channels": (
        "Channel",
        "KLReport",
        "KL_TOLERANCE",
        "apply_channel",
        "choi_state",
        "error_space_basis",
        "identity_channel",
        "kl_verify",
        "localized_error_basis",
        "synthesize_decoder",
        "tensor_channels",
        "verify_etd",
        "weyl_operator",
    ),
    "errors": (
        "CompositeModulus",
        "DeltaTooLarge",
        "DimensionMismatch",
        "DimensionOverflow",
        "GraphQECError",
        "InvalidSubset",
        "KLViolated",
        "NotIsometry",
        "NotUnitary",
        "ParamOutOfRange",
        "PreconditionViolated",
        "TooManyErrors",
        "UnsupportedDimension",
    ),
    "graphs": (
        "GraphCode",
        "build_isometry",
        "check_subset",
        "corrects_f",
        "dump_graph",
        "find_uncorrectable_subset",
        "first_failing_subset",
        "graph_to_dict",
        "load_graph",
        "loads_graph",
        "max_correctable_f",
        "prism_code",
        "wheel_code",
    ),
    "modular": (
        "ModMatrix",
        "is_prime",
        "kernel_trivial",
        "rank_prime",
    ),
    "noise": (
        "cb_lower_witness",
        "make_depolarizing",
        "make_unitary_channel",
        "phase_rotation",
        "transposition_map",
        "zero_map",
    ),
    "rates": (
        "RatePoint",
        "achievable_pair",
        "binary_entropy",
        "binomial_error_bound",
        "capacity_from_finite_coding",
        "capacity_lower_bound_small_noise",
        "delta_exponent",
        "emit_curves",
        "error_exponent_curve",
        "error_threshold",
        "gv_allows",
        "hamming_allows",
        "ideal_capacity",
        "region_boundaries",
        "singleton_allows",
        "singleton_standard_allows",
        "truncated_binomial_bound",
    ),
    "search": (
        "SearchConfig",
        "SearchReport",
        "failure_bound_log2",
        "run_search",
        "sample_graph",
        "singular_fraction_experiment",
        "trial_rng",
    ),
}

# public name -> the submodule that defines it
_HOMES = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOMES)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{_HOMES[name]}"), name)
    globals()[name] = value  # later lookups find it without this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
