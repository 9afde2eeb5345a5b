"""Exact computation for linear sum-rank metric codes over finite fields.

Codes live in products of matrix spaces over one F_q; everything here is
integer-exact, theorem-backed fast paths are cross-checked by brute-force
oracles in the test suite and behind the CLI --oracle switch.

The package loads lazily (PEP 562): ``import sumrank`` imports no
submodule, and a public name such as ``sumrank.weight_profile`` or a
submodule such as ``sumrank.isom`` imports its home module on first use.
So a ``sumrank`` CLI process compiles only the modules its subcommand runs.
"""

import importlib

__version__ = "0.1.0"

# home submodule of every public name
_EXPORTS = {
    "anticode": (
        "VARIANTS", "AnticodeDescriptor", "BlockSupport", "anticode_dual",
        "enumerate_anticodes", "is_optimal_anticode", "max_srk_generates",
        "product_descriptors", "staircase_profile",
    ),
    "code": ("ANTICODE_CAP", "DIST_CAP", "LinearCode", "MatrixTuple", "Shape"),
    "cover": (
        "CoverResult", "CosetWitness", "MeshulamResult", "coset_rank_lower",
        "coset_witness_exact", "covering_number", "leading_position", "meshulam_search",
    ),
    "errors": ("InvariantViolation", "SearchExhausted", "SumrankError", "UsageError"),
    "genweights": (
        "GammaBasis", "WeightProfile", "extension_context", "gamma_expand",
        "gen_weight", "subfield_embedding", "wei_duality_check", "weight_profile",
    ),
    "gf": ("MAX_ORDER", "FieldContext", "field_from_dict"),
    "isom": (
        "GROUP_CAP", "Isometry", "admissible_permutations", "equivalent_codes",
        "gl_group", "gl_order", "isometry_count", "random_gl", "random_isometry",
    ),
    "matfq": (
        "MatrixFq", "Subspace", "count_subspaces", "enumerate_subspaces",
        "gaussian_binomial",
    ),
    "msrd": (
        "MsrdReport", "admissible_ranks", "anticode_dim_extremes", "dim_decomposition",
        "distance_decomposition", "msrd_check", "msrd_weight_profile", "r_msrd_check",
        "r_mu", "singleton_distance_bound",
    ),
    "wiretap": (
        "MI_CAP", "WiretapScenario", "canonical_complement", "empirical_mi",
        "leakage_dim", "leakage_threshold", "support_product", "threshold_table",
        "worst_case_leakage",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli"}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # later lookups find the name without calling back into this function
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | _HOME.keys() | _SUBMODULES)
