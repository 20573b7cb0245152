"""Toolkit for sigma-hypergraphs H(n, r, q | sigma): exact k-independence
numbers, matching constructions under divisibility regimes, colouring
feasibility bounds, and brute-force oracles for certification.

The public names below are loaded from their submodule on first use, so
``import sigmahg`` imports no submodule until one of them is read.
"""

import importlib

_EXPORTS = {
    "core": (
        "BudgetExceeded Edge HypergraphSpec Matching NoEdges NoRepresentation "
        "NoSuchDesign RegimeError Sigma SigmaHypergraphError ValidationError "
        "VerificationReport Vertex VertexSet count_edges enumerate_edges "
        "frobenius_decompose is_edge make_spec verify_matching"
    ),
    "independence": (
        "ColouringBounds FeasibleSequence alpha alpha_k alpha_k_witness "
        "colouring_bounds enumerate_maximal_feasible is_k_independent max_intersection_edge"
    ),
    "matching": (
        "DiagonalLatinSquare MatchingReport RGoodSplit all_ones_maximum_matching "
        "best_matching canonicalize contract diagonal_perfect_matching dls_matching "
        "expand find_r_good_split gcd_unmatched_lower_bound generate_dls "
        "greedy_matching packing_matching r_good_maximum_matching "
        "rectangular_maximum_matching"
    ),
    "oracle": (
        "OracleBudget bf_alpha_k bf_colouring_spectrum bf_max_intersection bf_max_matching"
    ),
}

# public name -> the submodule that defines it
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_SOURCE)
__version__ = "0.1.0"


def __getattr__(name: str) -> object:
    if name in _EXPORTS:  # a submodule read as ``sigmahg.matching``
        return importlib.import_module(f"{__name__}.{name}")
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
