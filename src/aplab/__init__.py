"""Empirical lab for arithmetic progressions with random difference sets.

The package estimates how many random differences are needed before a
dense subset of Z/N is forced to contain a k-term progression with one
of those differences, and checks the identities and inequalities that
the supporting argument relies on: exact progression counting, the
discrepancy/symmetrization step, a Cauchy-Schwarz split, a subset-pair
matrix embedding with pruning, operator norm comparisons, a random
sign-sum spectral bound, and hypergraph moment profiles.

Importing the package loads none of its modules: each public name is
looked up in its home module on first use (PEP 562).
"""
from importlib import import_module

__all__ = [
    "ApParams", "Group", "as_density", "density_target",
    "DifferenceSequence", "RationalCount", "SubsetMask", "ap_average",
    "ap_count", "IndexPartition", "good_set_search", "max_over_01",
    "max_over_signs", "signed_objective", "EmbeddingMatrix", "SubsetIndexer",
    "pair_embedding", "HypergraphPoly", "mu_profile", "poly_value",
    "CriticalSizeEstimate", "estimate_critical_size", "decide",
    "khintchine_bench", "norm_report", "spectral_norm", "VERSION",
]

# public name -> (home module, name there)
_HOMES = {name: (module, name) for module, names in (
    ("groups", ("ApParams", "Group", "as_density", "density_target")),
    ("counting", ("DifferenceSequence", "RationalCount", "SubsetMask",
                  "ap_average", "ap_count")),
    ("discrepancy", ("IndexPartition", "good_set_search", "max_over_01",
                     "max_over_signs", "signed_objective")),
    ("embedding", ("EmbeddingMatrix", "SubsetIndexer", "pair_embedding")),
    ("hyperpoly", ("HypergraphPoly", "mu_profile", "poly_value")),
    ("intersectivity", ("CriticalSizeEstimate", "estimate_critical_size",
                        "decide")),
    ("norms", ("khintchine_bench", "norm_report", "spectral_norm")),
    ("records", ("VERSION",)),
) for name in names}
_HOMES["__version__"] = ("records", "VERSION")


def __getattr__(name: str):
    # an unknown name raises, so ``from aplab import <submodule>`` falls
    # through to the submodule import
    try:
        module, attr = _HOMES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(import_module(f".{module}", __name__), attr)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_HOMES))
