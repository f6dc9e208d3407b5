"""Empirical lab for arithmetic progressions with random difference sets.

The package estimates how many random differences are needed before a
dense subset of Z/N is forced to contain a k-term progression with one
of those differences, and checks the identities and inequalities that
the supporting argument relies on: exact progression counting, the
discrepancy/symmetrization step, a Cauchy-Schwarz split, a subset-pair
matrix embedding with pruning, operator norm comparisons, a random
sign-sum spectral bound, and hypergraph moment profiles.
"""
from .counting import DifferenceSequence, RationalCount, SubsetMask, ap_average, ap_count
from .discrepancy import (IndexPartition, good_set_search, max_over_01,
                          max_over_signs, signed_objective)
from .embedding import EmbeddingMatrix, SubsetIndexer, pair_embedding
from .groups import ApParams, Group, as_density, density_target
from .hyperpoly import HypergraphPoly, mu_profile, poly_value
from .intersectivity import CriticalSizeEstimate, decide, estimate_critical_size
from .norms import khintchine_bench, norm_report, spectral_norm
from .records import VERSION

__version__ = VERSION

__all__ = [
    "ApParams", "Group", "as_density", "density_target",
    "DifferenceSequence", "RationalCount", "SubsetMask", "ap_average",
    "ap_count", "IndexPartition", "good_set_search", "max_over_01",
    "max_over_signs", "signed_objective", "EmbeddingMatrix", "SubsetIndexer",
    "pair_embedding", "HypergraphPoly", "mu_profile", "poly_value",
    "CriticalSizeEstimate", "estimate_critical_size", "decide",
    "khintchine_bench", "norm_report", "spectral_norm", "VERSION",
]
