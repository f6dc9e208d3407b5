"""Empirical lab for arithmetic progressions with random difference sets.

The package estimates how many random differences are needed before a
dense subset of Z/N is forced to contain a k-term progression with one
of those differences, and checks the identities and inequalities that
the supporting argument relies on: exact progression counting, the
discrepancy/symmetrization step, a Cauchy-Schwarz split, a subset-pair
matrix embedding with pruning, operator norm comparisons, a random
sign-sum spectral bound, and hypergraph moment profiles.

The modules are the API: import each name from its home module, as in
``from aplab.counting import DifferenceSequence``.  Importing the package loads none
of them.
"""
