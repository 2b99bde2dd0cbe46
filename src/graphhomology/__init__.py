"""Exact computations in a vertex-labelled graph complex and its bridges.

Subpackages: exact linear algebra over the rationals, labelled multigraphs
with a contraction differential, chord diagrams with package coinvariants,
polynomial tensor words with the Poisson-bracket differential, the
half-shuffle bialgebra layer, and the loop-order stripes of the graph
complex.
"""

__all__: list[str] = []
