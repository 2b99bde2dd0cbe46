"""Base-pointed chord diagrams, package coinvariants, and the graph bijection.

A chord diagram on m chords is a perfect pairing of {1..2m}; pairs are stored
(min, max) and sorted by first element, so the base point 1 opens the first
pair.  A standard pair monomial, a product of antisymmetric pair symbols
y_{a,b}, is the same data, so both are that sorted pair tuple (`ChordDiagram`
names the type, as `symplectic.Monomial` does) and the paper's φ between
them is the identity.  Signs from reversed pairs live in the enclosing
linear combination.

A packaged diagram takes the pairing modulo independent permutations of
consecutive slot blocks ("packages"); a chord inside one package annihilates
the class.  A class is fixed by its shape and by the multiset of package
pairs its chords join, which is a graph with one vertex per package and the
shape as its valences.  So a packaged class is held as that `Graph`
(`package`), the paper's φ̄ is the identity onto graphs of minimum valence
two, and `varphi_inverse` gives the class's canonical pairing back.
Contracting a cross-package chord is contracting its edge, so the
differential on packaged classes is `graphs.differential_graph`.
"""

from __future__ import annotations

from .exactlinalg import LinComb
from .graphs import Graph, _signed_pairs, valences

__all__ = [
    "ChordDiagram",
    "chord_diagram",
    "pair_monomial",
    "phi",
    "package",
    "varphi_inverse",
]


def _shape_parts(shape) -> tuple[int, ...]:
    """A shape as a tuple of its parts, refused unless every part is an int.

    A bool or a float part is refused too, not truncated to an int.
    """
    shape = tuple(shape)
    if any(type(k) is not int for k in shape):
        raise ValueError(f"shape parts must be integers, got {shape}")
    return shape


# A chord diagram, or standard pair monomial, is its tuple of sorted pairs.
ChordDiagram = tuple


def chord_diagram(pairs) -> ChordDiagram:
    """Build a canonical diagram; the pairs must partition {1..2m} exactly."""
    written = list(pairs)
    signed = _signed_pairs(written)
    m = len(written)
    if signed is None or sorted(s for p in signed[1] for s in p) != list(range(1, 2 * m + 1)):
        raise ValueError(f"pairs {pairs} do not partition 1..{2 * m}")
    return signed[1]


def pair_monomial(pairs) -> LinComb:
    """Normalize a written pair sequence to ±1 times a standard monomial.

    Each reversed pair costs -1 and a pair (a, a) gives zero.
    """
    signed = _signed_pairs(pairs)
    if signed is None:
        return LinComb()
    sign, norm = signed
    slots = sorted(s for p in norm for s in p)
    if slots != list(range(1, 2 * len(norm) + 1)):
        raise ValueError(f"indices of {pairs} are not a permutation of 1..{2 * len(norm)}")
    return LinComb.of(norm, sign)


def phi(d: ChordDiagram) -> ChordDiagram:
    """φ from standard pair monomials to chord diagrams: the identity.

    Both are the same sorted pair tuple.
    ``perfbench/workloads.py`` still calls φ between `tstar` and `package`.
    """
    return d


def package(d: ChordDiagram, shape) -> LinComb:
    """The packaged class of a diagram under a package shape, as its graph.

    Shape parts must be ints >= 2 and sum to 2m.  Each package becomes a vertex
    and each chord the edge between its endpoints' packages; a chord with
    both endpoints in one package annihilates the class (`_signed_pairs`
    finds it as a loop).  Packages are increasing slot blocks, so a chord
    (a, b), a < b, joins packages in that order and no edge flips: the
    class has sign +1.
    """
    shape = _shape_parts(shape)
    if any(k < 2 for k in shape) or sum(shape) != 2 * len(d):
        raise ValueError(f"shape {shape} incompatible with {2 * len(d)} slots")
    owner = [0]
    for k, size in enumerate(shape, start=1):
        owner.extend([k] * size)
    signed = _signed_pairs((owner[a], owner[b]) for a, b in d)
    if signed is None:
        return LinComb()
    return LinComb.of(Graph(len(shape), signed[1]))


def varphi_inverse(g: Graph) -> ChordDiagram:
    """The canonical pairing of g's packaged class, by slot assignment.

    Vertex v owns the block of slots after those of vertices 1..v-1, one
    slot per edge-end; walking the sorted edge list, each end takes the next
    free slot of its vertex.  Packaged by the valence shape, this pairing is
    g again under `package`, and it is the lexicographically smallest
    pairing of the class: sorted pairs list every chord leaving package k
    before any leaving package k + 1, and compare a chord's far end before
    the next chord's near end, so the minimum gives each package's incoming
    ends its first slots, ordered by source package, and its outgoing ends
    the rest, ordered by target package (``_orbit_min`` in
    ``tests/test_diagrams.py`` is the brute-force check).
    """
    vals = valences(g)
    if any(v < 2 for v in vals):
        raise ValueError(f"every vertex needs valence >= 2, got {vals}")
    free = [0, 1]
    for v in vals:
        free.append(free[-1] + v)
    pairs = []
    for i, j in g.edges:
        pairs.append((free[i], free[j]))
        free[i] += 1
        free[j] += 1
    return tuple(sorted(pairs))
