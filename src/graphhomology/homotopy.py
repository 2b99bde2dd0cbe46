"""Bivalent-chain reduction machinery: classification, ladders, homotopy, slices.

A connected graph is a polygon (all vertices bivalent), core (all valences at
least three), or mixed.  In a mixed graph with minimum valence two the
bivalent vertices organize into maximal chains ("ladders") anchored at
valence->=3 vertices; the candidate homotopy `h` extends each ladder by one
vertex labelled n+1 and divides by the ladder count.

`h` is not a homotopy.  Among the 2,724 mixed graphs with n <= 5 and e <= 7,
δ̄h + hδ̄ = Id holds on 248; it fails on 778 of the 1,026 single-ladder graphs
and on 357 of the 373 graphs with e = n + 1.  `homotopy_defect` measures the
failure.  No map that keeps the ladder count, as `h` does, can do better:
contraction never raises the ladder count, so the single-ladder graphs form
a subcomplex, and it has homology.

Contraction keeps e - n, so the complexes split into stripes of fixed loop
order e - n (`stripe`), each finite in every degree.  The stripe
e = n + 2 is not acyclic: through n = 6 its exact H_5 is 4, the other
degrees of n <= 5 and e <= 7 are acyclic.  The four classes map injectively
to H_4 of the core subcomplex: at e = n + 2 the core graphs have H_4 = 5,
while all connected min-valence-2 graphs together have H_4 = 1 and H_5 = 0.
So in this labelled complex the core does not carry the homology of the
min-valence-2 graphs.  `exactlinalg.chain_contraction` on a stripe gives
maps with δ̄h + hδ̄ = Id - π that do hold, with π = 0 exactly where the
homology vanishes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .exactlinalg import ChainComplexSlice, LinComb, SparseMatrix
from .graphs import (
    Graph,
    _is_connected,
    _walk_graphs,
    differential,
    differential_graph,
    enumerate_graphs,
    graph,
    valences,
)

__all__ = [
    "Classification",
    "classify",
    "LadderDecomposition",
    "ladders",
    "h",
    "mixed_projection",
    "quotient_differential",
    "homotopy_defect",
    "labelled_polygons",
    "polygon_complex",
    "reduced_core_complex",
    "mixed_quotient_complex",
    "stripe",
    "slice_from_bases",
    "NotMixedError",
]


class NotMixedError(ValueError):
    pass


class Classification(enum.Enum):
    POLYGON = "polygon"
    CORE = "core"
    MIXED = "mixed"
    DISCONNECTED = "disconnected"


def classify(g: Graph) -> Classification:
    """Polygon: connected, all bivalent.  Core: connected, min valence >= 3.
    Mixed: any other connected graph.  The unit counts as disconnected."""
    if not _is_connected(g.n, g.edges):
        return Classification.DISCONNECTED
    vals = valences(g)
    if all(v == 2 for v in vals):
        return Classification.POLYGON
    if min(vals) >= 3:
        return Classification.CORE
    return Classification.MIXED


@dataclass(frozen=True)
class LadderDecomposition:
    """Maximal bivalent chains: (start anchor, end anchor, interior vertices)."""

    graph: Graph
    chains: tuple[tuple[int, int, tuple[int, ...]], ...]


def _incidences(g: Graph) -> dict[int, list[tuple[int, int]]]:
    inc: dict[int, list[tuple[int, int]]] = {v: [] for v in range(1, g.n + 1)}
    for idx, (i, j) in enumerate(g.edges):
        inc[i].append((idx, j))
        inc[j].append((idx, i))
    return inc


def ladders(g: Graph) -> LadderDecomposition:
    """Maximal chains of bivalent vertices between valence->=3 anchors.

    Requires a connected mixed graph of minimum valence two, so every chain
    terminates on both sides (possibly at the same anchor).  Chains are
    listed by (minimal anchor, then minimal interior label); each chain is
    walked from its smaller anchor, ties broken toward the smaller first
    interior vertex.
    """
    if classify(g) != Classification.MIXED:
        raise NotMixedError(f"{g} is not a mixed connected graph")
    vals = valences(g)
    if min(vals) < 2:
        raise NotMixedError(f"{g} has a vertex of valence < 2; no chain structure")
    inc = _incidences(g)
    bivalent = {v for v in range(1, g.n + 1) if vals[v - 1] == 2}
    seen: set[int] = set()
    chains = []
    for v in sorted(bivalent):
        if v in seen:
            continue
        # walk both directions from v to the anchors
        def walk(start_edge: int, start_next: int):
            path = []
            prev_edge, cur = start_edge, start_next
            while cur in bivalent:
                path.append(cur)
                nxt = [(e, u) for e, u in inc[cur] if e != prev_edge]
                assert len(nxt) == 1
                prev_edge, cur = nxt[0]
            return cur, path

        (e1, u1), (e2, u2) = inc[v]
        a1, path1 = walk(e1, u1)
        a2, path2 = walk(e2, u2)
        interior = tuple(reversed(path1)) + (v,) + tuple(path2)
        start, end = a1, a2
        if (a2, interior[::-1]) < (a1, interior):
            start, end = a2, a1
            interior = interior[::-1]
        if a1 == a2 and interior[0] > interior[-1]:
            interior = interior[::-1]
        chains.append((start, end, interior))
        seen.update(interior)
    chains.sort(key=lambda c: (min(c[0], c[1]), c[2][0]))
    return LadderDecomposition(g, tuple(chains))


def _extend_chain(g: Graph, chain: tuple[int, int, tuple[int, ...]]) -> Graph:
    """Subdivide the chain's final edge (into the end anchor) with vertex n+1."""
    start, end, interior = chain
    last = interior[-1]
    edges = list(g.edges)
    final_edge = (min(last, end), max(last, end))
    edges.remove(final_edge)
    new = g.n + 1
    edges.append((min(last, new), max(last, new)))
    edges.append((min(end, new), max(end, new)))
    return graph(g.n + 1, edges)


def h(x: LinComb) -> LinComb:
    """Ladder extension: (-1)^n / m times the sum of the m chain extensions.

    Every term must be mixed.  Despite the name this is not a homotopy:
    δ̄h + hδ̄ = Id fails on most mixed graphs, single-ladder ones included
    (see the module docstring and `homotopy_defect`).  The maps of
    `exactlinalg.chain_contraction` satisfy the identity up to π.
    """
    def per_graph(g: Graph) -> LinComb:
        decomp = ladders(g)
        m = len(decomp.chains)
        out = LinComb.zero()
        for chain in decomp.chains:
            out = out + LinComb.of(_extend_chain(g, chain))
        return out.scale(Fraction((-1) ** g.n, m))
    return x.mapped(per_graph)


def mixed_projection(x: LinComb) -> LinComb:
    """Drop all terms that are not mixed connected graphs."""
    return LinComb({g: c for g, c in x.items() if classify(g) == Classification.MIXED})


def quotient_differential(x: LinComb) -> LinComb:
    """The differential of the mixed quotient: contract, then project."""
    return mixed_projection(differential(x))


def homotopy_defect(g: Graph) -> LinComb:
    """(δ̄h + hδ̄)(g) - g on the mixed quotient; zero iff the identity holds."""
    x = LinComb.of(g)
    lhs = quotient_differential(h(x)) + h(quotient_differential(x))
    return lhs - x


def slice_from_bases(bases: dict[int, list[Graph]], diff=differential_graph,
                     project: bool = False,
                     complete: dict[int, bool] | None = None) -> ChainComplexSlice:
    """Assemble a ChainComplexSlice from per-degree graph bases.

    Differential coordinates come from `diff` on each basis element; terms
    outside the target basis are an error unless ``project`` is set (then the
    slice computes the quotient/projected differential).
    """
    degrees = (min(bases), max(bases))
    index = {k: {g: i for i, g in enumerate(bs)} for k, bs in bases.items()}
    d: dict[int, SparseMatrix] = {}
    for k in range(degrees[0] + 1, degrees[1] + 1):
        entries: dict[tuple[int, int], int | Fraction] = {}
        target = index[k - 1]
        for col, g in enumerate(bases[k]):
            for term, coeff in diff(g).items():
                if term not in target:
                    if project:
                        continue
                    raise ValueError(f"differential leaves the basis: {term} from {g}")
                entries[(target[term], col)] = coeff
        d[k] = SparseMatrix.from_entries(len(bases[k - 1]), len(bases[k]), entries)
    completeness = {k: True for k in bases} if complete is None else complete
    return ChainComplexSlice(degrees, {k: tuple(v) for k, v in bases.items()},
                             d, completeness)


def labelled_polygons(n: int) -> list[Graph]:
    """All distinct labelled cycles on {1..n}: (n-1)!/2 of them for n >= 3."""
    import itertools

    if n < 2:
        return []
    if n == 2:
        return [graph(2, [(1, 2), (1, 2)])]
    seen = set()
    for perm in itertools.permutations(range(2, n + 1)):
        cycle = (1,) + perm
        edges = tuple(sorted(
            (min(cycle[k], cycle[(k + 1) % n]), max(cycle[k], cycle[(k + 1) % n]))
            for k in range(n)))
        seen.add(edges)
    return [Graph(n, e) for e in sorted(seen)]


def polygon_complex(max_n: int) -> ChainComplexSlice:
    """Labelled polygons (connected, all bivalent) up to max_n vertices.

    Degree = vertex count; degree 1 is empty so the bottom differential is
    total.  Contraction of a polygon edge is again a polygon (or dies on a
    loop), so nothing is projected away.
    """
    if max_n < 3:
        raise ValueError("need max_n >= 3")
    return stripe("polygon", 0, max_n)


def _edge_bounded(bases: dict[int, list[Graph]]) -> dict[int, bool]:
    """Completeness under an edge bound: only degree 1, which has no
    loopless connected graph of valence >= 2, is complete."""
    return {n: n < 2 for n in bases}


def reduced_core_complex(max_n: int, max_e: int) -> ChainComplexSlice:
    """Connected minimum-valence-3 graphs with bounded vertices and edges.

    Contraction lowers the edge count, so the differential maps the slice
    into itself; the slice projects for safety.  The edge bound still cuts
    every degree n >= 2 short: graphs with more than max_e edges contract
    onto the kept ones, so no degree is marked complete and no homology
    dimension is reliable.  Contraction keeps e - n; complete degrees come
    from a fixed loop order, as in `stripe`.
    """
    bases: dict[int, list[Graph]] = {}
    for n in range(1, max_n + 1):
        bases[n] = [g for g in enumerate_graphs(n, max_e, 3, connected_only=True)]
    return slice_from_bases(bases, project=True, complete=_edge_bounded(bases))


def mixed_quotient_complex(max_n: int, max_e: int) -> ChainComplexSlice:
    """Mixed connected graphs (min valence 2) with the projected differential.

    As in `reduced_core_complex`, the edge bound leaves every degree n >= 2
    incomplete, so no homology dimension is reliable; `stripe` builds
    complete degrees at a fixed loop order.
    """
    bases: dict[int, list[Graph]] = {}
    for n in range(1, max_n + 1):
        bases[n] = [g for g in enumerate_graphs(n, max_e, 2, connected_only=True)
                    if classify(g) == Classification.MIXED]
    return slice_from_bases(bases, project=True, complete=_edge_bounded(bases))


_STRIPE_KINDS = {"polygon": Classification.POLYGON, "core": Classification.CORE,
                 "mixed": Classification.MIXED, "all": None}


def stripe(kind: str, loop: int, max_n: int) -> ChainComplexSlice:
    """The stripe of loop order e - n = ``loop`` of one kind, degrees 1..max_n.

    ``kind`` is polygon, core or mixed, as `classify` names connected graphs
    of minimum valence two, or all of them.  Contraction keeps e - n, so
    each degree n is generated directly at e = n + loop and holds every
    graph of its kind: every degree is complete, and only the top one lacks
    the degree above it.  Degree 1 is empty, since one vertex carries no
    loopless edge.  Polygons, core graphs and all graphs are subcomplexes;
    the mixed graphs are the quotient of all by the other two, so their
    differential projects.  A core graph has 2e >= 3n, so n <= 2 * loop:
    once max_n reaches 2 * loop the core stripe ends at the empty degree
    2 * loop + 1, and its top degree 2 * loop is reliable too.
    """
    if kind not in _STRIPE_KINDS:
        raise ValueError(f"stripe kind {kind!r} is not one of {tuple(_STRIPE_KINDS)}")
    if loop < 0 or max_n < 1:
        raise ValueError(f"a stripe needs loop >= 0 and max_n >= 1, "
                         f"not loop {loop}, max_n {max_n}")
    wanted = _STRIPE_KINDS[kind]
    min_valence = 3 if kind == "core" else 2
    top = 2 * loop + 1 if kind == "core" and max_n >= 2 * loop else max_n
    bases: dict[int, list[Graph]] = {}
    for n in range(1, top + 1):
        bases[n] = [g for g in _walk_graphs(n, n + loop, n + loop, min_valence, True)
                    if wanted is None or classify(g) == wanted]
    return slice_from_bases(bases, project=kind == "mixed")
