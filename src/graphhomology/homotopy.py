"""Loop-order stripes of the graph complex: classification and assembly.

`classify` names a connected graph of minimum valence two a polygon (all
vertices bivalent), core (all valences at least three), or mixed.
Contraction keeps e - n, so the complexes split into stripes of fixed loop
order e - n (`stripe`), each finite and complete in every degree;
`slice_from_bases` assembles one from per-degree bases.

The mixed stripe e = n + 2 is not acyclic: through n = 6 its exact H_5 is 4,
the other degrees of n <= 5 and e <= 7 are acyclic.  The four classes map
injectively to H_4 of the core subcomplex: at e = n + 2 the core graphs have
H_4 = 5, while all connected min-valence-2 graphs together have H_4 = 1 and
H_5 = 0.  So in this labelled complex the core does not carry the homology
of the min-valence-2 graphs.  `exactlinalg.chain_contraction` on a stripe
gives maps with δ̄h + hδ̄ = Id - π that do hold, with π = 0 exactly where
the homology vanishes.
"""

from __future__ import annotations

import enum
import itertools

from .exactlinalg import ChainComplexSlice, SparseMatrix, _assemble
from .graphs import (
    Graph,
    _component_count,
    _walk_graphs,
    differential_graph,
    valences,
)

__all__ = [
    "Classification",
    "classify",
    "stripe",
    "slice_from_bases",
]


class Classification(enum.Enum):
    POLYGON = "polygon"
    CORE = "core"
    MIXED = "mixed"
    DISCONNECTED = "disconnected"


def classify(g: Graph) -> Classification:
    """Polygon: connected, all bivalent.  Core: connected, min valence >= 3.
    Mixed: any other connected graph.  The unit counts as disconnected."""
    if _component_count(g.n, g.edges) != 1:
        return Classification.DISCONNECTED
    vals = valences(g)
    if all(v == 2 for v in vals):
        return Classification.POLYGON
    if min(vals) >= 3:
        return Classification.CORE
    return Classification.MIXED


def slice_from_bases(bases: dict[int, list[Graph]], diff=differential_graph,
                     project: bool = False) -> ChainComplexSlice:
    """Assemble a ChainComplexSlice from per-degree graph bases.

    Differential coordinates come from `diff` on each basis element; terms
    outside the target basis are an error unless ``project`` is set (then the
    slice computes the quotient/projected differential).  The degrees must
    form an unbroken run, and each basis must hold every graph of its
    degree, as every `ChainComplexSlice` basis does.

    Each matrix is built once, by `exactlinalg._assemble` from three flat
    lists of rows, columns and values, filled column by column: a column's
    terms come from one `LinComb`, so each target row appears once in it
    with a nonzero coefficient, and rows and columns are basis indices, so
    every entry is in range.  The top degree is never a target, so it gets
    no index.
    """
    lo, hi = min(bases), max(bases)
    index = {k: {g: i for i, g in enumerate(bases[k])} for k in range(lo, hi)}
    d: dict[int, SparseMatrix] = {}
    for k in range(lo + 1, hi + 1):
        row_ids, col_ids, vals = [], [], []
        target = index[k - 1]
        for col, g in enumerate(bases[k]):
            for term, coeff in diff(g).items():
                row = target.get(term)
                if row is None:
                    if project:
                        continue
                    raise ValueError(f"differential leaves the basis: {term} from {g}")
                row_ids.append(row)
                col_ids.append(col)
                vals.append(coeff)
        d[k] = _assemble(len(bases[k - 1]), len(bases[k]), row_ids, col_ids, vals)
    return ChainComplexSlice({k: tuple(v) for k, v in bases.items()}, d)


# stripe refuses a degree with more graphs: the mixed stripe at loop 3 has
# 128,235 at n = 6 and fits, while loop 4 has 168,840 core graphs at n = 8
# and 12.4 M min-valence-2 graphs at n = 7
_MAX_DEGREE_BASIS = 150_000

# the kind each stripe keeps, or None to keep the whole walk: the core walk
# already yields only connected graphs of minimum valence three, which
# `classify` names core, so filtering it again would change nothing
_STRIPE_KINDS = {"polygon": Classification.POLYGON, "core": None,
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

    A degree with more than 150,000 graphs raises ValueError as soon as the
    walk passes that count, so no larger basis is held and no differential
    is assembled.
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
        walk = (g for g in _walk_graphs(n, n + loop, n + loop, min_valence, True)
                if wanted is None or classify(g) == wanted)
        bases[n] = list(itertools.islice(walk, _MAX_DEGREE_BASIS + 1))
        if len(bases[n]) > _MAX_DEGREE_BASIS:
            raise ValueError(f"the {kind} stripe at loop {loop} has more than "
                             f"{_MAX_DEGREE_BASIS} graphs in degree {n}")
    return slice_from_bases(bases, project=kind == "mixed")
