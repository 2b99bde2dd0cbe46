"""Vertex-labelled loopless multigraphs, their differential and quotients.

A graph on vertices {1..n} stores its edge multiset as sorted pairs (i, j)
with i < j; the empty graph on zero vertices is the algebra unit.  Orientation
is never stored: written pairs are sorted by `_signed_pairs`, each flip
contributing -1 and any loop annihilating the term.  A Graph is an
immutable value that computes its hash once, when it is built, because graphs
key every linear combination.

The differential contracts one edge copy at a time.  Contracting {i, j}
(i < j) merges j into i and shifts labels above j down by one; the term's sign
is (-1)^j times a re-orientation sign (-1)^f where f counts the other edges
(a, j) with i < a < j, whose written direction reverses under the merge.
`differential_graph` walks the edges once: an edge with a second copy gives
no term, since its contraction holds a loop, and for every other edge one
pass over the edges builds the contracted graph and counts f.
Without the re-orientation factor the square of the map is nonzero already on
the three-vertex path with edges (1, 3), (2, 3), where it is -2 times the
one-vertex graph; with it, d∘d = 0 holds (exhaustively tested).

The quotient by signed relabelling (lie_class) keeps the orbit-minimal graph
as the class representative.  It is found by labelling vertices one at a time
with ordered-partition refinement (McKay & Piperno, "Practical graph
isomorphism, II", J. Symb. Comput. 2014): a sorted edge tuple is smallest
exactly when the edge-multiplicity vector (m12, m13, .., m23, ..) is
largest, so each label is chosen to maximise the next row of that vector,
and every partial labelling that ties with the best is kept.  Every leaf of
the search relabels the graph to the same representative: `_signed_pairs`
of a leaf's relabelled edges gives its sign, and the last leaf's sorted
pairs are the representative.  Twin vertices (equal multiplicities to all
others) give transpositions that either annihilate the class at once or may
be skipped in the search.  The n! enumeration it replaces is the test
oracle `_lie_orbit_min`.

Bases come from one depth-first walk over nondecreasing sequences of
vertex pairs (enumerate_graphs), which emits graphs in Graph order, each
before its extensions.  It prunes a branch once a vertex short of the
minimum valence can no longer be reached (a connected graph on two or more
vertices has minimum valence at least one), or once the valence deficit
exceeds what the remaining edges can fill.  The build-then-filter loop over
every pair combination that it replaces is the test oracle
`_enumerate_oracle`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import total_ordering
from typing import Iterator

from .exactlinalg import LinComb

__all__ = [
    "Graph",
    "UNIT",
    "GraphClass",
    "graph",
    "differential",
    "differential_graph",
    "disjoint_union",
    "connected_components",
    "assemble",
    "products_of",
    "sigma_act",
    "perm_sign",
    "lie_class",
    "lie_differential",
    "enumerate_graphs",
    "valences",
    "LIE_CLASS_MAX_N",
    "ENUMERATE_MAX_GRAPHS",
]


@total_ordering
class Graph:
    """Canonical labelled multigraph: sorted tuple of sorted loopless pairs.

    An immutable value ordered and compared by (n, edges), equal only to
    another Graph.  Its hash is computed once, when it is built, because
    graphs are the keys of every linear combination.  Pickling and copying
    rebuild it from (n, edges) through __reduce__.
    """

    __slots__ = ("n", "edges", "_hash")

    def __init__(self, n: int, edges: tuple[tuple[int, int], ...]) -> None:
        # the slot setters bypass __setattr__, which refuses every assignment
        _set_n(self, n)
        _set_edges(self, edges)
        _set_hash(self, hash((n, edges)))

    def __setattr__(self, name, value):
        raise AttributeError(f"Graph is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"Graph is immutable; cannot delete {name!r}")

    def __reduce__(self):
        return Graph, (self.n, self.edges)

    def __repr__(self) -> str:
        return f"Graph({self.n}, {list(map(list, self.edges))})"

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other):
        if other.__class__ is not Graph:
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __lt__(self, other):
        if other.__class__ is not Graph:
            return NotImplemented
        return (self.n, self.edges) < (other.n, other.edges)


_set_n, _set_edges, _set_hash = (
    Graph.n.__set__, Graph.edges.__set__, Graph._hash.__set__)


def graph(n: int, edges) -> Graph:
    """Build a canonical Graph, sorting pairs and the multiset; loops rejected."""
    if n < 0:
        raise ValueError(f"a graph needs n >= 0 vertices, not {n}")
    written = []
    for e in edges:
        i, j = e
        if i == j:
            raise ValueError(f"loop at vertex {i}; loops are not graph basis elements")
        if not (1 <= i <= n and 1 <= j <= n):
            raise ValueError(f"edge {e} outside vertex range 1..{n}")
        written.append((i, j))
    return Graph(n, _signed_pairs(written)[1])


UNIT = Graph(0, ())


def _signed_pairs(pairs) -> tuple[int, tuple[tuple[int, int], ...]] | None:
    """(sign, sorted (low, high) pairs) of written pairs, or None if one is a loop.

    Each pair written high end first flips, contributing -1.  This is the one
    orientation step: `graph`, `sigma_act`, `lie_class`,
    `diagrams.chord_diagram`, `pair_monomial`, `package`, `symplectic.tstar`
    and `word_to_graphs` all take their pairs from it.  `differential_graph`
    keeps its own count: it is the stripe's hot path, builds each
    contracted edge list in the same pass, and knows that only the edges
    (a, j) with i < a < j can flip.  It takes each contraction's whole sign
    in δ, (-1)^j times -1 per flipped edge.
    """
    sign = 1
    norm = []
    for a, b in pairs:
        if a < b:
            norm.append((a, b))
        elif a > b:
            sign = -sign
            norm.append((b, a))
        else:
            return None
    norm.sort()
    return sign, tuple(norm)


def differential_graph(g: Graph) -> LinComb:
    """δ on one basis graph: signed sum of single-edge contractions.

    Contracting an edge (i, j) merges j into i and shifts labels above j
    down by one.  A loop appears exactly when another copy of (i, j)
    remains, so an edge of multiplicity above one gives no term.  The sign
    is (-1)^(j+f), where f counts the other edges (a, j) with i < a < j:
    they become (i, a), the only written directions the merge reverses.
    """
    edges = g.edges
    n = g.n - 1
    terms = []
    for edge in edges:
        if edges.count(edge) > 1:
            continue
        i, j = edge
        sign = -1 if j & 1 else 1
        new_edges = []
        for a, b in edges:
            if b > j:
                new_edges.append((a if a < j else i if a == j else a - 1, b - 1))
            elif b < j:
                new_edges.append((a, b))
            elif a < i:
                new_edges.append((a, i))
            elif a > i:
                sign = -sign
                new_edges.append((i, a))
            # else (a, b) is the contracted edge itself, the only copy, and it is dropped
        new_edges.sort()
        terms.append((Graph(n, tuple(new_edges)), sign))
    return LinComb.sum(terms)


def differential(x: LinComb) -> LinComb:
    """δ extended linearly; drops vertex count and edge count by one per term."""
    return x.mapped(differential_graph)


def disjoint_union(a: Graph, b: Graph) -> Graph:
    """Ordered disjoint union: b's vertices shifted past a's."""
    shifted = tuple((i + a.n, j + a.n) for i, j in b.edges)
    return graph(a.n + b.n, a.edges + shifted)


def assemble(components) -> Graph:
    """Ordered disjoint union of a sequence of graphs (unit for empty input)."""
    out = UNIT
    for c in components:
        out = disjoint_union(out, c)
    return out


def products_of(pool, max_components: int) -> list[Graph]:
    """Every ordered disjoint union of 1..max_components graphs from pool.

    Grouped by the number of components, each group in pool order.
    """
    out = []
    frontier = [UNIT]
    for _ in range(max_components):
        frontier = [disjoint_union(g, c) for g in frontier for c in pool]
        out.extend(frontier)
    return out


def connected_components(g: Graph) -> list[Graph]:
    """Components standardised to their own labels, ordered by minimal original label."""
    if g.n == 0:
        return []
    parent = list(range(g.n + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in g.edges:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)
    groups: dict[int, list[int]] = {}
    for v in range(1, g.n + 1):
        groups.setdefault(find(v), []).append(v)
    comps = []
    for root in sorted(groups):
        verts = sorted(groups[root])
        relabel = {v: k + 1 for k, v in enumerate(verts)}
        edges = [(relabel[i], relabel[j]) for i, j in g.edges if find(i) == root]
        comps.append(graph(len(verts), edges))
    return comps


def perm_sign(perm) -> int:
    """Sign of a permutation given as a 1-indexed image tuple."""
    n = len(perm)
    seen = [False] * (n + 1)
    sign = 1
    for start in range(1, n + 1):
        if seen[start]:
            continue
        length = 0
        v = start
        while not seen[v]:
            seen[v] = True
            v = perm[v - 1]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def sigma_act(perm, g: Graph) -> LinComb:
    """Signed symmetric-group action on the canonically oriented basis.

    Relabelling moves directed edges; expressing the result in canonical
    (low, high) orientation flips every edge whose endpoints get swapped,
    at -1 apiece.  The total sign is sgn(σ) times (-1)^(#reversed edges).
    δ lowers the vertex count, so it does not commute with the action; with
    this re-orientation factor it descends to the signed-relabelling
    quotient, lie_class ∘ δ = lie_differential ∘ lie_class (criterion 12).
    """
    perm = tuple(perm)
    if len(perm) != g.n or sorted(perm) != list(range(1, g.n + 1)):
        raise ValueError(f"permutation {perm} does not act on {g.n} vertices")
    # a bijection keeps g loopless, so the relabelled pairs never vanish
    flips, edges = _signed_pairs((perm[i - 1], perm[j - 1]) for i, j in g.edges)
    return LinComb.of(Graph(g.n, edges), perm_sign(perm) * flips)


# lie_class refuses a graph with more vertices: it prunes by refinement and
# twins, but its search stays exponential in the worst case, since it keeps
# every minimising relabelling and so grows with the automorphism group (720
# leaves for six disjoint edges)
LIE_CLASS_MAX_N = 12


@dataclass(frozen=True, order=True)
class GraphClass:
    """Basis element of the signed-relabelling quotient: the orbit-minimal graph."""

    rep: Graph

    def __repr__(self) -> str:
        return f"GraphClass({self.rep!r})"


def _multiplicities(g: Graph) -> list[list[int]]:
    """Symmetric 1-indexed edge-multiplicity matrix, row and column 0 unused."""
    m = [[0] * (g.n + 1) for _ in range(g.n + 1)]
    for i, j in g.edges:
        m[i][j] += 1
        m[j][i] += 1
    return m


def _twin_classes(n: int, m: list[list[int]]) -> list[int] | None:
    """Least twin of each vertex, or None when some twin pair has even multiplicity.

    Twins u, v have m(u, w) = m(v, w) for every other vertex w; the
    transposition (u v) is then an automorphism whose sigma_act sign is
    -(-1)^m(u, v).  Since m(u, u) = m(v, v) = 0, that is: v's row equals
    u's row with its entries at u and v swapped, one list comparison.
    Twinship is transitive, so comparing with the least member of each class
    finds every class.
    """
    twin = list(range(n + 1))
    for u in range(1, n + 1):
        if twin[u] != u:
            continue
        mu = m[u]
        for v in range(u + 1, n + 1):
            if twin[v] != v:
                continue
            swapped = mu.copy()
            swapped[u], swapped[v] = mu[v], 0
            if swapped == m[v]:
                if mu[v] % 2 == 0:
                    return None
                twin[v] = u
    return twin


def lie_class(g: Graph) -> LinComb:
    """Project a graph to the signed relabelling quotient: zero or ±one class.

    The representative is the orbit minimum, the smallest sorted edge tuple
    over all relabellings, with the sigma_act sign of the relabellings that
    reach it; a graph related to itself with sign -1 is annihilated.

    For a fixed edge count the sorted edge tuple is smallest exactly when the
    multiplicity vector (m12, m13, .., m1n, m23, ..) is largest, so the search
    labels vertices 1, 2, .. in turn and keeps an ordered partition of the
    unlabelled vertices, whose cells take the next labels in order.  Labelling
    v from the first cell splits every cell by multiplicity to v, largest
    first, which fixes v's row; only the partial labellings whose row equals
    the level's best survive.  All survivors share the prefix of the vector,
    so the search is exact and its leaves are every minimising relabelling:
    they give one representative, and each leaf the sign sgn(σ) times
    (-1)^(#reversed edges), from `_signed_pairs`.
    Twins (see _twin_classes) with even multiplicity between them annihilate
    the graph at once; with odd multiplicity they give a +1 automorphism that
    fixes the partial labelling, so the search branches on one vertex of
    each twin class.  tests/test_graphs.py checks this against the n!
    enumeration `_lie_orbit_min`.
    """
    if g.n > LIE_CLASS_MAX_N:
        raise ValueError(
            f"lie_class searches relabellings of {g.n} vertices; at most "
            f"{LIE_CLASS_MAX_N} vertices are supported")
    m = _multiplicities(g)
    twin = _twin_classes(g.n, m)
    if twin is None:
        return LinComb()
    # each partial labelling: (labelled vertices in label order, cells of the rest)
    level = [((), [list(range(1, g.n + 1))] if g.n else [])]
    while level[0][1]:
        best_row = None
        survivors = []
        for order, cells in level:
            first = cells[0]
            tried = set()
            for v in first:
                if twin[v] in tried:
                    continue
                tried.add(twin[v])
                mv = m[v]
                row = []
                split = []
                head = [w for w in first if w != v]
                for cell in cells:
                    if cell is first:
                        # the first cell is refined without v
                        cell = head
                    # a stable sort keeps each group in cell order
                    last = None
                    for w in sorted(cell, key=mv.__getitem__, reverse=True):
                        mult = mv[w]
                        if mult != last:
                            last, group = mult, []
                            split.append(group)
                        group.append(w)
                        row.append(mult)
                if best_row is None or row > best_row:
                    best_row, survivors = row, []
                if row == best_row:
                    survivors.append((order + (v,), split))
        level = survivors
    signs = set()
    for order, _ in level:
        label = [0] * (g.n + 1)
        for k, v in enumerate(order, 1):
            label[v] = k
        flips, edges = _signed_pairs((label[a], label[b]) for a, b in g.edges)
        signs.add(perm_sign(label[1:]) * flips)
    if len(signs) == 2:
        return LinComb()
    # every leaf relabels g to the orbit minimum, so the last one gives it
    return LinComb.of(GraphClass(Graph(g.n, edges)), signs.pop())


def lie_differential(x: LinComb) -> LinComb:
    """δ on the quotient: lift the representative, contract, re-project."""
    def per_class(cls: GraphClass) -> LinComb:
        return differential_graph(cls.rep).mapped(lie_class)
    return x.mapped(per_class)


def valences(g: Graph) -> list[int]:
    """Valence of each vertex, 1-indexed list of length n."""
    val = [0] * (g.n + 1)
    for i, j in g.edges:
        val[i] += 1
        val[j] += 1
    return val[1:]


# enumerate_graphs refuses a longer listing, as stripe refuses a degree of
# more than 150,000 graphs; a listing spans every edge count up to max_edges,
# so 6 vertices with at most 7 edges give 170,544 graphs, while 8 vertices
# with at most 12 edges would give C(40, 12), about 5.6e9
ENUMERATE_MAX_GRAPHS = 300_000

# _walk_graphs nests one generator per edge and resumes each through all the
# ones below it, so more edges would near Python's default 1,000-frame limit
_WALK_MAX_EDGES = 500


def enumerate_graphs(n: int, max_edges: int, min_valence: int = 0,
                     connected_only: bool = False) -> list[Graph]:
    """All canonical graphs on exactly n vertices meeting the constraints, sorted.

    The graphs come from one depth-first walk over nondecreasing sequences
    of vertex pairs (see _walk_graphs), which emits them in Graph order.
    Edge counts too small for the constraints are never emitted: n vertices
    of valence min_valence need ceil(n * min_valence / 2) edges, a connected
    graph n - 1, and when that least count exceeds max_edges the walk is not
    started.  A negative n raises ValueError, and so does a listing of more than
    ENUMERATE_MAX_GRAPHS graphs: up front when its edgeless and single-edge graphs
    or its n^(n-2) trees (Cayley) alone pass that count, else once the walk does.
    """
    if n < 0:
        raise ValueError(f"a graph needs n >= 0 vertices, not {n}")
    if n == 0:
        return [UNIT] if not connected_only else []
    least = max(0, -(-n * min_valence // 2), n - 1 if connected_only else 0)
    if least > max_edges:
        return []
    refusal = (f"enumerate_graphs lists more than {ENUMERATE_MAX_GRAPHS} graphs "
               f"on {n} vertices with at most {max_edges} edges")
    # a connected listing with min_valence <= 1 holds every tree, if the walk runs
    trees = connected_only and min_valence <= 1 and 2 <= n and max_edges <= _WALK_MAX_EDGES
    if (least == 0 < max_edges and 1 + n * (n - 1) // 2 > ENUMERATE_MAX_GRAPHS
            or trees and n ** (n - 2) > ENUMERATE_MAX_GRAPHS):
        raise ValueError(refusal)
    walk = _walk_graphs(n, least, max_edges, min_valence, connected_only)
    out = list(itertools.islice(walk, ENUMERATE_MAX_GRAPHS + 1))
    if len(out) > ENUMERATE_MAX_GRAPHS:
        raise ValueError(refusal)
    return out


def _walk_graphs(n: int, min_edges: int, max_edges: int, min_valence: int,
                 connected_only: bool) -> Iterator[Graph]:
    """Yield the graphs on n >= 1 vertices with min_edges..max_edges edges,
    in Graph order.

    The walk extends a nondecreasing sequence of pairs (i, j), i < j, one
    pair at a time in increasing order and emits each valid sequence before
    its extensions, so the output is sorted with prefixes first.  Two prunes
    stop a branch early, for a valence floor of min_valence, raised to 1
    when only connected graphs on n >= 2 vertices are wanted:
    - once the next pair would start past a vertex whose valence is still
      below the floor, since every later pair misses that vertex;
    - once the total valence deficit exceeds twice the edges still allowed,
      since one edge raises two valences.
    Edge tuples hold the pair objects of one shared pair list, laid out
    only when there are edges to walk.  More than _WALK_MAX_EDGES edges on
    n >= 2 vertices raise ValueError.
    """
    if n > 1 and max_edges > _WALK_MAX_EDGES:
        raise ValueError(f"the graph walk takes at most {_WALK_MAX_EDGES} edges, not {max_edges}")
    # past[v]: index of the first pair starting after vertex v
    past = [v * n - v * (v + 1) // 2 for v in range(n + 1)]
    # a connected graph on n >= 2 vertices has no isolated vertex
    floor = max(min_valence, 1 if connected_only and n > 1 else 0)
    val = [0] * (n + 1)
    chosen: list[tuple[int, int]] = []
    # the edgeless graph, the root of the walk, is connected only for n = 1
    if floor == 0 and min_edges <= 0 <= max_edges and (n == 1 or not connected_only):
        yield Graph(n, ())

    def extend(start: int, count: int, low: int, deficit: int) -> Iterator[Graph]:
        # chosen holds count pairs; pairs[start] is the least next pair;
        # low is no later than the least vertex still short of floor, or n
        while low < n and val[low] >= floor:
            low += 1
        size = count + 1
        for k in range(start, past[low]):
            pair = pairs[k]
            i, j = pair
            left = deficit - (val[i] < floor) - (val[j] < floor)
            if left > 2 * (max_edges - size):
                continue
            val[i] += 1
            val[j] += 1
            chosen.append(pair)
            if left == 0 and size >= min_edges and (
                    not connected_only or _component_count(n, chosen) == 1):
                yield Graph(n, tuple(chosen))
            if size < max_edges:
                yield from extend(k, size, low, left)
            chosen.pop()
            val[i] -= 1
            val[j] -= 1

    if max_edges > 0:
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        yield from extend(0, 0, 1, n * floor)


def _component_count(n: int, edges) -> int:
    """The number of components into which the edges join vertices 1..n."""
    parent = list(range(n + 1))
    joins = 0
    for i, j in edges:
        while parent[i] != i:
            i = parent[i]
        while parent[j] != j:
            j = parent[j]
        if i != j:
            if i < j:
                parent[j] = i
            else:
                parent[i] = j
            joins += 1
    return n - joins
