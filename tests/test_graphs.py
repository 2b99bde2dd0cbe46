import copy
import itertools
import pickle
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from graphhomology.exactlinalg import LinComb
from graphhomology import graphs
from graphhomology.graphs import (
    Graph,
    UNIT,
    connected_components,
    differential,
    differential_graph,
    disjoint_union,
    enumerate_graphs,
    graph,
    lie_class,
    lie_differential,
    sigma_act,
    valences,
)
from graphhomology.cli import (
    _graph_from_record,
    _graph_to_record,
    _lincomb_from_records,
    _lincomb_to_records,
)
from graphhomology.homotopy import stripe
from oracles import contract

G_EX = graph(3, [(1, 2), (1, 2), (1, 3), (2, 3)])
TRIPLE = graph(2, [(1, 2), (1, 2), (1, 2)])
DOUBLE = graph(2, [(1, 2), (1, 2)])


def brute_force_graphs(n, max_edges):
    """Independent enumeration: multiplicity vectors over all vertex pairs."""
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    out = []
    for mults in itertools.product(range(max_edges + 1), repeat=len(pairs)):
        if sum(mults) > max_edges:
            continue
        edges = []
        for pair, k in zip(pairs, mults):
            edges.extend([pair] * k)
        out.append(graph(n, edges))
    return sorted(set(out))


def _connected(g):
    seen, stack = {1}, [1]
    while stack:
        v = stack.pop()
        for i, j in g.edges:
            for a, b in ((i, j), (j, i)):
                if a == v and b not in seen:
                    seen.add(b)
                    stack.append(b)
    return len(seen) == g.n


def _enumerate_oracle(n, max_edges, min_valence=0, connected_only=False):
    """Build every pair combination with a feasible edge count, filter, sort."""
    if n == 0:
        return [UNIT] if not connected_only else []
    pair_types = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    least = max(0, -(-n * min_valence // 2), n - 1 if connected_only else 0)
    out = []
    for count in range(least, max_edges + 1):
        for combo in itertools.combinations_with_replacement(pair_types, count):
            if min_valence > 0:
                val = [0] * (n + 1)
                for i, j in combo:
                    val[i] += 1
                    val[j] += 1
                if min(val[1:]) < min_valence:
                    continue
            g = Graph(n, combo)
            if connected_only and len(connected_components(g)) != 1:
                continue
            out.append(g)
    out.sort()
    return out


@pytest.mark.parametrize("args", [(6, 8, 2, True), (6, 7, 0, False), (6, 6, 0, True),
                                  (5, 6, 1, True)])
def test_enumerate_graphs_matches_oracle_at_stripe_size(args):
    # the walk emits the oracle's list in the oracle's order
    assert enumerate_graphs(*args) == _enumerate_oracle(*args)


def test_enumerate_graphs_refuses_negative_vertices():
    for min_valence in (0, 2):
        with pytest.raises(ValueError, match="n >= 0"):
            enumerate_graphs(-1, 3, min_valence)


def test_enumerate_graphs_refuses_a_long_listing_before_the_walk():
    # the edgeless listing lays out no vertex pairs, and a listing from 0
    # edges with more single-edge graphs than the cap is refused up front
    start = time.perf_counter()
    assert enumerate_graphs(4000, 0) == [Graph(4000, ())]
    assert time.perf_counter() - start < 0.5
    with pytest.raises(ValueError, match="more than 300000 graphs on 800 vertices"):
        enumerate_graphs(800, 1)


def test_walk_refuses_more_edges_than_it_can_nest():
    # the walk at its bound stays within the default recursion limit
    bound = graphs._WALK_MAX_EDGES
    assert len(enumerate_graphs(2, bound)) == bound + 1
    with pytest.raises(ValueError, match=f"at most {bound} edges, not {bound + 1}"):
        enumerate_graphs(2, bound + 1)


def test_enumerate_graphs_matches_filtered_reference():
    # the reference builds every graph with up to 6 edges and filters it
    for n in range(0, 6):
        everything = [UNIT] if n == 0 else [
            Graph(n, combo) for count in range(7) for combo in
            itertools.combinations_with_replacement(
                list(itertools.combinations(range(1, n + 1), 2)), count)]
        for min_valence in (0, 2, 3):
            for connected_only in (False, True):
                kept = sorted(
                    g for g in everything
                    if all(v >= min_valence for v in valences(g))
                    and (not connected_only or (g.n > 0 and _connected(g))))
                for max_e in range(7):
                    expected = [g for g in kept if len(g.edges) <= max_e]
                    assert enumerate_graphs(n, max_e, min_valence, connected_only) \
                        == expected, (n, max_e, min_valence, connected_only)


def test_graph_is_an_immutable_value():
    for g in (G_EX, UNIT):
        for back in (pickle.loads(pickle.dumps(g)), copy.deepcopy(g), copy.copy(g)):
            assert type(back) is Graph and back == g and hash(back) == hash(g)
            assert repr(back) == repr(g)
    with pytest.raises(AttributeError):
        G_EX.n = 3
    assert G_EX.n == 3
    gs = [g for n in range(0, 5) for g in enumerate_graphs(n, 4)]
    # distinct objects with fresh edge tuples, compared by value
    copies = [Graph(g.n, tuple(list(g.edges))) for g in gs]
    for a in gs:
        for b in copies:
            same = (a.n, a.edges) == (b.n, b.edges)
            assert (a == b) is same and (a != b) is not same
            if same:
                assert hash(a) == hash(b)
    shuffled = copies[::-1]
    random.Random(7).shuffle(shuffled)
    assert sorted(shuffled) == sorted(gs, key=lambda g: (g.n, g.edges)) == gs
    for other in (graphs.GraphClass(G_EX), (G_EX.n, G_EX.edges)):
        assert G_EX != other and not (G_EX == other)
        with pytest.raises(TypeError):
            G_EX < other
        with pytest.raises(TypeError):
            other < G_EX


def test_canonicalize_worked_flip_count():
    # G_EX written with one pair high end first: -1 times G_EX
    assert graphs._signed_pairs([(1, 3), (1, 2), (2, 1), (2, 3)]) == (-1, G_EX.edges)


def test_signed_pairs():
    assert graphs._signed_pairs([(3, 1), (2, 2)]) is None
    assert graphs._signed_pairs([]) == (1, ())
    assert graphs._signed_pairs([(4, 2), (1, 3), (2, 1)]) == (1, ((1, 2), (1, 3), (2, 4)))
    rng = random.Random(4)
    for _ in range(50):
        pairs = [tuple(rng.sample(range(1, 7), 2)) for _ in range(rng.randint(1, 5))]
        reversed_pairs = sum(1 for a, b in pairs if a > b)
        assert graphs._signed_pairs(pairs) == (
            (-1) ** reversed_pairs, tuple(sorted((min(p), max(p)) for p in pairs)))


def test_contract_worked_examples():
    assert contract(G_EX, (1, 3)) == LinComb.of(TRIPLE)
    assert contract(DOUBLE, (1, 2)).is_zero()
    g4 = graph(4, [(1, 4), (1, 3), (2, 4), (2, 3), (3, 4)])
    assert contract(g4, (1, 4)) == \
        LinComb.of(graph(3, [(1, 2), (1, 3), (1, 3), (2, 3)]))
    with pytest.raises(ValueError):
        contract(DOUBLE, (1, 3))


def test_differential_frozen_values():
    # the two surviving contractions of the double-and-triangle graph carry
    # opposite re-orientation signs and cancel exactly
    assert differential(LinComb.of(G_EX)).is_zero()
    # single edge: one term, no signs
    assert differential(LinComb.of(graph(2, [(1, 2)]))) == LinComb.of(graph(1, []))
    # double edge: both contractions loop out
    assert differential(LinComb.of(DOUBLE)).is_zero()
    # one bivalent chain of length two
    f2 = graph(4, [(1, 2), (1, 2), (1, 3), (2, 4), (3, 4)])
    assert differential(LinComb.of(f2)) == LinComb.of(G_EX, -1)
    # triangle contracts to the double edge with total +1
    assert differential(LinComb.of(graph(3, [(1, 2), (1, 3), (2, 3)]))) == \
        LinComb.of(DOUBLE)


def test_differential_sign_matches_reorientation_oracle():
    # each copy k of (i, j) contributes (-1)^j (-1)^f contract(g, (i, j)),
    # f counting the edges (a, j) with i < a < j
    gs = [g for n in range(0, 6) for g in enumerate_graphs(n, 6)]
    mixed = stripe("mixed", 2, 5).basis[5]
    assert len(mixed) == 1900
    for g in [*gs, *mixed]:
        expected = LinComb()
        for i, j in g.edges:
            flips = sum(1 for a, b in g.edges if b == j and i < a < j)
            expected = expected + contract(g, (i, j)).scale((-1) ** (j + flips))
        assert differential_graph(g) == expected, g


def test_differential_squares_to_zero_small():
    for n in range(1, 5):
        for g in enumerate_graphs(n, 6):
            assert differential(differential(LinComb.of(g))).is_zero(), g


def test_differential_degree_drop():
    for n in range(2, 5):
        for g in enumerate_graphs(n, 5):
            for term, _ in differential(LinComb.of(g)).items():
                assert term.n == g.n - 1
                assert len(term.edges) == len(g.edges) - 1


def test_disjoint_union_unit_and_worked():
    assert disjoint_union(UNIT, G_EX) == G_EX
    assert disjoint_union(G_EX, UNIT) == G_EX
    assert disjoint_union(DOUBLE, DOUBLE) == \
        graph(4, [(1, 2), (1, 2), (3, 4), (3, 4)])


def test_disjoint_union_associative_random():
    rng = random.Random(2)
    pool = enumerate_graphs(3, 3) + enumerate_graphs(2, 2)
    for _ in range(100):
        a, b, c = rng.choice(pool), rng.choice(pool), rng.choice(pool)
        assert disjoint_union(disjoint_union(a, b), c) == \
            disjoint_union(a, disjoint_union(b, c))


def test_connected_components_worked():
    assert connected_components(G_EX) == [G_EX]
    h = graph(4, [(1, 2), (1, 2), (3, 4), (3, 4)])
    assert connected_components(h) == [DOUBLE, DOUBLE]
    assert connected_components(UNIT) == []


def test_components_preserve_size_and_edges():
    # components of an arbitrary graph may interleave label-wise, so the
    # ordered union only recovers graphs whose components are label blocks;
    # sizes and edge counts are preserved unconditionally
    for n in range(0, 5):
        for g in enumerate_graphs(n, 4):
            comps = connected_components(g)
            assert sum(c.n for c in comps) == g.n
            assert sum(len(c.edges) for c in comps) == len(g.edges)


def test_interleaved_components_standardize():
    g = graph(4, [(1, 3), (1, 3), (2, 4), (2, 4)])
    assert connected_components(g) == [DOUBLE, DOUBLE]


def test_components_round_trip_on_assembled():
    rng = random.Random(3)
    pool = [g for n in range(1, 4) for g in enumerate_graphs(n, 3, connected_only=True)]
    for _ in range(200):
        parts = [rng.choice(pool) for _ in range(rng.randint(1, 4))]
        g = UNIT
        for p in parts:
            g = disjoint_union(g, p)
        assert connected_components(g) == parts


def test_component_count_matches_search_and_components():
    # seeded multigraphs: blocks of random edges (repeats included) on a
    # few vertices each, beside isolated vertices, relabelled at random so
    # that components interleave
    rng = random.Random(11)
    seen = set()
    for _ in range(400):
        sizes = [rng.randint(1, 4) for _ in range(rng.randint(1, 4))]
        edges, start = [], 0
        for size in sizes:
            if size > 1:
                edges += [tuple(start + v for v in rng.sample(range(1, size + 1), 2))
                          for _ in range(rng.randint(0, 2 * size))]
            start += size
        label = rng.sample(range(1, start + 1), start)
        g = graph(start, [(label[i - 1], label[j - 1]) for i, j in edges])
        count = graphs._component_count(g.n, g.edges)
        assert count == len(connected_components(g))
        assert (count == 1) == _connected(g)
        seen.add((count, min(valences(g)) == 0))
    # single and several components, with and without isolated vertices
    assert {(1, False), (1, True), (3, False), (3, True)} <= seen
    assert graphs._component_count(0, ()) == len(connected_components(UNIT)) == 0


def test_sigma_act_identity_and_size_check():
    assert sigma_act((1, 2, 3), G_EX) == LinComb.of(G_EX)
    with pytest.raises(ValueError, match=r"permutation \(1, 2\) does not act on 3 vertices"):
        sigma_act((1, 2), G_EX)


def test_sigma_act_transposition_reorients_single_edge():
    # sgn(-1) times one reversed edge (-1) gives +1 overall
    k2 = graph(2, [(1, 2)])
    assert sigma_act((2, 1), k2) == LinComb.of(k2)
    # with an even number of edges between the swapped labels the sgn survives
    assert sigma_act((2, 1), DOUBLE) == LinComb.of(DOUBLE, -1)


@settings(max_examples=80, derandomize=True)
@given(st.integers(0, 120), st.integers(0, 120), st.integers(0, 30))
def test_sigma_act_composition_law(i, j, k):
    perms = list(itertools.permutations((1, 2, 3, 4, 5)))
    sigma = perms[i]
    tau_ = perms[j]
    pool = enumerate_graphs(5, 3)
    g = pool[k % len(pool)]
    composed = tuple(sigma[tau_[x - 1] - 1] for x in range(1, 6))
    step = sigma_act(tau_, g).mapped(lambda h: sigma_act(sigma, h))
    assert step == sigma_act(composed, g)


def test_lie_class_values():
    # the swap fixes the single edge with total sign +1 (sgn x one flip)
    k2 = graph(2, [(1, 2)])
    assert lie_class(k2) == LinComb.of(graphs.GraphClass(k2))
    assert lie_class(TRIPLE) == LinComb.of(graphs.GraphClass(TRIPLE))
    # two isolated vertices: the swap is odd and reverses nothing
    assert lie_class(graph(2, [])).is_zero()
    tet = graph(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
    assert lie_class(tet) == LinComb.of(graphs.GraphClass(tet))


def test_lie_class_refuses_thirteen_vertices():
    # the search stays exponential in the worst case; the guard fires first
    path = graph(13, [(k, k + 1) for k in range(1, 13)])
    with pytest.raises(ValueError, match="relabellings of 13 vertices; at most 12"):
        lie_class(path)


def _lie_orbit_min(g):
    """Oracle for lie_class: the smallest of all n! relabellings, with its signs."""
    best = None
    best_signs = set()
    for perm in itertools.permutations(range(1, g.n + 1)):
        cand = graph(g.n, ((perm[a - 1], perm[b - 1]) for a, b in g.edges))
        reversed_edges = sum(1 for a, b in g.edges if perm[a - 1] > perm[b - 1])
        sign = graphs.perm_sign(perm) * (-1 if reversed_edges % 2 else 1)
        if best is None or cand.edges < best.edges:
            best = cand
            best_signs = {sign}
        elif cand.edges == best.edges:
            best_signs.add(sign)
    if len(best_signs) == 2:
        return LinComb()
    return LinComb.of(graphs.GraphClass(best), best_signs.pop())


def _symmetric_families(n):
    """Highly symmetric graphs on n vertices, the hard cases for the search."""
    out = {"empty": graph(n, []),
           "complete": graph(n, [(i, j) for i in range(1, n + 1)
                                 for j in range(i + 1, n + 1)])}
    if n >= 3:
        out["cycle"] = graph(n, [(k, k + 1) for k in range(1, n)] + [(1, n)])
    if n % 2 == 0:
        out["disjoint edges"] = graph(n, [(k, k + 1) for k in range(1, n, 2)])
    if n % 3 == 0:
        out["disjoint triangles"] = graph(
            n, [e for k in range(1, n, 3) for e in ((k, k + 1), (k, k + 2), (k + 1, k + 2))])
    return out


def _twin_classes_oracle(n, m):
    """Least twin of each vertex by comparing multiplicities to every other vertex."""
    twin = list(range(n + 1))
    for u in range(1, n + 1):
        if twin[u] != u:
            continue
        for v in range(u + 1, n + 1):
            if twin[v] == v and all(m[u][w] == m[v][w] for w in range(1, n + 1)
                                    if w != u and w != v):
                if m[u][v] % 2 == 0:
                    return None
                twin[v] = u
    return twin


def test_twin_classes_match_oracle():
    gs = [g for n in range(0, 6) for g in enumerate_graphs(n, 6)]
    gs += [g for n in range(1, 13) for g in _symmetric_families(n).values()]
    outcomes = set()
    for g in gs:
        m = graphs._multiplicities(g)
        twin = graphs._twin_classes(g.n, m)
        assert twin == _twin_classes_oracle(g.n, m), g
        outcomes.add(twin is None)
    assert outcomes == {True, False}


def test_lie_class_matches_orbit_min_on_all_small_graphs():
    gs = [g for n in range(0, 6) for g in enumerate_graphs(n, 5)]
    assert len(gs) == 3529
    for g in gs:
        assert lie_class(g) == _lie_orbit_min(g), g


def test_lie_class_matches_orbit_min_on_relabelled_random_graphs():
    rng = random.Random(12)
    for n, e in ((6, 7), (7, 8)):
        for _ in range(20):
            g = graph(n, [tuple(rng.sample(range(1, n + 1), 2)) for _ in range(e)])
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            relabelled = sigma_act(perm, g)
            assert relabelled.mapped(lie_class) == relabelled.mapped(_lie_orbit_min), g
            assert relabelled.mapped(lie_class) == lie_class(g), g


def test_lie_class_matches_orbit_min_on_symmetric_families():
    for n in range(1, 8):
        for name, g in _symmetric_families(n).items():
            assert lie_class(g) == _lie_orbit_min(g), (name, n)


def test_lie_class_symmetric_families_at_twelve_vertices():
    fam = _symmetric_families(12)
    # a swap of two isolated vertices is odd and reverses no edge
    assert lie_class(fam["empty"]).is_zero()
    # the rotation is an odd 12-cycle reversing two edges, (1, 12) and (11, 12)
    assert lie_class(fam["cycle"]).is_zero()
    # a swap of two vertices joined by one edge is +1 (sgn -1, one reversed
    # edge); it generates K12's automorphisms, and with exchanges of two edges
    # (even, reversing no edge) those of the six disjoint edges
    for name in ("complete", "disjoint edges"):
        assert lie_class(fam[name]) == LinComb.of(graphs.GraphClass(fam[name])), name
    # exchanging two triangles is three transpositions reversing no edge
    assert lie_class(fam["disjoint triangles"]).is_zero()
    # the 10-cycle's rotation is odd as well; the Petersen graph agrees
    # with a relabelled copy of itself
    assert lie_class(_symmetric_families(10)["cycle"]).is_zero()
    outer = [(k, k % 5 + 1) for k in range(1, 6)]
    spokes = [(k, k + 5) for k in range(1, 6)]
    inner = [(k + 5, (k + 1) % 5 + 6) for k in range(1, 6)]
    petersen = graph(10, outer + spokes + inner)
    perm = (3, 9, 1, 10, 6, 2, 8, 5, 7, 4)
    assert sigma_act(perm, petersen).mapped(lie_class) == lie_class(petersen)


def test_lie_class_orbit_consistency():
    rng = random.Random(4)
    for _ in range(60):
        n = rng.randint(1, 4)
        g = rng.choice(enumerate_graphs(n, 4))
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        acted = sigma_act(tuple(perm), g)
        assert acted.mapped(lie_class) == lie_class(g)


def test_lie_differential_square_and_commutation():
    for n in range(1, 5):
        for g in enumerate_graphs(n, 5):
            cls = lie_class(g)
            assert differential(LinComb.of(g)).mapped(lie_class) == \
                lie_differential(cls)
            assert lie_differential(lie_differential(cls)).is_zero()


def test_enumerate_worked_cases():
    assert enumerate_graphs(2, 3, min_valence=2) == [DOUBLE, TRIPLE]
    assert enumerate_graphs(1, 5) == [graph(1, [])]
    assert enumerate_graphs(1, 5, min_valence=1) == []
    # no connected graph on 40 vertices has at most 20 edges, so no walk runs
    assert enumerate_graphs(40, 20, connected_only=True) == []


def test_enumerate_against_brute_force():
    for n in range(1, 5):
        mine = enumerate_graphs(n, 3)
        assert mine == brute_force_graphs(n, 3)
        assert len(mine) == len(set(mine))


def test_enumerate_filters():
    for g in enumerate_graphs(4, 5, min_valence=2, connected_only=True):
        assert min(valences(g)) >= 2
        assert len(connected_components(g)) == 1


def test_records_round_trip():
    rec = _graph_to_record(G_EX)
    assert rec == {"n": 3, "edges": [[1, 2], [1, 2], [1, 3], [2, 3]]}
    assert _graph_from_record(rec) == G_EX
    x = LinComb.of(G_EX, "2/3") + LinComb.of(TRIPLE, -2)
    assert _lincomb_from_records(_lincomb_to_records(x)) == x


def test_lincomb_from_records_sums_repeated_graphs():
    rec = _graph_to_record(G_EX)
    recs = [{"coeff": "1/2", "graph": rec}, {"coeff": 3, "graph": _graph_to_record(TRIPLE)},
            {"coeff": "1/2", "graph": rec}, {"coeff": "-3", "graph": _graph_to_record(TRIPLE)}]
    assert _lincomb_from_records(recs) == LinComb.of(G_EX)
