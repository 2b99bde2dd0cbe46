import itertools
import tracemalloc

import pytest

from graphhomology.exactlinalg import (
    LinComb,
    SparseMatrix,
    chain_contraction,
    homology_dims,
)
from graphhomology.graphs import (
    Graph,
    differential,
    differential_graph,
    enumerate_graphs,
    graph,
    valences,
)
from graphhomology.homotopy import (
    Classification,
    classify,
    slice_from_bases,
    stripe,
)

G_EX = graph(3, [(1, 2), (1, 2), (1, 3), (2, 3)])
THETA = graph(2, [(1, 2), (1, 2), (1, 2)])
TRIANGLE = graph(3, [(1, 2), (1, 3), (2, 3)])


def labelled_polygons(n):
    """All distinct labelled cycles on {1..n}, one per cyclic order of
    2..n after 1: (n-1)!/2 of them for n >= 3."""
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


def test_classify_examples():
    assert classify(TRIANGLE) == Classification.POLYGON
    assert classify(G_EX) == Classification.MIXED
    assert classify(THETA) == Classification.CORE
    assert classify(graph(4, [(1, 2), (1, 2), (3, 4), (3, 4)])) == \
        Classification.DISCONNECTED


def test_classify_partitions_connected_graphs():
    for n in range(1, 5):
        for g in enumerate_graphs(n, 6, min_valence=2, connected_only=True):
            assert classify(g) in (Classification.POLYGON, Classification.CORE,
                                   Classification.MIXED)


def test_labelled_polygons_counts_and_cross_check():
    assert [len(labelled_polygons(n)) for n in range(2, 7)] == [1, 1, 3, 12, 60]
    for n in range(2, 7):
        filtered = [g for g in enumerate_graphs(n, n, 2, connected_only=True)
                    if classify(g) == Classification.POLYGON]
        assert labelled_polygons(n) == filtered


def test_polygon_acyclic_reliable_degrees():
    dims = homology_dims(stripe("polygon", 0, 6))
    for k, (dim, reliable) in dims.items():
        if reliable:
            assert dim == 0, (k, dim)


def test_core_stripe_values():
    assert THETA in stripe("core", 1, 2).basis[2]
    assert differential(LinComb.of(THETA)).is_zero()
    tet = graph(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
    assert tet in stripe("core", 2, 4).basis[4]
    d_tet = differential(LinComb.of(tet))
    assert not d_tet.is_zero()
    for term, _ in d_tet.items():
        assert min(valences(term)) >= 3 and term.n == 3
    # slice construction already certifies d∘d = 0


def test_mixed_quotient_stripe_acyclic_at_one_loop():
    # fixed loop excess keeps each degree's basis complete
    cx = stripe("mixed", 1, 5)
    dims = homology_dims(cx)
    for k, (dim, reliable) in dims.items():
        if reliable:
            assert dim == 0, (k, dim)
    # so the exact contraction is a homotopy there, π = 0: δ̄h + hδ̄ = Id in
    # degrees 2..4
    con = chain_contraction(cx)
    for k in range(2, 5):
        assert con.projection(k).is_zero(), k
        assert con.homology_dim(k) == 0, k


def _filtered_stripe_basis(kind, loop, n):
    wanted = {"polygon": Classification.POLYGON, "core": Classification.CORE,
              "mixed": Classification.MIXED}.get(kind)
    return [g for g in enumerate_graphs(n, n + loop, 2, connected_only=True)
            if len(g.edges) == n + loop and (wanted is None or classify(g) == wanted)]


@pytest.mark.parametrize("kind", ["polygon", "core", "mixed", "all"])
def test_stripe_bases_match_filtered_enumeration(kind):
    for loop in range(0, 4):
        cx = stripe(kind, loop, 5)
        top = 2 * loop + 1 if kind == "core" and loop <= 2 else 5
        assert cx.degrees == (1, top), (loop, cx.degrees)
        for n in range(1, top + 1):
            assert list(cx.basis[n]) == _filtered_stripe_basis(kind, loop, n), (loop, n)


@pytest.mark.parametrize("kind", ["polygon", "core", "mixed", "all"])
def test_stripe_reliable_dims_stay_as_max_n_grows(kind):
    for loop, sizes in ((0, range(3, 7)), (1, range(3, 7)), (2, range(3, 6))):
        earlier = {}
        for max_n in sizes:
            dims = homology_dims(stripe(kind, loop, max_n))
            for k, dim in earlier.items():
                assert dims[k] == (dim, True), (loop, max_n, k)
            earlier = {k: dim for k, (dim, reliable) in dims.items() if reliable}


def test_core_stripe_top_degree_reliable():
    # the theta graph at loop 1; the labelled core has H_4 = 5 at loop 2
    # and H_6 = 384 at loop 3
    for loop, top_dim in ((1, 1), (2, 5), (3, 384)):
        dims = homology_dims(stripe("core", loop, 2 * loop))
        assert dims[2 * loop] == (top_dim, True), loop
        assert dims == homology_dims(stripe("core", loop, 2 * loop + 3))


def test_core_stripe_at_four_loops_is_acyclic_through_six_vertices():
    # H_6 of this stripe needs degree 7, which is left out here
    cx = stripe("core", 4, 6)
    assert [len(cx.basis[n]) for n in range(1, 7)] == [0, 1, 18, 270, 2840, 20157]
    dims = homology_dims(cx)
    assert [dims[k] for k in range(2, 6)] == [(0, True)] * 4


def test_polygon_stripe_is_labelled_polygons():
    cx = stripe("polygon", 0, 6)
    assert all(cx.basis[n] == tuple(labelled_polygons(n)) for n in range(1, 7))
    assert not any(stripe("polygon", 1, 5).basis.values())


def test_stripe_rejects_bad_arguments():
    for args in (("orbit", 1, 4), ("core", -1, 4), ("mixed", 1, 0)):
        with pytest.raises(ValueError):
            stripe(*args)


def test_stripe_refuses_an_oversized_degree():
    # loop 4 has 484,698 min-valence-2 graphs at n = 6
    with pytest.raises(ValueError, match="more than 150000 graphs in degree 6"):
        stripe("all", 4, 7)


def _slice_oracle(bases, project):
    """Each differential as a dict of (row, col) entries, through from_entries."""
    d = {}
    for k in range(min(bases) + 1, max(bases) + 1):
        target = {g: i for i, g in enumerate(bases[k - 1])}
        entries = {}
        for col, g in enumerate(bases[k]):
            for term, coeff in differential_graph(g).items():
                if term in target:
                    entries[(target[term], col)] = coeff
                else:
                    assert project, term
        d[k] = SparseMatrix.from_entries(len(bases[k - 1]), len(bases[k]), entries)
    return d


@pytest.mark.parametrize("kind, loop, max_n", [("mixed", 2, 5), ("core", 2, 4)])
def test_slice_from_bases_matches_dict_oracle(kind, loop, max_n):
    bases = {k: list(b) for k, b in stripe(kind, loop, max_n).basis.items()}
    cx = slice_from_bases(bases, project=kind == "mixed")
    assert cx.d == _slice_oracle(bases, kind == "mixed")
    assert sum(len(m.entries) for m in cx.d.values()) > 0
    for m in cx.d.values():
        keys = [key for key, _ in m.entries]
        assert keys == sorted(keys) and len(set(keys)) == len(keys)
        assert all(type(val) is int and val for _, val in m.entries)


def test_slice_matrices_hold_few_bytes_per_nonzero():
    # compressed rows hold a column index and a value per nonzero (two
    # pointers, 16 B) and an offset per row: 28.4 B per nonzero here, where a
    # tuple of ((row, col), value) pairs held 82 B
    bases = {k: list(b) for k, b in stripe("mixed", 2, 5).basis.items()}
    tracemalloc.start()
    try:
        cx = slice_from_bases(bases, project=True)
        nnz = sum(len(m.entries) for m in cx.d.values())
        held = tracemalloc.get_traced_memory()[0]
        cx.d.clear()
        held -= tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert nnz == 4092
    assert held < 40 * nnz, held / nnz


def test_slice_from_bases_refuses_a_term_outside_the_basis():
    # contraction sends mixed graphs to core and polygon ones too
    bases = {k: list(b) for k, b in stripe("mixed", 2, 5).basis.items()}
    with pytest.raises(ValueError, match="differential leaves the basis"):
        slice_from_bases(bases)
