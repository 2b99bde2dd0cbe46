import itertools
import random

import pytest

from graphhomology.exactlinalg import LinComb
from graphhomology.bialgebra import (
    LEAF,
    SERIES_MAX_DEGREE,
    check_compatibility,
    check_interchange,
    check_zinbiel_coalgebra,
    cohalf_shuffle,
    full_coproduct,
    identity_series,
    left_comb,
    mag_compose,
    primitive_projector,
    reduced_cohalf_shuffle,
    right_comb,
    series_f,
    series_g,
    tree_degree,
    word_cohalf_pq,
)
from graphhomology.graphs import (
    UNIT,
    assemble,
    disjoint_union,
    enumerate_graphs,
    graph,
    products_of,
)
from graphhomology.symplectic import random_split_word, word_from_strings
from oracles import check_interchange_unsigned

H1 = graph(2, [(1, 2), (1, 2)])
H = disjoint_union(H1, H1)
W_EX = word_from_strings(["p1 p2 p3", "q1 q2 p4", "q3 q4"])


def component_pool():
    pool = []
    for n in range(1, 4):
        pool.extend(enumerate_graphs(n, 3, connected_only=True))
    return pool


def test_cohalf_connected():
    g = graph(3, [(1, 2), (1, 3), (2, 3)])
    assert cohalf_shuffle(g) == LinComb.of((g, UNIT))


def test_cohalf_two_equal_components():
    # one split keeps both components left, one passes the second right
    assert cohalf_shuffle(H) == LinComb.of((H, UNIT)) + LinComb.of((H1, H1))


def test_cohalf_three_distinct_components():
    g1 = graph(3, [(1, 3), (1, 3), (1, 2), (2, 3)])
    g2 = H1
    g3 = graph(3, [(1, 2), (1, 3), (1, 3), (1, 3), (2, 3)])
    prod = assemble([g1, g2, g3])
    expected = (LinComb.of((prod, UNIT))
                + LinComb.of((g1, disjoint_union(g2, g3)))
                + LinComb.of((disjoint_union(g1, g2), g3))
                + LinComb.of((disjoint_union(g1, g3), g2)))
    assert cohalf_shuffle(prod) == expected


def test_cohalf_unit_rejected():
    with pytest.raises(ValueError, match="the unit graph has no half-shuffle coproduct"):
        cohalf_shuffle(UNIT)


def test_zinbiel_coalgebra_exhaustive():
    pool = component_pool()
    for g in products_of(pool, 3):
        defect = check_zinbiel_coalgebra(g)
        assert defect.is_zero(), (g, defect)


def test_zinbiel_coalgebra_negative_control():
    # dropping one shuffle term breaks the law on a three-component product
    g = assemble([H1, H1, graph(1, [])])
    red = reduced_cohalf_shuffle(g)
    first, coeff = min(red.items(), key=lambda kv: kv[0])
    corrupted = red - LinComb.of(first, coeff)

    def left_expand(pair):
        a, b = pair
        return reduced_cohalf_shuffle(a).map_keys(lambda lr: (lr[0], lr[1], b))

    lhs = corrupted.mapped(left_expand)
    from graphhomology.bialgebra import tau
    rhs = (corrupted.mapped(lambda p: (reduced_cohalf_shuffle(p[1])
                                       .map_keys(lambda lr: (p[0], lr[0], lr[1]))))
           + corrupted.mapped(lambda p: (tau(reduced_cohalf_shuffle(p[1]))
                                         .map_keys(lambda lr: (p[0], lr[0], lr[1])))))
    assert lhs != rhs


def test_compatibility_unit_cases():
    assert check_compatibility(UNIT, H1).is_zero()
    assert check_compatibility(H1, UNIT).is_zero()


def test_compatibility_exhaustive_pairs():
    pool = component_pool()
    two = [UNIT] + products_of(pool, 2)
    sample = two[::3]
    for a in sample:
        for b in sample:
            defect = check_compatibility(a, b)
            assert defect.is_zero(), (a, b, defect)


def test_projector_fixes_connected_kills_products():
    g = graph(3, [(1, 2), (1, 3), (2, 3)])
    assert primitive_projector(LinComb.of(g)) == LinComb.of(g)
    assert primitive_projector(LinComb.of(disjoint_union(g, H1))).is_zero()
    assert primitive_projector(LinComb.of(H)).is_zero()


def test_projector_idempotent_random():
    rng = random.Random(13)
    pool = component_pool()
    prods = products_of(pool, 4)
    for _ in range(100):
        x = LinComb()
        for _ in range(rng.randint(1, 3)):
            x = x + LinComb.of(rng.choice(prods), rng.randint(-2, 2))
        once = primitive_projector(x)
        assert primitive_projector(once) == once


def test_projector_kernel_and_image():
    from graphhomology.graphs import connected_components

    pool = component_pool()
    for g in products_of(pool, 3):
        image = primitive_projector(LinComb.of(g))
        if len(connected_components(g)) == 1:
            assert image == LinComb.of(g)
        else:
            assert image.is_zero()


def test_series_terms():
    # one comb per degree and no other shapes
    assert series_f(3) == (LinComb.of(LEAF) + LinComb.of((LEAF, LEAF))
                           + LinComb.of((LEAF, (LEAF, LEAF))))
    assert series_g(3) == (LinComb.of(LEAF) - LinComb.of((LEAF, LEAF))
                           + LinComb.of(((LEAF, LEAF), LEAF)))
    assert tree_degree(left_comb(5)) == 5 == tree_degree(right_comb(5))


def test_series_compose_inverse():
    for bound in (4, 8):
        f, g = series_f(bound), series_g(bound)
        ident = identity_series(bound)
        assert mag_compose(f, g, bound) == ident
        assert mag_compose(g, f, bound) == ident


def test_mag_compose_identity_neutral():
    psi = series_g(5)
    assert mag_compose(identity_series(5), psi, 5) == psi


def test_mag_compose_refuses_a_degree_past_its_bound():
    f, g = series_f(SERIES_MAX_DEGREE + 1), series_g(SERIES_MAX_DEGREE + 1)
    with pytest.raises(ValueError, match="at most 16 is supported"):
        mag_compose(f, g, SERIES_MAX_DEGREE + 1)


def test_word_cohalf_counts():
    # all splits of the non-head factors, head pinned left
    for p in range(1, 4):
        q = 3 - p
        terms = word_cohalf_pq(W_EX, p, q)
        expected = len(list(itertools.combinations(range(2), p - 1)))
        assert len(terms) == expected


def test_interchange_unsigned_fails_on_worked_word():
    assert not check_interchange_unsigned(W_EX, 1, 1).is_zero()


def test_interchange_signed_holds():
    rng = random.Random(15)
    for _ in range(25):
        w = random_split_word(rng)
        n_factors = len(w.factors)
        for p in range(0, n_factors):
            defect = check_interchange(w, p, n_factors - 1 - p)
            assert defect.is_zero(), (w, p, defect)


def test_interchange_p_zero_trivial():
    assert check_interchange_unsigned(W_EX, 0, 2).is_zero()
    assert check_interchange(W_EX, 0, 2).is_zero()


def test_interchange_refuses_wrong_length():
    with pytest.raises(ValueError, match="factors, need 4"):
        check_interchange(W_EX, 1, 2)


def test_full_coproduct_unit():
    assert full_coproduct(UNIT) == LinComb.of((UNIT, UNIT))
    assert full_coproduct(H1) == \
        LinComb.of((H1, UNIT)) + LinComb.of((UNIT, H1))
