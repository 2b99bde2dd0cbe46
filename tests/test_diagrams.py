import itertools
import math
import random

import pytest

from graphhomology.exactlinalg import LinComb
from graphhomology.diagrams import (
    chord_diagram,
    package,
    pair_monomial,
    phi,
    varphi_inverse,
)
from graphhomology.graphs import (
    differential,
    differential_graph,
    enumerate_graphs,
    graph,
    valences,
)
from graphhomology.cli import _diagram_from_record, _diagram_to_record
from graphhomology.symplectic import random_split_word, tstar
from oracles import (all_pairings, chord_differential, chord_differential_squared,
                     compositions, package_blocks, packaged)

D_EX = chord_diagram([(1, 4), (2, 7), (3, 5), (6, 8)])
G_EX = graph(3, [(1, 2), (1, 2), (1, 3), (2, 3)])


def double_factorial(k):
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def packaged_classes(m):
    """Every nonzero packaged class with m chords, deduplicated, as graphs."""
    seen = set()
    for shape in compositions(2 * m):
        for d in all_pairings(m):
            cls = package(d, shape)
            if cls.is_zero():
                continue
            [(g, c)] = list(cls.items())
            assert c == 1
            seen.add(g)
    return sorted(seen)


def relabelled(pairs, relabel):
    return tuple(sorted((min(relabel[a], relabel[b]), max(relabel[a], relabel[b]))
                        for a, b in pairs))


def _orbit_min(shape, pairs):
    """Brute force: the smallest pairing over all within-package permutations."""
    blocks = package_blocks(shape)
    best = None
    for perms in itertools.product(*(itertools.permutations(b) for b in blocks)):
        relabel = {src: dst for block, perm in zip(blocks, perms)
                   for src, dst in zip(block, perm)}
        cand = relabelled(pairs, relabel)
        if best is None or cand < best:
            best = cand
    return best


def assert_package_is_orbit_min(pairs, shape):
    [(g, coeff)] = package(chord_diagram(pairs), shape).items()
    assert coeff == 1
    assert packaged(g) == (tuple(shape), _orbit_min(shape, pairs)), (shape, pairs)


def test_pair_monomial_normalization():
    assert pair_monomial([(1, 4), (2, 7), (3, 5), (8, 6)]) == \
        LinComb.of(((1, 4), (2, 7), (3, 5), (6, 8)), -1)
    assert pair_monomial([(2, 2)]).is_zero()
    with pytest.raises(ValueError):
        pair_monomial([(1, 3)])


def test_phi_worked_example():
    mono = ((1, 4), (2, 7), (3, 5), (6, 8))
    assert phi(mono) == D_EX
    assert phi(((1, 2),)) == chord_diagram([(1, 2)])


def test_phi_bijection_counts():
    for m in range(1, 4):
        diagrams_m = all_pairings(m)
        assert len(diagrams_m) == double_factorial(2 * m - 1)
        assert len(set(diagrams_m)) == len(diagrams_m)
        assert all(phi(d) is d for d in diagrams_m)


def test_sigma_equivariance_with_phi():
    # normalising the relabelled written monomial gives the signed action on
    # its diagram, -1 per reversed pair, φ being the identity
    rng = random.Random(5)
    for d in all_pairings(2):
        for _ in range(10):
            perm = list(range(1, 5))
            rng.shuffle(perm)
            inv = {v: k for k, v in enumerate(perm, start=1)}
            written = [(inv[a], inv[b]) for a, b in d]
            lhs = pair_monomial(written).map_keys(phi)
            acted = tuple(sorted((min(p), max(p)) for p in written))
            assert lhs == LinComb.of(acted, (-1) ** sum(a > b for a, b in written))


def test_package_zero_and_worked():
    assert package(chord_diagram([(1, 2)]), (2,)).is_zero()
    cls = package(D_EX, (3, 3, 2))
    assert cls == LinComb.of(G_EX)
    assert packaged(G_EX) == ((3, 3, 2), ((1, 4), (2, 5), (3, 7), (6, 8)))
    with pytest.raises(ValueError, match=r"shape \(3, 3\) incompatible with 8 slots"):
        package(D_EX, (3, 3))
    with pytest.raises(ValueError, match=r"shape \(1, 5, 2\) incompatible with 8 slots"):
        package(D_EX, (1, 5, 2))


def test_package_refuses_non_integer_shape_parts():
    d = chord_diagram([(1, 3), (2, 4)])
    for shape in ((2.5, 2.5), (2.0, 2), ("2", "2")):
        with pytest.raises(ValueError, match="shape parts must be integers"):
            package(d, shape)


def test_package_orbit_independence():
    # acting within packages changes the class only by the pair-flip sign
    shape = (2, 2)
    blocks = [(1, 2), (3, 4)]
    for d in all_pairings(2):
        base = package(d, shape)
        for pa in itertools.permutations(blocks[0]):
            for pb in itertools.permutations(blocks[1]):
                perm = {1: pa[0], 2: pa[1], 3: pb[0], 4: pb[1]}
                acted = pair_monomial([(perm[a], perm[b]) for a, b in d])
                moved = acted.mapped(lambda dd: package(dd, shape))
                assert moved == base or (moved + base).is_zero() or \
                    (base.is_zero() and moved.is_zero())


def test_diagram_differential_worked_value():
    [(g, _)] = package(D_EX, (3, 3, 2)).items()
    # the two surviving contractions cancel, mirroring the graph side
    assert chord_differential(*packaged(g)).is_zero()
    assert differential(LinComb.of(g)).is_zero()


def test_diagram_differential_all_contractions_die():
    # every contraction of the nested diagram leaves an in-package chord
    assert chord_differential((2, 2), ((1, 3), (2, 4))).is_zero()


def test_diagram_differential_square_and_intertwining():
    for m in range(1, 4):
        for g in packaged_classes(m):
            assert chord_differential_squared(*packaged(g)).is_zero(), g
            assert chord_differential(*packaged(g)) == differential_graph(g), g


def test_varphi_worked_examples():
    # φ̄ is `package`: each package becomes a vertex and each chord an edge
    assert package(chord_diagram([(1, 4), (2, 5), (3, 7), (6, 8)]), (3, 3, 2)) == \
        LinComb.of(G_EX)
    assert package(chord_diagram([(1, 3), (2, 4)]), (2, 2)) == \
        LinComb.of(graph(2, [(1, 2), (1, 2)]))


def test_varphi_inverse_worked_examples():
    assert varphi_inverse(G_EX) == ((1, 4), (2, 5), (3, 7), (6, 8))
    assert varphi_inverse(graph(2, [(1, 2), (1, 2)])) == ((1, 3), (2, 4))
    with pytest.raises(ValueError, match="every vertex needs valence >= 2"):
        varphi_inverse(graph(2, [(1, 2)]))


def test_varphi_round_trips():
    for n in range(1, 5):
        for g in enumerate_graphs(n, 6, min_valence=2):
            shape, pairs = packaged(g)
            assert package(pairs, shape) == LinComb.of(g)
    for m in range(1, 4):
        for shape in compositions(2 * m):
            for d in all_pairings(m):
                cls = package(d, shape)
                for g, _ in cls.items():
                    assert packaged(g)[0] == shape
                    assert package(varphi_inverse(g), shape) == cls


def test_oriented_pairs_sign():
    assert pair_monomial([(2, 1), (3, 4)]) == \
        LinComb.of(chord_diagram([(1, 2), (3, 4)]), -1)
    assert pair_monomial([(1, 1)]).is_zero()


def test_diagram_records():
    rec = _diagram_to_record(G_EX)
    assert rec == {"shape": [3, 3, 2], "pairs": [[1, 4], [2, 5], [3, 7], [6, 8]]}
    assert _diagram_from_record(rec) == LinComb.of(G_EX)
    with pytest.raises(ValueError, match="every vertex needs valence >= 2"):
        _diagram_to_record(graph(2, [(1, 2)]))


def test_package_matches_orbit_min_on_all_small_classes():
    # every pairing under every shape with parts >= 2, m <= 4
    nonzero = 0
    for m in range(1, 5):
        for shape in compositions(2 * m):
            owner = {s: k for k, block in enumerate(package_blocks(shape))
                     for s in block}
            for d in all_pairings(m):
                if any(owner[a] == owner[b] for a, b in d):
                    assert package(d, shape).is_zero()
                    continue
                assert_package_is_orbit_min(d, shape)
                nonzero += 1
    assert nonzero == 280


def test_package_matches_orbit_min_on_scrambled_graph_diagrams():
    # two seeded within-package scrambles of each graph's slot assignment
    rng = random.Random(12)
    cases = 0
    for n in range(1, 6):
        for g in enumerate_graphs(n, 7, min_valence=2):
            shape = tuple(valences(g))
            if math.prod(math.factorial(k) for k in shape) > 2000:
                continue
            pairs = varphi_inverse(g)
            for _ in range(2):
                relabel = {}
                for block in package_blocks(shape):
                    perm = list(block)
                    rng.shuffle(perm)
                    relabel.update(zip(block, perm))
                scrambled = relabelled(pairs, relabel)
                assert_package_is_orbit_min(scrambled, shape)
                assert package(chord_diagram(scrambled), shape) == LinComb.of(g)
                cases += 1
    assert cases == 1150


def test_package_matches_orbit_min_on_word_monomials():
    # every nonzero pairing evaluation of criterion 03's 50 seeded words
    rng = random.Random(0)
    checked = 0
    for _ in range(50):
        w = random_split_word(rng)
        shape = w.degree_shape()
        for mono, _ in tstar(w).items():
            if package(mono, shape).is_zero():
                continue
            assert_package_is_orbit_min(mono, shape)
            checked += 1
    assert checked == 18
