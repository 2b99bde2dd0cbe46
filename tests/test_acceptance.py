"""Acceptance suite: pinned worked values and property sweeps, one criterion each.

Each test prints its PASS/FAIL line before asserting, so a full run reports
every criterion.  Run with ``pytest tests/test_acceptance.py -v -s``.

The worked values are those of the signed contraction rule, the only one of
the two candidate rules whose square vanishes (criterion 06):

- 01: d(G_EX) = 0 as a cancelling pair.  Contracting (1, 3) and (2, 3) both
  give the triple edge, with signs +1 and -1; the sign-free rule (-1)^j
  would give -2 times the triple edge, but its square is already nonzero on
  the three-vertex path.
- 02: the four-term expansion of dW_EX, each term's image under the word ->
  graph bridge, and the total image 0, which equals d(word_to_graphs(W_EX)).
- 04: the half shuffle of two equal components has coefficient 1 on
  (H1, H1), the value the compatibility law of criterion 05 forces.
- 07: the mixed quotient is acyclic on every mixed graph with n <= 5 and
  e <= 7: the exact chain contraction of each loop-order stripe, which has
  δ̄h + hδ̄ = Id - π with π a projection of rank b_k, has π = 0 there.  It
  fails at loop order 2, degree 5, where b_5 = 4; whether that is a fault
  of the complex or a fact about it is open (see ROADMAP).
- 11: the interchange law holds with graded shuffle signs on every split,
  and the unsigned form fails on some split, which is why the signs are
  needed.
"""

import random

from graphhomology.exactlinalg import (
    LinComb, chain_contraction, homology_dims, rank)
from graphhomology import bialgebra, diagrams, graphs, homotopy, symplectic
from graphhomology.symplectic import random_split_word
from oracles import (all_pairings, check_interchange_unsigned, chord_differential_squared,
                     compositions, contract, packaged)

G_EX = graphs.graph(3, [(1, 2), (1, 2), (1, 3), (2, 3)])
TRIPLE = graphs.graph(2, [(1, 2), (1, 2), (1, 2)])
H1 = graphs.graph(2, [(1, 2), (1, 2)])
H = graphs.disjoint_union(H1, H1)
W_EX = symplectic.word_from_strings(["p1 p2 p3", "q1 q2 p4", "q3 q4"])

RESULTS = []


def report(number, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    line = f"criterion {number:02d}: {verdict}{' - ' + detail if detail else ''}"
    RESULTS.append(line)
    print(line)
    return ok


def test_criterion_01_worked_graph_differential():
    # (1, 3) carries (-1)^3 times -1 for the edge (2, 3) that the merge
    # re-orients, (2, 3) carries (-1)^3, and each copy of the doubled (1, 2)
    # leaves a loop behind
    signs = {(1, 2): 1, (1, 3): 1, (2, 3): -1}
    targets_ok = (contract(G_EX, (1, 2)).is_zero()
                  and contract(G_EX, (1, 3)) == LinComb.of(TRIPLE)
                  and contract(G_EX, (2, 3)) == LinComb.of(TRIPLE))
    signed_sum = LinComb()
    for edge in G_EX.edges:
        signed_sum = signed_sum + contract(G_EX, edge).scale(signs[edge])
    actual = graphs.differential(LinComb.of(G_EX))
    ok = targets_ok and actual.is_zero() and actual == signed_sum
    report(1, ok, f"contractions of (1,3) and (2,3) land on the triple edge: "
                  f"{targets_ok}; computed {actual!r}")
    assert targets_ok
    assert actual.is_zero(), actual
    assert actual == signed_sum


def test_criterion_02_worked_word_differential():
    expected_words = (LinComb.of(symplectic.word_from_strings(["p2 p3 q2 p4", "q3 q4"]))
                      + LinComb.of(symplectic.word_from_strings(["p1 p3 q1 p4", "q3 q4"]))
                      + LinComb.of(symplectic.word_from_strings(["p1 p2 p3", "q1 q2 q3"]), -1)
                      + LinComb.of(symplectic.word_from_strings(["p1 p2 q4", "q1 q2 p4"]), -1))
    dw = symplectic.leibniz_differential(LinComb.of(W_EX))
    four_terms_ok = dw == expected_words
    # ω(p, q) = 1 = -ω(q, p): the two surviving terms pair with opposite signs
    term_images = {
        ("p2 p3 q2 p4", "q3 q4"): LinComb(),
        ("p1 p3 q1 p4", "q3 q4"): LinComb(),
        ("p1 p2 p3", "q1 q2 q3"): LinComb.of(TRIPLE),
        ("p1 p2 q4", "q1 q2 p4"): LinComb.of(TRIPLE, -1),
    }
    terms_ok = all(
        symplectic.word_to_graphs(symplectic.word_from_strings(list(w))) == img
        for w, img in term_images.items())
    image = symplectic.word_to_graphs(dw)
    bridge_ok = symplectic.word_to_graphs(W_EX) == LinComb.of(G_EX)
    both_sides_agree = image == graphs.differential(
        symplectic.word_to_graphs(W_EX))
    ok = (four_terms_ok and terms_ok and bridge_ok and image.is_zero()
          and both_sides_agree)
    report(2, ok, f"four-term expansion {'ok' if four_terms_ok else 'WRONG'}; "
                  f"per-term images {'ok' if terms_ok else 'WRONG'}; "
                  f"graph image computed {image!r} "
                  f"(matches the graph differential: {both_sides_agree})")
    assert four_terms_ok
    assert terms_ok
    assert bridge_ok
    assert image.is_zero(), image
    assert both_sides_agree


def test_criterion_03_commuting_square():
    bad = []
    count = 0
    for n in range(1, 5):
        for g in graphs.enumerate_graphs(n, 6, min_valence=2):
            count += 1
            w = symplectic.graph_to_word(g)
            lhs = symplectic.word_to_graphs(
                symplectic.leibniz_differential(LinComb.of(w)))
            if lhs != graphs.differential(LinComb.of(g)):
                bad.append(g)
    rng = random.Random(0)
    for _ in range(50):
        count += 1
        w = random_split_word(rng)
        lhs = symplectic.word_to_graphs(
            symplectic.leibniz_differential(LinComb.of(w)))
        rhs = graphs.differential(symplectic.word_to_graphs(w))
        if lhs != rhs:
            bad.append(w)
    ok = not bad
    report(3, ok, f"{count} cases, {len(bad)} disagreements")
    assert ok, bad[:3]


def test_criterion_04_worked_coproducts():
    pinned_h = LinComb.of((H, graphs.UNIT)) + LinComb.of((H1, H1))
    actual_h = bialgebra.cohalf_shuffle(H)
    h_ok = actual_h == pinned_h
    # compatibility with H = H1·H1: Δ_≺(H1) = H1⊗1 and Δ(H1) = H1⊗1 + 1⊗H1
    law_rhs = LinComb()
    for (a1, a2), ca in bialgebra.cohalf_shuffle(H1).items():
        for (b1, b2), cb in bialgebra.full_coproduct(H1).items():
            law_rhs = law_rhs + LinComb.of(
                (graphs.disjoint_union(a1, b1), graphs.disjoint_union(a2, b2)),
                ca * cb)
    law_ok = bialgebra.check_compatibility(H1, H1).is_zero() and law_rhs == pinned_h

    g1 = graphs.graph(3, [(1, 3), (1, 3), (1, 2), (2, 3)])
    g2 = H1
    g3 = graphs.graph(3, [(1, 2), (1, 3), (1, 3), (1, 3), (2, 3)])
    prod = graphs.assemble([g1, g2, g3])
    four_ok = bialgebra.cohalf_shuffle(prod) == (
        LinComb.of((prod, graphs.UNIT))
        + LinComb.of((g1, graphs.disjoint_union(g2, g3)))
        + LinComb.of((graphs.disjoint_union(g1, g2), g3))
        + LinComb.of((graphs.disjoint_union(g1, g3), g2)))

    ok = h_ok and four_ok and law_ok
    report(4, ok, f"four-term split {'ok' if four_ok else 'WRONG'}; "
                  f"repeated-component coefficient computed "
                  f"{dict(actual_h.items()).get((H1, H1), 0)} (pinned 1); "
                  f"compatibility law {'ok' if law_ok else 'WRONG'}")
    assert four_ok
    assert h_ok, actual_h
    assert law_ok, law_rhs


def _component_pool():
    pool = []
    for n in range(1, 4):
        pool.extend(graphs.enumerate_graphs(n, 2, connected_only=True))
    return pool


def test_criterion_05_bialgebra_laws():
    pool = _component_pool()
    coalgebra_bad = sum(
        0 if bialgebra.check_zinbiel_coalgebra(g).is_zero() else 1
        for g in graphs.products_of(pool, 4))
    two = [graphs.UNIT] + graphs.products_of(pool, 2)
    compat_bad = sum(
        0 if bialgebra.check_compatibility(a, b).is_zero() else 1
        for a in two for b in two)
    ok = coalgebra_bad == 0 and compat_bad == 0
    report(5, ok, f"coalgebra law on {len(graphs.products_of(pool, 4))} products, "
                  f"compatibility on {len(two) ** 2} pairs")
    assert ok


def test_criterion_06_squares_vanish():
    d2_bad = 0
    total = 0
    for n in range(1, 6):
        for g in graphs.enumerate_graphs(n, 7):
            total += 1
            if not graphs.differential(graphs.differential(LinComb.of(g))).is_zero():
                d2_bad += 1

    dd_bad = 0
    classes = 0
    for m in range(1, 5):
        for shape in compositions(2 * m):
            for d in all_pairings(m):
                cls = diagrams.package(d, shape)
                if cls.is_zero():
                    continue
                classes += 1
                [(g, _)] = cls.items()
                if not chord_differential_squared(*packaged(g)).is_zero():
                    dd_bad += 1

    rng = random.Random(0)
    word_bad = 0
    for _ in range(100):
        w = random_split_word(rng, min_factors=3, max_factors=4)
        if not symplectic.leibniz_differential(
                symplectic.leibniz_differential(LinComb.of(w))).is_zero():
            word_bad += 1

    ok = d2_bad == 0 and dd_bad == 0 and word_bad == 0
    report(6, ok, f"graphs {total}, diagram classes {classes}, 100 words; "
                  f"failures {d2_bad}/{dd_bad}/{word_bad}")
    assert ok


def test_criterion_07_homotopy_identity():
    # every mixed graph with n <= 5 and e <= 7, by stripe of loop order
    # e - n; each stripe is built one degree past the checked ones, so every
    # checked degree has complete neighbours.  The exact contraction gives
    # δ̄h + hδ̄ = Id - π, so the identity holds on a graph iff π kills it.
    checked = ok_count = fail_count = 0
    first_failures = []
    nonzero = {}
    for loop in range(1, 6):
        top = min(5, 7 - loop)
        cx = homotopy.stripe("mixed", loop, top + 1)
        contraction = chain_contraction(cx)
        # degree 1 is the bottom of the stripe and holds no mixed graph
        for k in range(2, top + 1):
            pi = contraction.projection(k)
            # π is a projection onto cycles that kills boundaries, of rank b_k
            assert pi.compose(pi) == pi, (loop, k)
            assert cx.d[k].compose(pi).is_zero(), (loop, k)
            assert pi.compose(cx.d[k + 1]).is_zero(), (loop, k)
            assert rank(pi) == contraction.homology_dim(k), (loop, k)
            failing = {c for (_, c), _ in pi.entries}
            checked += len(cx.basis[k])
            ok_count += len(cx.basis[k]) - len(failing)
            fail_count += len(failing)
            first_failures += [cx.basis[k][c] for c in sorted(failing)][:2]
            if failing:
                nonzero[(loop, k)] = contraction.homology_dim(k)
    ok = fail_count == 0
    report(7, ok, f"δ̄h + hδ̄ = Id holds on {ok_count}, fails on {fail_count} "
                  f"mixed graphs (first: {first_failures[:2]}); "
                  f"b_k at (loop, degree): {nonzero}")
    assert checked == 2724
    assert ok, (
        f"the mixed quotient is not acyclic: b_k at (loop, degree) {nonzero}")


def test_criterion_08_polygon_acyclicity():
    dims = homology_dims(homotopy.stripe("polygon", 0, 7))
    bad = {k: v for k, (v, reliable) in dims.items() if reliable and v != 0}
    ok = not bad
    reliable_degrees = [k for k, (_, r) in dims.items() if r]
    report(8, ok, f"reliable degrees {reliable_degrees} all zero" if ok
           else f"nonzero reliable homology {bad}")
    assert ok


def test_criterion_09_series_inverse():
    f = bialgebra.series_f(8)
    g = bialgebra.series_g(8)
    ident = bialgebra.identity_series(8)
    fg = bialgebra.mag_compose(f, g, 8)
    gf = bialgebra.mag_compose(g, f, 8)
    ok = fg == ident and gf == ident
    report(9, ok, "f∘g = g∘f = t through degree 8")
    assert ok


def test_criterion_10_primitive_projector():
    pool = _component_pool()
    fixed_bad = sum(
        0 if bialgebra.primitive_projector(LinComb.of(g)) == LinComb.of(g) else 1
        for g in pool)
    killed_bad = 0
    prods = graphs.products_of(pool, 4)
    for g in prods:
        if len(graphs.connected_components(g)) >= 2:
            if not bialgebra.primitive_projector(LinComb.of(g)).is_zero():
                killed_bad += 1
    rng = random.Random(0)
    idem_bad = 0
    for _ in range(100):
        x = LinComb()
        for _ in range(rng.randint(1, 3)):
            x = x + LinComb.of(rng.choice(prods), rng.randint(-2, 2))
        once = bialgebra.primitive_projector(x)
        if bialgebra.primitive_projector(once) != once:
            idem_bad += 1
    ok = fixed_bad == 0 and killed_bad == 0 and idem_bad == 0
    report(10, ok, f"failures: fixed {fixed_bad}, killed {killed_bad}, "
                   f"idempotent {idem_bad}")
    assert ok


def test_criterion_11_interchange_law():
    rng = random.Random(0)
    bad = 0
    total = 0
    first = None
    for _ in range(50):
        w = random_split_word(rng, min_factors=3, max_factors=5)
        n = len(w.factors)
        for p in range(0, n):
            total += 1
            if not check_interchange_unsigned(w, p, n - 1 - p).is_zero():
                bad += 1
                if first is None:
                    first = (w, p, n - 1 - p)
    signed_bad = 0
    rng = random.Random(0)
    for _ in range(50):
        w = random_split_word(rng, min_factors=3, max_factors=5)
        n = len(w.factors)
        for p in range(0, n):
            if not bialgebra.check_interchange(w, p, n - 1 - p).is_zero():
                signed_bad += 1
    ok = signed_bad == 0 and bad > 0
    report(11, ok, f"graded-sign form fails {signed_bad}/{total} splits "
                   f"(unsigned form fails {bad}/{total}, first at {first})")
    assert total == 200
    assert signed_bad == 0
    # the graded shuffle signs are needed: without them the law breaks
    assert bad > 0


def test_criterion_12_lie_commutative_diagram():
    bad = 0
    total = 0
    for n in range(1, 6):
        for g in graphs.enumerate_graphs(n, 7):
            total += 1
            lhs = graphs.differential(LinComb.of(g)).mapped(graphs.lie_class)
            rhs = graphs.lie_differential(graphs.lie_class(g))
            if lhs != rhs:
                bad += 1
    ok = bad == 0
    report(12, ok, f"{total} graphs, {bad} disagreements")
    assert ok


def teardown_module(module):
    print()
    print("acceptance summary:")
    for line in RESULTS:
        print(" ", line)
