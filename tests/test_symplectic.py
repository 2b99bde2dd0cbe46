import copy
import pickle
import random
from fractions import Fraction

import pytest

from graphhomology import symplectic
from graphhomology.exactlinalg import LinComb
from graphhomology.diagrams import package
from graphhomology.graphs import differential, disjoint_union, enumerate_graphs, graph
from graphhomology.symplectic import (
    TensorWord,
    gen,
    graph_to_word,
    leibniz_differential,
    monomial,
    poisson_bracket,
    random_split_word,
    split_S,
    tstar,
    word_from_strings,
    word_to_graphs,
    word_to_strings,
)
from oracles import all_pairings, compositions, matrix_sum_product, poly, symplectic_form


def word(factors) -> TensorWord:
    """The word whose factors are the monomials of the given generator lists."""
    return TensorWord(tuple(monomial(f) for f in factors))


W_EX = word_from_strings(["p1 p2 p3", "q1 q2 p4", "q3 q4"])
G_EX = graph(3, [(1, 2), (1, 2), (1, 3), (2, 3)])


def _product(f: LinComb, g: LinComb) -> LinComb:
    return f.mapped(lambda a: g.map_keys(lambda b: monomial(a + b)))


def _partial(f: LinComb, g) -> LinComb:
    """∂f/∂g: each monomial loses one g and gains its multiplicity as a factor."""
    def lower(mono):
        if g not in mono:
            return LinComb()
        k = mono.index(g)
        return LinComb.of(mono[:k] + mono[k + 1:], mono.count(g))
    return f.mapped(lower)


def bracket_oracle(f: LinComb, g: LinComb) -> LinComb:
    """{f, g} = Σ_i ∂f/∂p_i·∂g/∂q_i − ∂g/∂p_i·∂f/∂q_i, by the ∂-formula."""
    indices = {gn >> 1 for x in (f, g) for mono, _ in x.items() for gn in mono}
    out = LinComb()
    for i in sorted(indices):
        p_i, q_i = gen("p", i), gen("q", i)
        out = (out + _product(_partial(f, p_i), _partial(g, q_i))
               - _product(_partial(g, p_i), _partial(f, q_i)))
    return out


def leibniz_oracle(x: LinComb) -> LinComb:
    """Σ_{i<j} (−1)^j over factor pairs, one term at a time, by the oracle bracket."""
    def per_word(w: TensorWord) -> LinComb:
        out = LinComb()
        fs = w.factors
        for j in range(2, len(fs) + 1):
            for i in range(1, j):
                br = bracket_oracle(LinComb.of(fs[i - 1]), LinComb.of(fs[j - 1]))
                for mono, coeff in br.items():
                    new = fs[:i - 1] + (mono,) + fs[i:j - 1] + fs[j:]
                    out = out + LinComb.of(TensorWord(new), coeff * (-1) ** j)
        return out
    return x.mapped(per_word)


def random_polynomial(rng, indices=(1, 2), degree=2, terms=2):
    out = LinComb()
    kinds = ("p", "q")
    for _ in range(terms):
        gens = [gen(rng.choice(kinds), rng.choice(indices)) for _ in range(degree)]
        out = out + LinComb.of(monomial(gens), rng.randint(-3, 3))
    return out


def test_poisson_bracket_worked():
    assert poisson_bracket(poly("p1 p1"), poly("q1 q1")) == poly("p1 q1", 4)


def test_poisson_bracket_antisymmetry():
    rng = random.Random(7)
    for _ in range(30):
        f = random_polynomial(rng)
        assert poisson_bracket(f, f).is_zero()
        g = random_polynomial(rng)
        assert (poisson_bracket(f, g) + poisson_bracket(g, f)).is_zero()


def test_poisson_bracket_jacobi():
    rng = random.Random(8)
    for _ in range(50):
        f = random_polynomial(rng, degree=rng.choice((2, 3)))
        g = random_polynomial(rng, degree=rng.choice((2, 3)))
        h = random_polynomial(rng, degree=rng.choice((2, 3)))
        total = (poisson_bracket(poisson_bracket(f, g), h)
                 + poisson_bracket(poisson_bracket(h, f), g)
                 + poisson_bracket(poisson_bracket(g, h), f))
        assert total.is_zero()


def random_power_polynomial(rng, terms=3):
    """Fraction coefficients on monomials in p1..p3, q1..q3, powers 0..3; a
    term is a constant one time in five."""
    out = LinComb()
    for _ in range(terms):
        gens = [] if rng.random() < 0.2 else [
            gen(kind, i) for kind in "pq" for i in (1, 2, 3)
            for _ in range(rng.choice((0, 0, 0, 1, 2, 3)))]
        coeff = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        out = out + LinComb.of(monomial(gens), coeff)
    return out


def test_poisson_bracket_matches_partial_derivative_oracle():
    rng = random.Random(13)
    const = LinComb.of(monomial([]), Fraction(3, 2))
    for _ in range(300):
        f, g = random_power_polynomial(rng), random_power_polynomial(rng)
        for x, y in ((f, g), (g, f), (f, const), (const, g)):
            got = poisson_bracket(x, y)
            assert got == bracket_oracle(x, y)
            assert all(c for _, c in got.items())
        assert poisson_bracket(f, const).is_zero()


def test_poisson_bracket_derivation():
    rng = random.Random(9)
    for _ in range(20):
        f, g, h = (random_polynomial(rng) for _ in range(3))
        assert poisson_bracket(f, _product(g, h)) == \
            _product(poisson_bracket(f, g), h) + _product(g, poisson_bracket(f, h))


def test_leibniz_differential_worked_four_terms():
    expected = (LinComb.of(word_from_strings(["p2 p3 q2 p4", "q3 q4"]))
                + LinComb.of(word_from_strings(["p1 p3 q1 p4", "q3 q4"]))
                + LinComb.of(word_from_strings(["p1 p2 p3", "q1 q2 q3"]), -1)
                + LinComb.of(word_from_strings(["p1 p2 q4", "q1 q2 p4"]), -1))
    assert leibniz_differential(LinComb.of(W_EX)) == expected


def test_leibniz_differential_matches_per_pair_oracle():
    words = [W_EX] + [random_split_word(random.Random(s)) for s in range(50)]
    for w in words:
        got = leibniz_differential(LinComb.of(w))
        assert got == leibniz_oracle(LinComb.of(w))
        assert all(c for _, c in got.items())


def test_leibniz_differential_cancelling_and_collapsing_terms():
    # {p1 p1, q1} = 2 p1 at pairs (1, 2) and (1, 3), with opposite signs
    w = word_from_strings(["p1 p1", "q1", "q1"])
    assert leibniz_oracle(LinComb.of(w)).is_zero()
    assert leibniz_differential(LinComb.of(w)) == LinComb()
    # pairs (1, 3) and (2, 3) give ±(p1 | q1); pair (1, 2) leaves ( | p1 q1)
    w = word_from_strings(["p1", "q1", "p1 q1"])
    got = leibniz_differential(LinComb.of(w))
    assert got == leibniz_oracle(LinComb.of(w))
    assert repr(got) == "LinComb(1*TensorWord( | p1 q1))"


def test_leibniz_differential_single_factor():
    assert leibniz_differential(LinComb.of(word_from_strings(["p1 q1"]))).is_zero()


def test_leibniz_differential_squares_to_zero():
    rng = random.Random(10)
    for _ in range(100):
        w = random_split_word(rng, max_factors=4)
        assert leibniz_differential(leibniz_differential(LinComb.of(w))).is_zero()


def test_symplectic_form_values():
    assert symplectic_form(gen("p", 1), gen("q", 1)) == Fraction(1)
    assert symplectic_form(gen("p", 1), gen("p", 2)) == Fraction(0)
    assert symplectic_form(gen("q", 3), gen("p", 3)) == Fraction(-1)


def test_gen_refuses_non_integer_index():
    for index in (2.5, 2.0, True, False, "2", None):
        with pytest.raises(ValueError):
            gen("p", index)
    for kind, index in (("x", 1), ("p", 0), ("q", -1)):
        with pytest.raises(ValueError):
            gen(kind, index)


def test_generator_order_is_index_then_p_before_q():
    w = word_from_strings(["q2 p1 q1 p2"])
    assert repr(w) == "TensorWord(p1 q1 p2 q2)"
    assert word_to_strings(w) == ["p1 q1 p2 q2"]
    assert monomial([gen("q", 2), gen("p", 1), gen("q", 1), gen("p", 2)]) == \
        (gen("p", 1), gen("q", 1), gen("p", 2), gen("q", 2))


def test_tstar_basic_values():
    assert tstar(word_from_strings(["p1", "q1"])) == \
        LinComb.of(((1, 2),))
    assert tstar(word_from_strings(["p1", "p1"])).is_zero()
    assert tstar(word_from_strings(["p1 q1", "p2"])).is_zero()  # odd degree
    assert tstar(W_EX) == LinComb.of(((1, 4), (2, 5), (3, 7), (6, 8)))


def test_tstar_of_differential_collapses():
    # the two factor-merging terms whose conjugate couple reverses carry
    # opposite evaluation signs and cancel; the survivors share one monomial
    dw = leibniz_differential(LinComb.of(W_EX))
    raw = dw.mapped(tstar)
    assert raw == LinComb.of(((1, 2), (3, 5), (4, 6)), 2)
    assert word_to_graphs(dw).is_zero()
    assert differential(LinComb.of(G_EX)).is_zero()


def test_tstar_section_property():
    for m in range(1, 4):
        for d in all_pairings(m):
            for shape in compositions(2 * m):
                w = split_S(d, shape)
                t = tstar(w)
                packaged = t.mapped(lambda mm: package(mm, shape))
                expected = package(d, shape)
                assert packaged == expected
                if not expected.is_zero():
                    # coefficient of the (package-sorted) input is +1
                    [(_, coeff)] = list(packaged.items())
                    assert coeff == 1


def test_split_S_worked_examples():
    w = split_S([(1, 4), (2, 7), (3, 5), (8, 6)], (3, 3, 2))
    assert word_to_strings(w) == ["p1 p2 p3", "q1 q3 q4", "q2 p4"]
    assert word_to_strings(split_S([(1, 2)], (2,))) == ["p1 q1"]
    with pytest.raises(ValueError, match=r"shape \(3,\) incompatible with 2 slots"):
        split_S([(1, 2)], (3,))


def test_split_S_refuses_non_integer_shape_parts():
    for shape in ((2.9, 2.2), (2.0, 2), ("2", "2")):
        with pytest.raises(ValueError, match="shape parts must be integers"):
            split_S([(1, 2), (3, 4)], shape)
    with pytest.raises(ValueError, match="shape parts must be integers"):
        split_S([(1, 2)], (True, True))


def test_word_to_graphs_worked():
    assert word_to_graphs(W_EX) == LinComb.of(G_EX)


def _tstar_oracle(w: TensorWord) -> LinComb:
    """Every perfect matching of the flat word's slots, by recursion on the
    first unpaired slot, weighted by `symplectic_form` on each pair in
    position order; a pair that is not a conjugate couple has weight 0."""
    letters = [g for f in w.factors for g in f]
    terms = []

    def rec(unpaired, pairs, coeff):
        if not unpaired:
            terms.append(LinComb.of(tuple(pairs), coeff))
            return
        a = unpaired[0]
        for k in range(1, len(unpaired)):
            b = unpaired[k]
            form = symplectic_form(letters[a - 1], letters[b - 1])
            if form:
                rec(unpaired[1:k] + unpaired[k + 1:], pairs + [(a, b)], coeff * form)

    rec(tuple(range(1, len(letters) + 1)), [], 1)
    return sum(terms, LinComb())


def _words_with_powers(rng, count):
    """Words in p1..q3 with each generator's power up to 3, often with unequal
    p and q counts (and so odd degree at times), shuffled and cut into one to
    four factors, so that couples also fall inside one factor."""
    for _ in range(count):
        letters = []
        for i in (1, 2, 3):
            k = rng.randint(0, 3)
            letters += [gen("p", i)] * k
            letters += [gen("q", i)] * (k if rng.random() < 0.6 else rng.randint(0, 3))
        rng.shuffle(letters)
        inner = range(1, len(letters))
        cuts = sorted(rng.sample(inner, min(rng.randint(0, 3), len(inner))))
        yield word([letters[a:b] for a, b in zip([0] + cuts, cuts + [len(letters)])])


def test_tstar_matches_oracle():
    rng = random.Random(19)
    words = [W_EX] + list(_words_with_powers(rng, 400))
    nonzero = odd = inside = 0
    for w in words:
        got = tstar(w)
        assert got == _tstar_oracle(w), w
        assert all(c for _, c in got.items())
        nonzero += not got.is_zero()
        odd += sum(w.degree_shape()) % 2
        inside += any(g ^ 1 in f for f in w.factors for g in f)
    assert nonzero >= 100 and odd >= 50 and inside >= 100


def _word_to_graphs_oracle(w: TensorWord) -> LinComb:
    """The bridge as a composite: every matching by `_tstar_oracle`, then `package`."""
    shape = w.degree_shape()
    if any(k < 2 for k in shape):
        raise ValueError(f"factor degrees {shape} must all be >= 2")
    return _tstar_oracle(w).mapped(lambda d: package(d, shape))


def _words_with_repeated_generators(rng, count):
    """Split words whose indices are merged onto p1..q3, so that couples
    repeat, and as many words of random generators, mostly unbalanced."""
    for _ in range(count):
        w = random_split_word(rng, max_factors=4)
        merge = {i: rng.randint(1, 3) for i in range(1, 10)}
        yield word([[2 * merge[g >> 1] + (g & 1) for g in f] for f in w.factors])
        yield word([[gen(rng.choice("pq"), rng.randint(1, 3))
                     for _ in range(rng.randint(2, 4))]
                    for _ in range(rng.randint(1, 4))])


def test_word_to_graphs_matches_tstar_then_package():
    rng = random.Random(21)
    words = [W_EX] + [random_split_word(rng) for _ in range(50)]
    words += [t for w in words[:20] for t, _ in leibniz_differential(LinComb.of(w)).items()]
    words += list(_words_with_repeated_generators(rng, 400))
    nonzero = large = 0
    for w in words:
        got = word_to_graphs(w)
        assert got == _word_to_graphs_oracle(w), w
        assert all(c for _, c in got.items())
        nonzero += not got.is_zero()
        large += any(abs(c) > 1 for _, c in got.items())
    assert nonzero >= 300 and large >= 100


def test_word_to_graphs_edge_cases():
    assert word_to_graphs(TensorWord(())) == LinComb.of(graph(0, []))
    assert word_to_graphs(word_from_strings(["p1 p2", "q1 p3"])).is_zero()
    assert word_to_graphs(word_from_strings(["p1 q1", "p2 q2"])).is_zero()
    triple = graph(2, [(1, 2)] * 3)
    # index 1 has two bijections; index 2's couple is reversed
    assert word_to_graphs(word_from_strings(["p1 q2 p1", "q1 p2 q1"])) == \
        LinComb.of(triple, -2)
    # index 1's couples are reversed twice in both bijections
    assert word_to_graphs(word_from_strings(["q1 q1 p2", "p1 p1 q2"])) == \
        LinComb.of(triple, 2)
    # of index 1's two bijections one joins each factor to itself, and the
    # other reverses one couple
    assert word_to_graphs(word_from_strings(["p1 q1 p2", "p1 q1 q2"])) == \
        LinComb.of(triple, -1)


def test_tensor_word_is_an_immutable_value():
    for w in (W_EX, TensorWord(())):
        for back in (pickle.loads(pickle.dumps(w)), copy.deepcopy(w), copy.copy(w)):
            assert type(back) is TensorWord and back == w and hash(back) == hash(w)
            assert repr(back) == repr(w)
    assert hash(W_EX) == hash((W_EX.factors,))
    with pytest.raises(AttributeError):
        W_EX.factors = ()
    with pytest.raises(AttributeError):
        del W_EX.factors
    rng = random.Random(23)
    words = [TensorWord(()), W_EX] + [random_split_word(rng, max_factors=3) for _ in range(30)]
    # distinct objects with fresh factor tuples, compared by value
    copies = [TensorWord(tuple(tuple(f) for f in w.factors)) for w in words]
    for a in words:
        for b in copies:
            same = a.factors == b.factors
            assert (a == b) is same and (a != b) is not same
            assert (a < b) is (a.factors < b.factors)
            if same:
                assert hash(a) == hash(b)
    shuffled = copies[::-1]
    rng.shuffle(shuffled)
    assert sorted(shuffled) == sorted(words, key=lambda w: w.factors)
    for other in (W_EX.factors, (W_EX.factors,), G_EX):
        assert W_EX != other and not (W_EX == other)
        with pytest.raises(TypeError):
            W_EX < other
        with pytest.raises(TypeError):
            other < W_EX


def test_word_to_graphs_rejects_low_degree_factor():
    # also where unequal p/q counts would give zero
    for texts in (["p1", "q1"], ["p1", "p2 q3"], ["p1 q1", "q2"]):
        with pytest.raises(ValueError):
            word_to_graphs(word_from_strings(texts))


def test_word_with_too_many_matchings_is_refused_before_listing(monkeypatch):
    # p1^10 | q1^10 has 10! matchings, more than WORD_MAX_MATCHINGS = 9!
    def enumerate_matchings(*args, **kwargs):
        raise AssertionError("a matching was listed")

    monkeypatch.setattr(symplectic, "_bijections", enumerate_matchings)
    w = word_from_strings(["p1^10", "q1^10"])
    for f in (word_to_graphs, tstar):
        with pytest.raises(ValueError, match="3628800 matchings"):
            f(w)


def test_word_with_repeated_index_below_the_bound():
    w = word_from_strings(["p1^3", "q1^3"])
    assert word_to_graphs(w) == LinComb.of(graph(2, [(1, 2)] * 3), 6)
    assert len(tstar(w)) == 6


def test_commuting_square_exhaustive_small():
    for n in range(1, 4):
        for g in enumerate_graphs(n, 5, min_valence=2):
            w = graph_to_word(g)
            assert word_to_graphs(w) == LinComb.of(g)
            lhs = word_to_graphs(leibniz_differential(LinComb.of(w)))
            rhs = differential(LinComb.of(g))
            assert lhs == rhs, g


def test_commuting_square_random_words():
    rng = random.Random(11)
    for _ in range(25):
        w = random_split_word(rng)
        lhs = word_to_graphs(leibniz_differential(LinComb.of(w)))
        rhs = differential(word_to_graphs(w))
        assert lhs == rhs


def test_matrix_sum_product_worked():
    a = word_from_strings(["p1 p2 p3", "q2 p4", "q1 q3 q4"])
    b = word_from_strings(["p1 p2", "q1 q2", "p3 p4", "q3 q4"])
    prod = matrix_sum_product(a, b)
    assert word_to_strings(prod) == [
        "p2 p4 p6", "q4 p8", "q2 q6 q8", "p1 p3", "q1 q3", "p5 p7", "q5 q7"]


def test_matrix_sum_product_unit():
    b = word_from_strings(["p1 q1"])
    assert matrix_sum_product(TensorWord(()), b) == word_from_strings(["p1 q1"])
    a = word_from_strings(["p2 q2"])
    assert matrix_sum_product(a, TensorWord(())) == word_from_strings(["p4 q4"])


def test_matrix_sum_product_is_multiplicative():
    rng = random.Random(12)
    for _ in range(30):
        wa = random_split_word(rng, max_factors=3)
        wb = random_split_word(rng, max_factors=3)
        la, lb = word_to_graphs(wa), word_to_graphs(wb)
        lhs = word_to_graphs(matrix_sum_product(wa, wb))
        if la.is_zero() or lb.is_zero():
            assert lhs.is_zero()
            continue
        [(ga, ca)] = list(la.items())
        [(gb, cb)] = list(lb.items())
        assert lhs == LinComb.of(disjoint_union(ga, gb), ca * cb)


def test_graph_to_word_round_trip():
    for n in range(1, 5):
        for g in enumerate_graphs(n, 5, min_valence=2):
            assert word_to_graphs(graph_to_word(g)) == LinComb.of(g)
