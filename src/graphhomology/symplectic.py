"""Polynomial algebra in p_i, q_i, the Poisson bracket, and the word bridges.

A generator is a plain int: p_i is 2i and q_i is 2i + 1, so int order is
the order by index with p_i before q_i, and g ^ 1 is g's conjugate.  Tensor
words are ordered tuples of commutative monomials; a monomial is the sorted
tuple of its generators with multiplicity, and a polynomial is a
`LinComb` of monomials with int or Fraction coefficients.  The Poisson
bracket of two monomials is taken in closed form: {a, b} sums, over the
distinct p_i of a, c_a(p_i)·c_b(q_i) times the product of a less one p_i
and b less one q_i, and subtracts the same with a and b swapped, where
c_x(g) is the multiplicity of g in x.  `_bracket_monomials` yields these
terms uncollected, and `poisson_bracket` and `leibniz_differential`, its
linear extensions, add them with `LinComb.sum`.

The pairing evaluation ``tstar`` flattens a word (factor by factor, each
factor in canonical generator order) and sums over all perfect matchings
whose pairs are conjugate couples (p_k with q_k), each weighted by the
symplectic form evaluated in position order.  A couple whose q precedes its
p therefore contributes -1; these re-orientation signs are exactly the ones
the graph differential carries, which makes the word-to-graph square
commute.  The keys of ``tstar`` are standard pair monomials, which are
chord diagrams: tuples of sorted (low, high) slot pairs.

`word_to_graphs` is ``tstar`` followed by `diagrams.package` by the word's
factor degrees, and a packaged class is held as its graph, so the bridge
lands in the graph complex directly.  Both list their matchings with the
one enumerator `_matchings`, which pairs the ends of each p_i with those
of its q_i as written (p end, q end) pairs, and both take a matching's sign
and sorted pairs from `graphs._signed_pairs`: ``tstar`` with the ends as
flat slots, `word_to_graphs` with the ends as factors.  Across factors,
position order is factor order, so the same flips give both signs, and a
couple inside one factor is a loop, which kills the matching; so
`word_to_graphs` is `package` ∘ ``tstar`` by construction.  An index
occurring k times has k! bijections between its p ends and its q ends.
`graph_to_word` is a section of `word_to_graphs`: `split_S` of the graph's
canonical pairing, cut by its valences.  A `TensorWord`, like a `Graph`, is
an immutable value that hashes once.
"""

from __future__ import annotations

import itertools
import math
import re
from functools import total_ordering
from typing import Iterator

from .exactlinalg import LinComb
from .diagrams import _shape_parts, varphi_inverse
from .graphs import Graph, _signed_pairs, valences

__all__ = [
    "Monomial",
    "TensorWord",
    "gen",
    "monomial",
    "word_from_strings",
    "word_to_strings",
    "poisson_bracket",
    "leibniz_differential",
    "tstar",
    "split_S",
    "random_split_word",
    "word_to_graphs",
    "graph_to_word",
    "WORD_MAX_MATCHINGS",
]


def gen(kind: str, index: int) -> int:
    """The generator p_index (2·index) or q_index (2·index + 1)."""
    if kind not in ("p", "q") or type(index) is not int or index < 1:
        raise ValueError(f"bad generator {kind}{index}")
    return 2 * index + "pq".index(kind)


def _gen_str(g: int) -> str:
    return f"{'pq'[g & 1]}{g >> 1}"


# A monomial is the sorted tuple of its generators (with multiplicity).
Monomial = tuple


def monomial(gens) -> Monomial:
    return tuple(sorted(gens))


_TOKEN = re.compile(r"([pq])(\d+)(?:\^(\d+))?$")


def _parse_monomial(text: str) -> Monomial:
    gens = []
    for tok in text.split():
        m = _TOKEN.match(tok)
        if not m:
            raise ValueError(f"bad generator token {tok!r}")
        kind, idx, exp = m.group(1), int(m.group(2)), int(m.group(3) or 1)
        # refused before its generators are listed: matched, such a power has
        # more matchings than that, and the list alone can exhaust memory
        if exp > WORD_MAX_MATCHINGS:
            raise ValueError(f"the power in {tok!r} is above {WORD_MAX_MATCHINGS}")
        gens.extend([gen(kind, idx)] * exp)
    return monomial(gens)


def _monomial_str(mono: Monomial) -> str:
    return " ".join(map(_gen_str, mono))


def _bracket_monomials(a: Monomial, b: Monomial) -> Iterator[tuple[Monomial, int]]:
    """The terms (monomial, nonzero int) of {a, b} in closed form, uncollected:
    a monomial may come twice, and its coefficients may cancel."""
    for sign, f, g in ((1, a, b), (-1, b, a)):
        for p in dict.fromkeys(f):
            if not p & 1 and p + 1 in g:
                k, l = f.index(p), g.index(p + 1)
                yield (monomial(f[:k] + f[k + 1:] + g[:l] + g[l + 1:]),
                       sign * f.count(p) * g.count(p + 1))


def poisson_bracket(f: LinComb, g: LinComb) -> LinComb:
    """{f, g} = sum_i df/dp_i dg/dq_i - dg/dp_i df/dq_i, exact.

    The bilinear extension of the closed form on monomials: {a, b} is the
    sum over distinct p_i of a of c_a(p_i)·c_b(q_i)·(a/p_i)(b/q_i), minus
    the same with a and b swapped, where c_x(g) is the multiplicity of g in x.
    """
    return LinComb.sum((mono, c * x * y) for a, x in f.items() for b, y in g.items()
                       for mono, c in _bracket_monomials(a, b))


@total_ordering
class TensorWord:
    """Ordered tensor of monomials; the empty word is the unit.

    An immutable value ordered and compared by its factors, equal only to
    another TensorWord.  Its hash, hash((factors,)), is computed once, when
    it is built, because words are the keys of the Leibniz differential's
    combinations.  Pickling and copying rebuild it through __reduce__.
    """

    __slots__ = ("factors", "_hash")

    def __init__(self, factors: tuple[Monomial, ...]) -> None:
        # the slot setters bypass __setattr__, which refuses every assignment
        _set_factors(self, factors)
        _set_hash(self, hash((factors,)))

    def __setattr__(self, name, value):
        raise AttributeError(f"TensorWord is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"TensorWord is immutable; cannot delete {name!r}")

    def __reduce__(self):
        return TensorWord, (self.factors,)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other):
        if other.__class__ is not TensorWord:
            return NotImplemented
        return self.factors == other.factors

    def __lt__(self, other):
        if other.__class__ is not TensorWord:
            return NotImplemented
        return self.factors < other.factors

    def degree_shape(self) -> tuple[int, ...]:
        return tuple(len(f) for f in self.factors)

    def __repr__(self) -> str:
        if not self.factors:
            return "TensorWord(1)"
        return "TensorWord(" + " | ".join(_monomial_str(f) for f in self.factors) + ")"


_set_factors, _set_hash = TensorWord.factors.__set__, TensorWord._hash.__set__


def word_from_strings(texts) -> TensorWord:
    return TensorWord(tuple(_parse_monomial(t) for t in texts))


def word_to_strings(w: TensorWord) -> list[str]:
    return [_monomial_str(f) for f in w.factors]


def leibniz_differential(x: LinComb) -> LinComb:
    """d(g_1⊗...⊗g_n) = sum_{i<j} (-1)^j g_1⊗...⊗{g_i,g_j}@i...⊗ĝ_j⊗...⊗g_n.

    Each bracket {g_i, g_j} of two monomials is taken in closed form (see
    `poisson_bracket`), and the terms of a word are summed by one
    `LinComb.sum`.  A bracket vanishes unless g_j holds the conjugate of a
    generator of g_i; `_bracket_monomials` then yields no term.
    """
    def terms(w: TensorWord) -> Iterator[tuple[TensorWord, int]]:
        fs = w.factors
        for j in range(2, len(fs) + 1):
            sign = (-1) ** j
            for i in range(1, j):
                for mono, c in _bracket_monomials(fs[i - 1], fs[j - 1]):
                    yield TensorWord(fs[:i - 1] + (mono,) + fs[i:j - 1] + fs[j:]), sign * c
    return x.mapped(lambda w: LinComb.sum(terms(w)))


# tstar and word_to_graphs refuse a word with more matchings: an index
# occurring k times has k! of them, p1^9 | q1^9 takes seconds, and each
# further power multiplies the time by about k + 1, so p1^12 | q1^12 would
# run for hours
WORD_MAX_MATCHINGS = 362_880


def _refuse_many_matchings(sizes) -> None:
    """Raise ValueError if prod k! over the sizes k exceeds WORD_MAX_MATCHINGS."""
    count = math.prod(map(math.factorial, sizes))
    if count > WORD_MAX_MATCHINGS:
        raise ValueError(f"the word has {count} matchings of its p_i with its q_i, "
                         f"more than {WORD_MAX_MATCHINGS}")


def _matchings(ends: dict[int, list[int]]) -> Iterator[list[tuple[int, int]]]:
    """Each matching of every p_i's ends with its q_i's, lazily, as written
    (p end, q end) pairs; ``ends`` maps each generator to its ends in
    position order, with multiplicity.

    There is none when an index has unequal p and q counts, or occurs once
    with both ends at one place (a loop).  A word whose indices all occur
    once has exactly one; otherwise a word with more than WORD_MAX_MATCHINGS
    raises ValueError, and the rest run over each repeated index's bijections.
    """
    fixed, repeated = [], []
    for g, ps in ends.items():
        qs = ends.get(g ^ 1)
        if qs is None or len(qs) != len(ps):
            return
        if g & 1:
            continue
        if len(ps) > 1:
            repeated.append((ps, qs))
        elif ps[0] == qs[0]:
            return
        else:
            fixed.append((ps[0], qs[0]))
    if not repeated:
        yield fixed
        return
    _refuse_many_matchings(len(ps) for ps, _ in repeated)
    for choice in itertools.product(*(_bijections(ps, qs) for ps, qs in repeated)):
        yield list(itertools.chain(fixed, *choice))


def _bijections(ps: list[int], qs: list[int]) -> list[list[tuple[int, int]]]:
    """Each bijection of one index's p ends onto its q ends, as written pairs."""
    return [list(zip(ps, matched)) for matched in itertools.permutations(qs)]


def tstar(w: TensorWord) -> LinComb:
    """Sum over the matchings of each p_i with a q_i, as signed standard monomials.

    The flat word's slots are the ends of `_matchings`; a matching's sign and
    sorted pair tuple, its chord diagram, are `_signed_pairs` of its written
    (p slot, q slot) pairs.  That sign is the product of the symplectic
    form ω(p_i, q_i) = 1, ω(q_i, p_i) = -1 on each couple in position
    order: -1 for each couple whose q comes first.  Odd total degree, or
    unequal p and q counts of an index, give the empty combination; a word
    with more than WORD_MAX_MATCHINGS matchings raises ValueError before any
    is listed.
    """
    ends: dict[int, list[int]] = {}
    slot = 0
    for f in w.factors:
        for g in f:
            slot += 1
            ends.setdefault(g, []).append(slot)
    return LinComb.sum((norm, sign) for sign, norm in map(_signed_pairs, _matchings(ends)))


def split_S(pairs, shape) -> TensorWord:
    """Section of the pairing evaluation: p_k at the k-th pair's first slot,
    q_k at its second, the flat word then cut into factors by shape."""
    shape = _shape_parts(shape)
    slots = 2 * len(pairs)
    if sum(shape) != slots or any(k < 1 for k in shape):
        raise ValueError(f"shape {shape} incompatible with {slots} slots")
    if sorted(s for p in pairs for s in p) != list(range(1, slots + 1)):
        raise ValueError(f"pairs {pairs} do not fill 1..{slots}")
    flat = [None] * slots
    for k, (a, b) in enumerate(pairs, start=1):
        flat[a - 1] = gen("p", k)
        flat[b - 1] = gen("q", k)
    factors = []
    pos = 0
    for size in shape:
        factors.append(monomial(flat[pos:pos + size]))
        pos += size
    return TensorWord(tuple(factors))


def random_split_word(rng, min_factors: int = 3, max_factors: int = 5) -> TensorWord:
    """`split_S` of a random pairing, cut into min..max factors of degree 2 or 3.

    The first factor takes one more slot when the degrees add up to an odd
    number.  Draws from ``rng`` in a fixed order, so a seed fixes the word.
    """
    n_factors = rng.randint(min_factors, max_factors)
    shape = [rng.choice((2, 2, 3)) for _ in range(n_factors)]
    if sum(shape) % 2:
        shape[0] += 1
    m = sum(shape) // 2
    slots = list(range(1, 2 * m + 1))
    rng.shuffle(slots)
    pairs = [(slots[2 * k], slots[2 * k + 1]) for k in range(m)]
    return split_S(pairs, shape)


def _word_to_graphs_single(w: TensorWord) -> LinComb:
    factors = w.factors
    if any(len(f) < 2 for f in factors):
        raise ValueError(f"factor degrees {w.degree_shape()} must all be >= 2")
    ends: dict[int, list[int]] = {}
    for a, f in enumerate(factors, start=1):
        for g in f:
            ends.setdefault(g, []).append(a)
    # a matching with a couple inside one factor is a loop, None, and dropped
    signed = filter(None, map(_signed_pairs, _matchings(ends)))
    return LinComb.sum((Graph(len(factors), edges), sign) for sign, edges in signed)


def word_to_graphs(x: LinComb | TensorWord) -> LinComb:
    """The composite word -> monomials (= chord diagrams) -> packaged classes.

    `tstar`'s matchings, listed with the factors as ends: a couple p_i in
    factor a, q_i in factor b is the written edge (a, b), and `_signed_pairs`
    of a matching's edges gives the graph `diagrams.package` would and the
    sign of `tstar`, since across factors position order is factor order.
    A couple inside one factor is a loop, which kills the matching.  A factor
    of degree < 2 is refused; then unequal p and q counts, or a couple of an
    index occurring once inside one factor, give zero before a word with
    more than WORD_MAX_MATCHINGS matchings is refused.
    """
    if isinstance(x, TensorWord):
        x = LinComb.of(x)
    return x.mapped(_word_to_graphs_single)


def graph_to_word(g: Graph) -> TensorWord:
    """A section of word_to_graphs: `split_S` of g's canonical pairing, cut by
    its valences."""
    return split_S(varphi_inverse(g), valences(g))
