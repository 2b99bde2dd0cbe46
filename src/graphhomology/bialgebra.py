"""Half-shuffle coproduct on graphs, the primitive projector, tree series.

The coproduct splits the ordered component list: the first component stays in
the left tensor factor, the rest distribute over both sides keeping their
order.  Connected graphs are primitive.  The projector is the alternating
left-bracketed convolution series, which truncates at the component count.
A series in the free magma, truncated at a degree bound, is a LinComb keyed
by planar binary trees; every tree has at least one leaf, so no series has a
constant term.
"""

from __future__ import annotations

from .exactlinalg import LinComb
from .graphs import (Graph, UNIT, _component_count, assemble, connected_components,
                     disjoint_union)
from .symplectic import TensorWord, leibniz_differential

__all__ = [
    "cohalf_shuffle",
    "reduced_cohalf_shuffle",
    "tau",
    "full_coproduct",
    "check_zinbiel_coalgebra",
    "check_compatibility",
    "primitive_projector",
    "COPRODUCT_MAX_COMPONENTS",
    "LEAF",
    "SERIES_MAX_DEGREE",
    "tree_degree",
    "left_comb",
    "right_comb",
    "series_f",
    "series_g",
    "identity_series",
    "mag_compose",
    "word_cohalf_pq",
    "check_interchange",
]


def _splits(items):
    """All order-preserving two-sided splits of a sequence."""
    n = len(items)
    for mask in range(1 << n):
        left = tuple(items[k] for k in range(n) if mask >> k & 1)
        right = tuple(items[k] for k in range(n) if not mask >> k & 1)
        yield left, right


# cohalf_shuffle splits the k - 1 components after the first over all 2^(k-1)
# subsets, so its cost about doubles per component (on a 2-core Xeon, 16
# components take up to 1.2 s and 18 up to 5.6 s); a graph with more is
# refused rather than run for hours
COPRODUCT_MAX_COMPONENTS = 16


def cohalf_shuffle(g: Graph) -> LinComb:
    """Split the component word, first component pinned to the left factor.

    Output is a combination of ordered (left graph, right graph) pairs; for
    connected input the single term is g ⊗ unit.  A graph with more than
    COPRODUCT_MAX_COMPONENTS components raises ValueError.
    """
    if g == UNIT:
        raise ValueError("the unit graph has no half-shuffle coproduct")
    count = _component_count(g.n, g.edges)
    if count > COPRODUCT_MAX_COMPONENTS:
        raise ValueError(f"the coproduct splits a graph of {count} components; at most "
                         f"{COPRODUCT_MAX_COMPONENTS} components are supported")
    comps = connected_components(g)
    head, tail = comps[0], comps[1:]
    return LinComb.sum(((assemble((head,) + left), assemble(right)), 1)
                       for left, right in _splits(tail))


def reduced_cohalf_shuffle(g: Graph) -> LinComb:
    """cohalf_shuffle minus the g ⊗ unit term; lands in nonunit ⊗ nonunit."""
    return cohalf_shuffle(g) - LinComb.of((g, UNIT))


def tau(x: LinComb) -> LinComb:
    """Swap the two tensor factors."""
    return x.map_keys(lambda pair: (pair[1], pair[0]))


def full_coproduct(g: Graph) -> LinComb:
    """Cocommutative combination: half shuffle plus its flip; unit maps to unit⊗unit."""
    if g == UNIT:
        return LinComb.of((UNIT, UNIT))
    half = cohalf_shuffle(g)
    return half + tau(half)


def check_zinbiel_coalgebra(g: Graph) -> LinComb:
    """Half-shuffle coassociativity, checked in reduced form.

    Returns the defect (Δ̄⊗Id)Δ̄ - (Id⊗Δ̄)Δ̄ - (Id⊗τΔ̄)Δ̄ on g, zero where the
    law holds.  Stripping the unit terms makes the three-term law equivalent
    to the counital one without needing a coproduct for the unit.
    """
    red = reduced_cohalf_shuffle(g)

    def left_expand(pair):
        a, b = pair
        return reduced_cohalf_shuffle(a).map_keys(lambda lr: (lr[0], lr[1], b))

    def right_expand(pair, flip):
        a, b = pair
        inner = reduced_cohalf_shuffle(b)
        if flip:
            inner = tau(inner)
        return inner.map_keys(lambda lr: (a, lr[0], lr[1]))

    lhs = red.mapped(left_expand)
    rhs = (red.mapped(lambda p: right_expand(p, False))
           + red.mapped(lambda p: right_expand(p, True)))
    return lhs - rhs


def check_compatibility(a: Graph, b: Graph) -> LinComb:
    """The defect Δ_≺(a·b) - (μ⊗μ)(Id⊗τ⊗Id)(Δ_≺(a)⊗Δ(b)), zero where the law holds."""
    if a == UNIT:
        return LinComb()
    prod = disjoint_union(a, b)
    lhs = cohalf_shuffle(prod)
    fb = full_coproduct(b)
    rhs = cohalf_shuffle(a).mapped(lambda pa: fb.map_keys(
        lambda pb: (disjoint_union(pa[0], pb[0]), disjoint_union(pa[1], pb[1]))))
    return lhs - rhs


def _convolution_power(k: int, g: Graph, memo: dict) -> LinComb:
    """Left-bracketed k-th convolution power of (identity minus unit) at g."""
    if k == 1:
        return LinComb.of(g)
    key = (k, g)
    if key not in memo:
        memo[key] = reduced_cohalf_shuffle(g).mapped(
            lambda lr: _convolution_power(k - 1, lr[0], memo).map_keys(
                lambda m: disjoint_union(m, lr[1])))
    return memo[key]


def primitive_projector(x: LinComb) -> LinComb:
    """Alternating convolution series J - J*J + (J*J)*J - ...

    Convolution is through the reduced coproduct, so the k-th power vanishes
    on graphs with fewer than k components: the series truncates at the
    component count.  Fixes connected graphs, kills proper products,
    idempotent.
    """
    memo: dict = {}

    def per_graph(g: Graph) -> LinComb:
        if g == UNIT:
            return LinComb()
        return LinComb.sum((h, (-1) ** (k - 1) * c)
                           for k in range(1, _component_count(g.n, g.edges) + 1)
                           for h, c in _convolution_power(k, g, memo).items())

    return x.mapped(per_graph)


# --- planar binary trees and magmatic series ---------------------------------

LEAF = "t"


def tree_degree(tree) -> int:
    if tree == LEAF:
        return 1
    left, right = tree
    return tree_degree(left) + tree_degree(right)


def left_comb(n: int):
    """((t·t)·t)... with n leaves."""
    out = LEAF
    for _ in range(n - 1):
        out = (out, LEAF)
    return out


def right_comb(n: int):
    """t·(t·(t...)) with n leaves."""
    out = LEAF
    for _ in range(n - 1):
        out = (LEAF, out)
    return out


# mag_compose's cost more than doubles per degree (one composition at degree
# 16 takes about 1 s on a 2-core Xeon), so a larger bound is refused rather
# than run for hours
SERIES_MAX_DEGREE = 16


def series_f(degree_bound: int) -> LinComb:
    """Right combs, all coefficients +1."""
    return LinComb.sum((right_comb(n), 1) for n in range(1, degree_bound + 1))


def series_g(degree_bound: int) -> LinComb:
    """Left combs with alternating signs, +1 on the single leaf."""
    return LinComb.sum((left_comb(n), (-1) ** (n + 1)) for n in range(1, degree_bound + 1))


def identity_series(degree_bound: int) -> LinComb:
    """The single leaf, or zero when the bound truncates it away."""
    return LinComb.of(LEAF) if degree_bound >= 1 else LinComb()


def _graft(tree, inner: dict[int, dict], bound: int) -> dict[int, LinComb]:
    """Substitute the series `inner`, grouped by degree, into every leaf of a tree."""
    if tree == LEAF:
        return {d: terms for d, terms in inner.items() if d <= bound}
    left, right = tree
    left_sub = _graft(left, inner, bound)
    right_sub = _graft(right, inner, bound)
    out: dict[int, dict] = {}
    for dl, lcl in left_sub.items():
        for dr, lcr in right_sub.items():
            d = dl + dr
            if d > bound:
                continue
            terms = out.setdefault(d, {})
            for tl, cl in lcl.items():
                for tr, cr in lcr.items():
                    terms[(tl, tr)] = terms.get((tl, tr), 0) + cl * cr
    return {d: LinComb.sum(terms.items()) for d, terms in out.items()}


def mag_compose(outer: LinComb, inner: LinComb, degree_bound: int) -> LinComb:
    """Formal substitution of inner into outer, truncated at degree_bound.

    A degree_bound above SERIES_MAX_DEGREE raises ValueError.
    """
    if degree_bound > SERIES_MAX_DEGREE:
        raise ValueError(f"mag_compose truncates at degree {degree_bound}; at most "
                         f"{SERIES_MAX_DEGREE} is supported")
    inner_map: dict[int, dict] = {}
    for tree, c in inner.items():
        inner_map.setdefault(tree_degree(tree), {})[tree] = c
    return LinComb.sum((t, coeff * c) for tree, coeff in outer.items()
                       for sub in _graft(tree, inner_map, degree_bound).values()
                       for t, c in sub.items())


# --- word-level coproduct projections and the interchange law ----------------

def word_cohalf_pq(w: TensorWord, p: int, q: int) -> LinComb:
    """(p, q)-component of the factor half-shuffle coproduct of a word.

    The first factor stays on the left; the remaining factors split
    order-preservingly, and each pair of factors that ends up transposed
    contributes -1 (graded shuffle sign for degree-one letters).
    """
    fs = w.factors
    n = len(fs)
    if p + q != n or p < 1:
        return LinComb()

    def term(left_pos, right_pos):
        inversions = sum(1 for x in left_pos for y in right_pos if y < x)
        return ((TensorWord(tuple(fs[k] for k in left_pos)),
                 TensorWord(tuple(fs[k] for k in right_pos))), (-1) ** inversions)

    return LinComb.sum(term((0,) + left_idx, right_pos)
                       for left_idx, right_pos in _splits(range(1, n))
                       if len(left_idx) == p - 1)


def check_interchange(w: TensorWord, p: int, q: int) -> LinComb:
    """Graded interchange of the factor half shuffle with the differential.

    Returns the defect Δ_{p,q}(dw) - (d ⊗ Id)Δ_{p+1,q}(w)
    - (-1)^p (Id ⊗ d)Δ_{p,q+1}(w), where Δ is `word_cohalf_pq` with its
    graded shuffle signs; this identity holds, so the defect is zero.
    """
    if len(w.factors) != p + q + 1:
        raise ValueError(f"word has {len(w.factors)} factors, need {p + q + 1}")

    def d(word: TensorWord) -> LinComb:
        return leibniz_differential(LinComb.of(word))

    lhs = d(w).mapped(lambda term: word_cohalf_pq(term, p, q))
    rhs = (word_cohalf_pq(w, p + 1, q).mapped(
               lambda lr: d(lr[0]).map_keys(lambda t: (t, lr[1])))
           + word_cohalf_pq(w, p, q + 1).mapped(
               lambda lr: d(lr[1]).map_keys(lambda t: (lr[0], t))).scale((-1) ** p))
    return lhs - rhs
