"""Reference oracles and small helpers that several test modules share.

The oracles (`all_pairings`, `contract`, `symplectic_form`,
`chord_differential`, `unsigned_cohalf_pq`, `check_interchange_unsigned`)
are written from their definitions, not through the code they check.
"""

import itertools

from graphhomology.diagrams import varphi_inverse
from graphhomology.exactlinalg import LinComb
from graphhomology.graphs import graph, valences
from graphhomology.symplectic import (
    TensorWord, leibniz_differential, monomial, word_from_strings)


def compositions(total, min_part=2):
    """Every ordered tuple of parts >= min_part summing to total: the package
    shapes of 2m slots for total = 2m."""
    if total == 0:
        yield ()
        return
    for first in range(min_part, total + 1):
        for rest in compositions(total - first, min_part):
            yield (first,) + rest


def all_pairings(m: int):
    """All perfect pairings of {1..2m} in canonical form; (2m-1)!! of them."""
    def rec(slots):
        if not slots:
            yield ()
            return
        first = slots[0]
        for k in range(1, len(slots)):
            partner = slots[k]
            rest = slots[1:k] + slots[k + 1:]
            for tail in rec(rest):
                yield ((first, partner),) + tail
    return list(rec(tuple(range(1, 2 * m + 1))))


def contract(g, edge) -> LinComb:
    """Contract one copy of the edge (i, j), i < j, unsigned.

    j merges into i and the labels above j shift down by one; one copy of
    (i, j) is dropped, and any other copy becomes a loop, which gives zero.
    An edge that g lacks raises ValueError.
    """
    i, j = edge
    rest = list(g.edges)
    rest.remove((i, j))

    def relabel(v):
        return i if v == j else v - 1 if v > j else v

    moved = [(relabel(a), relabel(b)) for a, b in rest]
    if any(a == b for a, b in moved):
        return LinComb()
    return LinComb.of(graph(g.n - 1, moved))


def symplectic_form(u: int, v: int) -> int:
    """ω(p_i, q_i) = 1, ω(q_i, p_i) = -1, all other generator pairs 0."""
    if u ^ v == 1:
        return -1 if u & 1 else 1
    return 0


def poly(text: str, coeff=1) -> LinComb:
    """One monomial from a string like "p1 q2 p3" (repeats or ^k for powers)."""
    return LinComb.of(word_from_strings([text]).factors[0], coeff)


def _relabel_word(w: TensorWord, index_map) -> TensorWord:
    return TensorWord(tuple(
        monomial(2 * index_map(g >> 1) + (g & 1) for g in f) for f in w.factors))


def matrix_sum_product(a: TensorWord, b: TensorWord) -> TensorWord:
    """Concatenate after doubling indices: a's onto evens, b's onto odds."""
    ea = _relabel_word(a, lambda i: 2 * i)
    ob = _relabel_word(b, lambda i: 2 * i - 1)
    return TensorWord(ea.factors + ob.factors)


def package_blocks(shape):
    blocks, start = [], 1
    for size in shape:
        blocks.append(tuple(range(start, start + size)))
        start += size
    return blocks


def package_owner(shape):
    """owner[s] is the 1-indexed package of slot s; owner[0] is unused."""
    return [0] + [k for k, block in enumerate(package_blocks(shape), start=1)
                  for _ in block]


def packaged(g):
    """The packaged class a graph holds, as (shape, canonical pairs)."""
    return tuple(valences(g)), varphi_inverse(g)


def chord_differential(shape, pairs):
    """The paper's ∂ on a packaged class, chord by chord; terms as graphs.

    Contracting a cross-package chord deletes its endpoints and merges the
    higher package's remaining slots into the lower one (at the lower
    position, slot order preserved); a surviving chord inside the merged
    package kills the term.  The sign is (-1)^(package of the larger
    endpoint), times -1 for each other chord ending in that package whose
    far end sits strictly between the two merged packages.
    """
    owner = package_owner(shape)
    blocks = package_blocks(shape)
    out = LinComb()
    for a, b in pairs:
        pa, pb = owner[a], owner[b]
        merged = [s for s in blocks[pa - 1] if s != a] + [s for s in blocks[pb - 1] if s != b]
        order = []
        for k, block in enumerate(blocks, start=1):
            if k == pa:
                order.extend(merged)
            elif k != pb:
                order.extend(block)
        relabel = {old: new for new, old in enumerate(order, start=1)}
        new_shape = list(shape)
        new_shape[pa - 1] += shape[pb - 1] - 2
        del new_shape[pb - 1]
        new_owner = package_owner(new_shape)
        rest = [(x, y) for x, y in pairs if (x, y) != (a, b)]
        edges = [(new_owner[relabel[x]], new_owner[relabel[y]]) for x, y in rest]
        if any(i == j for i, j in edges):
            continue
        flips = sum(1 for x, y in rest if owner[y] == pb and pa < owner[x] < pb)
        out = out + LinComb.of(graph(len(new_shape), edges), (-1) ** (pb + flips))
    return out


def chord_differential_squared(shape, pairs):
    return chord_differential(shape, pairs).mapped(
        lambda g: chord_differential(*packaged(g)))


def unsigned_cohalf_pq(w: TensorWord, p: int, q: int) -> LinComb:
    """`word_cohalf_pq` without the graded shuffle signs."""
    fs = w.factors
    n = len(fs)
    if p + q != n or p < 1:
        return LinComb()
    out = LinComb()
    for left_idx in itertools.combinations(range(1, n), p - 1):
        right_idx = tuple(k for k in range(1, n) if k not in left_idx)
        out = out + LinComb.of((TensorWord(tuple(fs[k] for k in (0,) + left_idx)),
                                TensorWord(tuple(fs[k] for k in right_idx))))
    return out


def check_interchange_unsigned(w: TensorWord, p: int, q: int) -> LinComb:
    """The defect of the interchange law with unsigned shuffles and no
    (-1)^p: the negative control, which fails in general."""
    if len(w.factors) != p + q + 1:
        raise ValueError(f"word has {len(w.factors)} factors, need {p + q + 1}")
    lhs = LinComb()
    for term, c in leibniz_differential(LinComb.of(w)).items():
        lhs = lhs + unsigned_cohalf_pq(term, p, q).scale(c)
    rhs = LinComb()
    for (left, right), c in unsigned_cohalf_pq(w, p + 1, q).items():
        for lterm, lc in leibniz_differential(LinComb.of(left)).items():
            rhs = rhs + LinComb.of((lterm, right), c * lc)
    for (left, right), c in unsigned_cohalf_pq(w, p, q + 1).items():
        for rterm, rc in leibniz_differential(LinComb.of(right)).items():
            rhs = rhs + LinComb.of((left, rterm), c * rc)
    return lhs - rhs
