"""Reference oracles and small helpers that several test modules share.

The oracles (`all_pairings`, `contract`, `symplectic_form`) are written
from their definitions, not through the code they check.
"""

from graphhomology.diagrams import ChordDiagram
from graphhomology.exactlinalg import LinComb
from graphhomology.graphs import graph
from graphhomology.symplectic import TensorWord, monomial, word_from_strings


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
    return [ChordDiagram(p) for p in rec(tuple(range(1, 2 * m + 1)))]


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
        return LinComb.zero()
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
