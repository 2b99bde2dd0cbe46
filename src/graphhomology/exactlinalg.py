"""Exact rational scalars, formal linear combinations, sparse matrices, homology.

A scalar is an ``int`` or a ``fractions.Fraction`` (lowest terms, positive
denominator), never a float.  Integers stay integers: the graph differentials
are integral, so their matrices and the d∘d check run in integer arithmetic.
A `LinComb` stores no zero coefficient.  Every module outside this one
builds a computed combination with `LinComb.sum`, which adds its terms and
drops the keys that cancel, so that rule is kept here alone.
A `SparseMatrix` stores compressed rows, three flat tuples that only this
module reads; `_assemble` lays every matrix out from flat lists of rows,
columns and values.
`rank` and `chain_contraction` share one fraction-free elimination, which
scales each row to integers; a Fraction appears only where a value is not
integral and in the back substitution that gives a contraction's h.
Scalars are divided as ``Fraction(a, b)``, never ``a / b``, which gives a
float on two ints.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Callable, Container, Hashable, Iterable, Iterator, Mapping

Rational = int | Fraction

__all__ = [
    "Rational",
    "rational",
    "LinComb",
    "SparseMatrix",
    "rank",
    "ChainComplexSlice",
    "homology_dims",
    "ChainContraction",
    "chain_contraction",
    "NotAComplexError",
]


def rational(value) -> Rational:
    """Coerce to an exact scalar: ints and Fractions unchanged, "p/q" to a Fraction.

    A string that is not a rational, a zero denominator among them, raises
    ValueError.
    """
    if isinstance(value, (int, Fraction)):
        return value
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    raise TypeError(f"not an exact rational: {value!r}")


class LinComb:
    """A finite formal linear combination of hashable basis elements.

    Immutable; zero coefficients are never stored.  Coefficients are ints or
    Fractions (see the module docstring); int coefficients stay ints under
    addition and integer scaling.  Equality is equality of the underlying
    coefficient maps, in which 1 and Fraction(1) are equal.  Basis elements
    are expected to be in canonical form already: each basis type owns its
    canonicalization and exposes constructors returning LinComb values.
    ``LinComb()`` is zero, `of` gives one term, and `sum` builds every other
    combination from its (key, coefficient) terms.
    """

    __slots__ = ("_terms",)

    def __init__(self):
        self._terms = {}

    @classmethod
    def _adopt(cls, terms: dict) -> "LinComb":
        """Wrap a dict of nonzero exact coefficients as is, without copying."""
        result = cls.__new__(cls)
        result._terms = terms
        return result

    @classmethod
    def sum(cls, terms: Iterable[tuple[Hashable, Rational]]) -> "LinComb":
        """The sum of the (key, exact coefficient) pairs ``terms``.

        Terms with one key are added in place, in the order given, and a key
        whose coefficients cancel is deleted, so no zero is stored.  Keys
        come in the order of their first term, or of their first term since
        they last cancelled.  Int coefficients stay ints.
        """
        out: dict[Hashable, Rational] = {}
        for key, val in terms:
            acc = out.get(key, 0) + val
            if acc:
                out[key] = acc
            else:
                out.pop(key, None)
        return cls._adopt(out)

    @classmethod
    def of(cls, key: Hashable, coeff=1) -> "LinComb":
        coeff = rational(coeff)
        return cls._adopt({key: coeff} if coeff else {})

    def items(self) -> Iterator[tuple[Hashable, Rational]]:
        return iter(self._terms.items())

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, LinComb) and self._terms == other._terms

    def __add__(self, other: "LinComb") -> "LinComb":
        out = dict(self._terms)
        for key, val in other._terms.items():
            acc = out.get(key, 0) + val
            if acc:
                out[key] = acc
            else:
                out.pop(key, None)
        return LinComb._adopt(out)

    def __neg__(self) -> "LinComb":
        return LinComb._adopt({k: -v for k, v in self._terms.items()})

    def __sub__(self, other: "LinComb") -> "LinComb":
        return self + (-other)

    def scale(self, s) -> "LinComb":
        s = rational(s)
        if not s:
            return LinComb()
        return LinComb._adopt({k: v * s for k, v in self._terms.items()})

    def mapped(self, f: Callable[[Hashable], "LinComb"]) -> "LinComb":
        """Linear extension of a basis map f: key -> LinComb."""
        out: dict[Hashable, Rational] = {}
        for key, val in self._terms.items():
            for new, coeff in f(key)._terms.items():
                acc = out.get(new, 0) + coeff * val
                if acc:
                    out[new] = acc
                else:
                    out.pop(new, None)
        return LinComb._adopt(out)

    def map_keys(self, f: Callable[[Hashable], Hashable]) -> "LinComb":
        """Linear extension of a basis relabelling; keys that f sends to one
        key are summed, and dropped if they cancel."""
        out = {}
        for key, val in self._terms.items():
            new = f(key)
            acc = out.get(new, 0) + val
            if acc:
                out[new] = acc
            else:
                out.pop(new, None)
        return LinComb._adopt(out)

    def __repr__(self) -> str:
        if not self._terms:
            return "LinComb(0)"
        # each key's repr is computed once; ties keep insertion order
        terms = sorted(((repr(k), v) for k, v in self._terms.items()),
                       key=itemgetter(0))
        return "LinComb(" + " + ".join(f"{v}*{r}" for r, v in terms) + ")"


class NotAComplexError(ValueError):
    """Raised when a composite differential fails to vanish."""


@dataclass(frozen=True)
class SparseMatrix:
    """Sparse exact matrix of int or Fraction entries, stored as compressed rows.

    Row r holds the columns ``indices[indptr[r]:indptr[r + 1]]`` in
    ascending order, with its values at the same positions of ``data``; no
    zero is stored.  Every matrix, the zero one too, is laid out by
    `_assemble`, directly or through `from_entries`.  Integer entries stay ints
    through `compose`, so the d∘d check of an integral complex runs in
    integer arithmetic.
    """

    rows: int
    cols: int
    indptr: tuple[int, ...]
    indices: tuple[int, ...]
    data: tuple[Rational, ...]

    @classmethod
    def from_entries(cls, rows: int, cols: int,
                     entries: Mapping[tuple[int, int], Rational]) -> "SparseMatrix":
        clean = []
        for (r, c), val in entries.items():
            val = rational(val)
            if not (0 <= r < rows and 0 <= c < cols):
                raise IndexError(f"entry ({r},{c}) outside {rows}x{cols}")
            if val:
                clean.append((r, c, val))
        clean.sort()
        return _assemble(rows, cols, [r for r, _, _ in clean],
                         [c for _, c, _ in clean], [v for _, _, v in clean])

    @property
    def entries(self) -> "_Entries":
        """The nonzero entries as ((row, col), value), row by row: a sized view."""
        return _Entries(self)

    def _rows(self) -> Iterator[tuple[tuple[int, ...], tuple[Rational, ...]]]:
        """Each row's columns and values, as two tuples, from row 0 on."""
        for lo, hi in itertools.pairwise(self.indptr):
            yield self.indices[lo:hi], self.data[lo:hi]

    def compose(self, other: "SparseMatrix") -> "SparseMatrix":
        """self @ other (apply other first)."""
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ "
                             f"{other.rows}x{other.cols}")
        indptr, indices, data = other.indptr, other.indices, other.data
        row_ids, col_ids, vals = [], [], []
        for r, (cols, row_vals) in enumerate(self._rows()):
            buf: dict[int, Rational] = {}
            for k, val in zip(cols, row_vals):
                lo, hi = indptr[k], indptr[k + 1]
                for c, w in zip(indices[lo:hi], data[lo:hi]):
                    buf[c] = buf.get(c, 0) + val * w
            for c in sorted(buf):
                if buf[c]:
                    row_ids.append(r)
                    col_ids.append(c)
                    vals.append(buf[c])
        return _assemble(self.rows, other.cols, row_ids, col_ids, vals)

    def is_zero(self) -> bool:
        return not self.data


class _Entries:
    """The ((row, col), value) pairs of a SparseMatrix in row-major order.

    Its length is the nonzero count, and iterating builds each pair as it is
    reached, so the pairs are never held all at once.
    """

    __slots__ = ("_matrix",)

    def __init__(self, matrix: SparseMatrix):
        self._matrix = matrix

    def __len__(self) -> int:
        return len(self._matrix.data)

    def __iter__(self) -> Iterator[tuple[tuple[int, int], Rational]]:
        for r, (cols, vals) in enumerate(self._matrix._rows()):
            for c, val in zip(cols, vals):
                yield (r, c), val


def _assemble(rows: int, cols: int, row_ids: list[int], col_ids: list[int],
              vals: list[Rational]) -> SparseMatrix:
    """The rows x cols matrix with entry vals[i] at (row_ids[i], col_ids[i]).

    The entries must be nonzero, in range and at distinct positions, and the
    entries of one row must come in ascending column order, as they do when
    listed column by column or row by row.  A counting sort by row
    (Gustavson, ACM TOMS 1978) lays them out as compressed rows: it is
    stable, so every row keeps its columns ascending, and it builds no tuple
    per entry.
    """
    counts = [0] * (rows + 1)
    for r in row_ids:
        counts[r + 1] += 1
    indptr = list(itertools.accumulate(counts))
    slot = indptr[:-1]
    indices = [0] * len(vals)
    data = [0] * len(vals)
    for r, c, val in zip(row_ids, col_ids, vals):
        i = slot[r]
        indices[i] = c
        data[i] = val
        slot[r] = i + 1
    # one list at a time becomes a tuple, so no list and its copy outlive it
    indices = tuple(indices)
    data = tuple(data)
    return SparseMatrix(rows, cols, tuple(indptr), indices, data)


def _combine(row: dict[int, Rational], pivot: dict[int, Rational],
             a: Rational, b: Rational) -> dict[int, Rational]:
    """a·row - b·pivot on sparse vectors, zeros dropped."""
    new = {c: a * val for c, val in row.items()} if a != 1 else dict(row)
    for c, val in pivot.items():
        acc = new.get(c, 0) - b * val
        if acc:
            new[c] = acc
        else:
            del new[c]
    return new


def _eliminate(m: SparseMatrix, skip_rows: Container[int] = (),
               transforms: bool = False) -> Iterator[
        tuple[int, dict[int, int], dict[int, int] | None]]:
    """Fraction-free elimination of the rows of m outside ``skip_rows``.

    Yields (pivot column, pivot row, transform) per pivot; their number is
    the rank of those rows.  Each row becomes one dict, built once from its
    compressed slice and scaled to integers by the lcm of its denominators.
    Eliminating with pivot row p (pivot value pv) replaces a row r holding
    the pivot column with value f by (pv/g)·r - (f/g)·p, g = gcd(f, pv),
    divided by its content (Bareiss, Math. Comp. 1968, without the
    determinant bookkeeping).  Every integer row is a nonzero multiple of
    the row Fraction elimination would hold, so supports, pivots and the
    rank agree with it.

    Pivot order is that of structured elimination (LaMacchia & Odlyzko
    1990): the sparsest remaining row (ties by original index), on its
    column held by the fewest rows (ties by the smallest column), a
    Markowitz choice (Markowitz, Management Science 1957).  A heap keyed by
    (length, original index) finds that row; entries left stale by an
    update are skipped when popped.  An index lists per column the ids of
    the rows holding it: an id is appended when the column enters a row,
    and the list is dropped when its column pivots.  Ids of rows that have
    since pivoted, emptied or lost the column stay, and repeats of an id
    may appear; both are skipped when the list is read, and both count in
    its length, which is the count the choice reads.  The list of the pivot
    column names the rows to update.

    With ``transforms``, row r carries an integer transform T, starting at
    {r: lcm}, that the same updates act on, and the content is taken over
    row and transform together, so row = Σ_s T[s]·m_s exactly.  Without it
    the transform is None.
    """
    rows: dict[int, dict[int, int]] = {}
    trans = {}
    for r, (cols, vals) in enumerate(m._rows()):
        if not cols or r in skip_rows:
            continue
        den = math.lcm(*(val.denominator for val in vals))
        rows[r] = {c: int(val * den) for c, val in zip(cols, vals)}
        if transforms:
            trans[r] = {r: den}
    heap = [(len(row), r) for r, row in rows.items()]
    heapq.heapify(heap)
    holders: list[list[int] | None] = [[] for _ in range(m.cols)]
    for r, row in rows.items():
        for c in row:
            holders[c].append(r)
    while heap:
        length, r = heapq.heappop(heap)
        pivot = rows.get(r)
        if pivot is None or len(pivot) != length:
            continue
        del rows[r]
        piv_col = min(pivot, key=lambda c: (len(holders[c]), c))
        pv = pivot[piv_col]
        piv_trans = trans.pop(r, None)
        yield piv_col, pivot, piv_trans
        ids, holders[piv_col] = holders[piv_col], None
        for r2 in ids:
            row = rows.get(r2)
            if row is None or piv_col not in row:
                continue
            f = row[piv_col]
            g = math.gcd(f, pv)
            a, b = pv // g, f // g
            for c in pivot:
                if c not in row:
                    holders[c].append(r2)
            new = _combine(row, pivot, a, b)
            if not new:
                del rows[r2]
                trans.pop(r2, None)
                continue
            new_trans = _combine(trans[r2], piv_trans, a, b) if transforms else {}
            content = math.gcd(*new.values(), *new_trans.values())
            if content != 1:
                new = {c: val // content for c, val in new.items()}
                new_trans = {s: val // content for s, val in new_trans.items()}
            rows[r2] = new
            if transforms:
                trans[r2] = new_trans
            heapq.heappush(heap, (len(new), r2))


def rank(m: SparseMatrix) -> int:
    """Exact rank over the rationals: the pivot count of `_eliminate`."""
    return sum(1 for _ in _eliminate(m))


@dataclass(frozen=True)
class ChainComplexSlice:
    """An explicit truncated chain complex: its bases and its differentials.

    ``basis[k]`` lists every canonical basis element of degree k within the
    stated truncation bounds, for an unbroken run of degrees lo..hi.
    ``d[k]`` sends degree-k coordinates to degree-(k-1) coordinates for
    every lo < k <= hi, the zero map as a matrix with no entries.  Anything
    else raises ValueError, and d∘d != 0 raises NotAComplexError.
    """

    basis: Mapping[int, tuple]
    d: Mapping[int, SparseMatrix]

    @property
    def degrees(self) -> tuple[int, int]:
        """The inclusive (lo, hi) range of the basis degrees."""
        return min(self.basis), max(self.basis)

    def __post_init__(self):
        lo, hi = self.degrees
        if len(self.basis) != hi - lo + 1:
            raise ValueError(f"basis degrees {sorted(self.basis)} leave a gap")
        if set(self.d) != set(range(lo + 1, hi + 1)):
            raise ValueError(f"differentials at degrees {sorted(self.d)}; a slice "
                             f"over degrees {lo}..{hi} needs one at each of {lo + 1}..{hi}")
        for k, mat in self.d.items():
            if mat.cols != len(self.basis[k]) or mat.rows != len(self.basis[k - 1]):
                raise ValueError(f"differential shape mismatch at degree {k}")
        for k in range(lo + 2, hi + 1):
            if not self.d[k - 1].compose(self.d[k]).is_zero():
                raise NotAComplexError(f"d∘d nonzero at degree {k}")


def homology_dims(c: ChainComplexSlice) -> dict[int, tuple[int, bool]]:
    """Per-degree homology dimension and a reliability flag.

    dim H_k = dim C_k - rank d_k - rank d_{k+1}, with d_lo and d_{hi+1} zero.
    Every basis of a slice is complete, so H_k is reliable exactly when both
    neighbouring degrees are in the slice, lo < k < hi.  d∘d = 0 is enforced
    at slice construction; a violation raises rather than warns.
    """
    lo, hi = c.degrees
    ranks = {k: rank(mat) for k, mat in c.d.items()}
    return {k: (len(c.basis[k]) - ranks.get(k, 0) - ranks.get(k + 1, 0), lo < k < hi)
            for k in range(lo, hi + 1)}


def _pivot_inverse(m: SparseMatrix, skip_rows: set[int]) -> tuple[
        dict[tuple[int, int], Rational], set[int]]:
    """Entries of an inverse g of m on its column space, and m's pivot columns.

    `_eliminate` reduces the rows of m outside ``skip_rows`` in integers and
    hands over each pivot row with its integral row transform.  Back
    substitution through the pivot rows, the one step in Fraction, then
    gives g: it sends a vector y to the unique x, supported on the pivot
    columns, whose image m x agrees with y on the pivot rows.  So g kills
    every vector that vanishes on the pivot rows, and g m x = x for x on the
    pivot columns when the kept rows carry the full rank of m.  The number
    of pivot columns is rank m.
    """
    pivots = list(_eliminate(m, skip_rows, transforms=True))
    # a pivot row is zero on the pivot columns chosen before it, so the pivot
    # block is triangular: solving from the last pivot back, every other
    # pivot column of a row is solved already
    solved: dict[int, dict[int, Rational]] = {}
    for piv_col, pivot, x in reversed(pivots):
        for c, val in pivot.items():
            if c in solved:
                x = _combine(x, solved[c], 1, val)
        solved[piv_col] = {r: Fraction(val, pivot[piv_col]) for r, val in x.items()}
    entries = {(col, r): val for col, row in solved.items() for r, val in row.items()}
    return entries, set(solved)


@dataclass(frozen=True)
class ChainContraction:
    """A chain contraction of a slice onto representatives of its homology.

    ``h[k]`` maps degree-k coordinates to degree-(k+1) coordinates for
    lo <= k < hi, and `projection` gives π_k with

        d_{k+1} h_k + h_{k-1} d_k = Id - π_k

    in every degree of the slice, where d_lo, h_{lo-1} and h_hi count as
    zero, exactly as `homology_dims` treats the ends.  π_k is idempotent,
    its image consists of cycles, it kills boundaries and its rank is the
    dim H_k that `homology_dims` reports, which `homology_dim` gives from
    ``ranks`` (rank d_k, counted as pivots while h was built).  Like that
    number, π_k describes the full complex only in degrees that
    `homology_dims` marks reliable.  Also h h = 0, h π = 0 and π h = 0.
    """

    chain: ChainComplexSlice
    h: Mapping[int, SparseMatrix]
    ranks: Mapping[int, int]

    def homology_dim(self, k: int) -> int:
        """dim H_k = dim C_k - rank d_k - rank d_{k+1}."""
        return len(self.chain.basis[k]) - self.ranks.get(k, 0) - self.ranks.get(k + 1, 0)

    def projection(self, k: int) -> SparseMatrix:
        """π_k = Id - d_{k+1} h_k - h_{k-1} d_k as a square matrix."""
        dim = len(self.chain.basis[k])
        entries: dict[tuple[int, int], Rational] = {
            (i, i): 1 for i in range(dim)}
        terms = []
        if k in self.h:
            terms.append(self.chain.d[k + 1].compose(self.h[k]))
        if (k - 1) in self.h:
            terms.append(self.h[k - 1].compose(self.chain.d[k]))
        for term in terms:
            for key, val in term.entries:
                entries[key] = entries.get(key, 0) - val
        return SparseMatrix.from_entries(dim, dim, entries)


def chain_contraction(c: ChainComplexSlice) -> ChainContraction:
    """Exact chain contraction of a slice, one integer elimination per differential.

    Degree by degree from the bottom, d_{k+1} is eliminated without the rows
    that are pivot columns of d_k.  Those coordinates span a complement of
    ker d_k, which meets the boundaries only in zero, so the remaining rows
    still carry rank d_{k+1}.  h_k is the resulting inverse of d_{k+1}: it
    lands on the pivot columns of d_{k+1} and kills every pivot column of
    d_k, and these two facts make the pieces fit into the identity that
    `ChainContraction` states.  This is the standard splitting C_k = B_k ⊕
    H_k ⊕ B'_k, with B'_k spanned by the pivot columns of d_k and H_k by the
    cycles that vanish on the pivot rows of d_{k+1}.
    """
    lo, hi = c.degrees
    h: dict[int, SparseMatrix] = {}
    ranks: dict[int, int] = {}
    lower_pivots: set[int] = set()
    for k in range(lo, hi):
        d = c.d[k + 1]
        entries, lower_pivots = _pivot_inverse(d, lower_pivots)
        h[k] = SparseMatrix.from_entries(d.cols, d.rows, entries)
        ranks[k + 1] = len(lower_pivots)
    return ChainContraction(c, h, ranks)
