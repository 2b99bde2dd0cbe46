import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from graphhomology.exactlinalg import (
    ChainComplexSlice,
    LinComb,
    NotAComplexError,
    SparseMatrix,
    _eliminate,
    chain_contraction,
    homology_dims,
    rank,
    rational,
)
from graphhomology.homotopy import stripe


def from_dense(dense) -> SparseMatrix:
    """A SparseMatrix from equal-length rows of exact scalars; zeros dropped."""
    rows = [list(row) for row in dense]
    cols = len(rows[0]) if rows else 0
    assert all(len(row) == cols for row in rows), "ragged dense matrix"
    return SparseMatrix.from_entries(len(rows), cols, {
        (r, c): val for r, row in enumerate(rows) for c, val in enumerate(row)})


def to_dense(m: SparseMatrix) -> list[list]:
    out = [[0] * m.cols for _ in range(m.rows)]
    for (r, c), val in m.entries:
        out[r][c] = val
    return out


def dense_product(a, b):
    """The product of two dense matrices, as lists of rows."""
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _with_empty_end_rows(m: SparseMatrix) -> SparseMatrix:
    """m with a zero row added before its first row and after its last."""
    return from_dense([[0] * m.cols, *to_dense(m), [0] * m.cols])


def dense_rank_oracle(dense):
    """Row reduction on dense Fraction rows, column by column."""
    rows = [[Fraction(x) for x in row] for row in dense]
    if not rows:
        return 0
    cols = len(rows[0])
    rk = 0
    for c in range(cols):
        pivot = next((r for r in range(rk, len(rows)) if rows[r][c]), None)
        if pivot is None:
            continue
        rows[rk], rows[pivot] = rows[pivot], rows[rk]
        pv = rows[rk][c]
        for r in range(len(rows)):
            if r != rk and rows[r][c]:
                f = rows[r][c] / pv
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rk])]
        rk += 1
        if rk == len(rows):
            break
    return rk


def _fraction_eliminate(m, skip_rows=()):
    """Sparse Fraction elimination with rank's pivot rule: the reference oracle.

    Among the rows outside ``skip_rows`` pick the sparsest (ties by original
    index), pivot on its column held by the fewest rows (ties by the
    smallest column), clear that column from every other row, and apply the
    same moves to the row transforms, which start at the identity.  Yields
    (pivot column, pivot row, transform) for each pivot.

    The count of rows holding a column is the one `_eliminate` reads: the
    length of a list of row ids that gains an id whenever the column enters
    a row, at the start or through an update, and loses none when the row
    is pivoted, cleared or drops the column again.
    """
    acc = {}
    for (r, c), val in m.entries:
        if r not in skip_rows:
            acc.setdefault(r, {})[c] = Fraction(val)
    rows = [(r, acc[r], {r: Fraction(1)}) for r in sorted(acc)]
    holders = {}
    for r, row, _ in rows:
        for c in row:
            holders.setdefault(c, []).append(r)
    while rows:
        piv_idx = min(range(len(rows)), key=lambda i: (len(rows[i][1]), rows[i][0]))
        _, pivot, transform = rows.pop(piv_idx)
        piv_col = min(pivot, key=lambda c: (len(holders[c]), c))
        yield piv_col, pivot, transform
        reduced = []
        for r, row, row_transform in rows:
            if piv_col in row:
                for c in pivot:
                    if c not in row:
                        holders[c].append(r)
                factor = row[piv_col] / pivot[piv_col]
                row = _fraction_subtract(row, pivot, factor)
                if row:
                    reduced.append(
                        (r, row, _fraction_subtract(row_transform, transform, factor)))
            else:
                reduced.append((r, row, row_transform))
        rows = reduced


def _fraction_subtract(a, b, s):
    """a - s*b on sparse vectors, zeros dropped."""
    out = dict(a)
    for key, val in b.items():
        acc = out.get(key, Fraction(0)) - s * val
        if acc:
            out[key] = acc
        else:
            out.pop(key, None)
    return out


def _fraction_rank(m):
    return sum(1 for _ in _fraction_eliminate(m))


def _assert_eliminate_matches_oracle(m, skip_rows):
    """_eliminate pivots in the oracle's order on integer multiples of its rows.

    With transforms, each (row, transform) pair must be a nonzero multiple of
    the oracle's pair, so both sides hold row = transform · m.
    """
    oracle = list(_fraction_eliminate(m, skip_rows))
    plain = list(_eliminate(m, skip_rows))
    carried = list(_eliminate(m, skip_rows, transforms=True))
    assert [c for c, _, _ in plain] == [c for c, _, _ in oracle]
    assert [c for c, _, _ in carried] == [c for c, _, _ in oracle]
    for (c, row, transform), (_, f_row, f_transform) in zip(carried, oracle):
        assert all(type(val) is int for val in (*row.values(), *transform.values()))
        scale = row[c] / f_row[c]
        assert row == {k: scale * val for k, val in f_row.items()}
        assert transform == {k: scale * val for k, val in f_transform.items()}


def _random_sparse(rng, rows, cols, density, entry):
    """A rows x cols matrix whose last rows repeat combinations of earlier ones."""
    dense = [[entry() if rng.random() < density else 0 for _ in range(cols)]
             for _ in range(rows)]
    for r in range(rows // 2, rows if rows >= 4 else 0):
        a, b = rng.sample(range(rows // 2), 2)
        s, t = entry(), entry()
        dense[r] = [s * x + t * y for x, y in zip(dense[a], dense[b])]
    return from_dense(dense)


def test_rational_round_trip():
    assert rational("3/4") == Fraction(3, 4)
    assert rational("-7") == Fraction(-7)
    q = Fraction(-7, 2)
    assert str(q) == "-7/2" and rational(str(q)) == q
    with pytest.raises(TypeError):
        rational(0.5)
    for text in ("1/0", "0/0"):
        with pytest.raises(ValueError, match="zero denominator"):
            rational(text)


def test_lincomb_cancellation_and_identity():
    a = LinComb.of("x", 1)
    assert (a + a.scale(-1)).is_zero()
    b = LinComb.of("y", 5)
    assert a + b.scale(0) == a
    assert LinComb.of("x", "2/3") + LinComb.of("x", "1/3").scale(1) == a


@settings(max_examples=60, derandomize=True)
@given(st.dictionaries(st.sampled_from("abcd"), st.integers(-4, 4), max_size=4),
       st.dictionaries(st.sampled_from("abcd"), st.integers(-4, 4), max_size=4),
       st.integers(-3, 3),
       st.lists(st.tuples(st.sampled_from("abcd"), st.integers(-4, 4)), max_size=8))
def test_lincomb_module_laws(t1, t2, s, terms):
    a, b = LinComb.sum(t1.items()), LinComb.sum(t2.items())
    assert a + b == b + a
    assert (a + b).scale(s) == a.scale(s) + b.scale(s)
    assert (a - a).is_zero()
    # LinComb.sum adds terms as + does, in the same key order
    summed = LinComb.sum([*a.items(), *b.items()])
    assert summed == a + b
    assert list(summed.items()) == list((a + b).items())
    # a key is stored exactly when its terms do not cancel, and ints stay ints
    totals = {}
    for key, c in terms:
        totals[key] = totals.get(key, 0) + c
    summed = LinComb.sum(terms)
    assert dict(summed.items()) == {key: c for key, c in totals.items() if c}
    assert all(type(c) is int for _, c in summed.items())
    assert LinComb.sum(terms + [(key, -c) for key, c in terms]).is_zero()


def test_rank_identity_and_proportional_rows():
    eye = from_dense([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert rank(eye) == 3
    prop = from_dense([[1, 2], [2, 4]])
    assert rank(prop) == 1


def test_rank_against_dense_oracle_random():
    rng = random.Random(0)
    for _ in range(25):
        dense = [[rng.choice((-1, 0, 1)) for _ in range(15)] for _ in range(12)]
        assert rank(from_dense(dense)) == dense_rank_oracle(dense)


@settings(max_examples=40, derandomize=True)
@given(st.lists(st.lists(st.integers(-2, 2), min_size=4, max_size=4),
                min_size=1, max_size=6))
def test_rank_against_dense_oracle_hypothesis(dense):
    assert rank(from_dense(dense)) == dense_rank_oracle(dense)


def _assert_rank_matches_oracles(m, case):
    """rank and _eliminate against the oracles, on m and on m with empty end rows.

    The rows skipped are none, every third row, then every row, which
    leaves nothing to eliminate.
    """
    padded = _with_empty_end_rows(m)
    assert list(padded.entries) == [((r + 1, c), val) for (r, c), val in m.entries]
    for mat in (m, padded):
        assert rank(mat) == _fraction_rank(mat) == dense_rank_oracle(to_dense(mat)), case
        _assert_eliminate_matches_oracle(mat, ())
        _assert_eliminate_matches_oracle(mat, set(range(0, mat.rows, 3)))
        _assert_eliminate_matches_oracle(mat, set(range(mat.rows)))


def test_rank_matches_fraction_rank_on_integer_matrices():
    # entries up to 5 in size make pivots other than ±1, so the gcd scaling
    # and the content division both act
    rng = random.Random(5)
    entry = lambda: rng.choice([v for v in range(-5, 6) if v])
    for case in range(60):
        rows, cols = rng.randint(1, 14), rng.randint(1, 14)
        m = _random_sparse(rng, rows, cols, rng.choice((0.2, 0.4, 0.7)), entry)
        _assert_rank_matches_oracles(m, case)
        # the same values as integral Fractions: their denominator lcm is 1,
        # and they must still reach the elimination as ints
        _assert_rank_matches_oracles(
            from_dense([[Fraction(x) for x in row] for row in to_dense(m)]), case)


def test_rank_matches_fraction_rank_on_fraction_matrices():
    rng = random.Random(6)
    entry = lambda: Fraction(rng.choice((-3, -2, -1, 1, 2, 3, 5)),
                             rng.randint(2, 6))
    for case in range(60):
        rows, cols = rng.randint(1, 12), rng.randint(1, 12)
        m = _random_sparse(rng, rows, cols, rng.choice((0.3, 0.6)), entry)
        _assert_rank_matches_oracles(m, case)


def test_pivot_column_is_the_one_held_by_fewest_rows():
    # the sparsest row, {0, 1}, pivots on column 1 (two rows hold it), not on
    # its smallest column 0 (three rows); that pivot puts column 0 into row 2
    # and the next puts column 3 there.  The last pivot row, {0, 3}, is the
    # only live holder of either column, and column 3 wins because the count
    # keeps the ids of rows that were pivoted since: 3 against 4 for column 0
    m = from_dense([[1, 1, 0, 0, 0],
                    [1, 0, 1, 1, 0],
                    [0, 1, 1, 0, 1],
                    [1, 0, 0, 1, 1]])
    assert [c for c, _, _ in _eliminate(m)] == [1, 2, 4, 3]
    assert [c for c, _, _ in _fraction_eliminate(m)] == [1, 2, 4, 3]
    _assert_eliminate_matches_oracle(m, ())


def test_rank_of_mixed_stripe_differentials():
    cx = stripe("mixed", 2, 5)
    assert all(type(val) is int for mat in cx.d.values() for _, val in mat.entries)
    assert [rank(cx.d[k]) for k in (4, 5)] == [9, 133]
    assert [_fraction_rank(cx.d[k]) for k in (4, 5)] == [9, 133]


def _two_term_acyclic():
    return ChainComplexSlice(
        basis={0: ("a",), 1: ("b",)},
        d={1: from_dense([[1]])},
    )


def test_homology_two_term_acyclic():
    dims = homology_dims(_two_term_acyclic())
    assert dims[0][0] == 0 and dims[1][0] == 0
    # boundary degrees can never be reliable: a neighbour is missing
    assert dims[0][1] is False and dims[1][1] is False


def test_homology_zero_differential():
    # a zero map is a matrix with no entries; leaving it out is refused
    basis = {0: ("a", "b"), 1: ("c",), 2: ("d", "e", "f")}
    d = {1: SparseMatrix.from_entries(2, 1, {}),
         2: SparseMatrix.from_entries(1, 3, {})}
    assert all(m == SparseMatrix.from_entries(m.rows, m.cols, {})
               and len(m.entries) == 0 and not list(m.entries)
               and m.is_zero() and rank(m) == 0 for m in d.values())
    cx = ChainComplexSlice(basis=basis, d=d)
    dims = homology_dims(cx)
    assert [dims[k][0] for k in (0, 1, 2)] == [2, 1, 3]
    assert dims[1][1] is True
    con = chain_contraction(cx)
    assert (con.h[0] == SparseMatrix.from_entries(1, 2, {})
            and con.h[1] == SparseMatrix.from_entries(3, 1, {}))
    assert [con.homology_dim(k) for k in (0, 1, 2)] == [2, 1, 3]
    assert con.projection(2) == from_dense([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(ValueError, match="needs one at each of 1..2"):
        ChainComplexSlice(basis=basis, d={})


def test_slice_refuses_a_gap_in_its_degrees():
    with pytest.raises(ValueError, match="leave a gap"):
        ChainComplexSlice(
            basis={0: ("a",), 2: ("c",)},
            d={2: SparseMatrix.from_entries(0, 1, {})},
        )


@pytest.mark.parametrize("keep", [(1,), (2,), (1, 2, 3), (0, 1, 2)])
def test_slice_refuses_a_missing_or_extra_differential(keep):
    zero = {k: SparseMatrix.from_entries(1, 1, {}) for k in range(4)}
    with pytest.raises(ValueError, match="needs one at each of 1..2"):
        ChainComplexSlice(
            basis={0: ("a",), 1: ("b",), 2: ("c",)},
            d={k: zero[k] for k in keep},
        )


def test_reliable_degrees_are_exactly_the_interior_ones():
    # dims 1, 2, 2, 1 with every differential zero: H_k = C_k everywhere,
    # and only a degree with both neighbours in the slice is reliable
    dims = (1, 2, 2, 1)
    cx = ChainComplexSlice(
        basis={k + 3: tuple(range(n)) for k, n in enumerate(dims)},
        d={k: SparseMatrix.from_entries(dims[k - 4], dims[k - 3], {})
           for k in range(4, 7)},
    )
    assert cx.degrees == (3, 6)
    assert homology_dims(cx) == {3: (1, False), 4: (2, True), 5: (2, True), 6: (1, False)}


def test_not_a_complex_rejected():
    with pytest.raises(NotAComplexError):
        ChainComplexSlice(
            basis={0: ("a",), 1: ("b",), 2: ("c",)},
            d={1: from_dense([[1]]),
               2: from_dense([[1]])},
        )


def test_degree_out_of_range():
    with pytest.raises(KeyError, match="^5$"):
        chain_contraction(_two_term_acyclic()).projection(5)


def test_homology_invariant_under_basis_order():
    mat = from_dense([[1, 1, 0], [0, 1, 1]])
    cx1 = ChainComplexSlice({0: ("a", "b"), 1: ("x", "y", "z")}, {1: mat})
    permuted = from_dense([[0, 1, 1], [1, 1, 0]])
    cx2 = ChainComplexSlice({0: ("b", "a"), 1: ("z", "y", "x")}, {1: permuted})
    assert {k: v[0] for k, v in homology_dims(cx1).items()} == \
           {k: v[0] for k, v in homology_dims(cx2).items()}


def test_sparse_matrix_compose_shapes():
    a = from_dense([[1, 2], [0, 1]])
    b = from_dense([[1], [3]])
    assert to_dense(a.compose(b)) == [[Fraction(7)], [Fraction(3)]]
    with pytest.raises(ValueError):
        b.compose(a)
    # Fraction matrices, some with empty or cancelling rows, against the
    # dense product
    rng = random.Random(8)
    entry = lambda: Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 4))
    for case in range(40):
        n, k, m = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)
        left = [[entry() if rng.random() < 0.4 else 0 for _ in range(k)]
                for _ in range(n)]
        right = [[entry() if rng.random() < 0.4 else 0 for _ in range(m)]
                 for _ in range(k)]
        if k > 1:   # row 0 of the product cancels to zero
            x = entry()
            left[0] = [x, -x] + [0] * (k - 2)
            right[0] = right[1][:]
        product = from_dense(left).compose(from_dense(right))
        assert product == from_dense(dense_product(left, right)), case
        assert to_dense(product) == dense_product(left, right), case


def _unimodular_pair(rng, n):
    """A random integer matrix U with integer inverse, built from row moves."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    u_inv = [row[:] for row in u]
    for _ in range(3 * n):
        if n < 2:
            break
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        for row in u:               # U <- U (I + c e_ij): column j += c column i
            row[j] += c * row[i]
        u_inv[i] = [a - c * b for a, b in zip(u_inv[i], u_inv[j])]
    return from_dense(u), from_dense(u_inv)


def _random_complex(rng, boundaries, homology, scaled=False):
    """A slice over degrees 0..len-1 with the given dim B_k and dim H_k.

    Degree k splits as B_k + H_k + B'_k with d sending B'_k onto B_{k-1} by
    the identity; a random unimodular change of basis in each degree then
    hides the splitting.  With ``scaled``, d_k is multiplied by 1/(k + 1), so
    its rows carry denominators (d∘d = 0 still holds).
    """
    top = len(homology) - 1
    dims = [boundaries[k] + homology[k] + (boundaries[k - 1] if k else 0)
            for k in range(top + 1)]
    change = [_unimodular_pair(rng, n) for n in dims]
    d = {}
    for k in range(1, top + 1):
        offset = dims[k] - boundaries[k - 1]
        std = SparseMatrix.from_entries(
            dims[k - 1], dims[k],
            {(j, offset + j): 1 for j in range(boundaries[k - 1])})
        d[k] = change[k - 1][0].compose(std).compose(change[k][1])
        if scaled:
            d[k] = SparseMatrix.from_entries(
                d[k].rows, d[k].cols,
                {rc: val * Fraction(1, k + 1) for rc, val in d[k].entries})
    return ChainComplexSlice({k: tuple(range(dims[k])) for k in range(top + 1)}, d)


@pytest.mark.parametrize("boundaries,homology", [
    ((1, 2, 1, 0), (0, 0, 0, 0)),
    ((2, 1, 2, 0), (1, 0, 2, 1)),
    ((3, 3, 0, 2, 0), (0, 2, 1, 0, 3)),
])
def test_chain_contraction_of_random_complexes(boundaries, homology):
    # scaled: the same complex with Fraction entries, which starts each
    # elimination row from an lcm-scaled transform
    for scaled in (False, True):
        rng = random.Random(sum(boundaries) * 31 + sum(homology))
        cx = _random_complex(rng, boundaries, homology, scaled)
        con = chain_contraction(cx)
        dims = homology_dims(cx)
        lo, hi = cx.degrees
        pi = {k: con.projection(k) for k in range(lo, hi + 1)}
        for k in range(lo, hi + 1):
            assert dims[k][0] == homology[k]
            assert con.homology_dim(k) == homology[k]
            assert rank(pi[k]) == homology[k]
            assert pi[k].compose(pi[k]) == pi[k]
            if k > lo:
                assert cx.d[k].compose(pi[k]).is_zero()      # π lands on cycles
            if k < hi:
                assert pi[k].compose(cx.d[k + 1]).is_zero()  # π kills boundaries
                assert rank(con.h[k]) == rank(cx.d[k + 1])
                assert con.h[k].compose(pi[k]).is_zero()
                assert pi[k + 1].compose(con.h[k]).is_zero()
            if k + 1 < hi:
                assert con.h[k + 1].compose(con.h[k]).is_zero()


def test_chain_contraction_of_acyclic_two_term():
    con = chain_contraction(_two_term_acyclic())
    assert to_dense(con.h[0]) == [[Fraction(1)]]
    assert con.projection(0).is_zero() and con.projection(1).is_zero()


def _exact_entries(mat):
    return all(type(val) in (int, Fraction) for _, val in mat.entries)


def test_chain_contraction_of_integer_complexes_stays_exact():
    # integer differentials: every division must give a Fraction, not a float
    for cx in (_two_term_acyclic(), stripe("mixed", 2, 5)):
        con = chain_contraction(cx)
        lo, hi = cx.degrees
        for k in range(lo, hi + 1):
            pi = con.projection(k)
            assert _exact_entries(pi), k
            assert pi.compose(pi) == pi, k
            if k > lo:
                assert cx.d[k].compose(pi).is_zero(), k
            if k < hi:
                assert _exact_entries(con.h[k]), k
                assert pi.compose(cx.d[k + 1]).is_zero(), k
            assert rank(pi) == con.homology_dim(k), k
    # the e = n + 2 stripe is acyclic in degrees 2..4
    assert [con.homology_dim(k) for k in range(2, 5)] == [0, 0, 0]
