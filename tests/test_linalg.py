import itertools
import random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from mdsrepair import linalg
from mdsrepair.errors import BadShape, LevelMismatch
from mdsrepair.gf import build_tower
from mdsrepair.linalg import (
    Matrix,
    _RANK_TABLE_CAP,
    _elimination_ranks,
    _rank_table,
    batched_rank,
    canonical_points,
    gaussian_binomial,
    intersections,
    kernels,
    projective_point_array,
    projective_point_count,
    rref_blocks,
)

from rref_oracle import meet_dim_oracle, rref_oracle, span_oracle

F2 = build_tower(2, 1, 1).base
F3 = build_tower(3, 1, 1).base
F5 = build_tower(5, 1, 1).base
F4 = build_tower(2, 2, 1).base
F9 = build_tower(3, 2, 1).base
F16 = build_tower(2, 4, 1).base


def _rank(m):
    return batched_rank(m.field, m.array[None])[0]


def _rref(field, a):
    """(reduced, rank, pivots) of one matrix, as a batch of one."""
    reduced, ranks, is_piv = _elimination_ranks(
        field, np.array(a, dtype=np.int64)[None])
    return reduced[0], int(ranks[0]), tuple(np.flatnonzero(is_piv[0]).tolist())


def _first(bases, is_piv):
    """Block 0 of a (bases, pivot mask) stack: (basis, pivots)."""
    pivots = tuple(np.flatnonzero(is_piv[0]).tolist())
    return bases[0, :len(pivots)], pivots


def _kernel(field, m):
    return _first(*kernels(field, np.asarray(m)[None]))


def _meet(field, a, b):
    return _first(*intersections(field, np.asarray(a)[None],
                                 np.asarray(b)[None]))


def _rows_of(field, d, count, rng):
    return np.array([[rng.randrange(field.order) for _ in range(d)]
                     for _ in range(count)], dtype=np.int64).reshape(count, d)


# -- reference routes: the eliminations kernels and intersections replaced -----


def _kernel_oracle(field, m):
    """One basis row per free column of the oracle RREF of m, reduced again."""
    r, _, pivots = rref_oracle(field, m)
    d = m.shape[1]
    free = [c for c in range(d) if c not in pivots]
    rows = np.zeros((len(free), d), dtype=np.int64)
    for k, f in enumerate(free):
        rows[k, f] = 1
        for i, pc in enumerate(pivots):
            rows[k, pc] = field.arr_neg(r[i, f])
    return span_oracle(field, rows)


def _sum_oracle(field, a, b):
    return span_oracle(field, np.vstack([a, b]))


def _annihilator_oracle(field, s):
    """{y : x . y = 0 for all x in span s} under the standard bilinear form."""
    if len(s) == 0:
        return np.eye(s.shape[1], dtype=np.int64)
    return _kernel_oracle(field, s)


def _intersection_oracle(field, a, b):
    """(a^o + b^o)^o: three annihilators and a sum."""
    return _annihilator_oracle(field, _sum_oracle(
        field, _annihilator_oracle(field, a), _annihilator_oracle(field, b)))


def _row_space(field, rows, width=None):
    """Oracle: the row space as an explicit set of coefficient combinations."""
    out = set()
    k = len(rows)
    if width is None:
        width = len(rows[0])
    for coeffs in itertools.product(range(field.order), repeat=k):
        v = np.zeros(width, dtype=np.int64)
        for c, row in zip(coeffs, rows):
            # v + c row, as v - (-c) row
            v = field.arr_sub(v, field.arr_mul(field.arr_neg(c), np.asarray(row)))
        out.add(tuple(int(x) for x in v))
    return out


def test_rref_identity_and_zero():
    ident = np.eye(3, dtype=np.int64)
    r, rank, piv = _rref(F3, ident)
    assert np.array_equal(r, ident) and rank == 3 and piv == (0, 1, 2)
    z = np.zeros((2, 4), dtype=np.int64)
    r, rank, piv = _rref(F3, z)
    assert np.array_equal(r, z) and rank == 0 and piv == ()


def test_rref_rank_with_row_space_oracle():
    # [[1,2],[2,1]] over F_3 is singular: the second row is twice the first,
    # so the row space has 3 elements and the rank is 1
    rows = [[1, 2], [2, 1]]
    assert len(_row_space(F3, rows)) == 3
    assert _rref(F3, rows)[1] == 1
    # a genuinely invertible companion
    rows2 = [[1, 2], [2, 2]]
    assert len(_row_space(F3, rows2)) == 9
    assert _rref(F3, rows2)[1] == 2


def _random_invertible(field, d, rng):
    while True:
        a = np.array([[rng.randrange(field.order) for _ in range(d)]
                      for _ in range(d)], dtype=np.int64)
        if batched_rank(field, a[None])[0] == d:
            return a


def test_rref_canonical_under_row_operations():
    rng = random.Random(20240811)
    trials = 0
    for field in (F2, F3, F5):
        for _ in range(350):
            rows = rng.randrange(1, 5)
            cols = rng.randrange(1, 7)
            a = np.array([[rng.randrange(field.order) for _ in range(cols)]
                          for _ in range(rows)], dtype=np.int64)
            p = _random_invertible(field, rows, rng)
            ra = _rref(field, a)[0]
            rpa = _rref(field, field.matmul(p, a))[0]
            assert np.array_equal(ra, rpa)
            trials += 1
    assert trials >= 1000


def test_kernel_basics():
    assert len(_kernel(F3, np.eye(3, dtype=np.int64))[0]) == 0
    full, pivots = _kernel(F3, np.zeros((1, 4), dtype=np.int64))
    assert np.array_equal(full, np.eye(4)) and pivots == (0, 1, 2, 3)
    # full-row-rank l x (r*l) matrix has kernel of dimension (r-1)*l
    m = Matrix(F3, [[1, 0, 1, 2, 0, 1], [0, 1, 2, 2, 1, 0]])
    assert _rank(m) == 2
    k, _ = _kernel(F3, m.array)
    assert len(k) == 4
    assert not F3.matmul(m.array, k.T).any()


def test_contains_against_multiplication_oracle():
    # v lies in the kernel's span exactly when m v^T = 0
    rng = random.Random(7)
    for _ in range(100):
        rows = rng.randrange(1, 4)
        cols = rng.randrange(2, 6)
        m = _rows_of(F5, cols, rows, rng)
        k, _ = _kernel(F5, m)
        v = np.array([rng.randrange(5) for _ in range(cols)], dtype=np.int64)
        inside = rref_oracle(F5, np.vstack([k, v]))[1] == len(k)
        assert inside == (not F5.matmul(m, v.reshape(-1, 1)).any())


def test_intersect_dim_examples():
    s = np.array([[1, 0, 0, 0], [0, 1, 0, 0]])
    t = np.array([[0, 0, 1, 0], [0, 0, 0, 1]])
    u = np.array([[0, 1, 0, 0], [0, 0, 1, 0]])
    for b, dim in ((s, 2), (t, 0), (u, 1)):
        assert len(_meet(F3, s, b)[0]) == dim == meet_dim_oracle(F3, s, b)
    with pytest.raises(BadShape):
        intersections(F3, s[None], np.eye(3, dtype=np.int64)[None])


def test_intersect_dim_against_membership_oracle():
    rng = random.Random(99)
    for field in (F2, F3):
        for _ in range(40):
            d = rng.randrange(2, 5)
            a = span_oracle(field, _rows_of(field, d, rng.randrange(1, d + 1),
                                            rng))
            b = span_oracle(field, _rows_of(field, d, rng.randrange(1, d + 1),
                                            rng))
            if field.order ** len(a) > 10 ** 4:
                continue
            common = sum(1 for v in _row_space(field, list(a), d)
                         if rref_oracle(field, np.vstack([b, v]))[1] == len(b))
            assert field.order ** len(_meet(field, a, b)[0]) == common


def test_intersection_subspace_consistent_with_dim():
    rng = random.Random(5)
    for _ in range(60):
        d = rng.randrange(2, 6)
        a = _rows_of(F3, d, rng.randrange(1, d + 1), rng)
        b = _rows_of(F3, d, rng.randrange(1, d + 1), rng)
        inter, _ = _meet(F3, a, b)
        assert len(inter) == meet_dim_oracle(F3, a, b)
        for v in inter:
            assert meet_dim_oracle(F3, a, v[None]) == 1
            assert meet_dim_oracle(F3, b, v[None]) == 1
        assert len(_sum_oracle(F3, a, b)) == \
            rref_oracle(F3, a)[1] + rref_oracle(F3, b)[1] - len(inter)


def test_annihilator_dimensions():
    assert len(_annihilator_oracle(F5, np.array([[1, 2, 3, 4]]))) == 3
    assert len(_annihilator_oracle(F5, np.zeros((0, 4), dtype=np.int64))) == 4
    assert len(_annihilator_oracle(F5, np.eye(4, dtype=np.int64))) == 0


# -- enumeration ---------------------------------------------------------------


def _enumerate(q, k, d, start=0, stop=None):
    """Every matrix of the canonical RREF enumeration, one by one."""
    return [m for _, block in rref_blocks(q, k, d, start, stop)
            for m in block]


def test_enumerate_rref_k_equals_d():
    ms = _enumerate(3, 2, 2)
    assert len(ms) == 1
    assert np.array_equal(ms[0], np.eye(2))


def test_enumerate_rref_full_census_2_4_3():
    ms = _enumerate(3, 2, 4)
    assert len(ms) == 130 == gaussian_binomial(4, 2, 3)
    seen_matrices = {m.tobytes() for m in ms}
    assert len(seen_matrices) == 130
    for m in ms:
        r, rank, _ = rref_oracle(F3, m)
        assert rank == 2 and np.array_equal(r, m)  # already canonical
    bases, is_piv = kernels(F3, np.stack(ms))
    assert (is_piv.sum(axis=1) == 2).all()
    found = {b[:2].tobytes() for b in bases}
    assert len(found) == 130  # kernels cover each codim-2 subspace once


def test_enumerate_rref_deterministic_and_splittable():
    full = [m.tobytes() for m in _enumerate(3, 2, 4)]
    again = [m.tobytes() for m in _enumerate(3, 2, 4)]
    assert full == again
    split = [m.tobytes() for m in _enumerate(3, 2, 4, 0, 57)]
    split += [m.tobytes() for m in _enumerate(3, 2, 4, 57, 130)]
    assert split == full
    # chunks of any size list the same matrices with the right base index
    chunked = list(rref_blocks(3, 2, 4, 10, 130, chunk=7))
    assert [base for base, _ in chunked] == \
        list(itertools.accumulate([10] + [len(b) for _, b in chunked[:-1]]))
    assert [m.tobytes() for _, b in chunked for m in b] == full[10:]


def test_enumerate_rref_large_count_via_blocks():
    total = sum(blk.shape[0] for _, blk in rref_blocks(5, 2, 6))
    assert total == 508431 == gaussian_binomial(6, 2, 5)


def test_enumerate_rref_bad_shape():
    with pytest.raises(BadShape):
        list(rref_blocks(3, 3, 2))
    with pytest.raises(BadShape):
        list(rref_blocks(3, 1, 2, 0, 99))


def test_gaussian_binomial_values():
    assert gaussian_binomial(2, 1, 3) == 4 == projective_point_count(3, 2)
    assert gaussian_binomial(1, 2, 3) == 0
    assert gaussian_binomial(0, 0, 7) == 1
    with pytest.raises(ValueError):
        gaussian_binomial(-1, 0, 3)


def test_gaussian_binomial_counts_subspaces_oracle():
    # enumerate every 2x4 matrix over F_3, collect distinct rank-2 row spaces
    every = np.array(list(itertools.product(range(3), repeat=8)),
                     dtype=np.int64).reshape(-1, 2, 4)
    reduced, ranks, _ = _elimination_ranks(F3, every.copy())
    spaces = {r.tobytes() for r in reduced[ranks == 2]}
    assert len(spaces) == gaussian_binomial(4, 2, 3) == 130


# -- batched rank ----------------------------------------------------------------


@pytest.mark.parametrize("field", [F2, F3, F5, F4], ids=["F2", "F3", "F5", "F4"])
def test_batched_rank_matches_single(field):
    rng = random.Random(field.order)
    mats = []
    for _ in range(120):
        r = rng.randrange(1, 5)
        c = rng.randrange(1, 5)
        mats.append(np.array([[rng.randrange(field.order) for _ in range(4)]
                              for _ in range(4)], dtype=np.int64)[:r, :c])
    for shape in {(m.shape) for m in mats}:
        group = [m for m in mats if m.shape == shape]
        got = batched_rank(field, np.stack(group))
        want = [rref_oracle(field, m)[1] for m in group]
        assert got.tolist() == want


@pytest.mark.parametrize("field,rows,cols",
                         [(F2, 3, 3), (F4, 2, 2), (F5, 2, 2), (F5, 1, 6),
                          (F9, 2, 2)],
                         ids=["F2-3x3", "F4-2x2", "F5-2x2", "F5-1x6", "F9-2x2"])
def test_rank_table_is_exhaustively_right(field, rows, cols):
    q, size = field.order, rows * cols
    table = _rank_table(field, rows, cols)
    assert table.dtype == np.uint8 and table.shape == (q ** size,)
    # decode every code independently: entry k of the row-major matrix is
    # base-q digit k of the code
    for code in range(q ** size):
        m = np.array([code // q ** k % q for k in range(size)],
                     dtype=np.int64).reshape(rows, cols)
        assert table[code] == rref_oracle(field, m)[1], m


def test_blocks_over_the_rank_table_cap_are_eliminated():
    assert F5.order ** 9 > _RANK_TABLE_CAP
    rng = np.random.default_rng(9)
    full = rng.integers(0, 5, (40, 3, 3))
    low = np.array([F5.matmul(rng.integers(0, 5, (3, 1)),
                              rng.integers(0, 5, (1, 3))) for _ in range(20)])
    blocks = np.concatenate([full, low])
    before = blocks.copy()
    got = batched_rank(F5, blocks)
    assert got.tolist() == _elimination_ranks(F5, blocks.copy())[1].tolist()
    assert got.tolist() == [rref_oracle(F5, b)[1] for b in blocks]
    assert np.array_equal(blocks, before)
    assert (F5, 3, 3) not in linalg._rank_tables


@pytest.mark.parametrize("shape", [(7, 2, 2), (7, 3, 5), (0, 2, 2), (0, 3, 3),
                                   (5, 0, 2), (5, 2, 0)])
def test_batched_rank_result_type(shape):
    blocks = np.random.default_rng(1).integers(0, 5, shape)
    before = blocks.copy()
    got = batched_rank(F5, blocks)
    assert got.dtype == np.int64 and got.shape == (shape[0],)
    if 0 in shape:
        assert not got.any()
    assert np.array_equal(blocks, before)


def test_rank_table_is_filled_once(monkeypatch):
    blocks = np.random.default_rng(4).integers(0, 9, (30, 2, 2))
    first = batched_rank(F9, blocks)
    table = _rank_table(F9, 2, 2)

    def refill(field, a):
        raise AssertionError("rank table refilled")

    monkeypatch.setattr(linalg, "_elimination_ranks", refill)
    assert batched_rank(F9, blocks).tolist() == first.tolist()
    assert _rank_table(F9, 2, 2) is table


# -- solving ----------------------------------------------------------------------


def test_inverse_and_solve():
    # the inverse of A is the right half of the RREF of [A | I], exactly
    # when the left half reduces to I
    eye = np.eye(2, dtype=np.int64)
    m = np.array([[1, 2], [3, 4]])
    r, _, pivots = _rref(F5, np.hstack([m, eye]))
    assert pivots == (0, 1)
    assert np.array_equal(F5.matmul(m, r[:, 2:]), eye)
    assert _rref(F5, np.hstack([[[1, 2], [2, 4]], eye]))[2][:2] != (0, 1)
    # a full-column-rank system a @ x = b: reducing [a | b] leaves the
    # identity over x and zero rows below it
    a = np.array([[1, 0], [2, 1], [1, 1]])
    x = np.array([[2, 1], [0, 2]])
    r, _, pivots = rref_oracle(F5, np.hstack([a, F5.matmul(a, x)]))
    assert pivots == (0, 1)
    assert np.array_equal(r[:2, 2:], x) and not r[2:].any()


@pytest.mark.parametrize("field", [F5, F9], ids=["F5", "F9"])
@pytest.mark.parametrize("bad", [-1, 9, 2 ** 40])
def test_entries_outside_the_field_are_refused(field, bad):
    # the array kernel indexes tables by code: a stray entry must not wrap
    row = [[1, bad, 0]]
    good = [[1, 0, 0]]
    for call in (lambda: Matrix(field, row),
                 lambda: kernels(field, [row]),
                 lambda: intersections(field, [row], [good]),
                 lambda: intersections(field, [good], [row])):
        with pytest.raises(LevelMismatch):
            call()


@pytest.mark.parametrize("bad", [-1, 5, 2 ** 40])
@pytest.mark.parametrize("size", [2, 3], ids=["2x2-table", "3x3-elimination"])
def test_batched_rank_refuses_entries_outside_the_field(size, bad):
    # an entry >= q would fold into another matrix's table code on the
    # table path and index past the operation tables on the other
    blocks = np.zeros((3, size, size), dtype=np.int64)
    blocks[1, 0, 0] = bad
    with pytest.raises(LevelMismatch):
        batched_rank(F5, blocks)


# -- projective points -------------------------------------------------------------


def test_canonical_point():
    pts = canonical_points(F5, np.array([[0, 2, 4], [3, 0, 1], [1, 1, 1]]))
    assert pts.tolist() == [[0, 1, 2], [1, 0, 2], [1, 1, 1]]
    assert canonical_points(F5, np.array([0, 2, 4])).tolist() == [0, 1, 2]


@pytest.mark.parametrize("field,dim", [(F2, 3), (F3, 2), (F5, 2), (F4, 2)])
def test_projective_point_array(field, dim):
    pts = projective_point_array(field, dim)
    assert len(pts) == projective_point_count(field.order, dim)
    seen = {p.tobytes() for p in pts}
    assert len(seen) == len(pts)
    assert np.array_equal(canonical_points(field, pts), pts)


# -- property tests -----------------------------------------------------------------


@st.composite
def _subspace_pair(draw):
    d = draw(st.integers(2, 5))
    rows_a = draw(st.lists(st.lists(st.integers(0, 2), min_size=d, max_size=d),
                           min_size=1, max_size=d))
    rows_b = draw(st.lists(st.lists(st.integers(0, 2), min_size=d, max_size=d),
                           min_size=1, max_size=d))
    return rows_a, rows_b


@settings(max_examples=120, deadline=None)
@given(_subspace_pair())
def test_dimension_formula_property(pair):
    a, b = (np.array(rows, dtype=np.int64) for rows in pair)
    assert len(_sum_oracle(F3, a, b)) + len(_meet(F3, a, b)[0]) == \
        rref_oracle(F3, a)[1] + rref_oracle(F3, b)[1]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.integers(0, 4), min_size=4, max_size=4),
                min_size=1, max_size=4))
def test_rref_idempotent_property(rows):
    r, rank, piv = _rref(F5, rows)
    r2, rank2, piv2 = _rref(F5, r)
    assert np.array_equal(r2, r) and rank2 == rank and piv2 == piv


@st.composite
def _block_stack(draw):
    """A (batch, rows, cols) stack, possibly empty or forced rank-deficient.

    A deficient stack multiplies k x t by t x c factors with t < min(k, c),
    so every block has rank at most t.
    """
    field = draw(st.sampled_from([F5, F9, F16]))
    nb = draw(st.integers(0, 6))
    k, c = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    q = field.order
    if min(k, c) > 0 and draw(st.booleans()):
        t = draw(st.integers(0, min(k, c) - 1))
        blocks = [field.matmul(rng.integers(0, q, (k, t)),
                               rng.integers(0, q, (t, c))) for _ in range(nb)]
        blocks = np.array(blocks, dtype=np.int64).reshape(nb, k, c)
        return field, blocks, t
    return field, rng.integers(0, q, (nb, k, c)), min(k, c)


@settings(max_examples=150, deadline=None)
@given(_block_stack())
def test_batched_rank_agrees_with_rref(case):
    field, blocks, bound = case
    got = batched_rank(field, blocks)
    want = [rref_oracle(field, b)[1] for b in blocks]
    assert got.shape == (blocks.shape[0],)
    assert got.tolist() == want
    assert all(r <= bound for r in want)


@settings(max_examples=100, deadline=None)
@given(_block_stack())
def test_gauss_jordan_stack_matches_rref(case):
    # the batched elimination returns each block's unique RREF, its rank
    # and its pivot columns, exactly as the single-matrix elimination does
    field, blocks, _ = case
    assume(blocks.shape[0] > 0)
    before = blocks.copy()
    reduced, ranks, is_piv = _elimination_ranks(field, blocks)
    assert ranks.dtype == np.int64
    for b, red, rank, mask in zip(before, reduced, ranks, is_piv):
        want, want_rank, want_piv = rref_oracle(field, b)
        assert np.array_equal(red, want)
        assert rank == want_rank
        assert tuple(np.nonzero(mask)[0]) == want_piv


# -- one elimination per question, against the reference routes -------------------


def _rows(draw, field, count, d):
    """``count`` rows of length d, mixing random, zero and repeated rows."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    out = []
    for _ in range(count):
        kind = draw(st.sampled_from(["random", "random", "zero", "repeat"]))
        if kind == "zero" or (kind == "repeat" and not out):
            out.append(np.zeros(d, dtype=np.int64))
        elif kind == "repeat":
            out.append(out[draw(st.integers(0, len(out) - 1))].copy())
        else:
            out.append(rng.integers(0, field.order, d))
    return np.array(out, dtype=np.int64).reshape(count, d)


_ORACLE_FIELDS = [F2, F3, F4, F5, F9]


@st.composite
def _matrix_case(draw):
    field = draw(st.sampled_from(_ORACLE_FIELDS))
    d = draw(st.integers(1, 7))
    return field, _rows(draw, field, draw(st.integers(0, d + 1)), d)


@st.composite
def _subspace_case(draw):
    """Two generator row arrays of one width, often zero, full or nested."""
    field = draw(st.sampled_from(_ORACLE_FIELDS))
    d = draw(st.integers(1, 7))

    def some():
        return _rows(draw, field, draw(st.integers(0, d + 1)), d)

    kind = draw(st.sampled_from(["random", "zero", "full", "equal", "nested"]))
    a = some()
    if kind == "zero":
        b = np.zeros((0, d), dtype=np.int64)
    elif kind == "full":
        b = np.eye(d, dtype=np.int64)
    elif kind == "equal":
        b = span_oracle(field, a)
    elif kind == "nested":
        b = np.vstack([a, some()])
    else:
        b = some()
    return (field, a, b) if draw(st.booleans()) else (field, b, a)


def _same_subspace(got, want):
    # a subspace is its canonical basis: compare the arrays exactly, and
    # the pivot mask with the leading columns of the oracle's rows
    basis, pivots = got
    assert np.array_equal(basis, want)
    assert pivots == tuple(int(np.flatnonzero(row)[0]) for row in want)


@settings(max_examples=300, deadline=None)
@given(_matrix_case())
def test_kernel_matches_free_column_route(case):
    field, m = case
    k = _kernel(field, m)
    _same_subspace(k, _kernel_oracle(field, m))
    assert not field.matmul(m, k[0].T).any()


@settings(max_examples=300, deadline=None)
@given(_subspace_case())
def test_intersection_matches_annihilator_route(case):
    field, a, b = case
    got = _meet(field, a, b)
    _same_subspace(got, _intersection_oracle(field, a, b))
    assert len(got[0]) == meet_dim_oracle(field, a, b)


def test_intersection_edge_cases_match_annihilator_route():
    for field in _ORACLE_FIELDS:
        for d in (1, 4):
            zero = np.zeros((0, d), dtype=np.int64)
            full = np.eye(d, dtype=np.int64)
            line = np.ones((1, d), dtype=np.int64)
            for a, b in itertools.product([zero, full, line], repeat=2):
                _same_subspace(_meet(field, a, b),
                               _intersection_oracle(field, a, b))
    with pytest.raises(BadShape):
        intersections(F3, np.eye(3, dtype=np.int64)[None],
                      np.eye(4, dtype=np.int64)[None])


@st.composite
def _oracle_inputs(draw):
    """A matrix, a second one of the same width and a square one.

    Widths and row counts start at zero; rows mix random, zero and
    repeated ones, so empty and rank-deficient inputs are common.
    """
    field = draw(st.sampled_from(_ORACLE_FIELDS))
    d = draw(st.integers(0, 6))
    a = _rows(draw, field, draw(st.integers(0, d + 1)), d)
    b = _rows(draw, field, draw(st.integers(0, d + 1)), d)
    return field, a, b, _rows(draw, field, d, d)


_EMPTY = np.zeros((0, 3), dtype=np.int64)


@settings(max_examples=300, deadline=None)
@example((F5, _EMPTY, _EMPTY, np.eye(3, dtype=np.int64)))
@example((F9, np.zeros((2, 0), dtype=np.int64), np.zeros((1, 0), dtype=np.int64),
          np.zeros((0, 0), dtype=np.int64)))
@example((F4, np.zeros((2, 3), dtype=np.int64), _EMPTY,
          np.zeros((3, 3), dtype=np.int64)))
@given(_oracle_inputs())
def test_batch_of_one_routes_match_the_oracle(case):
    # every single-matrix question is one batch of one through the stacked
    # elimination; each must give what the oracle loop gives
    field, a, b, sq = case
    d = a.shape[1]
    want, rank, pivots = rref_oracle(field, a)
    got, got_rank, got_pivots = _rref(field, a)
    assert np.array_equal(got, want) and (got_rank, got_pivots) == (rank, pivots)
    reduced, _, is_piv = _elimination_ranks(field, a[None].copy())
    _same_subspace(_first(reduced, is_piv), span_oracle(field, a))
    _same_subspace(_kernel(field, a), _kernel_oracle(field, a))
    _same_subspace(_meet(field, a, b), _intersection_oracle(field, a, b))
    assert len(_meet(field, a, b)[0]) == meet_dim_oracle(field, a, b)
    # an inverse, as the replay forms -(M H_i)^(-1): the RREF of [A | I]
    aug = np.hstack([sq, np.eye(d, dtype=np.int64)])
    r, _, piv = rref_oracle(field, aug)
    got, _, got_piv = _rref(field, aug)
    assert np.array_equal(got, r) and got_piv == piv
    if piv[:d] == tuple(range(d)):
        assert np.array_equal(field.matmul(sq, r[:, d:]), np.eye(d))


@st.composite
def _mixed_stacks(draw):
    """(field, m, a, b): a stack for kernels and a pair for intersections.

    Blocks are products of random k x t and t x d factors for random t, so
    their ranks differ within a stack.  The last two blocks of m are zero
    and [I; 0], and the last two pairs of (a, b) are (0, [I; 0]) and
    ([I; 0], [I; 0]), so every stack has dimensions 0 and d.
    """
    field = draw(st.sampled_from([F5, F9, F16]))
    q = field.order
    d = draw(st.integers(1, 5))
    k = draw(st.integers(d, d + 2))
    nb = draw(st.integers(0, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    full = np.eye(k, d, dtype=np.int64)
    zero = np.zeros_like(full)

    def stack(last):
        blocks = []
        for _ in range(nb):
            t = draw(st.integers(0, d))
            blocks.append(field.matmul(rng.integers(0, q, (k, t)),
                                       rng.integers(0, q, (t, d))))
        return np.array(blocks + last, dtype=np.int64).reshape(-1, k, d)

    return field, stack([zero, full]), stack([zero, full]), \
        stack([full, full])


@settings(max_examples=100, deadline=None)
@given(_mixed_stacks())
def test_stacked_constructors_match_batches_of_one(case):
    # each block of a kernels or intersections stack is its batch of one
    # and the oracle's basis: basis rows on top, zero rows past its
    # dimension, its pivot mask
    field, m, a, b = case
    d = m.shape[2]
    before = [x.copy() for x in (m, a, b)]
    for (bases, is_piv), ones, wants in (
            (kernels(field, m), [_kernel(field, x) for x in m],
             [_kernel_oracle(field, x) for x in m]),
            (intersections(field, a, b),
             [_meet(field, x, y) for x, y in zip(a, b)],
             [_intersection_oracle(field, x, y) for x, y in zip(a, b)])):
        dims = is_piv.sum(axis=1)
        assert bases.shape == (len(ones), d, d)
        assert {0, d} <= set(dims.tolist())
        for block, piv, dim, one, want in zip(bases, is_piv, dims, ones,
                                              wants):
            _same_subspace(_first(block[None], piv[None]), want)
            _same_subspace(one, want)
            assert not block[dim:].any()
    assert all(np.array_equal(x, y) for x, y in zip((m, a, b), before))


def test_kernel_and_intersection_eliminate_once(watch_calls):
    calls = watch_calls(linalg, "_elimination_ranks")
    m = np.array([[1, 2, 0, 4, 1], [0, 1, 1, 0, 3], [1, 3, 1, 4, 4]])
    a = _kernel(F5, m)[0]
    assert len(calls) == 1
    calls.clear()
    _meet(F5, a, np.eye(5, dtype=np.int64))
    assert len(calls) == 1
