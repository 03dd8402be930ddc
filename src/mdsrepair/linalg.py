"""Exact matrices and canonical subspaces over a finite field.

Vectors are row vectors throughout.  A subspace is the row space of its
canonical basis, the reduced row-echelon form with no zero rows, so equal
subspaces have identical bases and equality is a plain array comparison.
A subspace is kept only as such a basis, in a stack of them: a (bases,
pivot mask) pair from :func:`kernels` or :func:`intersections`, each
block's basis over zero rows, or the (n, l, r*l) node bases of a code
skeleton.

The module also provides the canonical enumeration of all rank-k RREF
matrices of a given shape (:func:`rref_blocks`).  Distinct outputs have
distinct row spaces and their kernels range exactly once over all
codimension-k subspaces, which is what the brute-force repair optimizer
scans.  The enumeration order is fixed: pivot column sets in
lexicographic order, then the free entries as a little-endian base-q
counter over the free positions in row-major order, so a stream can be
split by index range across workers and always replays identically.

Ranks of stacks of small blocks (:func:`batched_rank`) come from a table
whenever the block shape has at most ``_RANK_TABLE_CAP`` code matrices:
the table holds the rank of every matrix of that shape, is filled once
per process by the batched column elimination, and answers a stack in
one lookup.  Larger blocks are eliminated.

Every elimination is one batched Gauss-Jordan loop over a stack of
matrices, ``_elimination_ranks``.  Each linear-algebra question is one
elimination of an augmented matrix (kernels reduce [m^T | I],
intersections [[A, A], [B, 0]]), a stack in giving a stack out.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterator, Sequence

import numpy as np

from .errors import BadShape, LevelMismatch, MalformedInput, json_ints
from .gf import Field


def gaussian_binomial(a: int, s: int, q: int) -> int:
    """Number of s-dimensional subspaces of an a-dimensional space over F_q.

    Evaluates the product formula exactly with integer arithmetic; zero
    when a < s.
    """
    if a < 0 or s < 0:
        raise ValueError("gaussian_binomial arguments must be nonnegative")
    if a < s:
        return 0
    num = 1
    den = 1
    for i in range(s):
        num *= q ** a - q ** i
        den *= q ** s - q ** i
    return num // den


def projective_point_count(q: int, dim: int) -> int:
    """Number of projective points of F_q^dim, i.e. (q^dim - 1)/(q - 1)."""
    return gaussian_binomial(dim, 1, q)


def _check_codes(field: Field, a: np.ndarray) -> None:
    # the field's array kernel indexes tables by code, so every entry of an
    # array taken from a caller must be a code of the field
    if a.size and (a.min() < 0 or a.max() >= field.order):
        raise LevelMismatch("entry out of range for the field")


class Matrix:
    """Immutable dense matrix of field element codes."""

    __slots__ = ("field", "_a")

    def __init__(self, field: Field, entries):
        a = np.array(entries, dtype=np.int64)
        if a.ndim != 2:
            raise BadShape("matrix entries must be two-dimensional")
        _check_codes(field, a)
        a.setflags(write=False)
        self.field = field
        self._a = a

    @property
    def array(self) -> np.ndarray:
        return self._a

    @property
    def rows(self) -> int:
        return self._a.shape[0]

    @property
    def cols(self) -> int:
        return self._a.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self._a.shape

    def to_json_dict(self) -> dict:
        return {"rows": self.rows, "cols": self.cols,
                "entries": [int(x) for x in self._a.ravel()]}

    @classmethod
    def from_json_dict(cls, field: Field, obj: dict) -> "Matrix":
        try:
            rows = json_ints(obj["rows"], "matrix rows")
            cols = json_ints(obj["cols"], "matrix cols")
            entries = json_ints(obj["entries"], "matrix entries", 1)
        except (KeyError, TypeError) as exc:
            raise MalformedInput(f"bad matrix object: {exc}") from exc
        for name, size in (("rows", rows), ("cols", cols)):
            if size < 0:
                raise MalformedInput(f"matrix {name} must be nonnegative, "
                                     f"got {size}")
        if len(entries) != rows * cols:
            raise MalformedInput("matrix entry count does not match shape")
        try:
            a = np.array(entries, dtype=np.int64).reshape(rows, cols)
        except (TypeError, ValueError, OverflowError) as exc:
            raise MalformedInput(f"bad matrix entries: {exc}") from exc
        return cls(field, a)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.field == other.field and self.shape == other.shape
                and bool(np.array_equal(self._a, other._a)))

    def __hash__(self):
        return hash((self.field, self.shape, self._a.tobytes()))

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols} over order {self.field.order})"


def _columns(stack: np.ndarray) -> np.ndarray:
    """The rows of a (k, l, d) stack as columns, side by side: (d, k*l)."""
    return np.ascontiguousarray(
        stack.transpose(2, 0, 1).reshape(stack.shape[2], -1))


# Blocks whose shape has at most this many code matrices (q ** (rows*cols))
# get their ranks from a table; larger blocks are eliminated.
_RANK_TABLE_CAP = 1 << 16
_rank_tables: dict = {}


def _elimination_ranks(field: Field, a: np.ndarray):
    """Batched Gauss-Jordan: (reduced, ranks, is_piv) of a stack.

    ``a`` is a (batch, rows, cols) int64 stack used as scratch space, so
    callers pass a copy.  ``reduced`` holds each block's RREF: pivot rows
    first, in pivot order, each pivot column zero outside its row; a
    column's pivot is the first eligible row of its block, swapped up.
    ``ranks`` is an int64 array of length batch and ``is_piv`` a (batch,
    cols) boolean array of pivot columns.  The loop is over columns only,
    so large batches cost a handful of vectorised operations each, and it
    stops once every block has a pivot in each of its rows.
    """
    nb, rows, cols = a.shape
    piv_row = np.zeros(nb, dtype=np.int64)
    is_piv = np.zeros((nb, cols), dtype=bool)
    row_idx = np.arange(rows)[None, :]
    for col in range(cols):
        eligible = (row_idx >= piv_row[:, None]) & (a[:, :, col] != 0)
        sel = np.flatnonzero(eligible.any(axis=1))
        if sel.size == 0:
            continue
        whole = sel.size == nb
        block = a if whole else a[sel]
        at = np.arange(sel.size)
        pr = piv_row[sel]
        pv = eligible[sel].argmax(axis=1)
        if (pv != pr).any():  # swap each pivot row up; a no-op where pv == pr
            block[at, pr], block[at, pv] = block[at, pv], block[at, pr]
        prow = field.arr_mul(block[at, pr],
                             field.arr_inv(block[at, pr, col])[:, None])
        factors = block[:, :, col].copy()
        factors[at, pr] = 0
        block = field.arr_sub(block, field.arr_mul(factors[:, :, None],
                                                   prow[:, None, :]))
        block[at, pr] = prow
        if whole:
            a = block
        else:
            a[sel] = block
        piv_row[sel] += 1
        is_piv[sel, col] = True
        if (piv_row == rows).all():
            break  # no row is left to pivot in a later column
    return a, piv_row, is_piv


def _code_weights(q: int, rows: int, cols: int) -> np.ndarray:
    """Weight q ** (i*cols + j) of entry (i, j) in a rank-table code."""
    return q ** np.arange(rows * cols, dtype=np.int64).reshape(rows, cols)


def _rank_table(field: Field, rows: int, cols: int) -> np.ndarray:
    """Rank of every rows x cols code matrix, indexed by its base-q code.

    The code of a matrix reads its row-major entries as a little-endian
    base-q number: the sum of each entry times its ``_code_weights``.
    Filled once per process by elimination over all of them and published
    in one dict assignment.
    """
    key = (field, rows, cols)
    table = _rank_tables.get(key)
    if table is None:
        q = field.order
        size = rows * cols
        codes = np.arange(q ** size, dtype=np.int64)
        every = (codes[:, None] // _code_weights(q, rows, cols).ravel()) % q
        table = _elimination_ranks(
            field, every.reshape(-1, rows, cols))[1].astype(np.uint8)
        table.setflags(write=False)
        _rank_tables[key] = table
    return table


def batched_rank(field: Field, blocks: np.ndarray) -> np.ndarray:
    """Ranks of a stack of small matrices.

    ``blocks`` has shape (batch, rows, cols) and holds codes of ``field``
    (any other entry raises LevelMismatch); returns an int64 array of
    length batch.  When q ** (rows*cols) is at most ``_RANK_TABLE_CAP``
    every rank is one lookup in a table of all matrices of that shape,
    filled by elimination on first use; larger blocks are eliminated in
    lockstep, column by column.
    """
    a = np.asarray(blocks, dtype=np.int64)
    if a.ndim != 3:
        raise BadShape("expected a (batch, rows, cols) array")
    _check_codes(field, a)
    nb, rows, cols = a.shape
    if nb == 0 or rows == 0 or cols == 0:
        return np.zeros(nb, dtype=np.int64)
    q = field.order
    size = rows * cols
    if q ** size <= _RANK_TABLE_CAP:
        table = _rank_table(field, rows, cols)
        idx = a.reshape(nb, size) @ _code_weights(q, rows, cols).ravel()
        return table[idx].astype(np.int64)
    return _elimination_ranks(field, a.copy())[1]


def _vanishing_rows(reduced: np.ndarray, is_piv: np.ndarray, split: int):
    """Span of each RREF block's rows whose first ``split`` columns vanish.

    Those are the pivot rows past the last pivot left of ``split``.  Every
    pivot column is zero outside its own row, so their right parts are
    already the canonical basis of the span, with pivots shifted by
    ``split``.  Returns (bases, pivot mask): each block's basis moved to
    the top, over zero rows, and the mask of its pivot columns.
    """
    _, rows, cols = reduced.shape
    skip = is_piv[:, :split].sum(axis=1)
    mask = is_piv[:, split:]
    size = min(rows, cols - split)
    at = np.minimum(skip[:, None] + np.arange(size), rows - 1)
    bases = np.take_along_axis(reduced[:, :, split:], at[:, :, None], axis=1)
    bases[np.arange(size) >= mask.sum(axis=1)[:, None]] = 0
    return bases, mask


def kernels(field: Field, stack):
    """Right kernels {v : m v^T = 0} of a (k, rows, d) stack of matrices.

    One elimination of every block's [m^T | I]: a row whose m^T part
    reduces to zero records a v with m v^T = 0, and the identity keeps
    all rows independent, so those rows are exactly a kernel basis.
    Returns (bases, pivot mask) of shapes (k, d, d) and (k, d).
    """
    m = np.asarray(stack, dtype=np.int64)
    _check_codes(field, m)
    k, rows, d = m.shape
    eye = np.broadcast_to(np.eye(d, dtype=np.int64), (k, d, d))
    reduced, _, is_piv = _elimination_ranks(
        field, np.concatenate([m.swapaxes(1, 2), eye], axis=2))
    return _vanishing_rows(reduced, is_piv, rows)


def null_columns(field: Field, reduced: np.ndarray,
                 is_piv: np.ndarray) -> np.ndarray:
    """Right kernel bases of a stack of RREF blocks, as columns.

    ``reduced`` is a (k, m, d) stack of blocks of rank m and ``is_piv``
    their (k, d) pivot masks.  Block t's kernel {v : R_t v^T = 0} has the
    d x (d - m) basis K_t that is the identity on the rows of the free
    columns, each ascending, and minus R_t's free part on the rows of the
    pivot columns.  A block of lower rank gets an unspecified K_t.
    """
    k, m, d = reduced.shape
    cols = np.argsort(~is_piv, axis=1, kind="stable")
    piv, free = cols[:, :m], cols[:, m:]
    out = np.zeros((k, d, d - m), dtype=np.int64)
    at = np.arange(k)[:, None]
    out[at, free, np.arange(d - m)] = 1
    out[at, piv] = field.arr_neg(
        np.take_along_axis(reduced, free[:, None, :], axis=2))
    return out


def intersections(field: Field, a, b):
    """Row-space intersections of two (k, ., d) stacks of bases, pairwise.

    One elimination of every block's Zassenhaus form [[A, A], [B, 0]]: a
    row whose left half reduces to zero is (x A + y B, x A) with
    x A = -y B, so its right half lies in both row spaces, and those
    right halves span the intersection.  Returns (bases, pivot mask).
    """
    a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
    if a.ndim != 3 or b.ndim != 3 or a.shape[::2] != b.shape[::2]:
        raise BadShape("expected two (k, rows, d) stacks of bases")
    stacked = np.concatenate([np.concatenate([a, a], axis=2),
                              np.concatenate([b, np.zeros_like(b)], axis=2)],
                             axis=1)
    _check_codes(field, stacked)
    reduced, _, is_piv = _elimination_ranks(field, stacked)
    return _vanishing_rows(reduced, is_piv, a.shape[2])


def canonical_points(field: Field, a: np.ndarray) -> np.ndarray:
    """Rows of a (..., d) code array scaled to lead with 1 (none may be 0)."""
    lead = np.take_along_axis(a, (a != 0).argmax(axis=-1)[..., None], axis=-1)
    return field.arr_mul(a, field.arr_inv(lead))


def projective_point_array(field: Field, dim: int) -> np.ndarray:
    """All canonical projective points of F_q^dim, in a fixed order.

    Points are grouped by the position of the leading 1 (ascending), and
    within a group the tail coordinates count up as a little-endian base-q
    number.  Row count is projective_point_count(q, dim).  The array is
    read-only and built once per (q, dim).
    """
    return _projective_points(field.order, int(dim))


@functools.lru_cache(maxsize=64)
def _projective_points(q: int, dim: int) -> np.ndarray:
    rows = []
    for lead in range(dim):
        tail = dim - lead - 1
        count = q ** tail
        block = np.zeros((count, dim), dtype=np.int64)
        block[:, lead] = 1
        c = np.arange(count, dtype=np.int64)
        for t in range(tail):
            block[:, lead + 1 + t] = (c // q ** t) % q
        rows.append(block)
    out = np.vstack(rows) if rows else np.zeros((0, dim), dtype=np.int64)
    out.setflags(write=False)
    return out


# ---------------------------------------------------------------------------
# canonical enumeration of rank-k RREF matrices


def _free_positions(pivots: Sequence[int], d: int) -> list[tuple[int, int]]:
    pivot_set = set(pivots)
    return [(i, j) for i in range(len(pivots)) for j in range(d)
            if j not in pivot_set and j > pivots[i]]


def _pivot_patterns(q: int, k: int, d: int, start: int, stop: int):
    """(offset, pivots, free, lo, hi) for each pivot pattern meeting [start, stop).

    ``offset`` is the index of the pattern's first matrix, ``free`` its
    free positions in row-major order, and [lo, hi) the part of the range
    inside the pattern, relative to ``offset``; the pattern holds q **
    len(free) matrices, the c-th of which has digit t of c (little-endian,
    base q) at free position t.
    """
    offset = 0
    for pivots in itertools.combinations(range(d), k):
        free = _free_positions(pivots, d)
        size = q ** len(free)
        lo, hi = max(start, offset), min(stop, offset + size)
        if lo < hi:
            yield offset, pivots, free, lo - offset, hi - offset
        offset += size
        if offset >= stop:
            break


def rref_blocks(q: int, k: int, d: int, start: int = 0,
                stop: int | None = None,
                chunk: int = 8192) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (base_index, array) chunks of the canonical RREF enumeration.

    Each array has shape (count, k, d); concatenated over the whole range
    [start, stop) the chunks list every rank-k RREF matrix exactly once in
    the canonical order.
    """
    if not 0 <= k <= d:
        raise BadShape(f"need 0 <= k <= d, got k={k}, d={d}")
    total = gaussian_binomial(d, k, q)
    if stop is None:
        stop = total
    if not 0 <= start <= stop <= total:
        raise BadShape(f"index range [{start}, {stop}) outside [0, {total})")
    if start == stop:
        return
    for offset, pivots, free, lo, hi in _pivot_patterns(q, k, d, start, stop):
        for c0 in range(lo, hi, chunk):
            c1 = min(c0 + chunk, hi)
            arr = np.zeros((c1 - c0, k, d), dtype=np.int64)
            for i, pc in enumerate(pivots):
                arr[:, i, pc] = 1
            cvals = _counter(c0, c1 - c0, q ** len(free))
            for t, (ri, cj) in enumerate(free):
                arr[:, ri, cj] = (cvals // q ** t) % q
            yield offset + c0, arr


def _counter(first: int, count: int, bound: int) -> np.ndarray:
    """first, first + 1, ..., first + count - 1 as an array.

    ``bound`` is at least every value and every divisor that digit
    arithmetic will apply to them.  The array is int64 while ``bound`` is
    at most 2**62, else it holds Python integers (dtype object), so that
    the arithmetic stays exact.
    """
    big = bound > 2 ** 62
    return np.arange(count, dtype=object if big else np.int64) + first
