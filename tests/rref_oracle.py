"""Single-matrix Gauss-Jordan elimination, the test oracle of linalg.

An independent row-at-a-time loop: each column's pivot is the first
nonzero row at or below the current one, swapped up and scaled to 1, and
the column is cleared in every other row.  The library's batched
``_elimination_ranks`` must give the same unique RREF, rank and pivots.

``column_loop_oracle`` is the batched elimination the library used
before it stepped by pivots: one step per column, over the blocks that
have an eligible row in it.
"""

import numpy as np


def rref_oracle(field, a):
    """(reduced, rank, pivots) of one matrix of field codes; ``a`` is kept."""
    a = np.array(a, dtype=np.int64)
    rows, cols = a.shape
    row = 0
    pivots = []
    for col in range(cols):
        if row == rows:
            break
        nz = np.nonzero(a[row:, col])[0]
        if nz.size == 0:
            continue
        pr = row + int(nz[0])
        if pr != row:
            a[[row, pr]] = a[[pr, row]]
        inv = field.arr_inv(int(a[row, col]))
        a[row] = field.arr_mul(a[row], inv)
        factors = a[:, col].copy()
        factors[row] = 0
        if factors.any():
            a = field.arr_sub(a, field.arr_mul(factors[:, None], a[row][None, :]))
        pivots.append(col)
        row += 1
    return a, row, tuple(pivots)


def span_oracle(field, rows):
    """The canonical basis of the row space of ``rows``: its nonzero RREF rows."""
    reduced, rank, _ = rref_oracle(field, rows)
    return reduced[:rank]


def meet_dims_oracle(field, a, bs):
    """[dim(span a /\\ span b) for b in bs], each rank a + rank b - rank
    [a; b], with a reduced once."""
    rank_a = rref_oracle(field, a)[1]
    return [rank_a + rref_oracle(field, b)[1]
            - rref_oracle(field, np.vstack([a, b]))[1] for b in bs]


def meet_dim_oracle(field, a, b):
    """dim(span a /\\ span b) = rank a + rank b - rank [a; b]."""
    return meet_dims_oracle(field, a, [b])[0]


def column_loop_oracle(field, a):
    """(reduced, ranks, is_piv) of a (batch, rows, cols) stack, column by
    column; ``a`` is kept.

    Each column's pivot is the first row of its block at or below the
    block's next pivot row, swapped up and scaled to 1, and the column is
    cleared in every other row of the blocks that have one.  The loop
    stops once every block has a pivot in each of its rows.
    """
    a = np.array(a, dtype=np.int64)
    nb, rows, cols = a.shape
    piv_row = np.zeros(nb, dtype=np.int64)
    is_piv = np.zeros((nb, cols), dtype=bool)
    row_idx = np.arange(rows)[None, :]
    for col in range(cols):
        eligible = (row_idx >= piv_row[:, None]) & (a[:, :, col] != 0)
        sel = np.flatnonzero(eligible.any(axis=1))
        if sel.size == 0:
            continue
        block = a[sel]
        at = np.arange(sel.size)
        pr = piv_row[sel]
        pv = eligible[sel].argmax(axis=1)
        block[at, pr], block[at, pv] = block[at, pv], block[at, pr]
        prow = field.arr_mul(block[at, pr],
                             field.arr_inv(block[at, pr, col])[:, None])
        factors = block[:, :, col].copy()
        factors[at, pr] = 0
        block = field.arr_sub(block, field.arr_mul(factors[:, :, None],
                                                   prow[:, None, :]))
        block[at, pr] = prow
        a[sel] = block
        piv_row[sel] += 1
        is_piv[sel, col] = True
        if (piv_row == rows).all():
            break
    return a, piv_row, is_piv
