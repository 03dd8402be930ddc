"""The product route to a scan's row tables, the test oracle of repair.

Forms the table of one row of a pivot pattern over a window from the
exact products [1, digits of w] [H_i | T] with ``Field.matmul``, one
coefficient row per value w of the row's free entries, and packs each
helper's bits, word-major, as ``repair._Scan`` reads them.  The
library's ``repair._RowTable``, which sums codes with no product, must
give the same tables entry for entry.
"""

import numpy as np


def _pack(masks, prod, ell, q):
    """Word-major bitsets of rows of products: a region per mask table."""
    codes = prod.reshape(len(prod), -1, ell) @ q ** np.arange(ell)
    regions = []
    for m in masks:
        bits = m[codes].reshape(len(prod), -1)
        words = -(-bits.shape[1] // 64)
        padded = np.zeros((len(prod), 64 * words), dtype=bool)
        padded[:, :bits.shape[1]] = bits
        regions.append(np.packbits(padded, axis=1, bitorder="little")
                       .view(np.uint64))
    return np.concatenate(regions, axis=1).T


def row_table_oracle(scan, row, a, b):
    """(first, count, feasibility table, objective table) of ``row`` over
    the window [a, b) of its pattern."""
    o, f, feas_rows, obj_rows = row
    field, ell = scan.field, scan.ell
    q = field.order
    count = min((b - 1) // q ** o - a // q ** o + 1, q ** f)
    first = 0 if count == q ** f else a // q ** o
    # Python integers: exact for any window
    coeffs = np.array([[1] + [(first + k) // q ** t % q for t in range(f)]
                       for k in range(count)], dtype=np.int64)
    feas = _pack(scan.points, field.matmul(coeffs, feas_rows), ell, q)
    prod = field.matmul(coeffs, obj_rows)
    if scan.masks is not None:
        obj = _pack(scan.masks, prod, ell, q)
    else:
        obj = prod.T.astype(scan.entry_dtype)
    return first, count, feas, obj
