"""The candidate-by-candidate brute-force scan, the test oracle of repair.

Materialises every canonical RREF candidate M of the range with
``rref_blocks`` and forms M H_i and M T with ``Field.matmul``, one chunk
at a time, and ranks the blocks.  The library's ``repair._bruteforce``,
which reads the same products as bitsets from per-row tables, must give
the same (value, witness, count).
"""

import numpy as np

from mdsrepair.linalg import batched_rank, rref_blocks


def bruteforce_oracle(field, targets, block_i, ell, d, objective, start, stop):
    """(best value, first maximizer or None, candidates) over [start, stop)."""
    q = field.order
    n_cols = targets.shape[1] // ell
    best = -1
    witness = None
    seen = 0
    for _, block in rref_blocks(q, ell, d, start, stop):
        cnt = block.shape[0]
        seen += cnt
        flat = block.reshape(cnt * ell, d)
        feas_blocks = field.matmul(flat, block_i).reshape(cnt, ell, ell)
        feasible = batched_rank(field, feas_blocks) == ell
        sel = np.nonzero(feasible)[0]
        if sel.size == 0:
            continue
        prod = field.matmul(block[sel].reshape(sel.size * ell, d), targets)
        cube = prod.reshape(sel.size, ell, n_cols, ell).transpose(0, 2, 1, 3)
        if objective == "overlap":
            ranks = batched_rank(field, cube.reshape(-1, ell, ell))
            obj = (ell - ranks.reshape(sel.size, n_cols)).sum(axis=1)
        else:
            zero_col = (cube == 0).all(axis=2)
            obj = zero_col.sum(axis=(1, 2))
        omax = int(obj.max())
        if omax > best:
            k = int(np.argmax(obj == omax))
            best = omax
            witness = block[sel[k]].copy()
    return best, witness, seen
