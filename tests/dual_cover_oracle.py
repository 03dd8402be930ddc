"""The whole-pass covector product, the test oracle of the dual cover.

Multiplies every canonical covector of F_q^l into every block M_i H_j of
a scheme and counts, for each node i, the helpers j != i whose block a
covector annihilates.  ``repair._scheme_pass`` counts the same
multiplicities from the points of each rank-deficient block's left
kernel, and must give the same (n, t) array.
"""

import numpy as np

from mdsrepair.linalg import projective_point_array
from mdsrepair.repair import _compressed_blocks


def dual_cover_oracle(re, sch):
    """mults[i, k]: helpers j != i whose M_i H_j the k-th covector kills."""
    s = re.skeleton
    field = s.tower.base
    n, ell = s.n, s.ell
    covectors = projective_point_array(field, ell)
    blocks = _compressed_blocks(field, sch.stack, re.column_stack(), n, ell)
    killed = (field.matmul(covectors, blocks) == 0).all(axis=3)  # (n, n, t)
    killed[np.arange(n), np.arange(n)] = False
    return killed.sum(axis=1)
