"""Per-node repair numbers computed node by node, the scheme pass's oracle.

``repair._scheme_pass`` computes every number here for a list of nodes at
once, and the public ``bandwidth``, ``io_count``, ``incidence_profile``
and ``dual_cover`` are that pass over one node.  These functions compute
the same numbers for one matrix without the pass: the ranks of the
blocks M H_j, the intersection dimensions through stacked ranks of the
kernel of M with each node basis, and the dual cover by multiplying
every canonical covector into every block.  ``mults_oracle`` does the
covector product for a whole scheme at once.

Their errors are the per-node functions' own, not the pass's: a matrix
without full row rank is a ``NotARepairMatrix`` to ``bandwidth_oracle``
and ``io_count_oracle`` and a ``BadRank`` to the other two, and
``incidence_profile_oracle`` and ``dual_cover_oracle`` do not check that
M H_i is invertible.
"""

import numpy as np

from mdsrepair.errors import (
    BadRank,
    InternalInconsistency,
    NotARepairMatrix,
)
from mdsrepair.linalg import (
    _columns,
    batched_rank,
    kernels,
    projective_point_array,
    projective_point_count,
)
from mdsrepair.repair import (
    DualCover,
    IncidenceProfile,
    _check_repair_inputs,
    _compressed_blocks,
)


def require_full_row_rank(field, m, ell):
    if m.rows != ell:
        raise BadRank(f"expected {ell} rows, got {m.rows}")
    if batched_rank(field, m.array[None, :, :])[0] != ell:
        raise BadRank("matrix does not have full row rank")


def intersection_dims(s, m, helpers):
    """dim(W /\\ H_j) for W = ker m and each listed node, via stacked ranks."""
    field = s.tower.base
    d = s.ambient
    bases, is_piv = kernels(field, m.array[None])
    wdim = int(is_piv.sum())
    w_basis = bases[0, :wdim]
    stacked = np.empty((len(helpers), wdim + s.ell, d), dtype=np.int64)
    stacked[:, :wdim, :] = w_basis
    stacked[:, wdim:, :] = s.bases[list(helpers)]
    ranks = batched_rank(field, stacked)
    return wdim + s.ell - ranks


def bandwidth_oracle(m, re, i):
    """Sum of rank(M H_j) over the helpers, checked against the kernel
    route's total."""
    s = re.skeleton
    _check_repair_inputs(s, m, i)
    field = s.tower.base
    n, ell = s.n, s.ell
    blocks = _compressed_blocks(field, m.array, re.column_stack(), n, ell)
    ranks = batched_rank(field, blocks)
    if ranks[i] != ell:
        raise NotARepairMatrix(i)
    helpers = [j for j in range(n) if j != i]
    bw = int(ranks[helpers].sum())
    dims = intersection_dims(s, m, helpers)
    if bw != ell * (n - 1) - int(dims.sum()):
        raise InternalInconsistency(
            "rank route and kernel route disagree on bandwidth")
    return bw


def io_count_oracle(m, re, i):
    """Sum of nonzero columns of M H_j over the helpers."""
    s = re.skeleton
    _check_repair_inputs(s, m, i)
    field = s.tower.base
    n, ell = s.n, s.ell
    blocks = _compressed_blocks(field, m.array, re.column_stack(), n, ell)
    if batched_rank(field, blocks[i][None])[0] != ell:
        raise NotARepairMatrix(i)
    nonzero_cols = (blocks != 0).any(axis=1).sum(axis=1)
    nonzero_cols[i] = 0
    return int(nonzero_cols.sum())


def incidence_profile_oracle(m, s, i):
    _check_repair_inputs(s, m, i)
    field = s.tower.base
    q = field.order
    require_full_row_rank(field, m, s.ell)
    helpers = tuple(j for j in range(s.n) if j != i)
    dims = intersection_dims(s, m, helpers)
    sum_dims = int(dims.sum())
    sum_points = sum(projective_point_count(q, int(t)) for t in dims)
    cap = (s.r - 1) * projective_point_count(q, s.ell)
    holds = sum_points <= cap
    if not holds and s.is_mds:
        raise InternalInconsistency(
            "incidence cap violated on a verified MDS skeleton")
    return IncidenceProfile(failed=i, helpers=helpers,
                            dims=tuple(int(t) for t in dims),
                            sum_dims=sum_dims, sum_points=sum_points,
                            cap=cap, holds=holds)


def dual_cover_oracle(m, s, i):
    """Every canonical covector times every block M H_j of one matrix."""
    _check_repair_inputs(s, m, i)
    field = s.tower.base
    q = field.order
    ell = s.ell
    require_full_row_rank(field, m, ell)
    pts = projective_point_array(field, ell)
    col_stack = _columns(s.bases)
    compressed = field.matmul(m.array, col_stack)          # (l, n*l)
    prod = field.matmul(pts, compressed)                   # (t, n*l)
    killed = (prod.reshape(len(pts), s.n, ell) == 0).all(axis=2)
    killed[:, i] = False
    mults = killed.sum(axis=1)
    blocks = np.ascontiguousarray(
        compressed.reshape(ell, s.n, ell).transpose(1, 0, 2))
    dims = ell - batched_rank(field, blocks)
    expected = sum(projective_point_count(q, int(dims[j]))
                   for j in range(s.n) if j != i)
    total = int(mults.sum())
    if total != expected:
        raise InternalInconsistency(
            "dual cover bookkeeping does not match intersection dimensions")
    max_mult = int(mults.max()) if len(mults) else 0
    if max_mult > s.r - 1 and s.is_mds:
        raise InternalInconsistency(
            "dual point covered r times on a verified MDS skeleton")
    return DualCover(failed=i, points=pts,
                     mults=tuple(int(x) for x in mults),
                     max_mult=max_mult,
                     regular=all(x == s.r - 1 for x in mults),
                     total=total)


def mults_oracle(re, sch):
    """mults[i, k]: helpers j != i whose M_i H_j the k-th covector kills,
    from the covector product of every block of a whole scheme."""
    s = re.skeleton
    field = s.tower.base
    n, ell = s.n, s.ell
    covectors = projective_point_array(field, ell)
    blocks = _compressed_blocks(field, sch.stack, re.column_stack(), n, ell)
    killed = (field.matmul(covectors, blocks) == 0).all(axis=3)  # (n, n, t)
    killed[np.arange(n), np.arange(n)] = False
    return killed.sum(axis=1)
