"""Per-node repair numbers computed node by node, the scheme pass's oracle.

``repair._scheme_pass`` computes every number here for a list of nodes at
once, and the public ``bandwidth``, ``io_count``, ``incidence_profile``
and ``dual_cover`` are that pass over one node.  These functions compute
the same numbers for one matrix without the pass: the ranks of the
blocks M H_j, the intersection dimensions through stacked ranks of the
kernel of M with each node basis, and the dual cover by multiplying
every canonical covector into every block.  ``mults_oracle`` does the
covector product for a whole scheme at once, and ``scheme_pass_oracle``
is the pass's own earlier route, which works every listed row in full.

The per-node functions' errors are their own, not the pass's: a matrix
without full row rank is a ``NotARepairMatrix`` to ``bandwidth_oracle``
and ``io_count_oracle`` and a ``BadRank`` to the other two, and
``incidence_profile_oracle`` and ``dual_cover_oracle`` do not check that
M H_i is invertible.
"""

import numpy as np

from mdsrepair import linalg, repair
from mdsrepair.codes import DEFAULT_BUDGET
from mdsrepair.errors import (
    BadRank,
    BudgetExceeded,
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
    SchemePass,
    _check_repair_inputs,
    _compressed_blocks,
    _left_kernel_points,
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


def scheme_pass_oracle(s, col_stack, nodes, ms, budget=DEFAULT_BUDGET):
    """The numbers of :class:`SchemePass` row by row, with every self-check
    applied: ``repair._scheme_pass`` as it was before it worked once per
    distinct matrix.  Each chunk of rows forms, ranks and eliminates the
    blocks of all n columns and sums the helpers of each row, so a matrix
    shared by many nodes is worked as often as it is listed.  It reads
    ``repair._PASS_CELLS`` and ``repair._PASS_BYTES`` when called, and its
    errors are the pass's, checked in the same order.
    """
    field = s.tower.base
    n, ell, r = s.n, s.ell, s.r
    q = field.order
    nodes = np.asarray(nodes, dtype=np.int64)
    k = len(nodes)
    if 3 * k * n > repair._PASS_BYTES:
        raise BudgetExceeded(k * n, "node pairs",
                             f"a scheme pass keeps 3 bytes a pair and at "
                             f"most {repair._PASS_BYTES} bytes")

    ws, is_piv = kernels(field, ms)
    wdim = s.ambient - ell
    if (is_piv.sum(axis=1) != wdim).any():
        raise InternalInconsistency("a repair kernel has the wrong dimension")
    kb = linalg.null_columns(field, ws[:, :wdim], is_piv)

    covectors = projective_point_array(field, ell)
    t = len(covectors)
    lookup = np.full(q ** ell, -1, dtype=np.int64)  # q^l <= 1024 entries
    lookup[covectors @ q ** np.arange(ell)] = np.arange(t)
    points_of = np.array([projective_point_count(q, d)
                          for d in range(ell + 1)])
    ranks, dims, columns = (np.empty((k, n), dtype=np.uint8)
                            for _ in range(3))
    mults = np.empty((k, t), dtype=np.int64)
    bw, io, points, covered = (np.empty(k, dtype=np.int64) for _ in range(4))
    route = np.empty(k, dtype=bool)
    step = max(1, repair._PASS_CELLS // (n * t * ell))
    flat = (-1, ell, ell)
    for a in range(0, k, step):
        at = slice(a, a + step)
        helper = nodes[at, None] != np.arange(n)
        blocks = _compressed_blocks(field, ms[at], col_stack, n, ell)
        rk = batched_rank(field, blocks.reshape(flat)).reshape(-1, n)
        cols = (blocks != 0).any(axis=2).sum(axis=2)
        s_blocks = field.matmul(s.bases[None], kb[at, None])
        dm = ell - batched_rank(field, s_blocks.reshape(flat)).reshape(-1, n)
        row, j = np.nonzero(helper & (rk < ell))
        block, index = _left_kernel_points(field, blocks[row, j], lookup)
        owner = row[block]
        if (index < 0).any():
            raise InternalInconsistency(
                "a left-kernel point is not a canonical covector at node "
                f"{nodes[a + owner[np.argmax(index < 0)]]}")
        mults[at] = np.bincount(owner * t + index,
                                minlength=len(rk) * t).reshape(-1, t)
        ranks[at], dims[at], columns[at] = rk, dm, cols
        bw[at] = np.where(helper, rk, 0).sum(axis=1)
        io[at] = np.where(helper, cols, 0).sum(axis=1)
        points[at] = np.where(helper, points_of[dm], 0).sum(axis=1)
        covered[at] = np.where(helper, points_of[ell - rk], 0).sum(axis=1)
        route[at] = (rk != ell - dm).any(axis=1)

    singular = ranks[np.arange(k), nodes] != ell
    for a in np.flatnonzero(singular | route | (io < bw)):
        i = int(nodes[a])
        if singular[a]:
            raise NotARepairMatrix(i)
        if route[a]:
            raise InternalInconsistency(
                f"rank route and kernel route disagree at node {i}")
        raise InternalInconsistency(f"io below bandwidth at node {i}")
    cap = (r - 1) * projective_point_count(q, ell)
    over = (points > cap) | (mults.max(axis=1) > r - 1)
    for a in np.flatnonzero(over | (mults.sum(axis=1) != covered)):
        i = int(nodes[a])
        if points[a] > cap and s.mds_witness(budget) is None:
            raise InternalInconsistency(
                f"incidence cap violated at node {i} on a verified MDS "
                "skeleton")
        if mults[a].sum() != covered[a]:
            raise InternalInconsistency(
                "dual cover bookkeeping does not match intersection "
                f"dimensions at node {i}")
        if mults[a].max() > r - 1 and s.mds_witness(budget) is None:
            raise InternalInconsistency(
                f"dual point covered r times at node {i} on a verified MDS "
                "skeleton")
    return SchemePass(ranks, dims, columns, mults=mults, points=points,
                      bandwidth=tuple(int(b) for b in bw),
                      io=tuple(int(g) for g in io))
