"""Attaining codes from field reduction of a normal rational curve.

Node subspaces come from the moment-curve points (1, c, c^2, ..., c^(r-1))
over F_(q^l), read as l-dimensional F_q-subspaces of F_q^(r*l) through
field reduction; the point at infinity contributes the last coordinate
block.  Any r distinct parameters give a Vandermonde system, so every
skeleton built this way is MDS.  That makes a certificate checkable in
O(n) (:func:`curve_certificate`): a code is MDS when its node labels are
distinct curve parameters and every node is the curve subspace of its
label.  The curve rows of a parameter are already a canonical RREF basis
(their first block is the identity, or their last one for infinity), so
each node is compared with its recomputed rows as they stand; no
elimination runs and no r-subset is ranked.  The builder and every load
of ``code.json`` go through it (:meth:`codes.CodeSkeleton.mds_witness`),
and the exhaustive scan runs only where it does not hold.

Repair subspaces are kernels of the maps y -> y_(r-1) - b * y_0^q.  Such
a kernel meets the node of parameter c nontrivially exactly when c^(r-1)
falls in the norm-one coset of b, and then in dimension 1; the
parameters therefore split into (q-1)/(r-1) blocks of size
(r-1)(q^l-1)/(q-1) according to which kernels hit them.  Both come
from whole-array steps over the top field's tables: the norm-one
subgroup Sigma is the units whose norm power is 1, every unit is keyed
by the smallest code of its coset c^(r-1) * Sigma in one (units x
|Sigma|) product, and the block row of a kernel's map is the base-q
digits of b * (z^t)^q, with no per-element loop.  The builder
picks the two blocks containing the smallest parameter codes, lists
their members first, repairs every node with the kernel that hits the
opposite block (or the first block's kernel for nodes outside both), and
forces each constrained node's column set to contain the one projective
point its designated kernel captures.  Every subspace is an array of
its canonical basis: a node's curve rows as they stand, the builder's
two repair kernels the bases of one :func:`linalg.kernels` call.  The
skeleton reduces all curve rows at once, one stacked intersection finds
the forced points, and one stacked fill picks every node's column points.
Every property the construction promises is re-verified on the finished
bundle.

All choices left open by the mathematics (block choice, parameter order,
column fill) are pinned to deterministic rules so rebuilt artifacts are
byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codes import CodeSkeleton, Realization, realize
from .errors import (
    BadParameters,
    EllTooSmall,
    InternalInconsistency,
    LengthOutOfRange,
    Nondivisible,
    QuotientTooSmall,
    RExceedsQ,
    WrongNodeDim,
    ZeroB,
)
from . import linalg
from .gf import FieldTower
from .linalg import Matrix, intersections, kernels, projective_point_count
from .repair import (
    NodeMetrics,
    RepairScheme,
    SchemePass,
    _scheme_pass,
    evaluate_scheme,
)


class _Infinity:
    """Sentinel for the curve parameter at infinity."""

    _instance = None
    __slots__ = ()

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INF"


INF = _Infinity()


@dataclass(frozen=True)
class NrcParams:
    tower: FieldTower
    r: int
    n: int

    @property
    def q(self) -> int:
        return self.tower.q

    @property
    def ell(self) -> int:
        return self.tower.ell


def validate_params(tower: FieldTower, r: int, n: int) -> NrcParams:
    """Gate the construction hypotheses, naming the first one violated."""
    r, n = int(r), int(n)
    q, ell = tower.q, tower.ell
    if ell < 2:
        raise EllTooSmall(f"construction needs ell >= 2, got {ell}")
    if r < 2:
        raise BadParameters(f"redundancy r must be at least 2, got {r}")
    if r > q:
        raise RExceedsQ(f"r={r} exceeds q={q}; the bound cannot be attained")
    if (q - 1) % (r - 1) != 0:
        raise Nondivisible(f"r-1={r - 1} does not divide q-1={q - 1}")
    if (q - 1) // (r - 1) < 2:
        raise QuotientTooSmall(
            f"(q-1)/(r-1)={(q - 1) // (r - 1)} but two parameter blocks are needed")
    t = projective_point_count(q, ell)
    lo, hi = 2 * (r - 1) * t, q ** ell + 1
    if not lo <= n <= hi:
        raise LengthOutOfRange(n, lo, hi)
    return NrcParams(tower=tower, r=r, n=n)


def _curve_stack(tower: FieldTower, r: int, params) -> np.ndarray:
    """(k, l, r*l) stack of the curve rows of k parameters (ints or INF).

    Row t of parameter c is the field reduction of z^t * (1, c, ...,
    c^(r-1)), or of z^t * (0, ..., 0, 1) at infinity; the rows are an
    F_q-basis because scaling a fixed nonzero vector by F_(q^l) is
    injective.  All parameters at once: the powers by repeated
    ``arr_mul``, one product by the codes q^t of z^t, then the base-q
    digits of every code.  Parameters are not range-checked.
    """
    top, q, ell = tower.top, tower.q, tower.ell
    at_inf = np.array([c is INF for c in params], dtype=bool)
    c = np.array([0 if c is INF else c for c in params], dtype=np.int64)
    nu = np.ones((len(c), r), dtype=np.int64)
    for e in range(1, r):
        nu[:, e] = top.arr_mul(nu[:, e - 1], c)
    nu[at_inf] = 0
    nu[at_inf, -1] = 1
    zt = q ** np.arange(ell, dtype=np.int64)
    scaled = top.arr_mul(nu[:, None, :], zt[:, None])  # (k, l, r)
    return (scaled[..., None] // zt % q).reshape(len(c), ell, r * ell)


def _label(c) -> str:
    return "inf" if c is INF else str(c)


def _parameter(label: str, order: int):
    """The curve parameter a label names, or None.

    Only the label this module writes is read: ``"inf"``, or the decimal
    code of a top-field element with no sign, space or leading zero.
    """
    if label == "inf":
        return INF
    if not (label.isascii() and label.isdigit()
            and len(label) <= len(str(order))):
        return None  # also keeps int() off very long strings
    c = int(label)
    return c if str(c) == label and c < order else None


def curve_certificate(s: CodeSkeleton) -> bool:
    """True when the skeleton's labels prove it MDS.

    That is, every label names a curve parameter, no two labels are
    equal, and every node's canonical basis equals the curve rows of its
    label.  Such a code is MDS because any r distinct parameters give a
    Vandermonde system.  False proves nothing: missing, wrong, repeated
    or unreadable labels fail, and so does a basis that was altered.
    """
    tower, labels = s.tower, s.labels
    if labels is None:
        return False
    params = [_parameter(lab, tower.top_order) for lab in labels]
    if len(params) != s.n or None in params or len(set(labels)) != s.n:
        return False
    return np.array_equal(_curve_stack(tower, s.r, params), s.bases)


def norm_one_subgroup(tower: FieldTower) -> tuple[int, ...]:
    """All top-field units of norm 1, in ascending code order.

    The norm is the power x^((q^l-1)/(q-1)) of every unit at once.
    """
    q = tower.q
    units = np.arange(1, tower.top_order)
    norms = tower.top.arr_pow(units, (tower.top_order - 1) // (q - 1))
    if (norms >= q).any():
        raise InternalInconsistency("norm value escaped the base field")
    sigma = tuple(int(x) for x in units[norms == 1])
    if len(sigma) != projective_point_count(q, tower.ell):
        raise InternalInconsistency("norm-one subgroup has wrong size")
    return sigma


@dataclass(frozen=True)
class Block:
    """One block of the parameter partition: all c with c^(r-1) in rep*Sigma."""

    rep: int
    members: tuple[int, ...]


@dataclass(frozen=True)
class BlockPartition:
    sigma: tuple[int, ...]
    blocks: tuple[Block, ...]


def block_partition(tower: FieldTower, r: int) -> BlockPartition:
    """Partition the nonzero parameters by which repair kernels hit them.

    Blocks are keyed by the norm-one coset of c^(r-1); each block is
    tagged with the representative (smallest member)^(r-1) and the result
    is ordered by smallest member, so any coset representative produces
    the identical partition.
    """
    r = int(r)
    if r < 2:
        raise BadParameters(f"redundancy r must be at least 2, got {r}")
    q = tower.q
    if (q - 1) % (r - 1) != 0:
        raise Nondivisible(f"r-1={r - 1} does not divide q-1={q - 1}")
    top = tower.top
    sigma = norm_one_subgroup(tower)
    units = np.arange(1, tower.top_order)
    powers = top.arr_pow(units, r - 1)
    # a unit's key is the smallest code in the coset c^(r-1) * Sigma
    keys = top.arr_mul(powers[:, None], np.array(sigma)).min(axis=1)
    _, first, group = np.unique(keys, return_index=True, return_inverse=True)
    blocks = [Block(rep=int(powers[i]),
                    members=tuple(int(c) for c in units[group == group[i]]))
              for i in np.sort(first)]
    expected_count = (q - 1) // (r - 1)
    size = (r - 1) * len(sigma)
    if len(blocks) != expected_count or any(len(b.members) != size
                                            for b in blocks):
        raise InternalInconsistency("parameter partition has wrong shape")
    if sum(len(b.members) for b in blocks) != tower.top_order - 1:
        raise InternalInconsistency("parameter partition does not cover units")
    return BlockPartition(sigma=sigma, blocks=tuple(blocks))


def repair_subspace(tower: FieldTower, r: int, b: int):
    """Kernel of y -> y_(r-1) - b * y_0^q, expanded over F_q.

    Returns (W, M) where M is the l x (r*l) block row
    [-(multiply-by-b o Frobenius) | 0 | ... | 0 | I] and W is the
    ((r-1)*l, r*l) canonical basis array of ker(M).
    """
    return _repair_subspaces(tower, r, [b])[0]


def _repair_subspaces(tower: FieldTower, r: int, bs) -> list:
    """:func:`repair_subspace` of each parameter in ``bs``, all kernels
    from one :func:`linalg.kernels` call over their (k, l, r*l) stack."""
    bs = np.array([int(b) for b in bs])
    linalg._check_codes(tower.top, bs)
    if not bs.all():
        raise ZeroB("the repair kernel parameter must be a unit")
    q, ell, field = tower.q, tower.ell, tower.base
    # column t holds the coordinates (base-q digits) of b * (z^t)^q
    zt = q ** np.arange(ell, dtype=np.int64)
    images = tower.top.arr_mul(bs[:, None], tower.top.arr_pow(zt, q))
    amat = images[:, None, :] // zt[:, None] % q
    m = np.zeros((len(bs), ell, r * ell), dtype=np.int64)
    m[:, :, :ell] = field.arr_neg(amat)
    m[:, :, (r - 1) * ell:] = np.eye(ell, dtype=np.int64)
    bases, is_piv = kernels(field, m)
    wdim = (r - 1) * ell
    if (is_piv.sum(axis=1) != wdim).any():
        raise InternalInconsistency("repair kernel has wrong dimension")
    return [(w[:wdim], Matrix(field, mt)) for w, mt in zip(bases, m)]


@dataclass(frozen=True)
class NrcBundle:
    """A constructed code with its repair scheme and verification results."""

    params: NrcParams
    parameters: tuple  # node parameters, ints plus possibly INF, in order
    partition: BlockPartition
    blocks_used: tuple[Block, Block]
    skeleton: CodeSkeleton
    realization: Realization
    scheme: RepairScheme
    metrics: NodeMetrics

    @property
    def labels(self) -> list[str]:
        return [_label(c) for c in self.parameters]


def _spanning_fill(field, cands: np.ndarray, ell: int) -> np.ndarray:
    """Each block's first l candidate rows that raise its rank, as points.

    ``cands`` is a (k, c, d) stack of candidate rows.  The greedy choice
    is the first l pivot columns of one elimination of the transposed
    stack, so a zero row is never chosen.  Returns the (k, l, d) chosen
    rows, each scaled to its canonical projective point.
    """
    _, ranks, is_piv = linalg._elimination_ranks(
        field, cands.transpose(0, 2, 1).copy())
    if (ranks < ell).any():
        raise InternalInconsistency("column fill failed to span a node")
    first = np.argsort(~is_piv, axis=1, kind="stable")[:, :ell]
    return linalg.canonical_points(
        field, np.take_along_axis(cands, first[:, :, None], axis=1))


def build(params: NrcParams) -> NrcBundle:
    """Assemble skeleton, realization, and scheme, then verify the bundle.

    Nodes are ordered: first block, second block (each ascending), the
    remaining finite parameters ascending (0 first), infinity last,
    truncated to n.  Nodes in the first block are repaired with the
    second block's kernel; every other node uses the first block's
    kernel, which misses 0, infinity, and all other blocks.  The column
    points of all nodes come from two stacked eliminations: one
    intersects every constrained node with its kernel, one picks every
    node's spanning points (a zero forced row where no point is forced).
    """
    tower, r, n = params.tower, params.r, params.n
    field = tower.base
    ell = tower.ell
    part = block_partition(tower, r)
    block_a, block_b = part.blocks[0], part.blocks[1]
    (w_a, m_a), (w_b, m_b) = _repair_subspaces(tower, r,
                                               [block_a.rep, block_b.rep])
    in_a = set(block_a.members)
    in_b = set(block_b.members)
    rest = sorted(set(range(tower.top_order)) - in_a - in_b)
    parameters = (list(block_a.members) + list(block_b.members)
                  + rest + [INF])[:n]

    curves = _curve_stack(tower, r, parameters)
    try:
        skeleton = CodeSkeleton(tower, r, curves,
                                [_label(c) for c in parameters])
    except WrongNodeDim as exc:
        raise InternalInconsistency("curve subspace has wrong dimension") \
            from exc
    scheme = RepairScheme([m_b if c in in_a else m_a for c in parameters])

    constrained = [idx for idx, c in enumerate(parameters)
                   if c is not INF and (c in in_a or c in in_b)]
    hitting = [w_a if parameters[idx] in in_a else w_b for idx in constrained]
    cands = np.zeros((n, ell + 1, r * ell), dtype=np.int64)
    cands[:, 1:] = curves
    if constrained:
        hits, hit_piv = intersections(field, np.stack(hitting),
                                      skeleton.bases[constrained])
        if (hit_piv.sum(axis=1) != 1).any():
            raise InternalInconsistency(
                "constrained node meets its kernel in dimension != 1")
        # an RREF row leads with 1, so it is already a canonical point
        cands[constrained, 0] = hits[:, 0]
    realization = realize(skeleton, _spanning_fill(field, cands, ell))

    checks = _scheme_pass(skeleton, realization.column_stack(), range(n),
                          scheme.stack)
    bundle = NrcBundle(params=params, parameters=tuple(parameters),
                       partition=part, blocks_used=(block_a, block_b),
                       skeleton=skeleton, realization=realization,
                       scheme=scheme,
                       metrics=evaluate_scheme(realization, scheme,
                                               scheme_pass=checks))
    _verify_bundle(bundle, checks)
    return bundle


def _verify_bundle(bundle: NrcBundle, checks: SchemePass) -> None:
    """Re-check every promised property of a finished bundle.

    ``checks`` is the scheme's :func:`repair._scheme_pass`; its per-node
    intersection dimensions and dual cover are read, not recomputed.
    """
    s = bundle.skeleton
    tower = s.tower
    witness = s.mds_witness()
    if witness is not None:
        raise InternalInconsistency(f"constructed skeleton not MDS: {witness}")
    hits_expected = (s.r - 1) * projective_point_count(tower.q, s.ell)
    dims = np.where(np.eye(s.n, dtype=bool), 0, checks.dims)
    too_big = (dims > 1).any(axis=1)
    wrong = dims.sum(axis=1) != hits_expected
    irregular = (checks.mults != s.r - 1).any(axis=1)
    bad = np.flatnonzero(too_big | wrong | irregular)
    if bad.size:
        i = int(bad[0])
        if too_big[i]:
            raise InternalInconsistency(
                f"a helper intersection exceeds dim 1 at node {i}")
        if wrong[i]:
            raise InternalInconsistency(f"wrong helper hit count at node {i}")
        raise InternalInconsistency(
            f"dual cover is not (r-1)-regular at node {i}")
    if not bundle.metrics.equality:
        raise InternalInconsistency("constructed scheme misses the bound")


def bundle_provenance(bundle: NrcBundle, version: str) -> dict:
    """Machine-readable record of every deterministic choice made."""
    a, b = bundle.blocks_used
    return {
        "params": {"p": bundle.params.tower.p, "m": bundle.params.tower.m,
                   "ell": bundle.params.ell, "q": bundle.params.q,
                   "r": bundle.params.r, "n": bundle.params.n},
        "blocks": [
            {"rep": a.rep, "members": list(a.members)},
            {"rep": b.rep, "members": list(b.members)},
        ],
        "parameters": ["inf" if c is INF else int(c)
                       for c in bundle.parameters],
        "version": version,
    }
