"""MDS array-code skeletons, parity-check realizations, and bound formulas.

A skeleton is a family of n node subspaces of F_q^(r*l), each of
dimension l; it is MDS when every r of them sum to the whole ambient
space, and then any choice of l distinct spanning projective points per
node realizes it as a concrete parity-check matrix whose column space at
node i is the node subspace.  Codewords are elements of the kernel of
that parity-check matrix, grouped into n blocks of l symbols.  The node
bases of a skeleton and the column points of a realization are each one
read-only (n, l, r*l) array, and every check on them is a whole-array step.

:func:`check_mds` decides every r-subset, but shares the work of the
subsets that have the same first r-1 nodes P.  The bases of P are reduced
once; their sum spans all of F_q^(r*l) with the last node k exactly when
it has dimension (r-1)l and k's basis times the kernel of P's basis is an
invertible l x l matrix.  So each subset costs one l x l rank instead of
one rl x rl elimination, and the answer is the same.

Every MDS question goes through :meth:`CodeSkeleton.mds_witness`.  A
skeleton whose node labels are curve parameters is first offered to
:func:`nrc.curve_certificate`, which proves it MDS in O(n) when every
node is the curve subspace of its label and the labels are distinct.
Labels are untrusted, so a certificate that does not hold proves
nothing, and :func:`check_mds` then decides all C(n, r) subsets, unless
there are more than a budget of them (:class:`BudgetExceeded`).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Sequence

import numpy as np

from .errors import (
    AmbientMismatch,
    BadParameters,
    BadShape,
    BudgetExceeded,
    DuplicatePoint,
    InternalInconsistency,
    LevelMismatch,
    MalformedInput,
    NotMds,
    NotSpanning,
    PointOutsideNode,
    RepairToolError,
    TooFewNodes,
    WrongAmbient,
    WrongNodeDim,
    json_ints,
)
from . import linalg
from .gf import FieldTower, prime_power
from .linalg import (
    Matrix,
    _check_codes,
    _columns,
    batched_rank,
    canonical_points,
    null_columns,
    projective_point_count,
)

# Identifier of the codeword sampling algorithm, persisted in reports so
# simulation runs stay reproducible across environments.
CODEWORD_SAMPLER = "pcg64-integers-v1"

_MDS_CHUNK = 4096

# Most r-subsets, and most brute-force candidates, one check may decide.
DEFAULT_BUDGET = 10_000_000

# bounds_report's largest q (trial division to sqrt(q)) and value bits.
_BOUNDS_Q_CAP = 1 << 32
_BOUNDS_BITS = 1 << 13


class CodeSkeleton:
    """n node subspaces of F_q^(r*l), each of dimension l.

    ``bases`` is the read-only (n, l, r*l) array of the nodes' canonical
    RREF bases and ``pivots`` the (n, l) array of their pivot columns,
    both from one elimination of the node generator rows the skeleton is
    built from, stacked with zero rows under any node with fewer rows than
    the others.  A row of the wrong length raises :class:`WrongAmbient`,
    a node not of dimension l :class:`WrongNodeDim`.  ``labels`` are the
    nodes' curve parameters as written in ``code.json`` (decimal codes,
    ``"inf"``), or None; they are a claim that :meth:`mds_witness`
    checks, never trusted.
    """

    __slots__ = ("tower", "r", "bases", "pivots", "labels", "_mds")

    def __init__(self, tower: FieldTower, r: int, generators,
                 labels: Sequence[str] | None = None):
        r = int(r)
        ell = tower.ell
        ambient = r * ell
        if len(generators) < r or r < 1:
            raise TooFewNodes(f"need at least r={r} nodes, "
                              f"got {len(generators)}")
        if isinstance(generators, np.ndarray) and generators.ndim == 3 \
                and generators.shape[2] == ambient \
                and generators.dtype.kind in "iu":
            gens = generators.astype(np.int64)  # a copy: scratch space
        else:  # node by node, so that a fault names its node
            nodes = []
            for i, rows in enumerate(generators):
                try:
                    rows = np.asarray(rows, dtype=np.int64)
                except ValueError as exc:  # e.g. rows of different lengths
                    raise WrongAmbient(f"node {i}: generator rows do not "
                                       f"form an array: {exc}") from exc
                if rows.ndim != 2 or rows.shape[1] != ambient:
                    raise WrongAmbient(f"node {i}: generator rows of shape "
                                       f"{rows.shape}, expected (rows, "
                                       f"{ambient})")
                nodes.append(rows)
            # zero rows span nothing, so nodes with fewer rows are padded
            gens = np.zeros((len(nodes), max(map(len, nodes)), ambient),
                            dtype=np.int64)
            for rows, out in zip(nodes, gens):
                out[:len(rows)] = rows
        _check_codes(tower.base, gens)
        reduced, ranks, is_piv = linalg._elimination_ranks(tower.base, gens)
        short = np.flatnonzero(ranks != ell)
        if short.size:
            i = short[0]
            raise WrongNodeDim(
                f"node {i} has dimension {ranks[i]}, expected {ell}")
        self.tower = tower
        self.r = r
        self.bases = np.ascontiguousarray(reduced[:, :ell])
        self.bases.setflags(write=False)
        self.pivots = np.nonzero(is_piv)[1].reshape(len(gens), ell)
        self.pivots.setflags(write=False)
        self.labels = None if labels is None else tuple(map(str, labels))
        self._mds = False  # not yet checked

    @property
    def n(self) -> int:
        return len(self.bases)

    @property
    def ell(self) -> int:
        return self.tower.ell

    @property
    def ambient(self) -> int:
        return self.r * self.tower.ell

    def mds_witness(self, budget: int = DEFAULT_BUDGET):
        """None if the skeleton is verified MDS, else check_mds's witness.

        The curve certificate is tried first; only when it does not hold
        are the C(n, r) subsets ranked, and more than ``budget`` of them
        raise :class:`BudgetExceeded` before any rank.  The verdict is
        cached.
        """
        if self._mds is False:
            from .nrc import curve_certificate  # nrc imports this module
            if curve_certificate(self):
                self._mds = None
            else:
                subsets = comb(self.n, self.r)
                if subsets > budget:
                    raise BudgetExceeded(
                        subsets, f"{self.r}-subsets of nodes",
                        "the labels do not certify the code MDS; "
                        "raise the budget")
                self._mds = check_mds(self)
        return self._mds

    @property
    def is_mds(self) -> bool:
        return self.mds_witness() is None


def _mds_subsets(n: int, r: int, chunk: int):
    """The r-subsets of n nodes in combinations order, ``chunk`` at most.

    Yields (prefixes, which, last): a chunk's subsets are the distinct
    (r-1)-node prefixes ``prefixes[which]`` each extended by its node
    ``last``.  A prefix P, one of the C(n-1, r-1) with a node above it,
    has n-1-max(P) extensions, and its subsets are consecutive, so the
    prefixes are drawn ``chunk`` at a time and each chunk is read off
    their cumulative extension counts, not built as tuples.
    """
    combos = itertools.combinations(range(n - 1), r - 1)
    while True:
        batch = list(itertools.islice(combos, chunk))
        if not batch:
            return
        prefixes = np.array(batch, dtype=np.int64).reshape(len(batch), r - 1)
        del batch  # the tuples take several times the array's memory
        top = prefixes[:, -1] if r > 1 else np.full(len(prefixes), -1)
        ends = np.cumsum(n - 1 - top)
        for a in range(0, int(ends[-1]), chunk):
            last = np.arange(a, min(a + chunk, int(ends[-1])))
            which = np.searchsorted(ends, last, side="right")
            last += n - ends[which]
            first = which[0]
            which -= first
            yield prefixes[first:first + which[-1] + 1], which, last


def check_mds(s: CodeSkeleton):
    """None if every r-subset of nodes spans the ambient space.

    Otherwise the lexicographically first failing subset of node indices
    (0-based).  Every subset is decided exactly, through its first r-1
    nodes P and its last node k.  The stacked bases B_P are reduced once
    to R_P, with pivot columns piv and free columns free.  Clearing the
    pivot columns of B_k against R_P leaves, on the free columns, the
    l x l matrix S = B_k[:, free] - B_k[:, piv] R_P[:, free] = B_k K_P,
    where K_P is the kernel basis of R_P (:func:`linalg.null_columns`).
    So rank [B_P; B_k] = rank R_P + rank S, and P + {k} spans exactly
    when R_P has full rank (r-1)l and S is invertible.  Subsets are taken
    in ``itertools.combinations`` order, at most ``_MDS_CHUNK`` at a time
    (see :func:`_mds_subsets`); a chunk reduces its prefixes in one batch
    and ranks all its S in one :func:`batched_rank` call.
    """
    field = s.tower.base
    ell, ambient = s.ell, s.ambient
    m = ambient - ell
    bases = s.bases
    for prefixes, which, last in _mds_subsets(s.n, s.r, _MDS_CHUNK):
        reduced, ranks, is_piv = linalg._elimination_ranks(
            field, bases[prefixes].reshape(len(prefixes), m, ambient))
        kern = null_columns(field, reduced, is_piv)
        schur = field.matmul(bases[last], kern[which])
        spans = (ranks[which] == m) & (batched_rank(field, schur) == ell)
        bad = np.nonzero(~spans)[0]
        if bad.size:
            k = bad[0]
            return tuple(prefixes[which[k]].tolist()) + (int(last[k]),)
    return None


class Realization:
    """A skeleton together with its chosen parity-check columns.

    ``points`` is the read-only (n, l, r*l) array whose row t of block i
    is the canonical representative (first nonzero coordinate 1) of the
    t-th projective column point of node i; the parity-check matrix has
    those rows as its columns, node by node.  The code {c : H c = 0} is
    encoded systematically: a word is [x | x P], its first (n-r)*l
    symbols x free and its last r*l the product with the parity part P
    (:meth:`parity_part`).
    """

    __slots__ = ("skeleton", "points", "_parity", "_part")

    def __init__(self, skeleton: CodeSkeleton, points: np.ndarray):
        self.skeleton = skeleton
        self.points = points
        self._parity = None
        self._part = None

    @property
    def n(self) -> int:
        return self.skeleton.n

    def parity_matrix(self) -> Matrix:
        if self._parity is None:
            self._parity = Matrix(self.skeleton.tower.base,
                                  _columns(self.points))
        return self._parity

    def parity_part(self) -> np.ndarray:
        """P, read-only, with [I | P] the canonical RREF basis of the code.

        One elimination of H with its columns reversed.  When the last m
        columns of H, m = rank H, are independent (on an MDS code they are
        the last r nodes' r*l columns), they are its first m pivots, the
        reduced H is [I | F] and the kernel vector of free column j is 1
        there, 0 on the other free columns and -F[:, j] on the pivots.
        Read in the original order, with the vectors in reverse, that is
        [I | P] with P = -F^T, both axes reversed: shape (n*l - m, m).
        Pivots anywhere else raise :class:`InternalInconsistency`.
        """
        if self._part is None:
            field = self.skeleton.tower.base
            reduced, ranks, is_piv = linalg._elimination_ranks(
                field, self.column_stack()[None, :, ::-1].copy())
            m = ranks[0]
            if not is_piv[0, :m].all():
                raise InternalInconsistency(
                    "the last rank-many parity columns are not independent")
            part = field.arr_neg(reduced[0, :m, m:][::-1, ::-1].T)
            part.setflags(write=False)
            self._part = part
        return self._part

    def column_stack(self) -> np.ndarray:
        """All parity columns side by side: shape (r*l, n*l)."""
        return self.parity_matrix().array


def realize(s: CodeSkeleton, column_sets) -> Realization:
    """Build the realization with the given projective column points.

    There must be one column set per node, and each needs exactly l
    distinct nonzero points, all inside the node subspace and jointly
    spanning it.  The structural checks (zero point, entry range, point
    count, length) are array steps on an (n, l, r*l) integer array and
    run node by node on anything else (:func:`_column_faults`); the
    points that pass them are canonicalized (first nonzero coordinate 1)
    and checked for repeats and membership all at once (p lies in node k
    when p = p[piv_k] R_k, k's RREF basis R_k).  The first fault in point
    order is raised.  The points then span node k exactly when their
    (l, l) coefficients p[piv_k] do, so the spanning check ranks the
    (n, l, l) coefficients, one rank-table lookup where q ** (l*l) is
    small.
    """
    field = s.tower.base
    n, ell, d = s.n, s.ell, s.ambient
    a = column_sets
    if isinstance(a, np.ndarray) and a.shape == (n, ell, d) and \
            a.dtype.kind in "iu":
        # the first node with a zero point or an entry out of range
        zero = ~a.any(axis=2).all(axis=1)
        wild = ((a < 0) | (a >= field.order)).any(axis=(1, 2))
        bad = np.flatnonzero(zero | wild)
        k = bad[0] if bad.size else n
        points = np.zeros((n, ell, d), dtype=np.int64)
        points[:k] = a[:k]
        fault = None
        if k < n:
            fault = (NotSpanning(f"node {k}: a column point is the zero "
                                 "vector") if zero[k]
                     else LevelMismatch("entry out of range for the field"))
        end = k * ell
    else:
        points, fault, end = _column_faults(field, column_sets, n, ell, d)
    flat = points.reshape(n * ell, d)
    flat[:end] = canonical_points(field, flat[:end])
    same = (points[:, :, None] == points[:, None]).all(axis=3)
    repeat = np.tril(same, -1).any(axis=2)  # equals an earlier point
    coeffs = np.take_along_axis(points, s.pivots[:, None, :], axis=2)
    outside = (field.matmul(coeffs, s.bases) != points).any(axis=2)
    first = np.flatnonzero((repeat | outside).reshape(-1)[:end])
    if first.size:
        i = first[0] // ell
        if repeat.flat[first[0]]:
            raise DuplicatePoint(f"node {i}: repeated projective point")
        raise PointOutsideNode(f"node {i}: column point outside the node "
                               "subspace")
    if fault is not None:
        raise fault
    # every point is now coeffs @ bases, and the bases have full row rank
    short = np.flatnonzero(batched_rank(field, coeffs) != ell)
    if short.size:
        raise NotSpanning(f"node {short[0]}: column points do not span the node")
    points.setflags(write=False)
    return Realization(s, points)


def _column_faults(field, column_sets, n: int, ell: int, d: int):
    """(points, fault, end): the structural checks of :func:`realize`,
    node by node.  ``points`` is the (n, l, d) array whose first ``end``
    points passed them, zeros after; ``fault`` is the first failure, or
    None.
    """
    column_sets = list(column_sets)
    if len(column_sets) != n:
        raise BadShape(f"{len(column_sets)} column sets for {n} nodes")
    points = np.zeros((n, ell, d), dtype=np.int64)
    flat = points.reshape(n * ell, d)
    end = 0
    for i, pts in enumerate(column_sets):
        try:
            if not all(np.any(p) for p in pts):
                raise NotSpanning(
                    f"node {i}: a column point is the zero vector")
            pts = [np.asarray(p, dtype=np.int64) for p in pts]
            for p in pts:
                _check_codes(field, p)
            if len(pts) != ell:
                raise NotSpanning(
                    f"node {i}: need exactly {ell} column points")
            for p in pts:
                if p.shape != (d,):
                    raise AmbientMismatch(f"node {i}: vector of length "
                                          f"{p.shape} in ambient {d}")
                flat[end] = p
                end += 1
        except RepairToolError as exc:
            return points, exc, end
    return points, None, end


# numpy's SeedSequence hash constants and PCG64's 128-bit multiplier
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M32 = 0xFFFFFFFF


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """The constants of ``count`` successive SeedSequence hashes.

    Hash k xors with hc_k and multiplies by hc_(k+1), hc_k = init mult^k
    mod 2^32: a read-only (2, count, 1) uint32 array of the xor and the
    multiplier columns.
    """
    hc = [init * pow(mult, k, 1 << 32) & _M32 for k in range(count + 1)]
    consts = np.array([hc[:-1], hc[1:]], dtype=np.uint32)[:, :, None]
    consts.setflags(write=False)
    return consts


# 4 hashes fill the pool and 12 mix it, then 8 read the state off it
_HASH_A = _hash_constants(_INIT_A, _MULT_A, 16)
_HASH_B = _hash_constants(_INIT_B, _MULT_B, 8)


def _hashed(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """The hash of ``values`` under each hash of ``consts``, one per row."""
    xor, mul = consts
    values = (values ^ xor) * mul
    return values ^ values >> 16


def _seed_words(entropy: np.ndarray) -> list[np.ndarray]:
    """``SeedSequence(e).generate_state(4, np.uint64)`` of each row e.

    ``entropy`` is a (T, 2) uint32 array; the four words come back as four
    (T,) uint64 arrays.  The pool of 4 holds the hashed entropy and two
    hashed zeros, every word is then mixed into every other, and the
    state is read off the pool by a second hash.  The hash constants run
    through the same values for every row (``_HASH_A``, ``_HASH_B``), so
    the pool is hashed in one (4, T) step, each source word is mixed into
    its 3 destinations in one (3, T) step (it is not among them, so all 3
    read it unchanged under 3 consecutive constants), and the 8 state
    words are one (8, T) step.
    """
    pool = np.zeros((4, len(entropy)), dtype=np.uint32)
    pool[:2] = entropy.T
    pool = _hashed(pool, _HASH_A[:, :4])
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        mixed = (np.uint32(_MIX_MULT_L) * pool[dst]
                 - np.uint32(_MIX_MULT_R)
                 * _hashed(pool[src], _HASH_A[:, 4 + 3 * src:7 + 3 * src]))
        pool[dst] = mixed ^ mixed >> 16
    state = _hashed(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _HASH_B)
    state = state.astype(np.uint64)
    return list(state[::2] | state[1::2] << 32)


def _mulhi64(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The high 64 bits of the 128-bit products of two uint64 arrays,
    summed in place (see :func:`_pcg64_draws`)."""
    x0, x1, y0, y1 = x & _M32, x >> 32, y & _M32, y >> 32
    p01, p10, mid, hi = x0 * y1, x1 * y0, x0 * y0, x1 * y1
    mid >>= 32
    for p in (p01, p10):
        mid += p & _M32
        p >>= 32
        hi += p
    mid >>= 32
    hi += mid
    return hi


@functools.lru_cache(maxsize=16)
def _pcg64_jumps(outputs: int) -> tuple[np.ndarray, ...]:
    """M^(k+2) and 1 + M + ... + M^(k+1) mod 2^128 for k < ``outputs``.

    As (hi, lo, hi, lo) read-only uint64 rows, M the PCG64 multiplier.
    """
    a, c = _PCG_MULT, 1
    rows = []
    for _ in range(outputs):
        a, c = a * _PCG_MULT % (1 << 128), (c + a) % (1 << 128)
        rows.append((a >> 64, a & (1 << 64) - 1, c >> 64, c & (1 << 64) - 1))
    jumps = tuple(np.array(col, dtype=np.uint64).reshape(1, outputs)
                  for col in zip(*rows))
    for j in jumps:
        j.setflags(write=False)
    return jumps


def _pcg64_draws(words: list[np.ndarray], count: int) -> np.ndarray:
    """The first ``count`` 32-bit draws of PCG64 seeded by each row's words.

    Seeding is ``srandom(state, inc)`` with state = w0 2^64 + w1 and inc =
    ((w2 2^64 + w3) << 1) | 1, so after it the state is M x + inc, x =
    state + inc, and 64-bit output k is the XSL-RR of M^(k+2) x + (1 + M
    + ... + M^(k+1)) inc.  Every output of every row is one array step of
    128-bit arithmetic on uint64 limbs.  Draw j is the low 32 bits of
    output j // 2 if j is even, its high 32 bits if j is odd.  Returns a
    (T, count) uint64 array.  Steps work in place and drop each
    temporary once spent (here, in :func:`_mulhi64` and :func:`_lemire`):
    at hundreds of rows, every further (T, count) array would grow the
    heap past what the allocator keeps, and each chunk would fault its
    pages in again.
    """
    w0, w1, w2, w3 = (w[:, None] for w in words)
    inc_hi, inc_lo = w2 << 1 | w3 >> 63, w3 << 1 | 1
    x_lo = w1 + inc_lo
    x_hi = w0 + inc_hi + (x_lo < inc_lo)
    a_hi, a_lo, c_hi, c_lo = _pcg64_jumps((count + 1) // 2)
    ax_lo = x_lo * a_lo
    lo = inc_lo * c_lo
    lo += ax_lo
    hi = _mulhi64(x_lo, a_lo)
    hi += _mulhi64(inc_lo, c_lo)
    for u, v in ((x_lo, a_hi), (x_hi, a_lo), (inc_lo, c_hi), (inc_hi, c_lo)):
        hi += u * v
    hi += lo < ax_lo
    del ax_lo
    rot = hi >> 58  # XSL-RR: hi ^ lo, rotated right by the top 6 bits of hi
    lo ^= hi
    hi = lo >> rot
    np.negative(rot, out=rot)
    rot &= 63
    lo <<= rot
    hi |= lo
    del lo, rot
    draws = np.empty(hi.shape + (2,), dtype=np.uint64)
    np.bitwise_and(hi, _M32, out=draws[..., 0])
    np.right_shift(hi, 32, out=draws[..., 1])
    return draws.reshape(len(hi), -1)[:, :count]


def _lemire(draws: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray]:
    """numpy's 32-bit bounded draw in [0, q) from each 32-bit draw.

    The value of draw u is (u q) >> 32.  numpy rejects a draw whose low
    32 bits of u q are below 2^32 mod q and draws again, which shifts
    every later draw of its trial; the second array flags the rows that
    have such a draw.  Exact for 1 <= q <= 2^32.
    """
    m = draws * np.uint64(q)
    rejected = ((m & _M32) < (1 << 32) % q).any(axis=1)
    m >>= 32
    return m.view(np.int64), rejected


def _coefficients(seeds, q: int, count: int) -> np.ndarray:
    """``default_rng(seed).integers(0, q, size=count, dtype=int64)`` per seed.

    A (T, count) int64 array.  Seeds that are 2-tuples of ints in [0,
    2^32), or every row of a (T, 2) uint32 array, are drawn together in
    whole-array steps (:func:`_seed_words`, :func:`_pcg64_draws`,
    :func:`_lemire`); every other seed, and every trial with a draw that
    numpy rejects, goes through numpy's generator as before, which also
    raises numpy's error on a bad seed.
    """
    out = np.empty((len(seeds), count), dtype=np.int64)
    pairs = isinstance(seeds, np.ndarray) and seeds.dtype == np.uint32 \
        and seeds.shape[1:] == (2,)
    fast = np.ones(len(seeds), dtype=bool) if pairs else np.array(
        [type(s) is tuple and len(s) == 2
         and type(s[0]) is int and type(s[1]) is int
         and 0 <= s[0] <= _M32 and 0 <= s[1] <= _M32 for s in seeds],
        dtype=bool)
    rows = np.flatnonzero(fast)
    if rows.size and count:
        entropy = seeds if pairs else np.array([seeds[i] for i in rows],
                                               dtype=np.uint32)
        values, rejected = _lemire(
            _pcg64_draws(_seed_words(entropy), count), q)
        out[rows] = values
        fast[rows[rejected]] = False
    for i in np.flatnonzero(~fast):
        out[i] = np.random.default_rng(seeds[i]).integers(
            0, q, size=count, dtype=np.int64)
    return out


def sample_codewords(re: Realization, seeds) -> np.ndarray:
    """One seed-determined uniform random codeword per seed, shaped (T, n, l).

    Coefficients over the code's canonical RREF basis [I | P] are the
    draws of numpy's PCG64 generator (see CODEWORD_SAMPLER),
    ``default_rng(seed).integers(0, q, size, dtype=int64)`` for each seed,
    so a word depends on its own seed only.  They are computed for all
    seeds at once in whole-array steps that reproduce that stream bit for
    bit (:func:`_coefficients`); a trial whose seed is not a pair of ints
    in [0, 2^32), or that hits the bounded draw's rejection zone, is drawn
    by numpy's generator itself.  The basis is systematic, so the
    coefficients x are a word's first (n-r)*l symbols as drawn, and one
    product x P against the parity part (:meth:`Realization.parity_part`)
    forms its last r*l for the whole stack.  A seed may be an int or a
    sequence of ints; ``seeds`` may also be a (T, 2) uint32 array whose
    rows are the seeds, which skips the per-seed checks.
    """
    s = re.skeleton
    if not s.is_mds:
        raise NotMds(s.mds_witness())
    field = s.tower.base
    part = re.parity_part()
    coeffs = _coefficients(seeds, field.order, part.shape[0])
    words = np.concatenate([coeffs, field.matmul(coeffs, part)], axis=1)
    words = words.reshape(len(seeds), s.n, s.ell)
    words.setflags(write=False)
    return words


def syndromes(re: Realization, words: np.ndarray) -> np.ndarray:
    """Parity checks of a (T, n, l) stack of words: column t is H c_t."""
    words = np.asarray(words, dtype=np.int64)
    return re.skeleton.tower.base.matmul(
        re.column_stack(), words.reshape(len(words), -1).T)


# ---------------------------------------------------------------------------
# bound formulas


@dataclass(frozen=True)
class BoundsReport:
    """The two lower bounds and the attainment-side quantities.

    ``im_bound`` caps how much any repair subspace can overlap the
    helpers by the multiplicity of dual projective points; ``pc_bound``
    is the older packing-based bound, kept even when vacuous (negative)
    because the gap between the two is the interesting quantity.
    """

    q: int
    ell: int
    r: int
    n: int
    im_bound: int
    pc_bound: int
    length_max: int
    equality_min_length: int
    coverage_fraction: Fraction
    r_le_q: bool

    def to_json_dict(self) -> dict:
        cf = self.coverage_fraction
        return {
            "q": self.q, "ell": self.ell, "r": self.r, "n": self.n,
            "im_bound": self.im_bound,
            "pc_bound": self.pc_bound,
            "length_max": self.length_max,
            "equality_min_length": self.equality_min_length,
            "coverage_fraction": str(cf) if cf.denominator != 1 else int(cf),
            "r_le_q": self.r_le_q,
        }


def bounds_report(q: int, ell: int, r: int, n: int) -> BoundsReport:
    """Evaluate the bound formulas for one parameter point.

    im_bound = l(n-1) - (r-1)(q^l-1)/(q-1); pc_bound replaces the
    correction term by (q^((r-1)l)-1)/(q-1).  length_max is the general
    MDS length ceiling q^l + r - 1, and equality_min_length the shortest
    length at which im_bound can possibly be attained.  A q or a value
    above its cap is refused before anything is computed.
    """
    q, ell, r, n = int(q), int(ell), int(r), int(n)
    if q > _BOUNDS_Q_CAP:
        raise BadParameters(f"q={q} is above {_BOUNDS_Q_CAP}, the largest")
    if ell < 1 or r < 2 or n < r:
        raise BadParameters(
            f"need ell >= 1, r >= 2, n >= r; got ell={ell}, r={r}, n={n}")
    # q^((r-1) ell) and l (n-1) bound every reported value
    bits = (r - 1) * ell * q.bit_length() + n.bit_length()
    if bits > _BOUNDS_BITS:
        raise BadParameters(f"ell={ell}, r={r}, n={n} at q={q} give values "
                            f"of {bits} bits, above {_BOUNDS_BITS}")
    if prime_power(q) is None:
        raise BadParameters(f"q={q} is not a prime power")
    t = projective_point_count(q, ell)
    im = ell * (n - 1) - (r - 1) * t
    pc = ell * (n - 1) - (q ** ((r - 1) * ell) - 1) // (q - 1)
    length_max = q ** ell + r - 1
    eq_min = 1 + (r - 1) * t
    cov = Fraction(q ** ell + 2 - 2 * (r - 1) * t, length_max)
    if cov < 0:
        cov = Fraction(0)
    return BoundsReport(q=q, ell=ell, r=r, n=n, im_bound=im, pc_bound=pc,
                        length_max=length_max, equality_min_length=eq_min,
                        coverage_fraction=cov, r_le_q=(r <= q))


# ---------------------------------------------------------------------------
# persistence (code.json)


def realization_to_json(re: Realization, labels: Sequence[str] | None = None,
                        provenance: dict | None = None) -> dict:
    s = re.skeleton
    if labels is None:
        labels = ["free"] * s.n
    nodes = []
    for i in range(s.n):
        nodes.append({
            "label": str(labels[i]),
            "H": re.points[i].tolist(),
            "X": re.points[i].tolist(),
        })
    obj = {
        "v": 1,
        "tower": s.tower.to_json_dict(),
        "ell": s.ell,
        "r": s.r,
        "n": s.n,
        "nodes": nodes,
    }
    if provenance is not None:
        obj["provenance"] = provenance
    return obj


def _node_codes(nd: dict, key: str, i: int) -> np.ndarray:
    try:
        return np.array(json_ints(nd[key], f"node {i} {key}", 2),
                        dtype=np.int64)
    except OverflowError as exc:
        raise MalformedInput(f"node {i}: {key} entry does not fit in 64 bits"
                             ) from exc


def _node_arrays(raw_nodes: list, ell: int, d: int, q: int):
    """(labels, H, X) of a well-formed ``nodes`` list, or None.

    Well formed means a list of dicts whose labels are strings and whose
    H and X are l lists of d plain ints, each int a code of F_q.  The
    types are read in one pass over the flattened values (``np.array``
    alone would read true and 1.0 as 1), then H and X become one (2, n,
    l, d) array.  Any other list is left to :func:`_load_nodes`, which
    names its first fault.
    """
    try:
        labels = [nd["label"] for nd in raw_nodes]
        blocks = [nd[key] for key in ("H", "X") for nd in raw_nodes]
    except (KeyError, TypeError):
        return None
    if set(map(type, labels)) != {str} or set(map(type, blocks)) != {list} \
            or set(map(len, blocks)) != {ell}:
        return None
    rows = list(itertools.chain.from_iterable(blocks))
    if set(map(type, rows)) != {list} or set(map(len, rows)) != {d} or \
            not set(map(type, itertools.chain.from_iterable(rows))) <= {int}:
        return None
    try:
        hx = np.array(rows, dtype=np.int64).reshape(2, -1, ell, d)
    except OverflowError:
        return None
    if hx.size and (hx.min() < 0 or hx.max() >= q):
        return None
    return labels, hx[0], hx[1]


def _load_nodes(raw_nodes: list, ell: int, d: int, q: int):
    """(labels, H, X) of a ``nodes`` list, checked node by node.

    H and X are lists of (l, d) arrays.  The first fault is raised as
    :class:`MalformedInput` naming its node.
    """
    generators = []
    column_sets = []
    labels = []
    for i, nd in enumerate(raw_nodes):
        try:
            label = nd["label"]
            cols = _node_codes(nd, "H", i)
            pts = _node_codes(nd, "X", i)
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedInput(f"bad node object: {exc}") from exc
        if type(label) is not str:
            raise MalformedInput(f"node {i}: label must be a JSON string")
        if cols.ndim != 2 or cols.shape != (ell, d):
            raise MalformedInput(f"node {i}: H must be {ell} columns of "
                                 f"length {d}")
        if pts.shape != (ell, d):
            raise MalformedInput(f"node {i}: X must be {ell} points of "
                                 f"length {d}")
        if any(((a < 0) | (a >= q)).any() for a in (cols, pts)):
            raise MalformedInput(f"node {i}: H/X entry out of range for "
                                 "the field")
        labels.append(label)
        generators.append(cols)
        column_sets.append(pts)
    return labels, generators, column_sets


def realization_from_json(obj: dict):
    """Rebuild (realization, labels, provenance) from a code.json dict.

    Every type invariant is re-validated: tower polynomials, node
    dimensions, column membership/spanning, string labels, and that X and
    H both hold the canonical column points, so writing the result back
    gives the file as :func:`realization_to_json` wrote it.  A well-formed
    file is checked in whole-array steps (:func:`_node_arrays`); any other
    goes node by node, so every fault is named as that route names it.
    """
    try:
        if obj.get("v") != 1 or type(obj["v"]) is not int:
            raise MalformedInput(f"unsupported schema version {obj.get('v')!r}")
        tower = FieldTower.from_json_dict(obj["tower"])
        ell, r, n = (json_ints(obj[key], key) for key in ("ell", "r", "n"))
        raw_nodes = obj["nodes"]
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedInput(f"bad code object: {exc}") from exc
    if ell != tower.ell:
        raise MalformedInput("ell disagrees with the tower descriptor")
    if not isinstance(raw_nodes, list):
        raise MalformedInput("nodes must be a list")
    if len(raw_nodes) != n:
        raise MalformedInput("node count disagrees with n")
    labels, generators, column_sets = (
        _node_arrays(raw_nodes, ell, r * ell, tower.q)
        or _load_nodes(raw_nodes, ell, r * ell, tower.q))
    try:
        skeleton = CodeSkeleton(tower, r, generators, labels)
        re = realize(skeleton, column_sets)
    except RepairToolError as exc:
        raise MalformedInput(f"invariant violated on load: {exc}") from exc
    # the stored columns and points must both be the canonical points
    for stored, fault in (
            (generators, "H columns are not canonical representatives of X"),
            (column_sets, "X points are not canonical (first nonzero entry "
                          "1)")):
        differ = np.flatnonzero(
            (np.asarray(stored) != re.points).any(axis=(1, 2)))
        if differ.size:
            raise MalformedInput(f"node {differ[0]}: {fault}")
    return re, labels, obj.get("provenance")
