"""Repair metrics, exhaustive repair-subspace search, and counting checks.

A repair matrix for node i is an l x (r*l) matrix M with M * H_i
invertible; the failed block is then a linear function of the compressed
helper blocks M * H_j.  Bandwidth counts the symbols downloaded
(sum of rank(M H_j) over helpers), I/O counts the symbols read
(sum of nonzero columns of M H_j).  Writing W = ker(M), the bandwidth
identity rank(M H_j) = l - dim(W /\\ H_j) ties both quantities to how the
codimension-l subspace W meets the helper node subspaces, which is what
the diagnostics in this module count.

Every per-node number has one route: :func:`_scheme_pass`, which takes a
list of nodes and their repair matrices and computes them all with
batched products and every self-check.  It works once per distinct
matrix and node, since a block M H_j depends only on M and j; a
constructed scheme repairs every node with one of two matrices.
:func:`evaluate_scheme` passes over every node of a scheme;
:func:`bandwidth`, :func:`io_count`, :func:`incidence_profile` and
:func:`dual_cover` pass over one node.

The brute-force optimizers scan every codimension-l subspace exactly once
by enumerating canonical full-rank RREF matrices M (row space <-> kernel
is a bijection), so their maxima are exact and their witnesses are the
first maximizers in a deterministic order.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .codes import (
    DEFAULT_BUDGET,
    BoundsReport,
    CodeSkeleton,
    Realization,
    bounds_report,
)
from .errors import (
    BadRank,
    BadShape,
    BudgetExceeded,
    InternalInconsistency,
    MalformedInput,
    NotARepairMatrix,
    NotMds,
    json_ints,
)
from . import linalg
from .gf import Field
from .linalg import (
    Matrix,
    _check_codes,
    _columns,
    _counter,
    _elimination_ranks,
    _pivot_patterns,
    batched_rank,
    canonical_points,
    gaussian_binomial,
    kernels,
    null_columns,
    projective_point_array,
    projective_point_count,
    rref_blocks,
)


class RepairScheme:
    """One repair matrix per node, each of full row rank l.

    The scheme is its ``field`` and ``stack``, the read-only (n, l, r*l)
    array of all the matrices; ``sch[i]`` is node i's matrix as a
    :class:`Matrix`.  It is built from a sequence of matrices, or from a
    stack by :meth:`from_stack`.
    """

    __slots__ = ("field", "stack")

    def __init__(self, matrices: Sequence[Matrix]):
        matrices = tuple(matrices)
        if not matrices:
            raise BadShape("a repair scheme needs at least one matrix")
        m0 = matrices[0]
        for i, m in enumerate(matrices):
            if m.shape != m0.shape or m.field != m0.field:
                raise BadShape(f"matrix {i} ({m.rows}x{m.cols}) and matrix "
                               f"0 ({m0.rows}x{m0.cols}) differ in shape or "
                               "field")
        self._hold(m0.field, np.stack([m.array for m in matrices]))

    @classmethod
    def from_stack(cls, field: Field, stack: np.ndarray) -> RepairScheme:
        """The scheme of an (n, rows, cols) stack of field codes."""
        if not len(stack):
            raise BadShape("a repair scheme needs at least one matrix")
        stack = np.array(stack, dtype=np.int64)
        _check_codes(field, stack)
        sch = cls.__new__(cls)
        sch._hold(field, stack)
        return sch

    def _hold(self, field: Field, stack: np.ndarray) -> None:
        short = np.flatnonzero(batched_rank(field, stack) != stack.shape[1])
        if short.size:
            raise BadRank(f"matrix {short[0]} does not have full row rank")
        stack.setflags(write=False)
        self.field = field
        self.stack = stack

    def __len__(self) -> int:
        return len(self.stack)

    def __getitem__(self, i: int) -> Matrix:
        return Matrix(self.field, self.stack[i])


def scheme_to_json(sch: RepairScheme, provenance: dict | None = None) -> dict:
    n, rows, cols = sch.stack.shape
    obj = {
        "v": 1,
        "per_node": [{"i": i + 1, "M": {"rows": rows, "cols": cols,
                                        "entries": entries}}
                     for i, entries in
                     enumerate(sch.stack.reshape(n, -1).tolist())],
    }
    if provenance is not None:
        obj["provenance"] = provenance
    return obj


def _scheme_stack(entries: list):
    """The (n, rows, cols) stack of a well-formed ``per_node`` list, or None.

    Well formed means dicts whose indices are the plain ints 1..n in any
    order and whose matrices share one plain-int shape, each with
    rows*cols plain-int entries that fit in 64 bits (numpy refuses a
    negative shape).  The types are read in one pass over the flattened
    values; any other list is left to :func:`_load_entries`, which names
    its first fault.
    """
    try:
        index = [e["i"] for e in entries]
        ms = [e["M"] for e in entries]
        shapes = [(m["rows"], m["cols"]) for m in ms]
        values = [m["entries"] for m in ms]
        (rows, cols), = set(shapes)
    except (KeyError, TypeError, ValueError):
        return None
    if set(map(type, itertools.chain(index, *shapes))) != {int} or \
            sorted(index) != list(range(1, len(index) + 1)) or \
            set(map(type, values)) != {list} or \
            set(map(len, values)) != {rows * cols} or \
            not set(map(type, itertools.chain.from_iterable(values))) <= {int}:
        return None
    try:
        flat = np.array(values, dtype=np.int64)
        stack = np.empty_like(flat)
        stack[np.array(index) - 1] = flat
        return stack.reshape(len(index), rows, cols)
    except (OverflowError, ValueError):
        return None


def _load_entries(entries: list, field: Field) -> list[Matrix]:
    """The matrices of a ``per_node`` list in index order, entry by entry.

    The first fault is raised as :class:`MalformedInput` (or the
    :class:`LevelMismatch` of an entry out of range).
    """
    by_index = {}
    for entry in entries:
        try:
            i = json_ints(entry["i"], "scheme entry i")
            m = Matrix.from_json_dict(field, entry["M"])
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedInput(f"bad scheme entry: {exc}") from exc
        if i in by_index:
            raise MalformedInput(f"duplicate node index {i}")
        by_index[i] = m
    n = len(by_index)
    if sorted(by_index) != list(range(1, n + 1)):
        raise MalformedInput("scheme node indices must be 1..n")
    return [by_index[i] for i in range(1, n + 1)]


def scheme_from_json(obj: dict, field: Field):
    """Rebuild (scheme, provenance) from a scheme.json dict.

    A well-formed file becomes the stack in whole-array steps
    (:func:`_scheme_stack`); any other is read entry by entry, so every
    fault is named as that route names it.
    """
    try:
        if obj.get("v") != 1 or type(obj["v"]) is not int:
            raise MalformedInput(f"unsupported schema version {obj.get('v')!r}")
        entries = obj["per_node"]
    except (KeyError, TypeError) as exc:
        raise MalformedInput(f"bad scheme object: {exc}") from exc
    if not isinstance(entries, list):
        raise MalformedInput("per_node must be a list")
    stack = _scheme_stack(entries)
    if stack is None:
        return RepairScheme(_load_entries(entries, field)), \
            obj.get("provenance")
    return RepairScheme.from_stack(field, stack), obj.get("provenance")


# ---------------------------------------------------------------------------
# helpers


def _compressed_blocks(field: Field, m_arr: np.ndarray,
                       col_stack: np.ndarray, n: int, ell: int) -> np.ndarray:
    """All products M * (block j) as an (n, l, l) array.

    ``m_arr`` may also be a stack (k, l, r*l) of repair matrices; the
    result is then (k, n, l, l).
    """
    prod = field.matmul(m_arr, col_stack)
    prod = prod.reshape(*prod.shape[:-1], n, ell)
    return np.ascontiguousarray(np.moveaxis(prod, -2, -3))


def _distinct(ms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct matrices of a (k, l, r*l) stack in order of first use,
    and the index of each row's matrix among them: ``ms[a]`` equals
    ``uniq[inv[a]]``, so a stack of distinct matrices is its own.  A
    dict of the rows' bytes finds them, which keeps a stack of one cheap
    and needs no sort.
    """
    keys = [m.tobytes() for m in ms]
    first: dict[bytes, int] = {}  # each distinct matrix's first row
    for a, key in enumerate(keys):
        first.setdefault(key, a)
    if len(first) == len(keys):
        return ms, np.arange(len(keys))
    index = {key: u for u, key in enumerate(first)}
    return ms[list(first.values())], np.array([index[key] for key in keys])


def _check_repair_inputs(s: CodeSkeleton, m: Matrix, i: int) -> None:
    if not 0 <= int(i) < s.n:
        raise BadShape(f"node index {i} out of range for n={s.n}")
    if m.field != s.tower.base:
        raise BadShape("repair matrix is over a different field")
    if m.shape != (s.ell, s.ambient):
        raise BadShape(f"repair matrix must be {s.ell} x {s.ambient}, "
                       f"got {m.rows} x {m.cols}")


def _check_scheme_length(re: Realization, sch: RepairScheme) -> None:
    if len(sch) != re.n:
        raise BadShape(f"scheme has {len(sch)} matrices for {re.n} nodes")


def _node_pass(m: Matrix, s: CodeSkeleton, col_stack: np.ndarray,
               i: int) -> SchemePass:
    """The scheme pass over node i alone, repaired with m, reading the
    (r*l, n*l) ``col_stack``."""
    _check_repair_inputs(s, m, i)
    return _scheme_pass(s, col_stack, [i], RepairScheme([m]).stack)


# ---------------------------------------------------------------------------
# per-matrix metrics and counting diagnostics: one-node scheme passes


def bandwidth(m: Matrix, re: Realization, i: int) -> int:
    """Symbols downloaded when m repairs node i: sum of rank(M H_j).

    Read off the scheme pass over node i alone, which also counts it
    through the kernel of m and the node subspaces; the two routes must
    agree on every helper.  Raises :class:`BadShape` for a bad index, shape or
    field, :class:`BadRank` for an m without full row rank,
    :class:`NotARepairMatrix` naming node i when M H_i is singular, and
    :class:`InternalInconsistency` when a self-check of the pass fails.
    A node that breaches the incidence cap or covers a dual point r times
    consults the MDS verdict within ``DEFAULT_BUDGET``
    (:meth:`CodeSkeleton.mds_witness`); the breach raises only on a
    verified MDS skeleton.
    """
    return _node_pass(m, re.skeleton, re.column_stack(), i).bandwidth[0]


def io_count(m: Matrix, re: Realization, i: int) -> int:
    """Symbols read at the helpers: sum of nonzero columns of M H_j.

    Raises as :func:`bandwidth` does, consulting the MDS verdict within
    ``DEFAULT_BUDGET`` on a breach.
    """
    return _node_pass(m, re.skeleton, re.column_stack(), i).io[0]


@dataclass(frozen=True)
class IncidenceProfile:
    """How a codimension-l subspace W meets the helper nodes.

    ``dims[k]`` is dim(W /\\ H_j) for helper ``helpers[k]``; ``sum_points``
    counts the projective points of W inside the helpers, which can never
    exceed ``cap`` = (r-1) * (number of projective points of F_q^l) on an
    MDS skeleton.
    """

    failed: int
    helpers: tuple[int, ...]
    dims: tuple[int, ...]
    sum_dims: int
    sum_points: int
    cap: int
    holds: bool


def incidence_profile(m: Matrix, s: CodeSkeleton, i: int) -> IncidenceProfile:
    """The profile of W = ker m at node i.

    The pass over node i reads the node bases as columns: ranks,
    intersection dimensions and points depend only on the span of each
    block.  Raises as :func:`bandwidth` does.
    """
    sp = _node_pass(m, s, _columns(s.bases), i)
    helpers = tuple(j for j in range(s.n) if j != i)
    dims = tuple(int(t) for t in sp.dims[0, list(helpers)])
    cap = (s.r - 1) * projective_point_count(s.tower.base.order, s.ell)
    sum_points = int(sp.points[0])
    return IncidenceProfile(failed=i, helpers=helpers, dims=dims,
                            sum_dims=sum(dims), sum_points=sum_points,
                            cap=cap, holds=sum_points <= cap)


@dataclass(frozen=True)
class HierarchyLine:
    s: int
    lhs: int
    rhs: int
    holds: bool


def hierarchy_check(pr: IncidenceProfile, ell: int, r: int,
                    q: int) -> tuple[HierarchyLine, ...]:
    """Subspace-counting inequalities for every dimension s in [1, l].

    For each s the number of s-dimensional subspaces inside the W /\\ H_j,
    summed over helpers, is at most (r-1) times the count in F_q^l.  The
    s = 1 line is exactly the point count of the profile.
    """
    out = []
    for s_dim in range(1, ell + 1):
        lhs = sum(gaussian_binomial(t, s_dim, q) for t in pr.dims)
        rhs = (r - 1) * gaussian_binomial(ell, s_dim, q)
        out.append(HierarchyLine(s=s_dim, lhs=lhs, rhs=rhs, holds=lhs <= rhs))
    return tuple(out)


@dataclass(frozen=True)
class DualCover:
    """Multiplicity of each dual projective point over the helper family.

    ``mults[k]`` counts the helpers j whose compressed block M H_j is
    annihilated by the k-th canonical covector; on an MDS skeleton no
    covector can kill r of them.  ``regular`` reports whether every
    multiplicity equals r - 1 exactly.
    """

    failed: int
    points: np.ndarray
    mults: tuple[int, ...]
    max_mult: int
    regular: bool
    total: int


def dual_cover(m: Matrix, s: CodeSkeleton, i: int) -> DualCover:
    """The dual cover of m at node i, read like :func:`incidence_profile`.

    Raises as :func:`bandwidth` does.
    """
    sp = _node_pass(m, s, _columns(s.bases), i)
    mults = tuple(int(x) for x in sp.mults[0])
    return DualCover(failed=i, points=projective_point_array(s.tower.base,
                                                             s.ell),
                     mults=mults, max_mult=max(mults),
                     regular=all(x == s.r - 1 for x in mults),
                     total=sum(mults))


# ---------------------------------------------------------------------------
# exhaustive optimization over repair subspaces


# A row table whose bitsets over the scanned part of a pattern take at most
# this many bytes is formed once per pattern; a larger one is formed for
# each block instead.  Any table is formed in slices whose int64 sums take
# at most this many bytes.
_ROW_TABLE_BYTES = 1 << 24
# A block holds as many whole runs as keep its grids of feasibility and
# objective words within this many bytes, or one slice of a longer run.
_BLOCK_BYTES = 1 << 20
# A bandwidth row is kept as bitsets when they take at most this many
# 64-bit words per entry of its l x l blocks (the measured crossover lies
# between 1.7 and 7.7); the blocks of a wider row are eliminated instead.
_BITSET_WORDS = 2
_PACK_BOOLS = 1 << 24  # booleans packed at a time


def _kernel_masks(field: Field, vecs: np.ndarray, dims) -> list:
    """For each s in ``dims``, whether each s-subspace of F_q^l lies in the
    kernel of each row of ``vecs``: a (len(vecs), [l, s]_q) table."""
    ell = vecs.shape[1]
    bases = [np.concatenate([b for _, b in rref_blocks(field.order, s, ell)])
             for s in dims]
    return [(field.matmul(vecs, b.reshape(-1, ell).T).reshape(
        len(vecs), len(b), -1) == 0).all(axis=2) for b in bases]


def _nullity_weights(q: int, ell: int) -> list[int]:
    """c_1 .. c_l with sum_s c_s [t, s]_q = t for t = 0 .. l (for l = 2:
    1 and 1 - q): a t-space holds [t, s]_q subspaces of dimension s."""
    c: list[int] = []
    for t in range(1, ell + 1):
        c.append(t - sum(cs * gaussian_binomial(t, s, q)
                         for s, cs in enumerate(c, 1)))
    return c


def _code_sums(p: int, order: int) -> np.ndarray:
    """x + y for every pair of codes x, y of a field of characteristic p
    and this order, flat at x * order + y: codes add mod p in each base-p
    digit, in F_q as in F_q^l, whose coordinates are base-q digits."""
    digit = (np.arange(p)[:, None] + np.arange(p)) % p
    sums = np.zeros((1, 1), dtype=np.min_scalar_type(order - 1))
    while len(sums) < order:  # one more high digit
        k = len(sums)
        sums = (digit[:, None, :, None] * k + sums[None, :, None, :]).astype(
            sums.dtype).reshape(p * k, p * k)
    return sums.ravel()


def _block(outer: list, head: np.ndarray, t: int, n: int) -> np.ndarray:
    """The AND of the l rows of flat candidates t .. t + n - 1 of a block.

    ``outer`` holds rows 1 .. l-1 freshly gathered once per run, (words,
    runs), ANDed in the first, and ``head`` the row-0 slice every run
    reads, (words, entries); their grid is flattened in (run, entry)
    order."""
    if not outer:
        return head[:, t:t + n]
    acc = functools.reduce(lambda x, y: np.bitwise_and(x, y, out=x), outer)
    grid = np.bitwise_and(acc[:, :, None], head[:, None, :])
    return grid.reshape(len(acc), acc.shape[1] * head.shape[1])[:, t:t + n]


class _Scan:
    """How one scan reads feasibility and its objective off row products.

    Row r of M (H_i | T) is kept as packed uint64 bitsets, word-major: a
    table is (words, entries).  A candidate is read by ANDing its l rows
    and counting bits.  Feasibility has a bit per projective point x of
    F_q^l, set when row H_i x = 0, and holds when the AND is zero.  io
    has a bit per column of M T, set when the row's entry is 0.
    Bandwidth has a bit per helper j and s-subspace S of F_q^l, set when
    S lies in ker(row H_j), in a word-aligned region per s: the AND's
    popcount N_s over region s, one integer sum over the region's words,
    counts the s-subspaces of every ker(M H_j), so the total nullity is
    sum_s c_s N_s (:func:`_nullity_weights`), for rank-deficient H_j too.
    Bits come from the code of a helper's l entries (its base-q digits)
    through q^l-entry mask tables.  Codes are formed by :meth:`add`, mod p
    in each base-p digit (XOR in characteristic 2, else a table of
    (q^l)^2 sums), from the codes of the multiples d * x, d in F_q
    (:meth:`images`), with no field product.  A bandwidth row wider than ``_BITSET_WORDS`` words per
    block entry keeps its entries instead, (columns, entries), and the
    blocks of its feasible candidates are eliminated in slices whose int64
    blocks take at most an eighth of ``_PASS_BYTES``.

    :meth:`feasible` and :meth:`value` read a block of candidates: the
    outer rows gathered per run, the row-0 slice and the flat candidates
    t .. t + n - 1 of their grid (see :func:`_block`).
    """

    def __init__(self, field: Field, ell: int, n_cols: int, objective: str):
        q = field.order
        self.field, self.ell, self.n_cols = field, ell, n_cols
        self.entry_dtype = np.min_scalar_type(q - 1)
        self.top = q ** ell
        self.code_dtype = np.min_scalar_type(self.top - 1)
        self._sums = None if field.p == 2 else _code_sums(field.p, self.top)
        self.powers = q ** np.arange(ell)
        vecs = (np.arange(q ** ell)[:, None] // self.powers) % q
        # the code of d * x for each d in F_q and code x of F_q^l
        self._scaled = (field.arr_mul(np.arange(q)[:, None, None], vecs)
                        @ self.powers).astype(self.code_dtype)
        self.points = _kernel_masks(field, vecs, [1])
        dims = range(1, ell + 1)
        self.masks, self.regions = None, None
        if objective == "columns":
            self.masks, weights = [vecs == 0], [1]
        elif sum(gaussian_binomial(ell, s, q)
                 for s in dims) <= 64 * _BITSET_WORDS * ell * ell:
            self.masks = _kernel_masks(field, vecs, dims)
            weights = _nullity_weights(q, ell)
        obj_bytes = ell * n_cols * self.entry_dtype.itemsize
        if self.masks is not None:
            ends = list(itertools.accumulate(
                (-(-n_cols * m.shape[1] // 64) for m in self.masks),
                initial=0))
            self.regions = list(zip(ends, ends[1:], weights))
            # the least signed type that holds every sum_s c_s N_s and -1
            self.value_dtype = np.min_scalar_type(-1 - sum(
                abs(c) * (64 * (w1 - w0) + 1) for w0, w1, c in self.regions))
            obj_bytes = 8 * ends[-1]
        # the bytes of one table entry, feasibility and objective
        self.entry_bytes = 8 * -(-self.points[0].shape[1] // 64) + obj_bytes

    def images(self, rows: np.ndarray) -> np.ndarray:
        """(q, len(rows), helpers): the codes of d * rows[t] per helper."""
        return self._scaled[:, rows.reshape(len(rows), -1, self.ell)
                            @ self.powers]

    def add(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Codes of x + y in F_q^l, broadcast (x the smaller operand)."""
        if self._sums is None:  # characteristic 2
            return np.bitwise_xor(x, y)
        return np.take(self._sums, x.astype(np.intp) * self.top + y)

    def _bits(self, masks: list, codes: np.ndarray) -> np.ndarray:
        """Entries of helper codes as word-major bitsets: a word-aligned
        region per mask table, with the table's bits for each code."""
        words = [-(-codes.shape[1] * m.shape[1] // 64) for m in masks]
        out = np.zeros((len(codes), sum(words)), dtype=np.uint64)
        step = max(1, _PACK_BOOLS // (64 * sum(words) + 1))
        for lo in range(0, len(codes), step):
            at, col = out[lo:lo + step].view(np.uint8), 0
            for m, w in zip(masks, words):
                bits = np.take(m, codes[lo:lo + step], axis=0)
                packed = np.packbits(bits.reshape(len(at), -1), axis=1,
                                     bitorder="little")
                at[:, col:col + packed.shape[1]] = packed
                col += 8 * w
        return np.ascontiguousarray(out.T)

    def feas_form(self, codes: np.ndarray) -> np.ndarray:
        return self._bits(self.points, codes)

    def obj_form(self, codes: np.ndarray) -> np.ndarray:
        if self.masks is not None:
            return self._bits(self.masks, codes)
        entries = codes[:, :, None] // self.powers % self.field.order
        return np.ascontiguousarray(entries.reshape(len(codes), -1).T,
                                    dtype=self.entry_dtype)

    def feasible(self, outer, head, t: int, n: int) -> np.ndarray:
        """Whether each candidate's M H_i is invertible."""
        return functools.reduce(np.bitwise_or, _block(outer, head, t, n)) == 0

    def value(self, outer, head, t: int, n: int,
              feasible: np.ndarray) -> np.ndarray:
        """Each candidate's objective value, -1 where it is infeasible."""
        if self.regions is not None:
            counts = np.bitwise_count(_block(outer, head, t, n))
            value = sum(c * counts[w0:w1].sum(axis=0, dtype=self.value_dtype)
                        for w0, w1, c in self.regions)
            return (value + 1) * feasible - 1  # faster than np.where
        ell, h = self.ell, self.n_cols
        value = np.full(n, -1, dtype=np.int64)
        sel = np.flatnonzero(feasible)
        # int64 blocks of an eighth of _PASS_BYTES a slice: batched_rank's
        # two copies and the elimination's temporaries stay within it
        step = max(1, _PASS_BYTES // (64 * ell * ell * h + 1))
        for lo in range(0, len(sel), step):
            part = sel[lo:lo + step]
            run, entry = np.divmod(part + t, head.shape[1])
            rows = np.stack([head[:, entry]] + [o[:, run] for o in outer])
            cube = rows.reshape(ell, h, ell, len(part)).transpose(3, 1, 0, 2)
            ranks = batched_rank(self.field, cube.reshape(-1, ell, ell))
            value[part] = (ell - ranks.reshape(len(part), h)).sum(axis=1)
        return value


class _RowTable:
    """Row r of M H_i and of M T for the candidates of a window of one pattern.

    Row r of a candidate depends only on its own free entries, which are
    digits o .. o+f-1 of its pattern-relative index c, so only on w = c //
    q^o mod q^f.  Over the window [a, b) the table has one entry per value
    of w met, at most q^f: entry k is for w = ``first`` + k, and candidate
    c reads entry (c // q^o - first) mod ``count``; first is 0 when the
    table holds all q^f values, so that entry k is w = k, and a // q^o
    otherwise.  Entry w is rows[0] + sum_t d_t(w) rows[1+t] over the pivot
    and free columns of row r, formed as the codes of its helpers in F_q^l
    by sums of codes, with no product (see :meth:`_codes`), and kept as
    the row's word-major bitsets (see :class:`_Scan`), feasibility and
    objective from one set of codes, in slices of at most
    ``_ROW_TABLE_BYTES`` of int64 sums.  Every table's rows are checked
    to be codes of F_q before any is summed.
    """

    def __init__(self, scan: _Scan, row, a: int, b: int, bound: int):
        o, self._f, feas_rows, obj_rows = row
        q = scan.field.order
        self._scan, self._bound, self.step = scan, bound, q ** o
        self.count = _window_count(q, row, a, b)
        self.first = 0 if self.count == q ** self._f else a // self.step
        rows = np.hstack([feas_rows, obj_rows])
        _check_codes(scan.field, rows)
        images = scan.images(rows)
        # a slice forms at most 2n codes per helper, added as int64
        step = max(1, _ROW_TABLE_BYTES // (16 * images.shape[2] + 1))
        feas, obj = [], []
        for e in range(0, self.count, step):
            codes = self._codes(images, self.first + e,
                                min(step, self.count - e))
            feas.append(scan.feas_form(codes[:, :1]))
            obj.append(scan.obj_form(codes[:, 1:]))
        self.feas, self.obj = (parts[0] if len(parts) == 1 else
                               np.concatenate(parts, axis=1)
                               for parts in (feas, obj))

    def _codes(self, images: np.ndarray, w0: int, n: int) -> np.ndarray:
        """(n, helpers): the codes of entries w0 .. w0 + n - 1.

        The j lowest digits, q^(j+1) <= n, are summed as outer sums of
        their images onto the table built so far, from rows[0]; the higher
        digits of the at most q^2 + 1 values of w // q^j met are summed
        one digit at a time; their outer sum holds the n entries."""
        scan, q, f = self._scan, self._scan.field.order, self._f
        h = images.shape[2]
        j = 0
        while j < f and q ** (j + 2) <= n:
            j += 1
        if n == q ** f and w0 % n == 0:  # the whole table, in order
            j = f
        low = images[1, :1]
        for t in range(j):
            low = scan.add(images[:, 1 + t, None], low[None]).reshape(-1, h)
        if j == f:
            return low
        v0 = w0 // q ** j
        v = _counter(v0, (w0 + n - 1) // q ** j - v0 + 1, self._bound)
        high = np.zeros((len(v), h), dtype=scan.code_dtype)
        for t in range(j, f):
            d = (v // q ** (t - j) % q).astype(np.intp)
            high = scan.add(high, images[d, 1 + t])
        out = scan.add(high[:, None], low[None]).reshape(-1, h)
        return out[w0 - v0 * q ** j:][:n]

    def index(self, u0: int, u1: int, run: int) -> np.ndarray:
        """The entry that each run u0 .. u1 - 1 of ``run`` candidates reads
        (``run`` divides q^o)."""
        step = self.step // run
        k = _counter(u0 % step, u1 - u0, step + u1 - u0) // step
        base = (u0 // step - self.first) % self.count
        return ((k + base) % self.count).astype(np.intp, copy=False)


def _bruteforce(field: Field, targets: np.ndarray, block_i: np.ndarray,
                ell: int, d: int, objective: str, start: int, stop: int):
    """Scan canonical RREF candidates in [start, stop).

    ``targets`` is the (d, k) column stack the objective reads from and
    ``block_i`` the (d, l) column stack of the failed node used for the
    feasibility filter.  Returns (best value, witness array, count) with
    the witness being the first maximizer; (-1, None, count) if nothing
    in the range is feasible.

    Candidates are read per pivot pattern, from row tables (see
    :class:`_RowTable`) whose bitsets are ANDed and counted, not
    multiplied (see :class:`_Scan`).  Row 0 holds the lowest f0 digits of
    a candidate's index, so a pattern is runs of q^f0 candidates that
    share rows 1 .. l-1 and read row 0's entries in order.  A block is
    as many whole runs as keep its grids within ``_BLOCK_BYTES`` at
    ``entry_bytes`` a candidate, K = max(1, per // run) for per =
    ``_BLOCK_BYTES`` // ``entry_bytes``, or a slice of per candidates of
    a longer run: its outer rows are gathered and ANDed once per run, then ANDed
    with one slice of row 0's table by broadcasting, and its candidates
    are a flat slice of that grid, in ascending index.  Feasibility is
    read for the whole block, then the objective, -1 where infeasible,
    so the block's first maximizer is its first argmax.  A row gets one
    table over the scanned part of its pattern when its bitsets take at
    most ``_ROW_TABLE_BYTES``; such a table never has more entries than
    the part has candidates.  Otherwise each block gets its own table.
    A part shorter than a run reads row 0 from a table in window order,
    so that its blocks end with their run.
    """
    q = field.order
    scan = _Scan(field, ell, targets.shape[1] // ell, objective)
    best, best_at = -1, None
    for offset, pivots, free, lo, hi in _pivot_patterns(q, ell, d, start,
                                                        stop):
        bound = q ** len(free)
        rows, o = [], 0
        for r, p in enumerate(pivots):
            cols = [p] + [j for i, j in free if i == r]
            rows.append((o, len(cols) - 1, block_i[cols], targets[cols]))
            o += len(cols) - 1
        run = q ** rows[0][1]
        per = max(1, _BLOCK_BYTES // scan.entry_bytes)
        cell = min(max(1, per // run) * run, per)
        shared = [_RowTable(scan, row, lo, hi, bound)
                  if _window_count(q, row, lo, hi) * scan.entry_bytes
                  <= _ROW_TABLE_BYTES else None for row in rows]
        a = lo
        while a < hi:
            b = min(hi, a - a % cell + cell)
            if cell < run or hi - lo < run:
                b = min(b, a - a % run + run)
            head, *outer = [t or _RowTable(scan, row, a, b, bound)
                            for t, row in zip(shared, rows)]
            u0, u1 = a // run, (b - 1) // run + 1
            e = (a - head.first) % head.count
            e0, e1, t = (e, e + b - a, 0) if u1 - u0 == 1 else (0, run, e)
            at = [o.index(u0, u1, run) for o in outer]
            feasible = scan.feasible([np.take(o.feas, i, axis=1)
                                      for o, i in zip(outer, at)],
                                     head.feas[:, e0:e1], t, b - a)
            if feasible.any():
                value = scan.value([np.take(o.obj, i, axis=1)
                                    for o, i in zip(outer, at)],
                                   head.obj[:, e0:e1], t, b - a, feasible)
                j = int(np.argmax(value))
                if value[j] > best:
                    best, best_at = int(value[j]), offset + a + j
            a = b
    witness = None
    if best_at is not None:
        witness = next(rref_blocks(q, ell, d, best_at, best_at + 1))[1][0]
    return best, witness, stop - start


def _window_count(q: int, row, a: int, b: int) -> int:
    """Entries of the table of ``row`` over the window [a, b)."""
    o, f, _, _ = row
    return min((b - 1) // q ** o - a // q ** o + 1, q ** f)


def _scan_node(s: CodeSkeleton, stack: np.ndarray, i: int, objective: str,
               index_range, budget: int):
    """Scan node i with ``objective`` over the (n, l, d) ``stack`` it reads.

    Checks the node index, the MDS verdict (within ``budget``) and the
    range, which without ``index_range`` is every candidate and must fit
    in ``budget``.  Returns (value, witness Matrix or None).
    """
    if not 0 <= int(i) < s.n:
        raise BadShape(f"node index {i} out of range for n={s.n}")
    witness = s.mds_witness(budget)
    if witness is not None:
        raise NotMds(witness)
    field = s.tower.base
    total = gaussian_binomial(s.ambient, s.ell, field.order)
    if index_range is None:
        if total > budget:
            raise BudgetExceeded(total)
        start, stop = 0, total
    else:
        start, stop = int(index_range[0]), int(index_range[1])
        if not 0 <= start <= stop <= total:
            raise BadShape(
                f"index range [{start}, {stop}) outside [0, {total})")
    helpers = [j for j in range(s.n) if j != i]
    best, witness, _ = _bruteforce(field, _columns(stack[helpers]),
                                   _columns(stack[[i]]), s.ell, s.ambient,
                                   objective, start, stop)
    return best, None if witness is None else Matrix(field, witness)


def bruteforce_overlap(s: CodeSkeleton, i: int,
                       index_range: tuple[int, int] | None = None,
                       budget: int = DEFAULT_BUDGET):
    """Exact maximum of the total helper intersection dimension at node i.

    Scans every feasible codimension-l repair subspace once; the optimal
    repair bandwidth for node i is l*(n-1) minus the returned value.
    ``budget`` bounds the candidates scanned without ``index_range`` and
    the r-subsets the MDS check may rank.  Returns (value, witness Matrix).
    """
    return _scan_node(s, s.bases, i, "overlap", index_range, budget)


def bruteforce_column_hits(re: Realization, i: int,
                           index_range: tuple[int, int] | None = None,
                           budget: int = DEFAULT_BUDGET):
    """Exact maximum number of helper parity columns inside ker(M) at node i.

    The realization's actual column vectors are what count here; the
    optimal repair I/O for node i is l*(n-1) minus the returned value.
    ``budget`` is as in :func:`bruteforce_overlap`.  Returns (value,
    witness Matrix).
    """
    return _scan_node(re.skeleton, re.points, i, "columns", index_range,
                      budget)


# ---------------------------------------------------------------------------
# scheme evaluation


@dataclass(frozen=True)
class NodeMetrics:
    """Per-node achieved repair cost of a concrete scheme, plus aggregates.

    ``bandwidth``/``io`` are what the scheme's matrices actually achieve
    (wire names beta/gamma); gaps measure the distance to the
    incidence-multiplicity bound, and ``equality`` is set when every gap
    vanishes.
    """

    n: int
    ell: int
    bandwidth: tuple[int, ...]
    io: tuple[int, ...]
    bounds: BoundsReport
    bandwidth_avg: Fraction
    bandwidth_max: int
    io_avg: Fraction
    io_max: int
    bandwidth_gap: tuple[int, ...]
    io_gap: tuple[int, ...]
    equality: bool

    @property
    def overlap_achieved(self) -> tuple[int, ...]:
        return tuple(self.ell * (self.n - 1) - b for b in self.bandwidth)

    @property
    def column_hits_achieved(self) -> tuple[int, ...]:
        return tuple(self.ell * (self.n - 1) - g for g in self.io)

    def to_json_dict(self) -> dict:
        def frac(x: Fraction):
            return int(x) if x.denominator == 1 else str(x)
        return {
            "per_node": [
                {"i": i + 1, "beta": self.bandwidth[i], "gamma": self.io[i],
                 "gap": max(self.bandwidth_gap[i], self.io_gap[i])}
                for i in range(self.n)
            ],
            "aggregates": {
                "beta_avg": frac(self.bandwidth_avg),
                "beta_max": self.bandwidth_max,
                "gamma_avg": frac(self.io_avg),
                "gamma_max": self.io_max,
            },
            "bounds": self.bounds.to_json_dict(),
            "equality": self.equality,
        }


# Most entries of one chunk's left-kernel points (distinct matrices x
# nodes x t x l, t = (q^l - 1)/(q - 1)): a block adds at most t points of
# l entries, all t only when it is zero, so on any input, MDS or not, a
# chunk's points take at most this many entries (or n t l, for a chunk of
# one matrix).  On a verified MDS code, where no point is covered r times,
# they take at most (r - 1) t l per matrix that repairs a node.  The pass
# takes its distinct matrices a chunk at a time, so that its memory stays
# small at any n; this bound also keeps a chunk's blocks M H_j, and the
# extension-field product steps that form them, at l/t of it.
_PASS_CELLS = 1 << 15

# Most bytes the three uint8 (k, n) arrays of a pass over k nodes may take,
# 3kn in all, so a whole scheme has n <= 9459.  They are the pass's only
# arrays that grow as k n; the rows gather them from the same three
# arrays over the d distinct matrices, 3dn more bytes when d < k (when
# d = k they are the results themselves).  Measured with eval on a q = 2,
# l = 1 file of two distinct matrices (2-core host, one process): at n =
# 9459 it peaks at 300 MB and takes 0.9 s, against 10 s when the pass
# worked every row.
_PASS_BYTES = 1 << 28


@dataclass(frozen=True)
class SchemePass:
    """The repair numbers of k (node, matrix) pairs, from batched products.

    Row a of each (k, n) array is about repairing node i = ``nodes[a]``
    with its matrix M of the pass, and column j about node j: ``ranks``
    is rank(M H_j) (the rank route), ``dims`` is dim(W /\\ H_j) for W =
    ker M (the kernel route), ``columns`` counts the nonzero columns of M
    H_j.  ``mults[a, c]`` is the number of helpers j != i whose block M
    H_j the c-th canonical covector of F_q^l annihilates
    (:func:`dual_cover`), counted from the points of each block's left
    kernel rather than from a product, and ``points[a]`` the number of
    projective points of W inside the helpers (:func:`incidence_profile`).
    ``bandwidth`` and ``io`` sum the helpers' ranks and nonzero columns.
    Every entry of the three (k, n) arrays is at most l, so they are
    stored as uint8.  A whole scheme's pass has row i about node i.
    Rows with the same matrix have the same ``ranks``, ``dims``,
    ``columns`` and ``mults`` rows, which the pass computes once
    (:func:`_scheme_pass`).
    """

    ranks: np.ndarray
    dims: np.ndarray
    columns: np.ndarray
    mults: np.ndarray
    points: np.ndarray
    bandwidth: tuple[int, ...]
    io: tuple[int, ...]


def _left_kernel_points(field: Field, blocks: np.ndarray,
                        lookup: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The covector index of every projective point in each left kernel.

    ``blocks`` is a (g, l, l) stack.  One elimination of its transposes
    gives each left kernel {y : y B = 0}, the right kernel of B^T, whose
    basis (:func:`null_columns`, one call per rank) times the projective
    points of F_q^d, d = l - rank, lists the kernel's points.  Each is
    scaled to lead with 1 and read off ``lookup``, the covector index of
    every base-q code (-1 off the canonical covectors).  Returns (block,
    index) arrays with one entry a point; a zero point gets index -1.
    """
    ell = blocks.shape[1]
    reduced, ranks, is_piv = _elimination_ranks(
        field, blocks.swapaxes(1, 2).copy())
    block = [np.empty(0, dtype=np.int64)]
    points = [np.empty((0, ell), dtype=np.int64)]
    for m in range(ell):
        grp = np.flatnonzero(ranks == m)
        if grp.size == 0:
            continue
        basis = null_columns(field, reduced[grp, :m], is_piv[grp])
        pts = field.matmul(projective_point_array(field, ell - m),
                           basis.swapaxes(1, 2))
        block.append(np.repeat(grp, pts.shape[1]))
        points.append(pts.reshape(-1, ell))
    pts = np.concatenate(points)
    index = np.full(len(pts), -1)
    nonzero = pts.any(axis=1)
    index[nonzero] = lookup[canonical_points(field, pts[nonzero])
                            @ field.order ** np.arange(ell)]
    return np.concatenate(block), index


def _scheme_pass(s: CodeSkeleton, col_stack: np.ndarray, nodes,
                 ms: np.ndarray, budget: int = DEFAULT_BUDGET) -> SchemePass:
    """The numbers of :class:`SchemePass`, with every self-check applied.

    ``col_stack`` is the (r*l, n*l) stack of every node's columns H_j,
    ``nodes`` the k nodes to repair (repeats allowed) and ``ms`` their
    (k, l, r*l) matrices, each of full row rank; the caller checks their
    shapes and indices.  A whole scheme is every node with its own
    matrix, a per-matrix question one node.

    Every number of block M H_j depends only on M and j, so the pass
    works once per distinct matrix of ``ms`` (:func:`_distinct`) and node
    j, and row a reads its matrix's row.  A constructed scheme has two
    distinct matrices, so its pass forms 2n blocks, not n^2.  Row a's
    sums over its helpers are its matrix's sums over all n nodes less
    column i = ``nodes[a]``.  Only bandwidth and io need that column
    taken off: an invertible M H_i on which both routes agree has
    dimension 0 and an empty left kernel, so it adds no point and no
    covector, and a row whose M H_i is not such is refused before its
    points and ``mults`` are read.

    The rank route forms every block M H_j with one product and ranks
    all of them at once.  The kernel route takes every W from one
    :func:`kernels` elimination and never forms M H_j: with K the kernel
    basis of W's RREF (:func:`linalg.null_columns`), rank [W; B_j] = dim
    W + rank(B_j K), so dim(W /\\ H_j) = l - rank(B_j K), all of them
    ranked at once too.  The dual cover lists the left kernel of every
    block of rank below l: a block of rank l - d is annihilated by
    exactly the (q^d - 1)/(q - 1) covectors of its left kernel, so only
    those are counted (:func:`_left_kernel_points`), with one scatter-add
    into ``mults``.  Their kernel dimensions come from their own
    elimination, not from the ranks, so the dual-cover total is still
    checked against another computation.
    "All" means all of one chunk of distinct matrices: a chunk's
    left-kernel points have at most about ``_PASS_CELLS`` entries, and
    its per-matrix sums are taken before the next chunk, so the only
    (k, n) arrays are the three narrow results.
    A k whose three arrays would pass ``_PASS_BYTES`` raises
    :class:`BudgetExceeded` before any product.

    Row by row, the checks are that M H_i is invertible (else
    :class:`NotARepairMatrix` naming node i), that both routes agree on
    every block and that io is not below bandwidth; then, row by row
    again, the incidence cap, the dual-cover total against the ranks, and
    no covector counted r times.  The cap and the r-fold cover are
    breaches only on a verified MDS skeleton, which is consulted only
    then (within ``budget``, see :meth:`CodeSkeleton.mds_witness`).  A
    breach raises :class:`InternalInconsistency` naming its node; a
    fault of one matrix's numbers is named at the first row that uses
    it.
    """
    field = s.tower.base
    n, ell, r = s.n, s.ell, s.r
    q = field.order
    nodes = np.asarray(nodes, dtype=np.int64)
    k = len(nodes)
    if 3 * k * n > _PASS_BYTES:
        raise BudgetExceeded(k * n, "node pairs",
                             f"a scheme pass keeps 3 bytes a pair and at "
                             f"most {_PASS_BYTES} bytes")
    ms, inv = _distinct(ms)
    d = len(ms)

    ws, is_piv = kernels(field, ms)
    wdim = s.ambient - ell
    if (is_piv.sum(axis=1) != wdim).any():
        raise InternalInconsistency("a repair kernel has the wrong dimension")
    kb = linalg.null_columns(field, ws[:, :wdim], is_piv)

    covectors = projective_point_array(field, ell)
    t = len(covectors)
    lookup = np.full(q ** ell, -1, dtype=np.int64)  # q^l <= 1024 entries
    lookup[covectors @ q ** np.arange(ell)] = np.arange(t)
    points_of = np.array([projective_point_count(q, dim)
                          for dim in range(ell + 1)])
    # per distinct matrix u and node j, and u's sums over every j
    ranks, dims, columns = (np.empty((d, n), dtype=np.uint8)
                            for _ in range(3))
    mults = np.empty((d, t), dtype=np.int64)
    bw, io, points, covered = (np.empty(d, dtype=np.int64) for _ in range(4))
    route = np.empty(d, dtype=bool)
    step = max(1, _PASS_CELLS // (n * t * ell))
    flat = (-1, ell, ell)
    for u in range(0, d, step):
        at = slice(u, u + step)
        blocks = _compressed_blocks(field, ms[at], col_stack, n, ell)
        rk = batched_rank(field, blocks.reshape(flat)).reshape(-1, n)
        cols = (blocks != 0).any(axis=2).sum(axis=2)
        s_blocks = field.matmul(s.bases[None], kb[at, None])
        dm = ell - batched_rank(field, s_blocks.reshape(flat)).reshape(-1, n)
        row, j = np.nonzero(rk < ell)
        block, index = _left_kernel_points(field, blocks[row, j], lookup)
        owner = row[block]
        if (index < 0).any():
            bad = u + owner[np.argmax(index < 0)]
            raise InternalInconsistency(
                "a left-kernel point is not a canonical covector at node "
                f"{nodes[np.argmax(inv == bad)]}")
        mults[at] = np.bincount(owner * t + index,
                                minlength=len(rk) * t).reshape(-1, t)
        ranks[at], dims[at], columns[at] = rk, dm, cols
        bw[at] = rk.sum(axis=1)
        io[at] = cols.sum(axis=1)
        points[at] = points_of[dm].sum(axis=1)
        covered[at] = points_of[ell - rk].sum(axis=1)
        route[at] = (rk != ell - dm).any(axis=1)

    # row a reads its matrix's row inv[a], row a itself when the matrices
    # are distinct; only bw and io drop its own column (see above)
    rows = inv if d < k else slice(None)
    own_rk = ranks[inv, nodes]
    bw = bw[rows] - own_rk
    io = io[rows] - columns[inv, nodes]
    points, covered, route = points[rows], covered[rows], route[rows]
    ranks, dims, columns, mults = (x[rows] for x in
                                   (ranks, dims, columns, mults))

    singular = own_rk != ell
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


def evaluate_scheme(re: Realization, sch: RepairScheme, *,
                    scheme_pass: SchemePass | None = None,
                    budget: int = DEFAULT_BUDGET) -> NodeMetrics:
    """Achieved bandwidth/IO of the scheme at every node, with bound gaps.

    Everything is read from one :func:`_scheme_pass` over every node; a
    caller that already has the scheme's pass hands it over as
    ``scheme_pass``.  ``budget`` bounds the MDS check a breach asks for,
    as in :func:`_scheme_pass`.
    """
    s = re.skeleton
    sp = scheme_pass
    if sp is None:
        _check_scheme_length(re, sch)
        _check_repair_inputs(s, sch[0], 0)  # every matrix has its shape
        sp = _scheme_pass(s, re.column_stack(), range(s.n), sch.stack,
                          budget)
    bw, io = sp.bandwidth, sp.io
    rep = bounds_report(s.tower.q, s.ell, s.r, s.n)
    bw_gap = tuple(b - rep.im_bound for b in bw)
    io_gap = tuple(g - rep.im_bound for g in io)
    if any(g < 0 for g in bw_gap + io_gap) and \
            s.mds_witness(budget) is None:
        raise InternalInconsistency("achieved cost below the proven bound")
    return NodeMetrics(
        n=s.n, ell=s.ell,
        bandwidth=bw, io=io, bounds=rep,
        bandwidth_avg=Fraction(sum(bw), s.n), bandwidth_max=max(bw),
        io_avg=Fraction(sum(io), s.n), io_max=max(io),
        bandwidth_gap=bw_gap, io_gap=io_gap,
        equality=all(g == 0 for g in bw_gap + io_gap),
    )
