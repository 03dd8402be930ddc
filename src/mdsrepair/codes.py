"""MDS array-code skeletons, parity-check realizations, and bound formulas.

A skeleton is a family of n node subspaces of F_q^(r*l), each of
dimension l; it is MDS when every r of them sum to the whole ambient
space, and then any choice of l distinct spanning projective points per
node realizes it as a concrete parity-check matrix whose column space at
node i is the node subspace.  Codewords are elements of the kernel of
that parity-check matrix, grouped into n blocks of l symbols.

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
    MalformedInput,
    NotMds,
    NotSpanning,
    PointOutsideNode,
    RepairToolError,
    TooFewNodes,
    WrongAmbient,
    WrongNodeDim,
)
from .gf import FieldTower, prime_power
from .linalg import (
    Matrix,
    Subspace,
    _elimination_ranks,
    batched_rank,
    canonical_point,
    gaussian_binomial,
    kernel,
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

    ``labels`` are the nodes' curve parameters as written in
    ``code.json`` (decimal codes, ``"inf"``), or None; they are a claim
    that :meth:`mds_witness` checks, never trusted.
    """

    __slots__ = ("tower", "r", "nodes", "labels", "_bases", "_mds")

    def __init__(self, tower: FieldTower, r: int,
                 nodes: Sequence[Subspace],
                 labels: Sequence[str] | None = None):
        r = int(r)
        nodes = tuple(nodes)
        ell = tower.ell
        ambient = r * ell
        if len(nodes) < r or r < 1:
            raise TooFewNodes(f"need at least r={r} nodes, got {len(nodes)}")
        for i, s in enumerate(nodes):
            if s.ambient != ambient or s.field != tower.base:
                raise WrongAmbient(
                    f"node {i} lives in ambient {s.ambient}, expected {ambient}")
            if s.dim != ell:
                raise WrongNodeDim(
                    f"node {i} has dimension {s.dim}, expected {ell}")
        self.tower = tower
        self.r = r
        self.nodes = nodes
        self.labels = None if labels is None else tuple(map(str, labels))
        self._bases = None
        self._mds = False  # not yet checked

    @property
    def n(self) -> int:
        return len(self.nodes)

    @property
    def ell(self) -> int:
        return self.tower.ell

    @property
    def ambient(self) -> int:
        return self.r * self.tower.ell

    def basis_stack(self) -> np.ndarray:
        """All node bases as one (n, l, r*l) array (cached, read-only)."""
        if self._bases is None:
            b = np.stack([s.basis.array for s in self.nodes])
            b.setflags(write=False)
            self._bases = b
        return self._bases

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


def skeleton_new(tower: FieldTower, r: int,
                 subspaces: Sequence[Subspace]) -> CodeSkeleton:
    """Validate dimensions and assemble a skeleton (MDS-ness not asserted)."""
    return CodeSkeleton(tower, r, subspaces)


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
    bases = s.basis_stack()
    for prefixes, which, last in _mds_subsets(s.n, s.r, _MDS_CHUNK):
        reduced, ranks, is_piv = _elimination_ranks(
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
    """A skeleton together with concrete parity-check blocks and columns.

    ``blocks[i]`` is the (r*l) x l block whose t-th column is the chosen
    canonical representative of the t-th projective column point of node
    i; ``column_sets[i]`` is that point list.
    """

    __slots__ = ("skeleton", "blocks", "column_sets", "_parity", "_kernel")

    def __init__(self, skeleton: CodeSkeleton, blocks: Sequence[Matrix],
                 column_sets):
        self.skeleton = skeleton
        self.blocks = tuple(blocks)
        self.column_sets = tuple(tuple(pts) for pts in column_sets)
        self._parity = None
        self._kernel = None

    @property
    def n(self) -> int:
        return self.skeleton.n

    def parity_matrix(self) -> Matrix:
        if self._parity is None:
            arr = np.hstack([b.array for b in self.blocks])
            self._parity = Matrix(self.skeleton.tower.base, arr)
        return self._parity

    def kernel_basis(self) -> Matrix:
        if self._kernel is None:
            self._kernel = kernel(self.parity_matrix()).basis
        return self._kernel

    def column_stack(self) -> np.ndarray:
        """All parity columns side by side: shape (r*l, n*l)."""
        return self.parity_matrix().array


def _require_inside(s: CodeSkeleton, points: list, owners: list) -> None:
    """PointOutsideNode for the first listed point outside its node.

    One product checks them all: p lies in node k exactly when p equals
    p[piv_k] R_k, its entries on k's pivot columns times k's RREF basis.
    """
    if not points:
        return
    field = s.tower.base
    pts = np.stack(points)
    pivots = np.array([s.nodes[k].pivots for k in owners], dtype=np.int64)
    combo = field.matmul(np.take_along_axis(pts, pivots, axis=1)[:, None, :],
                         s.basis_stack()[owners])[:, 0]
    outside = np.flatnonzero((pts != combo).any(axis=1))
    if outside.size:
        raise PointOutsideNode(f"node {owners[outside[0]]}: column point "
                               "outside the node subspace")


def realize(s: CodeSkeleton, column_sets) -> Realization:
    """Build the realization with the given projective column points.

    There must be one column set per node, and each needs exactly l
    distinct nonzero points, all inside the node subspace and jointly
    spanning it.  Input vectors are canonicalized (first nonzero
    coordinate scaled to 1) before validation.  Membership is decided for
    all points at once; a point outside its node is still reported
    before any later point's or node's fault.
    """
    field = s.tower.base
    ell = s.ell
    column_sets = list(column_sets)
    if len(column_sets) != s.n:
        raise BadShape(f"{len(column_sets)} column sets for {s.n} nodes")
    points, owners = [], []  # canonical points not yet checked for membership
    stacks = []
    cleaned = []
    for i, pts in enumerate(column_sets):
        try:
            if not all(np.any(p) for p in pts):
                raise NotSpanning(
                    f"node {i}: a column point is the zero vector")
            pts = [canonical_point(field, p) for p in pts]
            if len(pts) != ell:
                raise NotSpanning(
                    f"node {i}: need exactly {ell} column points")
            seen = set()
            for p in pts:
                if p.shape != (s.ambient,):
                    raise AmbientMismatch(f"node {i}: vector of length "
                                          f"{p.shape} in ambient {s.ambient}")
                key = p.tobytes()
                if key in seen:
                    raise DuplicatePoint(
                        f"node {i}: repeated projective point")
                seen.add(key)
                points.append(p)
                owners.append(i)
        except RepairToolError:
            _require_inside(s, points, owners)  # earlier points fail first
            raise
        stacks.append(np.stack(pts))
        cleaned.append(tuple(tuple(int(x) for x in p) for p in pts))
    _require_inside(s, points, owners)
    stacks = np.array(stacks, dtype=np.int64).reshape(-1, ell, s.ambient)
    short = np.flatnonzero(batched_rank(field, stacks) != ell)
    if short.size:
        raise NotSpanning(f"node {short[0]}: column points do not span the node")
    return Realization(s, [Matrix(field, p.T) for p in stacks], cleaned)


def sample_codewords(re: Realization, seeds) -> np.ndarray:
    """One seed-determined uniform random codeword per seed, shaped (T, n, l).

    Coefficients over the kernel basis are drawn from numpy's PCG64
    generator (see CODEWORD_SAMPLER), one generator per seed, so a word
    depends on its own seed only; the whole stack is encoded with one
    product against the kernel basis.  A seed may be an int or a sequence
    of ints.
    """
    s = re.skeleton
    if not s.is_mds:
        raise NotMds(s.mds_witness())
    field = s.tower.base
    kb = re.kernel_basis().array
    coeffs = np.empty((len(seeds), kb.shape[0]), dtype=np.int64)
    for row, seed in zip(coeffs, seeds):
        row[:] = np.random.default_rng(seed).integers(
            0, field.order, size=kb.shape[0], dtype=np.int64)
    words = field.matmul(coeffs, kb).reshape(len(seeds), s.n, s.ell)
    words.setflags(write=False)
    return words


def sample_codeword(re: Realization, seed) -> np.ndarray:
    """The codeword of :func:`sample_codewords` for one seed, shaped (n, l)."""
    return sample_codewords(re, [seed])[0]


def syndromes(re: Realization, words: np.ndarray) -> np.ndarray:
    """Parity checks of a (T, n, l) stack of words: column t is H c_t."""
    words = np.asarray(words, dtype=np.int64)
    return re.skeleton.tower.base.matmul(
        re.column_stack(), words.reshape(len(words), -1).T)


def is_codeword(re: Realization, cw: np.ndarray) -> bool:
    s = re.skeleton
    cw = np.asarray(cw, dtype=np.int64)
    if cw.shape != (s.n, s.ell):
        return False
    return not syndromes(re, cw[None]).any()


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
            "H": [[int(x) for x in col] for col in re.blocks[i].array.T],
            "X": [list(p) for p in re.column_sets[i]],
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
        return np.array(nd[key], dtype=np.int64)
    except OverflowError as exc:
        raise MalformedInput(f"node {i}: {key} entry does not fit in 64 bits"
                             ) from exc


def realization_from_json(obj: dict):
    """Rebuild (realization, labels, provenance) from a code.json dict.

    Every type invariant is re-validated: tower polynomials, node
    dimensions, column membership/spanning, and the X/H correspondence.
    """
    try:
        if obj.get("v") != 1:
            raise MalformedInput(f"unsupported schema version {obj.get('v')!r}")
        tower = FieldTower.from_json_dict(obj["tower"])
        ell, r, n = int(obj["ell"]), int(obj["r"]), int(obj["n"])
        raw_nodes = obj["nodes"]
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedInput(f"bad code object: {exc}") from exc
    if ell != tower.ell:
        raise MalformedInput("ell disagrees with the tower descriptor")
    if not isinstance(raw_nodes, list):
        raise MalformedInput("nodes must be a list")
    if len(raw_nodes) != n:
        raise MalformedInput("node count disagrees with n")
    field = tower.base
    generators = []
    column_sets = []
    labels = []
    for i, nd in enumerate(raw_nodes):
        try:
            labels.append(str(nd["label"]))
            cols = _node_codes(nd, "H", i)
            pts = _node_codes(nd, "X", i)
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedInput(f"bad node object: {exc}") from exc
        if cols.ndim != 2 or cols.shape != (ell, r * ell):
            raise MalformedInput("node H must be ell columns of length r*ell")
        if pts.shape != (ell, r * ell):
            raise MalformedInput("node X must be ell points of length r*ell")
        if any(((a < 0) | (a >= field.order)).any() for a in (cols, pts)):
            raise MalformedInput("node H/X entry out of range for the field")
        generators.append(cols)
        column_sets.append(list(pts))
    subspaces = Subspace.from_stack(field, generators) if generators else []
    try:
        skeleton = CodeSkeleton(tower, r, subspaces, labels)
        re = realize(skeleton, column_sets)
    except RepairToolError as exc:
        raise MalformedInput(f"invariant violated on load: {exc}") from exc
    # the stored columns must equal the canonical realization columns
    for i, nd in enumerate(raw_nodes):
        if [list(map(int, c)) for c in re.blocks[i].array.T] != \
                [list(map(int, c)) for c in nd["H"]]:
            raise MalformedInput(f"node {i}: H columns are not canonical "
                                 "representatives of X")
    return re, labels, obj.get("provenance")
