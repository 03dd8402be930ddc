import dataclasses
import itertools
import json
import random

import numpy as np
import pytest

from bruteforce_oracle import bruteforce_oracle
from pass_oracle import (
    bandwidth_oracle,
    dual_cover_oracle,
    incidence_profile_oracle,
    intersection_dims,
    io_count_oracle,
    mults_oracle,
    scheme_pass_oracle,
)
from replay_oracle import NodeView, node_states_oracle, node_view
from row_table_oracle import row_table_oracle
from rref_oracle import meet_dim_oracle, meet_dims_oracle
from mdsrepair.codes import CodeSkeleton, realize
from mdsrepair.errors import (
    BadRank,
    BadShape,
    BudgetExceeded,
    InternalInconsistency,
    LevelMismatch,
    NotARepairMatrix,
    NotMds,
)
from mdsrepair import linalg, repair, simulate
from mdsrepair.gf import build_tower
from mdsrepair.linalg import (
    Matrix,
    batched_rank,
    gaussian_binomial,
    kernels,
    projective_point_count,
    rref_blocks,
)
from mdsrepair.nrc import build, validate_params
from mdsrepair.simulate import _node_states, campaign
from mdsrepair.repair import (
    RepairScheme,
    SchemePass,
    bandwidth,
    bruteforce_column_hits,
    bruteforce_overlap,
    dual_cover,
    evaluate_scheme,
    hierarchy_check,
    incidence_profile,
    io_count,
    scheme_from_json,
    scheme_to_json,
)


def _first_use(stack):
    """Each row's matrix as an index into the distinct matrices of a
    stack, numbered in order of first use."""
    keys = [m.tobytes() for m in stack]
    order = list(dict.fromkeys(keys))
    return [order.index(key) for key in keys]


def _kernel_basis(m):
    """Canonical basis of ker m, from one :func:`linalg.kernels` call."""
    bases, is_piv = kernels(m.field, m.array[None])
    return bases[0, :is_piv.sum()]


def _enumerate(field, k, d):
    """Every matrix of the canonical RREF enumeration, in order."""
    return [Matrix(field, m) for _, block in rref_blocks(field.order, k, d)
            for m in block]


def _coordinate_realization(tower):
    """Two coordinate-block nodes of F_q^4 with the standard basis columns."""
    ell = tower.ell
    nodes = []
    for i in range(2):
        rows = np.zeros((ell, 2 * ell), dtype=np.int64)
        rows[:, i * ell:(i + 1) * ell] = np.eye(ell, dtype=np.int64)
        nodes.append(rows)
    s = CodeSkeleton(tower, 2, nodes)
    sets = [[[1, 0, 0, 0], [0, 1, 0, 0]], [[0, 0, 1, 0], [0, 0, 0, 1]]]
    return realize(s, sets)


def test_bandwidth_kernel_missing_all_helpers(tower3):
    re = _coordinate_realization(tower3)
    # ker([I | A]) = {(-Ay, y)}; invertible A makes it avoid both blocks
    m = Matrix(tower3.base, [[1, 0, 1, 2], [0, 1, 2, 2]])
    assert bandwidth(m, re, 0) == 2  # l*(n-1) with l=2, n=2
    assert io_count(m, re, 0) == 2


def test_bandwidth_on_attaining_code(bundle3):
    re = bundle3.realization
    for i in range(9):
        assert bandwidth(bundle3.scheme[i], re, i) == 12  # 2*8 - 4
        assert io_count(bundle3.scheme[i], re, i) == 12


def test_not_a_repair_matrix(bundle3):
    re = bundle3.realization
    # a matrix whose kernel contains the first node subspace cannot repair it
    field = re.skeleton.tower.base
    m_bad = kernels(field, re.skeleton.bases[:1])[0][0, :2]
    with pytest.raises(NotARepairMatrix):
        bandwidth(Matrix(field, m_bad), re, 0)
    with pytest.raises(NotARepairMatrix):
        io_count(Matrix(field, m_bad), re, 0)


def _random_feasible_matrix(field, s, i, rng):
    ell, d = s.ell, s.ambient
    cols_i = s.bases[i].T
    while True:
        m = np.array([[rng.randrange(field.order) for _ in range(d)]
                      for _ in range(ell)], dtype=np.int64)
        if batched_rank(field, m[None])[0] != ell:
            continue
        prod = field.matmul(m, cols_i)
        if batched_rank(field, prod[None])[0] == ell:
            return Matrix(field, m)


def test_io_at_least_bandwidth_random(bundle3):
    rng = random.Random(3)
    re = bundle3.realization
    s = re.skeleton
    for _ in range(300):
        i = rng.randrange(s.n)
        m = _random_feasible_matrix(s.tower.base, s, i, rng)
        assert io_count(m, re, i) >= bandwidth(m, re, i)


# -- incidence profiles -----------------------------------------------------------


def test_profile_all_zero(tower3):
    re = _coordinate_realization(tower3)
    m = Matrix(tower3.base, [[1, 0, 1, 2], [0, 1, 2, 2]])
    pr = incidence_profile(m, re.skeleton, 0)
    assert pr.dims == (0,) and pr.sum_dims == 0 and pr.sum_points == 0
    assert pr.holds


def test_profile_requires_full_rank(bundle3):
    s = bundle3.skeleton
    with pytest.raises(BadRank):
        incidence_profile(Matrix(s.tower.base, np.zeros((2, 4), int)), s, 0)


def test_profile_on_attaining_scheme(bundle3):
    s = bundle3.skeleton
    cap = projective_point_count(3, 2)  # 4
    for i in range(s.n):
        pr = incidence_profile(bundle3.scheme[i], s, i)
        assert sorted(set(pr.dims)) in ([0, 1], [1])
        assert pr.dims.count(1) == cap
        assert pr.sum_dims == cap and pr.holds


def test_hierarchy_lines(bundle3):
    s = bundle3.skeleton
    pr = incidence_profile(bundle3.scheme[0], s, 0)
    lines = hierarchy_check(pr, s.ell, s.r, 3)
    assert [ln.s for ln in lines] == [1, 2]
    assert all(ln.holds for ln in lines)
    # s = 1 recounts the profile's projective points
    assert lines[0].lhs == pr.sum_points
    assert lines[0].rhs == pr.cap
    # all intersections are 1-dimensional, so the s = 2 line vanishes
    assert lines[1].lhs == 0


# -- dual cover ---------------------------------------------------------------------


def test_dual_cover_trivial(tower3):
    re = _coordinate_realization(tower3)
    m = Matrix(tower3.base, [[1, 0, 1, 2], [0, 1, 2, 2]])
    dc = dual_cover(m, re.skeleton, 0)
    assert dc.max_mult == 0 and dc.total == 0
    assert not dc.regular  # r - 1 = 1 and every multiplicity is 0


def test_dual_cover_on_attaining_scheme(bundle3, bundle5):
    for bundle in (bundle3, bundle5):
        s = bundle.skeleton
        for i in range(s.n):
            dc = dual_cover(bundle.scheme[i], s, i)
            assert dc.regular
            assert set(dc.mults) == {s.r - 1}
            assert len(dc.mults) == projective_point_count(s.tower.q, s.ell)


def test_dual_cover_bookkeeping_random(bundle5):
    rng = random.Random(17)
    s = bundle5.skeleton
    field = s.tower.base
    for _ in range(60):
        i = rng.randrange(s.n)
        m = _random_feasible_matrix(field, s, i, rng)
        pr = incidence_profile(m, s, i)
        dc = dual_cover(m, s, i)
        assert dc.total == pr.sum_points
        assert dc.max_mult <= s.r - 1


# -- brute force --------------------------------------------------------------------


def test_bruteforce_direct_sum_exhaustive_oracle():
    # q=2, l=1, r=2, n=2: enumerate all 1-dim subspaces W directly and
    # maximize the helper overlap; the optimizer must match the oracle
    tower = build_tower(2, 1, 1)
    field = tower.base
    nodes = [np.array([[1, 0]]), np.array([[0, 1]])]
    s = CodeSkeleton(tower, 2, nodes)
    best = -1
    for vec in ([0, 1], [1, 0], [1, 1]):
        w = np.array([vec])
        if meet_dim_oracle(field, w, nodes[0]) != 0:
            continue  # not feasible for node 0
        best = max(best, meet_dim_oracle(field, w, nodes[1]))
    assert best == 1  # W = H_2 itself is feasible and meets H_2 fully
    value, witness = bruteforce_overlap(s, 0)
    assert value == best == 1
    assert len(_kernel_basis(witness)) == 1
    # the multiplicity cap (r-1) * (projective points of F_2^1) = 1 holds
    assert value <= 1


def test_bruteforce_overlap_attaining_code(bundle3):
    s = bundle3.skeleton
    assert gaussian_binomial(4, 2, 3) == 130
    for i in range(s.n):
        value, witness = bruteforce_overlap(s, i)
        assert value == 4
        assert batched_rank(s.tower.base, witness.array[None])[0] == 2
        # witness really is feasible and achieves the value
        pr = incidence_profile(witness, s, i)
        assert pr.sum_dims == 4
        assert meet_dim_oracle(s.tower.base, _kernel_basis(witness),
                               s.bases[i]) == 0


def test_bruteforce_column_hits_attaining_code(bundle3):
    re = bundle3.realization
    for i in range(re.skeleton.n):
        value, witness = bruteforce_column_hits(re, i)
        assert value == 4


def test_bruteforce_column_hits_never_exceed_overlap(bundle3):
    # every captured column spans a 1-dim piece of the intersection, so
    # the column count is dominated by the total intersection dimension
    re = bundle3.realization
    for i in range(re.skeleton.n):
        a, _ = bruteforce_overlap(re.skeleton, i)
        l, _ = bruteforce_column_hits(re, i)
        assert l <= a


def test_bruteforce_column_hits_against_naive_scan(bundle3):
    # independent reference: walk the enumeration one matrix at a time and
    # count captured columns by direct multiplication
    re = bundle3.realization
    s = re.skeleton
    field = s.tower.base
    best = -1
    best_m = None
    for m in _enumerate(field, 2, 4):
        block = field.matmul(m.array, re.points[0].T)
        if batched_rank(field, block[None])[0] != 2:
            continue
        captured = 0
        for j in range(1, s.n):
            prod = field.matmul(m.array, re.points[j].T)
            captured += int((~(prod != 0).any(axis=0)).sum())
        if captured > best:
            best = captured
            best_m = m
    value, witness = bruteforce_column_hits(re, 0)
    assert (value, witness) == (best, best_m)


def test_bruteforce_witness_is_first_maximizer(bundle3):
    s = bundle3.skeleton
    field = s.tower.base
    value, witness = bruteforce_overlap(s, 0)
    for m in _enumerate(field, 2, 4):
        prod = field.matmul(m.array, s.bases[0].T)
        if batched_rank(field, prod[None])[0] != 2:
            continue
        w = _kernel_basis(m)
        total = sum(meet_dim_oracle(field, w, node) for node in s.bases[1:])
        if total == value:
            assert m == witness
            break
    else:
        pytest.fail("no maximizer found by the reference scan")


def test_bruteforce_range_split_matches_full(bundle3):
    s = bundle3.skeleton
    full_value, full_witness = bruteforce_overlap(s, 2)
    parts = [bruteforce_overlap(s, 2, index_range=(0, 65)),
             bruteforce_overlap(s, 2, index_range=(65, 130))]
    assert max(p[0] for p in parts) == full_value
    # combining by value, ties broken towards the earlier range, recovers
    # the global first maximizer
    combined = parts[0] if parts[0][0] >= parts[1][0] else parts[1]
    assert combined[1] == full_witness


def test_bruteforce_same_with_bitsets_and_elimination(bundle5, monkeypatch):
    re = bundle5.realization
    rng = (0, 20000)
    bitsets = [bruteforce_overlap(re.skeleton, 0, index_range=rng),
               bruteforce_column_hits(re, 0, index_range=rng)]
    # no bandwidth bitset fits: every block is eliminated
    monkeypatch.setattr(repair, "_BITSET_WORDS", 0)
    eliminated = [bruteforce_overlap(re.skeleton, 0, index_range=rng),
                  bruteforce_column_hits(re, 0, index_range=rng)]
    assert bitsets == eliminated
    assert all(value >= 0 and witness is not None
               for value, witness in bitsets)


@pytest.mark.parametrize("p, m, ell", [(2, 1, 1), (2, 1, 2), (2, 1, 3),
                                       (2, 1, 4), (3, 1, 2), (3, 1, 3),
                                       (3, 1, 4), (2, 2, 2), (2, 2, 3),
                                       (5, 1, 2)])
def test_subspace_counts_give_the_total_nullity(p, m, ell):
    # N_s counts the s-subspaces of F_q^l inside each ker(M H_j); the
    # weights c_s turn them into the total nullity, also for zero and
    # rank-deficient blocks, and the scan's bitsets read the same sum
    field = build_tower(p, m, ell).base
    q, d = field.order, 2 * ell
    weights = repair._nullity_weights(q, ell)
    subspaces = [np.concatenate([b for _, b in rref_blocks(q, s, ell)])
                 for s in range(1, ell + 1)]
    scan = repair._Scan(field, ell, 6, "overlap")
    assert scan.masks is not None  # the bitset route, not elimination
    rng = np.random.default_rng(100 * q + ell)
    for trial in range(12):
        mm = rng.integers(0, q, (ell, d))
        if trial % 3 == 0:
            mm[-1] = mm[0]  # M itself rank-deficient
        h = rng.integers(0, q, (6, d, ell))
        h[1] = 0  # a zero block
        h[2][:, 1:] = 0  # rank at most 1
        h[4] = h[3]  # a repeated helper
        blocks = np.stack([field.matmul(mm, hj) for hj in h])
        nullity = ell - batched_rank(field, blocks)
        for j, block in enumerate(blocks):
            counts = []
            for sub in subspaces:
                prod = field.matmul(block, sub.reshape(-1, ell).T)
                inside = prod.reshape(ell, len(sub), -1) == 0
                counts.append(int(inside.all(axis=(0, 2)).sum()))
            assert sum(c * n for c, n in zip(weights, counts)) == nullity[j]
        targets = np.hstack(list(h))
        # one candidate: a block of one run of one row-0 entry, word-major,
        # from the helper codes of each row's products
        rows = [scan.obj_form(field.matmul(mm[r:r + 1], targets).reshape(
            1, -1, ell) @ scan.powers) for r in range(ell)]
        assert scan.value(rows[1:], rows[0], 0, 1,
                          np.ones(1, dtype=bool))[0] == nullity.sum()
        feas = [scan.feas_form((field.matmul(mm[r:r + 1], h[0])
                                @ scan.powers)[:, None]) for r in range(ell)]
        assert scan.feasible(feas[1:], feas[0], 0, 1)[0] == (nullity[0] == 0)


def _mds_f3_ell6():
    """H_1 = [I 0 0], H_2 = [0 I 0], H_3 = [0 0 I], H_4 = [I I I] in F_3^18.

    Any three of the four span F_3^18, so the skeleton is MDS with l=6,
    r=3, n=4; each node's basis rows are its columns.
    """
    tower = build_tower(3, 1, 6)
    eye, zero = np.eye(6, dtype=np.int64), np.zeros((6, 6), dtype=np.int64)
    rows = [np.hstack(parts) for parts in ((eye, zero, zero),
                                           (zero, eye, zero),
                                           (zero, zero, eye),
                                           (eye, eye, eye))]
    s = CodeSkeleton(tower, 3, rows)
    return realize(s, [list(r) for r in rows])


def _mds_f7_ell1():
    """H_j = (1, x_j, x_j^2, x_j^3) for x_j = 0 .. 6 and H_8 = (0, 0, 0, 1).

    The extended Reed-Solomon code over F_7 with l=1, r=4, n=8: any four
    of the eight rows are independent, so the skeleton is MDS.
    """
    tower = build_tower(7, 1, 1)
    rows = [[[pow(x, t, 7) for t in range(4)]] for x in range(7)]
    rows.append([[0, 0, 0, 1]])
    s = CodeSkeleton(tower, 4, [np.array(r) for r in rows])
    return realize(s, rows)


def _scan_points(q3, q5):
    """(realization, node, index range or None, patches) of the differential test."""
    q4 = build(validate_params(build_tower(2, 2, 2), 2, 12)).realization
    l3 = build(validate_params(build_tower(3, 1, 3), 2, 26)).realization
    q9 = build(validate_params(build_tower(3, 2, 2), 3, 82)).realization
    q32 = build(validate_params(build_tower(2, 5, 2), 2, 66)).realization
    big = _mds_f3_ell6()
    l1 = _mds_f7_ell1()
    yield from ((q3, i, None, {}) for i in range(9))
    yield from ((q4, i, None, {}) for i in range(12))
    yield from ((l3, i, None, {}) for i in (0, 13, 25))
    # the first pattern of q=9 r=3 holds 9^8 = 43046721 candidates
    yield q9, 1, (43046721 - 2000, 43046721 + 2000), {}
    yield q5, 5, (3000, 9000), {(repair, "_BITSET_WORDS"): 0}
    # 2x2 blocks over F_32, once eliminated, now bitsets of 36 words,
    # packed one row at a time
    yield q32, 0, (5000, 15000), {(repair, "_PACK_BOOLS"): 1}
    # start and stop inside a row table, across the first pattern boundary
    yield q5, 0, (100, 5000), {}
    yield q5, 0, (390000, 391000), {}
    # no row table is shared: every block builds its own
    yield q5, 7, (2000, 20000), {(repair, "_ROW_TABLE_BYTES"): 0}
    # indices past 2^62, rows of 3^12 entries, 6x6 blocks above the cap
    yield from ((big, i, (2 ** 70, 2 ** 70 + 3000), {}) for i in (0, 1, 3))
    # runs of 625 candidates: a window that starts and ends mid-run over
    # 13 runs, read in blocks of 40- and 16-byte candidates (bandwidth;
    # io) whose budget holds one run (1000; 2500 candidates), three or
    # eight runs (2000, a block size that no run divides; 5000), slices
    # shorter than a run (300; 750) and slices for both (120; 300)
    yield from ((q5, 0, (1000, 9000), {(repair, "_BLOCK_BYTES"): budget})
                for budget in (40000, 80000, 12000, 4800))
    yield q5, 2, (700, 1200), {}  # a window inside one run
    yield q5, 4, (1000, 1500), {}  # shorter than a run, across two runs
    # row 0 once per pattern, formed 64 entries at a time, read by blocks
    # shorter than its runs; and row 0 formed for each block instead
    yield q5, 1, (100, 5000), {(repair, "_ROW_TABLE_BYTES"): 625 * 40,
                               (repair, "_BLOCK_BYTES"): 4800}
    yield q5, 3, (1000, 9000), {(repair, "_ROW_TABLE_BYTES"): 0,
                                (repair, "_BLOCK_BYTES"): 4800}
    # l = 1 (a pattern is one run, 16 bytes a candidate) and l = 3 (two
    # outer rows, 112 and 24 bytes a candidate)
    yield from ((l1, i, None, {(repair, "_BLOCK_BYTES"): 1600})
                for i in (0, 7))
    yield l3, 13, (50, 19000), {(repair, "_BLOCK_BYTES"): 2400}


def test_bruteforce_matches_the_matmul_oracle(bundle3, bundle5, monkeypatch):
    calls = []
    scan = repair._bruteforce

    def both(*args):
        got = scan(*args)
        calls.append((got, bruteforce_oracle(*args)))
        return got

    monkeypatch.setattr(repair, "_bruteforce", both)
    for re, i, rng, patches in _scan_points(bundle3.realization,
                                            bundle5.realization):
        with monkeypatch.context() as patch:
            for (module, name), value in patches.items():
                patch.setattr(module, name, value)
            bruteforce_overlap(re.skeleton, i, index_range=rng)
            bruteforce_column_hits(re, i, index_range=rng)
    # helpers that repeat a block, have rank 1 or are zero
    s = bundle5.skeleton
    stack = s.bases[1:6].copy()
    stack[1] = stack[0]
    stack[2][1] = stack[2][0]
    stack[3] = 0
    for objective in ("overlap", "columns"):
        repair._bruteforce(s.tower.base, linalg._columns(stack),
                           linalg._columns(s.bases[[0]]), s.ell, s.ambient,
                           objective, 0, 30000)
    assert len(calls) == 2 * 45
    for (value, witness, count), (o_value, o_witness, o_count) in calls:
        assert (value, count) == (o_value, o_count)
        if o_witness is None:
            assert witness is None
        else:
            assert np.array_equal(witness, o_witness)
    assert {c[0][0] for c in calls} >= {-1, 4, 5}  # infeasible ranges too


def test_bruteforce_row_tables_stay_within_the_window(bundle5, monkeypatch):
    # a row table never has more entries than the scanned part of its
    # pattern has candidates, and a shared one, formed over the whole
    # part, stays within the byte cap
    tables = []
    table = repair._RowTable

    def spy(scan, row, a, b, bound):
        t = table(scan, row, a, b, bound)
        tables.append((t.count, (a, b), t.count * scan.entry_bytes))
        return t

    monkeypatch.setattr(repair, "_RowTable", spy)
    re = _mds_f3_ell6()
    bruteforce_column_hits(re, 0, index_range=(2 ** 70, 2 ** 70 + 3000))
    assert tables and all(count <= b - a for count, (a, b), _ in tables)
    assert max(count for count, _, _ in tables) == 3000  # not 3^12
    tables.clear()
    cap = 40 * 625 - 1  # 40 bytes an entry: row 0's 625 entries are over
    monkeypatch.setattr(repair, "_ROW_TABLE_BYTES", cap)
    monkeypatch.setattr(repair, "_BLOCK_BYTES", 13 * 625 * 40)  # 13 runs
    bruteforce_overlap(bundle5.skeleton, 1, index_range=(0, 20000))
    shared = [t for t in tables if t[1] == (0, 20000)]
    chunked = [count for count, (a, b), _ in tables if (a, b) != (0, 20000)]
    assert [count for count, _, _ in shared] == [32]  # row 1: 20000 // 625 + 1
    assert all(size <= cap for _, _, size in shared)
    assert chunked == [625] * 3  # row 0, once per block of 13 runs


def test_bruteforce_blocks_stay_within_the_byte_budget(bundle5, monkeypatch):
    # a block's grid of runs x row-0 entries never takes more than
    # _BLOCK_BYTES at _Scan.entry_bytes a candidate, and holds as many
    # whole runs as fit, or one slice of a longer run
    scans, grids = [], []
    scan_class, block = repair._Scan, repair._block

    def scan_spy(*args):
        scans.append(scan_class(*args))
        return scans[-1]

    def block_spy(outer, head, t, n):
        grids.append((outer[0].shape[1] if outer else 1) * head.shape[1])
        return block(outer, head, t, n)

    monkeypatch.setattr(repair, "_Scan", scan_spy)
    monkeypatch.setattr(repair, "_block", block_spy)
    re = bundle5.realization
    for budget, words in ((repair._BLOCK_BYTES, 2), (12000, 2),
                          (80000, 2), (80000, 0)):
        monkeypatch.setattr(repair, "_BLOCK_BYTES", budget)
        monkeypatch.setattr(repair, "_BITSET_WORDS", words)  # 0: eliminated
        for scan, rng in itertools.product(
                (lambda r: bruteforce_overlap(re.skeleton, 1, index_range=r),
                 lambda r: bruteforce_column_hits(re, 1, index_range=r)),
                ((100, 5000), (1000, 1500), (0, 200000))):
            scans.clear()
            grids.clear()
            scan(rng)
            size = scans[0].entry_bytes
            assert grids and max(grids) * size <= budget
            if rng == (0, 200000):  # runs of 625, many blocks
                per = budget // size
                assert max(grids) == min(max(1, per // 625) * 625, per)
    assert {s.entry_bytes for s in scans} >= {16}


def test_bruteforce_forms_each_row_entry_once_per_pattern(bundle5,
                                                          monkeypatch):
    # a row 0 whose runs are longer than a block but whose table fits the
    # byte cap (q=7 r=4 n=48 node 1, shrunk to runs of 625 candidates and
    # blocks of 300) is formed once per pattern, a slice at a time, and
    # every block reads it
    formed = []

    class Spy(repair._RowTable):
        def _codes(self, images, w0, n):
            formed.append((self, w0, n))
            return super()._codes(images, w0, n)

    monkeypatch.setattr(repair, "_RowTable", Spy)
    monkeypatch.setattr(repair, "_BLOCK_BYTES", 300 * 40)
    monkeypatch.setattr(repair, "_ROW_TABLE_BYTES", 625 * 40)
    bruteforce_overlap(bundle5.skeleton, 1,
                       index_range=(385000, 395000))  # two patterns
    heads = list(dict.fromkeys(t for t, _, _ in formed if t.step == 1))
    assert len(heads) == 2 and all(t.count == 625 for t in heads)
    for head in heads:
        slices = [(w0, n) for t, w0, n in formed if t is head]
        assert len(slices) > 2  # sliced
        # every entry w = 0 .. 624 formed once, in order
        assert [w0 for w0, _ in slices] == list(
            itertools.accumulate([n for _, n in slices[:-1]], initial=0))
        assert sum(n for _, n in slices) == 625


def _assert_table_matches_the_oracle(scan, row, a, b, bound):
    table = repair._RowTable(scan, row, a, b, bound)
    first, count, feas, obj = row_table_oracle(scan, row, a, b)
    assert (table.first, table.count) == (first, count)
    assert table.feas.dtype == feas.dtype and table.obj.dtype == obj.dtype
    assert np.array_equal(table.feas, feas)
    assert np.array_equal(table.obj, obj)


@pytest.mark.parametrize("p, m", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1),
                                  (2, 3), (3, 2)])
@pytest.mark.parametrize("ell", [1, 2, 3])
def test_row_tables_match_the_product_oracle(p, m, ell, monkeypatch):
    # tables summed from codes equal those of the exact products, entry
    # for entry: whole tables (first = 0), windows (first != 0) that
    # start and end inside a row's runs, and tables formed in slices
    field = build_tower(p, m, ell).base
    q, helpers = field.order, 3
    rng = np.random.default_rng(10 * q + ell)
    scans = [repair._Scan(field, ell, helpers, "columns"),
             repair._Scan(field, ell, helpers, "overlap")]
    with monkeypatch.context() as patch:
        patch.setattr(repair, "_BITSET_WORDS", 0)  # entries, not bitsets
        scans.append(repair._Scan(field, ell, helpers, "overlap"))
    assert scans[-1].masks is None
    for f in range(4 if q < 5 else 3):
        rows = [rng.integers(0, q, (1 + f, ell)),
                rng.integers(0, q, (1 + f, helpers * ell))]
        rows[1][:, :ell] = 0  # a zero helper
        for o, (a, b) in ((0, (0, q ** f)), (1, (q + 1, q ** (2 + f) - 2)),
                          (1, (q ** (1 + f) + 1, q ** (1 + f) + 2 * q)),
                          (0, (1, q ** f)), (0, (q ** f - 1, q ** f + 3))):
            if a >= b:  # no window at this size
                continue
            bound = q ** (o + f + 1)
            for scan in scans:
                _assert_table_matches_the_oracle(scan, (o, f, *rows), a, b,
                                                 bound)
                with monkeypatch.context() as patch:
                    # one entry at a time: 128 // (16 * 4 + 1)
                    patch.setattr(repair, "_ROW_TABLE_BYTES", 16 * 8)
                    _assert_table_matches_the_oracle(scan, (o, f, *rows), a,
                                                     b, bound)


def test_row_tables_match_the_product_oracle_past_2_62(monkeypatch):
    # every table a scan of the l=6 fixture forms over a window past 2^62
    # (counters of Python integers) equals the product route's
    tables = []
    table = repair._RowTable

    def spy(scan, row, a, b, bound):
        tables.append((scan, row, a, b))
        return table(scan, row, a, b, bound)

    monkeypatch.setattr(repair, "_RowTable", spy)
    re = _mds_f3_ell6()
    window = (2 ** 70, 2 ** 70 + 3000)
    bruteforce_overlap(re.skeleton, 0, index_range=window)
    bruteforce_column_hits(re, 3, index_range=window)
    assert len(tables) == 12 and all(a > 2 ** 62 for _, _, a, _ in tables)
    for scan, row, a, b in tables:
        first, count, feas, obj = row_table_oracle(scan, row, a, b)
        got = table(scan, row, a, b, 3 ** 72)
        assert (got.first, got.count) == (first, count)
        assert np.array_equal(got.feas, feas)
        assert np.array_equal(got.obj, obj)


def test_bruteforce_eliminates_in_slices_under_the_pass_cap(monkeypatch):
    # over-cap 6x6 bandwidth blocks are ranked a slice of candidates at a
    # time, each slice's int64 blocks within _PASS_BYTES, to the oracle's
    # results
    cap = 8 * 6 * 6 * 3 * 10  # ten candidates of three 6x6 helper blocks
    sizes, calls = [], []
    rank, scan = repair.batched_rank, repair._bruteforce

    def spy(field, blocks):
        sizes.append(np.asarray(blocks).size * 8)
        return rank(field, blocks)

    def both(*args):
        got = scan(*args)
        calls.append((got, bruteforce_oracle(*args)))
        return got

    monkeypatch.setattr(repair, "batched_rank", spy)
    monkeypatch.setattr(repair, "_bruteforce", both)
    re = _mds_f3_ell6()
    monkeypatch.setattr(repair, "_PASS_BYTES", cap)
    for i in (0, 3):
        bruteforce_overlap(re.skeleton, i, index_range=(2 ** 70,
                                                        2 ** 70 + 3000))
    assert len(sizes) > 2 and max(sizes) <= cap
    for (value, witness, count), (o_value, o_witness, o_count) in calls:
        assert (value, count) == (o_value, o_count) and value >= 0
        assert np.array_equal(witness, o_witness)


def test_bruteforce_budget(bundle5):
    s = bundle5.skeleton
    with pytest.raises(BudgetExceeded) as exc:
        bruteforce_overlap(s, 0, budget=1000)
    assert exc.value.count == 508431
    # an explicit range bypasses the budget
    value, _ = bruteforce_overlap(s, 0, index_range=(0, 500))
    assert value >= 0


def test_bruteforce_without_helpers(tower3):
    # a one-node code: every objective bitset is empty, both optima are 0
    rows = [np.eye(2, dtype=np.int64)]
    s = CodeSkeleton(tower3, 1, rows)
    re = realize(s, [list(r) for r in rows])
    assert bruteforce_overlap(s, 0)[0] == 0
    assert bruteforce_column_hits(re, 0)[0] == 0


def test_bruteforce_requires_mds(tower3):
    s = CodeSkeleton(tower3, 2, [[[1, 0, 0, 0], [0, 1, 0, 0]]] * 2)
    with pytest.raises(NotMds):
        bruteforce_overlap(s, 0)


# -- scheme evaluation -----------------------------------------------------------------


def test_evaluate_scheme_attaining(bundle3, bundle5):
    for bundle, expect in ((bundle3, 12), (bundle5, 34)):
        m = bundle.metrics
        assert set(m.bandwidth) == {expect} and set(m.io) == {expect}
        assert m.bandwidth_avg == expect and m.io_avg == expect
        assert m.bandwidth_max == expect and m.io_max == expect
        assert m.equality
        assert set(m.bandwidth_gap) == {0} and set(m.io_gap) == {0}


def test_evaluate_scheme_trivial_gap(bundle3):
    # repairing every node with the kernel equal to the one spread member
    # missing from the code leaves all helpers untouched: cost l*(n-1)
    re = bundle3.realization
    field = re.skeleton.tower.base
    m = Matrix(field, [[1, 0, 0, 0], [0, 1, 0, 0]])  # kernel = last block
    sch = RepairScheme([m] * re.skeleton.n)
    metrics = evaluate_scheme(re, sch)
    assert set(metrics.bandwidth) == {16} and set(metrics.io) == {16}
    assert set(metrics.bandwidth_gap) == {4} == set(metrics.io_gap)
    assert not metrics.equality
    assert metrics.overlap_achieved == (0,) * 9
    assert metrics.column_hits_achieved == (0,) * 9


def test_evaluate_scheme_shape_checks(bundle3):
    with pytest.raises(BadShape):
        evaluate_scheme(bundle3.realization,
                        RepairScheme(list(bundle3.scheme)[:3]))


def test_scheme_json_roundtrip(bundle3):
    obj = scheme_to_json(bundle3.scheme, {"x": 1})
    text = json.dumps(obj, indent=2, sort_keys=True)
    sch, prov = scheme_from_json(json.loads(text),
                                 bundle3.skeleton.tower.base)
    assert prov == {"x": 1}
    assert json.dumps(scheme_to_json(sch, prov), indent=2,
                      sort_keys=True) == text


def test_scheme_validation(tower3):
    with pytest.raises(BadRank):
        RepairScheme([Matrix(tower3.base, [[1, 0, 1, 0], [2, 0, 2, 0]])])
    good = [[1, 0, 0, 0], [0, 1, 0, 0]]
    for stack, error, message in (
            ([good, [[1, 0, 1, 0], [2, 0, 2, 0]]], BadRank,
             "matrix 1 does not have full row rank"),
            ([good, [[1, 0, 0, 0], [0, 3, 0, 0]]], LevelMismatch,
             "entry out of range"),
            (np.zeros((0, 2, 4), dtype=np.int64), BadShape,
             "at least one matrix")):
        with pytest.raises(error, match=message):
            RepairScheme.from_stack(tower3.base, np.array(stack))


def test_input_guards(bundle3, tower5):
    re = bundle3.realization
    s = re.skeleton
    good = bundle3.scheme[0]
    with pytest.raises(BadShape):
        bandwidth(good, re, 9)  # node out of range
    with pytest.raises(BadShape):
        incidence_profile(good, s, -1)
    with pytest.raises(BadShape):
        bruteforce_overlap(s, 99)
    wrong_field = Matrix(tower5.base, good.array)
    with pytest.raises(BadShape):
        io_count(wrong_field, re, 0)
    with pytest.raises(BadShape):
        dual_cover(Matrix(s.tower.base, good.array[:, :2]), s, 0)


def test_the_views_share_one_error_contract(bundle3, tower5):
    re = bundle3.realization
    s = re.skeleton
    field = s.tower.base
    good = bundle3.scheme[0]
    low = Matrix(field, [[1, 0, 1, 0], [2, 0, 2, 0]])  # rank 1
    # full rank, but its kernel is node 0's subspace: M H_0 is zero
    singular = Matrix(field, kernels(field, s.bases[:1])[0][0, :2])
    for view, arg in ((bandwidth, re), (io_count, re),
                      (incidence_profile, s), (dual_cover, s)):
        for m, i in ((good, 9), (good, -1),
                     (Matrix(tower5.base, good.array), 0),
                     (Matrix(field, good.array[:, :2]), 0)):
            with pytest.raises(BadShape):
                view(m, arg, i)
        with pytest.raises(BadRank):
            view(low, arg, 0)
        with pytest.raises(NotARepairMatrix, match="node 0"):
            view(singular, arg, 0)


def test_the_views_consult_the_mds_verdict_on_a_breach(bundle3):
    re, m = _covering_twice(bundle3)
    s = re.skeleton
    # not MDS: the covector on two helpers is no breach, so every view
    # answers
    assert dual_cover(m, s, 0).max_mult == 2
    assert bandwidth(m, re, 0) == bandwidth_oracle(m, re, 0)
    assert io_count(m, re, 0) == io_count_oracle(m, re, 0)
    assert incidence_profile(m, s, 0) == incidence_profile_oracle(m, s, 0)
    s._mds = None  # the cached verdict "verified MDS"
    for view, arg in ((bandwidth, re), (io_count, re),
                      (incidence_profile, s), (dual_cover, s)):
        with pytest.raises(InternalInconsistency,
                           match="covered r times at node 0"):
            view(m, arg, 0)


@pytest.mark.parametrize("view", [bandwidth, io_count, incidence_profile,
                                  dual_cover])
def test_each_view_is_one_pass_over_one_node(bundle5, monkeypatch, view):
    re = bundle5.realization
    passes, outside, inside = [], [], []
    real_pass = repair._scheme_pass

    def one_pass(s, col_stack, nodes, ms, *args):
        passes.append((list(nodes), ms.shape))
        inside.append(None)
        try:
            return real_pass(s, col_stack, nodes, ms, *args)
        finally:
            inside.pop()

    monkeypatch.setattr(repair, "_scheme_pass", one_pass)
    for name in ("batched_rank", "kernels", "_elimination_ranks"):
        def watched(field, a, _real=getattr(repair, name), _name=name):
            if not inside:
                outside.append((_name, np.shape(a)))
            return _real(field, a)
        monkeypatch.setattr(repair, name, watched)
    arg = re if view in (bandwidth, io_count) else re.skeleton
    view(bundle5.scheme[7], arg, 7)
    assert passes == [([7], (1, 2, 6))]
    # outside the pass, only the repair scheme's full-row-rank check
    assert outside == [("batched_rank", (1, 2, 6))]


@pytest.mark.parametrize("n", [9, 10])
def test_scheme_rank_check_and_kernels_are_stacked(tower3, n, watch_calls):
    bundle = build(validate_params(tower3, 2, n))
    ranks = watch_calls(repair, "batched_rank")
    sch = RepairScheme(list(bundle.scheme))
    assert ranks == [(n, 2, 4)]  # every matrix's row rank in one call
    elims = watch_calls(linalg, "_elimination_ranks")
    evaluate_scheme(bundle.realization, sch)
    # the kernel of each distinct M_i from one stack of [M_i^T | I], none
    # from a batch of one
    d = len(set(_first_use(sch.stack)))
    assert d < n
    assert [c for c in elims if c[1:] == (4, 6)] == [(d, 4, 6)]


def test_scheme_keeps_one_read_only_stack(bundle3):
    re, sch = bundle3.realization, bundle3.scheme
    field = re.skeleton.tower.base
    assert sch.stack.shape == (9, 2, 4) and not sch.stack.flags.writeable
    assert len(sch) == 9 and sch.field == field
    # sch[i] is a Matrix made from the stack on demand
    assert [m.array.tolist() for m in sch] == sch.stack.tolist()
    assert RepairScheme.from_stack(field, sch.stack).stack.tolist() == \
        sch.stack.tolist()
    # the scheme pass, the replay and the writer read the stack: a scheme
    # whose stack holds the trivial matrix of every node is evaluated and
    # written as that trivial scheme
    trivial = RepairScheme([Matrix(field, [[1, 0, 0, 0], [0, 1, 0, 0]])] * 9)
    swapped = RepairScheme(list(sch))
    swapped.stack = trivial.stack
    assert _pass(re, swapped).bandwidth == (16,) * 9
    assert [st.downloaded for st in _node_states(re, swapped, range(9))] == \
        [16] * 9
    assert swapped[4] == trivial[4] != sch[4]
    assert scheme_to_json(swapped) == scheme_to_json(trivial)


# -- the batched scheme pass and its one-node views against the oracle -----------


def _pass(re, sch):
    """The scheme pass over every node of ``sch``."""
    return repair._scheme_pass(re.skeleton, re.column_stack(), range(re.n),
                               sch.stack)


@pytest.fixture(scope="module")
def larger_bundles():
    """q=9 r=3 n=82, q=7 r=4 n=48 and q=5 l=3 r=3 n=124."""
    return [build(validate_params(build_tower(p, m, ell), r, n))
            for p, m, ell, r, n in ((3, 2, 2, 3, 82), (7, 1, 2, 4, 48),
                                    (5, 1, 3, 3, 124))]


def _oracle(re, sch):
    """The oracle's numbers for every node of a scheme: the whole pass as
    a :class:`SchemePass`, and each node's (bandwidth, io, incidence
    profile, dual cover).  The rows that depend only on the matrix are
    computed once per distinct matrix; the views once per node."""
    s = re.skeleton
    field = s.tower.base
    users = _first_use(sch.stack)
    rows = []  # (ranks, dims, columns) of each distinct matrix
    for i in (users.index(u) for u in range(max(users) + 1)):
        m = sch[i]
        blocks = repair._compressed_blocks(field, m.array, re.column_stack(),
                                           s.n, s.ell)
        # every pair, the failed node included, through the stacked ranks
        rows.append((batched_rank(field, blocks),
                     intersection_dims(s, m, range(s.n)),
                     (blocks != 0).any(axis=1).sum(axis=1)))
    ranks, dims, columns = (np.array([rows[u][c] for u in users])
                            for c in range(3))
    views = []
    for i in range(s.n):
        m = sch[i]
        views.append((bandwidth_oracle(m, re, i), io_count_oracle(m, re, i),
                      incidence_profile_oracle(m, s, i),
                      dual_cover_oracle(m, s, i)))
    want = SchemePass(ranks, dims, columns,
                      mults=mults_oracle(re, sch),
                      points=np.array([v[2].sum_points for v in views]),
                      bandwidth=tuple(v[0] for v in views),
                      io=tuple(v[1] for v in views))
    return want, views


def _assert_same_pass(sp, want):
    for name in ("ranks", "dims", "columns", "mults", "points"):
        assert np.array_equal(getattr(sp, name), getattr(want, name)), name
    assert (sp.bandwidth, sp.io) == (want.bandwidth, want.io)


def _assert_pass_matches_per_node(re, sch):
    """The whole pass, and at every node the four one-node views, equal the
    oracle.  A one-node pass is one chunk at any ``_PASS_CELLS``, so the
    views run once; test_scheme_pass_is_the_same_in_any_chunks covers
    chunking."""
    s = re.skeleton
    field = s.tower.base
    want, views = _oracle(re, sch)
    _assert_same_pass(_pass(re, sch), want)
    # the scalar oracle's row once per distinct matrix (a construction has
    # two), checked at every node that uses it
    rows = {}
    for i in range(s.n):
        key = (sch[i].shape, sch[i].array.tobytes())
        if key not in rows:
            rows[key] = meet_dims_oracle(field, _kernel_basis(sch[i]), s.bases)
        assert want.dims[i].tolist() == rows[key]
    for i, (bw, io, pr, dc) in enumerate(views):
        m = sch[i]
        assert bandwidth(m, re, i) == bw
        assert io_count(m, re, i) == io
        assert incidence_profile(m, s, i) == pr
        got = dual_cover(m, s, i)
        assert np.array_equal(got.points, dc.points)
        assert dataclasses.replace(got, points=None) == \
            dataclasses.replace(dc, points=None)


def test_scheme_pass_matches_per_node_on_constructions(bundle3, bundle5,
                                                       larger_bundles):
    for bundle in [bundle3, bundle5] + larger_bundles:
        _assert_pass_matches_per_node(bundle.realization, bundle.scheme)
        assert evaluate_scheme(bundle.realization,
                               bundle.scheme) == bundle.metrics


def _basis_realization(sk):
    """Realize a skeleton with its nodes' RREF basis rows as column points."""
    return realize(sk, [list(b) for b in sk.bases])


def _zero_block_case(bundle3):
    """Nodes 0 and 1 of bundle3's skeleton made the coordinate halves of
    F_3^4, and a scheme in which node 1 sends every other node a zero
    block: M_1 = [0 | I] and every other M_i = [I | 0]."""
    sk = bundle3.skeleton
    eye = np.eye(4, dtype=np.int64)
    zs = CodeSkeleton(sk.tower, sk.r,
                      np.concatenate([eye[None, :2], eye[None, 2:],
                                      sk.bases[2:]]))
    field = sk.tower.base
    sch = RepairScheme([Matrix(field, eye[2:] if i == 1 else eye[:2])
                        for i in range(zs.n)])
    return _basis_realization(zs), sch


def _random_scheme(sk, rng):
    field = sk.tower.base
    return RepairScheme([_random_feasible_matrix(field, sk, i, rng)
                         for i in range(sk.n)])


def test_scheme_pass_counts_every_covector_of_a_zero_block(bundle3):
    re, sch = _zero_block_case(bundle3)
    _assert_pass_matches_per_node(re, sch)
    sp = _pass(re, sch)
    helpers = np.arange(re.n) != 1
    assert (sp.ranks[helpers, 1] == 0).all()
    # a rank-0 block's left kernel is all of F_q^l: every covector kills it
    assert (sp.mults[helpers] >= 1).all()
    assert sp.mults[0].tolist() == [1] * 4


@pytest.mark.parametrize("cells", [1, 700, 1 << 30])
def test_scheme_pass_is_the_same_in_any_chunks(bundle3, bundle5, monkeypatch,
                                               cells):
    # one node per chunk, chunks of a few nodes, and all nodes at once, on
    # a construction, on zero blocks and on a non-MDS skeleton
    bad = _non_mds_bundle(bundle3)
    for re, sch in [(bundle5.realization, bundle5.scheme),
                    _zero_block_case(bundle3),
                    (_basis_realization(bad),
                     _random_scheme(bad, random.Random(3)))]:
        want, _ = _oracle(re, sch)
        with monkeypatch.context() as mp:
            mp.setattr(repair, "_PASS_CELLS", cells)
            _assert_same_pass(_pass(re, sch), want)


@pytest.mark.parametrize("p,m,ell,r,n", [
    (2, 1, 2, 2, 3), (3, 1, 1, 2, 4), (3, 1, 2, 2, 4), (3, 1, 2, 3, 5),
    (2, 2, 1, 3, 5), (5, 1, 1, 3, 6), (5, 1, 2, 2, 4), (5, 1, 2, 3, 5)])
def test_scheme_pass_matches_per_node_on_random_schemes(p, m, ell, r, n):
    from test_acceptance import _random_mds_skeleton

    rng = random.Random(p * 1000 + m * 100 + ell * 10 + r + n)
    sk = _random_mds_skeleton(build_tower(p, m, ell), r, n, rng)
    re = _basis_realization(sk)
    for _ in range(4):
        _assert_pass_matches_per_node(re, _random_scheme(sk, rng))


def _non_mds_bundle(bundle3):
    """bundle3's skeleton with its last node replaced by its fourth-last."""
    sk = bundle3.skeleton
    bad = CodeSkeleton(sk.tower, sk.r, sk.bases[[*range(sk.n - 1), -4]])
    assert not bad.is_mds
    return bad


def _covering_twice(bundle3):
    """A realization of the non-MDS skeleton of :func:`_non_mds_bundle`,
    whose node 8 repeats node 5, and a repair matrix for node 0 whose
    kernel meets node 5 within the incidence cap: one covector kills the
    blocks of both helpers 5 and 8."""
    bad = _non_mds_bundle(bundle3)
    re = _basis_realization(bad)
    rng = random.Random(8)
    while True:
        m = _random_feasible_matrix(bad.tower.base, bad, 0, rng)
        pr = incidence_profile_oracle(m, bad, 0)
        if pr.dims[4] == 1 and pr.sum_points <= 4:  # helper 5
            return re, m


def test_scheme_pass_matches_per_node_on_a_non_mds_skeleton(bundle3):
    bad = _non_mds_bundle(bundle3)
    re = _basis_realization(bad)
    rng = random.Random(11)
    for _ in range(4):
        _assert_pass_matches_per_node(re, _random_scheme(bad, rng))


# -- the pass and the replay states against their per-row routes ----------------


def _outcome(call, *args):
    """What ``call(*args)`` returns, or the class and message it raises."""
    try:
        return call(*args)
    except (NotARepairMatrix, InternalInconsistency) as exc:
        return type(exc), str(exc)


def _distinct_matrix_cases(bundle3, bundle5, larger_bundles):
    """(realization, scheme, nodes, matrices) cases for the pass and the
    replay states; ``matrices`` is the scheme's stack at ``nodes`` except
    in the one case whose scheme is None, which repairs a node with a
    matrix of no scheme."""
    cases = [(b.realization, b.scheme, range(b.realization.n), None)
             for b in [bundle3, bundle5] + larger_bundles]
    # schemes whose matrices are all distinct
    rng = random.Random(21)
    for b in (bundle3, bundle5):
        sch = _random_scheme(b.skeleton, rng)
        assert len(set(_first_use(sch.stack))) == b.realization.n
        cases.append((b.realization, sch, range(b.realization.n), None))
    # repeated nodes, and node 7 with two matrices
    re, sch = bundle5.realization, bundle5.scheme
    nodes = [7, 2, 7, 15, 0, 15, 7]
    cases.append((re, sch, nodes, None))
    other = _random_feasible_matrix(re.skeleton.tower.base, re.skeleton, 7,
                                    rng).array
    ms = sch.stack[nodes].copy()
    ms[2] = other
    cases.append((re, None, nodes, ms))
    cases.append((*_zero_block_case(bundle3), range(9), None))
    bad = _non_mds_bundle(bundle3)
    cases.append((_basis_realization(bad), _random_scheme(bad, rng),
                  range(9), None))
    # one of bundle3's two matrices shared with one more node: node j
    # takes the matrix of nodes 4..8 (j < 4) or of nodes 0..3 (j >= 4)
    for j in range(9):
        matrices = list(bundle3.scheme)
        matrices[j] = matrices[8 if j < 4 else 0]
        cases.append((bundle3.realization, RepairScheme(matrices), range(9),
                      None))
    return cases


@pytest.mark.parametrize("cells", [1, 700, 1 << 30])
def test_scheme_pass_matches_the_per_row_route(bundle3, bundle5,
                                               larger_bundles, monkeypatch,
                                               cells):
    monkeypatch.setattr(repair, "_PASS_CELLS", cells)
    refused = []
    for re, sch, nodes, ms in _distinct_matrix_cases(bundle3, bundle5,
                                                     larger_bundles):
        args = (re.skeleton, re.column_stack(), nodes,
                sch.stack[list(nodes)] if ms is None else ms)
        got = _outcome(repair._scheme_pass, *args)
        want = _outcome(scheme_pass_oracle, *args)
        if isinstance(want, tuple):
            assert got == want
            refused.append(want)
            continue
        for f in dataclasses.fields(SchemePass):
            a, b = getattr(got, f.name), getattr(want, f.name)
            assert type(a) is type(b), f.name
            if isinstance(a, np.ndarray):
                assert a.dtype == b.dtype and np.array_equal(a, b), f.name
            else:
                assert a == b, f.name
    # every shared matrix but one is singular on its new node's block;
    # nodes 4..7 are not the first node of the matrix they share
    assert refused == [(NotARepairMatrix, str(NotARepairMatrix(j)))
                       for j in range(8)]


def test_node_states_match_the_per_row_route(bundle3, bundle5,
                                             larger_bundles):
    for re, sch, nodes, _ in _distinct_matrix_cases(bundle3, bundle5,
                                                    larger_bundles):
        if sch is None:
            continue
        got = _outcome(_node_states, re, sch, nodes)
        want = _outcome(node_states_oracle, re, sch, nodes)
        if isinstance(want, tuple):
            assert got == want
            continue
        assert len(got) == len(want)
        # each node's own pipeline, cut from the one its matrix shares
        for a, b in zip([node_view(st, re.skeleton.ell) for st in got],
                        want):
            for name in NodeView.__slots__:
                x, y = getattr(a, name), getattr(b, name)
                assert type(x) is type(y), name
                if isinstance(x, np.ndarray):
                    assert x.dtype == y.dtype and np.array_equal(x, y), name
                else:
                    assert x == y, name


def test_blocks_are_formed_once_per_distinct_matrix(bundle3, bundle5,
                                                    larger_bundles,
                                                    monkeypatch):
    # (matrix, node) pairs whose block M H_j each module forms
    pairs = {repair: 0, simulate: 0}
    for module in pairs:
        def counted(field, m_arr, col_stack, n, ell, _real=getattr(
                module, "_compressed_blocks"), _module=module):
            pairs[_module] += (len(m_arr) if m_arr.ndim == 3 else 1) * n
            return _real(field, m_arr, col_stack, n, ell)
        monkeypatch.setattr(module, "_compressed_blocks", counted)
    for b in [bundle3, bundle5] + larger_bundles:
        re, sch = b.realization, b.scheme
        d, n = len(set(_first_use(sch.stack))), re.n
        assert d == 2
        _pass(re, sch)
        assert pairs == {repair: d * n, simulate: 0}
        pairs.update({repair: 0})
        campaign(re, sch, trials=1, seed=0, nodes=None)
        assert pairs == {repair: d * n, simulate: d * n}
        pairs.update({repair: 0, simulate: 0})


# -- every self-check of the pass still fires ---------------------------------------


def test_scheme_pass_catches_disagreeing_routes(bundle5, monkeypatch):
    real = linalg.null_columns
    users = _first_use(bundle5.scheme.stack)  # kernels in order of first use

    def corrupted(field, reduced, is_piv):
        out = real(field, reduced, is_piv)
        out[users[3]] = 0  # node 3's kernel route now sees no rank at all
        return out

    # the fault is in the kernel of node 3's matrix, which node 0 uses first
    assert users.index(users[3]) == 0
    monkeypatch.setattr(linalg, "null_columns", corrupted)
    with pytest.raises(InternalInconsistency,
                       match="kernel route disagree at node 0$"):
        evaluate_scheme(bundle5.realization, bundle5.scheme)


def test_scheme_pass_catches_a_wrong_rank_route(bundle5, monkeypatch):
    real = repair._compressed_blocks
    stack = bundle5.scheme.stack

    def corrupted(field, m_arr, col_stack, n, ell):
        out = real(field, m_arr, col_stack, n, ell)
        # block M_15 H_7 reads as zero, for every node repaired with M_15
        out[(m_arr == stack[15]).all(axis=(1, 2)), 7] = 0
        return out

    # node 12 is the first node repaired with M_15, and node 7 is a
    # helper of every such node
    users = _first_use(stack)
    assert users.index(users[15]) == 12 and users[7] != users[15]
    monkeypatch.setattr(repair, "_compressed_blocks", corrupted)
    with pytest.raises(InternalInconsistency,
                       match="kernel route disagree at node 12$"):
        evaluate_scheme(bundle5.realization, bundle5.scheme)


def test_scheme_pass_names_the_node_it_cannot_repair(bundle3):
    matrices = list(bundle3.scheme)
    matrices[2] = matrices[8]  # M_8's kernel meets node 2 in dimension 1
    with pytest.raises(NotARepairMatrix, match="node 2"):
        evaluate_scheme(bundle3.realization, RepairScheme(matrices))


def test_scheme_pass_catches_io_below_bandwidth(bundle5, monkeypatch):
    def full(field, blocks):
        # both routes read every block as invertible, so they agree, but
        # the bandwidth exceeds the nonzero columns read
        return np.full(len(blocks), blocks.shape[1], dtype=np.int64)

    monkeypatch.setattr(repair, "batched_rank", full)
    with pytest.raises(InternalInconsistency,
                       match="io below bandwidth at node 0"):
        evaluate_scheme(bundle5.realization, bundle5.scheme)


def test_scheme_pass_catches_a_broken_incidence_cap(bundle5, monkeypatch):
    real = repair.projective_point_count

    def inflated(q, dim):
        return real(q, dim) + (100 if dim == 1 else 0)

    monkeypatch.setattr(repair, "projective_point_count", inflated)
    with pytest.raises(InternalInconsistency,
                       match="incidence cap violated at node 0"):
        evaluate_scheme(bundle5.realization, bundle5.scheme)


def _one_matrix_a_chunk(monkeypatch, name, fault, call):
    """Run the pass one distinct matrix a chunk, with ``fault`` applied to
    the output of repair's ``name`` on its ``call``-th call (counting from
    0).

    Every matrix of bundle5 meets the nodes in blocks of rank 1 or 2
    only, so each chunk makes one left-kernel elimination and one
    ``null_columns`` call: the faulty call is that of the ``call``-th
    distinct matrix in order of first use, which a fault names by its
    first node.
    """
    real = getattr(repair, name)
    calls = []

    def faulty(*args):
        out = real(*args)
        calls.append(None)
        return fault(out) if len(calls) == call + 1 else out

    monkeypatch.setattr(repair, "_PASS_CELLS", 1)
    monkeypatch.setattr(repair, name, faulty)


def test_scheme_pass_refuses_a_stray_left_kernel_point(bundle5, monkeypatch):
    re, sch = bundle5.realization, bundle5.scheme
    field = re.skeleton.tower.base

    def zero_basis(basis):  # the chunk's first left kernel spans nothing
        basis[0] = 0
        return basis

    def doubled(pts):  # points that lead with 2 are no covector's code
        return field.arr_mul(pts, 2)

    # a zero point, or one off the lookup (-1), would have been counted in
    # the previous matrix's last covector column, or failed the scatter-add
    users = _first_use(sch.stack)
    for name, fault, call in (("null_columns", zero_basis, 1),
                              ("canonical_points", doubled, 0)):
        with monkeypatch.context() as mp:
            _one_matrix_a_chunk(mp, name, fault, call)
            with pytest.raises(InternalInconsistency,
                               match="not a canonical covector at node "
                                     f"{users.index(call)}$"):
                _pass(re, sch)


def test_scheme_pass_catches_dual_cover_faults(bundle3, bundle5, monkeypatch):
    def extra_dimension(out):
        # block 0 of the elimination drops its pivot: its left kernel
        # reads as all of F_5^2, one dimension more, so q more points than
        # its rank accounts for
        reduced, ranks, is_piv = out
        ranks[0] -= 1
        is_piv[0, np.flatnonzero(is_piv[0])[-1]] = False
        return reduced, ranks, is_piv

    # the second distinct matrix of bundle5 is first used at node 12
    assert _first_use(bundle5.scheme.stack).index(1) == 12
    with monkeypatch.context() as mp:
        _one_matrix_a_chunk(mp, "_elimination_ranks", extra_dimension, 1)
        with pytest.raises(InternalInconsistency,
                           match="bookkeeping .* at node 12$"):
            evaluate_scheme(bundle5.realization, bundle5.scheme)
    # on a non-MDS skeleton whose node 8 repeats node 5, a repair matrix
    # for node 0 whose kernel meets node 5 puts one covector on two helpers
    re, m = _covering_twice(bundle3)
    bad = re.skeleton
    sch = RepairScheme([m] + list(bundle3.scheme)[1:])
    assert _pass(re, sch).mults[0].max() == 2 > bad.r - 1
    bad._mds = None  # the cached verdict "verified MDS"
    with pytest.raises(InternalInconsistency,
                       match="covered r times at node 0"):
        _pass(re, sch)


def test_evaluate_scheme_catches_a_cost_below_the_bound(bundle5):
    sp = _pass(bundle5.realization, bundle5.scheme)
    low = dataclasses.replace(sp, bandwidth=(0,) * len(sp.bandwidth))
    with pytest.raises(InternalInconsistency, match="below the proven bound"):
        evaluate_scheme(bundle5.realization, bundle5.scheme, scheme_pass=low)


def test_scheme_pass_checks_shape_before_any_product(bundle3):
    field = bundle3.skeleton.tower.base
    for shape in ((2, 5), (3, 4), (2, 3)):
        m = Matrix(field, np.eye(*shape, dtype=np.int64))
        with pytest.raises(BadShape):
            evaluate_scheme(bundle3.realization, RepairScheme([m] * 9))
    with pytest.raises(BadShape, match="8 matrices for 9 nodes"):
        evaluate_scheme(bundle3.realization,
                        RepairScheme(list(bundle3.scheme)[:8]))
