"""Acceptance suite: one test per criterion, exact integer assertions.

Each test prints a single PASS line (visible with `pytest -s`) after all
of its assertions, including the stated runtime ceiling, have held.
"""

import random
import time

import numpy as np
import pytest

from mdsrepair.codes import CodeSkeleton, bounds_report, check_mds
from mdsrepair.errors import (
    EllTooSmall,
    LengthOutOfRange,
    Nondivisible,
    QuotientTooSmall,
)
from mdsrepair.gf import build_tower
from mdsrepair.linalg import (
    batched_rank,
    gaussian_binomial,
    projective_point_count,
    rref_blocks,
)
from mdsrepair.nrc import build, validate_params
from mdsrepair import linalg, repair
from mdsrepair.repair import (
    IncidenceProfile,
    bruteforce_column_hits,
    bruteforce_overlap,
    dual_cover,
    hierarchy_check,
    incidence_profile,
)
from mdsrepair.simulate import campaign


def _report(num, label, t0):
    print(f"\nACCEPTANCE {num} [{label}]: PASS ({time.perf_counter() - t0:.2f}s)")


def test_criterion_1_two_parity_equality_suite(tower3):
    t0 = time.perf_counter()
    for n, cost in ((8, 10), (9, 12), (10, 14)):
        bundle = build(validate_params(tower3, 2, n))
        assert check_mds(bundle.skeleton) is None
        m = bundle.metrics
        assert m.bandwidth_avg == m.bandwidth_max == cost
        assert m.io_avg == m.io_max == cost
        assert cost == 2 * (n - 1) - 4
        assert set(m.bandwidth_gap) == {0} and set(m.io_gap) == {0}
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(1, "two-parity equality, q=3 n=8..10", t0)


def test_criterion_2_bruteforce_certification(bundle3):
    t0 = time.perf_counter()
    s = bundle3.skeleton
    assert gaussian_binomial(s.ambient, s.ell, 3) == 130
    for i in range(s.n):
        overlap, _ = bruteforce_overlap(s, i)
        hits, _ = bruteforce_column_hits(bundle3.realization, i)
        assert overlap == 4 == hits
        assert s.ell * (s.n - 1) - bundle3.metrics.bandwidth[i] == 4
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(2, "brute-force certification, q=3 n=9, 130 candidates/node", t0)


def test_criterion_3_higher_redundancy_equality_suite(tower5):
    t0 = time.perf_counter()
    for n in (24, 25, 26):
        bundle = build(validate_params(tower5, 3, n))
        assert check_mds(bundle.skeleton) is None
        cost = 2 * (n - 1) - 12
        m = bundle.metrics
        assert m.bandwidth_avg == m.bandwidth_max == cost
        assert m.io_avg == m.io_max == cost
        assert set(m.bandwidth_gap) == {0} and set(m.io_gap) == {0}
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(3, "higher-redundancy equality, q=5 r=3 n=24..26", t0)


def test_criterion_3_extended_full_scan(bundle5):
    t0 = time.perf_counter()
    re = bundle5.realization
    s = re.skeleton
    total = gaussian_binomial(s.ambient, s.ell, 5)
    assert total == 508431
    overlap = bruteforce_overlap(s, 0, index_range=(0, total))
    hits = bruteforce_column_hits(re, 0, index_range=(0, total))
    # the first maximizers sit at these enumeration indices
    for (value, witness), index in ((overlap, 15763), (hits, 203200)):
        assert value == 12
        pinned = next(rref_blocks(5, s.ell, s.ambient, index, index + 1))[1][0]
        assert np.array_equal(witness.array, pinned)
    assert time.perf_counter() - t0 < 5.0
    _report("3x", "full 508431-candidate scan, q=5 n=24 node 1", t0)


def test_criterion_3_full_scan_meets_the_bound_at_q7():
    t0 = time.perf_counter()
    q, r = 7, 3
    re = build(validate_params(build_tower(q, 1, 2), r, 50)).realization
    s = re.skeleton
    total = gaussian_binomial(s.ambient, s.ell, q)
    assert total == 6865251
    # both optima are the incidence bound (r-1)(q^l-1)/(q-1)
    bound = (r - 1) * projective_point_count(q, s.ell)
    assert bound == 16
    overlap, o_witness = bruteforce_overlap(s, 0, index_range=(0, total))
    hits, h_witness = bruteforce_column_hits(re, 0, index_range=(0, total))
    assert overlap == hits == bound
    # each witness attains its cost, recomputed by the scheme pass
    cost = s.ell * (s.n - 1) - bound
    assert repair.bandwidth(o_witness, re, 0) == cost
    assert repair.io_count(h_witness, re, 0) == cost
    _report("3y", "full 6865251-candidate scan, q=7 r=3 n=50 node 1", t0)


def test_criterion_4_bound_comparison_grid():
    t0 = time.perf_counter()
    for q in (2, 3, 4, 5):
        for ell in (1, 2, 3):
            for r in (2, 3):
                n = q ** ell + 1
                if n < r:
                    continue
                rep = bounds_report(q, ell, r, n)
                assert rep.im_bound >= rep.pc_bound
                if r == 2:
                    assert rep.im_bound == rep.pc_bound
                if r == 3 and ell >= 2:
                    t = projective_point_count(q, ell)
                    gap = (q ** (2 * ell) - 1) // (q - 1) - 2 * t
                    assert rep.im_bound - rep.pc_bound == gap > 0
    assert bounds_report(5, 2, 3, 26).im_bound - \
        bounds_report(5, 2, 3, 26).pc_bound == 144
    _report(4, "bound comparison over the q/ell/r grid", t0)


# -- criterion 5: randomized property sweep -----------------------------------------


def _random_mds_skeleton(tower, r, n, rng, tries=2000):
    field = tower.base
    ell = tower.ell
    d = r * ell
    for _ in range(tries):
        nodes = []
        while len(nodes) < n:
            rows = np.array([[rng.randrange(field.order) for _ in range(d)]
                             for _ in range(ell)], dtype=np.int64)
            if batched_rank(field, rows[None])[0] == ell:
                nodes.append(rows)
        sk = CodeSkeleton(tower, r, nodes)
        if check_mds(sk) is None:
            return sk
    raise RuntimeError(f"no MDS skeleton found for q={tower.q}, r={r}, n={n}")


def _random_feasible(field, s, i, rng):
    cols_i = s.bases[i].T
    while True:
        m = np.array([[rng.randrange(field.order) for _ in range(s.ambient)]
                      for _ in range(s.ell)], dtype=np.int64)
        if batched_rank(field, m[None])[0] != s.ell:
            continue
        if batched_rank(field, field.matmul(m, cols_i)[None])[0] == s.ell:
            from mdsrepair.linalg import Matrix
            return Matrix(field, m)


def _audit(s, audited):
    """All four properties for every (node, feasible matrix) pair of one
    skeleton, from one scheme pass over the list; any breach raises."""
    field = s.tower.base
    q = field.order
    nodes = [i for i, _ in audited]
    stack = np.stack([m.array for _, m in audited])
    # raises on a cap breach or a dual point covered r times (the skeleton
    # is MDS)
    sp = repair._scheme_pass(s, linalg._columns(s.bases), nodes, stack)
    cap = (s.r - 1) * projective_point_count(q, s.ell)
    # download identity, rank route versus intersection route: every block
    # M H_j of every audited matrix from one product
    blocks = field.matmul(stack, linalg._columns(s.bases)).reshape(
        len(audited), s.ell, s.n, s.ell).transpose(0, 2, 1, 3)
    ranks = batched_rank(field, np.ascontiguousarray(blocks).reshape(
        -1, s.ell, s.ell)).reshape(len(audited), s.n)
    for a, i in enumerate(nodes):
        helpers = tuple(j for j in range(s.n) if j != i)
        dims = tuple(int(t) for t in sp.dims[a, list(helpers)])
        pr = IncidenceProfile(failed=i, helpers=helpers, dims=dims,
                              sum_dims=sum(dims),
                              sum_points=int(sp.points[a]), cap=cap,
                              holds=int(sp.points[a]) <= cap)
        assert pr.holds
        assert all(ln.holds for ln in hierarchy_check(pr, s.ell, s.r, q))
        assert sp.mults[a].max() <= s.r - 1
        assert int(ranks[a, list(helpers)].sum()) + pr.sum_dims == \
            s.ell * (s.n - 1)
    return len(audited)


def test_criterion_5_counting_property_suite(bundle3, bundle5, tower5):
    t0 = time.perf_counter()
    rng = random.Random(0x5EED)
    audited = 0

    configs = [
        # (p, m, ell, r, n): random MDS skeletons within q<=5, l<=2, r<=3, n<=10
        (2, 1, 2, 2, 3),
        (3, 1, 1, 2, 4),
        (3, 1, 2, 2, 4),
        (3, 1, 2, 3, 5),
        (4, None, 1, 3, 5),   # q = 4 through the two-level base F_2 <= F_4
        (5, 1, 1, 3, 6),
        (5, 1, 2, 2, 4),
        (5, 1, 2, 3, 5),
    ]
    per_skeleton = 900
    for p, m, ell, r, n in configs:
        tower = build_tower(2, 2, ell) if m is None else build_tower(p, m, ell)
        sk = _random_mds_skeleton(tower, r, n, rng)
        pairs = []
        for _ in range(per_skeleton):
            i = rng.randrange(sk.n)
            pairs.append((i, _random_feasible(tower.base, sk, i, rng)))
        audited += _audit(sk, pairs)

    bundles = [bundle3, bundle5,
               build(validate_params(bundle3.params.tower, 2, 10)),
               build(validate_params(tower5, 3, 26))]
    for bundle in bundles:
        sk = bundle.skeleton
        pairs = []
        for _ in range(750):
            i = rng.randrange(sk.n)
            pairs.append((i, _random_feasible(sk.tower.base, sk, i, rng)))
        # the constructed scheme matrices themselves
        pairs += list(enumerate(bundle.scheme))
        audited += _audit(sk, pairs)

    assert audited >= 10_000
    _report(5, f"counting properties over {audited} feasible matrices", t0)


def test_criterion_6_equality_structure_diagnostics(tower3, tower5):
    t0 = time.perf_counter()
    for tower, r, lengths in ((tower3, 2, (8, 9, 10)),
                              (tower5, 3, (24, 25, 26))):
        expect = (r - 1) * projective_point_count(tower.q, tower.ell)
        for n in lengths:
            bundle = build(validate_params(tower, r, n))
            s = bundle.skeleton
            for i in range(s.n):
                pr = incidence_profile(bundle.scheme[i], s, i)
                assert set(pr.dims) <= {0, 1}
                assert pr.sum_dims == expect
                dc = dual_cover(bundle.scheme[i], s, i)
                assert dc.regular
                assert len(dc.mults) == projective_point_count(tower.q,
                                                               tower.ell)
    _report(6, "equality structure at every node of every bundle", t0)


def test_criterion_7_simulation_reconciliation(bundle3, bundle5):
    t0 = time.perf_counter()
    for bundle, cost in ((bundle3, 12), (bundle5, 34)):
        rep = campaign(bundle.realization, bundle.scheme,
                       trials=1000, seed=2026)
        assert rep.trials == 1000
        assert set(rep.downloaded) == {cost}
        assert set(rep.accessed) == {cost}
        assert rep.downloaded == bundle.metrics.bandwidth
        assert rep.accessed == bundle.metrics.io
        assert rep.failures == ()
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(7, "1000-trial campaigns reconcile with analytic counts", t0)


def test_criterion_8_parameter_gates(tower3, tower5):
    t0 = time.perf_counter()
    with pytest.raises(Nondivisible):
        validate_params(build_tower(2, 2, 2), 3, 16)  # q = 4, r = 3
    with pytest.raises(QuotientTooSmall):
        validate_params(tower3, 3, 9)  # q = 3, r = 3
    with pytest.raises(EllTooSmall):
        validate_params(build_tower(3, 1, 1), 2, 3)
    with pytest.raises(LengthOutOfRange):
        validate_params(tower5, 3, 23)
    with pytest.raises(LengthOutOfRange):
        validate_params(tower5, 3, 27)
    assert not bounds_report(2, 2, 3, 5).r_le_q
    assert not bounds_report(3, 3, 4, 9).r_le_q
    assert bounds_report(5, 2, 3, 24).r_le_q
    _report(8, "parameter gates reject with named errors", t0)


def test_criterion_9_scalar_sanity():
    t0 = time.perf_counter()
    for q in (2, 3, 4, 5, 7, 9):
        for r in (2, 3, 4):
            for n in range(r, r + 7):
                assert bounds_report(q, 1, r, n).im_bound == n - r
    _report(9, "l=1 collapses to the scalar repair value n-r", t0)
