import dataclasses
import json

import numpy as np
import pytest

from mdsrepair import codes, linalg, nrc, repair
from mdsrepair.codes import check_mds, realization_to_json
from mdsrepair.errors import (
    BadParameters,
    EllTooSmall,
    InternalInconsistency,
    LengthOutOfRange,
    LevelMismatch,
    Nondivisible,
    QuotientTooSmall,
    RExceedsQ,
    ZeroB,
)
from mdsrepair.gf import build_tower
from mdsrepair.linalg import (
    canonical_points,
    intersections,
    projective_point_count,
)
from mdsrepair.nrc import (
    INF,
    block_partition,
    build,
    bundle_provenance,
    norm_one_subgroup,
    repair_subspace,
    validate_params,
)
from mdsrepair.repair import scheme_to_json

import tower_maps as tm
from curve_rows import curve_rows
from rref_oracle import meet_dim_oracle, rref_oracle, span_oracle


# -- parameter gate ---------------------------------------------------------------


def test_validate_params_accepts_valid_instance(tower5):
    p = validate_params(tower5, 3, 24)
    assert (p.q, p.ell, p.r, p.n) == (5, 2, 3, 24)


def test_validate_params_length_window(tower5):
    with pytest.raises(LengthOutOfRange) as exc:
        validate_params(tower5, 3, 23)
    assert (exc.value.minimum, exc.value.maximum) == (24, 26)
    with pytest.raises(LengthOutOfRange):
        validate_params(tower5, 3, 27)


def test_validate_params_nondivisible():
    tower4 = build_tower(2, 2, 2)  # q = 4
    with pytest.raises(Nondivisible):
        validate_params(tower4, 3, 16)


def test_validate_params_quotient(tower3):
    with pytest.raises(QuotientTooSmall):
        validate_params(tower3, 3, 9)
    with pytest.raises(QuotientTooSmall):
        validate_params(build_tower(2, 1, 2), 2, 4)  # q = 2 leaves one block


def test_validate_params_ell(tower3):
    with pytest.raises(EllTooSmall):
        validate_params(build_tower(3, 1, 1), 2, 3)


def test_validate_params_r_bounds(tower3):
    with pytest.raises(RExceedsQ):
        validate_params(tower3, 4, 9)
    with pytest.raises(BadParameters):
        validate_params(tower3, 1, 9)


# -- curve subspaces -----------------------------------------------------------------


def test_nrc_subspace_infinity_and_zero(tower3):
    assert curve_rows(tower3, 3, INF).tolist() == [
        [0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1]]
    assert curve_rows(tower3, 3, 0).tolist() == [
        [1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0]]


def test_nrc_subspace_dimensions_all_parameters(tower3):
    # the curve rows of every parameter are already a canonical basis of
    # an l-dimensional node subspace
    for c in list(range(9)) + [INF]:
        rows = curve_rows(tower3, 3, c)
        assert rows.shape == (2, 6)
        assert np.array_equal(span_oracle(tower3.base, rows), rows)


# -- norm-one subgroup ----------------------------------------------------------------


def test_norm_one_subgroup(tower3):
    sigma = norm_one_subgroup(tower3)
    assert 1 in sigma
    assert len(sigma) == 4 == projective_point_count(3, 2)
    top = tower3.top
    members = np.array(sigma)
    assert set(top.arr_inv(members).tolist()) <= set(sigma)
    assert set(top.arr_mul(members[:, None], members).ravel().tolist()) \
        <= set(sigma)


@pytest.mark.parametrize("p,m,ell", [(3, 1, 2), (5, 1, 2), (2, 2, 2)])
def test_norm_one_equals_power_image(p, m, ell):
    t = build_tower(p, m, ell)
    sigma = set(norm_one_subgroup(t))
    image = set(t.top.arr_pow(np.arange(1, t.top_order), t.q - 1).tolist())
    assert sigma == image


def _partition_oracle(tower, r, sigma):
    """The parameter blocks one element at a time: each unit's key is the
    smallest code of its coset c^(r-1) * Sigma, found once per coset."""
    top = tower.top
    keys, groups = {}, {}
    for c in range(1, tower.top_order):
        v = tm.power(top, c, r - 1)
        if v not in keys:
            coset = [tm.mul(top, v, s) for s in sigma]
            keys.update(dict.fromkeys(coset, min(coset)))
        groups.setdefault(keys[v], []).append(c)
    return [(tm.power(top, ms[0], r - 1), tuple(ms))
            for ms in sorted(groups.values())]


# (p, m, ell): every r with r - 1 dividing q - 1 is partitioned
PARTITION_TOWERS = [(3, 1, 2), (5, 1, 2), (7, 1, 2), (2, 2, 2), (3, 2, 2),
                    (5, 1, 3), (2, 2, 3), (2, 5, 2)]


@pytest.mark.parametrize("p,m,ell", PARTITION_TOWERS, ids=str)
def test_partition_and_subgroup_match_the_elementwise_oracle(p, m, ell):
    t = build_tower(p, m, ell)
    sigma = tuple(x for x in range(1, t.top_order) if tm.norm(t, x) == 1)
    assert norm_one_subgroup(t) == sigma
    for r in range(2, t.q + 1):
        if (t.q - 1) % (r - 1) == 0:
            part = block_partition(t, r)
            assert part.sigma == sigma
            assert [(b.rep, b.members) for b in part.blocks] == \
                _partition_oracle(t, r, sigma)


# -- parameter blocks ------------------------------------------------------------------


def test_block_partition_two_parity_cosets(tower3):
    part = block_partition(tower3, 2)
    sigma = set(part.sigma)
    assert len(part.blocks) == 2
    assert all(len(b.members) == 4 for b in part.blocks)
    # for r = 2 the blocks are exactly the cosets of the norm-one subgroup
    top = tower3.top
    for blk in part.blocks:
        cosets = {frozenset(top.arr_mul(c, part.sigma).tolist())
                  for c in blk.members}
        assert cosets == {frozenset(blk.members)}


def test_block_partition_higher_redundancy(tower5):
    part = block_partition(tower5, 3)
    assert len(part.blocks) == 2
    assert all(len(b.members) == 12 for b in part.blocks)
    union = set()
    for b in part.blocks:
        assert not (union & set(b.members))
        union |= set(b.members)
    assert union == set(range(1, 25))


def test_block_partition_representative_invariance(tower5):
    # the block of c depends only on the norm-one coset of c^(r-1): testing
    # membership against any member's power recovers the same block
    part = block_partition(tower5, 3)
    top = tower5.top
    units = np.arange(1, tower5.top_order)
    for blk in part.blocks:
        for probe in blk.members[:3]:
            coset = top.arr_mul(top.arr_pow(probe, 2), part.sigma)
            members = units[np.isin(top.arr_pow(units, 2), coset)]
            assert members.tolist() == list(blk.members)


def test_block_partition_nondivisible():
    with pytest.raises(Nondivisible):
        block_partition(build_tower(2, 2, 2), 3)


# -- repair kernels ---------------------------------------------------------------------


def test_repair_subspace_rejects_zero(tower3):
    with pytest.raises(ZeroB):
        repair_subspace(tower3, 2, 0)


def test_repair_subspace_rejects_codes_outside_the_top_field(tower3):
    for b in (-1, tower3.top_order):
        with pytest.raises(LevelMismatch):
            repair_subspace(tower3, 2, b)


@pytest.mark.parametrize("p,m,ell,r", [(3, 1, 2, 2), (5, 1, 2, 3),
                                       (2, 2, 2, 2), (5, 1, 3, 3)], ids=str)
def test_repair_subspace_block_is_multiplication_after_frobenius(p, m, ell, r):
    # M = [-(B F) | 0 | ... | 0 | I] with B the matrix of y -> b*y and F
    # that of y -> y^q, both built element by element
    t = build_tower(p, m, ell)
    field = t.base
    frob = tm.frobenius_matrix(t)
    for b in range(1, t.top_order):
        _, mat = repair_subspace(t, r, b)
        block = tm.matmul(field, tm.multiplication_matrix(t, b), frob)
        assert np.array_equal(field.arr_neg(mat.array[:, :ell]), block)
        assert not mat.array[:, ell:(r - 1) * ell].any()
        assert np.array_equal(mat.array[:, (r - 1) * ell:], np.eye(ell))


def test_repair_subspace_dimension_and_extremes(tower5):
    field = tower5.base
    for b in (1, 7, 24):
        w, m = repair_subspace(tower5, 3, b)
        assert w.shape == (4, 6)  # (r-1) * l canonical basis rows
        assert np.array_equal(span_oracle(field, w), w)
        assert m.shape == (2, 6)
        assert not field.matmul(m.array, w.T).any()
        for c in (0, INF):
            rows = curve_rows(tower5, 3, c)
            assert meet_dim_oracle(field, w, rows) == 0


def test_repair_subspace_hit_pattern_exhaustive(tower5):
    # dim(W_b /\ H_c) is 1 exactly on the block of b and 0 elsewhere,
    # for every unit b and every unit c
    top = tower5.top
    sigma = norm_one_subgroup(tower5)
    for b in range(1, tower5.top_order):
        w, _ = repair_subspace(tower5, 3, b)
        coset = set(top.arr_mul(b, sigma).tolist())
        for c in range(1, tower5.top_order):
            expected = 1 if tm.power(top, c, 2) in coset else 0
            rows = curve_rows(tower5, 3, c)
            assert meet_dim_oracle(tower5.base, w, rows) == expected


def test_repair_subspace_hit_pattern_two_parity(tower3):
    top = tower3.top
    sigma = norm_one_subgroup(tower3)
    for b in range(1, tower3.top_order):
        w, _ = repair_subspace(tower3, 2, b)
        coset = set(top.arr_mul(b, sigma).tolist())
        for c in range(1, tower3.top_order):
            expected = 1 if c in coset else 0
            rows = curve_rows(tower3, 2, c)
            assert meet_dim_oracle(tower3.base, w, rows) == expected


# -- the full construction -----------------------------------------------------------------


def test_build_two_parity_lengths(tower3):
    for n, cost in ((8, 10), (9, 12), (10, 14)):
        bundle = build(validate_params(tower3, 2, n))
        m = bundle.metrics
        assert set(m.bandwidth) == {cost} and set(m.io) == {cost}
        assert m.equality
        assert check_mds(bundle.skeleton) is None


def test_build_omega_ordering(tower3):
    b9 = build(validate_params(tower3, 2, 9))
    # first the two norm-one cosets, then the leftover parameter 0
    part = b9.partition
    expected = (part.blocks[0].members + part.blocks[1].members + (0,))
    assert b9.parameters == expected
    b10 = build(validate_params(tower3, 2, 10))
    assert b10.parameters[-1] is INF
    b8 = build(validate_params(tower3, 2, 8))
    assert 0 not in b8.parameters and INF not in b8.parameters


def test_build_higher_redundancy_lengths(tower5):
    for n in (24, 25, 26):
        bundle = build(validate_params(tower5, 3, n))
        cost = 2 * (n - 1) - 12
        m = bundle.metrics
        assert set(m.bandwidth) == {cost} and set(m.io) == {cost}
        assert m.equality


def test_build_forced_columns_present(bundle5):
    # every node of the two chosen blocks carries the unique projective
    # point its designated hitting kernel captures
    field = bundle5.skeleton.tower.base
    block_a, block_b = bundle5.blocks_used
    w_a, _ = repair_subspace(bundle5.params.tower, 3, block_a.rep)
    w_b, _ = repair_subspace(bundle5.params.tower, 3, block_b.rep)
    for idx, c in enumerate(bundle5.parameters):
        node = bundle5.skeleton.bases[idx]
        if c in set(block_a.members):
            w = w_a
        elif c in set(block_b.members):
            w = w_b
        else:
            continue
        hit, is_piv = intersections(field, w[None], node[None])
        assert is_piv.sum() == 1 == meet_dim_oracle(field, w, node)
        point = tuple(int(x) for x in canonical_points(field, hit[0, 0]))
        assert point in map(tuple, bundle5.realization.points[idx].tolist())


def _greedy_spanning_points(field, ell, gens, forced):
    """Reference: keep each new canonical point that raises the rank."""
    chosen = [] if forced is None else [forced]
    rank = len(chosen)
    for row in gens:
        if rank == ell:
            break
        p = canonical_points(field, row)
        if any(np.array_equal(p, c) for c in chosen):
            continue
        new_rank = rref_oracle(field, np.vstack(chosen + [p]))[1]
        if new_rank > rank:
            chosen.append(p)
            rank = new_rank
    if rank != ell:
        raise InternalInconsistency("column fill failed to span a node")
    return chosen


def _spanning_cases(tower, r):
    """Curve rows of every parameter with forced points, duplicate and
    non-canonical rows."""
    field = tower.base
    for c in list(range(tower.top_order)) + [INF]:
        gens = curve_rows(tower, r, c)
        ell = len(gens)
        mixed = field.arr_sub(gens[0], field.arr_neg(gens[-1]))  # a sum
        scaled = field.arr_mul(gens[0], field.order - 1)
        for forced in (None, canonical_points(field, gens[0]),
                       canonical_points(field, gens[-1]),
                       canonical_points(field, mixed)):
            yield field, ell, gens, forced
            yield field, ell, np.vstack([gens[:1], gens]), forced
            yield field, ell, np.vstack([gens[:1], scaled, gens[1:]]), forced
            yield field, ell, np.vstack([scaled, gens[1:]]), forced


def _spanning_points(field, ell, gens, forced):
    """The forced point, then curve rows greedily, from a stack of one."""
    cands = gens if forced is None else np.vstack([forced, gens])
    return list(nrc._spanning_fill(field, cands[None], ell)[0])


@pytest.mark.parametrize("p,m,ell,r", [(3, 1, 2, 2), (5, 1, 2, 3),
                                       (3, 2, 2, 3)],
                         ids=["q3", "q5", "q9"])
def test_spanning_points_match_greedy_route(p, m, ell, r):
    cases = 0
    for field, ell, gens, forced in _spanning_cases(build_tower(p, m, ell), r):
        got = _spanning_points(field, ell, gens, forced)
        want = _greedy_spanning_points(field, ell, gens, forced)
        assert len(got) == len(want) == ell
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        cases += 1
    assert cases == 16 * (p ** (m * ell) + 1)


def test_spanning_points_refuse_a_short_fill(tower3):
    field = tower3.base
    gens = curve_rows(tower3, 2, 1)
    for fill in (_spanning_points, _greedy_spanning_points):
        with pytest.raises(InternalInconsistency):
            fill(field, 2, np.vstack([gens[:1], gens[:1]]), None)


def test_spanning_points_eliminate_once(tower5, watch_calls):
    gens = curve_rows(tower5, 3, 7)
    forced = canonical_points(tower5.base, gens[1])
    calls = watch_calls(linalg, "_elimination_ranks")
    _spanning_points(tower5.base, 2, gens, forced)
    assert len(calls) == 1


@pytest.mark.parametrize("n", [9, 10])
def test_build_stacks_curve_subspaces_and_spanning_checks(tower3, n,
                                                          watch_calls):
    elims = watch_calls(linalg, "_elimination_ranks")
    ranks = watch_calls(codes, "batched_rank")
    build(validate_params(tower3, 2, n))
    # the n curve subspaces come from one stack and none from a batch of one
    assert elims.count((n, 2, 4)) == 1 and (1, 2, 4) not in elims
    # realize checks that every node's column points span in one rank call,
    # on their (n, l, l) coefficients in the node bases
    assert ranks.count((n, 2, 2)) == 1 and (1, 2, 2) not in ranks


def test_build_per_node_hit_counts(bundle3, bundle5):
    from mdsrepair.repair import incidence_profile

    for bundle in (bundle3, bundle5):
        s = bundle.skeleton
        expect = (s.r - 1) * projective_point_count(s.tower.q, s.ell)
        for i in range(s.n):
            pr = incidence_profile(bundle.scheme[i], s, i)
            assert set(pr.dims) <= {0, 1}
            assert pr.sum_dims == expect


def test_build_deterministic(tower3):
    a = build(validate_params(tower3, 2, 9))
    b = build(validate_params(tower3, 2, 9))
    ja = json.dumps(realization_to_json(a.realization, a.labels,
                                        bundle_provenance(a, "t")),
                    sort_keys=True)
    jb = json.dumps(realization_to_json(b.realization, b.labels,
                                        bundle_provenance(b, "t")),
                    sort_keys=True)
    assert ja == jb
    assert json.dumps(scheme_to_json(a.scheme), sort_keys=True) == \
        json.dumps(scheme_to_json(b.scheme), sort_keys=True)


def test_labels(bundle3):
    labels = bundle3.labels
    assert len(labels) == 9
    assert all(lab.isdigit() for lab in labels)
    b10 = build(validate_params(bundle3.params.tower, 2, 10))
    assert b10.labels[-1] == "inf"


def test_build_deeper_subpacketization():
    # l = 3 over F_3: bound 3*25 - 13 = 62 attained across the window edge
    tower = build_tower(3, 1, 3)
    bundle = build(validate_params(tower, 2, 26))
    assert bundle.metrics.bounds.im_bound == 62
    assert set(bundle.metrics.bandwidth) == {62} == set(bundle.metrics.io)
    assert bundle.metrics.equality


def test_build_non_prime_field():
    # q = 4 through the two-level base F_2 <= F_4; window is [10, 17]
    tower = build_tower(2, 2, 2)
    for n, cost in ((10, 13), (17, 27)):
        bundle = build(validate_params(tower, 2, n))
        assert set(bundle.metrics.bandwidth) == {cost}
        assert set(bundle.metrics.io) == {cost}
        assert bundle.metrics.equality
    # the achieved overlap is certified optimal by the exhaustive scan
    from mdsrepair.repair import bruteforce_column_hits, bruteforce_overlap

    bundle = build(validate_params(tower, 2, 10))
    for i in (0, 9):
        assert bruteforce_overlap(bundle.skeleton, i)[0] == 5
        assert bruteforce_column_hits(bundle.realization, i)[0] == 5


def test_build_redundancy_four():
    # r = 4 needs 3 | (q-1), smallest case q = 7; bound 2*47 - 3*8 = 70
    tower = build_tower(7, 1, 2)
    bundle = build(validate_params(tower, 4, 48))
    assert bundle.metrics.bounds.im_bound == 70
    assert set(bundle.metrics.bandwidth) == {70} == set(bundle.metrics.io)
    assert bundle.metrics.equality


# -- stacked column fill and the verified pass -------------------------------------


@pytest.mark.parametrize("p,m,ell,r", [(3, 1, 2, 2), (5, 1, 2, 3),
                                       (3, 2, 2, 3)],
                         ids=["q3", "q5", "q9"])
def test_spanning_fill_of_a_stack_matches_greedy_route(p, m, ell, r):
    # every case padded to one shape, a zero row where no point is forced
    cases = list(_spanning_cases(build_tower(p, m, ell), r))
    field = cases[0][0]
    width = max(len(gens) for _, _, gens, _ in cases) + 1
    stack = np.zeros((len(cases), width, r * ell), dtype=np.int64)
    for block, (_, _, gens, forced) in zip(stack, cases):
        if forced is not None:
            block[0] = forced
        block[1:1 + len(gens)] = gens
    got = nrc._spanning_fill(field, stack, ell)
    for points, (field, ell, gens, forced) in zip(got, cases):
        want = _greedy_spanning_points(field, ell, gens, forced)
        assert np.array_equal(points, np.stack(want))


@pytest.mark.parametrize("n", [9, 10])
def test_build_fills_columns_from_two_stacks(tower3, n, watch_calls):
    elims = watch_calls(linalg, "_elimination_ranks")
    bundle = build(validate_params(tower3, 2, n))
    # the 8 nodes of the two blocks meet their kernels in one Zassenhaus
    # stack [[W, W], [B, 0]], and every node's points come from one stack
    # of transposed candidates [forced; curve rows]
    assert elims.count((8, 4, 8)) == 1
    assert elims.count((n, 4, 3)) == 1
    # the build's two repair kernels [M^T | I] are its first stack, and
    # nothing is a batch of one
    assert elims[0] == (2, 4, 6)
    assert [c for c in elims if c[0] == 1] == []
    assert bundle.metrics.equality


def test_verify_bundle_reads_the_scheme_pass(bundle5):
    re = bundle5.realization
    sp = repair._scheme_pass(re.skeleton, re.column_stack(), range(re.n),
                             bundle5.scheme.stack)
    nrc._verify_bundle(bundle5, sp)
    dims = sp.dims.copy()
    dims[3, 7] = 2
    with pytest.raises(InternalInconsistency,
                       match="exceeds dim 1 at node 3"):
        nrc._verify_bundle(bundle5, dataclasses.replace(sp, dims=dims))
    dims = sp.dims.copy()
    dims[4, 0] = 1 - dims[4, 0]
    with pytest.raises(InternalInconsistency,
                       match="wrong helper hit count at node 4"):
        nrc._verify_bundle(bundle5, dataclasses.replace(sp, dims=dims))
    mults = sp.mults.copy()
    mults[6, 0] += 1
    with pytest.raises(InternalInconsistency,
                       match="not \\(r-1\\)-regular at node 6"):
        nrc._verify_bundle(bundle5, dataclasses.replace(sp, mults=mults))
