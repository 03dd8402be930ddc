import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mdsrepair.codes import sample_codeword
from mdsrepair.errors import NotACodeword, NotARepairMatrix
from mdsrepair.gf import build_tower
from mdsrepair.linalg import Matrix, _rref_array, batched_rank, matmul
from mdsrepair.repair import RepairScheme, bandwidth, io_count
from mdsrepair.simulate import (
    RepairSession,
    campaign,
    row_factor,
    run_repair,
)

F3 = build_tower(3, 1, 1).base


def test_row_factor_full_rank():
    a = Matrix(F3, [[1, 2, 0], [0, 1, 1]])
    fa, fb = row_factor(a)
    assert fb == a
    assert fa == Matrix(F3, np.eye(2, dtype=np.int64))


def test_row_factor_zero():
    a = Matrix(F3, np.zeros((2, 3), dtype=np.int64))
    fa, fb = row_factor(a)
    assert fb.rows == 0 and fa.shape == (2, 0)
    assert matmul(fa, fb) == a


def test_row_factor_rank_one():
    a = Matrix(F3, [[1, 2, 0], [2, 1, 0]])  # second row = 2 * first
    fa, fb = row_factor(a)
    assert fb == Matrix(F3, [[1, 2, 0]])
    assert matmul(fa, fb) == a


def test_row_factor_properties_random():
    rng = random.Random(23)
    for _ in range(200):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        a = Matrix(F3, [[rng.randrange(3) for _ in range(cols)]
                        for _ in range(rows)])
        fa, fb = row_factor(a)
        assert matmul(fa, fb) == a
        assert fb.rows == batched_rank(F3, a.array[None])[0]
        # nonzero-column sets agree
        nz_a = (a.array != 0).any(axis=0)
        nz_b = (fb.array != 0).any(axis=0) if fb.rows else \
            np.zeros(cols, dtype=bool)
        assert np.array_equal(nz_a, nz_b)
        # B's rows are rows of a, in original order
        rows_a = [tuple(r) for r in a.array]
        idx = [rows_a.index(tuple(r)) for r in fb.array]
        assert idx == sorted(idx)


def _greedy_row_factor(a):
    """Reference: keep each row that raises the rank, then solve for A."""
    field = a.field
    sel, rank = [], 0
    for ri in range(a.rows):
        new_rank = int(batched_rank(field, a.array[sel + [ri]][None])[0])
        if new_rank > rank:
            sel.append(ri)
            rank = new_rank
    b = Matrix(field, a.array[sel])
    # solve b.T @ X = a.T: b has full row rank, so reducing [b.T | a.T]
    # leaves the identity on top of the unique X
    r, _, pivots = _rref_array(field, np.hstack([b.array.T, a.array.T]))
    assert pivots == tuple(range(rank))
    return Matrix(field, r[:rank, rank:].T), b


ROW_FACTOR_FIELDS = {"F3": build_tower(3, 1, 1).base,
                     "F4": build_tower(2, 2, 1).base,
                     "F5": build_tower(5, 1, 1).base,
                     "F9": build_tower(3, 2, 1).base}


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(sorted(ROW_FACTOR_FIELDS)),
       rows=st.integers(0, 5), cols=st.integers(0, 5),
       rank_cap=st.integers(0, 5), seed=st.integers(0, 2 ** 32 - 1))
def test_row_factor_matches_greedy_definition(name, rows, cols, rank_cap, seed):
    field = ROW_FACTOR_FIELDS[name]
    rng = np.random.default_rng(seed)
    # a product through a rank_cap-wide middle forces rank deficiency
    left = rng.integers(0, field.order, (rows, rank_cap))
    right = rng.integers(0, field.order, (rank_cap, cols))
    a = Matrix(field, field.matmul(left, right))
    fa, fb = row_factor(a)
    ga, gb = _greedy_row_factor(a)
    assert fb == gb and fa == ga
    assert fa.shape == (rows, fb.rows)


def test_run_repair_zero_codeword(bundle3):
    re = bundle3.realization
    cw = np.zeros((9, 2), dtype=np.int64)
    tr = run_repair(re, bundle3.scheme, cw, 0)
    assert not tr.reconstructed.any()
    assert tr.downloaded == 12 and tr.accessed == 12


def test_run_repair_all_nodes_random(bundle3):
    re = bundle3.realization
    for seed in range(10):
        cw = sample_codeword(re, seed)
        for i in range(9):
            tr = run_repair(re, bundle3.scheme, cw, i)
            assert np.array_equal(tr.reconstructed, cw[i])


def test_transcript_counts_match_metrics(bundle3, bundle5):
    for bundle in (bundle3, bundle5):
        re = bundle.realization
        cw = sample_codeword(re, 5)
        session = RepairSession(re, bundle.scheme)
        for i in range(re.skeleton.n):
            tr = session.repair(cw, i)
            assert tr.downloaded == bandwidth(bundle.scheme[i], re, i)
            assert tr.accessed == io_count(bundle.scheme[i], re, i)
            assert sum(h.sent for h in tr.helpers) == tr.downloaded
            assert sum(len(h.accessed) for h in tr.helpers) == tr.accessed


def test_run_repair_rejects_noncodeword(bundle3):
    re = bundle3.realization
    cw = sample_codeword(re, 0).copy()
    cw.setflags(write=True)
    cw[0, 0] = (cw[0, 0] + 1) % 3
    with pytest.raises(NotACodeword):
        run_repair(re, bundle3.scheme, cw, 3)


def test_run_repair_rejects_bad_scheme(bundle3):
    re = bundle3.realization
    field = re.skeleton.tower.base
    # kernel of [0 0 I 0] style matrix contains some node; find one
    bad = Matrix(field, [[0, 0, 1, 0], [0, 0, 0, 1]])
    sch = RepairScheme([bad] * 9)
    cw = sample_codeword(re, 1)
    hit = False
    for i in range(9):
        try:
            run_repair(re, sch, cw, i)
        except NotARepairMatrix:
            hit = True
    assert hit  # the kernel is a spread member, so some node collides


def test_campaign_single_trial_equals_sweep(bundle3):
    re = bundle3.realization
    rep = campaign(re, bundle3.scheme, trials=1, seed=9)
    cw = sample_codeword(re, (9, 0))
    for k, i in enumerate(rep.nodes):
        tr = run_repair(re, bundle3.scheme, cw, i)
        assert rep.downloaded[k] == tr.downloaded
        assert rep.accessed[k] == tr.accessed


def test_campaign_deterministic(bundle3):
    re = bundle3.realization
    a = campaign(re, bundle3.scheme, trials=20, seed=77)
    b = campaign(re, bundle3.scheme, trials=20, seed=77)
    assert a.to_json_dict() == b.to_json_dict()


def test_campaign_counts_constant(bundle3):
    rep = campaign(bundle3.realization, bundle3.scheme, trials=50, seed=4)
    assert set(rep.downloaded) == {12} and set(rep.accessed) == {12}
    assert rep.failures == () and rep.matches_metrics


def test_campaign_node_subset_and_offsets(bundle3):
    re = bundle3.realization
    whole = campaign(re, bundle3.scheme, trials=4, seed=31, nodes=(2,))
    first = campaign(re, bundle3.scheme, trials=2, seed=31, nodes=(2,))
    second = campaign(re, bundle3.scheme, trials=2, seed=31, nodes=(2,),
                      first_trial=2)
    assert whole.downloaded == first.downloaded == second.downloaded
    assert whole.nodes == (2,)
