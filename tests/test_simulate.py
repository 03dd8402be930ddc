import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mdsrepair import simulate
from mdsrepair.codes import CODEWORD_SAMPLER
from mdsrepair.errors import (
    BadShape,
    InternalInconsistency,
    NotACodeword,
    NotARepairMatrix,
)
from mdsrepair.gf import Field, build_tower
from mdsrepair.linalg import Matrix, batched_rank
from mdsrepair.nrc import build, validate_params
from mdsrepair.repair import RepairScheme, evaluate_scheme
from mdsrepair.simulate import _groups, _node_states, _replay, campaign

from pass_oracle import bandwidth_oracle, io_count_oracle
from replay_oracle import (is_codeword, node_view, own_rows, replay_oracle,
                           row_factor, sample_codeword)
from rref_oracle import rref_oracle

F3 = build_tower(3, 1, 1).base


def _product(fa, fb):
    return Matrix(fa.field, fa.field.matmul(fa.array, fb.array))


def _inverse_oracle(field, a):
    """a^(-1): the right half of the oracle RREF of [a | I]."""
    d = len(a)
    r, _, pivots = rref_oracle(field, np.hstack([a, np.eye(d, dtype=np.int64)]))
    assert pivots[:d] == tuple(range(d)), "singular"
    return r[:, d:]


def test_row_factor_full_rank():
    a = Matrix(F3, [[1, 2, 0], [0, 1, 1]])
    fa, fb = row_factor(a)
    assert fb == a
    assert fa == Matrix(F3, np.eye(2, dtype=np.int64))


def test_row_factor_zero():
    a = Matrix(F3, np.zeros((2, 3), dtype=np.int64))
    fa, fb = row_factor(a)
    assert fb.rows == 0 and fa.shape == (2, 0)
    assert _product(fa, fb) == a


def test_row_factor_rank_one():
    a = Matrix(F3, [[1, 2, 0], [2, 1, 0]])  # second row = 2 * first
    fa, fb = row_factor(a)
    assert fb == Matrix(F3, [[1, 2, 0]])
    assert _product(fa, fb) == a


def test_row_factor_properties_random():
    rng = random.Random(23)
    for _ in range(200):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        a = Matrix(F3, [[rng.randrange(3) for _ in range(cols)]
                        for _ in range(rows)])
        fa, fb = row_factor(a)
        assert _product(fa, fb) == a
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
    r, _, pivots = rref_oracle(field, np.hstack([b.array.T, a.array.T]))
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
    field = re.skeleton.tower.base
    st = _node_states(re, bundle3.scheme, [0])[0]
    block = _replay(field, _groups([st]),
                    np.zeros((1, 9, 2), dtype=np.int64))
    assert block.shape == (1, 2, 1) and not block.any()
    assert st.downloaded == 12 and st.accessed == 12


def test_transcript_counts_match_metrics(bundle3, bundle5):
    for bundle in (bundle3, bundle5):
        re = bundle.realization
        states = _node_states(re, bundle.scheme, range(re.n))
        for i, st in enumerate(states):
            assert st.failed == i
            assert st.downloaded == bandwidth_oracle(bundle.scheme[i], re, i)
            assert st.accessed == io_count_oracle(bundle.scheme[i], re, i)


def test_run_repair_rejects_bad_scheme(bundle3):
    re = bundle3.realization
    field = re.skeleton.tower.base
    # kernel of [0 0 I 0] style matrix contains some node; find one
    bad = Matrix(field, [[0, 0, 1, 0], [0, 0, 0, 1]])
    sch = RepairScheme([bad] * 9)
    hit = False
    for i in range(9):
        try:
            _node_states(re, sch, [i])
        except NotARepairMatrix:
            hit = True
    assert hit  # the kernel is a spread member, so some node collides
    with pytest.raises(NotARepairMatrix):
        _node_states(re, sch, range(9))


def test_campaign_single_trial_equals_sweep(bundle3):
    re = bundle3.realization
    field = re.skeleton.tower.base
    rep = campaign(re, bundle3.scheme, trials=1, seed=9)
    cw = sample_codeword(re, (9, 0))
    states = _node_states(re, bundle3.scheme, rep.nodes)
    blocks = _replay(field, _groups(states), cw[None])
    for k, st in enumerate(states):
        assert np.array_equal(blocks[k, :, 0], cw[st.failed])
        assert rep.downloaded[k] == st.downloaded
        assert rep.accessed[k] == st.accessed


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


@pytest.fixture(scope="module")
def bundle9():
    # extension base field F_9, the shortest length it admits at r = 2
    return build(validate_params(build_tower(3, 2, 2), 2, 20))


@pytest.fixture(scope="module")
def bundle27():
    # l = 3 over F_3: most sent rows read fewer than l symbols
    return build(validate_params(build_tower(3, 1, 3), 2, 26))


def _compressed(re, m, j):
    return re.skeleton.tower.base.matmul(m.array, re.points[j].T)


def _oracle_report(re, sch, trials, seed, nodes, first_trial=0):
    """Campaign report from one repair per (trial, node), without a session.

    Each erased block is rebuilt as -(M H_i)^(-1) sum_j M H_j c_j, and
    each node's counts are the ranks and nonzero columns of its M H_j.
    """
    s = re.skeleton
    field = s.tower.base
    counts = {}
    for t in range(first_trial, first_trial + trials):
        cw = sample_codeword(re, (seed, t))
        assert is_codeword(re, cw)
        for i in nodes:
            mh = [_compressed(re, sch[i], j) for j in range(s.n)]
            total = np.zeros(s.ell, dtype=np.int64)
            dl = ac = 0
            for j in range(s.n):
                if j == i:
                    continue
                total = field.arr_sub(total, field.arr_neg(
                    field.matmul(mh[j], cw[j][:, None])[:, 0]))
                dl += int(batched_rank(field, mh[j][None])[0])
                ac += int((mh[j] != 0).any(axis=0).sum())
            inv = _inverse_oracle(field, mh[i])
            block = field.arr_neg(field.matmul(inv, total[:, None])[:, 0])
            assert np.array_equal(block, cw[i])
            assert counts.setdefault(i, (dl, ac)) == (dl, ac)
    m = evaluate_scheme(re, sch)
    rows = [{"i": i + 1, "downloaded": counts[i][0],
             "accessed": counts[i][1], "beta": m.bandwidth[i],
             "gamma": m.io[i]} for i in nodes]
    return {"trials": trials, "seed": seed, "rng": CODEWORD_SAMPLER,
            "per_node": rows, "failures": [],
            "matches_metrics": all(r["downloaded"] == r["beta"]
                                   and r["accessed"] == r["gamma"]
                                   for r in rows),
            "bounds": m.bounds.to_json_dict(), "equality": m.equality}


@pytest.mark.parametrize("name", ["bundle3", "bundle5", "bundle9",
                                  "bundle27"])
@pytest.mark.parametrize("chunk", [None, 3])
def test_campaign_matches_per_repair_oracle(request, monkeypatch, name, chunk):
    bundle = request.getfixturevalue(name)
    re, sch = bundle.realization, bundle.scheme
    if chunk is not None:  # trials span chunk boundaries
        monkeypatch.setattr(simulate, "_TRIAL_CHUNK", chunk)
    nodes = tuple(range(re.n)) if name != "bundle5" else (0, 7, 23)
    for trials, first in ((7, 0), (4, 5), (1, 11)):
        rep = campaign(re, sch, trials=trials, seed=40, nodes=nodes,
                       first_trial=first)
        assert rep.to_json_dict() == _oracle_report(re, sch, trials, 40,
                                                    nodes, first)


def _pairs(seeds):
    """The (seed, t) pairs of a sampler call, from a list or a (T, 2) array."""
    return [tuple(int(v) for v in seed) for seed in seeds]


def _recording_sampler(monkeypatch, calls):
    """Record the seeds of every sampler call of a campaign, as given."""
    real = simulate.sample_codewords

    def recording(re, seeds):
        calls.append(seeds)
        return real(re, seeds)

    monkeypatch.setattr(simulate, "sample_codewords", recording)


@pytest.mark.parametrize("symbols, chunk", [
    (18, 256), (48, 256), (164, 256), (514, 256), (1500, 174), (2050, 128),
    (10250, 128),
])
def test_chunk_rule(symbols, chunk):
    # n*l = 18 is bundle3; 2^18 // (n*l), clamped to [128, 256]
    assert simulate._chunk_trials(symbols) == chunk


def test_campaign_chunking_keeps_report(bundle3, monkeypatch):
    re, sch = bundle3.realization, bundle3.scheme
    whole = campaign(re, sch, trials=10, seed=8, first_trial=2)
    calls = []
    _recording_sampler(monkeypatch, calls)
    for chunk in (3, 1):
        calls.clear()
        monkeypatch.setattr(simulate, "_TRIAL_CHUNK", chunk)
        assert campaign(re, sch, trials=10, seed=8,
                        first_trial=2).to_json_dict() == whole.to_json_dict()
        # each trial's own seed, once, in order, chunk by chunk, as one
        # (T, 2) uint32 array a chunk
        assert all(isinstance(c, np.ndarray) and c.dtype == np.uint32
                   and c.shape == (len(c), 2) for c in calls)
        assert [s for c in calls for s in _pairs(c)] == \
            [(8, t) for t in range(2, 12)]
        assert [len(c) for c in calls[:-1]] == [chunk] * (len(calls) - 1)


def test_campaign_report_does_not_depend_on_the_chunk(bundle3, monkeypatch):
    # n*l = 18: 256 trials a chunk unless forced; 130 is a multiple of
    # none of 3, 128 and 512
    re, sch = bundle3.realization, bundle3.scheme
    whole = campaign(re, sch, trials=600, seed=3, first_trial=130)
    calls = []
    _recording_sampler(monkeypatch, calls)
    for chunk in (1, 3, 128, 512):
        calls.clear()
        monkeypatch.setattr(simulate, "_TRIAL_CHUNK", chunk)
        assert campaign(re, sch, trials=600, seed=3,
                        first_trial=130).to_json_dict() == whole.to_json_dict()
        assert [s for c in calls for s in _pairs(c)] == \
            [(3, t) for t in range(130, 730)]
        assert [len(c) for c in calls] == \
            [chunk] * (600 // chunk) + [600 % chunk] * (600 % chunk > 0)


@pytest.mark.parametrize("seed, first, trials, arrays", [
    (2 ** 32 + 5, 0, 3, [False, False]),  # the seed needs two words
    (7, 2 ** 32 - 2, 5, [True, False, False]),  # trials cross t = 2^32
    (2 ** 32 - 1, 2 ** 32 - 6, 6, [True, True, True]),  # all in 32 bits
])
def test_campaign_draws_wide_seeds_per_trial(bundle3, monkeypatch, seed,
                                             first, trials, arrays):
    # a chunk whose seed or last trial does not fit in 32 bits passes its
    # seeds as a list of tuples, and yields the words of the per-trial seeds
    re, sch = bundle3.realization, bundle3.scheme
    calls = []
    _recording_sampler(monkeypatch, calls)
    monkeypatch.setattr(simulate, "_TRIAL_CHUNK", 2)
    rep = campaign(re, sch, trials=trials, seed=seed, first_trial=first,
                   nodes=(0, 4))
    assert [isinstance(c, np.ndarray) for c in calls] == arrays
    assert all(isinstance(c, list) and all(type(s) is tuple for s in c)
               for c in calls if not isinstance(c, np.ndarray))
    assert [s for c in calls for s in _pairs(c)] == \
        [(seed, t) for t in range(first, first + trials)]
    assert rep.to_json_dict() == _oracle_report(re, sch, trials, seed, (0, 4),
                                                first)


def _helper_factors(re, sch, st):
    """row_factor of every helper block of node ``st.failed``, in order."""
    field = re.skeleton.tower.base
    return [row_factor(Matrix(field, _compressed(re, sch[st.failed], j)))
            for j in range(re.n) if j != st.failed]


@pytest.mark.parametrize("name", ["bundle3", "bundle5", "bundle9",
                                  "bundle27"])
def test_session_factors_match_row_factor(request, name):
    bundle = request.getfixturevalue(name)
    re, sch = bundle.realization, bundle.scheme
    field = re.skeleton.tower.base
    ell = re.skeleton.ell
    states = [node_view(st, ell) for st in _node_states(re, sch, range(re.n))]
    for i, st in enumerate(states):
        mh_i = _compressed(re, sch[i], i)
        assert np.array_equal(st.neg_inv,
                              field.arr_neg(_inverse_oracle(field, mh_i)))
        # the helper of every read, and of every sent row's first slot
        read_by = st.gather // ell
        sent_by = st.gather[st.send_idx[:, 0]] // ell
        helpers = [j for j in range(re.n) if j != i]
        row = col = 0
        gather = []
        for j, (a, b) in zip(helpers, _helper_factors(re, sch, st)):
            acc = (st.gather[read_by == j] % ell).tolist()
            assert (sent_by == j).sum() == b.rows
            assert (sent_by[row:row + b.rows] == j).all()
            assert acc == np.flatnonzero(b.array.any(axis=0)).tolist()
            assert np.array_equal(st.a_all[:, row:row + b.rows], a.array)
            # every slot of a sent row is coordinate c of its own helper:
            # a read one among the helper's gathered reads, an unread one
            # with coefficient 0 at the helper's first read
            assert np.array_equal(st.send_coef[row:row + b.rows], b.array)
            want = [col + acc.index(c) if c in acc else col
                    for c in range(ell)]
            assert (st.send_idx[row:row + b.rows] == want).all()
            gather += [j * ell + c for c in acc]
            row += b.rows
            col += len(acc)
        assert st.send_coef.shape == st.send_idx.shape == (row, ell)
        assert st.a_all.shape == (ell, row)
        assert (row, col) == (st.downloaded, st.accessed)
        assert st.gather.tolist() == gather


def _dense_send(re, sch, st):
    """The block-diagonal (sent, accessed) matrix of every helper's B."""
    dense = np.zeros((st.downloaded, st.accessed), dtype=np.int64)
    row = col = 0
    for _, b in _helper_factors(re, sch, st):
        acc = np.flatnonzero(b.array.any(axis=0))
        dense[row:row + b.rows, col:col + len(acc)] = b.array[:, acc]
        row += b.rows
        col += len(acc)
    return dense


@pytest.mark.parametrize("name", ["bundle3", "bundle5", "bundle9",
                                  "bundle27"])
def test_sent_symbols_match_the_dense_product(request, name):
    bundle = request.getfixturevalue(name)
    re, sch = bundle.realization, bundle.scheme
    field = re.skeleton.tower.base
    ell = re.skeleton.ell
    words = simulate.sample_codewords(re, [(6, t) for t in range(5)])
    flat = words.reshape(len(words), -1)
    short = 0
    for st in _node_states(re, sch, range(re.n)):
        # the helpers' rows of the shared pipeline's sent symbols
        sent = simulate._send(field, st.pipe, flat[:, st.pipe.gather].T)
        view = node_view(st, ell)
        want = field.matmul(_dense_send(re, sch, view),
                            flat[:, view.gather].T)
        assert np.array_equal(sent[~own_rows(st, ell)], want)
        short += int(((view.send_coef != 0).sum(axis=1) < ell).sum())
    if name == "bundle27":
        assert short == 1324  # sent rows that read fewer than l symbols


def test_replay_makes_no_send_product(bundle3, bundle9, monkeypatch):
    real, real_send = Field.matmul, simulate._send
    calls, sends = [], []

    def recording(field, a, b):
        calls.append((sys._getframe(1).f_code.co_name, a))
        return real(field, a, b)

    def sending(field, pipe, read):
        sends.append(pipe.a_all)
        return real_send(field, pipe, read)

    monkeypatch.setattr(Field, "matmul", recording)
    monkeypatch.setattr(simulate, "_send", sending)
    monkeypatch.setattr(simulate, "_TRIAL_CHUNK", 4)
    for bundle in (bundle3, bundle9):  # n = 9 and n = 20, d = 2 at both
        re, sch = bundle.realization, bundle.scheme
        ell = re.skeleton.ell
        states = _node_states(re, sch, range(re.n))
        pipes = list({id(st.pipe): st.pipe for st in states}.values())
        assert len(pipes) == 2
        calls.clear()
        sends.clear()
        campaign(re, sch, trials=10, seed=2)  # three chunks
        replay = [a for caller, a in calls if caller == "_replay"]
        # per chunk, each matrix in order of first use sends once, its
        # shared a_all recombines once, one batched product forms the
        # own share of every node of the matrix and one applies their
        # neg_inv: 2 sends and 6 products a chunk, whatever n is
        assert len(sends) == 2 * 3 and len(replay) == 3 * 2 * 3
        for k, p in enumerate(pipes * 3):
            users = [st for st in states if st.pipe is p]
            whole, share, neg = replay[3 * k:3 * k + 3]
            assert np.array_equal(sends[k], p.a_all)
            assert np.array_equal(whole, p.a_all)
            assert share.shape == (len(users), ell, ell)
            assert np.array_equal(neg, [st.neg_inv for st in users])
        # no product has the (sent, accessed) shape of a send matrix, of
        # one node's helpers or of a whole pipeline
        shapes = {(st.downloaded, st.accessed) for st in states} | {
            (len(p.send_coef), len(p.gather)) for p in pipes}
        assert not any(np.shape(a) in shapes for _, a in calls)


@pytest.mark.parametrize("name", ["bundle3", "bundle5", "bundle9",
                                  "bundle27"])
def test_nodes_share_their_matrix_pipeline(request, name):
    bundle = request.getfixturevalue(name)
    re, sch = bundle.realization, bundle.scheme
    states = _node_states(re, sch, range(re.n))
    # one pipeline per distinct matrix, each over all n nodes
    assert len({id(st.pipe) for st in states}) == \
        len(np.unique(sch.stack, axis=0)) == 2
    ell = re.skeleton.ell
    for a in states:
        assert len(a.pipe.read_off) == re.n + 1
        # the node's own sent rows: l of them, from sent_at
        assert np.flatnonzero(own_rows(a, ell)).tolist() == \
            list(range(a.sent_at, a.sent_at + ell))
        for b in states:
            assert (a.pipe is b.pipe) == \
                np.array_equal(sch.stack[a.failed], sch.stack[b.failed])


@pytest.mark.parametrize("name", ["bundle3", "bundle5", "bundle9",
                                  "bundle27"])
def test_replay_rebuilds_without_the_erased_block(request, name):
    bundle = request.getfixturevalue(name)
    re, sch = bundle.realization, bundle.scheme
    field = re.skeleton.tower.base
    words = simulate.sample_codewords(re, [(12, t) for t in range(6)])
    rng = np.random.default_rng(12)
    states = _node_states(re, sch, range(re.n))
    groups = _groups(states)
    for a, st in enumerate(states):
        # the failed block overwritten with other nonzero codes: the
        # block the batched route rebuilds for it is still the sampled
        # codeword's, though its own share of the sum is taken from the
        # overwritten word
        other = words.copy()
        other[:, st.failed] = rng.integers(1, field.order,
                                           other[:, st.failed].shape)
        assert (other[:, st.failed] != words[:, st.failed]).any()
        assert np.array_equal(_replay(field, groups, other)[a],
                              words[:, st.failed].T)


def _all_distinct(bundle, seed):
    """The bundle's scheme with each node's matrix M_i replaced by G_i M_i
    for its own invertible G_i: the same kernels, so the same bandwidth
    and io at every node, and n distinct matrices."""
    sch = bundle.scheme
    field, ell = sch.field, bundle.realization.skeleton.ell
    rng = np.random.default_rng(seed)
    seen, out = set(), []
    for m in sch.stack:
        while True:
            g = rng.integers(0, field.order, (ell, ell))
            gm = field.matmul(g, m)
            if batched_rank(field, g[None])[0] == ell and \
                    gm.tobytes() not in seen:
                break
        seen.add(gm.tobytes())
        out.append(gm)
    return RepairScheme.from_stack(field, np.array(out))


@pytest.mark.parametrize("name", ["bundle3", "bundle5", "bundle9",
                                  "bundle27"])
@pytest.mark.parametrize("distinct", [False, True])
def test_batched_replay_matches_the_per_node_oracle(request, monkeypatch,
                                                    name, distinct):
    bundle = request.getfixturevalue(name)
    re = bundle.realization
    field, n, ell = re.skeleton.tower.base, re.n, re.skeleton.ell
    sch = _all_distinct(bundle, 3) if distinct else bundle.scheme
    assert len(np.unique(sch.stack, axis=0)) == (n if distinct else 2)
    real, real_groups = simulate._replay, simulate._groups
    chunks, built = [], []

    def grouping(states):
        built.append(states)
        return real_groups(states)

    def checked(field, groups, words):
        states = built[-1]
        got = real(field, groups, words)
        assert got.shape == (len(states), ell, len(words))
        for a, st in enumerate(states):
            assert np.array_equal(got[a], replay_oracle(field, st, words))
        chunks.append((tuple(st.failed for st in states), len(words)))
        return got

    monkeypatch.setattr(simulate, "_groups", grouping)
    monkeypatch.setattr(simulate, "_replay", checked)
    monkeypatch.setattr(simulate, "_TRIAL_CHUNK", 3)
    # unsorted and repeated nodes, and every node
    for nodes in ((5, 1, 5, 0), tuple(range(n))):
        rep = campaign(re, sch, trials=7, seed=44, nodes=nodes)
        assert chunks == [(nodes, 3), (nodes, 3), (nodes, 1)]
        # the per-matrix replay data is built once for all three chunks
        assert len(built) == 1
        chunks.clear()
        built.clear()
        if distinct:
            same = campaign(re, bundle.scheme, trials=1, seed=44, nodes=nodes)
            assert (rep.downloaded, rep.accessed) == \
                (same.downloaded, same.accessed)
        # on any word, not only on a codeword
        words = np.random.default_rng(n).integers(0, field.order,
                                                  (5, n, ell))
        checked(field, simulate._groups(_node_states(re, sch, nodes)), words)
        chunks.clear()
        built.clear()


def test_campaign_names_the_first_listed_node(bundle3, monkeypatch):
    re, sch = bundle3.realization, bundle3.scheme
    field, ell = re.skeleton.tower.base, re.skeleton.ell
    # a change to block 3 that node 5's matrix does not see in it, so it
    # leaves node 5's rebuilt block as it was
    mh = field.matmul(sch.stack[5], re.points[3].T)
    delta = next(np.array(v) for v in np.ndindex(*[field.order] * ell)
                 if any(v) and not field.matmul(mh, np.array(v)).any())
    real = simulate.sample_codewords

    def corrupt(re, seeds):
        words = real(re, seeds).copy()
        words[1, 3] = field.arr_sub(words[1, 3], delta)  # node 3: trial 1
        words[4, 5, 0] = (words[4, 5, 0] + 1) % 3  # node 5: trial 4
        return words

    monkeypatch.setattr(simulate, "sample_codewords", corrupt)
    monkeypatch.setattr(simulate, "syndromes",
                        lambda re, words: np.zeros((1, len(words)), int))
    # the per-node loop's verdict: node 3 fails first, at trial 1, but
    # node 5 is listed first, and its first failure is trial 4
    words = corrupt(re, [(8, t) for t in range(6)])
    states = _node_states(re, sch, (5, 3))
    first = [np.flatnonzero((replay_oracle(field, st, words)
                             != words[:, st.failed].T).any(axis=0))[0]
             for st in states]
    assert first == [4, 1]
    with pytest.raises(InternalInconsistency,
                       match="node 5 differs from the erased block in "
                             "trial 4$"):
        campaign(re, sch, trials=6, seed=8, nodes=(5, 3))
    with pytest.raises(InternalInconsistency,
                       match="node 3 differs from the erased block in "
                             "trial 1$"):
        campaign(re, sch, trials=6, seed=8, nodes=(3, 5))


@pytest.mark.parametrize("kwargs, match", [
    ({"trials": 0}, "a campaign needs at least one trial$"),
    ({"nodes": ()}, "nodes must list at least one node$"),
    ({"first_trial": -1}, "first_trial must be nonnegative, got -1$"),
])
def test_campaign_refuses_bad_arguments(bundle3, kwargs, match):
    with pytest.raises(BadShape, match=match):
        campaign(bundle3.realization, bundle3.scheme,
                 **{"trials": 3, "seed": 1, **kwargs})


def test_session_builds_all_nodes_in_one_elimination(bundle5, watch_calls):
    calls = watch_calls(simulate, "_elimination_ranks")
    _node_states(bundle5.realization, bundle5.scheme, range(24))
    # the block of each of the two distinct matrices at every node, then
    # every node's [M H_i | I]
    assert len(np.unique(bundle5.scheme.stack, axis=0)) == 2
    assert calls == [(2 * 24, 2, 2), (24, 2, 4)]


@pytest.mark.parametrize("fault", ["neg_inv", "send_coef", "downloaded",
                                   "accessed"])
def test_campaign_detects_a_corrupted_session(bundle3, monkeypatch, fault):
    real = simulate._node_states

    def corrupt(re, sch, nodes):
        states = real(re, sch, nodes)
        for st in states:
            if st.failed != 3:
                continue
            if fault == "send_coef":  # in the pipeline node 3 shares
                st.pipe.send_coef = np.zeros_like(st.pipe.send_coef)
            elif fault == "neg_inv":
                st.neg_inv = np.zeros_like(st.neg_inv)
            else:
                setattr(st, fault, getattr(st, fault) + 1)
        return states

    monkeypatch.setattr(simulate, "_node_states", corrupt)
    re, sch = bundle3.realization, bundle3.scheme
    if fault in ("neg_inv", "send_coef"):
        # both rebuild a zero block: the first trial whose block is not
        # zero is named, at node 3 for its own neg_inv, and for the
        # send_coef node 3 shares at the first node of its matrix
        node = 3 if fault == "neg_inv" else next(
            j for j in range(re.n)
            if np.array_equal(sch.stack[j], sch.stack[3]))
        assert node == (3 if fault == "neg_inv" else 0)
        first = next(t for t in range(5)
                     if sample_codeword(re, (3, t))[node].any())
        match = f"node {node} differs from the erased block in trial {first}$"
    else:
        match = "at node 3$"
    with pytest.raises(InternalInconsistency, match=match):
        campaign(re, sch, trials=5, seed=3)
    campaign(re, sch, trials=5, seed=3, nodes=(2, 4))


def test_campaign_checks_the_counts_before_any_trial(bundle3, monkeypatch):
    # the counts are fixed when the pipelines are built, so a wrong count
    # is named before a word is sampled, and only once
    real = simulate._node_states

    def miscounted(re, sch, nodes):
        states = real(re, sch, nodes)
        states[-1].downloaded += 1
        return states

    def refuse(*args):
        raise AssertionError("a trial ran before the counts were checked")

    monkeypatch.setattr(simulate, "_node_states", miscounted)
    monkeypatch.setattr(simulate, "sample_codewords", refuse)
    with pytest.raises(InternalInconsistency,
                       match="diverge from metrics at node 6$"):
        campaign(bundle3.realization, bundle3.scheme, trials=300, seed=1,
                 nodes=(2, 6))


def test_replay_names_a_later_trial(bundle3, monkeypatch):
    re, sch = bundle3.realization, bundle3.scheme
    real = simulate.sample_codewords

    def flip(re, seeds):
        words = real(re, seeds)
        if (7, 6) in _pairs(seeds):  # erased block 3 of trial 6 no longer
            k = _pairs(seeds).index((7, 6))  # matches
            words = words.copy()
            words[k, 3, 0] = (words[k, 3, 0] + 1) % 3
        return words

    monkeypatch.setattr(simulate, "sample_codewords", flip)
    monkeypatch.setattr(simulate, "syndromes",
                        lambda re, words: np.zeros((1, len(words)), int))
    monkeypatch.setattr(simulate, "_TRIAL_CHUNK", 4)
    with pytest.raises(InternalInconsistency,
                       match="node 3 differs from the erased block in "
                             "trial 6$"):
        campaign(re, sch, trials=8, seed=7, nodes=(3,))


def test_campaign_checks_every_sampled_syndrome(bundle3, monkeypatch):
    real = simulate.sample_codewords

    def flip_last(re, seeds):
        words = real(re, seeds).copy()
        if _pairs(seeds)[-1] == (6, 9):
            words[-1, 0, 0] = (words[-1, 0, 0] + 1) % 3
        return words

    monkeypatch.setattr(simulate, "sample_codewords", flip_last)
    monkeypatch.setattr(simulate, "_TRIAL_CHUNK", 4)
    re, sch = bundle3.realization, bundle3.scheme
    campaign(re, sch, trials=9, seed=6)
    with pytest.raises(NotACodeword, match="trial 9"):
        campaign(re, sch, trials=10, seed=6)
