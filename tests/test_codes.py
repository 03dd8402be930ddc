import functools
import hashlib
import itertools
import json
import random
import types
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from mdsrepair import codes, linalg
from mdsrepair.codes import (
    CodeSkeleton,
    Realization,
    bounds_report,
    check_mds,
    realization_from_json,
    realization_to_json,
    realize,
)
from mdsrepair.errors import (
    AmbientMismatch,
    BadParameters,
    BadShape,
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
)
from mdsrepair.gf import Field, build_tower
from mdsrepair.linalg import batched_rank
from mdsrepair.nrc import build, validate_params

from curve_rows import curve_rows
from replay_oracle import is_codeword, kernel_basis_oracle, sample_codeword
from rref_oracle import meet_dim_oracle


def _coordinate_skeleton(tower, r):
    """r coordinate-block subspaces of F_q^(r*l); n = r, trivially MDS."""
    ell = tower.ell
    nodes = []
    for i in range(r):
        rows = np.zeros((ell, r * ell), dtype=np.int64)
        rows[:, i * ell:(i + 1) * ell] = np.eye(ell, dtype=np.int64)
        nodes.append(rows)
    return CodeSkeleton(tower, r, nodes)


def test_skeleton_validation(tower3):
    s = _coordinate_skeleton(tower3, 2)
    assert s.n == 2 and s.ell == 2 and s.ambient == 4
    node1 = s.bases[1].tolist()
    # nodes may have different row counts: each is the span of its rows
    with pytest.raises(WrongNodeDim, match="node 0 has dimension 1"):
        CodeSkeleton(tower3, 2, [[[1, 0, 0, 0]], node1])
    with pytest.raises(WrongNodeDim, match="node 1 has dimension 1"):
        CodeSkeleton(tower3, 2, [node1, [[1, 0, 0, 0]]])
    padded = CodeSkeleton(tower3, 2, [[[1, 0, 0, 0], [0, 1, 0, 0],
                                       [1, 1, 0, 0]], node1])
    assert np.array_equal(padded.bases, s.bases)
    with pytest.raises(WrongAmbient, match="node 0: .*expected"):
        CodeSkeleton(tower3, 2, [[[1, 0, 0], [0, 1, 0]], node1])
    with pytest.raises(WrongAmbient, match="node 1: .*form an array"):
        CodeSkeleton(tower3, 2, [node1, [[1, 0, 0, 0], [0, 1, 0]]])
    with pytest.raises(TooFewNodes):
        CodeSkeleton(tower3, 2, [node1])
    # a stack of generator rows is checked as a whole, naming the first node
    with pytest.raises(WrongNodeDim, match="node 1 has dimension 1"):
        CodeSkeleton(tower3, 2, [s.bases[0], [[0, 0, 1, 0], [0, 0, 2, 0]]])
    with pytest.raises(WrongAmbient, match=r"node 0: .*\(2, 3\), expected"):
        CodeSkeleton(tower3, 2, s.bases[:, :, :3])
    with pytest.raises(TooFewNodes):
        CodeSkeleton(tower3, 2, s.bases[:1])


def test_a_generator_array_and_its_nested_list_agree(bundle5):
    sk = bundle5.skeleton
    field, ell = sk.tower.base, sk.ell
    # generators that are not yet reduced: each node's basis mixed by one
    # invertible matrix, also with its rows swapped, which the elimination
    # swaps back
    mix = field.matmul(np.array([[1, 2], [0, 1]]), sk.bases)
    for gens in (sk.bases, mix, mix[:, ::-1], mix.astype(np.int32)):
        kept = gens.copy()
        a = CodeSkeleton(sk.tower, sk.r, gens)
        b = CodeSkeleton(sk.tower, sk.r, gens.tolist())
        assert np.array_equal(gens, kept)  # the argument is not reduced
        for s in (a, b):
            assert s.bases.dtype == np.int64
            assert np.array_equal(s.bases, sk.bases)
            assert np.array_equal(s.pivots, sk.pivots)
    # a fault is named as the per-node route names it: a node of the
    # wrong dimension, a wrong width and a ragged node
    short = mix.copy()
    short[4] = mix[4][[0, 0]]
    wide = np.zeros((sk.n, ell, sk.ambient + 1), dtype=np.int64)
    ragged = sk.bases.tolist()
    ragged[3] = [ragged[3][0], ragged[3][1][:-1]]
    for gens, err, match in (
            (short, WrongNodeDim, r"^node 4 has dimension 1, expected 2$"),
            (wide, WrongAmbient, r"^node 0: generator rows of shape "
                                 r"\(2, 7\), expected \(rows, 6\)$")):
        for arg in (gens, gens.tolist()):
            with pytest.raises(err, match=match):
                CodeSkeleton(sk.tower, sk.r, arg)
    with pytest.raises(WrongAmbient, match="^node 3: generator rows do not "
                                           "form an array: "):
        CodeSkeleton(sk.tower, sk.r, ragged)


def test_check_mds_duplicate_witness(tower3):
    s = _coordinate_skeleton(tower3, 2)
    dup = CodeSkeleton(tower3, 2, s.bases[[0, 0, 1]])
    assert check_mds(dup) == (0, 1)
    assert check_mds(s) is None


def test_check_mds_nrc_skeleton(tower3, bundle3):
    assert check_mds(bundle3.skeleton) is None
    # a skeleton built directly from curve parameters is also valid
    s = CodeSkeleton(tower3, 2, [curve_rows(tower3, 2, c) for c in range(5)])
    assert check_mds(s) is None


def test_check_mds_q5_r3_all_subsets(bundle5):
    # scans all C(26, 3) subsets on the longest constructible code
    tower5 = bundle5.params.tower
    b26 = build(validate_params(tower5, 3, 26))
    assert b26.skeleton.n == 26
    assert check_mds(b26.skeleton) is None


def test_check_mds_agrees_with_block_invertibility(tower3):
    # both MDS definitions (subspace sums span vs stacked block matrices
    # invertible) must agree, exercised on 50 random skeletons
    rng = random.Random(11)
    field = tower3.base
    for _ in range(50):
        nodes = []
        while len(nodes) < 4:
            rows = np.array([[rng.randrange(3) for _ in range(4)]
                             for _ in range(2)], dtype=np.int64)
            if batched_rank(field, rows[None])[0] == 2:
                nodes.append(rows)
        sk = CodeSkeleton(tower3, 2, nodes)
        witness = check_mds(sk)
        failing = [subset for subset in itertools.combinations(range(4), 2)
                   if batched_rank(field, np.vstack(
                       [nodes[j] for j in subset])[None])[0] != 4]
        if failing:
            assert witness == failing[0]
        else:
            assert witness is None


def _stacked_check_mds(s):
    """Oracle: one stacked rl x rl rank per r-subset, in combinations order."""
    field = s.tower.base
    ambient = s.ambient
    bases = s.bases
    combos = itertools.combinations(range(s.n), s.r)
    while True:
        batch = list(itertools.islice(combos, 2048))
        if not batch:
            return None
        idx = np.array(batch, dtype=np.int64)
        stacked = bases[idx].reshape(len(batch), ambient, ambient)
        ranks = batched_rank(field, stacked)
        bad = np.nonzero(ranks != ambient)[0]
        if bad.size:
            return tuple(batch[int(bad[0])])


# base fields F_2, F_3, F_4, F_5 as (p, m)
_MDS_BASES = [(2, 1), (3, 1), (2, 2), (5, 1)]


@functools.cache
def _tower(p, m, ell):
    return build_tower(p, m, ell)


@st.composite
def _random_skeletons(draw):
    """A skeleton of random l-dimensional nodes, some of them repeated.

    A repeated node makes every subset holding both copies fail; when both
    copies sit among the first r-1 nodes the prefix itself is rank-deficient.
    """
    p, m = draw(st.sampled_from(_MDS_BASES))
    ell = draw(st.integers(1, 3))
    r = draw(st.integers(1, 4))
    n = draw(st.integers(r, r + 5))
    tower = _tower(p, m, ell)
    field = tower.base
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    nodes = []
    while len(nodes) < n:
        if nodes and draw(st.integers(0, 4)) == 0:
            nodes.append(nodes[draw(st.integers(0, len(nodes) - 1))])
            continue
        rows = rng.integers(0, field.order, (ell, r * ell))
        if batched_rank(field, rows[None])[0] == ell:
            nodes.append(rows)
    return CodeSkeleton(tower, r, nodes)


@pytest.mark.parametrize("chunk", [1, 3, None], ids=["chunk1", "chunk3",
                                                     "default"])
@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(s=_random_skeletons())
def test_check_mds_matches_stacked_ranks(monkeypatch, chunk, s):
    # chunks of 1 and 3 subsets cut through one prefix's extensions
    if chunk is not None:
        monkeypatch.setattr(codes, "_MDS_CHUNK", chunk)
    assert check_mds(s) == _stacked_check_mds(s)


def test_check_mds_sends_large_schur_blocks_to_elimination(monkeypatch):
    # l = 3 over F_5: the 3 x 3 S blocks have 5^9 > 2^16 code matrices, so
    # batched_rank eliminates them instead of reading a table
    tower = _tower(5, 1, 3)
    field = tower.base
    assert field.order ** 9 > linalg._RANK_TABLE_CAP
    rng = np.random.default_rng(5)
    nodes = []
    while len(nodes) < 7:
        node = rng.integers(0, 5, (3, 9))
        if batched_rank(field, node[None])[0] == 3:
            nodes.append(node)
    for chunk in (1, 3, 4096):
        monkeypatch.setattr(codes, "_MDS_CHUNK", chunk)
        for sk in (CodeSkeleton(tower, 3, nodes),
                   CodeSkeleton(tower, 3, nodes[:5] + [nodes[1], nodes[6]]),
                   CodeSkeleton(tower, 3, [nodes[0]] + nodes[:6])):
            assert check_mds(sk) == _stacked_check_mds(sk)
    assert (field, 3, 3) not in linalg._rank_tables


@pytest.mark.parametrize("chunk", [1, 3, None], ids=["chunk1", "chunk3",
                                                     "default"])
def test_check_mds_matches_stacked_ranks_on_constructions(
        monkeypatch, bundle3, bundle5, chunk):
    if chunk is not None:
        monkeypatch.setattr(codes, "_MDS_CHUNK", chunk)
    for sk in (bundle3.skeleton, bundle5.skeleton):
        assert check_mds(sk) is None
        assert _stacked_check_mds(sk) is None
        # a late repeated node fails far into the scan
        bad = CodeSkeleton(sk.tower, sk.r, sk.bases[[*range(sk.n - 1), -4]])
        assert check_mds(bad) == _stacked_check_mds(bad)
        assert check_mds(bad) is not None


def test_realize_coordinate_blocks(tower3):
    s = _coordinate_skeleton(tower3, 2)
    sets = [
        [[1, 0, 0, 0], [0, 1, 0, 0]],
        [[0, 0, 1, 0], [0, 0, 0, 1]],
    ]
    re = realize(s, sets)
    assert re.points.tolist() == sets
    assert re.parity_matrix().array.tolist() == np.eye(4, dtype=int).tolist()


def test_realize_rejections(tower3):
    s = _coordinate_skeleton(tower3, 2)
    with pytest.raises(DuplicatePoint):
        realize(s, [[[1, 0, 0, 0], [2, 0, 0, 0]],
                    [[0, 0, 1, 0], [0, 0, 0, 1]]])
    with pytest.raises(PointOutsideNode):
        realize(s, [[[1, 0, 0, 0], [0, 0, 1, 0]],
                    [[0, 0, 1, 0], [0, 0, 0, 1]]])
    with pytest.raises(NotSpanning):
        realize(s, [[[1, 0, 0, 0]], [[0, 0, 1, 0], [0, 0, 0, 1]]])
    # a zero point is no projective point: classified, naming the node
    with pytest.raises(NotSpanning, match="node 1: .*zero vector"):
        realize(s, [[[1, 0, 0, 0], [0, 1, 0, 0]],
                    [[0, 0, 1, 0], [0, 0, 0, 0]]])


def test_realize_extraction_roundtrip(bundle3):
    re = bundle3.realization
    again = realize(re.skeleton, re.points.tolist())
    assert np.array_equal(again.points, re.points)


def test_sample_codeword(bundle3):
    re = bundle3.realization
    s = re.skeleton
    assert re.parity_part().shape == ((s.n - s.r) * s.ell, s.r * s.ell)
    for seed in range(200):
        cw = sample_codeword(re, seed)
        assert cw.shape == (s.n, s.ell)
        assert is_codeword(re, cw)
    assert np.array_equal(sample_codeword(re, 123), sample_codeword(re, 123))
    assert not np.array_equal(sample_codeword(re, 1), sample_codeword(re, 2))


def _kernel_of(re):
    """The code's basis, {c : H c = 0}, from one :func:`linalg.kernels` call."""
    bases, is_piv = linalg.kernels(re.skeleton.tower.base,
                                   re.column_stack()[None])
    return bases[0, :is_piv.sum()]


def _assert_systematic(re, kb):
    """The parity part is the free part of the dense RREF basis ``kb``,
    and the sampled words are the drawn coefficients times ``kb``."""
    field = re.skeleton.tower.base
    k = len(kb)
    assert np.array_equal(kb[:, :k], np.eye(k, dtype=np.int64))
    assert np.array_equal(re.parity_part(), kb[:, k:])
    seeds = [(41, t) for t in range(40)] + [7, (2 ** 40, 1)]
    words = codes.sample_codewords(re, seeds)
    want = field.matmul(_numpy_coefficients(seeds, field.order, k), kb)
    assert np.array_equal(words.reshape(len(seeds), -1), want)


# (p, m, l, r, n); (3, 2, 2, 2, 20) is over the q = 9 extension base and
# (2, 2, 2, 2, 10) over q = 4
KERNEL_BUNDLES = [(3, 1, 2, 2, 9), (5, 1, 2, 3, 24), (3, 2, 2, 2, 20),
                  (3, 1, 3, 2, 26), (7, 1, 2, 4, 48), (2, 2, 2, 2, 10)]


@pytest.mark.parametrize("params", KERNEL_BUNDLES, ids=str)
def test_kernel_basis_matches_the_kernel_oracle(params):
    p, m, ell, r, n = params
    re = build(validate_params(build_tower(p, m, ell), r, n)).realization
    kb = kernel_basis_oracle(re)
    assert np.array_equal(kb, _kernel_of(re))
    assert re.parity_part().shape == ((n - r) * ell, r * ell)
    _assert_systematic(re, kb)


def test_a_code_of_length_r_has_only_the_zero_word(tower3):
    re = realize(_coordinate_skeleton(tower3, 2),
                 [[[1, 0, 0, 0], [0, 1, 0, 0]], [[0, 0, 1, 0], [0, 0, 0, 1]]])
    assert re.parity_part().shape == (0, 4)
    _assert_systematic(re, kernel_basis_oracle(re))
    words = codes.sample_codewords(re, [(3, t) for t in range(5)])
    assert words.shape == (5, 2, 2) and not words.any()


KERNEL_TOWERS = {"F2": build_tower(2, 1, 1), "F3": build_tower(3, 1, 1),
                 "F4": build_tower(2, 2, 1), "F5": build_tower(5, 1, 1),
                 "F9": build_tower(3, 2, 1)}


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(sorted(KERNEL_TOWERS)), rows=st.integers(1, 6),
       n=st.integers(1, 5), ell=st.integers(1, 3),
       rank_cap=st.integers(0, 6), seed=st.integers(0, 2 ** 32 - 1))
def test_kernel_basis_of_random_checks(name, rows, n, ell, rank_cap, seed):
    tower = KERNEL_TOWERS[name]
    field = tower.base
    rng = np.random.default_rng(seed)
    # a product through a rank_cap-wide middle forces rank deficiency
    h = field.matmul(rng.integers(0, field.order, (rows, rank_cap)),
                     rng.integers(0, field.order, (rank_cap, n * ell)))
    # only the parity columns and the field are read
    re = Realization(types.SimpleNamespace(tower=tower),
                     h.T.reshape(n, ell, rows))
    assert np.array_equal(re.column_stack(), h)
    kb = kernel_basis_oracle(re)
    assert np.array_equal(kb, _kernel_of(re))
    k = len(kb)
    if np.array_equal(kb[:, :k], np.eye(k, dtype=np.int64)):
        # the last rank-many columns of H are independent
        assert np.array_equal(re.parity_part(), kb[:, k:])
    else:
        with pytest.raises(InternalInconsistency, match="not independent"):
            re.parity_part()


def test_kernel_basis_eliminates_h_once(bundle5, watch_calls):
    re = bundle5.realization
    want = re.parity_part()
    calls = watch_calls(linalg, "_elimination_ranks")
    fresh = Realization(re.skeleton, re.points)
    part = fresh.parity_part()
    assert np.array_equal(part, want) and not part.flags.writeable
    assert calls == [(1, 3 * 2, 24 * 2)]  # (1, r*l, n*l)
    assert fresh.parity_part() is part
    assert len(calls) == 1


def test_sampling_forms_no_dense_product(bundle5, monkeypatch):
    re = bundle5.realization
    fresh = Realization(re.skeleton, re.points)
    real = Field.matmul
    shapes = []

    def recording(field, a, b):
        shapes.append((np.shape(a), np.shape(b)))
        return real(field, a, b)

    monkeypatch.setattr(Field, "matmul", recording)
    codes.sample_codewords(fresh, [(8, t) for t in range(10)])
    # (n-r)*l = 42 drawn symbols, r*l = 6 parity symbols: one product
    # forms the parity part of every word, none the (42, 48) dense basis
    assert shapes == [((10, 42), (42, 6))]


def test_sample_codeword_requires_mds(tower3):
    s = _coordinate_skeleton(tower3, 2)
    dup = CodeSkeleton(tower3, 2, s.bases[[0, 0, 1]])
    sets = [[[1, 0, 0, 0], [0, 1, 0, 0]],
            [[1, 0, 0, 0], [0, 1, 0, 0]],
            [[0, 0, 1, 0], [0, 0, 0, 1]]]
    re = realize(dup, sets)
    with pytest.raises(NotMds):
        sample_codeword(re, 0)


# -- the codeword sampler against numpy's per-trial generator -------------------


def _numpy_coefficients(seeds, q, count):
    """The oracle: one numpy generator per seed, as CODEWORD_SAMPLER pins."""
    out = np.empty((len(seeds), count), dtype=np.int64)
    for row, seed in zip(out, seeds):
        row[:] = np.random.default_rng(seed).integers(0, q, size=count,
                                                      dtype=np.int64)
    return out


def _array_route(seeds, count, q):
    """The whole-array draws alone, no fallback: (values, rejected rows)."""
    words = codes._seed_words(np.array(seeds, dtype=np.uint32))
    return codes._lemire(codes._pcg64_draws(words, count), q)


SEEDS = st.one_of(st.integers(0, 2 ** 32 - 1),
                  st.sampled_from([0, 1, 2 ** 31, 2 ** 32 - 1]),
                  st.integers(2 ** 32, 2 ** 70))
FIRST_TRIALS = st.one_of(st.integers(0, 2 ** 33),
                         st.integers(2 ** 32 - 40, 2 ** 32 + 5))  # crosses 2^32


@settings(max_examples=200, deadline=None)
@given(seed=SEEDS, first=FIRST_TRIALS, trials=st.integers(1, 40),
       q=st.integers(2, 1024),
       count=st.one_of(st.just(1), st.integers(0, 48).map(lambda k: 2 * k + 1),
                       st.integers(0, 100)))
def test_coefficients_match_numpy_per_trial(seed, first, trials, q, count):
    seeds = [(seed, t) for t in range(first, first + trials)]
    assert np.array_equal(codes._coefficients(seeds, q, count),
                          _numpy_coefficients(seeds, q, count))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), t=st.integers(0, 2 ** 32 - 1),
       count=st.integers(1, 41))
def test_stream_layers_match_numpy(seed, t, count):
    words = codes._seed_words(np.array([(seed, t)], dtype=np.uint32))
    want = np.random.SeedSequence((seed, t)).generate_state(4, np.uint64)
    assert [int(w[0]) for w in words] == want.tolist()
    raw = np.random.PCG64((seed, t)).random_raw((count + 1) // 2)
    halves = np.stack([raw & 0xFFFFFFFF, raw >> 32], axis=1).reshape(-1)
    assert codes._pcg64_draws(words, count)[0].tolist() == \
        halves[:count].tolist()


TOP = 2 ** 32 - 1


@pytest.mark.parametrize("rows", [[], [(0, 0), (0, TOP), (TOP, 0), (TOP, TOP)]],
                         ids=["empty", "corners"])
def test_seed_words_at_the_edges(rows):
    words = codes._seed_words(np.array(rows, dtype=np.uint32).reshape(-1, 2))
    assert len(words) == 4
    assert all(w.shape == (len(rows),) and w.dtype == np.uint64 for w in words)
    for t, e in enumerate(rows):
        want = np.random.SeedSequence(e).generate_state(4, np.uint64)
        assert [int(w[t]) for w in words] == want.tolist(), e


def test_coefficients_match_numpy_at_every_field_order():
    seeds = [(2026, t) for t in range(6)]
    for q in range(2, 1025):
        for count in (1, 6):
            assert np.array_equal(codes._coefficients(seeds, q, count),
                                  _numpy_coefficients(seeds, q, count)), q


def test_rejected_draws_take_numpy_generator():
    # at seed 0, q=997, c=64 these trials draw a word in Lemire's rejection
    # zone, where numpy draws again and every later draw shifts
    seeds = [(0, t) for t in (389, 51292, 59360)]
    want = _numpy_coefficients(seeds, 997, 64)
    values, rejected = _array_route(seeds, 64, 997)
    assert rejected.all()
    assert not (values == want).all(axis=1).any()
    assert np.array_equal(codes._coefficients(seeds, 997, 64), want)
    # their neighbours need no redraw, and the array route alone is right
    near = [(0, t) for t in (388, 390, 51291, 59361)]
    values, rejected = _array_route(near, 64, 997)
    assert not rejected.any()
    assert np.array_equal(values, _numpy_coefficients(near, 997, 64))


@pytest.mark.parametrize("seed, ts, count", [
    (0, range(380, 400), 64),  # holds the rejected trial 389
    (0, range(51280, 51300), 64),  # holds the rejected trial 51292
    (11, range(2 ** 32 - 20, 2 ** 32), 64),  # ends at t = 2^32 - 1
    (2 ** 32 - 1, range(0, 20), 64),
    (0, range(380, 400), 0),
], ids=["389", "51292", "top-t", "top-seed", "count-0"])
def test_pair_array_matches_the_list_route(seed, ts, count):
    # the (T, 2) uint32 array a campaign passes, against the same pairs as
    # a list of tuples and against numpy's generator per pair
    pairs = [(seed, t) for t in ts]
    array = np.array(pairs, dtype=np.uint32)
    want = _numpy_coefficients(pairs, 997, count)
    assert np.array_equal(codes._coefficients(array, 997, count), want)
    assert np.array_equal(codes._coefficients(pairs, 997, count), want)
    if seed == 0 and count:  # both routes redraw the rejected trial
        assert _array_route(pairs, count, 997)[1].any()


def test_every_trial_can_take_the_fallback(monkeypatch, bundle3):
    re = bundle3.realization
    seeds = [(7, t) for t in range(200)]
    want = codes.sample_codewords(re, seeds)
    built = []
    real_rng = np.random.default_rng

    def counted(seed):
        built.append(seed)
        return real_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", counted)
    # q = 3 puts 2^32 mod 3 = 1 words per 2^32 in the rejection zone: no
    # trial here hits it, so no generator is built
    assert np.array_equal(codes.sample_codewords(re, seeds), want)
    assert built == []
    real_lemire = codes._lemire

    def reject_all(draws, q):
        values, _ = real_lemire(draws, q)
        return values + 1, np.ones(len(draws), dtype=bool)

    monkeypatch.setattr(codes, "_lemire", reject_all)
    assert np.array_equal(codes.sample_codewords(re, seeds), want)
    assert built == seeds


def test_sampled_words_do_not_depend_on_chunking(bundle3):
    re = bundle3.realization
    kb = kernel_basis_oracle(re)
    field = re.skeleton.tower.base
    # in-range seeds, and seeds whose trials cross 2^32 in one call
    for seeds in ([(31, t) for t in range(300)],
                  [(5, t) for t in range(2 ** 32 - 150, 2 ** 32 + 150)]):
        whole = codes.sample_codewords(re, seeds)
        want = field.matmul(_numpy_coefficients(seeds, field.order, len(kb)),
                            kb)
        assert np.array_equal(whole.reshape(len(seeds), -1), want)
        for cut in (1, 127, 128, 129, 299):
            parts = [codes.sample_codewords(re, seeds[a:a + cut])
                     for a in range(0, len(seeds), cut)]
            assert np.array_equal(np.concatenate(parts), whole)


@pytest.mark.parametrize("seed", [5, (3,), (1, 2, 3), [7, 1], (True, 3),
                                  (np.int64(4), 2), (np.uint32(9), 2 ** 31),
                                  (2 ** 40, 5), (5, 2 ** 64), ()], ids=repr)
def test_other_seeds_go_through_numpy(seed):
    seeds = [(0, 0), seed, (0, 1)]
    assert np.array_equal(codes._coefficients(seeds, 9, 13),
                          _numpy_coefficients(seeds, 9, 13))


@pytest.mark.parametrize("seed", [(-1, 0), (0, -1), -3, (1.5, 2)], ids=repr)
def test_bad_seeds_raise_numpy_error(seed):
    with pytest.raises(Exception) as want:
        np.random.default_rng(seed)
    with pytest.raises(want.type) as got:
        codes._coefficients([(0, 0), seed], 5, 3)
    assert str(got.value) == str(want.value)


# sha256 of the words of the q=5 r=3 n=24 code, sampled in chunks of 128
# trials, taken before the sampler drew in whole-array steps
SAMPLER_DIGEST = \
    "33a1c78a3cc8e9dddf58f04051a24141d1870bff291dc40fc583073e22a0120f"


def test_sampled_words_are_pinned(tmp_path):
    from mdsrepair.cli import main
    assert main(["construct", "--p", "5", "--ell", "2", "--r", "3", "--n",
                 "24", "--out", str(tmp_path)]) == 0
    loaded, _, _ = realization_from_json(
        json.loads((tmp_path / "code.json").read_text()))
    digest = hashlib.sha256()
    for seed in (0, 2030, 2 ** 32 - 1, 2 ** 40):
        for t0 in range(0, 1000, 128):
            words = codes.sample_codewords(
                loaded, [(seed, t) for t in range(t0, min(t0 + 128, 1000))])
            digest.update(np.asarray(words, dtype=np.int64).tobytes())
    # a later numpy that changes Generator.integers fails here
    assert digest.hexdigest() == SAMPLER_DIGEST


# -- bounds ---------------------------------------------------------------------


def test_bounds_two_parity_case():
    rep = bounds_report(3, 2, 2, 9)
    assert rep.im_bound == 12 and rep.pc_bound == 12
    assert rep.length_max == 10 and rep.equality_min_length == 5
    assert rep.coverage_fraction == Fraction(3, 10)
    assert rep.r_le_q


def test_bounds_higher_redundancy_case():
    rep = bounds_report(5, 2, 3, 24)
    assert rep.im_bound == 34
    assert rep.pc_bound == -110
    assert rep.length_max == 27
    assert rep.equality_min_length == 13
    assert rep.r_le_q


def test_bounds_scalar_case_collapses():
    for q in (2, 3, 4, 5, 7):
        for r in (2, 3):
            for n in range(r, 2 * q):
                assert bounds_report(q, 1, r, n).im_bound == n - r


def test_bounds_r_le_q_flag():
    assert not bounds_report(2, 2, 3, 5).r_le_q
    assert bounds_report(3, 2, 3, 5).r_le_q


def test_bounds_gap_nonnegative_grid():
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
                else:
                    assert rep.im_bound > rep.pc_bound


def test_bounds_bad_parameters():
    with pytest.raises(BadParameters):
        bounds_report(6, 2, 2, 5)
    with pytest.raises(BadParameters):
        bounds_report(3, 0, 2, 5)
    with pytest.raises(BadParameters):
        bounds_report(3, 2, 1, 5)
    with pytest.raises(BadParameters):
        bounds_report(3, 2, 3, 2)


def test_bounds_caps_are_exact_and_checked_before_any_work():
    cap = codes._BOUNDS_Q_CAP
    assert bounds_report(cap, 1, 2, 3).length_max == cap + 1  # 2^32
    with pytest.raises(BadParameters, match=f"q={cap + 1} is above"):
        bounds_report(cap + 1, 1, 2, 3)
    # bits = (r-1) ell q.bit_length() + n.bit_length(); 2 * 4095 + 2 = 8192
    assert codes._BOUNDS_BITS == 8192
    rep = bounds_report(2, 4095, 2, 3)
    assert len(json.dumps(rep.to_json_dict())) > 4 * 1233  # every value prints
    with pytest.raises(BadParameters, match="ell=4096, r=2, n=3 at q=2"):
        bounds_report(2, 4096, 2, 3)
    with pytest.raises(BadParameters, match="n="):
        bounds_report(3, 2, 3, 1 << 9000)


# -- persistence -------------------------------------------------------------------


def test_code_json_roundtrip(bundle3):
    obj = realization_to_json(bundle3.realization, bundle3.labels,
                              {"note": "x"})
    text = json.dumps(obj, indent=2, sort_keys=True)
    re, labels, prov = realization_from_json(json.loads(text))
    assert labels == bundle3.labels
    assert prov == {"note": "x"}
    again = json.dumps(realization_to_json(re, labels, prov),
                       indent=2, sort_keys=True)
    assert again == text


def test_code_json_rejects_tampering(bundle3):
    obj = realization_to_json(bundle3.realization, bundle3.labels)
    bad = json.loads(json.dumps(obj))
    bad["v"] = 2
    with pytest.raises(MalformedInput):
        realization_from_json(bad)
    bad = json.loads(json.dumps(obj))
    bad["nodes"][0]["H"][0][0] = (bad["nodes"][0]["H"][0][0] + 1) % 3
    with pytest.raises(MalformedInput):
        realization_from_json(bad)
    bad = json.loads(json.dumps(obj))
    del bad["nodes"][0]
    with pytest.raises(MalformedInput):
        realization_from_json(bad)


def test_code_json_rejects_noncanonical_columns(bundle3):
    # scale one stored H column by 2: same column space, but no longer the
    # canonical representative of the stored projective point
    obj = realization_to_json(bundle3.realization, bundle3.labels)
    bad = json.loads(json.dumps(obj))
    col = bad["nodes"][0]["H"][0]
    bad["nodes"][0]["H"][0] = [(2 * x) % 3 for x in col]
    with pytest.raises(MalformedInput):
        realization_from_json(bad)


@pytest.mark.parametrize("key", ["H", "X"])
@pytest.mark.parametrize("value", [-1, 3, 10, 2 ** 40])
def test_code_json_rejects_out_of_range_entries(bundle3, key, value):
    # codes outside [0, q) would index past the operation tables
    obj = realization_to_json(bundle3.realization, bundle3.labels)
    bad = json.loads(json.dumps(obj))
    bad["nodes"][1][key][0][1] = value
    with pytest.raises(MalformedInput, match="out of range"):
        realization_from_json(bad)


@pytest.mark.parametrize("n", [9, 10])
def test_loading_a_code_eliminates_once_for_any_length(tower3, n, watch_calls):
    obj = realization_to_json(build(validate_params(tower3, 2, n)).realization)
    realization_from_json(obj)  # fills the rank tables of these shapes
    elims = watch_calls(linalg, "_elimination_ranks")
    ranks = watch_calls(codes, "batched_rank")
    realization_from_json(obj)
    # all node bases in one stack, and every node's spanning check of its
    # column points in one rank call, on their (n, l, l) coefficients
    assert elims == [(n, 2, 4)]
    assert ranks == [(n, 2, 2)]


# -- subset enumeration and batched realize checks ----------------------------------


@pytest.mark.parametrize("chunk", [1, 2, 3, 5, 7, 4096])
def test_mds_subsets_follow_combinations_order(chunk):
    # small chunks cut through one prefix's extensions
    for n in range(1, 9):
        for r in range(1, n + 1):
            got = []
            for prefixes, which, last in codes._mds_subsets(n, r, chunk):
                assert len(last) <= chunk
                assert (np.diff(which) >= 0).all() and which[0] == 0
                assert which[-1] == len(prefixes) - 1
                got += [tuple(prefixes[w].tolist()) + (int(k),)
                        for w, k in zip(which, last)]
            assert got == list(itertools.combinations(range(n), r))


@pytest.mark.parametrize("chunk", [1, 2, 3, 4096])
def test_check_mds_keeps_the_first_witness_across_chunks(
        monkeypatch, bundle3, chunk):
    monkeypatch.setattr(codes, "_MDS_CHUNK", chunk)
    sk = bundle3.skeleton
    for a, b in ((8, 5), (3, 6), (0, 1), (7, 8)):
        bases = sk.bases.copy()
        bases[b] = bases[a]
        bad = CodeSkeleton(sk.tower, sk.r, bases)
        assert check_mds(bad) == _stacked_check_mds(bad) == \
            tuple(sorted((a, b)))


def _realize_oracle(s, column_sets):
    """The per-point realize: each point's membership checked on its own."""
    field = s.tower.base
    ell = s.ell
    stacks = []
    for i, pts in enumerate(column_sets):
        if not all(np.any(p) for p in pts):
            raise NotSpanning(f"node {i}: a column point is the zero vector")
        pts = [np.asarray(p, dtype=np.int64) for p in pts]
        for p in pts:
            linalg._check_codes(field, p)
        pts = [linalg.canonical_points(field, p) for p in pts]
        if len(pts) != ell:
            raise NotSpanning(f"node {i}: need exactly {ell} column points")
        seen = set()
        for p in pts:
            if p.shape != (s.ambient,):
                raise AmbientMismatch(f"node {i}: vector of length "
                                      f"{p.shape} in ambient {s.ambient}")
            key = p.tobytes()
            if key in seen:
                raise DuplicatePoint(f"node {i}: repeated projective point")
            seen.add(key)
            if meet_dim_oracle(field, s.bases[i], p[None]) != 1:
                raise PointOutsideNode(
                    f"node {i}: column point outside the node subspace")
        stacks.append(np.stack(pts))
    stacks = np.array(stacks, dtype=np.int64).reshape(-1, ell, s.ambient)
    short = np.flatnonzero(batched_rank(field, stacks) != ell)
    if short.size:
        raise NotSpanning(f"node {short[0]}: column points do not span the node")
    return stacks


def _outcome(fn, *args):
    try:
        fn(*args)
    except RepairToolError as exc:
        return type(exc), str(exc)
    return None


def test_realize_checks_points_in_the_per_point_order(bundle5):
    re = bundle5.realization
    s = re.skeleton
    field = s.tower.base
    rng = random.Random(24)
    kinds = {}  # fault class -> count
    array_kinds = []  # the fault class of every array-route case
    for _ in range(400):
        sets = re.points.tolist()
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(s.n)
            if len(sets[i]) < 2:
                continue
            k = rng.randrange(2)
            kind = rng.randrange(7)
            if kind == 0:    # a random vector, most likely outside
                sets[i][k] = [rng.randrange(5) for _ in range(s.ambient)]
            elif kind == 1:  # the zero vector
                sets[i][k] = [0] * s.ambient
            elif kind == 2:  # a multiple of the node's other point
                other = np.array(sets[i][1 - k])
                sets[i][k] = field.arr_mul(other, rng.randrange(1, 5)).tolist()
            elif kind == 3:  # a point of another node
                sets[i][k] = re.points[(i + 1) % s.n, k].tolist()
            elif kind == 4:  # a point too few
                del sets[i][k:k + 1]
            elif kind == 5:  # a point one coordinate too long or too short
                sets[i][k] = (sets[i][k] + [1] if rng.randrange(2)
                              else sets[i][k][:-1])
            else:            # an entry outside the field's codes
                sets[i][k][rng.randrange(s.ambient)] = rng.choice([-1, 5])
        want = _outcome(_realize_oracle, s, sets)
        assert _outcome(realize, s, sets) == want
        if want is not None:
            kinds[want[0]] = kinds.get(want[0], 0) + 1
        # sets of l points of length r*l also take the whole-array route,
        # as int64 or as uint64 (where -1 wraps to 2^64 - 1)
        if all(len(pts) == s.ell and all(len(p) == s.ambient for p in pts)
               for pts in sets):
            arr = np.array(sets, dtype=np.int64)
            dtype = (np.int64, np.uint64)[len(array_kinds) % 2]
            assert _outcome(realize, s, arr.astype(dtype)) == want
            array_kinds.append(want and want[0])
    assert sum(kinds.values()) > 300
    assert set(kinds) == {NotSpanning, DuplicatePoint, PointOutsideNode,
                          AmbientMismatch, LevelMismatch}
    assert len(array_kinds) > 200
    # a zero point is named before an entry out of range in its node
    sets = re.points.tolist()
    sets[3] = [[7] * s.ambient, [0] * s.ambient]
    want = _outcome(_realize_oracle, s, sets)
    assert want == (NotSpanning, "node 3: a column point is the zero vector")
    assert _outcome(realize, s, sets) == want
    assert _outcome(realize, s, np.array(sets)) == want
    assert set(array_kinds) == {NotSpanning, DuplicatePoint,
                                PointOutsideNode, LevelMismatch}


@pytest.mark.parametrize("tower,n", [((3, 1, 3), 26), ((2, 2, 3), 42)],
                         ids=str)
def test_realize_names_the_node_whose_points_do_not_span(tower, n):
    # at l = 3 three distinct points of a node can lie in a plane, which
    # only the spanning rank finds; ranking the (l, l) coefficients, from
    # the rank table over F_3 and by elimination over F_4, must name the
    # node that ranking the points names
    re = build(validate_params(build_tower(*tower), 2, n)).realization
    s = re.skeleton
    field = s.tower.base
    q = field.order
    rng = random.Random(n)
    kinds = {}
    for _ in range(150):
        sets = re.points.copy()
        for _ in range(rng.randint(1, 3)):
            i, k = rng.randrange(s.n), rng.randrange(3)
            a, b = np.delete(sets[i], k, axis=0)
            c = rng.randrange(1, q)
            kind = rng.randrange(3)
            if kind == 0:    # in the plane of the node's other two points
                sets[i, k] = field.arr_sub(a, field.arr_mul(b, c))
            elif kind == 1:  # a multiple of another of its points
                sets[i, k] = field.arr_mul(a, c)
            else:            # a point of another node
                sets[i, k] = re.points[(i + 1) % s.n, k]
        want = _outcome(_realize_oracle, s, sets.tolist())
        assert _outcome(realize, s, sets.tolist()) == want
        assert _outcome(realize, s, sets) == want
        if want is not None:
            kinds[want[0]] = kinds.get(want[0], 0) + 1
    assert set(kinds) == {NotSpanning, DuplicatePoint, PointOutsideNode}
    assert kinds[NotSpanning] > 10


def test_realize_needs_one_column_set_per_node(bundle5):
    re = bundle5.realization
    sets = re.points.tolist()
    for wrong in (sets[:5], sets + sets[:1], []):
        with pytest.raises(BadShape, match=f"{len(wrong)} column sets "
                                           "for 24 nodes"):
            realize(re.skeleton, wrong)
