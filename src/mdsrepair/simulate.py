"""Operational repair runs that reconcile with the analytic counts.

Each helper factors its compressed block M H_j as A B with B a maximal
independent subset of the rows (taken greedily from the top), sends the
rank-many symbols B C_j, and reads only the coordinates of C_j under the
nonzero columns of B, which are exactly the nonzero columns of M H_j.
The repairer recombines the summands with the A factors and applies
-(M H_i)^(-1).  Reconstruction is exact field arithmetic, so a replayed
block either matches the erased block bit for bit or the implementation is
wrong.

A campaign factors the helper blocks of the nodes it replays in one
batched elimination of their transposes (H^T), once per distinct repair
matrix and node: the pivot columns of H^T pick the rows B, and its
nonzero reduced rows are the columns of A.  Its one-matrix form, the
reference the tests compare against, lives in ``tests/replay_oracle.py``.
Helpers send from their own reads: a sent symbol is a combination of at
most l symbols that its helper read, so a campaign forms every sent
symbol of a node for a chunk of T codewords in at most l table steps
over (., T) arrays, one per coordinate of a helper block.  Recombining
them with the A factors and applying -(M H_i)^(-1) are then two (., T)
products.  Each chunk samples its words from their own per-trial seeds (seed, t): one
set of whole-array steps draws the same PCG64 words as a numpy generator
per trial, and only a trial whose draws numpy would reject, or whose seed
is not a pair of ints in [0, 2^32), is drawn by numpy's generator itself
(:func:`codes.sample_codewords`).  The chunk then checks all its
syndromes in one product and compares every reconstructed block exactly.
A chunk holds at most ``_TRIAL_CHUNK`` trials.  Field products accumulate
over their inner axis, so no array of a chunk is larger than n*l by T.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codes import (
    CODEWORD_SAMPLER,
    DEFAULT_BUDGET,
    Realization,
    sample_codewords,
    syndromes,
)
from .errors import (
    BadShape,
    InternalInconsistency,
    NotACodeword,
    NotARepairMatrix,
)
from .linalg import _elimination_ranks
from .repair import (
    NodeMetrics,
    RepairScheme,
    _check_scheme_length,
    _compressed_blocks,
    _distinct,
    evaluate_scheme,
)

# Trials replayed together: each step of a node's replay is one pass over
# (rows, T) arrays of at most n*l rows.
_TRIAL_CHUNK = 128


class _NodeState:
    """The repair pipeline of node ``failed``.

    ``gather`` indexes the symbols the helpers read in a flattened word.
    Sent symbol r is the sum over slots c of ``send_coef[r, c]`` times
    read ``send_idx[r, c]``: slot c is coordinate c of its helper's block,
    so every index points at a read of its own helper, and a coordinate
    the helper does not read has coefficient 0 and points at the helper's
    first read.  ``a_all`` recombines the sent symbols and ``neg_inv`` is
    -(M H_i)^(-1).
    """

    __slots__ = ("failed", "neg_inv", "a_all", "send_idx", "send_coef",
                 "gather", "downloaded", "accessed")


def _send(field, st: _NodeState, read: np.ndarray) -> np.ndarray:
    """The symbols the helpers of ``st`` send, from their (accessed, T) reads.

    One product-table and one sum-table step per slot, over (sent, T)
    arrays; the codes come back in the tables' dtype.
    """
    q, tabs = np.int64(field.order), field._tabs()
    coef = st.send_coef * q
    sent = tabs.mul[coef[:, :1] + read[st.send_idx[:, 0]]]
    for c in range(1, coef.shape[1]):
        sent = tabs.add[sent * q + tabs.mul[coef[:, c:c + 1]
                                            + read[st.send_idx[:, c]]]]
    return sent


def _node_states(re: Realization, sch: RepairScheme,
                 nodes) -> list[_NodeState]:
    """The repair pipelines of ``nodes``, from one batched elimination.

    The per-node factorizations depend only on the scheme, so a campaign
    builds them once and reuses them across trials.  A helper block M H_j
    depends only on M and j, so the blocks of each distinct matrix
    (:func:`repair._distinct`) against all n nodes are formed and
    eliminated once, and each node's pipeline reads its matrix's row.
    """
    s = re.skeleton
    field = s.tower.base
    n, ell, k = s.n, s.ell, len(nodes)
    ms, inv = _distinct(sch.stack[list(nodes)])
    d = len(ms)
    blocks = _compressed_blocks(field, ms, re.column_stack(), n, ell)
    reduced, ranks, is_piv = _elimination_ranks(
        field, blocks.swapaxes(-1, -2).reshape(d * n, ell, ell).copy())
    reduced = reduced.reshape(d, n, ell, ell)
    ranks = ranks.reshape(d, n)
    is_piv = is_piv.reshape(d, n, ell)
    for u, i in zip(inv, nodes):
        if ranks[u, i] != ell:
            raise NotARepairMatrix(i)
    # -(M H_i)^(-1) of every node from one elimination of [M H_i | I]
    eye = np.broadcast_to(np.eye(ell, dtype=np.int64), (k, ell, ell))
    diag = blocks[inv, nodes]
    neg_inv = field.arr_neg(_elimination_ranks(
        field, np.concatenate([diag, eye], axis=2))[0][:, :, ell:])
    # B is the rows of M H_j at the pivot columns of its transpose, A^T
    # the nonzero reduced rows, and a helper reads the nonzero columns
    # of B
    a_rows = np.arange(ell) < ranks[..., None]
    reads = ((blocks != 0) & is_piv[..., None]).any(axis=2)
    cols = np.arange(ell)
    states = []
    for a, (u, i) in enumerate(zip(inv, nodes)):
        helpers = np.delete(np.arange(n), i)
        read = reads[u, helpers]
        in_b = is_piv[u, helpers]  # the rows of each M H_j kept as B
        # position of every read among the gathered ones; an unread
        # coordinate takes its helper's first read
        seen = np.cumsum(read).reshape(read.shape)
        first = seen[:, -1] - read.sum(axis=1)
        st = _NodeState()
        st.failed = i
        st.neg_inv = neg_inv[a]
        st.a_all = reduced[u, helpers][a_rows[u, helpers]].T
        st.send_coef = blocks[u, helpers][in_b]
        st.send_idx = np.where(read, seen - 1,
                               first[:, None])[np.nonzero(in_b)[0]]
        st.gather = (helpers[:, None] * ell + cols)[read]
        st.downloaded = len(st.send_coef)
        st.accessed = len(st.gather)
        states.append(st)
    return states


def _replay(field, st: _NodeState, words: np.ndarray,
            first_trial: int = 0) -> np.ndarray:
    """Block ``st.failed`` of each word of a (T, n, l) stack, as (l, T).

    Word t of the stack is trial ``first_trial + t``, which an
    inconsistency names.
    """
    read = words.reshape(len(words), -1).T[st.gather]
    sent = _send(field, st, read)
    block = field.matmul(st.neg_inv, field.matmul(st.a_all, sent))
    erased = words[:, st.failed].T
    if not np.array_equal(block, erased):
        t = first_trial + int(np.flatnonzero((block != erased).any(0))[0])
        raise InternalInconsistency(
            f"reconstructed block of node {st.failed} differs from the "
            f"erased block in trial {t}")
    return block


@dataclass(frozen=True)
class CampaignReport:
    """Aggregated repair trials; counts are constant because the scheme is.

    ``failures`` stays empty on success; any reconstruction or count
    mismatch aborts the campaign instead of being recorded.
    """

    trials: int
    seed: int
    rng: str
    nodes: tuple[int, ...]
    downloaded: tuple[int, ...]
    accessed: tuple[int, ...]
    failures: tuple
    matches_metrics: bool
    metrics: NodeMetrics

    def to_json_dict(self) -> dict:
        m = self.metrics
        return {
            "trials": self.trials,
            "seed": self.seed,
            "rng": self.rng,
            "per_node": [
                {"i": i + 1, "downloaded": self.downloaded[k],
                 "accessed": self.accessed[k],
                 "beta": m.bandwidth[i], "gamma": m.io[i]}
                for k, i in enumerate(self.nodes)
            ],
            "failures": list(self.failures),
            "matches_metrics": self.matches_metrics,
            "bounds": m.bounds.to_json_dict(),
            "equality": m.equality,
        }


def campaign(re: Realization, sch: RepairScheme, trials: int, seed: int,
             nodes=None, first_trial: int = 0,
             budget: int = DEFAULT_BUDGET) -> CampaignReport:
    """Run ``trials`` random codewords through every listed failure position.

    Codeword t is sampled with the derived seed (seed, t); identical
    arguments therefore produce identical reports, and ``first_trial``
    lets workers replay disjoint trial ranges of the same campaign.
    The replayed counts are fixed by the scheme, so they are checked
    against the analytic per-node metrics once, before any trial.  Trials
    run in chunks (see the module docstring); every syndrome and every
    reconstructed block is checked.  The code must be MDS; ``budget``
    bounds the r-subsets that check may rank
    (:meth:`CodeSkeleton.mds_witness`), which runs before the scheme pass.
    """
    s = re.skeleton
    if int(trials) < 1:
        raise BadShape("a campaign needs at least one trial")
    node_list = tuple(range(s.n)) if nodes is None else tuple(int(i) for i in nodes)
    for i in node_list:
        if not 0 <= i < s.n:
            raise BadShape(f"node index {i} out of range")
    _check_scheme_length(re, sch)
    s.mds_witness(budget)  # before the pass; sample_codewords reads it cached
    metrics = evaluate_scheme(re, sch, budget=budget)
    states = _node_states(re, sch, node_list)
    for i, st in zip(node_list, states):
        if st.downloaded != metrics.bandwidth[i] or \
                st.accessed != metrics.io[i]:
            raise InternalInconsistency(
                f"transcript counts diverge from metrics at node {i}")
    field = s.tower.base
    stop = first_trial + int(trials)
    for t0 in range(first_trial, stop, _TRIAL_CHUNK):
        words = sample_codewords(
            re, [(seed, t) for t in range(t0, min(t0 + _TRIAL_CHUNK, stop))])
        bad = np.flatnonzero(syndromes(re, words).any(axis=0))
        if bad.size:
            raise NotACodeword(f"sampled word of trial {t0 + int(bad[0])} "
                               "does not satisfy the parity checks")
        for st in states:
            _replay(field, st, words, t0)
    return CampaignReport(
        trials=int(trials), seed=int(seed), rng=CODEWORD_SAMPLER,
        nodes=node_list,
        downloaded=tuple(st.downloaded for st in states),
        accessed=tuple(st.accessed for st in states),
        failures=(), matches_metrics=True, metrics=metrics,
    )
