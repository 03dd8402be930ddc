"""Operational repair runs that reconcile with the analytic counts.

Each node j factors its compressed block M H_j as A B with B a maximal
independent subset of the rows (taken greedily from the top), sends the
rank-many symbols B C_j, and reads only the coordinates of C_j under the
nonzero columns of B, which are exactly the nonzero columns of M H_j.
On a codeword the sum of all M H_j C_j is M H C = 0, so the helpers' sum
is the whole sum with block i erased, and -(M H_i)^(-1) maps it to block
i.  Reconstruction is exact field arithmetic, so a replayed block either
matches the erased block bit for bit or the implementation is wrong.

A campaign keeps one pipeline per distinct repair matrix, over all n
nodes, from one batched elimination of the blocks' transposes: the pivot
columns of H^T pick the rows B, and its nonzero reduced rows are the
columns of A (``tests/replay_oracle.py`` holds the one-matrix form).  A
chunk of T codewords is replayed one matrix at a time: every node of the
pipeline reads and sends from the whole word once (a sent symbol
combines at most l reads of its node, so at most l table steps over
(., T) arrays), and one product recombines all of them into
S = sum_j A_j B_j C_j.  Each replayed node i then subtracts its own share
A_i B_i C_i, one batched product for all nodes of the matrix; field
subtraction is exact, so S - A_i B_i C_i is the helpers' sum term for
term on every word, and the rebuilt block cannot depend on the erased
one.  A last batched product applies each -(M H_i)^(-1).  What no
trial changes is built once per campaign (:func:`_groups`).  Each chunk
draws the words of its per-trial seeds (seed, t) in whole-array steps,
from one (T, 2) uint32 array while they fit in 32 bits, and encodes
them systematically, the drawn symbols as they are and only the r*l
parity symbols of each word by one product
(:func:`codes.sample_codewords`); it checks all their syndromes in one
product and compares every rebuilt block exactly, in one step.  A chunk
holds T = min(256, max(128, 2^18 // (n*l))) trials and one matrix's
sent symbols; field products accumulate over their inner axis, so no
array of a chunk is larger than max(n, k)*l by T for k replayed nodes,
and codes with n*l >= 2048 keep 128 trials a chunk.
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

# Trials replayed together: each step is one pass over (<= n*l, T) arrays.
_TRIAL_CHUNK, _CHUNK_FLOOR, _CHUNK_SYMBOLS = 256, 128, 1 << 18


def _chunk_trials(symbols: int) -> int:
    """T for words of n*l = ``symbols`` symbols (see the module docstring)."""
    return min(_TRIAL_CHUNK, max(_CHUNK_FLOOR, _CHUNK_SYMBOLS // symbols))


@dataclass(slots=True, eq=False)
class _Pipeline:
    """The repair pipeline of one repair matrix M over all n nodes.

    Node j reads ``gather[read_off[j]:read_off[j + 1]]`` of a flattened
    word, the nonzero columns of its M H_j.  Sent symbol r is the sum over
    slots c of ``send_coef[r, c]`` times read ``send_idx[r, c]``: slot c
    is coordinate c of its node's block, and one the node does not read
    has coefficient 0 at the node's first read.  ``a_all`` recombines the
    sent symbols; a node's sent rows are contiguous, in node order.
    """

    a_all: np.ndarray
    send_idx: np.ndarray
    send_coef: np.ndarray
    gather: np.ndarray
    read_off: np.ndarray


@dataclass(slots=True, eq=False)
class _NodeState:
    """Node ``failed``: ``neg_inv`` = -(M H_i)^(-1), its matrix's ``pipe``,
    and how many symbols its helpers send (``downloaded``) and read
    (``accessed``): the pipeline's less the node's own.  The node's own
    block has rank l, so it sends the l pipeline rows from ``sent_at``."""

    failed: int
    neg_inv: np.ndarray
    pipe: _Pipeline
    downloaded: int
    accessed: int
    sent_at: int


def _send(field, pipe: _Pipeline, read: np.ndarray) -> np.ndarray:
    """The symbols the nodes of ``pipe`` send, from their (accessed, T) reads.

    One product-table and one sum-table step per slot, over (sent, T)
    arrays; the codes come back in the tables' dtype.  Each slot's table
    indices are summed in place, in the one array its gather makes: at
    hundreds of trials a chunk, a fresh (sent, T) array per operation
    costs more in page faults than the arithmetic.
    """
    q, tabs = np.int64(field.order), field._tabs()
    coef = pipe.send_coef * q
    sent = tabs.mul[coef[:, :1] + read[pipe.send_idx[:, 0]]]
    for c in range(1, coef.shape[1]):
        idx = read[pipe.send_idx[:, c]]
        idx += coef[:, c:c + 1]
        term = tabs.mul[idx]
        np.multiply(sent, q, out=idx)
        idx += term
        sent = tabs.add[idx]
    return sent


def _node_states(re: Realization, sch: RepairScheme,
                 nodes) -> list[_NodeState]:
    """The repair states of ``nodes``, from one batched elimination.

    The factorizations depend only on the scheme, so a campaign builds
    them once and reuses them across trials.  A helper block M H_j
    depends only on M and j, so the blocks of each distinct matrix
    (:func:`repair._distinct`) against all n nodes are formed and
    eliminated once, into the pipeline all nodes of that matrix share.
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
    # -(M H_i)^(-1) of every node from one elimination of [M H_i | I]
    eye = np.broadcast_to(np.eye(ell, dtype=np.int64), (k, ell, ell))
    diag = blocks[inv, nodes]
    neg_inv = field.arr_neg(_elimination_ranks(
        field, np.concatenate([diag, eye], axis=2))[0][:, :, ell:])
    # B is the rows of M H_j at the pivot columns of its transpose, A^T
    # the nonzero reduced rows, and node j reads the nonzero columns of B
    a_rows = np.arange(ell) < ranks[..., None]
    reads = ((blocks != 0) & is_piv[..., None]).any(axis=2)
    # position of every read among its matrix's gathered ones; an unread
    # coordinate takes its node's first read
    seen = reads.reshape(d, -1).cumsum(axis=1).reshape(d, n, ell)
    read_off = np.pad(seen[..., -1], ((0, 0), (1, 0)))
    idx = np.where(reads, seen - 1, read_off[:, :-1, None])
    pipes = [_Pipeline(reduced[u][a_rows[u]].T,
                       idx[u][np.nonzero(is_piv[u])[0]], blocks[u][is_piv[u]],
                       np.flatnonzero(reads[u]), read_off[u])
             for u in range(d)]
    sent_at = ranks.cumsum(axis=1) - ranks
    states = []
    for a, (u, i) in enumerate(zip(inv, nodes)):
        if ranks[u, i] != ell:
            raise NotARepairMatrix(i)
        p = pipes[u]
        states.append(_NodeState(
            i, neg_inv[a], p, len(p.send_coef) - int(ranks[u, i]),
            len(p.gather) - int(p.read_off[i + 1] - p.read_off[i]),
            int(sent_at[u, i])))
    return states


def _groups(states: list[_NodeState]) -> list[tuple]:
    """Per distinct matrix of ``states``, in order of first use: its
    pipeline, its states' positions, their own sent rows (l from each
    ``sent_at``), the columns of ``a_all`` there and their ``neg_inv``."""
    at = {}
    for a, st in enumerate(states):
        at.setdefault(id(st.pipe), (st.pipe, []))[1].append(a)
    ell = len(states[0].neg_inv)
    groups = []
    for p, pos in at.values():
        own = np.array([[states[a].sent_at] for a in pos]) + np.arange(ell)
        groups.append((p, np.array(pos), own, p.a_all[:, own].swapaxes(0, 1),
                       np.stack([states[a].neg_inv for a in pos])))
    return groups


def _replay(field, groups: list[tuple], words: np.ndarray) -> np.ndarray:
    """Block ``st.failed`` of each word of a (T, n, l) stack for every
    state of ``groups``, as (states, l, T), each rebuilt from its helpers.

    One matrix at a time: its pipeline sends and recombines the whole
    word once, into S, and each of its nodes subtracts its own share from
    S (see the module docstring).
    """
    flat = words.reshape(len(words), -1).T
    out = np.empty((sum(len(g[1]) for g in groups), words.shape[2],
                    len(words)), dtype=np.int64)
    for p, at, own, a_own, neg_inv in groups:
        sent = _send(field, p, flat[p.gather])
        whole = field.matmul(p.a_all, sent)
        share = field.matmul(a_own, sent[own])
        out[at] = field.matmul(neg_inv, field.arr_sub(whole, share))
        del sent  # before the next matrix sends: one matrix's at a time
    return out


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
    if int(first_trial) < 0:
        raise BadShape(f"first_trial must be nonnegative, got {first_trial}")
    node_list = tuple(range(s.n)) if nodes is None else tuple(int(i) for i in nodes)
    if not node_list:
        raise BadShape("nodes must list at least one node")
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
    groups = _groups(states)
    field = s.tower.base
    stop = first_trial + int(trials)
    chunk = _chunk_trials(s.n * s.ell)
    for t0 in range(first_trial, stop, chunk):
        t1 = min(t0 + chunk, stop)
        if type(seed) is int and 0 <= seed < 1 << 32 and t1 <= 1 << 32:
            seeds = np.empty((t1 - t0, 2), dtype=np.uint32)
            seeds[:, 0], seeds[:, 1] = seed, np.arange(t0, t1)
        else:
            seeds = [(seed, t) for t in range(t0, t1)]
        words = sample_codewords(re, seeds)
        bad = np.flatnonzero(syndromes(re, words).any(axis=0))
        if bad.size:
            raise NotACodeword(f"sampled word of trial {t0 + int(bad[0])} "
                               "does not satisfy the parity checks")
        # (listed position, trial) of every mismatch in position order, so
        # the first names the first listed node with one and its first trial
        bad = np.argwhere((_replay(field, groups, words)
                           != words[:, node_list].transpose(1, 2, 0)).any(1))
        if bad.size:
            a, t = bad[0]
            raise InternalInconsistency(
                f"reconstructed block of node {node_list[a]} differs from "
                f"the erased block in trial {t0 + int(t)}")
    return CampaignReport(
        trials=int(trials), seed=int(seed), rng=CODEWORD_SAMPLER,
        nodes=node_list,
        downloaded=tuple(st.downloaded for st in states),
        accessed=tuple(st.accessed for st in states),
        failures=(), matches_metrics=True, metrics=metrics,
    )
