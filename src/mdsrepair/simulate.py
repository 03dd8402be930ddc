"""Operational repair runs that reconcile with the analytic counts.

Each helper factors its compressed block M H_j as A B with B a maximal
independent subset of the rows (taken greedily from the top), sends the
rank-many symbols B C_j, and reads only the coordinates of C_j under the
nonzero columns of B, which are exactly the nonzero columns of M H_j.
The repairer recombines the summands with the A factors and applies
-(M H_i)^(-1).  Reconstruction is exact field arithmetic, so a transcript
either matches the erased block bit for bit or the implementation is
wrong.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codes import (
    CODEWORD_SAMPLER,
    Realization,
    is_codeword,
    sample_codeword,
)
from .errors import (
    BadShape,
    InternalInconsistency,
    NotACodeword,
    NotARepairMatrix,
)
from .linalg import Matrix, _rref_array, batched_rank, inverse
from .repair import (
    NodeMetrics,
    RepairScheme,
    _compressed_blocks,
    evaluate_scheme,
)


def row_factor(a: Matrix):
    """Factor a = A @ B with B a maximal independent row subset of a.

    B keeps the original row order (greedy from the top), its row count is
    rank(a), and its nonzero-column set equals that of a.  A holds the
    coefficients expressing every row of a over the rows of B.  Both come
    from one elimination of a.T: its pivot columns are the greedy rows,
    and its nonzero reduced rows are the columns of A.
    """
    r, rank, pivots = _rref_array(a.field, a.array.T)
    return Matrix(a.field, r[:rank].T), Matrix(a.field, a.array[list(pivots)])


@dataclass(frozen=True)
class HelperRecord:
    helper: int
    sent: int
    accessed: tuple[int, ...]  # coordinate indices read inside the block


@dataclass(frozen=True)
class RepairTranscript:
    failed: int
    helpers: tuple[HelperRecord, ...]
    reconstructed: np.ndarray
    downloaded: int
    accessed: int


class _NodeState:
    __slots__ = ("helpers", "records", "neg_inv", "a_all", "b_compact",
                 "gather", "downloaded", "accessed")


class RepairSession:
    """Precomputed repair pipelines for one realization and scheme.

    The per-node factorizations depend only on the scheme, so they are
    built once (lazily per node) and reused across trials.
    """

    def __init__(self, re: Realization, sch: RepairScheme):
        if len(sch) != re.n:
            raise BadShape(f"scheme has {len(sch)} matrices for {re.n} nodes")
        self.realization = re
        self.scheme = sch
        self._states: dict[int, _NodeState] = {}

    def _state(self, i: int) -> _NodeState:
        st = self._states.get(i)
        if st is not None:
            return st
        re = self.realization
        s = re.skeleton
        if not 0 <= int(i) < s.n:
            raise BadShape(f"node index {i} out of range for n={s.n}")
        field = s.tower.base
        n, ell = s.n, s.ell
        blocks = _compressed_blocks(field, self.scheme[i].array,
                                    re.column_stack(), n, ell)
        if batched_rank(field, blocks[i][None])[0] != ell:
            raise NotARepairMatrix(i)
        st = _NodeState()
        st.helpers = tuple(j for j in range(n) if j != i)
        st.neg_inv = field.arr_neg(inverse(Matrix(field, blocks[i])).array)
        records = []
        a_parts = []
        b_parts = []
        gather = []
        for pos, j in enumerate(st.helpers):
            a_j, b_j = row_factor(Matrix(field, blocks[j]))
            acc = tuple(int(c) for c in
                        np.nonzero((b_j.array != 0).any(axis=0))[0])
            records.append(HelperRecord(helper=j, sent=b_j.rows, accessed=acc))
            a_parts.append(a_j.array)
            b_parts.append(b_j.array[:, list(acc)])
            gather.extend(pos * ell + c for c in acc)
        st.records = tuple(records)
        st.a_all = np.hstack(a_parts) if a_parts else \
            np.zeros((ell, 0), dtype=np.int64)
        total_sent = sum(rec.sent for rec in records)
        total_acc = len(gather)
        b_compact = np.zeros((total_sent, total_acc), dtype=np.int64)
        row0 = col0 = 0
        for part in b_parts:
            r, c = part.shape
            b_compact[row0:row0 + r, col0:col0 + c] = part
            row0 += r
            col0 += c
        st.b_compact = b_compact
        st.gather = np.array(gather, dtype=np.int64)
        st.downloaded = total_sent
        st.accessed = total_acc
        self._states[i] = st
        return st

    def repair(self, cw: np.ndarray, i: int) -> RepairTranscript:
        re = self.realization
        s = re.skeleton
        field = s.tower.base
        cw = np.asarray(cw, dtype=np.int64)
        if not is_codeword(re, cw):
            raise NotACodeword("input does not satisfy the parity checks")
        st = self._state(i)
        read = cw[list(st.helpers)].reshape(-1)[st.gather]
        sent = field.matmul(st.b_compact, read[:, None])
        combined = field.matmul(st.a_all, sent)
        block = field.matmul(st.neg_inv, combined)[:, 0]
        if not np.array_equal(block, cw[i]):
            raise InternalInconsistency("reconstructed block differs from the "
                                        "erased block")
        block = block.copy()
        block.setflags(write=False)
        return RepairTranscript(failed=i, helpers=st.records,
                                reconstructed=block,
                                downloaded=st.downloaded,
                                accessed=st.accessed)


def run_repair(re: Realization, sch: RepairScheme, cw: np.ndarray,
               i: int) -> RepairTranscript:
    """One repair of node i from the codeword cw (convenience wrapper)."""
    return RepairSession(re, sch).repair(cw, i)


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
             nodes=None, first_trial: int = 0) -> CampaignReport:
    """Run ``trials`` random codewords through every listed failure position.

    Codeword t is sampled with the derived seed (seed, t); identical
    arguments therefore produce identical reports, and ``first_trial``
    lets workers replay disjoint trial ranges of the same campaign.
    Transcript counts are checked against the analytic per-node metrics
    on every single run.
    """
    s = re.skeleton
    if int(trials) < 1:
        raise BadShape("a campaign needs at least one trial")
    node_list = tuple(range(s.n)) if nodes is None else tuple(int(i) for i in nodes)
    for i in node_list:
        if not 0 <= i < s.n:
            raise BadShape(f"node index {i} out of range")
    session = RepairSession(re, sch)
    metrics = evaluate_scheme(re, sch)
    downloaded = {}
    accessed = {}
    for trial in range(first_trial, first_trial + int(trials)):
        cw = sample_codeword(re, (seed, trial))
        for i in node_list:
            tr = session.repair(cw, i)
            if tr.downloaded != metrics.bandwidth[i] or \
                    tr.accessed != metrics.io[i]:
                raise InternalInconsistency(
                    f"transcript counts diverge from metrics at node {i}")
            prev = downloaded.setdefault(i, tr.downloaded)
            if prev != tr.downloaded or accessed.setdefault(i, tr.accessed) != tr.accessed:
                raise InternalInconsistency("transcript counts vary across trials")
    return CampaignReport(
        trials=int(trials), seed=int(seed), rng=CODEWORD_SAMPLER,
        nodes=node_list,
        downloaded=tuple(downloaded[i] for i in node_list),
        accessed=tuple(accessed[i] for i in node_list),
        failures=(), matches_metrics=True, metrics=metrics,
    )
