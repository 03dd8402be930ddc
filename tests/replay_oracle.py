"""Single-matrix and single-word replay helpers, the test oracle of simulate.

A campaign factors every helper block of its nodes in one batched
elimination and samples and checks its words a chunk at a time.
``row_factor`` is the one-matrix form of that factorization, and
``sample_codeword`` and ``is_codeword`` are the one-word forms of
``codes.sample_codewords`` and ``codes.syndromes``.
``node_states_oracle`` builds the campaign's node pipelines from the
blocks of every listed node, where the campaign forms those of each
distinct repair matrix once.
"""

import numpy as np

from mdsrepair.codes import sample_codewords, syndromes
from mdsrepair.errors import NotARepairMatrix
from mdsrepair.linalg import Matrix, _elimination_ranks
from mdsrepair.repair import _compressed_blocks
from mdsrepair.simulate import _NodeState
from rref_oracle import rref_oracle


def row_factor(a: Matrix):
    """Factor a = A @ B with B a maximal independent row subset of a.

    B keeps the original row order (greedy from the top), its row count is
    rank(a), and its nonzero-column set equals that of a.  A holds the
    coefficients expressing every row of a over the rows of B.  Both come
    from one ``rref_oracle`` elimination of a.T: its pivot columns are the
    greedy rows, and its nonzero reduced rows are the columns of A.
    """
    r, rank, pivots = rref_oracle(a.field, a.array.T)
    return (Matrix(a.field, r[:rank].T),
            Matrix(a.field, a.array[list(pivots)]))


def sample_codeword(re, seed) -> np.ndarray:
    """The codeword of ``sample_codewords`` for one seed, shaped (n, l)."""
    return sample_codewords(re, [seed])[0]


def is_codeword(re, cw) -> bool:
    s = re.skeleton
    cw = np.asarray(cw, dtype=np.int64)
    if cw.shape != (s.n, s.ell):
        return False
    return not syndromes(re, cw[None]).any()


def node_states_oracle(re, sch, nodes):
    """``simulate._node_states`` as it was before it worked once per
    distinct matrix: the blocks of every listed node against all n nodes,
    (k, n, l, l), formed and eliminated in one batch.
    """
    s = re.skeleton
    field = s.tower.base
    n, ell, k = s.n, s.ell, len(nodes)
    blocks = _compressed_blocks(field, sch.stack[list(nodes)],
                                re.column_stack(), n, ell)
    reduced, ranks, is_piv = _elimination_ranks(
        field, blocks.swapaxes(-1, -2).reshape(k * n, ell, ell).copy())
    reduced = reduced.reshape(k, n, ell, ell)
    ranks = ranks.reshape(k, n)
    is_piv = is_piv.reshape(k, n, ell)
    for a, i in enumerate(nodes):
        if ranks[a, i] != ell:
            raise NotARepairMatrix(i)
    # -(M H_i)^(-1) of every node from one elimination of [M H_i | I]
    eye = np.broadcast_to(np.eye(ell, dtype=np.int64), (k, ell, ell))
    diag = blocks[np.arange(k), nodes]
    neg_inv = field.arr_neg(_elimination_ranks(
        field, np.concatenate([diag, eye], axis=2))[0][:, :, ell:])
    # B is the rows of M H_j at the pivot columns of its transpose, A^T
    # the nonzero reduced rows, and a helper reads the nonzero columns
    # of B
    a_rows = np.arange(ell) < ranks[..., None]
    reads = ((blocks != 0) & is_piv[..., None]).any(axis=2)
    cols = np.arange(ell)
    states = []
    for a, i in enumerate(nodes):
        helpers = np.delete(np.arange(n), i)
        read = reads[a, helpers]
        in_b = is_piv[a, helpers]  # the rows of each M H_j kept as B
        # position of every read among the gathered ones; an unread
        # coordinate takes its helper's first read
        seen = np.cumsum(read).reshape(read.shape)
        first = seen[:, -1] - read.sum(axis=1)
        st = _NodeState()
        st.failed = i
        st.neg_inv = neg_inv[a]
        st.a_all = reduced[a, helpers][a_rows[a, helpers]].T
        st.send_coef = blocks[a, helpers][in_b]
        st.send_idx = np.where(read, seen - 1,
                               first[:, None])[np.nonzero(in_b)[0]]
        st.gather = (helpers[:, None] * ell + cols)[read]
        st.downloaded = len(st.send_coef)
        st.accessed = len(st.gather)
        states.append(st)
    return states
