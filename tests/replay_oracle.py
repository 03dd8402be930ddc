"""Single-matrix and single-word replay helpers, the test oracle of simulate.

A campaign factors every helper block of its nodes in one batched
elimination and samples and checks its words a chunk at a time.
``row_factor`` is the one-matrix form of that factorization, and
``sample_codeword`` and ``is_codeword`` are the one-word forms of
``codes.sample_codewords`` and ``codes.syndromes``, and
``kernel_basis_oracle`` is the dense RREF basis whose product with the
drawn coefficients those words equal.
``node_states_oracle`` builds each listed node's own pipeline from the
blocks of every listed node, where the campaign forms those of each
distinct repair matrix once, into one pipeline over all n nodes that the
nodes of that matrix share; ``node_view`` cuts a node's own pipeline
from that shared one.  ``replay_oracle`` rebuilds one node's block
through its matrix's whole pipeline, where the campaign sends and
recombines each pipeline once for all of its nodes.
"""

import numpy as np

from mdsrepair.codes import sample_codewords, syndromes
from mdsrepair.errors import NotARepairMatrix
from mdsrepair.linalg import Matrix, _elimination_ranks, null_columns
from mdsrepair.repair import _compressed_blocks
from mdsrepair.simulate import _send
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


def kernel_basis_oracle(re) -> np.ndarray:
    """The canonical RREF basis of the code {c : H c = 0}, dense.

    One elimination of H with its columns reversed: each kernel vector
    of :func:`linalg.null_columns` is 1 on one free column, 0 on the
    others and nonzero elsewhere only on pivot columns left of it.  Read
    in the original order, it leads with that 1, so the vectors in
    reverse are the RREF basis.
    """
    field = re.skeleton.tower.base
    reduced, ranks, is_piv = _elimination_ranks(
        field, re.column_stack()[None, :, ::-1].copy())
    k = null_columns(field, reduced[:, :ranks[0]], is_piv)[0]
    return k.T[::-1, ::-1]


def is_codeword(re, cw) -> bool:
    s = re.skeleton
    cw = np.asarray(cw, dtype=np.int64)
    if cw.shape != (s.n, s.ell):
        return False
    return not syndromes(re, cw[None]).any()


def replay_oracle(field, st, words):
    """Block ``st.failed`` of each word of a (T, n, l) stack, as (l, T), as
    ``simulate._replay`` rebuilt it one node at a time: the node's matrix's
    reads gathered with the node's own zeroed (the erased block), so the
    node sends 0s and the recombination sums its helpers' symbols alone.
    """
    p, i = st.pipe, st.failed
    read = words.reshape(len(words), -1).T[p.gather]
    read[p.read_off[i]:p.read_off[i + 1]] = 0
    return field.matmul(st.neg_inv,
                        field.matmul(p.a_all, _send(field, p, read)))


class NodeView:
    """The repair pipeline of node ``failed`` alone.

    ``gather`` indexes the symbols its helpers read in a flattened word.
    Sent symbol r is the sum over slots c of ``send_coef[r, c]`` times
    read ``send_idx[r, c]`` (an index into ``gather``); ``a_all``
    recombines the sent symbols and ``neg_inv`` is -(M H_i)^(-1).
    """

    __slots__ = ("failed", "neg_inv", "a_all", "send_idx", "send_coef",
                 "gather", "downloaded", "accessed")


def own_rows(st, ell):
    """The sent rows of ``st.pipe`` that node ``st.failed`` sends itself."""
    p = st.pipe
    return p.gather[p.send_idx[:, 0]] // ell == st.failed


def node_view(st, ell):
    """Node ``st.failed``'s own pipeline, cut from its matrix's shared one:
    the node's own reads and sent rows dropped, and the read indices after
    them moved down by the node's read count."""
    p, i = st.pipe, st.failed
    lo, hi = p.read_off[i], p.read_off[i + 1]
    rows = ~own_rows(st, ell)
    idx = p.send_idx[rows]
    v = NodeView()
    v.failed = i
    v.neg_inv = st.neg_inv
    v.a_all = p.a_all[:, rows]
    v.send_idx = np.where(idx >= hi, idx - (hi - lo), idx)
    v.send_coef = p.send_coef[rows]
    v.gather = np.delete(p.gather, np.arange(lo, hi))
    v.downloaded = st.downloaded
    v.accessed = st.accessed
    return v


def node_states_oracle(re, sch, nodes):
    """Each listed node's own pipeline, as ``simulate._node_states`` built
    it before it worked once per distinct matrix: the blocks of every
    listed node against all n nodes, (k, n, l, l), formed and eliminated
    in one batch, then cut node by node without the node's own block.
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
        st = NodeView()
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
