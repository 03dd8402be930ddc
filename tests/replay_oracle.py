"""Single-matrix and single-word replay helpers, the test oracle of simulate.

A campaign factors every helper block of its nodes in one batched
elimination and samples and checks its words a chunk at a time.
``row_factor`` is the one-matrix form of that factorization, and
``sample_codeword`` and ``is_codeword`` are the one-word forms of
``codes.sample_codewords`` and ``codes.syndromes``.
"""

import numpy as np

from mdsrepair.codes import sample_codewords, syndromes
from mdsrepair.linalg import Matrix
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
