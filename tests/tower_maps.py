"""Tower maps element at a time, the oracle of the library's array steps.

The library reads field-reduction coordinates as base-q digits and forms
Frobenius images and norms as ``arr_pow`` powers, all arrays at once.
These helpers take one element at a time: products are ``int`` results
of ``arr_mul`` on two codes, powers are repeated products, and the
matrices of y -> a*y and y -> y^q are built one column at a time from the
coordinates of a*z^t and (z^t)^q.
"""

import numpy as np


def mul(field, a, b):
    return int(field.arr_mul(a, b))


def add(field, a, b):
    """a + b, read from the field's addition table."""
    return int(field._tabs().add[a * field.order + b])


def power(field, a, e):
    """a**e as e repeated products."""
    acc = 1
    for _ in range(e):
        acc = mul(field, acc, a)
    return acc


def coords(tower, x):
    """Coordinates of the top code x in the basis 1, z, ..., z^(l-1)."""
    out = []
    for _ in range(tower.ell):
        x, digit = divmod(x, tower.q)
        out.append(digit)
    return tuple(out)


def norm(tower, x):
    """The product of the l Galois conjugates x, x^q, ..., x^(q^(l-1))."""
    acc, conj = 1, x
    for _ in range(tower.ell):
        acc = mul(tower.top, acc, conj)
        conj = power(tower.top, conj, tower.q)
    return acc


def multiplication_matrix(tower, a):
    """Matrix over F_q of y -> a*y: column t holds the coordinates of a*z^t."""
    return np.array([coords(tower, mul(tower.top, a, tower.q ** t))
                     for t in range(tower.ell)], dtype=np.int64).T


def frobenius_matrix(tower):
    """Matrix over F_q of y -> y^q: column t holds those of (z^t)^q."""
    return np.array([coords(tower, power(tower.top, tower.q ** t, tower.q))
                     for t in range(tower.ell)], dtype=np.int64).T


def matmul(field, a, b):
    """a @ b over the field, one product and one sum at a time."""
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            acc = 0
            for k in range(a.shape[1]):
                acc = add(field, acc, mul(field, int(a[i, k]), int(b[k, j])))
            out[i, j] = acc
    return out
