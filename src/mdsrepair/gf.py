"""Exact arithmetic in the two-level field tower F_p <= F_q <= F_(q^l).

Elements are plain integer codes.  A code is the value of the element's
polynomial coefficient vector read as a digit string: base-field codes are
base-p digit strings over F_p, top-field codes are base-q digit strings
whose digits are base-field codes.  The least significant digit is always
the constant coefficient.  Under this encoding 0 and 1 are the additive
and multiplicative identities at every level, and the embedded copy of
F_q inside F_(q^l) is exactly the set of codes below q (the constant
polynomials), so base codes are valid top codes as they stand.

Every field has order at most ``_TABLE_CAP`` = 1024: ``Field.prime``,
``Field.extension`` and :func:`build_tower` refuse a larger one with
:class:`BadParameters` before any primality or irreducibility search.
Each field therefore computes through dense operation tables, prime
fields included.  The one interface is the array family: every
``arr_*`` call takes numpy arrays of codes and is a table lookup
(``arr_pow`` is square-and-multiply over ``arr_mul``).  Only ``matmul``
on a prime field reduces an integer sum ``% p`` instead of adding
through the tables, one inner index at a time.

Field reduction needs no map of its own: the coordinates of a top code
in the power basis 1, z, ..., z^(l-1) of the extension generator z are
its base-q digits, and z^t has code q**t.  The Frobenius and the norm
down to F_q are the powers ``arr_pow(x, q)`` and
``arr_pow(x, (q^l-1)/(q-1))``.

Defaults are deterministic: when a defining polynomial is omitted, the
lexicographically smallest monic irreducible of the required degree is
selected, with coefficient tuples ordered low-degree-first.  The
irreducibility test and the extension's reduction rows are one batched
long division over the subfield's tables (:func:`_poly_rem`).

Fields and towers are immutable after construction (a field's tables
appear in one attribute assignment), so instances can be shared across
concurrent workers.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Sequence

import numpy as np

from .errors import (
    BadParameters,
    DegreeMismatch,
    DivisionByZero,
    InternalInconsistency,
    LevelMismatch,
    MalformedInput,
    NonPrime,
    ReduciblePolynomial,
    RepairToolError,
    json_ints,
)

# Largest supported field order; its q x q operation tables take <= 2 MB each.
_TABLE_CAP = 1024


def _capped_order(base: int, degree: int, name: str) -> int:
    """base**degree for a field order base >= 2, refused above the cap.

    Multiplies only until the cap is passed, so a huge degree costs at
    most eleven steps.  ``name`` is the parameter the error names.
    """
    order = 1
    for _ in range(degree):
        order *= base
        if order > _TABLE_CAP:
            raise BadParameters(
                f"{name} = {degree} gives a field of order above "
                f"{_TABLE_CAP}, the largest supported")
    return order


def prime_power(n: int) -> tuple[int, int] | None:
    """Return (p, e) with n = p**e and p prime, or None."""
    if n < 2:
        return None
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            return (d, e) if n == 1 else None
        d += 1
    return (n, 1)


def is_prime(n: int) -> bool:
    """Trial-division primality test; fine for desk-scale moduli."""
    return prime_power(n) == (n, 1)


# ---------------------------------------------------------------------------
# polynomial helpers (coefficient rows low-degree-first, as field codes)


def _monic(order: int, degree: int) -> np.ndarray:
    """Every monic polynomial of a degree, in lexicographic order.

    Row k holds the coefficients (c_0, ..., c_(degree-1), 1) of the k-th
    tuple of ``itertools.product(range(order), repeat=degree)``.
    """
    k = np.arange(order ** degree)
    rows = np.ones((k.size, degree + 1), dtype=np.int64)
    for t in range(degree):
        rows[:, t] = k // order ** (degree - 1 - t) % order
    return rows


def _poly_rem(field: "Field", a, g) -> np.ndarray:
    """Remainders of the rows of a modulo the monic rows of g.

    ``a`` is (..., D+1) and ``g`` is (..., e+1), broadcast against each
    other on their leading axes; the result is (..., e).  Long division
    with every pair at once: each step clears one leading coefficient.
    """
    a, g = np.asarray(a, dtype=np.int64), np.asarray(g, dtype=np.int64)
    e = g.shape[-1] - 1
    lead = np.broadcast_shapes(a.shape[:-1], g.shape[:-1])
    r = np.broadcast_to(a, lead + a.shape[-1:]).copy()
    for k in range(r.shape[-1] - 1, e - 1, -1):
        part = r[..., k - e:k + 1]
        r[..., k - e:k + 1] = field.arr_sub(part,
                                           field.arr_mul(part[..., -1:], g))
    return r[..., :e]


def _irreducible(field: "Field", polys: np.ndarray) -> np.ndarray:
    """Which monic rows of ``polys`` (all of one degree d) are irreducible.

    Each row is divided by every monic polynomial of each degree up to
    d/2, one batch per degree; a zero remainder proves it reducible.
    """
    d = polys.shape[-1] - 1
    ok = np.full(polys.shape[:-1], d >= 1)
    for e in range(1, d // 2 + 1):
        rem = _poly_rem(field, polys[..., None, :], _monic(field.order, e))
        ok &= rem.any(axis=-1).all(axis=-1)
    return ok


def poly_is_irreducible(field: "Field", poly: Sequence[int]) -> bool:
    """Exhaustively test a monic polynomial for irreducibility."""
    return bool(_irreducible(field, np.array([poly], dtype=np.int64))[0])


def smallest_irreducible(field: "Field", degree: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of the given degree."""
    cands = _monic(field.order, degree)
    ok = _irreducible(field, cands)
    if not ok.any():
        raise InternalInconsistency(
            f"no irreducible of degree {degree} over order {field.order}")
    return tuple(int(c) for c in cands[ok.argmax()])


# ---------------------------------------------------------------------------


# A field's operation tables.  add, sub and mul are q x q tables flattened
# row-major (the entry for codes a, b sits at a*q + b); neg and inv have
# length q, with inv[0] = 0.
_Tables = namedtuple("_Tables", "add sub neg mul inv")


class Field:
    """A finite field of order at most ``_TABLE_CAP`` on integer codes.

    Either a prime field F_p or an extension of another :class:`Field` by a
    monic irreducible polynomial.  The ``arr_*`` family and :meth:`matmul`
    take numpy arrays of valid codes (not range-checked; see
    ``linalg._check_codes``) and return int64 arrays.

    Add, sub, neg, mul and inv tables are built in the smallest unsigned
    dtype on first use (an extension's from its subfield's tables) and
    published in one attribute assignment, so a racing worker at worst
    builds an equal set.  Every ``arr_*`` call reads them.
    """

    __slots__ = ("p", "subfield", "poly", "deg", "order", "_zpow", "_tables")

    def __init__(self, subfield: "Field | None", poly: tuple[int, ...] | None,
                 p: int | None = None):
        if subfield is None:
            self.p = int(p)
            self.subfield = None
            self.poly = None
            self.deg = 1
            self.order = self.p
            self._zpow = None
        else:
            self.p = subfield.p
            self.subfield = subfield
            self.poly = tuple(poly)
            self.deg = len(self.poly) - 1
            self.order = subfield.order ** self.deg
            # coefficient rows of z^d .. z^(2d-2), reduced mod poly
            powers = np.eye(2 * self.deg - 1, dtype=np.int64)[self.deg:]
            self._zpow = _poly_rem(subfield, powers, self.poly)
        self._tables = None

    @classmethod
    def prime(cls, p: int) -> "Field":
        if p > _TABLE_CAP:
            raise BadParameters(f"p = {p} is above {_TABLE_CAP}, the largest "
                                "supported field order")
        if not is_prime(p):
            raise NonPrime(p)
        return cls(None, None, p=p)

    @classmethod
    def extension(cls, subfield: "Field", poly: Sequence[int],
                  which: str = "poly") -> "Field":
        poly = tuple(int(c) for c in poly)
        if len(poly) < 2:
            raise DegreeMismatch(f"{which} = {list(poly)} must have degree "
                                 "at least 1")
        _capped_order(subfield.order, len(poly) - 1, f"degree of {which}")
        if any(not 0 <= c < subfield.order for c in poly):
            raise LevelMismatch(f"{which} = {list(poly)} has a coefficient "
                                f"outside F_{subfield.order}")
        if poly[-1] != 1:
            raise DegreeMismatch(f"{which} = {list(poly)} is not monic")
        if not poly_is_irreducible(subfield, poly):
            raise ReduciblePolynomial(which, poly)
        return cls(subfield, poly)

    # -- operation tables ----------------------------------------------------

    def _tabs(self) -> _Tables:
        if self._tables is None:
            self._tables = self._build_tables()  # every table at once
        return self._tables

    def _build_tables(self) -> _Tables:
        q = self.order
        if self.subfield is None:
            codes = np.arange(q)
            add = (codes[:, None] + codes) % q
            neg = (-codes) % q
            mul = (codes[:, None] * codes) % q
        else:
            add, neg, mul = self._extension_tables()
        inv = (mul == 1).argmax(axis=1)  # row 0 has no 1, so inv[0] = 0
        if (mul[np.arange(q), inv][1:] != 1).any():
            raise InternalInconsistency(
                f"multiplication table of order {q} has a unit without inverse")
        return _Tables(*(t.astype(np.min_scalar_type(q - 1)).ravel()
                         for t in (add, add[:, neg], neg, mul, inv)))

    def _extension_tables(self):
        # all codes or pairs at once: add and neg digit by digit, mul as the
        # digit-polynomial product with z^d .. z^(2d-2) reduced by _zpow
        s, d, q = self.subfield.order, self.deg, self.order
        st = self.subfield._tabs()
        sadd, smul = st.add.reshape(s, s), st.mul.reshape(s, s)
        digits = [np.arange(q) // s ** t % s for t in range(d)]
        rows = [x[:, None] for x in digits]

        def join(parts):
            return sum(x.astype(np.int64) * s ** t for t, x in enumerate(parts))

        add = join([sadd[rows[t], digits[t]] for t in range(d)])
        neg = join([st.neg[x] for x in digits])
        conv = [0] * (2 * d - 1)
        for i in range(d):
            for j in range(d):
                conv[i + j] = sadd[conv[i + j], smul[rows[i], digits[j]]]
        res = conv[:d]
        for j in range(d, 2 * d - 1):
            for t, c in enumerate(self._zpow[j - d]):
                if c:
                    res[t] = sadd[res[t], smul[conv[j], c]]
        return add, neg, join(res)

    # -- vectorised arithmetic on numpy arrays of codes ----------------------

    def _pair(self, table: np.ndarray, x, y) -> np.ndarray:
        index = np.asarray(x, dtype=np.int64) * self.order + y
        return table[index].astype(np.int64)

    def arr_sub(self, x, y) -> np.ndarray:
        return self._pair(self._tabs().sub, x, y)

    def arr_neg(self, x) -> np.ndarray:
        return self._tabs().neg[np.asarray(x, dtype=np.int64)].astype(np.int64)

    def arr_mul(self, x, y) -> np.ndarray:
        return self._pair(self._tabs().mul, x, y)

    def arr_inv(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.int64)
        if (x == 0).any():
            raise DivisionByZero("zero has no multiplicative inverse")
        return self._tabs().inv[x].astype(np.int64)

    def arr_pow(self, x, e: int) -> np.ndarray:
        """x**e elementwise for a nonnegative integer e (0**0 is 1).

        Square-and-multiply over :meth:`arr_mul`.
        """
        e = int(e)
        if e < 0:
            raise ValueError("negative exponent; use arr_inv and arr_pow")
        base = np.asarray(x, dtype=np.int64)
        result = np.ones(base.shape, dtype=np.int64)
        while e:
            if e & 1:
                result = self.arr_mul(result, base)
            e >>= 1
            if e:
                base = self.arr_mul(base, base)
        return result

    def matmul(self, a, b) -> np.ndarray:
        """Exact product of code arrays over this field.

        Operands are matrices or stacks of them, (..., m, k) @ (..., k, n),
        with the leading axes broadcast as numpy's ``@`` does.  Over an
        extension field the k terms are added up one inner index at a time.
        """
        a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
        if self.subfield is None:
            return (a @ b) % self.p
        if a.shape[-1] != b.shape[-2]:
            raise ValueError(f"cannot multiply {a.shape} by {b.shape}")
        q, tabs = self.order, self._tabs()
        acc = a[..., :0] @ b[..., :0, :]  # int64 zeros of the product's shape
        for t in range(a.shape[-1]):
            term = tabs.mul[a[..., :, t, None] * q + b[..., t, None, :]]
            acc = tabs.add[acc * q + term].astype(np.int64)
        return acc

    # -- misc ----------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Field):
            return NotImplemented
        return (self.p == other.p and self.poly == other.poly
                and (self.subfield == other.subfield))

    def __hash__(self):
        return hash((self.p, self.poly, self.subfield))

    def __repr__(self):
        if self.subfield is None:
            return f"Field(p={self.p})"
        return f"Field(order={self.order}, poly={list(self.poly)})"


# ---------------------------------------------------------------------------


class FieldTower:
    """F_p <= F_q <= F_(q^l) with field-reduction coordinates.

    ``base`` is F_q (q = p^m) and ``top`` is F_(q^l); for l = 1 they are the
    same object.  Field-reduction coordinates are in the power basis
    1, z, ..., z^(l-1), where z is the class of the extension variable:
    the code of z^t is q**t, so a top code's coordinates are its base-q
    digits.  The tower is a descriptor; its arithmetic is its fields'.
    """

    __slots__ = ("p", "m", "ell", "q", "top_order",
                 "base", "top", "base_poly", "ext_poly")

    def __init__(self, base: Field, ell: int, ext_poly: tuple[int, ...],
                 top: Field):
        self.base = base
        self.top = top
        self.ell = ell
        self.p = base.p
        self.m = base.deg
        self.q = base.order
        self.top_order = self.q ** ell
        self.base_poly = base.poly or ()
        self.ext_poly = tuple(ext_poly)
        if top.order != self.top_order:
            raise InternalInconsistency("tower levels disagree on order")

    # -- persistence -----------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "m": self.m,
            "ell": self.ell,
            "base_poly": list(self.base_poly),
            "ext_poly": list(self.ext_poly),
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "FieldTower":
        for key in ("p", "m", "ell"):
            json_ints(obj[key], f"tower.{key}")
        polys = {}
        for key in ("base_poly", "ext_poly"):
            if key in obj:  # only an absent key takes the default
                if type(obj[key]) is not list:
                    raise MalformedInput(f"tower.{key} = {obj[key]} is not a "
                                         "list of JSON integers")
                polys[key] = json_ints(obj[key], f"tower.{key}", 1)
        try:
            return build_tower(obj["p"], obj["m"], obj["ell"], **polys)
        except RepairToolError as exc:  # its message starts with the key
            raise MalformedInput(f"tower.{exc}") from exc

    def __eq__(self, other) -> bool:
        if not isinstance(other, FieldTower):
            return NotImplemented
        return (self.p, self.m, self.ell, self.base_poly, self.ext_poly) == \
               (other.p, other.m, other.ell, other.base_poly, other.ext_poly)

    def __hash__(self):
        return hash((self.p, self.m, self.ell, self.base_poly, self.ext_poly))

    def __repr__(self):
        return f"FieldTower(p={self.p}, m={self.m}, ell={self.ell})"


def build_tower(p: int, m: int, ell: int,
                base_poly: Sequence[int] | None = None,
                ext_poly: Sequence[int] | None = None) -> FieldTower:
    """Construct and validate the tower F_p <= F_(p^m) <= F_(p^(m*ell)).

    Omitted defining polynomials are filled in deterministically with the
    lexicographically smallest monic irreducible of the right degree.  A
    top field of order above ``_TABLE_CAP`` is refused with
    :class:`BadParameters` naming p, m or ell, before any search runs.
    Every error's message starts with the parameter it refuses: p, m,
    ell, base_poly or ext_poly.
    """
    prime = Field.prime(p)
    m = int(m)
    ell = int(ell)
    if m < 1:
        raise DegreeMismatch(f"m = {m}: the base degree must be at least 1")
    if ell < 1:
        raise DegreeMismatch(f"ell = {ell}: the top degree must be at least 1")
    _capped_order(_capped_order(p, m, "m"), ell, "ell")

    if m == 1:
        if base_poly:
            raise DegreeMismatch(f"base_poly = {list(base_poly)} must be "
                                 "empty when m = 1")
        base = prime
    else:
        if base_poly is None:
            base_poly = smallest_irreducible(prime, m)
        if len(base_poly) != m + 1:
            raise DegreeMismatch(f"base_poly = {list(base_poly)} must have "
                                 f"degree {m}")
        base = Field.extension(prime, base_poly, which="base_poly")

    if ext_poly is None:
        ext_poly = smallest_irreducible(base, ell)
    if len(ext_poly) != ell + 1:
        raise DegreeMismatch(f"ext_poly = {list(ext_poly)} must have degree "
                             f"{ell}")
    top = Field.extension(base, ext_poly, which="ext_poly")
    # a degree-1 top level is the base field itself
    return FieldTower(base, ell, top.poly, base if ell == 1 else top)
