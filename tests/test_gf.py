import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import tower_maps as tm
from mdsrepair.errors import (
    BadParameters,
    DegreeMismatch,
    DivisionByZero,
    MalformedInput,
    NonPrime,
    ReduciblePolynomial,
)
from mdsrepair.gf import (
    _TABLE_CAP,
    Field,
    FieldTower,
    build_tower,
    poly_is_irreducible,
    prime_power,
    smallest_irreducible,
)
from test_certificate import TOWERS

# F_9 = F_3[z]/(z^2 + 1): z has code 3, 2z has code 6, 2 + z has code 5.


def test_explicit_tower_f9():
    t = build_tower(3, 1, 2, ext_poly=[1, 0, 1])
    assert t.q == 3 and t.top_order == 9
    # z^2 + 1 has no root mod 3
    for z in range(3):
        assert (z * z + 1) % 3 != 0
    assert t.ext_poly == (1, 0, 1)


def test_degenerate_tower():
    t = build_tower(2, 1, 1)
    assert t.top is t.base
    assert t.top_order == 2
    assert t.top.arr_pow(1, t.q) == 1
    assert tm.coords(t, 1) == (1,)


def test_non_prime_rejected():
    with pytest.raises(NonPrime):
        build_tower(4, 1, 2)


def test_reducible_polynomial_rejected():
    with pytest.raises(ReduciblePolynomial):
        build_tower(3, 1, 2, ext_poly=[0, 0, 1])  # z^2 = z * z
    with pytest.raises(ReduciblePolynomial):
        build_tower(2, 2, 2, base_poly=[1, 0, 1])  # (y+1)^2 over F_2


def test_degree_mismatch():
    with pytest.raises(DegreeMismatch):
        build_tower(3, 1, 2, ext_poly=[1, 1])  # degree 1, need 2
    with pytest.raises(DegreeMismatch):
        build_tower(3, 1, 2, ext_poly=[1, 0, 2])  # not monic
    with pytest.raises(DegreeMismatch):
        build_tower(3, 2, 1, base_poly=[1, 1])


def test_default_polynomials_are_lex_smallest():
    assert build_tower(3, 1, 2).ext_poly == (1, 0, 1)
    assert build_tower(5, 1, 2).ext_poly == (1, 1, 1)
    assert build_tower(2, 2, 1).base_poly == (1, 1, 1)


def _add(f, x, y):
    """x + y on arrays of codes, read from the field's addition table."""
    index = np.asarray(x, dtype=np.int64) * f.order + y
    return f._tabs().add[index].astype(np.int64)


def _coords(t, xs):
    """(l, ...) field-reduction coordinates of top codes: their base-q digits."""
    xs = np.asarray(xs, dtype=np.int64)
    return np.stack([xs // t.q ** k % t.q for k in range(t.ell)])


def test_mul_in_f9(tower3):
    # z * z reduces to -1 = 2, and (2 + z)^2 = 4 + 4z + z^2 = z
    assert tower3.top.arr_mul(3, 3) == 2
    assert tower3.top.arr_mul(5, 5) == 3


def test_additive_identity_everywhere(tower3):
    f = tower3.top
    xs = np.arange(f.order)
    assert np.array_equal(_add(f, xs, 0), xs)
    assert np.array_equal(f.arr_mul(xs, 1), xs)


def test_inverse_of_zero(tower3):
    for f in (tower3.top, tower3.base):
        with pytest.raises(DivisionByZero):
            f.arr_inv(0)
        with pytest.raises(DivisionByZero):
            f.arr_inv([1, 0])


@pytest.fixture(scope="module")
def tower_f16():
    # non-prime base: F_4 = F_2[y]/(y^2+y+1), top F_16
    return build_tower(2, 2, 2)


def _assert_field_axioms(f):
    """The field axioms on every pair and triple of codes at once."""
    q = f.order
    a, b, c = np.ix_(np.arange(q), np.arange(q), np.arange(q))
    mul = f.arr_mul
    assert np.array_equal(_add(f, a, b), _add(f, b, a))
    assert np.array_equal(mul(a, b), mul(b, a))
    assert np.array_equal(_add(f, _add(f, a, b), c), _add(f, a, _add(f, b, c)))
    assert np.array_equal(mul(mul(a, b), c), mul(a, mul(b, c)))
    assert np.array_equal(mul(a, _add(f, b, c)), _add(f, mul(a, b), mul(a, c)))
    assert (f.arr_sub(_add(f, a, b), b) == a).all()
    assert (_add(f, a, f.arr_neg(a)) == 0).all()
    assert (_add(f, a, 0) == a).all() and (mul(a, 1) == a).all()
    units = np.arange(1, q)
    assert (mul(units, f.arr_inv(units)) == 1).all()
    assert (mul(mul(a, f.arr_inv(units[:, None])), units[:, None]) == a).all()


def test_field_axioms_f9(tower3):
    _assert_field_axioms(tower3.top)


def test_field_axioms_f16_over_f4(tower_f16):
    _assert_field_axioms(tower_f16.base)
    _assert_field_axioms(tower_f16.top)


def test_pow_matches_repeated_mul():
    # e in {0, 1, 2, q, q^l - 1, q^l} on every tower the certificate tests
    for p, m, ell, _ in TOWERS:
        t = build_tower(p, m, ell)
        f = t.top
        xs = np.arange(f.order)
        wanted = {0, 1, 2, t.q, t.top_order - 1, t.top_order}
        acc = np.ones_like(xs)
        for e in range(t.top_order + 1):
            if e in wanted:
                assert np.array_equal(f.arr_pow(xs, e), acc), (p, m, ell, e)
                assert f.arr_pow(int(xs[-1]), e) == acc[-1]
            acc = f.arr_mul(acc, xs)
    with pytest.raises(ValueError):
        build_tower(3, 1, 2).top.arr_pow(2, -1)


# -- Frobenius ---------------------------------------------------------------


def test_frobenius_of_z_in_f9(tower3):
    # z^3 = z * z^2 = -z = 2z, which has code 6
    assert tower3.top.arr_pow(3, 3) == 6


@pytest.mark.parametrize("p,m,ell", [(3, 1, 2), (2, 2, 2), (3, 1, 4), (2, 1, 6)])
def test_frobenius_fixed_points_are_base(p, m, ell):
    t = build_tower(p, m, ell)
    xs = np.arange(t.top_order)
    assert xs[t.top.arr_pow(xs, t.q) == xs].tolist() == list(range(t.q))


@pytest.mark.parametrize("p,m,ell", [(3, 1, 2), (5, 1, 2), (2, 2, 2)])
def test_frobenius_iterate_and_homomorphism(p, m, ell):
    t = build_tower(p, m, ell)
    f = t.top

    def frob(v):
        return f.arr_pow(v, t.q)

    xs = np.arange(t.top_order)
    ys = xs
    for _ in range(ell):
        ys = frob(ys)
    assert np.array_equal(ys, xs)
    # additive and multiplicative on every pair
    x, y = xs[:, None], xs[None, :]
    assert np.array_equal(frob(_add(f, x, y)), _add(f, frob(x), frob(y)))
    assert np.array_equal(frob(f.arr_mul(x, y)), f.arr_mul(frob(x), frob(y)))


# -- norm ---------------------------------------------------------------------


def _norm(t, x):
    return t.top.arr_pow(x, (t.top_order - 1) // (t.q - 1))


def test_norm_examples(tower3):
    # z^4 = (z^2)^2 = (-1)^2 = 1
    assert _norm(tower3, [3, 1, 0]).tolist() == [1, 1, 0]
    assert (_norm(tower3, np.arange(1, 9)) == 1).sum() == 4


@pytest.mark.parametrize("p,m,ell", [(3, 1, 2), (5, 1, 2), (2, 2, 2), (3, 1, 3)])
def test_norm_multiplicative_fibers_and_image(p, m, ell):
    t = build_tower(p, m, ell)
    units = np.arange(1, t.top_order)
    norms = _norm(t, units)
    # the power is the product of the Galois conjugates
    assert norms.tolist() == [tm.norm(t, int(x)) for x in units]
    values, sizes = np.unique(norms, return_counts=True)
    assert values.tolist() == list(range(1, t.q))
    assert (sizes == (t.top_order - 1) // (t.q - 1)).all()
    x, y = units[:, None], units[None, :]
    assert np.array_equal(_norm(t, t.top.arr_mul(x, y)),
                          t.base.arr_mul(_norm(t, x), _norm(t, y)))


# -- field reduction: coordinates are base-q digits ------------------------------


def test_field_reduce_examples(tower3):
    f = tower3.top
    assert tm.coords(tower3, 0) == (0, 0)
    assert tm.coords(tower3, 5) == (2, 1)
    assert _add(f, 2, f.arr_mul(1, 3)) == 5  # 2 + z


def test_field_reduce_roundtrip_f81():
    t = build_tower(3, 1, 4)
    assert t.top_order == 81
    # every code is the field sum of its digits times z^k, whose code is q^k
    xs = np.arange(t.top_order)
    acc = np.zeros_like(xs)
    for k, digit in enumerate(_coords(t, xs)):
        zk = t.top.arr_pow(t.q, k)
        assert zk == t.q ** k
        acc = _add(t.top, acc, t.top.arr_mul(digit, zk))
    assert np.array_equal(acc, xs)


def test_field_reduce_is_linear(tower3):
    f, base = tower3.top, tower3.base
    x, y = np.arange(9)[:, None], np.arange(9)[None, :]
    assert np.array_equal(_coords(tower3, _add(f, x, y)),
                          _add(base, _coords(tower3, x), _coords(tower3, y)))
    c = np.arange(3)[:, None]  # scalars of the base field
    assert np.array_equal(_coords(tower3, f.arr_mul(c, y)),
                          base.arr_mul(c, _coords(tower3, y)))


# -- the matrices of multiplication and Frobenius, the repair kernel's oracle ---


def test_multiplication_matrix_identity_and_zero(tower3):
    assert np.array_equal(tm.multiplication_matrix(tower3, 1),
                          np.eye(2, dtype=int))
    assert np.array_equal(tm.multiplication_matrix(tower3, 0),
                          np.zeros((2, 2), int))


def test_multiplication_matrix_of_z(tower3):
    # columns are the coordinates of z*1 = z and z*z = 2
    assert tm.multiplication_matrix(tower3, 3).T.tolist() == [[0, 1], [2, 0]]


@pytest.mark.parametrize("p,m,ell", [(3, 1, 2), (2, 2, 2)])
def test_linear_map_matrices_act_correctly(p, m, ell):
    # on coordinates they act as arr_mul by a and arr_pow(., q) act on codes
    t = build_tower(p, m, ell)
    xs = np.arange(t.top_order)
    coords = _coords(t, xs)
    assert np.array_equal(t.base.matmul(tm.frobenius_matrix(t), coords),
                          _coords(t, t.top.arr_pow(xs, t.q)))
    for a in range(t.top_order):
        assert np.array_equal(
            t.base.matmul(tm.multiplication_matrix(t, a), coords),
            _coords(t, t.top.arr_mul(a, xs)))


def test_multiplication_matrices_compose(tower3):
    f = tower3.base
    mats = [tm.multiplication_matrix(tower3, a) for a in range(9)]
    for a in range(9):
        for b in range(9):
            assert np.array_equal(f.matmul(mats[a], mats[b]),
                                  mats[int(tower3.top.arr_mul(a, b))])


# -- polynomials ------------------------------------------------------------------


def _monics(f, degree):
    return [(*c, 1) for c in itertools.product(range(f.order), repeat=degree)]


def _poly_mul(f, a, b):
    """Product of two coefficient tuples, one product and sum at a time."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = tm.add(f, out[i + j], tm.mul(f, x, y))
    return tuple(out)


# name -> (p, m, largest degree tested)
IRREDUCIBILITY_FIELDS = {"F2": (2, 1, 4), "F3": (3, 1, 4), "F4": (2, 2, 4),
                         "F5": (5, 1, 4), "F9": (3, 2, 2), "F32": (2, 5, 2)}


@pytest.mark.parametrize("name", list(IRREDUCIBILITY_FIELDS))
def test_irreducibility_matches_factor_products(name):
    # reducible means a product of two monic factors of positive degree
    p, m, top = IRREDUCIBILITY_FIELDS[name]
    f = build_tower(p, m, 1).base
    for d in range(1, top + 1):
        reducible = {_poly_mul(f, g, h) for e in range(1, d // 2 + 1)
                     for g in _monics(f, e) for h in _monics(f, d - e)}
        polys = _monics(f, d)
        want = [g not in reducible for g in polys]
        assert [poly_is_irreducible(f, g) for g in polys] == want
        assert smallest_irreducible(f, d) == polys[want.index(True)]


# -- misc ----------------------------------------------------------------------


def test_tower_json_roundtrip():
    for args in [(3, 1, 2), (2, 2, 2), (5, 1, 2), (2, 1, 1)]:
        t = build_tower(*args)
        assert FieldTower.from_json_dict(t.to_json_dict()) == t


def test_tower_loader_defaults_only_absent_polynomials():
    t = build_tower(2, 2, 2)
    doc = t.to_json_dict()
    bare = {k: v for k, v in doc.items() if not k.endswith("_poly")}
    assert FieldTower.from_json_dict(bare) == t
    # [] is the m = 1 spelling of base_poly, and a wrong degree elsewhere
    assert build_tower(3, 1, 2).to_json_dict()["base_poly"] == []
    for key in ("base_poly", "ext_poly"):
        with pytest.raises(MalformedInput,
                           match=f"tower.{key} = \\[\\] must have degree 2"):
            FieldTower.from_json_dict({**doc, key: []})
        for value in (0, False, "", None, {}):
            with pytest.raises(MalformedInput,
                               match=f"tower.{key} = .* is not a list"):
                FieldTower.from_json_dict({**doc, key: value})


def test_prime_power():
    assert prime_power(9) == (3, 2)
    assert prime_power(8) == (2, 3)
    assert prime_power(7) == (7, 1)
    assert prime_power(12) is None
    assert prime_power(1) is None


def test_array_ops_match_scalar_ops():
    # whole arrays, and one code at a time as the oracles call them
    for tower in (build_tower(5, 1, 2), build_tower(2, 2, 2)):
        for f in (tower.base, tower.top):
            xs = np.arange(f.order)
            ys = np.roll(xs, 1)
            pairs = list(zip(xs.tolist(), ys.tolist()))
            assert f.arr_mul(xs, ys).tolist() == \
                [int(f.arr_mul(x, y)) for x, y in pairs]
            assert f.arr_sub(xs, ys).tolist() == \
                [int(f.arr_sub(x, y)) for x, y in pairs]
            assert f.arr_neg(xs).tolist() == [int(f.arr_neg(x)) for x in xs]
            assert f.arr_inv(xs[1:]).tolist() == \
                [int(f.arr_inv(x)) for x in xs[1:]]
            assert f.arr_pow(xs, 5).tolist() == \
                [int(f.arr_pow(x, 5)) for x in xs]


# -- operation tables against the digit recursion ---------------------------


def _digit_add(f, x, y):
    """Oracle: addition digit by digit, recursing once per tower level."""
    x, y = np.asarray(x, dtype=np.int64), np.asarray(y, dtype=np.int64)
    if f.subfield is None:
        return (x + y) % f.p
    s = f.subfield.order
    out = np.zeros(np.broadcast(x, y).shape, dtype=np.int64)
    for t in range(f.deg):
        st = s ** t
        out += _digit_add(f.subfield, (x // st) % s, (y // st) % s) * st
    return out


def _digit_neg(f, x):
    x = np.asarray(x, dtype=np.int64)
    if f.subfield is None:
        return (-x) % f.p
    s = f.subfield.order
    out = np.zeros(x.shape, dtype=np.int64)
    for t in range(f.deg):
        st = s ** t
        out += _digit_neg(f.subfield, (x // st) % s) * st
    return out


def _mul_raw(f, x, y):
    """Oracle: schoolbook product of the digit vectors reduced through
    ``f._zpow``, recursing once per tower level down to products mod p."""
    x, y = np.asarray(x, dtype=np.int64), np.asarray(y, dtype=np.int64)
    if f.subfield is None:
        return x * y % f.p
    sub, s, d = f.subfield, f.subfield.order, f.deg
    xd = [x // s ** t % s for t in range(d)]
    yd = [y // s ** t % s for t in range(d)]
    conv = [0] * (2 * d - 1)
    for i in range(d):
        for j in range(d):
            conv[i + j] = _digit_add(sub, conv[i + j], _mul_raw(sub, xd[i], yd[j]))
    res = conv[:d]
    for j in range(d, 2 * d - 1):
        for t, z in enumerate(f._zpow[j - d]):
            res[t] = _digit_add(sub, res[t], _mul_raw(sub, conv[j], z))
    return sum(r * s ** t for t, r in enumerate(res))


def _digit_sum(f, x, axis):
    x = np.asarray(x, dtype=np.int64)
    if f.subfield is None:
        return x.sum(axis=axis) % f.p
    s = f.subfield.order
    shape = list(x.shape)
    del shape[axis]
    out = np.zeros(shape, dtype=np.int64)
    for t in range(f.deg):
        st = s ** t
        out += _digit_sum(f.subfield, (x // st) % s, axis=axis) * st
    return out


def _field(p, m, ell=1):
    t = build_tower(p, m, ell)
    return t.top


# F_4, F_8, F_9, F_16 (over F_2 and over F_4), F_25, F_27, F_81 (over F_3
# and over F_9), and every prime field up to 13
TABLE_FIELDS = {
    "F4": (2, 2), "F8": (2, 3), "F9": (3, 2), "F16": (2, 4),
    "F16/F4": (2, 2, 2), "F25": (5, 2), "F27": (3, 3), "F81": (3, 4),
    "F81/F9": (3, 2, 2),
    **{f"F{p}": (p, 1) for p in (2, 3, 5, 7, 11, 13)},
}


@pytest.mark.parametrize("name", sorted(TABLE_FIELDS))
def test_tables_match_digit_recursion_and_mul_raw(name):
    f = _field(*TABLE_FIELDS[name])
    q = f.order
    xs = np.repeat(np.arange(q), q)
    ys = np.tile(np.arange(q), q)
    add = _digit_add(f, xs, ys)
    neg = _digit_neg(f, np.arange(q))
    sub = _digit_add(f, xs, _digit_neg(f, ys))
    mul = _mul_raw(f, xs, ys)
    assert np.array_equal(f._tabs().add[xs * q + ys], add)
    assert np.array_equal(f.arr_sub(xs, ys), sub)
    assert np.array_equal(f.arr_neg(np.arange(q)), neg)
    assert np.array_equal(f.arr_mul(xs, ys), mul)
    units = np.arange(1, q)
    assert (f.arr_mul(units, f.arr_inv(units)) == 1).all()
    rng = np.random.default_rng(q)
    stack = rng.integers(0, q, (4, 5, 3))
    for axis in range(3):
        # a ones row times the stack sums it along ``axis``
        moved = np.moveaxis(stack, axis, -2)
        ones = np.ones((1, moved.shape[-2]), dtype=np.int64)
        assert np.array_equal(f.matmul(ones, moved)[..., 0, :],
                              _digit_sum(f, stack, axis))


def _reduction_rows_oracle(f):
    """Coefficients of z^d .. z^(2d-2) mod poly: z^d = -(poly without its
    leading term), and each next row is z times the last, reduced."""
    sub, d = f.subfield, f.deg
    first = [int(sub.arr_neg(c)) for c in f.poly[:d]]
    rows = [first]
    for _ in range(d - 2):
        prev = rows[-1]
        rows.append([tm.add(sub, s, tm.mul(sub, prev[d - 1], t))
                     for s, t in zip([0] + prev[:d - 1], first)])
    return rows


@pytest.mark.parametrize("name", ["F4", "F8", "F9", "F16", "F16/F4", "F27",
                                  "F81", "F81/F9"])
def test_reduction_rows_match_the_shift_recursion(name):
    f = _field(*TABLE_FIELDS[name])
    assert f._zpow.tolist() == _reduction_rows_oracle(f)


@pytest.mark.parametrize("name", sorted(TABLE_FIELDS))
def test_tables_are_small_and_shared(name):
    f = _field(*TABLE_FIELDS[name])
    tables = f._tabs()
    assert f._tabs() is tables
    dtype = np.uint8 if f.order <= 256 else np.uint16
    assert all(t.dtype == dtype for t in tables)
    for out in (f.arr_sub([1], [0]), f.arr_neg([1]),
                f.arr_mul([1], [1]), f.arr_inv([1]), f.matmul([[1]], [[1]])):
        assert out.dtype == np.int64


@settings(max_examples=60, deadline=None)
@example(name="F9", rows=3, inner=0, cols=2, seed=0)
@example(name="F7", rows=2, inner=0, cols=3, seed=0)
@given(name=st.sampled_from(["F5", "F7", "F9", "F16/F4", "F25", "F13"]),
       rows=st.integers(0, 4), inner=st.integers(0, 4), cols=st.integers(0, 4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_matmul_matches_scalar_triple_loop(name, rows, inner, cols, seed):
    f = _field(*TABLE_FIELDS[name])
    rng = np.random.default_rng(seed)
    a = rng.integers(0, f.order, (rows, inner))
    b = rng.integers(0, f.order, (inner, cols))
    got = f.matmul(a, b)
    assert got.dtype == np.int64
    assert np.array_equal(got, tm.matmul(f, a, b))


@pytest.mark.parametrize("name", ["F7", "F9", "F16/F4"])
def test_matmul_on_stacks_matches_each_matrix(name):
    f = _field(*TABLE_FIELDS[name])
    rng = np.random.default_rng(3)
    a = rng.integers(0, f.order, (5, 2, 3))
    b = rng.integers(0, f.order, (5, 3, 4))
    got = f.matmul(a, b)
    assert got.shape == (5, 2, 4) and got.dtype == np.int64
    for x, y, z in zip(a, b, got):
        assert np.array_equal(z, tm.matmul(f, x, y))
    # a single matrix broadcasts against a stack, as with numpy's @
    want = np.array([tm.matmul(f, a[0], y) for y in b])
    assert np.array_equal(f.matmul(a[0], b), want)


def test_above_cap_fields_are_refused_at_construction():
    with pytest.raises(BadParameters, match=f"p = 1031 is above {_TABLE_CAP}"):
        Field.prime(1031)
    with pytest.raises(BadParameters, match="ell = 11 gives"):
        build_tower(2, 1, 11)  # order 2048 over F_2
    with pytest.raises(BadParameters, match="ell = 7 gives"):
        build_tower(3, 1, 7)  # order 2187 over F_3
    with pytest.raises(BadParameters, match="m = 7 gives"):
        build_tower(5, 7, 1)
    with pytest.raises(BadParameters, match="degree of poly = 11 gives"):
        Field.extension(Field.prime(2), [1] * 12)  # refused before the search
    # each refusal comes before primality tests, irreducibility searches
    # and powers of the unchecked exponent
    with pytest.raises(BadParameters, match="p = "):
        build_tower(2 ** 61 - 1, 1, 1)
    with pytest.raises(BadParameters, match="m = "):
        build_tower(2, 2 ** 40, 1)
    with pytest.raises(BadParameters, match="ell = "):
        build_tower(3, 2, 10 ** 30)
    # the largest supported orders still build
    for p, m, ell in ((2, 1, 10), (2, 5, 2), (1021, 1, 1)):
        assert build_tower(p, m, ell).top_order <= _TABLE_CAP
