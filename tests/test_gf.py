import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mdsrepair.errors import (
    BadParameters,
    DegreeMismatch,
    DivisionByZero,
    LevelMismatch,
    NonPrime,
    ReduciblePolynomial,
)
from mdsrepair.gf import _TABLE_CAP, Field, FieldTower, build_tower, prime_power

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
    assert t.frobenius(1) == 1
    assert t.field_reduce(1) == (1,)


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


def test_mul_in_f9(tower3):
    # z * z reduces to -1 = 2
    assert tower3.top.mul(3, 3) == 2
    assert tower3.top.mul(5, 5) == tower3.top.mul(5, 5)


def test_additive_identity_everywhere(tower3):
    for x in tower3.top_elements():
        assert tower3.top.add(x, 0) == x


def test_inverse_of_zero(tower3):
    with pytest.raises(DivisionByZero):
        tower3.top.inv(0)
    with pytest.raises(DivisionByZero):
        tower3.base.inv(0)


def test_level_mismatch_on_out_of_range(tower3):
    with pytest.raises(LevelMismatch):
        tower3.base.mul(1, 7)  # 7 >= q = 3
    with pytest.raises(LevelMismatch):
        tower3.frobenius(9)  # 9 >= q^l


@pytest.fixture(scope="module")
def tower_f16():
    # non-prime base: F_4 = F_2[y]/(y^2+y+1), top F_16
    return build_tower(2, 2, 2)


@settings(max_examples=150, deadline=None)
@given(a=st.integers(0, 8), b=st.integers(0, 8), c=st.integers(0, 8))
def test_field_axioms_f9(tower3, a, b, c):
    f = tower3.top
    assert f.add(a, b) == f.add(b, a)
    assert f.mul(a, b) == f.mul(b, a)
    assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    assert f.sub(f.add(a, b), b) == a
    if b != 0:
        assert f.mul(f.mul(a, f.inv(b)), b) == a


@settings(max_examples=150, deadline=None)
@given(a=st.integers(0, 15), b=st.integers(0, 15), c=st.integers(0, 15))
def test_field_axioms_f16_over_f4(tower_f16, a, b, c):
    f = tower_f16.top
    assert f.add(a, b) == f.add(b, a)
    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    if a != 0:
        assert f.mul(a, f.inv(a)) == 1


def test_pow_matches_repeated_mul(tower3):
    f = tower3.top
    for a in range(9):
        acc = 1
        for e in range(6):
            assert f.pow(a, e) == acc
            acc = f.mul(acc, a)
    with pytest.raises(ValueError):
        f.pow(2, -1)


# -- Frobenius ---------------------------------------------------------------


def test_frobenius_of_z_in_f9(tower3):
    # z^3 = z * z^2 = -z = 2z, which has code 6
    assert tower3.frobenius(3) == 6


@pytest.mark.parametrize("p,m,ell", [(3, 1, 2), (2, 2, 2), (3, 1, 4), (2, 1, 6)])
def test_frobenius_fixed_points_are_base(p, m, ell):
    t = build_tower(p, m, ell)
    fixed = {x for x in t.top_elements() if t.frobenius(x) == x}
    assert fixed == set(range(t.q))


@pytest.mark.parametrize("p,m,ell", [(3, 1, 2), (5, 1, 2), (2, 2, 2)])
def test_frobenius_iterate_and_homomorphism(p, m, ell):
    t = build_tower(p, m, ell)
    f = t.top
    for x in t.top_elements():
        y = x
        for _ in range(ell):
            y = t.frobenius(y)
        assert y == x
    for x in range(0, t.top_order, 3):
        for y in range(0, t.top_order, 5):
            assert t.frobenius(f.add(x, y)) == f.add(t.frobenius(x), t.frobenius(y))
            assert t.frobenius(f.mul(x, y)) == f.mul(t.frobenius(x), t.frobenius(y))


# -- norm ---------------------------------------------------------------------


def test_norm_examples(tower3):
    # z^4 = (z^2)^2 = (-1)^2 = 1
    assert tower3.norm_to_base(3) == 1
    assert tower3.norm_to_base(1) == 1
    assert tower3.norm_to_base(0) == 0
    assert len([x for x in tower3.top_units()
                if tower3.norm_to_base(x) == 1]) == 4


@pytest.mark.parametrize("p,m,ell", [(3, 1, 2), (5, 1, 2), (2, 2, 2), (3, 1, 3)])
def test_norm_multiplicative_fibers_and_image(p, m, ell):
    t = build_tower(p, m, ell)
    f = t.top
    fiber_size = (t.top_order - 1) // (t.q - 1)
    fibers = {}
    for x in t.top_units():
        fibers.setdefault(t.norm_to_base(x), []).append(x)
    assert set(fibers) == set(range(1, t.q))
    assert all(len(v) == fiber_size for v in fibers.values())
    for x in range(1, t.top_order, 2):
        for y in range(1, t.top_order, 3):
            assert t.norm_to_base(f.mul(x, y)) == \
                t.base.mul(t.norm_to_base(x), t.norm_to_base(y))


# -- field reduction -----------------------------------------------------------


def test_field_reduce_examples(tower3):
    assert tower3.field_reduce(0) == (0, 0)
    assert tower3.field_reduce(5) == (2, 1)  # 2 + z


def test_field_reduce_roundtrip_f81():
    t = build_tower(3, 1, 4)
    assert t.top_order == 81
    for x in t.top_elements():
        digits = t.field_reduce(x)
        assert sum(d * t.q ** k for k, d in enumerate(digits)) == x


def test_field_reduce_is_linear(tower3):
    f = tower3.top
    for x in tower3.top_elements():
        for y in range(0, 9, 2):
            lhs = tower3.field_reduce(f.add(x, y))
            rhs = tuple(tower3.base.add(a, b) for a, b in
                        zip(tower3.field_reduce(x), tower3.field_reduce(y)))
            assert lhs == rhs


# -- linear map matrices --------------------------------------------------------


def test_multiplication_matrix_identity_and_zero(tower3):
    assert np.array_equal(tower3.multiplication_matrix(1), np.eye(2, dtype=int))
    assert np.array_equal(tower3.multiplication_matrix(0), np.zeros((2, 2), int))


def test_multiplication_matrix_of_z(tower3):
    # columns are the coordinates of z*1 = z and z*z = 2
    assert tower3.multiplication_matrix(3).T.tolist() == [[0, 1], [2, 0]]


@pytest.mark.parametrize("p,m,ell", [(3, 1, 2), (2, 2, 2)])
def test_linear_map_matrices_act_correctly(p, m, ell):
    t = build_tower(p, m, ell)
    frob = t.frobenius_matrix()
    for a in t.top_elements():
        ma = t.multiplication_matrix(a)
        for x in t.top_elements():
            coords = np.array(t.field_reduce(x)).reshape(-1, 1)
            assert t.base.matmul(ma, coords)[:, 0].tolist() == \
                list(t.field_reduce(t.top.mul(a, x)))
            assert t.base.matmul(frob, coords)[:, 0].tolist() == \
                list(t.field_reduce(t.frobenius(x)))


def test_multiplication_matrices_compose(tower3):
    f = tower3.base
    for a in tower3.top_elements():
        for b in tower3.top_elements():
            lhs = f.matmul(tower3.multiplication_matrix(a),
                           tower3.multiplication_matrix(b))
            rhs = tower3.multiplication_matrix(tower3.top.mul(a, b))
            assert np.array_equal(lhs, rhs)


# -- misc ----------------------------------------------------------------------


def test_tower_json_roundtrip():
    for args in [(3, 1, 2), (2, 2, 2), (5, 1, 2), (2, 1, 1)]:
        t = build_tower(*args)
        assert FieldTower.from_json_dict(t.to_json_dict()) == t


def test_prime_power():
    assert prime_power(9) == (3, 2)
    assert prime_power(8) == (2, 3)
    assert prime_power(7) == (7, 1)
    assert prime_power(12) is None
    assert prime_power(1) is None


def test_array_ops_match_scalar_ops():
    for tower in (build_tower(5, 1, 2), build_tower(2, 2, 2)):
        for f in (tower.base, tower.top):
            xs = np.arange(f.order)
            ys = np.roll(xs, 1)
            assert all(f.arr_mul(xs, ys)[i] == f.mul(int(xs[i]), int(ys[i]))
                       for i in range(f.order))
            assert all(f.arr_neg(xs)[i] == f.neg(int(xs[i]))
                       for i in range(f.order))
            units = np.arange(1, f.order)
            assert all(f.arr_inv(units)[i] == f.inv(int(units[i]))
                       for i in range(f.order - 1))


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
    scalar = np.array([(f.add(a, b), f.sub(a, b), f.mul(a, b))
                       for a, b in zip(xs.tolist(), ys.tolist())])
    assert np.array_equal(scalar, np.stack([add, sub, mul], axis=1))
    assert [f.neg(a) for a in range(q)] == neg.tolist()
    units = np.arange(1, q)
    assert (f.arr_mul(units, f.arr_inv(units)) == 1).all()
    assert all(f.mul(a, f.inv(a)) == 1 for a in range(1, q))
    rng = np.random.default_rng(q)
    stack = rng.integers(0, q, (4, 5, 3))
    for axis in range(3):
        # a ones row times the stack sums it along ``axis``
        moved = np.moveaxis(stack, axis, -2)
        ones = np.ones((1, moved.shape[-2]), dtype=np.int64)
        assert np.array_equal(f.matmul(ones, moved)[..., 0, :],
                              _digit_sum(f, stack, axis))


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


def _matmul_oracle(f, a, b):
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            acc = 0
            for k in range(a.shape[1]):
                acc = f.add(acc, f.mul(int(a[i, k]), int(b[k, j])))
            out[i, j] = acc
    return out


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
    assert np.array_equal(got, _matmul_oracle(f, a, b))


@pytest.mark.parametrize("name", ["F7", "F9", "F16/F4"])
def test_matmul_on_stacks_matches_each_matrix(name):
    f = _field(*TABLE_FIELDS[name])
    rng = np.random.default_rng(3)
    a = rng.integers(0, f.order, (5, 2, 3))
    b = rng.integers(0, f.order, (5, 3, 4))
    got = f.matmul(a, b)
    assert got.shape == (5, 2, 4) and got.dtype == np.int64
    for x, y, z in zip(a, b, got):
        assert np.array_equal(z, _matmul_oracle(f, x, y))
    # a single matrix broadcasts against a stack, as with numpy's @
    want = np.array([_matmul_oracle(f, a[0], y) for y in b])
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
