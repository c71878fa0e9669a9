"""Exact arithmetic in cyclotomic fields."""

import cmath
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cmzv.cyclotomic import (
    CycNum,
    _ctx,
    _LevelContext,
    _poly_mul,
    _reduce_vector,
    cyclotomic_polynomial,
    embed_complex,
    euler_phi,
)


def test_euler_phi_small():
    assert [euler_phi(n) for n in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]


def test_cyclotomic_polynomial_values():
    # constant term first
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_polynomial_product():
    # prod(Phi_d(x) for d | n) == x^n - 1, checked at a few integer points
    for n in (6, 8, 12, 15):
        for x in (2, 3, 5):
            prod = 1
            for d in range(1, n + 1):
                if n % d == 0:
                    poly = cyclotomic_polynomial(d)
                    prod *= sum(c * x**i for i, c in enumerate(poly))
            assert prod == x**n - 1


def test_cyclotomic_polynomials_multiply_to_x_n_minus_one():
    # exactly, as coefficient vectors, for every n below 700
    for n in range(1, 700):
        prod = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                prod = _poly_mul(prod, list(cyclotomic_polynomial(d)))
        assert prod == [-1] + [0] * (n - 1) + [1], n


def test_cyclotomic_polynomial_105_has_coefficient_minus_two():
    # the least n whose Phi_n has a coefficient outside {-1, 0, 1}
    poly = cyclotomic_polynomial(105)
    assert len(poly) == 49 and poly[7] == poly[41] == -2
    assert all(abs(c) <= 1 for i, c in enumerate(poly) if i not in (7, 41))


def loop_reduce_vector(vec, level):
    """The fold as a Python double loop over the rows of z^k (the reference)."""
    ctx = _ctx(level)
    phi = ctx.phi
    if len(vec) > level:
        vec = [sum(vec[i::level]) for i in range(level)]
    out = list(vec[:phi]) + [0] * max(0, phi - len(vec))
    for k in range(phi, len(vec)):
        for i in range(phi):
            out[i] += vec[k] * ctx.pow_table[k][i]
    return out


@given(st.integers(1, 70), st.data())
def test_reduce_vector_matches_the_loop_fold(level, data):
    size = data.draw(st.integers(1, 3 * level + 2))
    vec = data.draw(st.lists(st.integers(-(2**130), 2**130), min_size=size, max_size=size))
    assert _reduce_vector(vec, _ctx(level)) == loop_reduce_vector(vec, level)


def loop_pow_table(level):
    """The rows of z^k mod Phi_level, one shift and subtract per power (the reference)."""
    mod = cyclotomic_polynomial(level)
    phi = len(mod) - 1
    table, cur = [], [1] + [0] * (phi - 1)
    for _ in range(level):
        table.append(tuple(cur))
        nxt, lead = [0] + cur[: phi - 1], cur[phi - 1]
        cur = [a - lead * m for a, m in zip(nxt, mod)] if lead else nxt
    return tuple(table)


def test_pow_table_matches_the_loop():
    for level in [*range(1, 401), 1155, 1200]:
        ctx = _LevelContext(level)
        assert ctx.pow_table == loop_pow_table(level)
        assert all(type(x) is int for row in ctx.pow_table for x in row)
        rows, values, starts = ctx.fold
        assert all(type(x) is int for x in values)
        assert len(values) == sum(x != 0 for row in ctx.pow_table for x in row)
        assert ctx.power_bound == max(map(abs, values))  # values: the nonzero entries
    # 105 and 385 are the least levels with a power of z of coordinate 2, and 3
    assert [_ctx(L).power_bound for L in (104, 105, 384, 385)] == [1, 2, 1, 3]


def test_root_arithmetic_level_3():
    w = CycNum.root_power(3, 1)
    # 1 + w + w^2 = 0
    assert (CycNum.one(3) + w + w * w).is_zero
    assert w**3 == CycNum.one(3)
    assert (w * w) == -CycNum.one(3) - w


def test_root_power_wraps():
    w = CycNum.root_power(12, 1)
    assert w**14 == CycNum.root_power(12, 2)
    assert CycNum.root_power(12, -1) == w**11


def test_inverse_level_4():
    i = CycNum.root_power(4, 1)
    assert i.inv() == -i
    assert (i * i) == CycNum.rational(4, -1)


def test_rational_detection():
    a = CycNum.rational(6, Fraction(3, 7))
    assert a.is_rational
    assert a.as_fraction() == Fraction(3, 7)
    w = CycNum.root_power(6, 1)
    assert not w.is_rational
    with pytest.raises(ValueError):
        w.as_fraction()


def test_conjugation():
    w = CycNum.root_power(5, 2)
    assert w.conj() == CycNum.root_power(5, 3)
    a = CycNum.rational(5, Fraction(1, 2)) + w
    assert a.conj().conj() == a
    # w * conj(w) = 1 for a root of unity
    assert w * w.conj() == CycNum.one(5)


def test_galois_action():
    w = CycNum.root_power(7, 1)
    assert w.galois(3) == CycNum.root_power(7, 3)
    with pytest.raises(ValueError):
        w.galois(0)
    a = (w + w.inv()) * CycNum.rational(7, Fraction(2, 3))
    assert a.galois(2).galois(4) == a.galois(8 % 7)


def test_embed_primitive_sixth_root():
    w = CycNum.root_power(6, 1)
    z = embed_complex(w)
    ref = cmath.exp(2j * cmath.pi / 6)
    assert abs(z - ref) < 1e-14
    assert abs(z - (0.5 + math.sqrt(3) / 2 * 1j)) < 1e-14


def test_embed_fourth_root_is_i():
    z = embed_complex(CycNum.root_power(4, 1))
    assert abs(z - 1j) < 1e-15


def test_embed_high_precision():
    w = CycNum.root_power(7, 1) + CycNum.root_power(7, 6)
    z = embed_complex(w, precision=200)
    # 2*cos(2*pi/7)
    assert abs(complex(z) - 2 * math.cos(2 * math.pi / 7)) < 1e-15
    assert abs(complex(z).imag) < 1e-30


@st.composite
def cycnums(draw, level=None):
    if level is None:
        level = draw(st.sampled_from([1, 2, 3, 4, 5, 6, 8, 12]))
    phi = euler_phi(level)
    nums = draw(st.lists(st.integers(-30, 30), min_size=phi, max_size=phi))
    den = draw(st.integers(1, 12))
    return CycNum.from_coeffs(level, [Fraction(n, den) for n in nums])


@given(st.data())
def test_field_axioms(data):
    level = data.draw(st.sampled_from([1, 3, 4, 5, 8, 12, 35]))
    a = data.draw(cycnums(level=level))
    b = data.draw(cycnums(level=level))
    c = data.draw(cycnums(level=level))
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    assert a + (-a) == CycNum.zero(level)


@given(st.data())
def test_multiplicative_inverse(data):
    level = data.draw(st.sampled_from([3, 4, 5, 7, 8, 12, 35]))
    a = data.draw(cycnums(level=level))
    if a.is_zero:
        with pytest.raises(ZeroDivisionError):
            a.inv()
    else:
        assert a * a.inv() == CycNum.one(level)


@given(st.data())
def test_conj_is_ring_map(data):
    level = data.draw(st.sampled_from([3, 5, 8, 12]))
    a = data.draw(cycnums(level=level))
    b = data.draw(cycnums(level=level))
    assert (a + b).conj() == a.conj() + b.conj()
    assert (a * b).conj() == a.conj() * b.conj()


@given(st.data())
def test_embed_respects_product(data):
    # 7: the product has 2 phi - 1 > level coordinates; 105: level >> phi
    level = data.draw(st.sampled_from([3, 4, 6, 7, 8, 105]))
    a = data.draw(cycnums(level=level))
    b = data.draw(cycnums(level=level))
    za, zb, zab = embed_complex(a), embed_complex(b), embed_complex(a * b)
    scale = max(1.0, abs(za) * abs(zb))
    assert abs(za * zb - zab) / scale < 1e-10


@given(st.data())
def test_embed_conj_is_complex_conj(data):
    a = data.draw(cycnums())
    assert abs(embed_complex(a.conj()) - embed_complex(a).conjugate()) < 1e-9 * (
        1 + abs(embed_complex(a))
    )


def test_hash_consistency():
    w = CycNum.root_power(8, 2)
    i = CycNum.root_power(8, 2)
    assert hash(w) == hash(i)
    d = {w: "x"}
    assert d[i] == "x"


@pytest.mark.parametrize("n", [-7, 0, 1, 2**70])
def test_rational_of_an_int_equals_that_of_its_fraction(n):
    for level in (1, 3, 12):
        a, b = CycNum.rational(level, n), CycNum.rational(level, Fraction(n))
        assert (a.nums, a.den) == (b.nums, b.den)
        assert a == b and hash(a) == hash(b)


def test_rational_of_a_bool_goes_through_fraction():
    # the int fast path would keep True itself as the numerator
    for value, want in ((True, 1), (False, 0)):
        a = CycNum.rational(3, value)
        assert a == CycNum.rational(3, want) and type(a.nums[0]) is int
        assert hash(a) == hash(CycNum.rational(3, want))
