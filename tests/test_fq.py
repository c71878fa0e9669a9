"""Residue fields F_{p^d} with a distinguished image of the level-N root."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cmzv.cyclotomic import CycNum, cyclotomic_polynomial, euler_phi
from cmzv.fq import (
    BadPrimeError,
    inverse_table,
    is_prime,
    make_fq_context,
    pow_mod,
    to_residue_field,
)


def test_is_prime_small():
    primes = [n for n in range(2, 60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    assert not is_prime(1)
    assert is_prime(2**31 - 1)
    assert not is_prime(2**32 + 1)


def test_inverse_table():
    for p in (2, 3, 7, 101):
        inv = inverse_table(p)
        assert inv[0] == 0
        for n in range(1, p):
            assert n * inv[n] % p == 1


PRIMES = [n for n in range(2, 10**5) if is_prime(n)]


@given(st.sampled_from(PRIMES), st.lists(st.integers(0, 10**5), max_size=20), st.integers(0, 10**6))
@example(2, [0, 1], 0)
@example(3, [0, 1, 2], 1)
def test_pow_mod_and_inverse_table_agree_with_pow(p, base, e):
    inv = inverse_table(p)
    assert len(inv) == p and inv[0] == 0
    assert (np.arange(1, p) * np.array(inv[1:]) % p == 1).all()
    base = [b % p for b in base]
    assert pow_mod(np.array(base, dtype=np.int64), e, p).tolist() == [pow(b, e, p) for b in base]


def test_pow_mod_near_int64_limit():
    # at p = 2^31 - 1 every product of two residues comes near 2^62
    p = 2**31 - 1
    base = [p - 1, p - 2, 2**30, 46341, 1, 0]
    for e in (0, 1, 2, 3, p - 2, p - 1, 2**40 + 7):
        got = pow_mod(np.array(base, dtype=np.int64), e, p)
        assert got.tolist() == [pow(b, e, p) for b in base]


def test_inverse_table_rejects_primes_past_int64_range():
    with pytest.raises(ValueError):
        inverse_table(2147483659)  # the first prime above 2^31


def test_context_split_prime():
    # 7 = 1 mod 3, x^2+x+1 = (x-2)(x-4) mod 7; smallest root is 2
    ctx = make_fq_context(7, 3)
    assert ctx.d == 1
    assert ctx.zeta_coeffs == (2,)
    assert ctx.modulus == (5, 1)  # x - 2


def test_context_twist():
    ctx = make_fq_context(7, 3, twist=2)
    assert ctx.zeta_coeffs == (4,)  # 2^2 mod 7


def test_context_inert_prime():
    # 5 = 2 mod 3 so x^2+x+1 stays irreducible
    ctx = make_fq_context(5, 3)
    assert ctx.d == 2
    assert ctx.modulus == (1, 1, 1)
    assert ctx.zeta_coeffs == (0, 1)
    z = ctx.zeta_image
    assert z**3 == ctx.one()
    assert z != ctx.one()


def test_context_level_one():
    ctx = make_fq_context(13, 1)
    assert ctx.d == 1
    assert ctx.zeta_image == ctx.one()


def test_context_rejects_bad_input():
    with pytest.raises(BadPrimeError):
        make_fq_context(10, 3)
    with pytest.raises(BadPrimeError):
        make_fq_context(3, 6)  # p | N
    with pytest.raises(ValueError):
        make_fq_context(7, 3, twist=3)


def test_context_deterministic():
    a = make_fq_context(31, 5)
    b = make_fq_context.__wrapped__(31, 5, 1)
    assert a.modulus == b.modulus
    assert a.zeta_coeffs == b.zeta_coeffs


@pytest.mark.parametrize("p,N", [(7, 3), (11, 5), (13, 4), (5, 3), (7, 5), (3, 8), (11, 12)])
def test_zeta_image_is_primitive_root_of_modulus(p, N):
    ctx = make_fq_context(p, N)
    z = ctx.zeta_image
    # annihilated by the chosen factor of Phi_N, so a genuine primitive N-th root
    assert z**N == ctx.one()
    for m in range(1, N):
        if N % m == 0:
            assert z**m != ctx.one()
    # and the degree matches the multiplicative order of p mod N
    d = 1
    while pow(p, d, N) != 1 % N:
        d += 1
    assert ctx.d == d


def test_split_prime_zeta_image_is_smallest_root():
    # all roots of Phi_N mod p, the context picks the smallest
    for p, N in [(7, 3), (13, 3), (11, 5), (13, 4), (17, 8)]:
        poly = cyclotomic_polynomial(N)
        roots = [
            r
            for r in range(p)
            if sum(c * pow(r, i, p) for i, c in enumerate(poly)) % p == 0
        ]
        ctx = make_fq_context(p, N)
        assert ctx.zeta_coeffs == (min(roots),)


def _smallest_primitive_roots(p, nmax):
    """{N: the least x mod p of multiplicative order N} for the N <= nmax
    dividing p - 1, from the orders of every x found by repeated products."""
    x = np.arange(1, p, dtype=np.int64)
    order = np.zeros(p - 1, dtype=np.int64)
    acc = x.copy()
    for j in range(1, nmax + 1):
        order[(acc == 1) & (order == 0)] = j
        acc = acc * x % p
    return {N: int(x[order == N][0]) for N in range(2, nmax + 1) if (p - 1) % N == 0}


def test_split_contexts_are_the_smallest_primitive_roots():
    # d = 1 is built in closed form; every pair N <= 12, p < 3000 with
    # p = 1 mod N, every twist, against a search over all of F_p^*
    pairs = 0
    for p in (n for n in range(3, 3000) if is_prime(n)):
        for N, root in _smallest_primitive_roots(p, 12).items():
            pairs += 1
            for twist in (t for t in range(1, N) if math.gcd(t, N) == 1):
                ctx = make_fq_context(p, N, twist)
                zeta = pow(root, twist, p)
                assert (ctx.d, ctx.modulus, ctx.zeta_coeffs) == (1, ((-zeta) % p, 1), (zeta,))
    assert pairs == 1643


# (p, N, twist) -> (modulus, zeta image) of contexts with 1 < d, which
# Cantor-Zassenhaus or Phi_N itself gives, as before the d = 1 closed form
_PINNED = {
    (19, 5, 1): ((1, 15, 1), (0, 1)),
    (29, 5, 2): ((1, 6, 1), (0, 1)),
    (59, 5, 3): ((1, 26, 1), (0, 1)),
    (2, 5, 1): ((1, 1, 1, 1, 1), (0, 1, 0, 0)),
    (13, 7, 1): ((1, 6, 1), (0, 1)),
    (11, 7, 2): ((10, 6, 7, 1), (0, 1, 0)),
    (23, 7, 1): ((22, 13, 14, 1), (0, 1, 0)),
    (23, 7, 3): ((22, 9, 10, 1), (0, 1, 0)),
    (5, 7, 3): ((1, 1, 1, 1, 1, 1, 1), (0, 1, 0, 0, 0, 0)),
}


@pytest.mark.parametrize("p, N, twist", sorted(_PINNED))
def test_contexts_of_higher_degree_are_pinned(p, N, twist):
    ctx = make_fq_context(p, N, twist)
    assert (ctx.modulus, ctx.zeta_coeffs) == _PINNED[p, N, twist]
    assert ctx.d == len(ctx.modulus) - 1 > 1


def test_fq_arithmetic_inert():
    ctx = make_fq_context(5, 3)
    z = ctx.zeta_image
    a = z + ctx.scalar(2)
    assert a * a ** (5**2 - 2) == ctx.one()
    with pytest.raises(ValueError):
        a ** -1
    assert a - a == ctx.zero()
    assert a**24 == ctx.one()  # group order 5^2 - 1


def test_reduce_rational():
    ctx = make_fq_context(7, 1)
    half = CycNum.rational(1, Fraction(1, 2))
    assert to_residue_field(half, ctx) == ctx.scalar(4)
    # numerator divisible by p lands on zero
    seven_thirds = CycNum.rational(1, Fraction(7, 3))
    assert to_residue_field(seven_thirds, ctx).is_zero


def test_reduce_root():
    ctx = make_fq_context(7, 3)
    w = CycNum.root_power(3, 1)
    assert to_residue_field(w, ctx) == ctx.scalar(2)
    assert to_residue_field(w * w, ctx) == ctx.scalar(4)


def test_reduce_bad_denominator():
    ctx = make_fq_context(7, 3)
    a = CycNum.rational(3, Fraction(1, 7))
    with pytest.raises(BadPrimeError):
        to_residue_field(a, ctx)


def test_reduce_level_pN():
    # elements of Q(zeta_{p*N}) reduce by sending zeta_{pN} to zeta^t with
    # t inverting p mod N; the p-power part collapses to 1
    p, N = 7, 3
    ctx = make_fq_context(p, N)
    big = CycNum.root_power(p * N, N)  # a primitive p-th root: reduces to 1
    assert to_residue_field(big, ctx) == ctx.one()
    prim = CycNum.root_power(p * N, p)  # (zeta_{pN})^p is the level-N root
    assert to_residue_field(prim, ctx) == ctx.scalar(2)


def test_reduce_level_p_only():
    ctx = make_fq_context(5, 1)
    a = CycNum.root_power(5, 1) + CycNum.root_power(5, 2)
    assert to_residue_field(a, ctx) == ctx.scalar(2)


@given(st.data())
def test_reduce_is_ring_map(data):
    p, N = data.draw(st.sampled_from([(7, 3), (11, 5), (5, 3), (13, 4)]))
    ctx = make_fq_context(p, N)
    phi = euler_phi(N)
    mk = lambda: CycNum.from_coeffs(
        N,
        [
            Fraction(data.draw(st.integers(-20, 20)), data.draw(st.integers(1, 6)))
            for _ in range(phi)
        ],
    )
    try:
        a, b = mk(), mk()
        ra = to_residue_field(a, ctx)
        rb = to_residue_field(b, ctx)
        assert to_residue_field(a + b, ctx) == ra + rb
        assert to_residue_field(a * b, ctx) == ra * rb
    except BadPrimeError:
        pass  # denominator hit p; nothing to check

