"""Residue fields F_(p^d) attached to a cyclotomic level.

For a prime p coprime to N, the image of zeta_N in characteristic p generates
F_(p^d) with d the multiplicative order of p mod N.  A context fixes one
degree-d irreducible factor of the N-th cyclotomic polynomial mod p (the
canonical choice picks the factor x^d + ... whose root vector is smallest, so
for d = 1 the smallest root wins) and the image of zeta_N modulo it.

For d = 1 (p = 1 mod N) the factors are the x - r with r a primitive N-th
root of unity mod p, so the canonical one is built in closed form: with g
the first integer >= 2 for which r = g^((p-1)/N) has r^(N/q) != 1 for every
prime q | N, r has order N, and the smallest primitive root is the least
r^k over the k coprime to N.  Cantor-Zassenhaus splits the cyclotomic
polynomial only for 1 < d < phi(N).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cyclotomic import CycNum, _prime_factors, cyclotomic_polynomial, euler_phi


class BadPrimeError(ValueError):
    """Raised when a denominator is divisible by the residue characteristic."""


# ---- primality and small prime streams -----------------------------------

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# the least strong pseudoprime to the bases 2, 3, 5 and 7 (Jaeschke, Math. Comp.
# 61, 1993): below it those four witnesses decide primality
_FOUR_WITNESS_BOUND = 3_215_031_751


def is_prime(n: int) -> bool:
    """Miller-Rabin after trial division by _MR_WITNESSES, with the witnesses
    2, 3, 5, 7 below _FOUR_WITNESS_BOUND and all twelve from there on."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES[:4] if n < _FOUR_WITNESS_BOUND else _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def pow_mod(base: np.ndarray, e: int, p: int) -> np.ndarray:
    """base^e mod p entrywise, base an int64 array with entries in [0, p).

    Square-and-multiply over the whole array; for p < 2^31 every product of
    two residues stays below 2^62.
    """
    result = np.ones_like(base)
    while e:
        if e & 1:
            result = result * base % p
        e >>= 1
        if e:
            base = base * base % p
    return result


def power_row(x: int, length: int, p: int) -> np.ndarray:
    """x^t mod p for t = 0..length-1 as int64, p < 2^31, built by doubling:
    w[s:2s] = w[:s] x^s."""
    w, s = np.ones(length, dtype=np.int64), 1
    while s < length:
        w[s : 2 * s] = w[: min(s, length - s)] * pow(x, s, p) % p
        s *= 2
    return w


def inverse_row(p: int) -> np.ndarray:
    """Inverses of 1..p-1 mod p, an int64 array of p - 1 entries, from the
    powers w[k] = g^k of a primitive root g by one scatter inv[g^k] = g^(p-1-k).
    """
    if p >= 2**31:
        raise ValueError(f"int64 residues need p < 2^31, got {p}")
    w = power_row(root_of_order(p, p - 1), p - 1, p)  # p = 2: w = [1], g unused
    inv = np.empty(p - 1, dtype=np.int64)
    inv[w - 1] = np.concatenate((w[:1], w[:0:-1]))  # g^(p-1-k), k = 0..p-2
    return inv


def inverse_table(p: int) -> list[int]:
    """inverse_row(p) as a list, with 0 at index 0."""
    return [0, *inverse_row(p).tolist()]


# ---- dense polynomial arithmetic over F_p ---------------------------------


def _ptrim(a):
    i = len(a)
    while i > 1 and a[i - 1] == 0:
        i -= 1
    return a[:i]


def _pmul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _ptrim(out)


def _pdivmod(a, b, p):
    """Quotient and remainder of a by b over F_p, both reduced and trimmed."""
    a = list(a)
    db = len(b) - 1
    inv_lead = pow(b[-1], p - 2, p)
    if len(a) - 1 < db:
        return [0], _ptrim([c % p for c in a])
    quo = [0] * (len(a) - db)
    for i in range(len(a) - 1 - db, -1, -1):
        c = a[i + db] % p
        if c:
            q = c * inv_lead % p
            quo[i] = q
            for j in range(db + 1):
                a[i + j] = (a[i + j] - q * b[j]) % p
    return _ptrim(quo), _ptrim([c % p for c in a[:db]] if db > 0 else [0])


def _pmod(a, m, p):
    return _pdivmod(a, m, p)[1]


def _pgcd(a, b, p):
    a, b = _ptrim([c % p for c in a]), _ptrim([c % p for c in b])
    while any(b):
        a, b = b, _pmod(a, b, p)
    inv = pow(a[-1], p - 2, p)
    return [c * inv % p for c in a]


def _ppow_mod(a, e, m, p):
    result = [1]
    base = _pmod(a, m, p) if len(a) >= len(m) else _ptrim(a)
    while e:
        if e & 1:
            result = _pmod(_pmul(result, base, p), m, p)
        e >>= 1
        if e:
            base = _pmod(_pmul(base, base, p), m, p)
    return result


def _equal_degree_factor(f, d, p, rng):
    """Split a squarefree product of degree-d irreducibles (Cantor-Zassenhaus)."""
    n = len(f) - 1
    if n == d:
        return [f]
    while True:
        a = _ptrim([rng.randrange(p) for _ in range(n)])
        if len(a) == 1:
            continue
        if p == 2:
            b = list(a)
            acc = list(a)
            for _ in range(d - 1):
                acc = _pmod(_pmul(acc, acc, p), f, p)
                b = _ptrim([(x + y) % p for x, y in _zip_pad(b, acc)])
        else:
            b = _ppow_mod(a, (p**d - 1) // 2, f, p)
            b = list(b)
            b[0] = (b[0] - 1) % p
            b = _ptrim(b)
        if not any(b):
            continue
        g = _pgcd(b, f, p)
        if 0 < len(g) - 1 < n:
            quo = _pdivmod(f, g, p)[0]
            return _equal_degree_factor(g, d, p, rng) + _equal_degree_factor(quo, d, p, rng)


def _zip_pad(a, b):
    n = max(len(a), len(b))
    a = list(a) + [0] * (n - len(a))
    b = list(b) + [0] * (n - len(b))
    return zip(a, b)


# ---- the context and field elements ---------------------------------------


@dataclass(frozen=True)
class FqContext:
    p: int
    N: int
    d: int
    modulus: tuple[int, ...]  # monic, length d + 1, constant term first
    zeta_coeffs: tuple[int, ...]  # image of zeta_N, length d

    @property
    def zeta_image(self) -> "Fq":
        return Fq(self, self.zeta_coeffs)

    def zero(self) -> "Fq":
        return Fq(self, (0,) * self.d)

    def one(self) -> "Fq":
        return Fq(self, (1,) + (0,) * (self.d - 1))

    def scalar(self, c: int) -> "Fq":
        return Fq(self, (c % self.p,) + (0,) * (self.d - 1))

    def zeta_power(self, a: int) -> "Fq":
        return Fq(self, zeta_table(self)[a % self.N, 0].tolist())


@lru_cache(maxsize=None)
def zeta_table(ctx: FqContext) -> np.ndarray:
    """The read-only (N, d, d) int64 array whose [t, j] is zeta^t x^j: entry t is
    the matrix of multiplication by zeta^t on the power basis 1, x, .., x^(d-1)."""
    basis = [Fq(ctx, row) for row in np.eye(ctx.d, dtype=int).tolist()]
    table, power = [], ctx.one()
    for _ in range(ctx.N):
        table.append([(power * b).coeffs for b in basis])
        power = power * ctx.zeta_image
    table = np.array(table, dtype=np.int64)
    table.setflags(write=False)
    return table


class Fq:
    """Element of the residue field, a length-d vector mod p."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: FqContext, coeffs):
        self.ctx = ctx
        self.coeffs = tuple(coeffs)

    @property
    def is_zero(self) -> bool:
        return not any(self.coeffs)

    @property
    def in_prime_field(self) -> bool:
        return not any(self.coeffs[1:])

    def __add__(self, other):
        p = self.ctx.p
        return Fq(self.ctx, tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        p = self.ctx.p
        return Fq(self.ctx, tuple((a - b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        p = self.ctx.p
        return Fq(self.ctx, tuple(-a % p for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, int):
            p = self.ctx.p
            return Fq(self.ctx, tuple(a * other % p for a in self.coeffs))
        ctx = self.ctx
        d = ctx.d
        if d == 1:
            return Fq(ctx, (self.coeffs[0] * other.coeffs[0] % ctx.p,))
        prod = _pmul(list(self.coeffs), list(other.coeffs), ctx.p)
        red = _pmod(prod, list(ctx.modulus), ctx.p) if len(prod) > d else prod
        return Fq(ctx, tuple(list(red) + [0] * (d - len(red))))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative exponent; invert as a ** (p**d - 2)")
        result = self.ctx.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def __eq__(self, other):
        if isinstance(other, int):
            return self.coeffs == ((other % self.ctx.p,) + (0,) * (self.ctx.d - 1))
        if not isinstance(other, Fq):
            return NotImplemented
        return self.ctx == other.ctx and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.ctx.p, self.ctx.modulus, self.coeffs))

    def __repr__(self):
        return f"Fq{self.coeffs}@p{self.ctx.p}"


def _order_mod(p: int, N: int) -> int:
    if N == 1:
        return 1
    d, acc = 1, p % N
    while acc != 1:
        acc = acc * p % N
        d += 1
        if d > N:
            raise ValueError("p not coprime to N")
    return d


def root_of_order(p: int, n: int) -> int:
    """x = g^((p-1)/n) mod p for the least g >= 2 with x^(n/q) != 1 mod p for
    every prime q | n: a primitive n-th root of unity, for n | p - 1."""
    qs, g = _prime_factors(n), 2
    while True:
        x = pow(g, (p - 1) // n, p)
        if all(pow(x, n // q, p) != 1 for q in qs):
            return x
        g += 1


@lru_cache(maxsize=None)
def make_fq_context(p: int, N: int, twist: int = 1) -> FqContext:
    """Build the canonical residue-field context for (p, N).

    twist selects a Galois-conjugate embedding: the image of zeta_N becomes
    the twist-th power of the canonical one (twist coprime to N).
    """
    if not is_prime(p):
        raise BadPrimeError(f"{p} is not prime")
    if N < 1:
        raise ValueError("level must be positive")
    if N % p == 0:
        raise BadPrimeError("p must not divide N")
    if math.gcd(twist, N) != 1:
        raise ValueError("twist must be coprime to N")
    d = _order_mod(p, N)
    if N == 1:
        return FqContext(p, 1, 1, ((-1) % p, 1), (1,))
    if d == 1:  # the twist-th power of the smallest primitive N-th root
        r = root_of_order(p, N)
        least = min(pow(r, k, p) for k in range(1, N) if math.gcd(k, N) == 1)
        zeta = pow(least, twist % N, p)
        return FqContext(p, N, 1, ((-zeta) % p, 1), (zeta,))
    phi_n = [c % p for c in cyclotomic_polynomial(N)]
    if d == euler_phi(N):
        factors = [phi_n]
    else:
        rng = random.Random((p << 20) ^ N)
        factors = _equal_degree_factor(phi_n, d, p, rng)
    # canonical: smallest root vector, i.e. lexicographically smallest
    # tuple of negated coefficients read from the constant term upward
    factors.sort(key=lambda f: tuple((-c) % p for c in f[:-1]))
    ctx = FqContext(p, N, d, tuple(factors[0]), tuple([0, 1] + [0] * (d - 2)))
    if twist % N == 1:
        return ctx
    # move to the factor annihilating zeta^twist
    zt = ctx.zeta_image ** (twist % N)
    for f in factors:
        acc = ctx.zero()
        for c in reversed(f):
            acc = acc * zt + ctx.scalar(c)
        if acc.is_zero:
            return FqContext(p, N, d, tuple(f), tuple([0, 1] + [0] * (d - 2)))
    raise ArithmeticError("no factor annihilates the twisted root")


def to_residue_field(a: CycNum, ctx: FqContext) -> Fq:
    """Reduce a cyclotomic number modulo the prime ideal fixed by the context.

    Accepts elements of level N (the context level) or level p*N, where the
    p-power part of the root is sent to 1.  Raises BadPrimeError when the
    denominator is divisible by p.
    """
    p, N = ctx.p, ctx.N
    if a.den % p == 0:
        raise BadPrimeError(f"denominator divisible by {p}")
    L = a.level
    if L == N:
        w = ctx.zeta_image
    elif N == 1:
        rest = L
        while rest % p == 0:
            rest //= p
        if rest != 1:
            raise ValueError(f"cannot reduce level {L} in a level-1 context")
        w = ctx.one()
    else:
        q, rest = 1, L
        while rest % p == 0:
            rest //= p
            q *= p
        if rest != N or q == 1:
            raise ValueError(f"cannot reduce level {L} into context for level {N}")
        t = pow(L // N, -1, N)
        w = ctx.zeta_image ** t
    acc = ctx.zero()
    for c in reversed(a.nums):
        acc = acc * w + ctx.scalar(c)
    return acc * pow(a.den, p - 2, p)

