"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Elements are stored on the power basis 1, z, ..., z^(phi(N)-1) of Q(zeta_N),
where z = exp(2*pi*i/N), as an integer coefficient vector over a single
positive denominator.  The representation is kept normalized (content and
denominator coprime, denominator positive), so equality and hashing are
structural.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache

try:
    from gmpy2 import mpq as _QQ
except ImportError:  # pragma: no cover
    _QQ = Fraction


def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("n must be positive")
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def _divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _poly_div_exact(num: list[int], den: list[int]) -> list[int]:
    """Exact division of integer polynomials (constant term first)."""
    num = list(num)
    dn, dd = len(num) - 1, len(den) - 1
    lead = den[-1]
    quo = [0] * (dn - dd + 1)
    for i in range(dn - dd, -1, -1):
        c = num[i + dd]
        if c % lead != 0:
            raise ArithmeticError("non-exact polynomial division")
        q = c // lead
        quo[i] = q
        if q:
            for j, dj in enumerate(den):
                num[i + j] -= q * dj
    if any(num[: dd + 1]) or any(num[dd + 1 :]):
        if any(num):
            raise ArithmeticError("non-zero remainder in exact division")
    return quo


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, constant term first.

    Computed by dividing x^n - 1 by the cyclotomic polynomials of all proper
    divisors of n; the result is monic with integer coefficients.
    """
    if n < 1:
        raise ValueError("n must be positive")
    poly = [-1] + [0] * (n - 1) + [1]
    for d in _divisors(n):
        if d == n:
            continue
        poly = _poly_div_exact(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


class _LevelContext:
    """Cached reduction data for one cyclotomic level."""

    __slots__ = ("level", "phi", "modulus", "pow_table")

    def __init__(self, level: int):
        self.level = level
        mod = cyclotomic_polynomial(level)
        self.phi = len(mod) - 1
        self.modulus = mod
        # pow_table[k] = coordinates of z^k on the power basis, 0 <= k < level
        phi = self.phi
        table = []
        cur = [0] * phi
        cur[0] = 1
        for _ in range(level):
            table.append(tuple(cur))
            nxt = [0] + cur[: phi - 1]
            lead = cur[phi - 1]
            if lead:
                for i in range(phi):
                    nxt[i] -= lead * mod[i]
            cur = nxt
        self.pow_table = tuple(table)


@lru_cache(maxsize=None)
def _ctx(level: int) -> _LevelContext:
    return _LevelContext(level)


def _reduce_vector(vec: list[int], ctx: _LevelContext) -> list[int]:
    """Fold coordinates of degree >= phi back onto the power basis."""
    phi = ctx.phi
    out = list(vec[:phi]) + [0] * max(0, phi - len(vec))
    for k in range(phi, len(vec)):
        c = vec[k]
        if c:
            row = ctx.pow_table[k % ctx.level]
            for i in range(phi):
                out[i] += c * row[i]
    return out


class CycNum:
    """An element of Q(zeta_N) on the power basis with a common denominator."""

    __slots__ = ("level", "nums", "den", "_hash")

    def __init__(self, level: int, nums, den: int = 1, _normalized: bool = False):
        self.level = level
        if _normalized:
            self.nums = tuple(nums)
            self.den = den
        else:
            nums = list(nums)
            phi = _ctx(level).phi
            if len(nums) != phi:
                raise ValueError(f"expected {phi} coordinates at level {level}")
            if den == 0:
                raise ZeroDivisionError("zero denominator")
            if den < 0:
                den = -den
                nums = [-c for c in nums]
            g = den
            for c in nums:
                if c:
                    g = math.gcd(g, c)
                if g == 1:
                    break
            if g > 1:
                den //= g
                nums = [c // g for c in nums]
            self.nums = tuple(nums)
            self.den = den
        self._hash = None

    # ---- constructors -------------------------------------------------

    @classmethod
    def zero(cls, level: int) -> "CycNum":
        return cls(level, [0] * _ctx(level).phi, 1, _normalized=True)

    @classmethod
    def one(cls, level: int) -> "CycNum":
        v = [0] * _ctx(level).phi
        v[0] = 1
        return cls(level, v, 1, _normalized=True)

    @classmethod
    def rational(cls, level: int, value) -> "CycNum":
        q = Fraction(value)
        v = [0] * _ctx(level).phi
        v[0] = q.numerator
        return cls(level, v, q.denominator)

    @classmethod
    def root_power(cls, level: int, a: int) -> "CycNum":
        """zeta_level raised to the power a."""
        row = _ctx(level).pow_table[a % level]
        return cls(level, list(row), 1)

    @classmethod
    def from_coeffs(cls, level: int, coeffs) -> "CycNum":
        fracs = [Fraction(c) for c in coeffs]
        den = math.lcm(*[f.denominator for f in fracs]) if fracs else 1
        nums = [int(f * den) for f in fracs]
        return cls(level, nums, den)

    # ---- views ---------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.den) for c in self.nums)

    @property
    def is_zero(self) -> bool:
        return not any(self.nums)

    @property
    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError("element is not rational")
        return Fraction(self.nums[0], self.den)

    # ---- arithmetic ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, CycNum):
            if other.level != self.level:
                raise ValueError("level mismatch")
            return other
        if isinstance(other, (int, Fraction)):
            return CycNum.rational(self.level, other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        a, b = self, o
        if a.den == b.den:
            return CycNum(a.level, [x + y for x, y in zip(a.nums, b.nums)], a.den)
        return CycNum(
            a.level,
            [x * b.den + y * a.den for x, y in zip(a.nums, b.nums)],
            a.den * b.den,
        )

    __radd__ = __add__

    def __neg__(self):
        return CycNum(self.level, [-c for c in self.nums], self.den, _normalized=True)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        ctx = _ctx(self.level)
        phi = ctx.phi
        a, b = self.nums, o.nums
        conv = [0] * (2 * phi - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        conv[i + j] += ai * bj
        return CycNum(self.level, _reduce_vector(conv, ctx), self.den * o.den)

    __rmul__ = __mul__

    def inv(self) -> "CycNum":
        """Multiplicative inverse via the extended Euclidean algorithm."""
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero")
        ctx = _ctx(self.level)
        mod = [_QQ(c) for c in ctx.modulus]
        a = [_QQ(c, self.den) for c in self.nums]
        # extended gcd of a and the modulus over Q[x]
        r0, r1 = mod, a
        t0, t1 = [_QQ(0)], [_QQ(1)]
        while True:
            r1 = _poly_trim(r1)
            if len(r1) == 1 and r1[0] != 0:
                break
            if not any(r1):
                raise ZeroDivisionError("element not invertible")
            q, rem = _poly_divmod_q(r0, r1)
            r0, r1 = r1, rem
            t0, t1 = t1, _poly_sub_q(t0, _poly_mul_q(q, t1))
        scale = r1[0]
        inv_coeffs = [t / scale for t in t1]
        inv_coeffs += [_QQ(0)] * (ctx.phi - len(inv_coeffs))
        fr = [Fraction(int(c.numerator), int(c.denominator)) for c in inv_coeffs[: ctx.phi]]
        return CycNum.from_coeffs(self.level, fr)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self * o.inv()

    def __pow__(self, e: int):
        if e < 0:
            return self.inv() ** (-e)
        result = CycNum.one(self.level)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def galois(self, s: int) -> "CycNum":
        """Apply the field automorphism zeta -> zeta^s (gcd(s, level) = 1)."""
        if math.gcd(s, self.level) != 1:
            raise ValueError("automorphism exponent must be coprime to the level")
        ctx = _ctx(self.level)
        phi = ctx.phi
        out = [0] * phi
        for i, c in enumerate(self.nums):
            if c:
                row = ctx.pow_table[s * i % self.level]
                for j in range(phi):
                    out[j] += c * row[j]
        return CycNum(self.level, out, self.den)

    def conj(self) -> "CycNum":
        """Complex conjugation, zeta -> zeta^(-1)."""
        return self.galois(self.level - 1 if self.level > 1 else 1)

    def lift(self, new_level: int) -> "CycNum":
        """Reinterpret at a multiple of the current level."""
        if new_level == self.level:
            return self
        if new_level % self.level != 0:
            raise ValueError("new level must be a multiple of the current one")
        step = new_level // self.level
        ctx = _ctx(new_level)
        out = [0] * ctx.phi
        for i, c in enumerate(self.nums):
            if c:
                row = ctx.pow_table[i * step % new_level]
                for j in range(ctx.phi):
                    out[j] += c * row[j]
        return CycNum(new_level, out, self.den)

    def embed(self, precision: int = 53):
        return embed_complex(self, precision)

    # ---- protocol ------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycNum.rational(self.level, other)
        if not isinstance(other, CycNum):
            return NotImplemented
        return (
            self.level == other.level
            and self.den == other.den
            and self.nums == other.nums
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.level, self.nums, self.den))
        return self._hash

    def __bool__(self):
        return not self.is_zero

    def __repr__(self):
        terms = []
        for i, c in enumerate(self.nums):
            if not c:
                continue
            q = Fraction(c, self.den)
            if i == 0:
                terms.append(f"{q}")
            elif i == 1:
                terms.append(f"{q}*z{self.level}")
            else:
                terms.append(f"{q}*z{self.level}^{i}")
        return "CycNum(" + (" + ".join(terms) if terms else "0") + ")"


# ---- helper polynomial arithmetic over rationals (for inversion) --------


def _poly_trim(p):
    i = len(p)
    while i > 1 and p[i - 1] == 0:
        i -= 1
    return p[:i]


def _poly_divmod_q(a, b):
    a = list(a)
    b = _poly_trim(b)
    db = len(b) - 1
    lead = b[-1]
    if len(a) - 1 < db:
        return [_QQ(0)], a
    quo = [_QQ(0)] * (len(a) - db)
    for i in range(len(a) - 1 - db, -1, -1):
        c = a[i + db]
        if c:
            q = c / lead
            quo[i] = q
            for j in range(db + 1):
                a[i + j] -= q * b[j]
    return quo, _poly_trim(a)


def _poly_mul_q(a, b):
    out = [_QQ(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _poly_sub_q(a, b):
    n = max(len(a), len(b))
    a = list(a) + [_QQ(0)] * (n - len(a))
    for i, bi in enumerate(b):
        a[i] -= bi
    return a


# ---- complex embedding ---------------------------------------------------


def embed_complex(a: CycNum, precision: int = 53):
    """Evaluate the power-basis polynomial at exp(2*pi*i/level).

    For precision <= 53 a Python complex is returned; otherwise an mpmath
    complex computed with enough guard bits that the result is accurate to
    better than 2**(4 - precision) relative to the coefficient size.
    """
    if precision <= 53:
        z = cmath.exp(2j * cmath.pi / a.level)
        acc = 0j
        for c in reversed(a.nums):
            acc = acc * z + c
        return acc / a.den
    import mpmath

    size_bits = max(abs(c) for c in a.nums).bit_length() if any(a.nums) else 1
    with mpmath.workprec(precision + size_bits + 16):
        z = mpmath.expjpi(mpmath.mpf(2) / a.level)
        acc = mpmath.mpc(0)
        for c in reversed(a.nums):
            acc = acc * z + c
        return acc / a.den
