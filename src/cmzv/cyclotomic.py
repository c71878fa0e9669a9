"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Elements are stored on the power basis 1, z, ..., z^(phi(N)-1) of Q(zeta_N),
where z = exp(2*pi*i/N), as an integer coefficient vector over a single
positive denominator.  The representation is kept normalized (content and
denominator coprime, denominator positive), so equality and hashing are
structural.
"""

from __future__ import annotations

import cmath
import itertools
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np


def _prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n, increasing."""
    out, q = [], 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1
    return out + [n] * (n > 1)


def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("n must be positive")
    qs = _prime_factors(n)
    return n // math.prod(qs) * math.prod(q - 1 for q in qs)


def _moebius_binomials(n: int) -> tuple[list[int], list[int]]:
    """The d | n with mu(n/d) = 1, n first, and those with mu(n/d) = -1."""
    qs = _prime_factors(n)
    plus, minus = [], []
    for r in range(len(qs) + 1):
        for S in itertools.combinations(qs, r):
            (minus if r % 2 else plus).append(n // math.prod(S))
    return plus, minus


def _binomial_series(times, over, length: int) -> np.ndarray:
    """prod(x^d - 1 for d in times) / prod(x^d - 1 for d in over) mod x^length.

    Python integers: no bound on the coefficients.  Each binomial costs
    O(length): a product shifts and subtracts, and a quotient, a power series
    as x^d - 1 has constant term -1, takes negated prefix sums along stride d.
    """
    s = np.zeros(length, dtype=object)
    s[0] = 1
    for d in times:
        s = np.concatenate((np.zeros(d, dtype=object), s))[:length] - s
    for d in over:
        a = np.zeros(-(-length // d) * d, dtype=object)
        a[:length] = s
        s = -np.cumsum(a.reshape(-1, d), axis=0).ravel()[:length]
    return s


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, constant term first.

    The Moebius product of x^d - 1 over d | n: the product of the binomials
    with mu(n/d) = 1, over those with mu(n/d) = -1, as a power series mod
    x^(phi(n) + 1).
    """
    if n < 1:
        raise ValueError("n must be positive")
    return tuple(_binomial_series(*_moebius_binomials(n), euler_phi(n) + 1).tolist())


class _LevelContext:
    """Cached reduction data for one cyclotomic level."""

    __slots__ = ("level", "phi", "fold", "power_bound", "_table", "_pow_table")

    def __init__(self, level: int):
        self.level = L = level
        mod = cyclotomic_polynomial(level)
        self.phi = phi = len(mod) - 1
        # table[k] = coordinates of z^k on the power basis, 0 <= k < level.
        # With Psi = (x^L - 1)/Phi, x^k Psi mod x^L - 1 is (x^k mod Phi) Psi
        # (both sides have degree < L), and 1/Psi = -Phi mod x^L, so
        # x^k mod Phi = -(Phi * (x^k Psi mod x^L - 1)) mod x^phi: row k,
        # column i is -P[(i - k) % L, i], P[d, i] the sum over t <= i of
        # Phi[t] Psi[(d - t) % L], at most phi max|Phi| max|Psi| in size.
        plus, minus = _moebius_binomials(level)
        psi = _binomial_series(minus, plus[1:], L - phi + 1)  # degree L - phi
        kind = np.int64 if phi * max(map(abs, mod)) * max(map(abs, psi)) < 2**63 else object
        ext = np.zeros(L + phi - 1, dtype=kind)  # ext[phi - 1 + j] = Psi[j]
        ext[phi - 1 : L] = psi
        t, k = np.arange(phi), np.arange(L)[:, None]
        P = np.cumsum(ext[phi - 1 + k - t] * np.array(mod[:phi], dtype=kind), axis=1)
        table = -np.concatenate((P, P))[t + L - k, t]
        self._table, self._pow_table = table, None
        # the largest |coordinate| of any z^k: reducing an integer vector mod
        # x^L - 1 onto the power basis scales its l1 norm by at most this
        self.power_bound = int(np.abs(table).max())
        # the nonzero entries of table, column by column, for the fold;
        # rows k < phi are unit vectors, so no column's segment is empty
        cols, rows = np.nonzero(table.T)
        self.fold = (rows, table[rows, cols].astype(object), np.searchsorted(cols, np.arange(phi)))

    @property
    def pow_table(self) -> tuple[tuple[int, ...], ...]:
        """Row k: the coordinates of z^k on the power basis as ints, 0 <= k < level.

        Built on the first read, as only CycNum.root_power reads it.
        """
        if self._pow_table is None:
            self._pow_table = tuple(map(tuple, self._table.tolist()))
        return self._pow_table


@lru_cache(maxsize=None)
def _ctx(level: int) -> _LevelContext:
    return _LevelContext(level)


def _reduce_vector(vec: list[int], ctx: _LevelContext) -> list[int]:
    """Fold coordinates of degree >= phi back onto the power basis.

    Degrees from the level up first wrap around, as z^level = 1.  Then
    coordinate i is the sum of vec[k] * pow_table[k][i] over the nonzero
    entries of its column: one gather, one product and one segmented sum.
    """
    L = ctx.level
    v = np.zeros(-(-max(len(vec), L) // L) * L, dtype=object)
    v[: len(vec)] = vec
    rows, values, starts = ctx.fold
    return np.add.reduceat(v.reshape(-1, L).sum(axis=0)[rows] * values, starts).tolist()


def _fold(level: int, vec: list[int], den: int) -> "CycNum":
    """vec/den, with vec an integer vector mod x^level - 1, as a CycNum."""
    return CycNum(level, _reduce_vector(vec, _ctx(level)), den)


def _normalize(vec, den: int):
    """vec/den with den > 0 and no common factor of den and all of vec."""
    if den < 0:
        den = -den
        vec = [-x for x in vec]
    g = den
    for x in vec:
        if x:
            g = math.gcd(g, x)
            if g == 1:
                return vec, den
    if g > 1:
        vec = [x // g for x in vec]
        den //= g
    return vec, den


def _poly_mul(va, vb) -> list[int]:
    """Product of two integer polynomials (constant term first).

    Kronecker substitution: both vectors are packed into big integers with
    digits wide enough for any product coefficient, and multiplied once.
    """
    n = len(va) + len(vb) - 1
    amax = max(abs(x) for x in va)
    bmax = max(abs(x) for x in vb)
    if amax == 0 or bmax == 0:
        return [0] * n
    bound = min(len(va), len(vb)) * amax * bmax
    db = (bound.bit_length() + 10) // 8 + 1  # bytes per digit, B/2 > bound
    half = 1 << (8 * db - 1)

    def pack(vec, positive):
        if positive:
            chunks = [(x if x > 0 else 0).to_bytes(db, "little") for x in vec]
        else:
            chunks = [(-x if x < 0 else 0).to_bytes(db, "little") for x in vec]
        return int.from_bytes(b"".join(chunks), "little")

    A = pack(va, True) - pack(va, False)
    Bb = pack(vb, True) - pack(vb, False)
    # each digit of the offset product lies in (0, B), so no digit borrows
    offset = int.from_bytes(half.to_bytes(db, "little") * n, "little")
    raw = (A * Bb + offset).to_bytes(n * db, "little")
    return [int.from_bytes(raw[i * db : (i + 1) * db], "little") - half for i in range(n)]


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
            nums, self.den = _normalize(nums, den)
            self.nums = tuple(nums)
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
        # an exact int is its own numerator over 1; a bool goes through Fraction
        num, den = (value, 1) if type(value) is int else Fraction(value).as_integer_ratio()
        v = [0] * _ctx(level).phi
        v[0] = num
        return cls(level, v, den, _normalized=den == 1)

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
        return _fold(self.level, _poly_mul(self.nums, o.nums), self.den * o.den)

    __rmul__ = __mul__

    def inv(self) -> "CycNum":
        """Multiplicative inverse through the norm.

        With P the product of the conjugates sigma_s(a), s != 1, the norm
        N(a) = a * P is rational and a^-1 = P / N(a).
        """
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero")
        L = self.level
        P = CycNum.one(L)
        for s in range(2, L):
            if math.gcd(s, L) == 1:
                P = P * self.galois(s)
        norm = (self * P).as_fraction()
        return CycNum(L, [c * norm.denominator for c in P.nums], P.den * norm.numerator)

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
        L = self.level
        vec = [0] * L
        for i, c in enumerate(self.nums):
            vec[s * i % L] = c
        return _fold(L, vec, self.den)

    def conj(self) -> "CycNum":
        """Complex conjugation, zeta -> zeta^(-1)."""
        return self.galois(self.level - 1 if self.level > 1 else 1)

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
