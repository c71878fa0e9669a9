"""Numeric colored MZVs, regularized T-polynomials, and symmetric values.

A colored MZV is evaluated by the Hölder convolution of multiple
polylogarithms (Borwein, Bradley, Broadhurst and Lisoněk, "Special values
of multiple polylogarithms", Trans. AMS 353 (2001), arXiv:math/9910045), in
the G-function form of Vollinga and Weinzierl ("Numerical evaluation of
multiple polylogarithms", CPC 167 (2005), arXiv:hep-ph/0410259).  The index
(k; eta) is the word a = 0^(k1-1) b1 ... 0^(kr-1) br, b_j = 1/(eta_1...eta_j),
and

    zeta(k; eta) = (-1)^r sum_j (-1)^j G(1-a_j, ..., 1-a_1; 1-y) G(a_(j+1), ..., a_w; y)

with y = 1/(1+delta), delta = min(1, |1 - b| over the letters b != 1).  Each
G is a multiple polylogarithm whose terms fall like rho^n1 with rho =
1/(1+delta), 1/2 for N <= 6, so precision/log2(1/rho) terms and a few more
suffice.  The geometric tail bound and a rounding bound of every piece are
propagated through every polynomial operation, so each final number carries
a defensible tolerance instead of a magic epsilon.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .qsums import float_types
from .words import (
    Index,
    Word,
    _run,
    cumulate_roots,
    difference_roots,
    harmonic_regularize,
    index_to_word,
    nested_sum,
    shuffle_regularize,
    word_to_index,
)


@dataclass(frozen=True)
class MzvEvalConfig:
    precision: int = 64

    def __post_init__(self):
        if self.precision < 1:
            raise ValueError("precision must be positive")


_MZV_CACHE: dict = {}


def _log_tail(s: int, M: int, rho: float) -> float:
    """log of a bound on the terms n1 > M of a depth-s G with ratio rho.

    There are C(n1-1, s-1) terms of size at most rho^n1 for each n1, and
    C(n, s-1)/C(n-1, s-1) <= g for n > M, so the tail is at most
    C(M, s-1) rho^(M+1) / (1 - g rho); +inf where g rho >= 1.
    """
    g = (M + 1) / (M + 2 - s)
    if g * rho >= 1:
        return math.inf
    return math.log(math.comb(M, s - 1)) + (M + 1) * math.log(rho) - math.log1p(-g * rho)


def _g_sum(word, y, M, dtype, n):
    """G(word; y) summed over n1 <= M, and its depth s.

    word is a list of letters, None for the letter 0, ending in a nonzero
    letter; G = (-1)^s Li_m(y/z1, z1/z2, ...) for word = 0^(m1-1) z1 ...
    """
    ms, zs, m = [], [], 1
    for z in word:
        if z is None:
            m += 1
        else:
            ms.append(m)
            zs.append(z)
            m = 1
    s = len(zs)
    if s == 0:
        return 1, 0
    xs = [prev / z for prev, z in zip([y] + zs, zs)]
    value = nested_sum(s, lambda j: np.cumprod(np.full(M, xs[j], dtype)) / n ** ms[j])
    return (-value if s % 2 else value), s


def _holder(ix: Index, precision: int, real, root, dtype, u: float):
    """zeta(ix) by Hölder convolution, in the number type of real and dtype.

    root(t) is zeta_N^t in that type and u its unit roundoff.  Returns the
    value in that type and a bound on its error.
    """
    N = ix.level
    letters, t = [], 0  # a as exponents of zeta_N, None for the letter 0
    for k, e in zip(ix.ks, ix.es):
        t = (t - e) % N
        letters += [None] * (k - 1) + [t]
    w = len(letters)
    delta = min([1.0] + [2 * math.sin(math.pi * b / N) for b in letters if b])
    rho = 1 / (1 + delta)  # the largest y/|a| and (1-y)/|1-a| over nonzero letters
    M = max(w, math.ceil(precision * math.log(2) / -math.log(rho)))
    while _log_tail(w, M, rho) > -precision * math.log(2):
        M += 1
    n = np.arange(1, M + 1, dtype=object if dtype is object else real)
    y = real(rho)
    roots = {b: root(b) for b in set(letters) if b is not None}
    a = [None if b is None else roots[b] for b in letters]
    one_minus_a = [real(1) if b is None else (None if b == 0 else 1 - roots[b]) for b in letters]

    def bounds(s):
        """|G| and the error of the computed G for a depth-s piece."""
        if s == 0:
            return 1.0, 0.0
        B = (rho / (1 - rho)) ** s  # sum over n1 of C(n1-1, s-1) rho^n1
        # A column entry x^n/n^m carries n times the error of x (two letters,
        # 19u/delta each, and a division) plus 3u per product of the cumprod;
        # the prefix sums add M roundings at the outer slot and n1 at each
        # inner one; and sum n1 C(n1-1, s-1) rho^n1 = s B/(1 - rho).
        rounding = 1.01 * u * B * (M + 5 * s + (40 / delta + 12) * s * s / (1 - rho))
        return B, math.exp(_log_tail(s, M, rho)) + rounding

    total, tol, size = 0, 0.0, 0.0
    for j in range(w + 1):
        left, s_left = _g_sum(one_minus_a[:j][::-1], 1 - y, M, dtype, n)
        right, s_right = _g_sum(a[j:], y, M, dtype, n)
        (b_l, t_l), (b_r, t_r) = bounds(s_left), bounds(s_right)
        total = total + (-left * right if j % 2 else left * right)
        tol += t_l * (b_r + t_r) + t_r * b_l
        size += b_l * b_r
    value = -total if ix.depth % 2 else total
    return value, tol + 2 * (w + 2) * u * size


def _evaluate(ix: Index, precision: int):
    """_holder in the number type float_types picks for precision.

    Where the columns x^n outgrow the float's exponent range, which takes a
    level near 40 in float64, the sum is made again in mpmath.
    """
    N = ix.level
    types = float_types(precision)
    if types is not None:
        real, cplx, pi = types
        try:
            with np.errstate(over="raise"):
                return _holder(
                    ix, precision, real,
                    lambda t: np.cos(2 * pi * t / N) + 1j * np.sin(2 * pi * t / N),
                    cplx, float(np.finfo(real).eps) / 2,
                )
        except FloatingPointError:
            pass
    import mpmath

    work = precision + 16
    with mpmath.workprec(work):
        return _holder(
            ix, precision, mpmath.mpf,
            lambda t: mpmath.expjpi(mpmath.mpf(2 * t) / N), object, math.ldexp(1.0, -work),
        )


def mzv_numeric(x, cfg: MzvEvalConfig | None = None) -> tuple[complex, float]:
    """Numeric colored MZV of an admissible index (or word): (value, tol)."""
    if cfg is None:
        cfg = MzvEvalConfig()
    ix = word_to_index(x) if isinstance(x, Word) else x
    if not ix.is_admissible:
        raise ValueError(f"{ix!r} is not admissible; the series diverges")
    if ix.depth == 0:
        return (1.0 + 0.0j, 0.0)
    key = (ix.level, ix.ks, ix.es, cfg.precision)
    hit = _MZV_CACHE.get(key)
    if hit is not None:
        return hit
    value, tol = _evaluate(ix, cfg.precision)
    value = complex(value)
    out = (value, tol + 2.0**-53 * abs(value))
    _MZV_CACHE[key] = out
    return out


# ---- polynomials in the regularization variable -----------------------------


@dataclass(frozen=True)
class RegPoly:
    """Polynomial in the regularization variable with a tracked tolerance."""

    coeffs: tuple
    tol: float = 0.0

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def norm(self) -> float:
        return sum(abs(c) for c in self.coeffs)

    def __add__(self, other: "RegPoly") -> "RegPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        cs = [0j] * n
        for i, c in enumerate(self.coeffs):
            cs[i] += c
        for i, c in enumerate(other.coeffs):
            cs[i] += c
        return RegPoly(tuple(cs), self.tol + other.tol)

    def __mul__(self, other: "RegPoly") -> "RegPoly":
        if not self.coeffs or not other.coeffs:
            return RegPoly((), self.tol + other.tol)
        cs = [0j] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    cs[i + j] += a * b
        tol = self.tol * other.norm() + other.tol * self.norm() + self.tol * other.tol
        return RegPoly(tuple(cs), tol)

    def scale(self, c) -> "RegPoly":
        c = complex(c)
        return RegPoly(tuple(c * x for x in self.coeffs), self.tol * abs(c))

    def shift(self, delta) -> "RegPoly":
        """Substitute T -> T + delta."""
        delta = complex(delta)
        n = len(self.coeffs)
        cs = [0j] * n
        for j, c in enumerate(self.coeffs):
            if not c:
                continue
            p = 1.0 + 0.0j
            for i in range(j, -1, -1):
                cs[i] += c * math.comb(j, j - i) * p
                p *= delta
        return RegPoly(tuple(cs), self.tol * (1.0 + abs(delta)) ** max(0, n - 1))

    def eval(self, t) -> complex:
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc


def _rows_to_poly(rows, piece_value, cfg) -> RegPoly:
    """Assemble sum_j (sum_t c * value(t)) T^j from regularization rows."""
    if not rows:
        return RegPoly((0j,), 0.0)
    deg = max(j for j, _ in rows)
    cs = [0j] * (deg + 1)
    tol = 0.0
    for j, comb in rows:
        for t, c in comb:
            val, vt = piece_value(t, cfg)
            weight = float(c) if isinstance(c, Fraction) else c
            cs[j] += weight * val
            tol += abs(weight) * vt
    return RegPoly(tuple(cs), tol)


def harmonic_regularized_mzv(x, cfg: MzvEvalConfig | None = None) -> RegPoly:
    """The harmonic-regularized value as a polynomial in T.

    Degree 0 for admissible input; the single divergent letter maps to T.
    """
    if cfg is None:
        cfg = MzvEvalConfig()
    w = index_to_word(x) if isinstance(x, Index) else x
    rows = harmonic_regularize(w)
    return _rows_to_poly(rows, lambda t, c: mzv_numeric(t, c), cfg)


def shuffle_regularized_mzv(w: Word, cfg: MzvEvalConfig | None = None) -> RegPoly:
    """The shuffle-regularized iterated-integral value as a polynomial in T.

    Each admissible piece is evaluated by undoing the cumulative-root rewrite
    and summing the corresponding series; e_0 alone maps to the zero
    polynomial and the empty word to 1.
    """
    if cfg is None:
        cfg = MzvEvalConfig()
    rows = shuffle_regularize(w)
    return _rows_to_poly(
        rows, lambda t, c: mzv_numeric(word_to_index(difference_roots(t)), c), cfg
    )


# ---- symmetric values --------------------------------------------------------


def symmetric_pair_polynomial(ix: Index, exponent: int, cfg: MzvEvalConfig) -> RegPoly:
    """The two-sided regularized product sum, as a polynomial in T.

    For each split point j: sign (-1)^(k_1+..+k_j), root prefactor
    (eta_1...eta_j)^exponent, reversed-conjugated prefix at T + pi*i/2,
    suffix at T - pi*i/2.
    """
    N = ix.level
    r = ix.depth
    half_turn = 1j * math.pi / 2
    total = RegPoly((0j,), 0.0)
    for j in range(r + 1):
        pre_ks = ix.ks[:j][::-1]
        pre_es = tuple(-e % N for e in ix.es[:j][::-1])
        suf_ks, suf_es = ix.ks[j:], ix.es[j:]
        left = harmonic_regularized_mzv(Index(pre_ks, pre_es, N), cfg).shift(half_turn)
        right = harmonic_regularized_mzv(Index(suf_ks, suf_es, N), cfg).shift(-half_turn)
        sign = -1 if sum(ix.ks[:j]) % 2 else 1
        root = cmath.exp(2j * math.pi * ((sum(ix.es[:j]) * exponent) % N) / N)
        total = total + (left * right).scale(sign * root)
    return total


@dataclass(frozen=True)
class SymmetricValue:
    value: complex
    poly: RegPoly
    tol: float
    t_independent: bool


T_INDEPENDENCE_FACTOR = 20.0


def symmetric_cmzv(alpha: int, ix: Index, cfg: MzvEvalConfig | None = None) -> SymmetricValue:
    """Symmetric colored MZV for the residue class alpha.

    The defining polynomial is T-independent in exact arithmetic; numerically
    every T^j coefficient (j >= 1) must vanish within a small multiple of the
    propagated tolerance, and the flag records whether that held.
    """
    if cfg is None:
        cfg = MzvEvalConfig()
    poly = symmetric_pair_polynomial(ix, alpha, cfg)
    floor = T_INDEPENDENCE_FACTOR * max(poly.tol, 1e-15)
    ok = all(abs(c) <= floor for c in poly.coeffs[1:])
    return SymmetricValue(poly.coeffs[0], poly, poly.tol, ok)


# ---- the exponential correction series and the regularization relation ------


@dataclass(frozen=True)
class LambdaSeries:
    """Taylor coefficients of exp(sum_{n>=2} ((-1)^(n-1)/n) zeta(n) x^n)."""

    coeffs: tuple[float, ...]

    def __post_init__(self):
        if not self.coeffs or self.coeffs[0] != 1.0:
            raise ValueError("series must start at 1")
        if len(self.coeffs) > 1 and self.coeffs[1] != 0.0:
            raise ValueError("linear coefficient must vanish")


def reg_correction_coefficients(n_max: int) -> LambdaSeries:
    """First n_max+1 coefficients, via the ODE recurrence m*l_m = sum j a_j l_(m-j)."""
    import mpmath

    a = [0.0, 0.0] + [
        ((-1) ** (n - 1)) / n * float(mpmath.zeta(n)) for n in range(2, n_max + 1)
    ]
    lam = [1.0, 0.0]
    for m in range(2, n_max + 1):
        s = 0.0
        for j in range(2, m + 1):
            s += j * a[j] * lam[m - j]
        lam.append(s / m)
    return LambdaSeries(tuple(lam[: n_max + 1]))


def regularization_relation_residual(
    w: Word, cfg: MzvEvalConfig | None = None
) -> tuple[float, float]:
    """Coefficientwise residual of the harmonic/shuffle comparison identity.

    Checks L_*(w; T) against sum_n lambda_n * I(cumulated tail_n; T), where
    tail_n drops n leading root(0) letters from w.  The identity is exact;
    numerics leave a residual, returned along with the propagated tolerance
    of the difference polynomial.
    """
    if cfg is None:
        cfg = MzvEvalConfig()
    if not w.is_index_word:
        raise ValueError("needs a word ending in a root letter")
    left = harmonic_regularized_mzv(w, cfg)
    lead = _run(w.letters, 0)
    lam = reg_correction_coefficients(max(2, lead))
    right = RegPoly((0j,), 0.0)
    for n in range(lead + 1):
        u = Word(w.letters[n:], w.level)
        piece = shuffle_regularized_mzv(cumulate_roots(u), cfg)
        right = right + piece.scale(lam.coeffs[n])
    diff = left + right.scale(-1.0)
    residual = max((abs(c) for c in diff.coeffs), default=0.0)
    return residual, diff.tol
