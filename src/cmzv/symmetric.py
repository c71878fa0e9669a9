"""Numeric colored MZVs, regularized T-polynomials, and symmetric values.

Colored MZVs are evaluated by direct truncated summation with an explicit
tail bound that is propagated through every polynomial operation, so each
final number carries a defensible tolerance instead of a magic epsilon.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from .qsums import truncated_cmzv_numeric
from .words import (
    Index,
    Word,
    cumulate_roots,
    difference_roots,
    harmonic_regularize,
    index_to_word,
    shuffle_regularize,
    word_to_index,
)


@dataclass(frozen=True)
class MzvEvalConfig:
    cutoff: int = 10**6
    precision: int = 64

    def __post_init__(self):
        if self.cutoff < 10**3:
            raise ValueError("cutoff below 1000 gives useless tail bounds")


_MZV_CACHE: dict = {}


def _tail_estimate(ix: Index, cfg: MzvEvalConfig) -> float:
    if ix.depth == 0:
        return 0.0
    M = cfg.cutoff
    r = ix.depth
    k1, e1 = ix.ks[0], ix.es[0]
    logs = (2.0 * math.log(M)) ** (r - 1)
    if k1 >= 2:
        # sum_{n >= M} n^-k <= integral from M-1, and the truncation is strict
        tail = logs * float(M - 1) ** (1 - k1) / (k1 - 1)
    else:
        # leading exponent 1 needs a nontrivial color; partial sums of
        # eta^n are bounded by 2/|1 - eta|, Abel summation gives ~1/M decay
        gap = 2.0 * math.sin(math.pi * e1 / ix.level)
        tail = (4.0 / gap) * logs / M
    # floating accumulation over M terms
    rounding = 2.0 ** (1 - cfg.precision) * M * logs
    return tail + rounding


def mzv_numeric(x, cfg: MzvEvalConfig | None = None) -> tuple[complex, float]:
    """Numeric colored MZV of an admissible index (or word): (value, tol)."""
    if cfg is None:
        cfg = MzvEvalConfig()
    ix = word_to_index(x) if isinstance(x, Word) else x
    if not ix.is_admissible:
        raise ValueError(f"{ix!r} is not admissible; the series diverges")
    if ix.depth == 0:
        return (1.0 + 0.0j, 0.0)
    key = (ix.level, ix.ks, ix.es, cfg.cutoff, cfg.precision)
    hit = _MZV_CACHE.get(key)
    if hit is not None:
        return hit
    value = truncated_cmzv_numeric(cfg.cutoff, ix, cfg.precision)
    out = (value, _tail_estimate(ix, cfg))
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
    lead = 0
    while lead < len(w.letters) and w.letters[lead] == 0:
        lead += 1
    lam = reg_correction_coefficients(max(2, lead))
    right = RegPoly((0j,), 0.0)
    for n in range(lead + 1):
        u = Word(w.letters[n:], w.level)
        piece = shuffle_regularized_mzv(cumulate_roots(u), cfg)
        right = right + piece.scale(lam.coeffs[n])
    diff = left + right.scale(-1.0)
    residual = max((abs(c) for c in diff.coeffs), default=0.0)
    return residual, diff.tol
