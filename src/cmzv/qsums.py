"""Multiple harmonic q-sums at roots of unity, exact and numeric.

The exact evaluator works at q = zeta_m with values in Q(zeta_L), L =
lcm(m, N).  Internally elements are integer coefficient vectors modulo
x^L - 1 (so multiplication is cyclic convolution, done by Kronecker
substitution into one big-integer product); only the final answer is reduced
into the power basis of Q(zeta_L).  The key identity keeping denominators
small: for a primitive M-th root xi (M >= 2),

    1/(1 - xi) = (1/M) * sum_{j=0}^{M-2} (M-1-j) xi^j.

Numeric mode evaluates at q = exp(2 pi i/m) with vectorized cumulative sums,
using |[n]_q| = sin(pi n/m)/sin(pi/m) >= 1 for stability.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from .cyclotomic import CycNum, _cyc_mul, _fold, _normalize
from .words import Index, nested_sum

EXACT_LEVEL_LIMIT = 1200


# ---- operation counting (used by cost-model tests) --------------------------


class OpCounter:
    __slots__ = ("count",)

    def __init__(self):
        self.count = 0


_ACTIVE_COUNTERS: list[OpCounter] = []


@contextmanager
def field_op_counter():
    c = OpCounter()
    _ACTIVE_COUNTERS.append(c)
    try:
        yield c
    finally:
        _ACTIVE_COUNTERS.remove(c)


def _tick(k: int = 1):
    if _ACTIVE_COUNTERS:
        for c in _ACTIVE_COUNTERS:
            c.count += k


# ---- exact engine: integer vectors mod x^L - 1 ------------------------------


class _CycElt:
    """vec/den with vec an integer vector mod x^L - 1."""

    __slots__ = ("L", "vec", "den")

    def __init__(self, L, vec, den=1):
        self.L = L
        self.vec, self.den = _normalize(vec, den)

    def __mul__(self, other: "_CycElt") -> "_CycElt":
        _tick()
        return _CycElt(self.L, _cyc_mul(self.L, self.vec, other.vec), self.den * other.den)

    def __add__(self, other: "_CycElt") -> "_CycElt":
        g = math.gcd(self.den, other.den)
        ca, cb = other.den // g, self.den // g
        vec = [ca * x + cb * y for x, y in zip(self.vec, other.vec)]
        return _CycElt(self.L, vec, self.den * ca)

    def rot(self, t: int) -> "_CycElt":
        """Multiply by zeta_L^t (an index rotation)."""
        t %= self.L
        if t == 0:
            return self
        vec = self.vec[-t:] + self.vec[:-t]
        out = _CycElt.__new__(_CycElt)
        out.L, out.vec, out.den = self.L, vec, self.den
        return out


def _inv_one_minus_root(L: int, u: int) -> _CycElt:
    """1/(1 - zeta_L^u) for u != 0 mod L."""
    u %= L
    if u == 0:
        raise ZeroDivisionError("1 - zeta^0 is zero")
    M = L // math.gcd(L, u)
    vec = [0] * L
    for j in range(M - 1):
        vec[(j * u) % L] += M - 1 - j
    return _CycElt(L, vec, M)


def qsum_exact(m: int, index: Index) -> CycNum:
    """Exact multiple harmonic q-sum at q = zeta_m, in Q(zeta_lcm(m,N)).

    Sum over m > n_1 > ... > n_r > 0 of prod eta_j^{n_j} / [n_j]^{k_j} with
    [n] = (1 - zeta_m^n)/(1 - zeta_m).  Empty index gives 1.
    """
    if m < 1:
        raise ValueError("m must be positive")
    N = index.level
    L = math.lcm(m, N)
    if L > EXACT_LEVEL_LIMIT:
        raise ValueError(
            f"exact mode limited to lcm(m, N) <= {EXACT_LEVEL_LIMIT}, got {L}"
        )
    r = index.depth
    if r == 0:
        return CycNum.one(L)
    if r >= m:
        return CycNum.zero(L)
    sm = L // m  # zeta_m = zeta_L^sm
    sn = L // N  # zeta_N = zeta_L^sn
    vec = [0] * L
    vec[0] = 1
    vec[sm] -= 1
    one_minus_q = _CycElt(L, vec)
    # powers[k - 1][n - 1] = 1/[n]^k, grown only as far as the columns need
    powers = [[one_minus_q * _inv_one_minus_root(L, sm * n) for n in range(1, m)]]

    def column(j):
        k, e = index.ks[j], index.es[j]
        while len(powers) < k:
            powers.append([a * b for a, b in zip(powers[-1], powers[0])])
        terms = [t.rot(sn * e * n) for n, t in enumerate(powers[k - 1], 1)]
        return np.array(terms, dtype=object)

    total = nested_sum(r, column)
    return _fold(L, total.vec, total.den)


# ---- numeric engine ----------------------------------------------------------


# the significand of numpy's longdouble: 64 bits on x86-64, 53 where it is double
LONGDOUBLE_BITS = np.finfo(np.longdouble).nmant + 1


def _longdouble_pi():
    import mpmath

    # 40 digits: enough for a 113-bit longdouble
    with mpmath.workdps(50):
        return np.longdouble(mpmath.nstr(mpmath.pi, 40))


def float_types(precision: int):
    """(real, complex, pi) of the narrowest numpy float with `precision` bits.

    None when no numpy float has them; the caller then works in mpmath.
    """
    if precision <= 53:
        return np.float64, np.complex128, np.pi
    if precision <= LONGDOUBLE_BITS:
        return np.longdouble, np.clongdouble, _longdouble_pi()
    return None


def _numeric_sum(m, index, weights, precision):
    """The nested sum below m, one numpy column per slot."""
    r = index.depth
    if r == 0:
        return 1.0 + 0.0j
    if r >= m:
        return 0.0 + 0.0j
    N = index.level
    types = float_types(precision)
    if types is None:
        return _numeric_sum_mp(m, index, weights, precision)
    real, cplx, pi = types
    n = np.arange(1, m, dtype=real)
    sin_n = np.sin(pi * n / m)
    sin_1 = np.sin(pi / real(m))
    log_amp = np.log(sin_1) - np.log(sin_n)  # log of 1/|[n]|
    _tick(r * (m - 1))

    def column(j):
        k, e = index.ks[j], index.es[j]
        theta = (-pi * (n - 1) * k) / m + (2 * pi / N) * ((e * n) % N)
        if weights is not None and weights[j]:
            theta = theta + (2 * pi / m) * np.mod(weights[j] * n, m)
        return np.exp(k * log_amp) * (np.cos(theta) + 1j * np.sin(theta)).astype(cplx)

    return complex(nested_sum(r, column))


def _numeric_sum_mp(m, index, weights, precision):
    import mpmath

    r = index.depth
    N = index.level
    with mpmath.workprec(precision + 16):
        pi = mpmath.pi
        sin1 = mpmath.sin(pi / m)
        # 1/[n] = (sin(pi/m)/sin(pi n/m)) * exp(-i pi (n-1)/m)
        inv_q = [
            sin1 / mpmath.sin(pi * n / m) * mpmath.expjpi(mpmath.mpf(-(n - 1)) / m)
            for n in range(1, m)
        ]
        _tick(r * (m - 1))

        def column(j):
            k, e = index.ks[j], index.es[j]
            col = []
            for n, inv in enumerate(inv_q, 1):
                factor = inv**k
                if e:
                    factor *= mpmath.expjpi(mpmath.mpf(2 * ((e * n) % N)) / N)
                if weights is not None and weights[j]:
                    factor *= mpmath.expjpi(mpmath.mpf(2 * weights[j] * n) / m)
                col.append(factor)
            return np.array(col, dtype=object)

        return complex(nested_sum(r, column))


def default_precision(m: int) -> int:
    return 128 if m > 10**5 else 53


def qsum_numeric(m, index, weights=None, precision=None):
    """Numeric multiple harmonic q-sum at q = exp(2 pi i/m).

    weights, when given, multiply slot j by q^(a_j n_j) (one real a_j per
    depth slot).
    """
    if m < 1:
        raise ValueError("m must be positive")
    if weights is not None and len(weights) != index.depth:
        raise ValueError("weights length must equal depth")
    if precision is None:
        precision = default_precision(m)
    return _numeric_sum(m, index, weights, precision)


# ---- truncated colored MZVs --------------------------------------------------


def truncated_cmzv_exact(m: int, index: Index) -> CycNum:
    """Sum over m > n_1 > ... > n_r > 0 of prod eta_j^{n_j} / n_j^{k_j}."""
    if m < 1:
        raise ValueError("m must be positive")
    N = index.level
    r = index.depth
    if r == 0:
        return CycNum.one(N)
    if r >= m:
        return CycNum.zero(N)
    # level 1 stays in Fraction, much faster than CycNum at level 1
    roots = [CycNum.root_power(N, t) for t in range(N)] if N > 1 else [1]

    def column(j):
        k, e = index.ks[j], index.es[j]
        terms = [roots[(e * n) % N] * Fraction(1, n**k) for n in range(1, m)]
        return np.array(terms, dtype=object)

    total = nested_sum(r, column)
    return total if N > 1 else CycNum.rational(1, total)


def truncated_cmzv_numeric(m: int, index: Index, precision: int = 53) -> complex:
    """Numeric truncation of the colored MZV series below m."""
    if m < 1:
        raise ValueError("m must be positive")
    r = index.depth
    if r == 0:
        return 1.0 + 0.0j
    if r >= m:
        return 0.0 + 0.0j
    N = index.level
    types = float_types(precision)
    if types is None:
        import mpmath

        with mpmath.workprec(precision + 16):
            _tick(r * (m - 1))

            def mp_column(j):
                k, e = index.ks[j], index.es[j]
                col = []
                for n in range(1, m):
                    t = mpmath.expjpi(mpmath.mpf(2 * ((e * n) % N)) / N)
                    t /= mpmath.mpf(n) ** k
                    col.append(t)
                return np.array(col, dtype=object)

            return complex(nested_sum(r, mp_column))
    real, cplx, pi = types
    n = np.arange(1, m, dtype=real)
    root_table = np.exp(1j * (2 * pi / N) * np.arange(N, dtype=real)).astype(cplx)
    _tick(r * (m - 1))

    def column(j):
        k, e = index.ks[j], index.es[j]
        return root_table[(e * n.astype(np.int64)) % N] / n.astype(cplx) ** k

    return complex(nested_sum(r, column))


# ---- asymptotic comparison against the symmetric main term -------------------


def asymptotic_probe(index: Index, alpha: int, m_grid, precision=None):
    """Compare q-sums along m = alpha (mod N) with the predicted main term.

    Returns a list of dicts with keys m, value, predicted, residual.  The
    prediction evaluates the regularized product formula at
    T = log(m/pi) + euler_gamma, with the exact root-of-unity prefactors at
    exponent m.
    """
    from .symmetric import MzvEvalConfig, symmetric_pair_polynomial

    N = index.level
    rows = []
    grid = list(m_grid)
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("m_grid must be strictly increasing")
    cfg = MzvEvalConfig()
    for m in grid:
        if m % N != alpha % N:
            raise ValueError(f"grid point {m} is not {alpha} mod {N}")
        value = qsum_numeric(m, index, precision=precision)
        poly = symmetric_pair_polynomial(index, m, cfg)
        t_m = math.log(m / math.pi) + float(np.euler_gamma)
        predicted = poly.eval(t_m)
        rows.append(
            {
                "m": m,
                "value": value,
                "predicted": predicted,
                "residual": abs(value - predicted),
                "tol": poly.tol,
            }
        )
    return rows

