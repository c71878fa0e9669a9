"""Multiple harmonic q-sums at roots of unity, exact and numeric.

The exact evaluator works at q = zeta_m with values in Q(zeta_L), L =
lcm(m, N).  Scaled by m^weight, the sum is an integer polynomial mod x^L - 1
of l1 norm below a height H computed in advance, so its coordinates on the
power basis of Z[zeta_L] are below H B_L, B_L the largest coordinate of any
power of zeta_L.  For primes p = 1 (mod L) below 2^31 it is evaluated at the
phi(L) primitive L-th roots of unity mod p, the roots of Phi_L there, by one
int64 nested sum and interpolated straight onto the power basis mod p;
enough primes that their product exceeds 2 H B_L give the coordinates
exactly by the Chinese remainder theorem.

Numeric mode evaluates at q = exp(2 pi i/m) with vectorized cumulative sums,
using |[n]_q| = sin(pi n/m)/sin(pi/m) >= 1 for stability.  The q-sum and the
truncated series share one body, in numpy float64 or longdouble or, beyond
their bits, mpmath numbers in object arrays.  It sums n in blocks of 4096
terms, each resuming from the last one's running sums, so its memory does
not depend on m and its value is bit for bit that of a single pass.
"""

from __future__ import annotations

import gc
import math
import operator
from contextlib import contextmanager

import numpy as np

from .cyclotomic import CycNum, _ctx, _fold, cyclotomic_polynomial
from .fq import is_prime, pow_mod, power_row, root_of_order
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


# ---- exact engine: evaluation at primitive L-th roots mod p, joined by CRT ----

_PRIME_ROOTS: dict[int, list] = {}


def _prime_roots(L: int, count: int) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """The first `count` primes p = 1 (mod L) below 2^31, counted down from it.

    Each comes with w[t] = omega^t and inv[t] = 1/(1 - omega^t) mod p for
    t = 0..L-1 (inv[0] = 0, unused), omega = fq.root_of_order(p, L), of
    order exactly L.  w is fq.power_row, built by doubling, and inv is
    (1 - w)^(p-2).  Memoised per L.
    """
    found = _PRIME_ROOTS.setdefault(L, [])
    p = found[-1][0] - L if found else 1 + (2**31 - 2) // L * L
    while len(found) < count:
        if is_prime(p):
            w = power_row(root_of_order(p, L), L, p)
            found.append((p, w, pow_mod((1 - w) % p, p - 2, p)))
        p -= L
    return found[:count]


_INTERPOLATION: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}


def _interpolation(L: int, p: int, w) -> tuple[np.ndarray, np.ndarray]:
    """The primitive exponents u, gcd(u, L) = 1, and the matrix taking the
    values mod p at the points a_u = omega^u to coordinates on the power basis.

    As p = 1 (mod L), Phi_L splits mod p into the distinct factors x - a_u,
    and the Lagrange polynomial at a_u is q_u(x)/q_u(a_u) with q_u = Phi_L/(x -
    a_u), as q_u(a_u) = Phi_L'(a_u).  Column u of the matrix holds its
    coefficients.  q_u comes by synthetic division, q_u[phi - 1] = 1 and
    q_u[j - 1] = Phi_L[j] + a_u q_u[j], for all u in one int64 pass per j,
    and q_u(a_u) by Horner.  Memoised per (L, p).
    """
    key = (L, p)
    if key not in _INTERPOLATION:
        u = np.flatnonzero(np.gcd(np.arange(L), L) == 1)
        a, phi = w[u], len(u)
        mod = cyclotomic_polynomial(L)
        q = np.ones((phi, phi), dtype=np.int64)  # q[j, u] = coefficient j of q_u
        for j in range(phi - 1, 0, -1):
            q[j - 1] = (mod[j] % p + a * q[j]) % p
        deriv = q[phi - 1]
        for j in range(phi - 2, -1, -1):
            deriv = (deriv * a + q[j]) % p
        _INTERPOLATION[key] = u, q * pow_mod(deriv, p - 2, p) % p
    return _INTERPOLATION[key]


def _scaled_sum_mod(m: int, index: Index, p: int, w, inv) -> np.ndarray:
    """m^weight * S mod p on the power basis of Z[zeta_L], L = len(w).

    With sm = L/m, u = sm n and M = m/gcd(m, n), 1/[n] = (1 - x^sm) P(x^u)/M
    for P(y) = sum_{i<M-1} (M-1-i) y^i, as 1/(1 - y) = P(y)/M at y^M = 1 != y.
    So m^k times slot j's term is the integer polynomial
    (m/M)^k (1 - x^sm)^k P(x^u)^k x^(sn e n).  At a primitive point x =
    omega^i, gcd(i, L) = 1, omega^(i u) != 1 for 0 < n < m, so P(x^u) is
    M/(1 - omega^(i u)).  One int64 nested_sum over (phi(L), m-1) columns sums
    at the phi(L) primitive points, and _interpolation's matrix takes the
    values to coordinates.
    """
    L, N = len(w), index.level
    sm, sn = L // m, L // N
    prim, back = _interpolation(L, p, w)
    i = prim[:, None]
    n = np.arange(1, m)
    base = m * inv[i * (sm * n) % L] % p * ((1 - w[i * sm % L]) % p) % p
    powers = [base]  # powers[k - 1] = base^k, grown only as far as the columns need

    def column(j):
        k, e = index.ks[j], index.es[j]
        while len(powers) < k:
            powers.append(powers[-1] * base % p)
        return powers[k - 1] * w[i * (sn * e * n % L) % L] % p

    values = nested_sum(index.depth, column, p)
    # split the values at 16 bits so each row sum stays below phi * 2^47 < 2^63
    lo, hi = (back @ (values & 0xFFFF)) % p, (back @ (values >> 16)) % p
    return (hi * 0x10000 + lo) % p


def _height(m: int, index: Index) -> int:
    """A bound on the coefficients of m^weight * S mod x^L - 1.

    The l1 norm is submultiplicative under cyclic convolution, so the scaled
    term of _scaled_sum_mod has l1 norm at most (m/M)^k 2^k (M(M-1)/2)^k =
    (m(M-1))^k, and the nested sum of these bounds the l1 norm of the sum.
    """

    def column(j):
        k = index.ks[j]
        return np.array([(m * (m // math.gcd(m, n) - 1)) ** k for n in range(1, m)], dtype=object)

    return int(nested_sum(index.depth, column))


def _scaled_sum(m: int, index: Index, count: int) -> list[int]:
    """The coordinates of m^weight * S by CRT over `count` primes, lifted to
    (-P/2, P/2].

    Exact once the product P of the primes exceeds twice _height(m, index)
    times the power_bound of level L: the coordinates are sum_t v_t z^t
    reduced onto the power basis, with v the vector mod x^L - 1 that
    _height bounds in l1 norm.
    """
    L = math.lcm(m, index.level)
    x, P = [0] * _ctx(L).phi, 1
    for p, w, inv in _prime_roots(L, count):
        c = pow(P, -1, p)
        residues = _scaled_sum_mod(m, index, p, w, inv).tolist()
        x = [a + P * ((b - a) * c % p) for a, b in zip(x, residues)]
        P *= p
    return [a - P if 2 * a > P else a for a in x]


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
    # the ring products of the recurrence: the powers 1/[n]^k up to the
    # largest k, then one product per term of every slot but the innermost
    _tick(max(index.ks) * (m - 1) + sum(m - 1 - j for j in range(1, r)))
    bound, count, P = 2 * _height(m, index) * _ctx(L).power_bound, 0, 1
    while P <= bound:
        count += 1
        P *= _prime_roots(L, count)[-1][0]
    return CycNum(L, _scaled_sum(m, index, count), m**index.weight)


# ---- numeric engine ----------------------------------------------------------


# the significand of numpy's longdouble: 64 bits on x86-64, 53 where it is double
LONGDOUBLE_BITS = np.finfo(np.longdouble).nmant + 1
# pi to 40 digits, enough for a 113-bit longdouble
_LONGDOUBLE_PI = np.longdouble("3.141592653589793238462643383279502884197")
_BLOCK = 4096  # terms n of one block of the numeric series


def float_types(precision: int):
    """(real, complex, pi) of the narrowest numpy float with `precision` bits.

    None when no numpy float has them; the caller then works in mpmath.
    """
    if precision <= 53:
        return np.float64, np.complex128, np.pi
    if precision <= LONGDOUBLE_BITS:
        return np.longdouble, np.clongdouble, _LONGDOUBLE_PI
    return None


@contextmanager
def _number_type(precision: int):
    """(real, pi, sin, exp, log, polar) for arithmetic with `precision` bits.

    numpy float64 or longdouble where float_types has one.  Otherwise real is
    object, for Python integers, which mpmath numbers absorb exactly, and
    the functions are mpmath's entry by entry, inside mpmath.workprec(precision
    + 16) with the cyclic garbage collector off: an operation on an object
    array makes one number per entry, all alive until it ends, which would
    set off full collections over every number alive; they form no cycles.
    polar(theta, scale, over) is scale e^(i theta), or e^(i theta)/scale when
    over.  In numpy it writes scale cos theta and scale sin theta into the
    .real and .imag of one complex array, with no complex temporary: the bits
    of the complex product, and of the quotient too, as numpy divides by a
    real scale by multiplying with 1/scale.
    """
    types = float_types(precision)
    if types is not None:
        real, cplx, pi = types

        def polar(theta, scale, over=False):
            z = np.empty(theta.shape, dtype=cplx)
            if over:
                scale = 1 / scale
            np.multiply(np.cos(theta), scale, out=z.real)
            np.multiply(np.sin(theta), scale, out=z.imag)
            return z

        yield real, pi, np.sin, np.exp, np.log, polar
        return
    import mpmath

    enabled = gc.isenabled()
    gc.disable()
    try:
        with mpmath.workprec(precision + 16):
            funcs = (mpmath.sin, mpmath.exp, mpmath.log, mpmath.expj)
            sin, exp, log, expj = (np.frompyfunc(f, 1, 1) for f in funcs)

            def polar(theta, scale, over=False):
                return expj(theta) / scale if over else scale * expj(theta)

            yield object, mpmath.pi, sin, exp, log, polar
    finally:
        if enabled:
            gc.enable()


def _term_count(m) -> int:
    """m as an int >= 1; ValueError for anything else, 10.5 or True too."""
    try:
        count = operator.index(m)
    except TypeError:
        count = None
    if count is None or isinstance(m, bool):
        raise ValueError(f"m must be an integer, got {m!r}")
    if count < 1:
        raise ValueError("m must be positive")
    return count


def _numeric_series(m, index, precision, q, weights=None):
    """The nested sum below m, one column per slot, of the q-sum at q =
    exp(2 pi i/m) when q is true and of the truncated series otherwise.

    The q-sum's term is eta^n/[n]^k with 1/[n] = (sin(pi/m)/sin(pi n/m))
    exp(-i pi (n - 1)/m); the truncated term is eta^n/n^k.  The sum runs
    over n in blocks of _BLOCK terms, each block's nested_sum resuming from
    the last one's running sums, so no array is longer than a block.
    """
    m = _term_count(m)
    if precision < 1:
        raise ValueError("precision must be positive")
    r, N = index.depth, index.level
    if r == 0:
        return 1.0 + 0.0j
    if r >= m:
        return 0.0 + 0.0j
    _tick(r * (m - 1))
    with _number_type(precision) as (real, pi, sin, exp, log, polar):
        log_sin_1 = log(sin(pi / m)) if q else None
        angle = (2 * pi / N) * np.arange(N).astype(real)  # the colour angle of e n = t mod N
        sums = [0] * r
        for a in range(1, m, _BLOCK):
            count = np.arange(a, min(a + _BLOCK, m))
            n = count.astype(real)
            if q:
                # 1/[n] = exp(log_amp) exp(i turn/m)
                log_amp = log_sin_1 - log(sin(pi * n / m))
                turn = -pi * (n - 1)
            scales = {}  # k -> exp(k log_amp) for the q-sum, n^k for the truncated series

            def column(j):
                k, e = index.ks[j], index.es[j]
                if k not in scales:
                    scales[k] = exp(k * log_amp) if q else n**k
                theta = angle[e * count % N]
                if not q:
                    return polar(theta, scales[k], over=True)
                theta = (turn * k) / m + theta
                if weights is not None and weights[j]:
                    theta = theta + (2 * pi / m) * np.mod(weights[j] * n, m)
                return polar(theta, scales[k])

            sums = nested_sum(r, column, levels=True, carry=sums)
        return complex(sums[-1])


def default_precision(m: int) -> int:
    return 128 if m > 10**5 else 53


def qsum_numeric(m, index, weights=None, precision=None):
    """Numeric multiple harmonic q-sum at q = exp(2 pi i/m).

    weights, when given, multiply slot j by q^(a_j n_j) (one real a_j per
    depth slot).
    """
    if weights is not None and len(weights) != index.depth:
        raise ValueError("weights length must equal depth")
    if precision is None:
        precision = default_precision(_term_count(m))
    return _numeric_series(m, index, precision, True, weights)


# ---- truncated colored MZVs --------------------------------------------------


def truncated_cmzv_exact(m: int, index: Index) -> CycNum:
    """Sum over m > n_1 > ... > n_r > 0 of prod eta_j^{n_j} / n_j^{k_j}.

    Scaled by D^weight, D = lcm(1..m-1), the sum is an integer element of
    the group ring Z[Z/N]: slot j's term at n is x^(e n mod N) (D/n)^k.  One
    nested_sum over Python integers sums it, with the innermost column as an
    (N, m-1) array and each outer slot multiplying by x^(e n) through its
    gather, as the colored residues do; _fold takes the N-vector onto the
    power basis of Q(zeta_N).
    """
    if m < 1:
        raise ValueError("m must be positive")
    N = index.level
    r = index.depth
    if r == 0:
        return CycNum.one(N)
    if r >= m:
        return CycNum.zero(N)
    D, n = math.lcm(*range(1, m)), np.arange(1, m)

    def column(j):
        k, e = index.ks[j], index.es[j]
        scaled = np.array([(D // t) ** k for t in range(1, m)], dtype=object)  # D^k/n^k
        if j < r - 1:
            return scaled, (np.arange(N)[:, None] - e * n) % N  # t takes t - e n
        terms = np.zeros((N, m - 1), dtype=object)
        terms[e * n % N, n - 1] = scaled
        return terms

    return _fold(N, nested_sum(r, column).tolist(), D**index.weight)


def truncated_cmzv_numeric(m: int, index: Index, precision: int = 53) -> complex:
    """Numeric truncation of the colored MZV series below m."""
    return _numeric_series(m, index, precision, False)


# ---- asymptotic comparison against the symmetric main term -------------------


def probe_grid(m_grid, N: int, alpha: int) -> list[int]:
    """The m of an asymptotic probe as ints, checked before any is evaluated:
    ValueError unless they are integers >= 1, strictly increasing and all
    alpha mod N."""
    grid = [_term_count(m) for m in m_grid]
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("m_grid must be strictly increasing")
    for m in grid:
        if m % N != alpha % N:
            raise ValueError(f"grid point {m} is not {alpha} mod {N}")
    return grid


def asymptotic_probe(index: Index, alpha: int, m_grid, precision=None):
    """Compare q-sums along m = alpha (mod N) with the predicted main term.

    Returns a list of dicts with keys m, value, predicted, residual.  The
    prediction evaluates the regularized product formula at
    T = log(m/pi) + euler_gamma, with the exact root-of-unity prefactors at
    exponent m.
    """
    from .symmetric import MzvEvalConfig, symmetric_pair_polynomial

    rows = []
    cfg = MzvEvalConfig()
    for m in probe_grid(m_grid, index.level, alpha):
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

