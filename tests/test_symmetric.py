"""Regularized T-polynomials, numeric MZVs, and symmetric colored values."""

import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmzv.symmetric import (
    MzvEvalConfig,
    RegPoly,
    harmonic_regularized_mzv,
    mzv_numeric,
    reg_correction_coefficients,
    regularization_relation_residual,
    shuffle_regularized_mzv,
    symmetric_cmzv,
    symmetric_pair_polynomial,
)
from cmzv.words import (
    E_ZERO,
    Index,
    Word,
    harmonic_product,
    index_to_word,
    indices_of_weight,
    shuffle_product,
)

CFG = MzvEvalConfig()

ZETA2 = math.pi**2 / 6
ZETA3 = 1.2020569031595943
LOG2 = math.log(2)


def close(a, b, tol):
    return abs(a - b) <= tol


# ---- config and direct numeric values -----------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        MzvEvalConfig(precision=0)
    assert MzvEvalConfig().precision == 64


def test_mzv_zeta2():
    v, tol = mzv_numeric(Index((2,), (0,), 1), CFG)
    assert tol < 1e-4
    assert close(v, ZETA2, tol)


def test_mzv_alternating_log2():
    v, tol = mzv_numeric(Index((1,), (1,), 2), CFG)
    assert close(v, -LOG2, tol)


def test_mzv_zeta21_equals_zeta3():
    v, tol = mzv_numeric(Index((2, 1), (0, 0), 1), CFG)
    assert close(v, ZETA3, tol)


def test_mzv_error_within_reported_tolerance():
    # independent high-accuracy value for a colored depth-2 sum
    import mpmath

    ix = Index((2, 1), (1, 0), 3)
    with mpmath.workdps(30):
        eta = mpmath.expjpi(mpmath.mpf(2) / 3)
        total = mpmath.mpc(0)
        inner = mpmath.mpc(0)
        for n in range(1, 20001):
            if n > 1:
                inner += mpmath.mpf(1) / (n - 1)
            total += eta**n / mpmath.mpf(n) ** 2 * inner
        # tail of the reference itself is ~ log(M)/M, add it to the budget
        ref = complex(total)
        ref_tail = math.log(2e4) / 2e4
    v, tol = mzv_numeric(ix, CFG)
    assert abs(v - ref) <= tol + ref_tail


def test_mzv_rejects_divergent_index():
    with pytest.raises(ValueError):
        mzv_numeric(Index((1,), (0,), 1), CFG)
    with pytest.raises(ValueError):
        mzv_numeric(Index((1, 2), (0, 1), 2), CFG)


def test_mzv_empty_index_and_cache():
    assert mzv_numeric(Index((), (), 5), CFG) == (1.0, 0.0)
    a = mzv_numeric(Index((2,), (0,), 1), CFG)
    b = mzv_numeric(Index((2,), (0,), 1), CFG)
    assert a is b  # served from the cache


def test_mzv_accepts_words():
    w = Word((E_ZERO, 0), 1)  # the zeta(2) word
    v, tol = mzv_numeric(w, CFG)
    assert close(v, ZETA2, tol)


# ---- accuracy against independent values ------------------------------------------

F53 = MzvEvalConfig(precision=53)


@pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 6, 8, 13, 17])
def test_mzv_depth_one_against_polylog(N):
    # from level 7 on |1 - zeta_N| < 1, so y = 1/(1 + delta) > 1/2; at levels
    # 13 and 17 |1 - zeta_N| is even below 1/2
    import mpmath

    for precision in (53, 64):
        cfg = MzvEvalConfig(precision=precision)
        for k in (1, 2, 3):
            for e in range(N):
                if (k, e) == (1, 0):
                    continue
                with mpmath.workdps(30):
                    ref = mpmath.polylog(k, mpmath.expjpi(mpmath.mpf(2 * e) / N))
                v, tol = mzv_numeric(Index((k,), (e,), N), cfg)
                assert abs(v - complex(ref)) <= tol, (N, k, e, precision)


def _admissible_index(data, N, depth):
    ks = tuple(data.draw(st.integers(1, 3)) for _ in range(depth))
    es = tuple(data.draw(st.integers(0, N - 1)) for _ in range(depth))
    if (ks[0], es[0]) == (1, 0):
        ks = (2,) + ks[1:]
    return Index(ks, es, N)


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_mzv_stuffle_identities(data):
    # zeta(u) zeta(v) = sum of zeta(w) over the stuffle u * v, at depth 2 and 3
    N = data.draw(st.integers(1, 17))
    u = _admissible_index(data, N, 1)
    v = _admissible_index(data, N, data.draw(st.integers(1, 2)))
    (a, ta), (b, tb) = mzv_numeric(u, F53), mzv_numeric(v, F53)
    rhs, tol, size = 0j, ta * abs(b) + tb * abs(a) + ta * tb, abs(a * b)
    for w, c in harmonic_product(index_to_word(u), index_to_word(v)):
        val, t = mzv_numeric(w, F53)
        rhs += c * val
        tol += abs(c) * t
        size += abs(c * val)
    # the products and sums made here round too
    assert abs(a * b - rhs) <= tol + 8 * 2.0**-53 * size


def test_mzv_tolerance_at_double_precision():
    for N in (1, 2, 3, 4, 6):
        for weight in (1, 2, 3):
            for ix in indices_of_weight(N, weight):
                assert mzv_numeric(ix, F53)[1] <= 1e-12, ix


def test_mzv_large_level_leaves_float64_range():
    # at level 40 the columns x^n of this index overflow float64, so the
    # sum is made again in mpmath; it agrees with the longdouble sum
    ix = Index((1, 1, 1), (39, -19, 19), 40)
    v53, t53 = mzv_numeric(ix, F53)
    v64, t64 = mzv_numeric(ix, CFG)
    assert math.isfinite(abs(v53)) and t53 <= 1e-12
    assert abs(v53 - v64) <= t53 + t64


@pytest.mark.parametrize("alpha", [1, 2])
def test_symmetric_values_of_the_level_three_table(alpha):
    indices = [ix for w in (1, 2, 3) for ix in indices_of_weight(3, w, admissible_only=False)]
    assert len(indices) == 63
    for ix in indices:
        s = symmetric_cmzv(alpha, ix, F53)
        assert s.t_independent and s.tol <= 1e-9, ix


# ---- RegPoly -------------------------------------------------------------------


def test_regpoly_arithmetic():
    p = RegPoly((1 + 0j, 2 + 0j), 0.0)  # 1 + 2T
    q = RegPoly((0j, 0j, 3 + 0j), 0.0)  # 3T^2
    assert (p + q).coeffs == (1 + 0j, 2 + 0j, 3 + 0j)
    assert (p * q).coeffs == (0j, 0j, 3 + 0j, 6 + 0j)
    assert p.scale(2j).coeffs == (2j, 4j)
    assert p.eval(3.0) == 7 + 0j


def test_regpoly_shift_is_substitution():
    p = RegPoly((1 + 0j, -2 + 0j, 1j), 0.0)
    delta = 0.5 - 0.25j
    for t in (0.0, 1.0, -2.3):
        assert abs(p.shift(delta).eval(t) - p.eval(t + delta)) < 1e-12


def test_regpoly_tolerance_propagation():
    p = RegPoly((1 + 0j,), 0.25)
    q = RegPoly((2 + 0j,), 0.5)
    assert (p + q).tol == 0.75
    # |p| = 1, |q| = 2: tol = .25*2 + .5*1 + .25*.5
    assert (p * q).tol == pytest.approx(1.125)
    assert p.scale(4).tol == 1.0


@given(
    st.lists(st.complex_numbers(max_magnitude=10, allow_nan=False), min_size=1, max_size=4),
    st.complex_numbers(max_magnitude=3, allow_nan=False),
)
@settings(max_examples=50, deadline=None)
def test_regpoly_shift_composes(coeffs, delta):
    p = RegPoly(tuple(coeffs), 0.0)
    twice = p.shift(delta).shift(-delta)
    for a, b in zip(twice.coeffs, p.coeffs):
        assert abs(a - b) <= 1e-6 * (1 + abs(b))


# ---- regularized values ----------------------------------------------------------


def test_harmonic_regularized_divergent_letter_is_T():
    p = harmonic_regularized_mzv(Index((1,), (0,), 1), CFG)
    assert p.coeffs == (0j, 1 + 0j)
    assert p.tol == 0.0


def test_harmonic_regularized_admissible_is_constant():
    p = harmonic_regularized_mzv(Index((2,), (0,), 1), CFG)
    assert p.degree == 0
    assert close(p.coeffs[0], ZETA2, p.tol)


def test_harmonic_regularized_depth_two_example():
    # value of (1,2): zeta(2) T - (zeta(2,1) + zeta(3)) = zeta(2) T - 2 zeta(3)
    p = harmonic_regularized_mzv(Index((1, 2), (0, 0), 1), CFG)
    assert p.degree == 1
    assert close(p.coeffs[1], ZETA2, p.tol)
    assert close(p.coeffs[0], -2 * ZETA3, p.tol)


def poly_close(p, q, slack):
    n = max(len(p.coeffs), len(q.coeffs))
    get = lambda r, i: r.coeffs[i] if i < len(r.coeffs) else 0j
    return all(abs(get(p, i) - get(q, i)) <= slack for i in range(n))


@pytest.mark.parametrize(
    "u,v",
    [
        (Index((1,), (0,), 1), Index((2,), (0,), 1)),
        (Index((1,), (1,), 3), Index((1,), (2,), 3)),
        (Index((1, 1), (0, 0), 1), Index((1,), (0,), 1)),
    ],
)
def test_harmonic_regularized_is_homomorphism(u, v):
    from cmzv.words import index_to_word

    lhs = harmonic_regularized_mzv(u, CFG) * harmonic_regularized_mzv(v, CFG)
    rhs = RegPoly((0j,), 0.0)
    for w, c in harmonic_product(index_to_word(u), index_to_word(v)):
        rhs = rhs + harmonic_regularized_mzv(w, CFG).scale(float(c))
    assert poly_close(lhs, rhs, 20 * (lhs.tol + rhs.tol) + 1e-12)


def test_shuffle_regularized_base_cases():
    level = 1
    assert shuffle_regularized_mzv(Word((0,), level), CFG).coeffs == (0j, 1 + 0j)
    assert shuffle_regularized_mzv(Word((E_ZERO,), level), CFG).coeffs == (0j,)
    assert shuffle_regularized_mzv(Word((), level), CFG).coeffs == (1 + 0j,)
    p = shuffle_regularized_mzv(Word((E_ZERO, 0), level), CFG)
    assert close(p.coeffs[0], ZETA2, p.tol)
    p = shuffle_regularized_mzv(Word((E_ZERO, E_ZERO, 0), level), CFG)
    assert close(p.coeffs[0], ZETA3, p.tol)


def test_shuffle_regularized_is_homomorphism():
    u = Word((0,), 1)
    v = Word((E_ZERO, 0), 1)
    lhs = shuffle_regularized_mzv(u, CFG) * shuffle_regularized_mzv(v, CFG)
    rhs = RegPoly((0j,), 0.0)
    for w, c in shuffle_product(u, v):
        rhs = rhs + shuffle_regularized_mzv(w, CFG).scale(float(c))
    assert poly_close(lhs, rhs, 20 * (lhs.tol + rhs.tol) + 1e-12)


# ---- symmetric values --------------------------------------------------------------


def test_symmetric_weight_one_is_exactly_minus_pi_i():
    s = symmetric_cmzv(1, Index((1,), (0,), 1), CFG)
    assert s.value == complex(0, -math.pi)  # the T parts cancel exactly
    assert s.poly.coeffs[1] == 0j
    assert s.t_independent


def test_symmetric_depth_one_doubles():
    s = symmetric_cmzv(1, Index((2,), (0,), 1), CFG)
    assert close(s.value, 2 * ZETA2, 20 * s.tol)
    assert s.t_independent


def test_symmetric_alternating_weight_one():
    s = symmetric_cmzv(1, Index((1,), (1,), 2), CFG)
    assert close(s.value, -2 * LOG2, 20 * s.tol)
    assert s.t_independent


def test_symmetric_one_one():
    # squaring weight one: (-pi i)^2 = 2*val + (2 zeta(2)), so val = -2 pi^2/3
    s = symmetric_cmzv(1, Index((1, 1), (0, 0), 1), CFG)
    assert close(s.value, -2 * math.pi**2 / 3, 20 * s.tol)
    assert s.t_independent


def test_symmetric_residue_class_matters():
    ix = Index((1,), (1,), 3)
    a1 = symmetric_cmzv(1, ix, CFG)
    a2 = symmetric_cmzv(2, ix, CFG)
    assert abs(a1.value - a2.value) > 0.1
    assert a1.t_independent and a2.t_independent
    # the class only matters mod N
    a4 = symmetric_cmzv(4, ix, CFG)
    assert a1.value == a4.value


@pytest.mark.parametrize(
    "alpha,ix",
    [
        (1, Index((2, 1), (1, 0), 3)),
        (2, Index((1, 2), (1, 2), 3)),
        (1, Index((1, 1), (1, 3), 4)),
    ],
)
def test_symmetric_reversal(alpha, ix):
    s = symmetric_cmzv(alpha, ix, CFG)
    r = symmetric_cmzv(alpha, ix.reversed(), CFG)
    sign = (-1) ** ix.weight
    color = cmath.exp(-2j * math.pi * alpha * sum(ix.es) / ix.level)
    assert abs(s.value.conjugate() - sign * color * r.value) <= 20 * (s.tol + r.tol)
    assert s.t_independent


def test_symmetric_pair_polynomial_exponent_periodicity():
    ix = Index((1, 1), (1, 2), 3)
    p = symmetric_pair_polynomial(ix, 2, CFG)
    q = symmetric_pair_polynomial(ix, 5, CFG)
    assert p.coeffs == q.coeffs


# ---- correction series and the comparison identity -----------------------------------


def test_lambda_series_first_values():
    lam = reg_correction_coefficients(4)
    assert lam.coeffs[0] == 1.0
    assert lam.coeffs[1] == 0.0
    assert lam.coeffs[2] == pytest.approx(-math.pi**2 / 12)
    assert lam.coeffs[3] == pytest.approx(ZETA3 / 3)
    assert lam.coeffs[4] == pytest.approx(math.pi**4 / 1440)


def test_lambda_series_validation():
    from cmzv.symmetric import LambdaSeries

    with pytest.raises(ValueError):
        LambdaSeries((2.0,))
    with pytest.raises(ValueError):
        LambdaSeries((1.0, 0.5))


def test_regularization_relation_admissible_case_is_exact():
    # no divergent letters: both regularizations give the same admissible value
    assert regularization_relation_residual(Word((E_ZERO, 0), 1), CFG)[0] < 1e-12


def test_regularization_relation_divergent_cases():
    # w = (1,1): L_*(T) = T^2/2 - zeta(2)/2 must match the corrected integral side
    assert regularization_relation_residual(Word((0, 0), 1), CFG)[0] < 1e-4
    # w = (1,2): one divergent leading letter
    assert regularization_relation_residual(Word((0, E_ZERO, 0), 1), CFG)[0] < 1e-3
    # colored: level 3, w = (1; eta) (1; eta^2)
    assert regularization_relation_residual(Word((0, 1), 3), CFG)[0] < 1e-3


def test_regularization_relation_rejects_non_index_word():
    with pytest.raises(ValueError):
        regularization_relation_residual(Word((0, E_ZERO), 1), CFG)
