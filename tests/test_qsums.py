"""Multiple harmonic q-sums: exact cyclotomic engine, numeric engine, probes."""

import gc
import itertools
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cmzv import qsums
from cmzv.cyclotomic import CycNum, _ctx, _reduce_vector, embed_complex
from cmzv.fq import is_prime
from cmzv.qsums import (
    EXACT_LEVEL_LIMIT,
    LONGDOUBLE_BITS,
    _height,
    _prime_roots,
    _scaled_sum,
    asymptotic_probe,
    default_precision,
    field_op_counter,
    float_types,
    qsum_exact,
    qsum_numeric,
    truncated_cmzv_exact,
    truncated_cmzv_numeric,
)
from cmzv.words import Index, harmonic_product, index_to_word, word_to_index


def naive_qsum(m, index, weights=None, dps=40):
    """Brute-force nested summation with mpmath (the independent oracle)."""
    with mpmath.workdps(dps):
        q = mpmath.expjpi(mpmath.mpf(2) / m)
        eta = [mpmath.expjpi(mpmath.mpf(2 * e) / index.level) for e in index.es]
        brackets = [None] + [
            (1 - q**n) / (1 - q) for n in range(1, m)
        ]

        def rec(j, upper):
            if j == index.depth:
                return mpmath.mpc(1)
            total = mpmath.mpc(0)
            for n in range(index.depth - j, upper + 1):
                term = eta[j] ** n / brackets[n] ** index.ks[j]
                if weights is not None and weights[j]:
                    term *= q ** (weights[j] * n)
                total += term * rec(j + 1, n - 1)
            return total

        return complex(rec(0, m - 1))


def small_indices():
    out = []
    for level, ks, es in [
        (1, (1,), (0,)),
        (1, (2,), (0,)),
        (1, (2, 1), (0, 0)),
        (2, (1,), (1,)),
        (3, (1, 1), (1, 2)),
        (3, (2, 1), (1, 0)),
        (4, (1, 2), (3, 1)),
    ]:
        out.append(Index(ks, es, level))
    return out


# ---- exact engine ------------------------------------------------------------


def test_exact_empty_and_shallow():
    ix = Index((), (), 3)
    assert qsum_exact(5, ix) == CycNum.one(15)
    deep = Index((1, 1, 1), (0, 0, 0), 1)
    assert qsum_exact(3, deep) == CycNum.zero(3)


def test_exact_hand_values():
    # m=2: [1] = 1, single term
    assert qsum_exact(2, Index((3,), (0,), 1)) == CycNum.one(2)
    # m=3: 1/[1] + 1/[2] = 1 + 1/(1+zeta_3) = 1 - zeta_3
    z = qsum_exact(3, Index((1,), (0,), 1))
    assert z == CycNum.one(3) - CycNum.root_power(3, 1)
    # m=4: 1 + 1/(1+i) + 1/i = 3/2 - 3i/2
    z = qsum_exact(4, Index((1,), (0,), 1))
    expect = (CycNum.one(4) - CycNum.root_power(4, 1)) * Fraction(3, 2)
    assert z == expect
    # colored single term: m=2, eta = zeta_3 -> value zeta_3 at level 6
    z = qsum_exact(2, Index((1,), (1,), 3))
    assert z == CycNum.root_power(6, 2)


@pytest.mark.parametrize("m", [5, 7, 9])
@pytest.mark.parametrize("ix", small_indices())
def test_exact_matches_naive(m, ix):
    if ix.depth >= m:
        pytest.skip("empty sum")
    got = embed_complex(qsum_exact(m, ix))
    want = naive_qsum(m, ix)
    assert abs(got - want) < 1e-10


def test_exact_level_limit_enforced():
    with pytest.raises(ValueError):
        qsum_exact(EXACT_LEVEL_LIMIT + 1, Index((1,), (0,), 1))
    with pytest.raises(ValueError):
        qsum_exact(602, Index((1,), (1,), 4))  # lcm = 1204
    # boundary case is fine (just small enough to run)
    qsum_exact(EXACT_LEVEL_LIMIT, Index((1,), (0,), 1))


def test_exact_rejects_bad_m():
    with pytest.raises(ValueError):
        qsum_exact(0, Index((1,), (0,), 1))


def brute_qsum(m, ix):
    """The q-sum term by term in CycNum arithmetic, over every m > n_1 > ... > n_r > 0."""
    L = math.lcm(m, ix.level)
    one, q = CycNum.one(L), CycNum.root_power(L, L // m)
    inv_bracket = [None] + [(one - q) / (one - q**n) for n in range(1, m)]
    total = CycNum.zero(L)
    for ns in itertools.combinations(range(m - 1, 0, -1), ix.depth):
        term = one
        for n, k, e in zip(ns, ix.ks, ix.es):
            term = term * inv_bracket[n] ** k * CycNum.root_power(L, L // ix.level * e * n)
        total = total + term
    return total


@st.composite
def oracle_cases(draw):
    N = draw(st.integers(1, 6))
    m = draw(st.integers(1, 12))
    r = draw(st.integers(0, 3))
    ks = tuple(draw(st.integers(1, 3)) for _ in range(r))
    es = tuple(draw(st.integers(0, N - 1)) for _ in range(r))
    return m, Index(ks, es, N)


@given(oracle_cases())
@example((9, Index((2, 1), (0, 0), 1)))  # N = 1
@example((12, Index((1, 3, 2), (2, 0, 1), 3)))  # N | m
@example((3, Index((2, 1), (5, 3), 6)))  # m | N
@example((4, Index((1, 2, 3), (1, 0, 1), 2)))  # r = m - 1
# L = 105, where z^t has coordinates of size 2 on the power basis
@example((15, Index((2, 1), (3, 5), 7)))
@example((21, Index((1, 2), (4, 0), 5)))
@example((35, Index((2, 1), (1, 2), 3)))
@settings(max_examples=30, deadline=None)
def test_exact_matches_brute_force_oracle(case):
    m, ix = case
    assert qsum_exact(m, ix) == brute_qsum(m, ix)


REFERENCE = Path(__file__).parent / "data" / "qsum_exact_reference.json"


def test_exact_matches_frozen_reference():
    # values of the former evaluator (big-integer vectors multiplied term by
    # term): the seven q-sums of the benchmark's evals workload at its first
    # colour, and one of weight 6 that takes four primes
    with open(REFERENCE, encoding="utf-8") as fh:
        records = json.load(fh)
    for rec in records:
        ix = Index(tuple(rec["ks"]), tuple(rec["es"]), rec["level"])
        assert qsum_exact(rec["m"], ix) == CycNum(rec["L"], rec["nums"], rec["den"])
    m, ix = 300, Index((3, 2, 1), (1, 2, 0), 3)
    primes = [p for p, _, _ in _prime_roots(300, 4)]
    assert math.prod(primes[:3]) <= 2 * _height(m, ix) < math.prod(primes)


def brute_prime_roots(L, count):
    """The primes p = 1 (mod L) counted down from 2^31 and, at each, the
    least a >= 2 whose power a^((p-1)/L) has its order, found by listing
    its powers, exactly L."""
    out, p = [], max(p for p in range(2**31 - L, 2**31) if p % L == 1 % L)
    while len(out) < count:
        if is_prime(p):
            for a in itertools.count(2):
                omega = pow(a, (p - 1) // L, p)
                x, order = omega, 1
                while x != 1:
                    x, order = x * omega % p, order + 1
                if order == L:
                    break
            out.append((p, omega))
        p -= L
    return out


@pytest.mark.parametrize("L", [*range(1, 131), 180, 240, 300, 420, 600])
def test_prime_roots_are_the_least_a_roots_of_order_L(L):
    # the CRT joins of _scaled_sum and the frozen reference rest on this choice
    got = _prime_roots(L, 4)
    assert [p for p, _, _ in got] == [p for p, _ in brute_prime_roots(L, 4)]
    for (p, w, inv), (_, omega) in zip(got, brute_prime_roots(L, 4)):
        assert w.tolist() == [pow(omega, t, p) for t in range(L)]
        assert inv[0] == 0
        assert (inv[1:] * ((1 - w[1:]) % p) % p == 1).all()


def test_no_mpmath_import_at_64_bits_or_fewer():
    # the calls of the benchmark's evals workload, and a symmetric value at
    # precision 64, in a fresh interpreter
    code = """
import sys
import cmzv
ix = cmzv.Index((2, 1, 1), (1, 2, 1), 3)
for m in (60, 120, 180, 240):
    cmzv.qsum_exact(m, ix)
cmzv.qsum_exact(40, cmzv.Index((2, 1, 1), (1, 3, 1), 4))
cmzv.finite_residue(ix, 10007, cmzv.make_fq_context(10007, 3))
cmzv.asymptotic_probe(cmzv.parse_index("k=2,1;e=1,2", 3), 1, [10**3, 10**4, 10**5], 53)
cmzv.qsum_numeric(10**4, ix)
cmzv.truncated_cmzv_exact(60, cmzv.Index((2, 1, 1), (1, 2, 3), 5))
cmzv.symmetric_cmzv(1, cmzv.parse_index("k=2,1,1;e=1,0,2", 3), cmzv.MzvEvalConfig(precision=64))
assert "mpmath" not in sys.modules, "mpmath imported"
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr


@pytest.mark.skipif(LONGDOUBLE_BITS != 64, reason="longdouble is not the 64-bit x87 format")
def test_longdouble_pi_is_mpmath_pi_rounded():
    with mpmath.workprec(64):
        man, exp = (+mpmath.pi).man_exp
    want = np.ldexp(np.longdouble(man >> 32) * 2**32 + np.longdouble(man & 0xFFFFFFFF), exp)
    assert float_types(64)[2] == want


def cyclic_mul(a, b):
    out = [0] * len(a)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[(i + j) % len(a)] += x * y
    return out


def brute_scaled_sum(m, ix):
    """m^weight * S mod x^L - 1, the term polynomials multiplied out one by one."""
    L = math.lcm(m, ix.level)
    sm, sn = L // m, L // ix.level
    total = [0] * L
    for ns in itertools.combinations(range(m - 1, 0, -1), ix.depth):
        prod = [1] + [0] * (L - 1)
        for n, k, e in zip(ns, ix.ks, ix.es):
            M = m // math.gcd(m, n)
            scaled = [0] * L  # (m/M) (1 - x^sm) P(x^(sm n)), P as in _scaled_sum_mod
            for i in range(M - 1):
                scaled[i * sm * n % L] += m // M * (M - 1 - i)
                scaled[(i * sm * n + sm) % L] -= m // M * (M - 1 - i)
            t = L - sn * e * n % L  # times x^(sn e n)
            prod = prod[t:] + prod[:t]
            for _ in range(k):
                prod = cyclic_mul(prod, scaled)
        total = [a + b for a, b in zip(total, prod)]
    return total


def prime_count(m, ix):
    L = math.lcm(m, ix.level)
    count, P = 0, 1
    while P <= 2 * _height(m, ix) * _ctx(L).power_bound:
        count += 1
        P *= _prime_roots(L, count)[-1][0]
    return count


@given(oracle_cases())
@settings(max_examples=30, deadline=None)
def test_exact_prefold_vector_is_the_scaled_term_sum(case):
    # the coordinates interpolated from the primitive points are the
    # multiplied-out vector mod x^L - 1 reduced onto the power basis
    m, ix = case
    if not 0 < ix.depth < m:
        return
    L = math.lcm(m, ix.level)
    want = _reduce_vector(brute_scaled_sum(m, ix), _ctx(L))
    assert _scaled_sum(m, ix, prime_count(m, ix)) == want


def test_exact_nested_sum_runs_over_the_primitive_points(monkeypatch):
    # one int64 row per primitive L-th root, phi(L) of them, not L
    shapes, nested_sum = [], qsums.nested_sum

    def spy(depth, column, *args):
        def recorded(j):
            terms = column(j)
            shapes.append(terms.shape)
            return terms

        return nested_sum(depth, recorded, *args)

    monkeypatch.setattr(qsums, "nested_sum", spy)
    for m, ix in [(35, Index((2, 1), (1, 2), 3)), (240, Index((2, 1, 1), (1, 2, 1), 3))]:
        shapes.clear()
        L = math.lcm(m, ix.level)
        p, w, inv = _prime_roots(L, 1)[0]
        qsums._scaled_sum_mod(m, ix, p, w, inv)
        assert shapes == [(_ctx(L).phi, m - 1)] * ix.depth


def test_exact_reconstruction_within_height_bound():
    rng = random.Random(5)
    cases = [(35, Index((2, 1), (1, 2), 3)), (15, Index((2, 1), (3, 5), 7))]  # L = 105
    for _ in range(25):
        N, m, r = rng.randint(1, 6), rng.randint(2, 60), rng.randint(1, 3)
        ix = Index(
            tuple(rng.randint(1, 4) for _ in range(r)),
            tuple(rng.randrange(N) for _ in range(r)),
            N,
        )
        if r < m:
            cases.append((m, ix))
    for m, ix in cases:
        count = prime_count(m, ix)
        vec = _scaled_sum(m, ix, count)
        assert _scaled_sum(m, ix, count + 1) == vec
        L = math.lcm(m, ix.level)
        assert max(abs(c) for c in vec) <= _height(m, ix) * _ctx(L).power_bound


# ---- algebra relations (the load-bearing invariants) --------------------------


def eval_comb_exact(m, comb):
    total = None
    for w, c in comb:
        v = qsum_exact(m, word_to_index(w)) * c
        total = v if total is None else total + v
    return total


@pytest.mark.parametrize(
    "m,u,v",
    [
        (7, Index((1,), (0,), 1), Index((2,), (0,), 1)),
        (7, Index((1,), (1,), 3), Index((1,), (2,), 3)),
        (5, Index((2,), (1,), 3), Index((1, 1), (0, 2), 3)),
        (11, Index((1, 1), (0, 0), 1), Index((2,), (0,), 1)),
        (6, Index((1,), (1,), 2), Index((1,), (1,), 2)),
    ],
)
def test_stuffle_homomorphism_exact(m, u, v):
    lhs = qsum_exact(m, u) * qsum_exact(m, v)
    rhs = eval_comb_exact(m, harmonic_product(index_to_word(u), index_to_word(v)))
    assert lhs == rhs


@st.composite
def hom_instances(draw):
    level = draw(st.sampled_from([1, 2, 3, 4]))
    m = draw(st.integers(min_value=4, max_value=13))

    def small_index(max_weight):
        depth = draw(st.integers(min_value=1, max_value=2))
        ks = []
        budget = max_weight
        for _ in range(depth):
            k = draw(st.integers(min_value=1, max_value=max(1, budget - (depth - len(ks) - 1))))
            ks.append(k)
            budget -= k
        es = [draw(st.integers(min_value=0, max_value=level - 1)) for _ in ks]
        return Index(tuple(ks), tuple(es), level)

    return m, small_index(2), small_index(2)


@given(hom_instances())
@settings(max_examples=25, deadline=None)
def test_stuffle_homomorphism_property(inst):
    m, u, v = inst
    lhs = qsum_exact(m, u) * qsum_exact(m, v)
    rhs = eval_comb_exact(m, harmonic_product(index_to_word(u), index_to_word(v)))
    assert lhs == rhs


@pytest.mark.parametrize(
    "m,ix",
    [
        (5, Index((2, 1), (1, 0), 3)),
        (7, Index((2, 1), (0, 0), 1)),
        (8, Index((1, 1), (1, 3), 4)),
        (9, Index((1,), (1,), 2)),
    ],
)
def test_reversal_symmetry_exact(m, ix):
    # conj z_m(k; eta) = (-zeta_m)^(-wt) * (prod eta)^(-m) * z_m(reversed)
    L = math.lcm(m, ix.level)
    lhs = qsum_exact(m, ix).conj()
    minus_zeta = -CycNum.root_power(L, L // m)
    color = CycNum.root_power(L, (L // ix.level) * ((-m * sum(ix.es)) % ix.level))
    rhs = minus_zeta ** (-ix.weight) * color * qsum_exact(m, ix.reversed())
    assert lhs == rhs


# ---- numeric engine ------------------------------------------------------------


@pytest.mark.parametrize("ix", small_indices())
@pytest.mark.parametrize("m", [6, 17, 50])
def test_numeric_matches_exact(m, ix):
    got = qsum_numeric(m, ix)
    want = embed_complex(qsum_exact(m, ix))
    assert abs(got - want) < 1e-9


@pytest.mark.parametrize("precision", [53, 64, 100])
def test_numeric_precision_paths_agree(precision):
    ix = Index((2, 1), (1, 0), 3)
    got = qsum_numeric(29, ix, precision=precision)
    want = naive_qsum(29, ix)
    assert abs(got - want) < 1e-11


def test_q_power_weights_match_naive():
    ix = Index((2, 1), (0, 1), 3)
    weights = (1, 2)
    for precision in (53, 100):
        got = qsum_numeric(11, ix, weights=weights, precision=precision)
        want = naive_qsum(11, ix, weights=weights)
        assert abs(got - want) < 1e-10


def test_weights_validation():
    ix = Index((1,), (0,), 1)
    with pytest.raises(ValueError):
        qsum_numeric(5, ix, weights=(1, 2))


@pytest.mark.parametrize("series", [qsum_numeric, truncated_cmzv_numeric])
def test_numeric_series_take_integer_m_and_positive_precision(series):
    ix = Index((2, 1), (1, 2), 3)
    for m in (10.5, 10.0, True, "10", None, 0, -3):
        with pytest.raises(ValueError, match="m must be"):
            series(m, ix, precision=53)
    for precision in (0, -53):
        with pytest.raises(ValueError, match="precision must be positive"):
            series(10, ix, precision=precision)
    # any integer type with __index__ will do, numpy's included
    assert series(np.int64(10), ix, precision=53) == series(10, ix, precision=53)
    with pytest.raises(ValueError, match="m must be an integer"):
        asymptotic_probe(ix, 1, (10.5,))


def test_precision_beyond_longdouble_goes_to_mpmath(monkeypatch):
    # where longdouble is double, precision 64 must not round to 53 bits
    import numpy as np

    from cmzv import qsums, symmetric

    monkeypatch.setattr(qsums, "LONGDOUBLE_BITS", 53)
    assert qsums.float_types(53)[0] is np.float64
    assert qsums.float_types(64) is None
    entered = []
    workprec = mpmath.workprec
    monkeypatch.setattr(mpmath, "workprec", lambda bits: entered.append(bits) or workprec(bits))
    monkeypatch.setattr(symmetric, "_MZV_CACHE", {})
    ix = Index((2, 1), (1, 2), 3)
    qsum_numeric(29, ix, precision=64)
    truncated_cmzv_numeric(29, ix, 64)
    symmetric.mzv_numeric(ix, symmetric.MzvEvalConfig(precision=64))
    assert entered == [80, 80, 80]


def test_mpmath_series_leaves_the_garbage_collector_as_it_was():
    ix = Index((2, 1), (1, 2), 3)
    assert gc.isenabled()
    qsum_numeric(29, ix, precision=128)
    assert gc.isenabled()
    gc.disable()
    try:
        truncated_cmzv_numeric(29, ix, 128)
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_default_precision_switch():
    assert default_precision(10**5) == 53
    assert default_precision(10**5 + 1) == 128


# ---- truncated series -----------------------------------------------------------


def test_truncated_exact_harmonic_numbers():
    got = truncated_cmzv_exact(5, Index((1,), (0,), 1))
    assert got.as_fraction() == Fraction(1) + Fraction(1, 2) + Fraction(1, 3) + Fraction(1, 4)
    got = truncated_cmzv_exact(4, Index((2, 1), (0, 0), 1))
    assert got.as_fraction() == Fraction(5, 12)


def test_truncated_exact_colored():
    # level 4, k=1, e=1: sum zeta_4^n / n for n < 4 = i - 1/2 - i/3
    got = truncated_cmzv_exact(4, Index((1,), (1,), 4))
    i = CycNum.root_power(4, 1)
    assert got == i - Fraction(1, 2) - i * Fraction(1, 3)


@pytest.mark.parametrize("precision", [53, 64, 128])
def test_truncated_numeric_matches_exact(precision):
    for ix in small_indices():
        got = truncated_cmzv_numeric(40, ix, precision)
        want = embed_complex(truncated_cmzv_exact(40, ix))
        assert abs(got - want) < 1e-12


def test_truncated_shallow_cases():
    ix = Index((), (), 2)
    assert truncated_cmzv_exact(3, ix) == CycNum.one(2)
    assert truncated_cmzv_numeric(3, ix) == 1.0
    deep = Index((1, 1), (0, 0), 1)
    assert truncated_cmzv_numeric(2, deep) == 0.0


# ---- cost model ------------------------------------------------------------------


def test_numeric_op_count_is_linear_in_m_and_depth():
    ix = Index((2, 1), (0, 1), 3)
    with field_op_counter() as c:
        qsum_numeric(100, ix)
    assert c.count == ix.depth * 99
    with field_op_counter() as c:
        qsum_numeric(200, ix)
    assert c.count == ix.depth * 199


def test_exact_op_count_scales_linearly():
    ix = Index((2, 1), (1, 0), 3)
    counts = {}
    for m in (20, 40):
        with field_op_counter() as c:
            qsum_exact(m, ix)
        counts[m] = c.count
    # multiplications per outer step are bounded by depth + max exponent
    bound = (ix.depth + max(ix.ks) + 1)
    assert counts[40] <= bound * 40
    assert counts[40] <= 2.5 * counts[20]


def test_exact_op_count_pinned():
    # one tick per ring product of the recurrence, as counted by the former
    # term-by-term evaluator: the 1/[n]^k powers and the slot products
    ix = Index((2, 1), (1, 0), 3)
    for m, count in ((20, 56), (40, 116)):
        with field_op_counter() as c:
            qsum_exact(m, ix)
        assert c.count == count


# ---- asymptotic probe --------------------------------------------------------------


def test_asymptotic_probe_converges():
    rows = asymptotic_probe(Index((2,), (0,), 1), 1, (101, 301, 1001), precision=53)
    assert [r["m"] for r in rows] == [101, 301, 1001]
    res = [r["residual"] for r in rows]
    assert res[0] > res[1] > res[2]
    # roughly 1/m up to logs: tripling m must shrink the residual a lot
    assert res[2] < res[0] / 4
    assert set(rows[0]) == {"m", "value", "predicted", "residual", "tol"}


def test_asymptotic_probe_validates_grid():
    ix = Index((1,), (1,), 3)
    with pytest.raises(ValueError):
        asymptotic_probe(ix, 1, (10, 7))
    with pytest.raises(ValueError):
        asymptotic_probe(ix, 1, (7, 12))  # 12 is not 1 mod 3


def test_asymptotic_probe_checks_the_whole_grid_before_evaluating(monkeypatch):
    calls = []
    monkeypatch.setattr(qsums, "qsum_numeric", lambda *args, **kw: calls.append(args))
    ix = Index((2, 1), (1, 2), 3)
    with pytest.raises(ValueError, match="100001 is not 1 mod 3"):
        asymptotic_probe(ix, 1, (1000, 10000, 100000, 100001))
    with pytest.raises(ValueError, match="strictly increasing"):
        asymptotic_probe(ix, 1, (1000, 10000, 100000, 100000))
    assert calls == []

