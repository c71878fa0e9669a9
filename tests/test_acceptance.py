"""Acceptance gates: headline identities, values, and tables at stated budgets.

Each test prints one PASS line when its criterion holds (visible with -s or
in captured output); the pytest verdict per test is the pass/fail record.
"""

import math
import random
import time

from cmzv.cli import main as cli_main
from cmzv.finite import primes_in_class
from cmzv.fq import make_fq_context, to_residue_field
from cmzv.qsums import qsum_exact, qsum_numeric, truncated_cmzv_exact
from cmzv.relations import (
    check_linear_shuffle_finite,
    check_reversal_finite,
    enumerate_generators,
    mt_dimension,
)
from cmzv.symmetric import MzvEvalConfig, regularization_relation_residual, symmetric_cmzv
from cmzv.words import (
    E_ZERO,
    Index,
    Word,
    harmonic_product,
    index_to_word,
    word_to_index,
)
from cmzv.finite import finite_residue


def _report(n, detail):
    print(f"ACCEPTANCE {n}: PASS - {detail}")


def _random_composition(rng, weight):
    parts = []
    left = weight
    while left:
        k = rng.randint(1, left)
        parts.append(k)
        left -= k
    return tuple(parts)


def _random_index(rng, N, max_weight):
    w = rng.randint(1, max_weight)
    ks = _random_composition(rng, w)
    es = tuple(rng.randrange(N) for _ in ks)
    return Index(ks, es, N)


def test_criterion_01_exact_stuffle_homomorphism():
    start = time.time()
    rng = random.Random(11551)
    ms = list(range(2, 31))  # every truncation level up to 30 appears
    checked = 0
    for i in range(50):
        m = ms[i] if i < len(ms) else rng.randint(2, 30)
        N = rng.choice((1, 2, 3, 4))
        u = _random_index(rng, N, 4)
        v = _random_index(rng, N, 4)
        lhs = qsum_exact(m, u) * qsum_exact(m, v)
        rhs = None
        for w, c in harmonic_product(index_to_word(u), index_to_word(v)):
            term = qsum_exact(m, word_to_index(w)) * c
            rhs = term if rhs is None else rhs + term
        assert lhs == rhs, (m, N, u, v)
        checked += 1
    elapsed = time.time() - start
    assert elapsed < 120
    _report(1, f"{checked} exact stuffle products, m up to 30, {elapsed:.1f}s")


def test_criterion_02_truncation_reduces_to_finite_residue():
    primes = [p for p in primes_in_class(3, 1, 10).primes if p <= 50]
    assert primes == [7, 13, 19, 31, 37, 43]
    checked = 0
    for p in primes:
        ctx = make_fq_context(p, 3)
        for weight in (1, 2, 3):
            for ix in enumerate_generators(3, weight, "colored"):
                exact = truncated_cmzv_exact(p, ix)
                assert to_residue_field(exact, ctx) == finite_residue(ix, p, ctx)
                checked += 1
    _report(2, f"{checked} exact-vs-residue agreements in class (3;1), p <= 50")


def test_criterion_03_relation_identities_per_prime():
    rng = random.Random(35301)
    instances = 0
    for _ in range(50):
        N = rng.choice((1, 2, 3, 4))
        alpha = rng.choice([a for a in range(N) if math.gcd(a, N) == 1])
        pclass = primes_in_class(N, alpha, 20, weight=5)
        ix = _random_index(rng, N, 5)
        results = check_reversal_finite(ix, pclass)
        assert len(results) == 20 and all(results.values()), (N, alpha, ix)
        instances += 1
    for _ in range(50):
        N = rng.choice((1, 2, 3, 4))
        alpha = rng.choice([a for a in range(N) if math.gcd(a, N) == 1])
        pclass = primes_in_class(N, alpha, 20, weight=5)
        alphabet = [E_ZERO] + list(range(N))
        a = rng.randint(1, 4)
        b = rng.randint(0, 4 - a)  # total weight a + b + 1 <= 5
        u = Word(
            tuple(rng.choice(alphabet) for _ in range(a - 1)) + (rng.randrange(N),), N
        )
        v = Word(tuple(rng.choice(alphabet) for _ in range(b)), N)
        results = check_linear_shuffle_finite(u, v, pclass)
        assert len(results) == 20 and all(results.values()), (N, alpha, u, v)
        instances += 1
    _report(3, f"{instances} random reversal/linear-shuffle instances, 20 primes each")


def test_criterion_04_symmetric_depth_one_values():
    cfg = MzvEvalConfig()
    s1 = symmetric_cmzv(1, Index((1,), (0,), 1), cfg)
    assert s1.value == complex(0.0, -math.pi)  # exact cancellation
    s2 = symmetric_cmzv(1, Index((2,), (0,), 1), cfg)
    assert abs(s2.value - math.pi**2 / 3) <= 10 * s2.tol
    assert abs(s2.value.real - 3.289868) < 1e-5
    s3 = symmetric_cmzv(1, Index((1,), (1,), 2), cfg)
    assert abs(s3.value - (-2 * math.log(2))) <= s3.tol
    _report(4, "-pi*i exact; 2*zeta(2) and -2*log(2) within tolerance")


def test_criterion_05_t_coefficients_vanish():
    rng = random.Random(90215)
    cfg = MzvEvalConfig()
    seen = 0
    while seen < 20:
        N = rng.choice((1, 2, 3, 4))
        ix = _random_index(rng, N, 4)
        s = symmetric_cmzv(1, ix, cfg)
        assert s.t_independent, (ix, s.poly)
        seen += 1
    _report(5, "20 sampled symmetric polynomials constant within 20x tolerance")


def test_criterion_06_qsum_convergence_to_symmetric_value():
    start = time.time()
    target = math.pi**2 / 3
    ix = Index((2,), (0,), 1)
    errors = [abs(qsum_numeric(m, ix) - target) for m in (100, 1000, 10000)]
    assert errors[2] < 0.01
    assert errors[0] > errors[1] > errors[2]
    elapsed = time.time() - start
    assert elapsed < 60
    _report(6, f"errors {errors[0]:.4f} > {errors[1]:.4f} > {errors[2]:.5f} < 0.01, {elapsed:.1f}s")


def _index_words_level_one(weight):
    out = []
    for pattern in range(2 ** (weight - 1)):
        letters = tuple(
            E_ZERO if (pattern >> i) & 1 else 0 for i in range(weight - 1)
        ) + (0,)
        out.append(Word(letters, 1))
    return out


def test_criterion_07_regularization_comparison_identity():
    cfg = MzvEvalConfig()
    checked = 0
    for weight in (1, 2, 3, 4):
        for w in _index_words_level_one(weight):
            residual, tol = regularization_relation_residual(w, cfg)
            assert residual <= 10 * tol + 1e-15, (w, residual, tol)
            checked += 1
    assert checked == 15
    _report(7, "15 index words of weight <= 4 satisfy the lambda-corrected identity")


def _run_dim_csv(args, path):
    code = cli_main(args + ["--out", str(path)])
    assert code == 0
    lines = path.read_text().strip().splitlines()
    return [int(line.split(",")[4]) for line in lines[1:]]


def test_criterion_08_dimension_tables(tmp_path):
    start = time.time()
    expected = {1: [0, 0, 1, 0], 2: [1, 1, 2, 3], 3: [1, 2, 4, 8]}
    for N, dims in expected.items():
        got = _run_dim_csv(
            ["dim", "--N", str(N), "--wmax", "4", "--jobs", "2",
             "--cache-dir", str(tmp_path / "cache")],
            tmp_path / f"dim{N}.csv",
        )
        assert got == dims, (N, got)
    elapsed = time.time() - start
    assert elapsed < 900
    _report(8, f"dims (1;1)=0,0,1,0 (2;1)=1,1,2,3 (3;1)=1,2,4,8 with 24+12 primes, {elapsed:.1f}s")


def test_criterion_09_motivic_dimension_table():
    table = {
        1: [0, 0, 1, 0, 1, 1, 1, 2],
        2: [1, 1, 2, 3, 5, 8, 13, 21],
        3: [1, 2, 4, 8, 16, 32],
        4: [1, 2, 4, 8, 16, 32],
        5: [2, 6, 18, 54, 162],
        6: [2, 5, 13, 34, 89],
        7: [3, 12, 48, 192, 768],
        8: [2, 6, 18, 54, 162],
        9: [3, 12, 48, 192, 768],
        10: [3, 11, 41, 153, 571],
    }
    for N, vals in table.items():
        assert [mt_dimension(N, k) for k in range(1, len(vals) + 1)] == vals
    _report(9, "all tabulated motivic dimensions reproduced for N <= 10")


def test_criterion_10_dimensions_stable_under_galois_twist(tmp_path):
    # the alternate root image (4 instead of 2 at p=7) must not move the table
    ctx = make_fq_context(7, 3, 2)
    assert ctx.zeta_image.coeffs == (4,)
    got = _run_dim_csv(
        ["dim", "--N", "3", "--wmax", "4", "--jobs", "2", "--twist", "2",
         "--cache-dir", str(tmp_path / "cache")],
        tmp_path / "dim3_twisted.csv",
    )
    assert got == [1, 2, 4, 8]
    _report(10, "twisted root choice reproduces dims 1,2,4,8 for N=3")
