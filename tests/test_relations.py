"""Relation families, LLL discovery, and the dimension tables."""

import hashlib
import itertools
import json
import math
import os
import re
import warnings
from dataclasses import replace
from fractions import Fraction

from cmzv import finite, lattice, relations, words

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cmzv.cyclotomic import CycNum
from cmzv.finite import CongruenceIndex, PrimeClass, ResidueTable, primes_in_class
from cmzv.fq import make_fq_context
from cmzv.relations import (
    DimConfig,
    DimensionReport,
    RelationCandidate,
    check_linear_shuffle_finite,
    check_linear_shuffle_symmetric,
    check_reversal_finite,
    dimension_table,
    discover_relations_lll,
    enumerate_generators,
    linear_shuffle_row,
    mt_dimension,
)
from cmzv.symmetric import MzvEvalConfig
from cmzv.words import E_ZERO, Index, Word


# ---- motivic dimensions ----

MT_TABLE = {
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


@pytest.mark.parametrize("N", sorted(MT_TABLE))
def test_mt_dimension_table(N):
    vals = MT_TABLE[N]
    assert [mt_dimension(N, k) for k in range(1, len(vals) + 1)] == vals


def test_mt_dimension_weight_zero_and_errors():
    for N in range(1, 11):
        assert mt_dimension(N, 0) == 1
    with pytest.raises(ValueError):
        mt_dimension(0, 2)
    with pytest.raises(ValueError):
        mt_dimension(3, -1)


# ---- generator enumeration ----


def test_enumerate_generators_order_and_counts():
    gens = enumerate_generators(1, 3, "congruence")
    assert [g.ks for g in gens] == [(3,), (1, 2), (2, 1), (1, 1, 1)]
    assert all(isinstance(g, CongruenceIndex) for g in gens)
    assert [len(enumerate_generators(3, w)) for w in (1, 2, 3, 4)] == [3, 12, 48, 192]
    colored = enumerate_generators(2, 2, "colored")
    assert len(colored) == 6
    assert all(isinstance(g, Index) for g in colored)
    assert colored[0] == Index((2,), (0,), 2)


def test_enumerate_generators_rejects_bad_input():
    with pytest.raises(ValueError):
        enumerate_generators(2, 0)
    with pytest.raises(ValueError):
        enumerate_generators(2, -1)
    with pytest.raises(ValueError):
        enumerate_generators(2, 2, "motivic")


def test_enumerate_generators_hands_out_a_new_list_each_call():
    first = enumerate_generators(3, 2)
    first.append("not a generator")
    first[0] = None
    again = enumerate_generators(3, 2)
    assert len(again) == 12 and None not in again and again[0] == CongruenceIndex((2,), (0,), 3)
    assert again is not enumerate_generators(3, 2)


# ---- linear shuffle rows ----


def test_linear_shuffle_row_weight_one_classic():
    # u = e1, v = empty: 2*[1,1] on the left, +[1,1] from the right side
    row = linear_shuffle_row(Word((0,), 1), Word((), 1))
    assert row == {Index((1, 1), (0, 0), 1): Fraction(3)}


def test_linear_shuffle_row_trivial_pair_cancels():
    assert linear_shuffle_row(Word((), 1), Word((E_ZERO,), 1)) == {}


def test_linear_shuffle_row_rejects_non_index_word():
    with pytest.raises(ValueError):
        linear_shuffle_row(Word((E_ZERO,), 1), Word((), 1))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_linear_shuffle_row_is_weight_homogeneous(data):
    N = data.draw(st.integers(1, 3))
    alphabet = [E_ZERO] + list(range(N))
    a = data.draw(st.integers(0, 2))
    b = data.draw(st.integers(0, 2))
    if a:
        u_letters = tuple(
            data.draw(st.sampled_from(alphabet)) for _ in range(a - 1)
        ) + (data.draw(st.integers(0, N - 1)),)
    else:
        u_letters = ()
    v_letters = tuple(data.draw(st.sampled_from(alphabet)) for _ in range(b))
    row = linear_shuffle_row(Word(u_letters, N), Word(v_letters, N))
    for ix in row:
        assert ix.weight == a + b + 1
        assert ix.level == N


# ---- exact ranks ----


def test_congruence_reversal_ranks():
    reports = dimension_table(1, 1, 4, DimConfig(use_cache=False))
    ranks = {r.weight: sum(c.source == "reversal" for c in r.relations) for r in reports}
    assert (ranks[3], ranks[4]) == (3, 2)


def _fourier_rows(N, weight):
    """Every linear_shuffle_row of the weight through colored(k; e) =
    sum_f zeta^(e.f) C(k; f), split by power-basis coordinate, as a set."""
    gens = enumerate_generators(N, weight)
    pos = {g: i for i, g in enumerate(gens)}
    power = [CycNum.root_power(N, s).coeffs for s in range(N)]
    alphabet = [E_ZERO, *range(N)]
    out = set()
    for a in range(weight):
        us = [u for u in itertools.product(alphabet, repeat=a) if not u or u[-1] != E_ZERO]
        for u, v in itertools.product(us, itertools.product(alphabet, repeat=weight - 1 - a)):
            split = [[0] * len(gens) for _ in power[0]]
            for ix, c in linear_shuffle_row(Word(u, N), Word(v, N)).items():
                for f in itertools.product(range(N), repeat=ix.depth):
                    s = sum(e * x for e, x in zip(ix.es, f)) % N
                    for row, z in zip(split, power[s]):
                        row[pos[CongruenceIndex(ix.ks, f, N)]] += c * z
            out.update(tuple(map(int, row)) for row in split if any(row))
    return out


@pytest.mark.parametrize("N, weight", [(N, w) for N in (1, 2, 3, 4) for w in (1, 2, 3, 4)] + [(2, 5)])
def test_linear_shuffle_rows_are_the_fourier_rows(N, weight):
    gens = enumerate_generators(N, weight)
    rows = relations.linear_shuffle_rows(N, weight, [], {g: i for i, g in enumerate(gens)})
    assert {tuple(row) for row in rows.tolist()} == _fourier_rows(N, weight)
    assert len(rows) == len({tuple(row) for row in rows.tolist()})
    for alpha in {3: (1, 2), 4: (1, 3)}.get(N, ()):
        table = finite.build_residue_table(gens, primes_in_class(N, alpha, 4, floor=50), use_cache=False)
        assert not (rows.astype(np.int64) @ table.int_matrix() % table.primes).any()


# sha256 prefixes of the rows on the reversal-free generators, as the
# builder gave them when it kept every row before one deduplication
_PINNED_ROWS = {
    (3, 1, 1): ((0, 1), "e3b0c44298fc1c14"),
    (3, 2, 1): ((5, 8), "c8279c635d9ca441"),
    (3, 3, 1): ((15, 22), "8cc808f7d6b049af"),
    (3, 4, 1): ((120, 104), "7b955543cc567968"),
    (3, 5, 1): ((981, 376), "44b207e467d5b4de"),
    (3, 1, 2): ((0, 1), "e3b0c44298fc1c14"),
    (3, 2, 2): ((5, 8), "9c9df073798f8fea"),
    (3, 3, 2): ((15, 22), "ec98cbec977f127e"),
    (3, 4, 2): ((120, 104), "b80a44e7ef8eb8e0"),
    (3, 5, 2): ((981, 376), "2546a4f0bedda573"),
    (2, 6, 1): ((530, 252), "474a16974abcfd7e"),
    (4, 4, 1): ((191, 260), "bc9484570480d13f"),
    (4, 4, 3): ((191, 260), "b3fe8b69f14f0882"),
}


@pytest.mark.parametrize("N, weight, alpha", sorted(_PINNED_ROWS))
def test_linear_shuffle_rows_are_pinned(N, weight, alpha):
    # deduplicating each |u| block as it is built leaves the array as it was
    reversal = relations.reversal_relations_congruence(N, weight, alpha)
    pivots = {next(iter(row)) for row in reversal}
    free = {g: j for j, g in enumerate(g for g in enumerate_generators(N, weight) if g not in pivots)}
    rows = relations.linear_shuffle_rows(N, weight, reversal, free)
    shape, digest = _PINNED_ROWS[N, weight, alpha]
    assert rows.dtype == np.int16 and rows.shape == shape
    assert hashlib.sha256(rows.tobytes()).hexdigest()[:16] == digest


def test_linear_shuffle_rows_on_the_reversal_free_generators():
    # each generator outside free is replaced through its reversal row
    N, weight, alpha = 3, 3, 2
    gens = enumerate_generators(N, weight)
    reversal = relations.reversal_relations_congruence(N, weight, alpha)
    pivots = {next(iter(row)) for row in reversal}
    free = {g: j for j, g in enumerate(g for g in gens if g not in pivots)}
    full = relations.linear_shuffle_rows(N, weight, [], {g: i for i, g in enumerate(gens)})
    into = np.zeros((len(gens), len(free)), dtype=np.int64)
    for g, j in free.items():
        into[gens.index(g), j] = 1
    for row in reversal:
        if len(row) == 2:
            (g, _), (h, c) = row.items()
            into[gens.index(g), free[h]] = -c
    want = {tuple(r) for r in (full @ into).tolist() if any(r)}
    got = relations.linear_shuffle_rows(N, weight, reversal, free)
    assert {tuple(r) for r in got.tolist()} == want and len(got) == len(want)


# ---- the product family ----


def _truncated(blocks, stop, N):
    """The sum over stop > m_1 > ... > m_r >= 1, m_j = f_j (mod N), of
    prod m_j^-k_j for the blocks (k_j, f_j), exactly, term by term."""
    total = Fraction(0)
    for ms in itertools.combinations(range(stop - 1, 0, -1), len(blocks)):
        if all(m % N == f for m, (_, f) in zip(ms, blocks)):
            total += Fraction(1, math.prod(m**k for m, (k, _) in zip(ms, blocks)))
    return total


@st.composite
def _blocks_and_letter(draw):
    N = draw(st.integers(1, 3))
    block = st.tuples(st.integers(1, 3), st.integers(0, N - 1))
    return N, tuple(draw(st.lists(block, max_size=3))), draw(block), draw(st.integers(1, 13))


@given(_blocks_and_letter())
def test_truncated_sums_multiply_by_the_class_quasi_shuffle(case):
    # S(u) S((k; f)) = sum over u * (k; f) of S(w): the letter at every
    # position, and merged with each block of its own class
    N, u, letter, stop = case
    product = words._product_table(N, u, (letter,), relations._class_bracket, {})
    assert _truncated(u, stop, N) * _truncated((letter,), stop, N) == sum(
        c * _truncated(w, stop, N) for w, c in product.items()
    )


def test_the_class_bracket_merges_within_a_class_only():
    product = words._product_table(3, ((1, 0), (2, 1)), ((1, 1),), relations._class_bracket, {})
    assert product == {
        ((1, 1), (1, 0), (2, 1)): 1,
        ((1, 0), (1, 1), (2, 1)): 1,
        ((1, 0), (2, 1), (1, 1)): 1,
        ((1, 0), (3, 1)): 1,
    }


@pytest.mark.parametrize("N, alpha", [(1, 1), (2, 1), (3, 1), (3, 2), (4, 1), (4, 3)])
def test_product_rows_vanish_at_every_prime_of_their_class(N, alpha, monkeypatch):
    seen = []
    real = relations.product_rows

    def product_rows(N, weight, raw, reversal, free):
        seen.append((weight, free, rows := real(N, weight, raw, reversal, free)))
        return rows

    monkeypatch.setattr(relations, "product_rows", product_rows)
    dimension_table(N, alpha, 4, FAST)
    assert [weight for weight, _, _ in seen] == [1, 2, 3, 4]
    pclass = primes_in_class(N, alpha, 12, floor=50)
    assert sum(len(rows) for _, _, rows in seen)  # the family is not empty
    for weight, free, rows in seen:
        table = finite.build_residue_table(list(free), pclass, use_cache=False)
        assert not (rows @ table.int_matrix() % table.primes).any(), (N, alpha, weight)
    # the products were memoised for the call alone
    assert not any(key[3] is relations._class_bracket for key in words._PRODUCT_CACHE)


def test_products_leave_the_lattice_only_the_motivic_count():
    # G' = generators - exact_relation_rank, the columns of the lattice
    config = DimConfig(use_cache=False)
    for (N, wmax), g_free, dims in (((3, 4), [1, 2, 5, 8], [1, 2, 4, 8]),
                                    ((2, 5), [1, 1, 2, 3, 5], [1, 1, 2, 3, 5])):
        reports = dimension_table(N, 1, wmax, config)
        assert [r.generator_count - r.exact_relation_rank for r in reports] == g_free
        assert [r.dim_estimate for r in reports] == dims
        assert not any(r.under_determined for r in reports)
        for r in reports:
            sources = [cand.source for cand in r.relations]
            assert sources == sorted(sources, key=["reversal", "double_shuffle", "lll_discovered"].index)
            assert sources.count("lll_discovered") == r.lll_extra_relations


# ---- per-prime identity checks ----


def test_reversal_holds_per_prime_level_one():
    pc = primes_in_class(1, 0, 6, floor=7)
    assert all(check_reversal_finite(Index((2, 1), (0, 0), 1), pc).values())


def test_reversal_holds_per_prime_level_three():
    pc = primes_in_class(3, 1, 5, floor=7)
    assert all(check_reversal_finite(Index((1, 2), (1, 2), 3), pc).values())


def test_linear_shuffle_holds_per_prime():
    pc = primes_in_class(1, 0, 6, floor=7)
    assert all(check_linear_shuffle_finite(Word((0,), 1), Word((), 1), pc).values())
    assert all(
        check_linear_shuffle_finite(Word((E_ZERO, 0), 1), Word((0,), 1), pc).values()
    )
    pc3 = primes_in_class(3, 1, 4, floor=7)
    assert all(
        check_linear_shuffle_finite(Word((1, 2), 3), Word((E_ZERO,), 3), pc3).values()
    )


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_random_identities_hold_per_prime(data):
    N = data.draw(st.integers(1, 4))
    alpha = data.draw(st.sampled_from([a for a in range(N) if math.gcd(a, N) == 1]))
    pc = primes_in_class(N, alpha, 3, floor=11)
    r = data.draw(st.integers(1, 2))
    ks = tuple(data.draw(st.integers(1, 3)) for _ in range(r))
    es = tuple(data.draw(st.integers(0, N - 1)) for _ in range(r))
    assert all(check_reversal_finite(Index(ks, es, N), pc).values())
    alphabet = [E_ZERO] + list(range(N))
    b = data.draw(st.integers(0, 2))
    u = Word(
        tuple(data.draw(st.sampled_from(alphabet)) for _ in range(r - 1))
        + (data.draw(st.integers(0, N - 1)),),
        N,
    )
    v = Word(tuple(data.draw(st.sampled_from(alphabet)) for _ in range(b)), N)
    assert all(check_linear_shuffle_finite(u, v, pc).values())


def test_symmetric_linear_shuffle_report():
    cfg = MzvEvalConfig()
    rep = check_linear_shuffle_symmetric(Word((0,), 1), Word((), 1), 1, cfg)
    # delta = 3 * (-2 pi^2/3); only defined modulo pi*i times a symmetric value
    assert not rep["symbolically_zero"]
    assert rep["delta"] == pytest.approx(-2 * math.pi**2, abs=20 * rep["tol"] + 1e-3)
    trivial = check_linear_shuffle_symmetric(Word((), 1), Word((E_ZERO,), 1), 1, cfg)
    assert trivial["symbolically_zero"]
    assert trivial["delta"] == 0


# ---- relation candidates and LLL discovery ----


def test_relation_candidate_validation():
    g = CongruenceIndex((2,), (0,), 1)
    with pytest.raises(ValueError):
        RelationCandidate({}, "reversal", 10)
    with pytest.raises(ValueError):
        RelationCandidate({g: CycNum.zero(1)}, "reversal", 10)
    with pytest.raises(ValueError):
        RelationCandidate({g: CycNum.one(1)}, "guesswork", 10)
    mixed = {g: CycNum.one(1), CongruenceIndex((1, 1), (0, 0), 1): CycNum.one(2)}
    with pytest.raises(ValueError):
        RelationCandidate(mixed, "lll_discovered", 10)


def _synthetic_table(columns, primes, N=1, alpha=0):
    """A residue table with prescribed integer columns, for planted relations."""
    pclass = PrimeClass(N, alpha, tuple(primes))
    contexts = {p: make_fq_context(p, N) for p in primes}
    entries = {}
    for g, col in columns.items():
        for p, v in zip(primes, col):
            entries[(g, p)] = contexts[p].scalar(v)
    return ResidueTable(pclass, tuple(columns), entries, contexts)


def test_discover_planted_relation():
    primes = [p for p in range(50, 200) if all(p % q for q in range(2, p))][:9]
    g1 = CongruenceIndex((1,), (0,), 1)
    g2 = CongruenceIndex((2,), (0,), 1)
    g3 = CongruenceIndex((3,), (0,), 1)
    import random

    rng = random.Random(7)
    c1 = [rng.randrange(p) for p in primes]
    c2 = [rng.randrange(p) for p in primes]
    c3 = [(2 * a + 5 * b) % p for a, b, p in zip(c1, c2, primes)]
    table = _synthetic_table({g1: c1, g2: c2, g3: c3}, primes)
    found = discover_relations_lll(table, height_bound=100, prime_split=(6, 3))
    assert len(found) == 1
    (cand,) = found
    assert cand.source == "lll_discovered"
    assert cand.verified_primes == 9
    coeffs = {g: c for g, c in cand.coefficients.items()}
    # normalized so the eliminated generator carries a negative coefficient
    assert coeffs[g3] == CycNum.rational(1, -1)
    assert coeffs[g1] == CycNum.rational(1, 2)
    assert coeffs[g2] == CycNum.rational(1, 5)


def test_discover_ignores_random_columns():
    primes = [p for p in range(50, 250) if all(p % q for q in range(2, p))][:12]
    import random

    rng = random.Random(3)
    cols = {
        CongruenceIndex((k,), (0,), 1): [rng.randrange(1, p) for p in primes]
        for k in (1, 2, 3)
    }
    table = _synthetic_table(cols, primes)
    assert discover_relations_lll(table, height_bound=50, prime_split=(8, 4)) == []


def test_discover_requires_enough_primes():
    primes = [53, 59, 61]
    g = CongruenceIndex((1,), (0,), 1)
    table = _synthetic_table({g: [1, 2, 3]}, primes)
    with pytest.raises(ValueError):
        discover_relations_lll(table, prime_split=(24, 12))


# ---- dimension tables ----

FAST = DimConfig(train_primes=8, verify_primes=4, prime_floor=50, use_cache=False)


def test_dimension_table_level_one():
    reports = dimension_table(1, 1, 4, FAST)
    assert [r.dim_estimate for r in reports] == [0, 0, 1, 0]
    assert [r.mt_dim for r in reports] == [0, 0, 1, 0]
    for r in reports:
        assert r.generator_count - r.exact_relation_rank - r.lll_extra_relations == r.dim_estimate
        assert not r.under_determined
        assert len(r.relations) == r.exact_relation_rank + r.lll_extra_relations
        for cand in r.relations:
            assert cand.verified_primes == 12


def test_dimension_table_level_two():
    reports = dimension_table(2, 1, 3, FAST)
    assert [r.dim_estimate for r in reports] == [1, 1, 2]
    assert [r.mt_dim for r in reports] == [1, 1, 2]


def test_dimension_table_level_three_small():
    reports = dimension_table(3, 1, 2, FAST)
    assert [r.dim_estimate for r in reports] == [1, 2]


def test_dimension_table_reads_the_cache_once(tmp_path, monkeypatch):
    # every weight of a call shares one prime class, so one read of its
    # residue file and one of its relation file
    loads = []
    real_load = finite._load_cache
    monkeypatch.setattr(finite, "_load_cache", lambda path: loads.append(path) or real_load(path))
    config = DimConfig(train_primes=8, verify_primes=4, prime_floor=50, cache_dir=str(tmp_path))

    def count(prefix):
        return sum(os.path.basename(path).startswith(prefix) for path in loads)

    cold = dimension_table(2, 1, 3, config)
    assert (count("residues_"), count("relations_")) == (1, 1)
    warm = dimension_table(2, 1, 3, config)
    assert (count("residues_"), count("relations_")) == (2, 2)
    assert warm == cold == dimension_table(2, 1, 3, FAST)


def _counting_lll(monkeypatch):
    calls = []
    real = relations.lll_reduce
    monkeypatch.setattr(relations, "lll_reduce", lambda *a: calls.append(1) or real(*a))
    return calls


@pytest.mark.parametrize("N, alpha, wmax", [(3, 1, 4), (3, 2, 4), (2, 1, 5)])
def test_relation_cache_cold_warm_and_off_agree(N, alpha, wmax, tmp_path, monkeypatch):
    calls = _counting_lll(monkeypatch)
    built, products = [], []
    real_rows, real_products = relations.linear_shuffle_rows, relations.product_rows
    monkeypatch.setattr(relations, "linear_shuffle_rows", lambda *a: built.append(1) or real_rows(*a))
    monkeypatch.setattr(relations, "product_rows", lambda *a: products.append(1) or real_products(*a))
    config = DimConfig(prime_floor=50, cache_dir=str(tmp_path))
    cold = dimension_table(N, alpha, wmax, config)
    assert calls
    path = tmp_path / f"relations_N{N}_a{alpha}.jsonl"
    written = path.stat()
    assert built and products
    calls.clear()
    built.clear()
    products.clear()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warm = dimension_table(N, alpha, wmax, config)
    assert not calls  # no lattice is reduced on a warm cache
    assert not built  # and no linear-shuffle row is built: the record holds them
    assert not products  # nor any product row, of any weight
    assert (path.stat().st_ino, path.stat().st_mtime_ns) == (written.st_ino, written.st_mtime_ns)
    off = dimension_table(N, alpha, wmax, replace(config, use_cache=False))
    assert warm == cold == off
    assert [r.b_cert for r in warm] == [r.b_cert for r in cold] == [r.b_cert for r in off]


def test_a_weight_past_the_cache_rebuilds_the_raw_rows_without_a_lattice(tmp_path, monkeypatch):
    # weights 1-3 come from their records; weight 4 needs their raw rows,
    # which are built again and checked, but only weight 4 gets a lattice
    config = DimConfig(prime_floor=50, cache_dir=str(tmp_path))
    dimension_table(3, 1, 3, config)
    lattices, products = [], []
    real_lattice, real_products = relations.discover_relations_lll, relations.product_rows
    monkeypatch.setattr(relations, "discover_relations_lll", lambda *a: lattices.append(1) or real_lattice(*a))
    monkeypatch.setattr(relations, "product_rows", lambda *a: products.append(a[1]) or real_products(*a))
    got = dimension_table(3, 1, 4, config)
    assert len(lattices) == 1 and products == [1, 2, 3, 4]
    assert got == dimension_table(3, 1, 4, replace(config, use_cache=False))


def test_each_weight_is_eliminated_once_at_the_first_prime(monkeypatch):
    # the raw rows that products multiply and the echelon form of a weight
    # share one elimination mod 2^31 - 1 (the lattice's own rows get theirs)
    first, real = [], relations._rref_mod
    spy = lambda R, q: (q == 2**31 - 1 and first.append(R)) or real(R, q)
    monkeypatch.setattr(relations, "_rref_mod", spy)
    monkeypatch.setattr(lattice, "_rref_mod", spy)
    dimension_table(3, 1, 4, DimConfig(prime_floor=50, use_cache=False))
    assert len(first) >= 4 and len(set(map(id, first))) == len(first)


SMALL = DimConfig(train_primes=8, verify_primes=4, prime_floor=50)


def _off_by_one(rows):
    row = next(row for row in rows if any(row[:-1]))
    row[next(h for h, c in enumerate(row[:-1]) if c)] += 1


def _swapped(rows):  # still relations, but the pivots fall
    rows[0], rows[1] = rows[1], rows[0]


def _summed(rows):  # still relations, but the pivot of row 0 shows in row 1
    rows[1] = [a + b for a, b in itertools.zip_longest(rows[0], rows[1], fillvalue=0)]


@pytest.mark.parametrize("tamper", [_off_by_one, _swapped, _summed])
def test_tampered_relation_record_is_recomputed(tamper, tmp_path, monkeypatch):
    # the proven rows leave at most one lattice row a weight at N=3 w <= 3;
    # N=4 w <= 3 has records with 3 and 10, which _swapped and _summed need
    config = replace(SMALL, cache_dir=str(tmp_path))
    cold = dimension_table(4, 1, 3, config)
    path = tmp_path / "relations_N4_a1.jsonl"
    written = path.read_bytes()
    records = [json.loads(line) for line in written.decode().splitlines()]
    rows = max((rec["rows"] for rec in records), key=len)
    assert len(rows) >= 2
    tamper(rows)
    path.write_text("".join(map(finite._dump, records)))
    calls = _counting_lll(monkeypatch)
    with pytest.warns(UserWarning, match=re.escape(str(path))):
        again = dimension_table(4, 1, 3, config)
    assert calls and again == cold
    assert path.read_bytes() == written


@pytest.mark.parametrize("tamper", [_off_by_one, _swapped, _summed])
def test_tampered_proven_rows_are_recomputed(tamper, tmp_path):
    config = replace(SMALL, cache_dir=str(tmp_path))
    cold = dimension_table(3, 1, 3, config)
    path = tmp_path / "relations_N3_a1.jsonl"
    written = path.read_bytes()
    records = [json.loads(line) for line in written.decode().splitlines()]
    tamper(max((rec["proven"] for rec in records), key=len))
    path.write_text("".join(map(finite._dump, records)))
    with pytest.warns(UserWarning, match=re.escape(str(path))):
        again = dimension_table(3, 1, 3, config)
    assert again == cold
    assert path.read_bytes() == written


@pytest.mark.parametrize("change", [
    {"height_bound": 500}, {"train_primes": 9, "verify_primes": 3}, {"twist": 2},
])
def test_relation_cache_misses_on_a_changed_key(change, tmp_path, monkeypatch):
    config = replace(SMALL, cache_dir=str(tmp_path))
    dimension_table(3, 1, 3, config)
    calls = _counting_lll(monkeypatch)
    changed = replace(config, **change)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = dimension_table(3, 1, 3, changed)
    assert calls
    assert got == dimension_table(3, 1, 3, replace(changed, use_cache=False))


def test_relation_cache_misses_on_a_changed_residue(tmp_path, monkeypatch):
    # every generator lies in a proven row, so a single changed residue
    # fails loudly; twice the whole column at p = 61 still satisfies every
    # relation, but changes the residues the record is keyed on, so the
    # lattice runs again.  use_cache=False would recompute the residues, so
    # the reference is a lattice on the same cache
    config = replace(SMALL, cache_dir=str(tmp_path))
    dimension_table(3, 1, 2, config)
    residues = tmp_path / "residues_N3_a1.jsonl"
    columns = [json.loads(line) for line in residues.read_text().splitlines()]
    (col,) = [col for col in columns if col["p"] == 61]
    col["residues"] = [2 * c % 61 for c in col["residues"]]
    residues.write_text("".join(map(finite._dump, columns)))
    calls = _counting_lll(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = dimension_table(3, 1, 2, config)
    assert calls
    (tmp_path / "relations_N3_a1.jsonl").unlink()
    assert got == dimension_table(3, 1, 2, config)


def test_corrupt_residue_in_a_linear_shuffle_row_fails_loudly(tmp_path):
    # k=1,1;f=0,1 is its own reversal at N=2, so no reversal row holds it,
    # but a linear-shuffle row of weight 2 does
    config = replace(SMALL, cache_dir=str(tmp_path))
    dimension_table(2, 1, 2, config)
    residues = tmp_path / "residues_N2_a1.jsonl"
    columns = [json.loads(line) for line in residues.read_text().splitlines()]
    (col,) = [col for col in columns if col["p"] == 59]
    at = col["index"].index("k=1,1;f=0,1")  # d = 1 at level 2
    col["residues"][at] = (col["residues"][at] + 1) % 59
    residues.write_text("".join(map(finite._dump, columns)))
    with pytest.raises(AssertionError, match=r"exact relation failed at p=59: .*k=1,1;f=0,1"):
        dimension_table(2, 1, 2, config)


def test_cache_dir_that_is_a_file_warns(tmp_path):
    blocker = tmp_path / "cache"
    blocker.write_text("not a directory\n")
    with pytest.warns(UserWarning):
        got = dimension_table(2, 1, 3, replace(SMALL, cache_dir=str(blocker)))
    assert got == dimension_table(2, 1, 3, FAST)


def test_dimension_table_needs_a_weight():
    for weight_max in (0, -1):
        with pytest.raises(ValueError):
            dimension_table(2, 1, weight_max, FAST)


def test_dimension_table_twist_invariance():
    base = dimension_table(3, 1, 2, FAST)
    twisted = dimension_table(3, 1, 2, DimConfig(
        train_primes=8, verify_primes=4, prime_floor=50, use_cache=False, twist=2,
    ))
    assert [r.dim_estimate for r in base] == [r.dim_estimate for r in twisted]
    assert [r.exact_relation_rank for r in base] == [r.exact_relation_rank for r in twisted]


def test_dimension_table_alpha_must_be_unit():
    with pytest.raises(ValueError):
        dimension_table(4, 2, 2, FAST)


def test_dimension_report_validates_range():
    with pytest.raises(ValueError):
        DimensionReport(1, 1, 2, 2, 2, 1, -1, 0, False, ())


@pytest.mark.parametrize("kwargs", [
    {"height_bound": 0}, {"height_bound": -5}, {"train_primes": 0}, {"verify_primes": 0},
])
def test_dim_config_rejects_budgets_that_certify_nothing(kwargs):
    with pytest.raises(ValueError):
        DimConfig(**kwargs)


def test_dim_config_refuses_a_prime_floor_that_admits_two():
    # at p = 2 the odd-weight reversal row {g: 1} of a fixed point g = -g fails
    for floor in (1, 0, -3):
        with pytest.raises(ValueError):
            DimConfig(prime_floor=floor)
    config = DimConfig(prime_floor=2, use_cache=False)
    assert [r.dim_estimate for r in dimension_table(3, 2, 4, config)] == [1, 2, 4, 8]
    assert [r.dim_estimate for r in dimension_table(1, 1, 5, config)] == [0, 0, 1, 0, 1]


@pytest.mark.parametrize("N, alpha, weight", [(1, 1, 4), (2, 1, 3), (3, 2, 3), (4, 3, 2), (5, 2, 2)])
def test_reversal_rows_are_reduced_echelon_and_hold_at_primes(N, alpha, weight):
    from cmzv.finite import congruence_residue_int
    from cmzv.relations import reversal_relations_congruence

    gens = enumerate_generators(N, weight, "congruence")
    order = {g: i for i, g in enumerate(gens)}
    rows = reversal_relations_congruence(N, weight, alpha)
    pivots = [next(iter(row)) for row in rows]
    assert [order[g] for g in pivots] == sorted(order[g] for g in pivots)
    assert len(set(pivots)) == len(pivots)
    for row in rows:
        assert row[next(iter(row))] == 1
        assert not set(pivots) & set(row) - {next(iter(row))}
    # every generator is tied to its reversal: g = (-1)^w g'
    tied = {g for row in rows for g in row}
    for g in gens:
        rev = g.reversed_class(alpha)
        assert g in tied or (rev == g and weight % 2 == 0)
    for p in primes_in_class(N, alpha, 3, floor=weight + 2).primes:
        for row in rows:
            total = sum(c * congruence_residue_int(g, p) for g, c in row.items())
            assert total.numerator % p == 0


@pytest.mark.parametrize("N, alpha, weight", [(1, 1, 5), (2, 1, 4), (3, 1, 4), (3, 2, 3), (4, 3, 3), (5, 2, 2)])
def test_reversal_rows_pair_each_generator_with_its_reversed_class(N, alpha, weight):
    from cmzv.relations import reversal_relations_congruence

    gens = enumerate_generators(N, weight, "congruence")
    order = {g: i for i, g in enumerate(gens)}
    sign = Fraction(-1 if weight % 2 else 1)
    want = []
    for g in gens:
        rev = g.reversed_class(alpha)
        if order[rev] > order[g]:
            want.append({g: Fraction(1), rev: -sign})
        elif rev == g and weight % 2:
            want.append({g: Fraction(1)})
    got = reversal_relations_congruence(N, weight, alpha)
    assert got == want
    assert [list(row) for row in got] == [list(row) for row in want]  # pivot first


# ---- the check of a relation record ----


def _random_record(rng, G, primes, top):
    """Rows in reduced echelon form (negative pivot last) on G generators, and
    a (G, P) residue matrix on which they vanish at every prime."""
    pivots = sorted(rng.sample(range(1, G), rng.randint(0, G - 1)))
    rows = []
    for piv in pivots:
        row = [0 if h in pivots else rng.randint(-top, top) for h in range(piv)]
        rows.append(row + [-1])
    matrix = np.array([[rng.randrange(p) for p in primes] for _ in range(G)], dtype=np.int64)
    for row in rows:  # its pivot's residues are the sum of the others'
        piv = len(row) - 1
        matrix[piv] = [sum(c * int(matrix[h, j]) for h, c in enumerate(row[:-1])) % p
                       for j, p in enumerate(primes)]
    return rows, matrix


def _vanishes(rows, matrix, primes):
    """Each row vanishes at every prime, summed in Python ints."""
    return all(
        sum(c * int(matrix[h, j]) for h, c in enumerate(row)) % p == 0
        for row in rows for j, p in enumerate(primes)
    )


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 7, 10**6, 2**40, 2**60]), st.booleans())
def test_record_check_in_int64_and_in_python_ints_agree(seed, top, tamper):
    # top = 2^60 puts max|A| G max(p) past 2^62, so A @ matrix runs on
    # Python ints; the smaller tops keep it in int64
    import random

    rng = random.Random(seed)
    primes = primes_in_class(3, 1, rng.randint(1, 6), floor=50).primes
    rows, matrix = _random_record(rng, rng.randint(2, 9), primes, top)
    if tamper:
        i, j = rng.randrange(len(matrix)), rng.randrange(len(primes))
        matrix[i, j] = (matrix[i, j] + rng.randrange(1, primes[j])) % primes[j]
    assert relations._echelon_rows(rows, matrix, primes) == _vanishes(rows, matrix, primes)
    if not tamper:
        assert relations._echelon_rows(rows, matrix, primes)


def test_a_record_past_int64_is_checked_in_python_ints():
    # c >= 2^40 with c G max(p) >= 2^62: an int64 product wraps and misjudges
    # the record, so the check must take Python ints
    primes = (1009, 1013, 1019)
    c = 2**55 + 7
    rows = [[c, -1]]
    matrix = np.array([[p - 1 for p in primes], [-c % p for p in primes]], dtype=np.int64)
    wrapped = np.array([[c, -1]], dtype=np.int64) @ matrix % np.array(primes)
    assert wrapped.any() and _vanishes(rows, matrix, primes)
    assert relations._echelon_rows(rows, matrix, primes)
    matrix[1, 1] = (matrix[1, 1] + 1) % 1013  # tampered at one prime
    assert not _vanishes(rows, matrix, primes)
    assert not relations._echelon_rows(rows, matrix, primes)


_MOD_PRODUCT_PRIMES = [2, 3, 53, 61, 1009, 65521, 2**31 - 19, 2**31 - 1]


@settings(max_examples=80, deadline=None)
@example(primes=[2**31 - 1], top=2**40, G=4, R=2, as_float=False, seed=0)
@given(
    st.lists(st.sampled_from(_MOD_PRODUCT_PRIMES), min_size=1, max_size=4),
    st.sampled_from([1, 7, 2**20, 2**40, 2**62, 2**70]),
    st.integers(1, 6),
    st.integers(0, 4),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_mod_product_is_the_python_int_product(primes, top, G, R, as_float, seed):
    # negative rows, one prime or several up to 2^31 - 1; where max|A| G
    # max(p) passes 2^62 an int64 product would wrap, so it takes Python
    # ints, as the @example, with a coefficient of -2^40, must
    import random

    rng = random.Random(seed)
    A = [[rng.randint(-top, top) for _ in range(G)] for _ in range(R)]
    if A:
        A[0][0] = -top
    matrix = np.array([[rng.randrange(p) for p in primes] for _ in range(G)], dtype=np.int64)
    want = [[sum(a * int(matrix[h, j]) for h, a in enumerate(row)) % p for j, p in enumerate(primes)]
            for row in A]
    if as_float and top < 2**53:
        kind = np.float64  # the relation lattice keeps its rows in floats
    else:
        kind = np.int64 if top < 2**63 else object
    got = relations._mod_product(np.array(A, dtype=kind).reshape(R, G), matrix, primes)
    assert got.tolist() == want
    wide = max((abs(a) for row in A for a in row), default=0) * G * max(primes) >= 2**62
    assert (got.dtype == object) == wide


def test_a_tampered_record_past_int64_is_recomputed(tmp_path, monkeypatch):
    # a lattice row plus a multiple of every record prime but the first
    # still vanishes at those, and fails at the first where the generator
    # is nonzero; the coefficient is past 2^63, so the check runs in
    # Python ints, and must find that one failing prime
    config = replace(SMALL, cache_dir=str(tmp_path))
    cold = dimension_table(4, 1, 3, config)
    path = tmp_path / "relations_N4_a1.jsonl"
    written = path.read_bytes()
    records = [json.loads(line) for line in written.decode().splitlines()]
    rec = max(records, key=lambda rec: len(rec["rows"]))
    proven = {len(row) - 1 for row in rec["proven"]}
    rest = [g for h, g in enumerate(rec["generators"]) if h not in proven]
    pivots = {len(row) - 1 for row in rec["rows"]}
    row, first = max(rec["rows"], key=len), rec["primes"][0]
    h = next(
        h for h in range(len(row) - 1)
        if h not in pivots
        and finite.congruence_residue_int(finite.parse_congruence_index(rest[h], 4), first)
    )
    base, others = math.prod(rec["primes"][1:]), [c for i, c in enumerate(row) if i != h]
    # the least multiple of base that keeps the row primitive, so only the product can fail it
    multiple = next(
        k * base for k in itertools.count(1) if math.gcd(row[h] + k * base, *others) == 1
    )
    assert multiple >= 2**63 and multiple % first
    row[h] += multiple
    path.write_text("".join(map(finite._dump, records)))
    calls = _counting_lll(monkeypatch)
    with pytest.warns(UserWarning, match=re.escape(str(path))):
        again = dimension_table(4, 1, 3, config)
    assert calls and again == cold
    assert path.read_bytes() == written
