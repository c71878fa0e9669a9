"""Finite (truncate-below-p) evaluation in residue fields, and the residue tables."""

import hashlib
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cmzv import finite
from cmzv.cli import main
from cmzv.finite import (
    CongruenceIndex,
    PrimeClass,
    build_residue_table,
    congruence_from_colored,
    congruence_residue,
    congruence_residue_int,
    finite_residue,
    format_congruence_index,
    parse_congruence_index,
    primes_in_class,
)
from cmzv.fq import FqContext, inverse_table, make_fq_context, to_residue_field
from cmzv.qsums import truncated_cmzv_exact
from cmzv.words import Index


def brute_finite(ix, p, ctx):
    """Direct nested-sum evaluation in the residue field, no batching."""
    inv = inverse_table(p)

    def term(depth, upper):
        if depth == len(ix.ks):
            return ctx.one()
        total = ctx.zero()
        for m in range(1, upper):
            f = ctx.zeta_power((ix.es[depth] * m) % ctx.N) * pow(inv[m], ix.ks[depth], p)
            total = total + f * term(depth + 1, m)
        return total

    return term(0, p)


def brute_congruence(cix, p):
    """Direct enumeration of the congruence-model sum below p, as an int mod p."""
    total = 0
    for ns in itertools.combinations(range(p - 1, 0, -1), cix.depth):
        term = 1
        for k, f, n in zip(cix.ks, cix.fs, ns):
            term = term * (n % cix.level == f) * pow(n, -k, p) % p
        total += term
    return total % p


# ---- prime sieving ----


def test_primes_in_class_examples():
    assert primes_in_class(3, 1, 4).primes == (7, 13, 19, 31)
    assert primes_in_class(1, 0, 4).primes == (2, 3, 5, 7)
    assert primes_in_class(4, 3, 3).primes == (3, 7, 11)


def test_primes_in_class_weight_floor():
    # with a weight in play, start above weight + 2
    pc = primes_in_class(3, 1, 3, weight=5)
    assert pc.primes == (13, 19, 31)
    assert all(p > 7 for p in pc.primes)


def test_primes_in_class_explicit_floor_wins():
    assert primes_in_class(3, 1, 2, floor=10, weight=30).primes == (13, 19)


def test_prime_class_validation():
    with pytest.raises(ValueError):
        PrimeClass(4, 2, (5,))  # alpha not a unit
    with pytest.raises(ValueError):
        PrimeClass(3, 1, (8,))  # not prime
    with pytest.raises(ValueError):
        PrimeClass(3, 1, (11,))  # wrong class
    pc = PrimeClass(1, 5, (7,))
    assert pc.alpha == 0  # normalized mod 1


# ---- finite residues, prime field ----


def test_harmonic_number_vanishes():
    ix = Index((1,), (0,), 1)
    ctx = make_fq_context(7, 1)
    assert finite_residue(ix, 7, ctx).is_zero  # H_6 = 0 mod 7


def test_power_sums_vanish_below_fermat_exponent():
    for p in (5, 7, 11, 13):
        ctx = make_fq_context(p, 1)
        for k in range(1, p - 1):
            assert finite_residue(Index((k,), (0,), 1), p, ctx).is_zero
        val = finite_residue(Index((p - 1,), (0,), 1), p, ctx)
        assert val == ctx.scalar(p - 1)  # sum of 1 over each unit = -1


def test_depth_two_value_p7():
    ctx = make_fq_context(7, 1)
    got = finite_residue(Index((1, 2), (0, 0), 1), 7, ctx)
    assert got == ctx.scalar(4)
    assert got == brute_finite(Index((1, 2), (0, 0), 1), 7, ctx)


def test_depth_exceeding_range_is_zero():
    ctx = make_fq_context(5, 1)
    ix = Index((1, 1, 1, 1, 1), (0, 0, 0, 0, 0), 1)
    assert finite_residue(ix, 5, ctx).is_zero


def test_empty_index_is_one():
    ctx = make_fq_context(5, 1)
    assert finite_residue(Index((), (), 1), 5, ctx) == ctx.one()


def test_context_prime_mismatch_rejected():
    ctx = make_fq_context(7, 1)
    with pytest.raises(ValueError):
        finite_residue(Index((1,), (0,), 1), 11, ctx)
    ctx3 = make_fq_context(7, 3)
    with pytest.raises(ValueError):
        finite_residue(Index((1,), (0,), 1), 7, ctx3)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_finite_residue_matches_brute_force(data):
    N = data.draw(st.integers(1, 4))
    p = data.draw(st.sampled_from([p for p in (5, 7, 11, 13) if N % p != 0]))
    r = data.draw(st.integers(1, 3))
    ks = tuple(data.draw(st.integers(1, 3)) for _ in range(r))
    es = tuple(data.draw(st.integers(0, N - 1)) for _ in range(r))
    ctx = make_fq_context(p, N)
    ix = Index(ks, es, N)
    assert finite_residue(ix, p, ctx) == brute_finite(ix, p, ctx)


# ---- nontrivial residue field ----


def test_colored_residue_in_quadratic_extension():
    # 5 has order 2 mod 3, so zeta_3 lives in F_25 proper
    ctx = make_fq_context(5, 3)
    assert ctx.d == 2
    ix = Index((1, 1), (1, 2), 3)
    got = finite_residue(ix, 5, ctx)
    assert got == brute_finite(ix, 5, ctx)
    assert not got.in_prime_field


def test_reduction_of_exact_truncation_matches():
    # the exact cyclotomic truncated sum reduces to the finite residue
    for p in (7, 13):
        ctx = make_fq_context(p, 3)
        for ix in (Index((1, 1), (1, 2), 3), Index((2,), (1,), 3), Index((1, 2), (2, 0), 3)):
            z = truncated_cmzv_exact(p, ix)
            assert to_residue_field(z, ctx) == finite_residue(ix, p, ctx)


def test_finite_reversal_identity():
    # conjugated colors on one side, reversal with a root prefactor on the other
    p, N, alpha = 13, 3, 1
    ctx = make_fq_context(p, N)
    for ix in (Index((1, 2), (1, 2), 3), Index((2, 1), (0, 1), 3), Index((3,), (2,), 3)):
        lhs = finite_residue(Index(ix.ks, tuple(-e % N for e in ix.es), N), p, ctx)
        sign = (-1) ** ix.weight % p
        color = ctx.zeta_power((-alpha * sum(ix.es)) % N)
        rhs = color * finite_residue(ix.reversed(), p, ctx) * sign
        assert lhs == rhs


# ---- congruence-class model ----


def test_congruence_class_value():
    # sum of 1/m over m < 5 with m = 1 mod 2, i.e. 1 + 1/3 = 1 + 2 = 3 mod 5
    assert congruence_residue_int(CongruenceIndex((1,), (1,), 2), 5) == 3


def test_congruence_depth_overflow_is_zero():
    cix = CongruenceIndex((1, 1, 1), (0, 0, 0), 1)
    assert congruence_residue_int(cix, 3) == 0


def test_residues_reject_primes_past_int64_range():
    p = 2**31 + 11  # prime; int64 products of residues would overflow
    with pytest.raises(ValueError):
        congruence_residue_int(CongruenceIndex((1,), (0,), 1), p)
    with pytest.raises(ValueError):
        finite_residue(Index((1,), (0,), 1), p, make_fq_context(p, 1))


def test_congruence_matches_fourier_expansion():
    # exhaustive at p=7, N=3: colored values recombine into class sums
    p, N = 7, 3
    ctx = make_fq_context(p, N)
    for ks in ((1,), (2,), (1, 1), (1, 2)):
        for fs in [(a,) * len(ks) for a in range(N)] + (
            [(0, 1), (2, 1)] if len(ks) == 2 else []
        ):
            cix = CongruenceIndex(ks, fs[: len(ks)], N)
            direct = congruence_residue(cix, p)
            assert congruence_from_colored(cix, p, ctx) == direct
            assert direct == ctx.scalar(congruence_residue_int(cix, p))


@pytest.mark.parametrize("p, twist", [(7, 1), (13, 1), (17, 2)])
def test_congruence_fourier_in_degree_four(p, twist):
    # N = 5 with p = 2 or 3 (mod 5): the colored residues lie in F_(p^4), also
    # in a context built by hand whose root of unity is x^2, not x
    canonical = make_fq_context(p, 5, twist)
    for ctx in (canonical, FqContext(p, 5, 4, canonical.modulus, (0, 0, 1, 0))):
        assert ctx.d == 4
        for ks, fs in (((1,), (2,)), ((2, 1), (1, 3)), ((1, 1, 2), (0, 4, 2)), ((), ())):
            cix = CongruenceIndex(ks, fs, 5)
            assert congruence_from_colored(cix, p, ctx) == congruence_residue(cix, p, ctx)


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_congruence_fourier_random(data):
    N = data.draw(st.integers(1, 3))
    p = data.draw(st.sampled_from([11, 13]))
    r = data.draw(st.integers(1, 2))
    ks = tuple(data.draw(st.integers(1, 3)) for _ in range(r))
    fs = tuple(data.draw(st.integers(0, N - 1)) for _ in range(r))
    cix = CongruenceIndex(ks, fs, N)
    ctx = make_fq_context(p, N)
    assert congruence_from_colored(cix, p, ctx) == congruence_residue(cix, p)


def test_congruence_reversal_identity():
    # substituting m -> p - m flips classes f -> alpha - f and reverses
    for (p, alpha) in ((13, 1), (11, 2)):
        N = 3 if alpha == 1 and p % 3 == 1 else p % 3
        N = 3
        if p % N != alpha % N:
            continue
        for ks, fs in (((1, 2), (0, 1)), ((2, 1), (1, 1)), ((1, 1), (2, 0))):
            cix = CongruenceIndex(ks, fs, N)
            lhs = congruence_residue_int(cix, p)
            rev = cix.reversed_class(alpha)
            rhs = (-1) ** cix.weight * congruence_residue_int(rev, p) % p
            assert lhs == rhs


@settings(deadline=None)  # the profile's examples: 400 in the thorough CI step
@given(st.data())
def test_batched_column_matches_enumeration(data):
    # one per-prime call over mixed depths, exponents, classes and colors
    p = data.draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
    N = data.draw(st.sampled_from([n for n in range(1, 7) if n % p]))  # N = 6 > p = 5 too
    ctx = make_fq_context(p, N)
    gens = []
    for _ in range(data.draw(st.integers(1, 8))):
        r = data.draw(st.integers(1, 5))  # deeper than p at p = 2, 3, 5
        ks = tuple(data.draw(st.integers(1, 4)) for _ in range(r))
        cs = tuple(data.draw(st.integers(0, N - 1)) for _ in range(r))
        colored = data.draw(st.booleans())
        gens.append(Index(ks, cs, N) if colored else CongruenceIndex(ks, cs, N))
    q, column = finite._compute_column((N, p % N, p, 1, gens))
    assert q == p and len(column) == len(gens)
    for gen, coeffs in zip(gens, column):
        if isinstance(gen, CongruenceIndex):
            want = ctx.scalar(brute_congruence(gen, p))
        else:
            want = brute_finite(gen, p, ctx)  # d > 1 takes the Fq path
        assert finite.Fq(ctx, coeffs) == want


def test_residue_table_builds_one_inverse_table_per_prime(monkeypatch):
    built = []
    real_row = finite.inverse_row
    monkeypatch.setattr(finite, "inverse_row", lambda p: built.append(p) or real_row(p))
    finite._small_inverse_row.cache_clear()  # rows below 2^16 are kept for the run
    gens = [
        CongruenceIndex((1, 2), (0, 1), 3),
        CongruenceIndex((3,), (2,), 3),
        Index((1, 1), (1, 2), 3),
    ]
    table = build_residue_table(gens, _small_class(), use_cache=False)
    assert sorted(built) == [7, 13, 19]
    build_residue_table(gens[::-1], _small_class(), use_cache=False)
    assert sorted(built) == [7, 13, 19]  # a second table at the same primes inverts nothing
    for p in (7, 13, 19):
        assert table.residue(gens[0], p) == congruence_residue(gens[0], p)
        assert table.residue(gens[2], p) == brute_finite(gens[2], p, table.contexts[p])
    # 2 has order 2 mod 3: colored residues lie in F_(p^2), summed as Fq objects
    built.clear()
    finite._small_inverse_row.cache_clear()
    gens = [Index((1, 1), (1, 2), 3), Index((2,), (1,), 3), CongruenceIndex((1,), (2,), 3)]
    table = build_residue_table(gens, PrimeClass(3, 2, (5, 11, 17)), use_cache=False)
    assert sorted(built) == [5, 11, 17]
    for p in (5, 11, 17):
        assert table.contexts[p].d == 2
        for gen in gens[:2]:
            assert table.residue(gen, p) == brute_finite(gen, p, table.contexts[p])


def test_congruence_index_parsing_round_trip():
    cix = CongruenceIndex((2, 1), (0, 2), 3)
    text = format_congruence_index(cix)
    assert text == "k=2,1;f=0,2"
    assert parse_congruence_index(text, 3) == cix
    with pytest.raises(ValueError):
        parse_congruence_index("k=2,1;e=0,2", 3)  # colored syntax, wrong here


def test_congruence_index_validation():
    with pytest.raises(ValueError):
        CongruenceIndex((0,), (0,), 2)
    cix = CongruenceIndex((1,), (5,), 3)
    assert cix.fs == (2,)  # classes normalized mod level
    assert CongruenceIndex((1, 2), (0, 1), 2).weight == 3


# ---- residue tables and their cache ----


def _small_class():
    return primes_in_class(3, 1, 3, floor=5)  # 7, 13, 19


def test_build_residue_table_shape(tmp_path):
    gens = [Index((1,), (1,), 3), Index((1, 1), (1, 2), 3)]
    table = build_residue_table(gens, _small_class(), cache_dir=str(tmp_path))
    assert table.primes == (7, 13, 19)
    assert len(table.entries) == 6
    v = table.residue(gens[1], 7)
    assert v == brute_finite(gens[1], 7, table.contexts[7])


def test_residue_table_cache_round_trip(tmp_path):
    gens = [Index((2,), (0,), 3), Index((1, 1), (1, 2), 3)]
    pc = _small_class()
    t1 = build_residue_table(gens, pc, cache_dir=str(tmp_path))
    cache_file = next(tmp_path.iterdir())
    first = cache_file.read_bytes()
    t2 = build_residue_table(gens, pc, cache_dir=str(tmp_path))
    assert cache_file.read_bytes() == first  # byte-identical rewrite
    assert t1.entries == t2.entries
    columns = [json.loads(line) for line in first.splitlines()]  # one per prime
    assert all(col["v"] == 3 for col in columns)
    assert [col["p"] for col in columns] == [7, 13, 19]
    assert all(len(col["index"]) == len(gens) for col in columns)


def test_residue_table_cache_rejects_stale_modulus(tmp_path):
    gens = [Index((2,), (1,), 3)]
    pc = _small_class()
    build_residue_table(gens, pc, cache_dir=str(tmp_path))
    cache_file = next(tmp_path.iterdir())
    lines = cache_file.read_bytes().splitlines()
    doctored = []
    for line in lines:
        col = json.loads(line)
        col["residues"] = [1] * len(col["residues"])
        col["zeta_image"] = [9]  # wrong root image: must be ignored
        doctored.append(json.dumps(col, sort_keys=True, separators=(",", ":")))
    cache_file.write_text("\n".join(doctored) + "\n")
    table = build_residue_table(gens, pc, cache_dir=str(tmp_path))
    good = brute_finite(gens[0], 7, table.contexts[7])
    assert table.residue(gens[0], 7) == good


def test_residue_table_disabled_cache(tmp_path, monkeypatch):
    # no cache is read, written or even keyed: cache keys and heads go unbuilt
    def unused(*args):
        raise AssertionError("cache work without a cache")

    for name in ("_read_cache", "_generator_key", "_head", "_cache_lines"):
        monkeypatch.setattr(finite, name, unused)
    gens = [Index((1,), (2,), 3)]
    pc = _small_class()
    table = build_residue_table(gens, pc, use_cache=False, cache_dir=str(tmp_path))
    assert list(tmp_path.iterdir()) == []
    assert all(table.residue(gens[0], p) == finite_residue(gens[0], p) for p in table.primes)


def test_residue_table_parallel_matches_serial(tmp_path):
    gens = [Index((1,), (1,), 3), Index((2, 1), (0, 2), 3)]
    pc = _small_class()
    serial = build_residue_table(gens, pc, use_cache=False)
    parallel = build_residue_table(gens, pc, use_cache=False, jobs=2)
    assert serial.entries == parallel.entries


@pytest.mark.parametrize(
    "jobs, cpus, workers",
    [(10**6, 8, [3]), (10**6, 2, [2]), (2, 8, [2]), (1, 8, []), (10**6, None, [])],
)
def test_residue_table_clamps_workers(monkeypatch, jobs, cpus, workers):
    made = []

    class RecordingPool:
        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(finite, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(finite.os, "cpu_count", lambda: cpus)
    gens = [Index((1,), (1,), 3)]
    table = build_residue_table(gens, _small_class(), use_cache=False, jobs=jobs)
    assert made == workers  # three primes, so never more than three workers
    assert len(table.entries) == 3


def test_residue_table_rejects_jobs_below_one():
    with pytest.raises(ValueError):
        build_residue_table([Index((1,), (1,), 3)], _small_class(), use_cache=False, jobs=0)


def test_residue_table_int_column():
    gens = [CongruenceIndex((1, 1), (0, 1), 2)]
    pc = primes_in_class(2, 1, 3, floor=5)
    table = build_residue_table(gens, pc, use_cache=False)
    col = table.int_column(gens[0])
    assert len(col) == 3
    assert all(isinstance(v, int) for v in col)


def test_residue_table_int_column_rejects_extension_values():
    gens = [Index((1, 1), (1, 2), 3)]
    pc = PrimeClass(3, 2, (5,))  # 5 has order 2 mod 3
    table = build_residue_table(gens, pc, use_cache=False)
    with pytest.raises(ValueError):
        table.int_column(gens[0])


def test_environment_cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("CMZV_CACHE_DIR", str(tmp_path))
    gens = [Index((1,), (0,), 1)]
    build_residue_table(gens, primes_in_class(1, 0, 2, floor=5))
    assert any(f.name.startswith("residues_") for f in tmp_path.iterdir())


@pytest.mark.parametrize("text", ["k=1;f=1;x", "k=1;f", "k=1;f=1;k=2", "", "k=1"])
def test_congruence_index_parsing_rejects_malformed_text(text):
    with pytest.raises(ValueError):
        parse_congruence_index(text, 2)


# ---- the table as one array, and its cache bytes ----


def _expected_value(gen, p, ctx):
    if isinstance(gen, CongruenceIndex):
        return ctx.scalar(brute_congruence(gen, p))
    return brute_finite(gen, p, ctx)


def _expected_lines(gens, pclass):
    """The cache lines of gens at every prime of the class: one "v": 3 column
    a prime, its cells sorted by index, serialised one by one."""
    lines = []
    for p in pclass.primes:
        ctx = make_fq_context(p, pclass.level)
        cells = sorted((finite._generator_key(g), _expected_value(g, p, ctx).coeffs) for g in gens)
        column = {"v": 3, "N": pclass.level, "alpha": pclass.alpha, "p": p,
                  "modulus": list(ctx.modulus), "zeta_image": list(ctx.zeta_coeffs),
                  "index": [key for key, _ in cells],
                  "residues": [c for _, cell in cells for c in cell]}
        lines.append(json.dumps(column, sort_keys=True, separators=(",", ":")) + "\n")
    return "".join(lines)


def _export(cache_dir, capsys) -> str:
    """The bytes `cmzv cache export` writes for cache_dir."""
    assert main(["cache", "export", "--cache-dir", str(cache_dir)]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("pclass", [PrimeClass(3, 1, (7, 13, 19)), PrimeClass(3, 2, (5, 11, 17))])
def test_cache_file_bytes_are_the_sorted_records(tmp_path, capsys, pclass):
    # class 2 mod 3 has d = 2: congruence residues [v, 0], colored ones in F_(p^2)
    first = [CongruenceIndex((1, 2), (0, 1), 3), Index((2,), (1,), 3)]
    second = [CongruenceIndex((3,), (2,), 3), Index((1, 1), (1, 2), 3), CongruenceIndex((1,), (0,), 3)]
    build_residue_table(first, pclass, cache_dir=str(tmp_path))
    (path,) = tmp_path.iterdir()
    assert path.read_text() == _export(tmp_path, capsys) == _expected_lines(first, pclass)
    # the entries of the first set are foreign to the second and are written back
    table = build_residue_table(second, pclass, cache_dir=str(tmp_path))
    assert path.read_text() == _export(tmp_path, capsys) == _expected_lines(first + second, pclass)
    assert table.values.shape == (3, 3, table.contexts[pclass.primes[0]].d)


def test_table_from_entries_agrees_with_built_table():
    pclass = PrimeClass(3, 1, (7, 13, 19))
    gens = [CongruenceIndex((1,), (f,), 3) for f in range(3)] + [
        CongruenceIndex((1, 1), (f, g), 3) for f in range(3) for g in range(3)
    ]
    built = build_residue_table(gens, pclass, use_cache=False)
    contexts = {p: make_fq_context(p, 3) for p in pclass.primes}
    entries = {(g, p): contexts[p].scalar(brute_congruence(g, p)) for g in gens for p in pclass.primes}
    given = finite.ResidueTable(pclass, tuple(gens), entries, contexts)
    assert built.entries == given.entries == entries
    assert len(built.entries) == len(given.entries) == len(gens) * 3
    assert set(built.entries) == set(entries)
    for g in gens:
        for p in pclass.primes:
            assert built.residue(g, p) == given.residue(g, p) == entries[(g, p)]
        assert built.int_column(g) == [entries[(g, p)].coeffs[0] for p in pclass.primes]
    assert (built.int_matrix() == given.int_matrix()).all()
    # one weight sliced from the shared table, as dimension_table does
    weight_two = gens[3:]
    sub = built.subtable(weight_two)
    alone = build_residue_table(weight_two, pclass, use_cache=False)
    assert sub.generators == alone.generators and sub.primes == alone.primes
    assert sub.entries == alone.entries
    assert (sub.int_matrix() == alone.int_matrix()).all()
    assert [sub.residue(g, p) for g in weight_two for p in pclass.primes] == [
        alone.residue(g, p) for g in weight_two for p in pclass.primes
    ]


def test_table_without_a_residue_reports_it_missing():
    pclass = PrimeClass(3, 1, (7, 13))
    contexts = {p: make_fq_context(p, 3) for p in pclass.primes}
    g, h = CongruenceIndex((1,), (0,), 3), CongruenceIndex((2,), (1,), 3)
    table = finite.ResidueTable(pclass, (g, h), {(g, 7): contexts[7].scalar(3)}, contexts)
    assert len(table.entries) == 1 and (g, 7) in table.entries and (g, 13) not in table.entries
    with pytest.raises(KeyError):
        table.residue(g, 13)
    with pytest.raises(ValueError):
        table.int_matrix()


HEAD = (1, 0, 7, (6, 1), (1,))  # N = 1 at p = 7, d = 1


def _line(keys, residues) -> str:
    """The "v": 3 line of the cells at HEAD, as json.dumps lays it out."""
    return json.dumps({"v": 3, "N": 1, "alpha": 0, "p": 7, "modulus": [6, 1],
                       "zeta_image": [1], "index": keys, "residues": residues})


def _read(lines):
    """(columns, numbers of lines not JSON, of JSON lines that hold no column)."""
    not_json, other, columns = [], [], {}
    finite._merge(finite._json_lines(lines, not_json), columns, other)
    return columns, not_json, other


def test_cache_reader_falls_back_line_by_line(tmp_path):
    # the bad lines spoil no neighbour; the cells of one head, a line each,
    # make one column
    keys = [f"k={k};e=0" for k in range(1, 6)]
    lines = [_line([key], [k]) for k, key in enumerate(keys, 1)]
    # '[1' and '2]' decode together as one value, never alone
    body = [lines[0], "not json", lines[1], "", lines[2], "[1", "2]", lines[3],
            '{"v":3,"N":1}', lines[4]]
    path = tmp_path / "bundle.jsonl"
    path.write_text("\n".join(body) + "\n")
    with open(path) as fh:
        assert _read(fh) == ({HEAD: (keys, [1, 2, 3, 4, 5])}, [2, 6, 7], [9])


@pytest.mark.parametrize("before", [0, 1, 2, 511])
def test_cache_reader_takes_no_record_from_a_line_that_is_not_json_alone(before):
    # two columns joined by a comma, then '[0' and '0]': read together as one
    # JSON array the three lines give three values, as many as the lines
    keys = [f"k={k};e=0" for k in range(1, before + 3)]
    lines = [_line([key], [k % 7]) for k, key in enumerate(keys, 1)]
    body = lines[:before] + [lines[before] + "," + lines[before + 1], "[0", "0]"]
    want = {HEAD: (keys[:before], [k % 7 for k in range(1, before + 1)])} if before else {}
    assert _read(body) == (want, [before + 1, before + 2, before + 3], [])


@pytest.mark.parametrize("residue", [[7], [-1], [1, 0], [], ["3"], [2.0], [True]])
def test_cache_record_residue_must_be_field_coefficients(residue):
    line = json.loads(_line(["k=1;e=0", "k=2;e=0"], [3, 4]))
    assert finite._column(line) == (HEAD, (["k=1;e=0", "k=2;e=0"], [3, 4]))
    assert finite._column({**line, "residues": [3, *residue]}) is None
    # the same cells as a "v": 1 record and a "v": 2 object column, the
    # formats of older releases, and under any "v" but 3, are no column
    fields = {key: value for key, value in line.items() if key not in ("index", "residues")}
    assert finite._column({**fields, "v": 1, "index": "k=1;e=0", "residue": [3]}) is None
    assert finite._column({**fields, "v": 2, "residues": {"k=1;e=0": [3], "k=2;e=0": [4]}}) is None
    for v in (1, 2, 4, 3.0, "3", True, None):
        assert finite._column({**line, "v": v}) is None


def test_cache_keeps_records_of_another_twist_in_place(tmp_path):
    pclass = PrimeClass(5, 1, (11, 31, 41))
    a, b = Index((1,), (1,), 5), Index((2,), (2,), 5)
    build_residue_table([a], pclass, cache_dir=str(tmp_path))
    build_residue_table([a], pclass, cache_dir=str(tmp_path), twist=2)
    (path,) = tmp_path.iterdir()
    both = [json.loads(line) for line in path.read_text().splitlines()]
    assert [col["p"] for col in both] == [11, 11, 31, 31, 41, 41]  # twist 1, then twist 2
    assert both[0]["zeta_image"] != both[1]["zeta_image"]
    build_residue_table([a, b], pclass, cache_dir=str(tmp_path))
    columns = [json.loads(line) for line in path.read_text().splitlines()]
    assert columns[1::2] == both[1::2]  # the twist-2 columns, untouched and in place
    for col, old in zip(columns[::2], both[::2]):
        (at,) = [i for i, key in enumerate(col["index"]) if key == "k=2;e=2"]
        cells = dict(zip(old["index"], old["residues"]))  # d = 1 at p = 1 mod 5
        cells["k=2;e=2"] = col["residues"][at]
        assert col == dict(old, index=sorted(cells), residues=[cells[k] for k in sorted(cells)])


def test_failed_cache_write_leaves_the_old_file_and_no_temporary(tmp_path, monkeypatch):
    pclass, gens = _small_class(), [Index((1,), (1,), 3)]
    build_residue_table(gens, pclass, cache_dir=str(tmp_path))
    (path,) = tmp_path.iterdir()
    old = path.read_bytes()

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(finite.os, "replace", failing_replace)
    with pytest.warns(UserWarning, match="not written"):
        build_residue_table(gens + [Index((2,), (0,), 3)], pclass, cache_dir=str(tmp_path))
    assert list(tmp_path.iterdir()) == [path] and path.read_bytes() == old


def test_cache_line_that_is_not_utf8_is_dropped_with_a_warning(tmp_path):
    pclass, gens = _small_class(), [Index((1,), (1,), 3)]
    first = build_residue_table(gens, pclass, cache_dir=str(tmp_path))
    (path,) = tmp_path.iterdir()
    good = path.read_bytes()
    path.write_bytes(good + b'{"v":2,\xff}\n')
    with pytest.warns(UserWarning, match="dropped 1 bad line"):
        again = build_residue_table(gens, pclass, cache_dir=str(tmp_path))
    assert again.entries == first.entries and path.read_bytes() == good


def _all_congruence_generators(N, wmax):
    """Every congruence index of weight 1..wmax at level N, admissible or not."""
    return [
        CongruenceIndex(ks, fs, N)
        for w in range(1, wmax + 1)
        for r in range(1, w + 1)
        for ks in itertools.product(range(1, w + 1), repeat=r)
        if sum(ks) == w
        for fs in itertools.product(range(N), repeat=r)
    ]


@pytest.mark.parametrize(
    "N, wmax, size, digest",
    [
        (3, 4, 255, "5ea636085ae91eea3fa83ea7e5aaa79bd0d66354dc8b3c8af968cd70dffb522e"),
        (2, 5, 242, "e722291b8f628137e4be59c041d2fe881ab3d1b24e1fac41706a35818f53feb1"),
    ],
)
def test_dim_path_cache_bytes_are_pinned(tmp_path, capsys, N, wmax, size, digest):
    # the residue tables of `cmzv dim` for alpha = 1 at 36 primes from floor 50,
    # as exported, each cell made a per-entry record and the records sorted:
    # the bytes of the per-entry files of the per-depth batched kernel that
    # the suffix trie replaced
    gens = _all_congruence_generators(N, wmax)
    assert len(gens) == size
    build_residue_table(gens, primes_in_class(N, 1, 36, floor=50), cache_dir=str(tmp_path), jobs=1)
    records = []
    for line in _export(tmp_path, capsys).splitlines():
        col = json.loads(line)
        d, flat = len(col["modulus"]) - 1, col.pop("residues")
        records += [dict(col, v=1, index=key, residue=flat[i * d : (i + 1) * d])
                    for i, key in enumerate(col.pop("index"))]
    records.sort(key=lambda rec: (rec["N"], rec["alpha"], rec["p"], rec["index"]))
    data = "".join(json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n" for rec in records)
    assert hashlib.sha256(data.encode()).hexdigest() == digest


def test_inverse_rows_below_two_to_the_sixteen_are_kept_read_only(monkeypatch):
    built = []
    real_row = finite.inverse_row
    monkeypatch.setattr(finite, "inverse_row", lambda p: built.append(p) or real_row(p))
    finite._small_inverse_row.cache_clear()
    first = finite._inverse_powers(101, 3, 110)
    again = finite._inverse_powers(101, 2, 101)
    assert built == [101]
    assert np.array_equal(first[:2, :101], again) and not first[:, 100:].any()
    row = finite._small_inverse_row(101)
    assert not row.flags.writeable and (row * np.arange(1, 101) % 101 == 1).all()
    for _ in range(2):  # 65537 > 2^16: built again on every call
        finite._inverse_powers(65537, 1, 65536)
    assert built == [101, 65537, 65537]
