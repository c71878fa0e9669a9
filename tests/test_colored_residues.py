"""Colored residues in every residue field F_(p^d), and the batched calls.

tests/data/colored_residue_reference.json was written by the former
evaluator, which summed numpy object columns of `Fq` elements one generator
at a time where d > 1 and phase rows in F_p where d = 1.  It holds, for the
classes N=3 alpha=2 and N=4 alpha=3 (d = 2), N=7 alpha=2 (d = 3), N=5
alpha=2 (d = 4), N=7 alpha=3 (d = 6), N=1 and N=2, each at twist 1 and
(where N > 2) at a twist != 1: depths 1..4 with exponents up to 3 at the
first four primes of the class (depth >= p included) and the first one
above 200, with the modulus and root image of each context.  It also holds
the evals index family k=2,1,1 (four colours) at the four primes = 2 (mod 3)
above 10^4.
"""

import itertools
import json
import math
import tracemalloc
from collections import defaultdict
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from cmzv import finite, relations
from cmzv.finite import (
    CongruenceIndex,
    PrimeClass,
    build_residue_table,
    congruence_from_colored,
    congruence_residue_int,
    finite_residue,
    primes_in_class,
)
from cmzv.fq import Fq, make_fq_context, to_residue_field
from cmzv.qsums import truncated_cmzv_exact
from cmzv.relations import check_linear_shuffle_finite, check_reversal_finite, linear_shuffle_row
from cmzv.words import E_ZERO, Index, Word, parse_index

REFERENCE = Path(__file__).parent / "data" / "colored_residue_reference.json"


@pytest.fixture(scope="module")
def reference():
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def _direct(ix, p, ctx):
    """The truncated sum below p, term by term in Fq."""
    total = ctx.zero()
    for ns in itertools.combinations(range(p - 1, 0, -1), ix.depth):
        term = ctx.one()
        for k, e, n in zip(ix.ks, ix.es, ns):
            term = term * ctx.zeta_power(e * n) * pow(n, -k, p)
        total = total + term
    return total


def test_reference_covers_the_classes_it_names(reference):
    degrees = {(r["N"], r["alpha"]): len(r["modulus"]) - 1 for r in reference}
    assert degrees == {(3, 2): 2, (4, 3): 2, (7, 2): 3, (5, 2): 4, (7, 3): 6, (1, 0): 1, (2, 1): 1}
    assert {r["twist"] for r in reference} == {1, 2, 3, 5}
    depths = [parse_index(r["index"], r["N"]).depth for r in reference]
    assert set(depths) == {1, 2, 3, 4}
    assert any(r >= rec["p"] for r, rec in zip(depths, reference))  # depth >= p
    evals = {(r["p"], r["index"]) for r in reference if r["p"] > 10**4}
    assert {p for p, _ in evals} == {10007, 10037, 10061, 10067} and len(evals) == 16


def test_colored_residues_match_frozen_reference(reference):
    for rec in reference:
        N, p = rec["N"], rec["p"]
        ctx = make_fq_context(p, N, rec["twist"])
        assert (list(ctx.modulus), list(ctx.zeta_coeffs)) == (rec["modulus"], rec["zeta_image"])
        got = finite_residue(parse_index(rec["index"], N), p, ctx)
        assert list(got.coeffs) == rec["residue"], rec


def test_one_batched_call_per_prime_matches_reference(reference):
    # every index of a (class, twist, prime) in one call: depths 1..4 batched
    groups = defaultdict(list)
    for rec in reference:
        groups[rec["N"], rec["twist"], rec["p"]].append(rec)
    for (N, twist, p), recs in groups.items():
        ctx = make_fq_context(p, N, twist)
        got = finite._residues([parse_index(r["index"], N) for r in recs], p, ctx)
        assert got.tolist() == [r["residue"] for r in recs]


# classes with d = 2, 3, 4 and small primes
_EXTENSIONS = [(3, (5, 11, 17)), (4, (7, 11, 19)), (7, (11, 23)), (5, (7, 13, 17))]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_residue_is_the_reduced_truncated_sum_in_extensions(data):
    N, primes = data.draw(st.sampled_from(_EXTENSIONS))
    p = data.draw(st.sampled_from(primes))
    r = data.draw(st.integers(1, 3))
    ks = tuple(data.draw(st.integers(1, 3)) for _ in range(r))
    es = tuple(data.draw(st.integers(0, N - 1)) for _ in range(r))
    twist = data.draw(st.sampled_from([t for t in range(1, N) if math.gcd(t, N) == 1]))
    ix, ctx = Index(ks, es, N), make_fq_context(p, N, twist)
    assert ctx.d in (2, 3, 4)
    assert finite_residue(ix, p, ctx) == to_residue_field(truncated_cmzv_exact(p, ix), ctx)


def test_depth_p_minus_one_is_the_single_term():
    p, N = 5, 3  # d = 2
    ctx = make_fq_context(p, N)
    ix = Index((2, 1, 3, 1), (1, 2, 2, 0), N)
    want = ctx.one()
    for k, e, n in zip(ix.ks, ix.es, (4, 3, 2, 1)):
        want = want * ctx.zeta_power(e * n) * pow(n, -k, p)
    assert not want.is_zero and finite_residue(ix, p, ctx) == want


def test_depth_at_least_p_leaves_no_term():
    p, N = 5, 3
    ctx = make_fq_context(p, N)
    for r in (5, 6):
        assert finite_residue(Index((1,) * r, (1,) * r, N), p, ctx).is_zero
        assert congruence_residue_int(CongruenceIndex((1,) * r, (2,) * r, N), p) == 0
    assert finite_residue(Index((), (), N), p, ctx) == ctx.one()


def test_mixed_batch_of_colored_and_congruence_generators():
    N = 4
    gens = [
        Index((1, 2), (1, 3), N),
        CongruenceIndex((1, 2), (1, 3), N),
        Index((3,), (2,), N),
        CongruenceIndex((2,), (1,), N),
        Index((1, 1, 1), (1, 2, 3), N),
        Index((), (), N),
        CongruenceIndex((), (), N),
        Index((1,) * 7, (1,) * 7, N),  # depth >= p at p = 7
        CongruenceIndex((1,) * 7, (3,) * 7, N),
    ]
    slots = finite._Slots(gens)  # built once, used at every prime
    for p in (7, 11, 13, 17):  # d = 2, 2, 1, 1
        ctx = make_fq_context(p, N)
        got = finite._residues(slots, p, ctx)
        assert got.shape == (len(gens), ctx.d)
        for gen, row in zip(gens, got.tolist()):
            if isinstance(gen, CongruenceIndex):
                assert Fq(ctx, row) == ctx.scalar(congruence_residue_int(gen, p))
            else:
                assert Fq(ctx, row) == _direct(gen, p, ctx)
        assert (finite._residues(gens, p, ctx) == got).all()


def test_colored_pass_in_small_parts_gives_the_same_sums(monkeypatch):
    N, p = 5, 17  # d = 4, and 4 terms a class
    ctx = make_fq_context(p, N)
    gens = [Index(ks, es, N) for ks, es in (((1, 2), (1, 4)), ((2, 1), (3, 0)), ((1, 1), (2, 2)))]
    deep = CongruenceIndex((2, 1, 1, 1, 1, 1, 1), (0, 4, 3, 2, 1, 0, 4), N)  # 7 slots on 4 terms
    gens += [CongruenceIndex((1, 2), (1, 4), N), CongruenceIndex((2, 1), (0, 0), N), deep]
    whole = finite._residues(gens, p, ctx)
    assert whole[-1, 0] == congruence_residue_int(deep, p) != 0
    monkeypatch.setattr(finite, "_CELLS", 1)  # one generator per pass
    assert (finite._residues(gens, p, ctx) == whole).all()


def _count_residue_calls(monkeypatch):
    calls = []
    real = finite._residues
    monkeypatch.setattr(finite, "_residues", lambda *a: calls.append(a[1]) or real(*a))
    return calls


def test_checks_make_one_residue_call_per_prime(monkeypatch):
    pclass = PrimeClass(3, 2, (5, 11, 17))
    ix = Index((2, 1, 1), (1, 2, 0), 3)
    u, v = Word((E_ZERO, 1), 3), Word((2, E_ZERO), 3)
    assert len(linear_shuffle_row(u, v)) > 2  # several indices in one batch
    want_rev = {}
    for p in pclass.primes:  # the identities computed one index at a time
        ctx = make_fq_context(p, 3)
        lhs = finite_residue(Index(ix.ks, tuple(-e % 3 for e in ix.es), 3), p, ctx)
        color = ctx.zeta_power(-2 * sum(ix.es) % 3)
        want_rev[p] = lhs == color * finite_residue(ix.reversed(), p, ctx) * ((-1) ** ix.weight % p)
    calls = _count_residue_calls(monkeypatch)
    assert check_reversal_finite(ix, pclass) == want_rev
    assert calls == list(pclass.primes)
    calls.clear()
    assert check_linear_shuffle_finite(u, v, pclass) == {p: True for p in pclass.primes}
    assert calls == list(pclass.primes)
    calls.clear()
    cix = CongruenceIndex((1, 2), (1, 2), 3)
    assert congruence_from_colored(cix, 11) == make_fq_context(11, 3).scalar(
        congruence_residue_int(cix, 11)
    )
    assert calls == [11, 11]  # the colored batch, then the direct congruence sum


# (N, alpha, twist): F_p(zeta_N) of degree 1 (N = 2, 3), 2 and 4, at twists 1
# and 2.  At N = 3, alpha = 1, p splits: the twist picks another prime above p,
# and at p = 7 some residues vanish modulo one of them and not the other
_CHECKED = [(2, 1, 1), (3, 1, 1), (3, 1, 2), (3, 2, 1), (3, 2, 2), (4, 3, 1), (5, 2, 1), (5, 2, 2)]


@pytest.mark.parametrize("N, alpha, twist", _CHECKED)
def test_reversal_check_fails_where_the_fq_reference_does(N, alpha, twist):
    # a class that names another alpha asks for another power of zeta (for
    # N = 2, the other sign): the check holds at every prime with the right
    # power and, like the identity summed in Fq, fails where it does not
    pclass = primes_in_class(N, alpha, 5, floor=5)
    indices = (((2, 1, 1), (1, 2, 0)), ((1, 2), (1, 1)), ((3,), (1,)), ((1, 1), (0, 1)))
    for ks, es in indices:
        ix = Index(ks, es, N)
        for named in range(N):
            asked = SimpleNamespace(level=N, alpha=named, primes=pclass.primes)
            want = {}
            for p in pclass.primes:
                ctx = make_fq_context(p, N, twist)
                lhs = finite_residue(Index(ks, tuple(-e % N for e in es), N), p, ctx)
                rev = finite_residue(ix.reversed(), p, ctx) * ((-1) ** ix.weight % p)
                want[p] = lhs == ctx.zeta_power(-named * sum(es)) * rev
            got = check_reversal_finite(ix, asked, twist)
            assert got == want
            assert all(got.values()) == ((named - alpha) * sum(es) % N == 0)


@pytest.mark.parametrize("N, alpha, twist", _CHECKED)
def test_linear_shuffle_check_fails_where_the_fq_reference_does(N, alpha, twist, monkeypatch):
    # the row, then the row with each coefficient in turn moved by one; a
    # moved row fails unless its index vanishes at every prime, as some do
    pclass = primes_in_class(N, alpha, 5, floor=5)
    u, v = Word((E_ZERO, 1 % N), N), Word((N - 1, E_ZERO), N)
    right = linear_shuffle_row(u, v)
    assert len(right) > 2
    failed = 0
    for moved in [None, *right]:
        row = {g: c + (g == moved) for g, c in right.items()}
        monkeypatch.setattr(relations, "linear_shuffle_row", lambda u, v: row)
        want = {}
        for p in pclass.primes:
            ctx = make_fq_context(p, N, twist)
            terms = (finite_residue(g, p, ctx) * (int(c) % p) for g, c in row.items())
            want[p] = sum(terms, ctx.zero()).is_zero
        got = check_linear_shuffle_finite(u, v, pclass, twist)
        assert got == want
        assert all(got.values()) or moved is not None
        failed += not all(got.values())
    assert failed


def test_table_builds_its_slot_arrays_once(monkeypatch):
    built = []

    class CountedSlots(finite._Slots):
        def __init__(self, gens):
            built.append(len(gens))
            super().__init__(gens)

    monkeypatch.setattr(finite, "_Slots", CountedSlots)
    gens = [CongruenceIndex((1, 2), (0, 1), 3), Index((2, 1), (1, 2), 3), Index((1,), (2,), 3)]
    table = build_residue_table(gens, PrimeClass(3, 2, (5, 11, 17, 23)), use_cache=False)
    assert built == [3]
    for p in table.primes:
        for gen in gens[1:]:
            assert table.residue(gen, p) == _direct(gen, p, table.contexts[p])


# (N, p) with F_p(zeta_N) of degree 1 (7, 5), 2 (5, 7, 11) and 4 (7, 13)
_FIELDS = [(3, 7), (4, 5), (3, 5), (4, 7), (3, 11), (5, 7), (5, 13)]


@given(st.data())
def test_trie_matches_each_generator_alone(data):
    N, p = data.draw(st.sampled_from(_FIELDS))
    twist = data.draw(st.sampled_from([t for t in range(1, N) if math.gcd(t, N) == 1]))
    ctx = make_fq_context(p, N, twist)
    slot = st.tuples(st.integers(1, 3), st.integers(0, N - 1))
    gens = []
    for chain in data.draw(st.lists(st.lists(slot, max_size=p + 1), min_size=1, max_size=10)):
        model = data.draw(st.sampled_from([Index, CongruenceIndex]))
        # the chain and some of its suffixes, down to the empty index: not closed
        for cut in sorted(data.draw(st.sets(st.integers(0, len(chain)), min_size=1))):
            ks, cs = tuple(zip(*chain[cut:])) or ((), ())
            gens.append(model(ks, cs, N))
    gens += data.draw(st.lists(st.sampled_from(gens), max_size=3))  # duplicates
    gens = data.draw(st.permutations(gens))
    suffixes = {
        (type(g), g.ks[i:], (g.es if isinstance(g, Index) else g.fs)[i:])
        for g in gens
        for i in range(g.depth)
    }
    slots = finite._Slots(gens)
    assert sum(sum(trie.widths) for trie in slots.tries.values()) == len(suffixes)
    cells = data.draw(st.sampled_from([1, 64, 1 << 20]))  # one node a level, sub-tries, one trie
    for colored, trie in slots.tries.items():
        width = max(1, cells // (N * p) if colored else cells // -(-(p - 1) // N))
        assert all(s.stop - s.start <= width for part in trie.parts(width) for s in part)
    with mock.patch.object(finite, "_CELLS", cells):
        got = finite._residues(slots, p, ctx)
    for gen, row in zip(gens, got.tolist()):
        assert row == finite._residues([gen], p, ctx)[0].tolist()  # a chain, nothing shared


def test_colored_average_peak_memory(monkeypatch):
    # 4^6 colored generators of depth 6, in sub-tries of at most 2^16 entries
    # a level; the per-depth batches that the suffix trie replaced, 2^16
    # entries a batch, peaked at 5.10 MB (3.2 s and 52 MB at p = 1009 with
    # the default _CELLS, where the trie takes 1.3 s and 30 MB)
    monkeypatch.setattr(finite, "_CELLS", 1 << 16)
    cix = CongruenceIndex((1, 2, 1, 1, 2, 1), (1, 3, 0, 2, 1, 3), 4)
    ctx = make_fq_context(101, 4)
    tracemalloc.start()
    try:
        value = congruence_from_colored(cix, 101, ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == ctx.scalar(congruence_residue_int(cix, 101))
    assert peak < 5.10e6
