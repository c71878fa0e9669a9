"""The relation lattice behind dimension_table: certified dims and relations."""

import json
import math
import os
import random
from fractions import Fraction

import numpy as np

from hypothesis import given, settings, strategies as st

from cmzv.cyclotomic import CycNum
from cmzv.finite import CongruenceIndex, PrimeClass, ResidueTable
from cmzv.fq import make_fq_context
from cmzv.lattice import echelon_basis
from cmzv.relations import DimConfig, dimension_table, discover_relations_lll, enumerate_generators

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "relations_n3a1w4_n2a1w4.json")
NO_CACHE = DimConfig(use_cache=False)
PRIMES = [p for p in range(50, 400) if all(p % q for q in range(2, p))][:36]


def _certified(reports, height_bound=1000):
    return [
        (r.dim_estimate, r.b_cert is None or r.b_cert >= height_bound, r.under_determined)
        for r in reports
    ]


def test_level_two_to_weight_five_is_certified_motivic():
    reports = dimension_table(2, 1, 5, NO_CACHE)
    assert _certified(reports) == [(r.mt_dim, True, False) for r in reports]
    # the linear-shuffle and product rows leave the lattice nothing to find
    assert reports[-1].dim_estimate == 5
    assert (reports[-1].exact_relation_rank, reports[-1].lll_extra_relations) == (157, 0)


def test_level_four_to_weight_four_is_certified_motivic():
    reports = dimension_table(4, 1, 4, NO_CACHE)
    assert [r.dim_estimate for r in reports] == [1, 2, 4, 8]
    assert _certified(reports) == [(r.mt_dim, True, False) for r in reports]


def test_narrow_gap_is_flagged():
    # 8 training primes cannot separate the weight-4 relations from the rest
    few = DimConfig(train_primes=8, verify_primes=4, use_cache=False)
    w4 = dimension_table(3, 1, 4, few)[-1]
    assert w4.under_determined
    assert w4.b_cert is not None and w4.b_cert < few.height_bound


def _table(columns):
    pclass = PrimeClass(1, 0, tuple(PRIMES))
    contexts = {p: make_fq_context(p, 1) for p in PRIMES}
    entries = {
        (g, p): contexts[p].scalar(v % p) for g, col in columns.items() for p, v in zip(PRIMES, col)
    }
    return ResidueTable(pclass, tuple(columns), entries, contexts)


@st.composite
def planted(draw):
    """G generators; each dependent one is a combination of height <= 50 of
    the independent generators before it."""
    G = draw(st.integers(1, 10))
    dependent = draw(st.lists(st.booleans(), min_size=G, max_size=G))
    rng = random.Random(draw(st.integers(0, 2**32)))
    gens = [CongruenceIndex((k,), (0,), 1) for k in range(1, G + 1)]
    columns, relations, independent = {}, [], []
    for g, dep in zip(gens, dependent):
        if dep and independent:
            coeffs = {h: draw(st.integers(-50, 50)) for h in independent}
            columns[g] = [sum(c * columns[h][i] for h, c in coeffs.items()) for i in range(36)]
            relations.append({h: c for h, c in coeffs.items() if c} | {g: -1})
        else:
            columns[g] = [rng.randrange(p) for p in PRIMES]
            independent.append(g)
    return columns, relations


@settings(max_examples=40, deadline=None)
@given(planted())
def test_planted_relations_are_found_certified_and_normal(case):
    columns, relations = case
    found = discover_relations_lll(_table(columns))
    assert [{g: c for g, c in cand.coefficients.items()} for cand in found] == [
        {g: CycNum.rational(1, c) for g, c in rel.items()} for rel in relations
    ]
    assert all(cand.source == "lll_discovered" and cand.verified_primes == 36 for cand in found)
    assert found.held_out_failures == 0
    assert found.b_cert is None or found.b_cert >= 1000


def test_random_columns_give_no_relation():
    rng = random.Random(11)
    columns = {
        CongruenceIndex((k,), (0,), 1): [rng.randrange(p) for p in PRIMES] for k in range(1, 11)
    }
    found = discover_relations_lll(_table(columns))
    assert found == [] and found.b_cert >= 1000 and found.held_out_failures == 0


def _rank(rows, G):
    """The rank over Q of rational rows {generator position: Fraction}."""
    A = np.zeros((len(rows), G), dtype=np.int64)
    for i, row in enumerate(rows):
        den = math.lcm(*(c.denominator for c in row.values()))
        for h, c in row.items():
            A[i, h] = int(c * den)
    return len(echelon_basis(A))


def test_relation_lists_match_the_greedy_search_where_it_was_right():
    # the relations listed span what the fixture's relations span, weight by
    # weight: the rank of their union equals the rank of each
    with open(FIXTURE, encoding="utf-8") as fh:
        expected = json.load(fh)
    for key in ("3,1,4", "2,1,4"):
        N, alpha, wmax = map(int, key.split(","))
        for report, want in zip(dimension_table(N, alpha, wmax, NO_CACHE), expected[key], strict=True):
            pos = {g: i for i, g in enumerate(enumerate_generators(N, report.weight))}
            got = [
                {pos[g]: Fraction(c.nums[0], c.den) for g, c in cand.coefficients.items()}
                for cand in report.relations
            ]
            want = [
                {int(h): Fraction(c) for h, c in (t.split(":") for t in line.split()[1:])}
                for line in want
            ]
            G = len(pos)
            assert _rank(got, G) == _rank(want, G) == _rank(got + want, G), (key, report.weight)
            assert all(cand.verified_primes == 36 for cand in report.relations)
