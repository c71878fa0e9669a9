"""Word algebra: products, rewrites, and regularization decompositions."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmzv.words import (
    E_ZERO,
    Index,
    LinComb,
    Word,
    cumulate_roots,
    difference_roots,
    format_index,
    harmonic_power,
    harmonic_product,
    harmonic_regularize,
    index_to_word,
    indices_of_weight,
    nested_sum,
    parse_index,
    shuffle_product,
    shuffle_regularize,
    word_to_index,
    _strip_trailing_zeros,
)


def W(letters, level=1):
    return Word(letters, level)


def blockword(level, *blocks):
    return Word.from_blocks(blocks, level)


def test_index_word_bijection_example():
    ix = Index((2, 1), (0, 1), 3)
    w = index_to_word(ix)
    assert w.letters == (E_ZERO, 0, 1)
    assert word_to_index(w) == ix


def test_empty_index():
    ix = Index((), (), 4)
    w = index_to_word(ix)
    assert w.letters == ()
    assert word_to_index(w) == ix
    assert ix.weight == 0 and ix.depth == 0
    assert ix.is_admissible


@given(st.data())
def test_index_word_round_trip(data):
    level = data.draw(st.sampled_from([1, 2, 3, 6]))
    r = data.draw(st.integers(0, 4))
    ks = tuple(data.draw(st.integers(1, 4)) for _ in range(r))
    es = tuple(data.draw(st.integers(0, level - 1)) for _ in range(r))
    ix = Index(ks, es, level)
    assert word_to_index(index_to_word(ix)) == ix


def test_membership_predicates():
    assert W(()).is_index_word and W(()).is_admissible
    assert not W((E_ZERO,)).is_index_word
    assert W((0,)).is_index_word and not W((0,)).is_admissible
    assert W((E_ZERO, 0)).is_admissible
    w = Word((1,), 3)  # a nontrivial root as first letter
    assert w.is_admissible


def test_word_validates_letters():
    with pytest.raises(ValueError):
        Word((5,), 3)
    with pytest.raises(ValueError):
        Word((0,), 0)


def test_harmonic_single_blocks():
    # level 6: blocks (2, zeta^1) and (3, zeta^4)
    u = blockword(6, (2, 1))
    v = blockword(6, (3, 4))
    got = harmonic_product(u, v)
    expect = LinComb(
        {
            blockword(6, (2, 1), (3, 4)): 1,
            blockword(6, (3, 4), (2, 1)): 1,
            blockword(6, (5, 5)): 1,
        }
    )
    assert got == expect


def test_harmonic_depth_one_square():
    one = blockword(1, (1, 0))
    got = harmonic_product(one, one)
    assert got == LinComb({blockword(1, (1, 0), (1, 0)): 2, blockword(1, (2, 0)): 1})


def test_harmonic_unit():
    w = blockword(2, (2, 1), (1, 0))
    assert harmonic_product(Word.empty(2), w) == LinComb.single(w)


def test_harmonic_rejects_non_index_words():
    with pytest.raises(ValueError):
        harmonic_product(W((E_ZERO,)), W((0,)))


def test_shuffle_examples():
    e0, e1 = (E_ZERO,), (0,)
    assert shuffle_product(W(e1), W(e1)) == LinComb({W(e1 + e1): 2})
    assert shuffle_product(W(e0), W(e1)) == LinComb({W(e0 + e1): 1, W(e1 + e0): 1})
    got = shuffle_product(W(e0 + e1), W(e1))
    assert got == LinComb({W(e0 + e1 + e1): 2, W(e1 + e0 + e1): 1})


@st.composite
def index_words(draw, level=None, max_weight=4, admissible=False):
    if level is None:
        level = draw(st.sampled_from([1, 2, 3, 4]))
    r = draw(st.integers(0 if not admissible else 1, 2))
    ks, es = [], []
    budget = max_weight
    for _ in range(r):
        k = draw(st.integers(1, max(1, budget - (r - len(ks) - 1))))
        budget -= k
        ks.append(k)
        es.append(draw(st.integers(0, level - 1)))
    if admissible and ks and (ks[0], es[0]) == (1, 0):
        ks[0] += 1
    return index_to_word(Index(tuple(ks), tuple(es), level))


@given(st.data())
def test_products_commute(data):
    level = data.draw(st.sampled_from([1, 3, 4]))
    u = data.draw(index_words(level=level))
    v = data.draw(index_words(level=level))
    assert harmonic_product(u, v) == harmonic_product(v, u)
    assert shuffle_product(u, v) == shuffle_product(v, u)


@given(st.data())
def test_products_associate(data):
    level = data.draw(st.sampled_from([1, 3]))
    u = data.draw(index_words(level=level, max_weight=3))
    v = data.draw(index_words(level=level, max_weight=3))
    w = data.draw(index_words(level=level, max_weight=2))
    assert harmonic_product(harmonic_product(u, v), LinComb.single(w)) == (
        harmonic_product(LinComb.single(u), harmonic_product(v, w))
    )
    assert shuffle_product(shuffle_product(u, v), LinComb.single(w)) == (
        shuffle_product(LinComb.single(u), shuffle_product(v, w))
    )


@given(st.data())
def test_products_preserve_weight_and_admissibility(data):
    level = data.draw(st.sampled_from([1, 2, 4]))
    u = data.draw(index_words(level=level, admissible=True))
    v = data.draw(index_words(level=level, admissible=True))
    for prod in (harmonic_product, shuffle_product):
        for w, c in prod(u, v):
            assert w.weight == u.weight + v.weight
            assert w.is_admissible


def test_cumulate_roots_two_blocks():
    # exponent form: second root exponent becomes the sum of the first two
    w = Word((E_ZERO, 1, E_ZERO, E_ZERO, 2), 5)
    got = cumulate_roots(w)
    assert got.letters == (E_ZERO, 1, E_ZERO, E_ZERO, 3)


def test_rewrites_fix_empty():
    assert cumulate_roots(Word.empty(3)) == Word.empty(3)
    assert difference_roots(Word.empty(3)) == Word.empty(3)


@given(st.data())
def test_difference_inverts_cumulate(data):
    level = data.draw(st.sampled_from([1, 2, 3, 6]))
    letters = data.draw(
        st.lists(st.integers(-1, level - 1), min_size=0, max_size=8)
    )
    w = Word(letters, level)
    assert difference_roots(cumulate_roots(w)) == w
    assert cumulate_roots(difference_roots(w)) == w
    assert cumulate_roots(w).weight == w.weight
    assert cumulate_roots(w).depth == w.depth
    if w.is_index_word:
        assert cumulate_roots(w).is_admissible == w.is_admissible


def test_reversal():
    w = Word((E_ZERO, 0, 1), 2)
    assert w.reversal().letters == (1, 0, E_ZERO)
    assert w.reversal().reversal() == w
    pal = Word((0, E_ZERO, 0), 2)
    assert pal.reversal() == pal


def test_harmonic_regularize_admissible_passthrough():
    w = blockword(1, (2, 0), (1, 0))
    assert harmonic_regularize(w) == [(0, LinComb.single(w))]


def test_harmonic_regularize_single_divergent_letter():
    rows = harmonic_regularize(W((0,)))
    assert rows == [(1, LinComb.single(Word.empty(1)))]


def test_harmonic_regularize_depth_two():
    # leading divergent letter followed by the weight-2 admissible block
    w = blockword(1, (1, 0), (2, 0))
    rows = dict(harmonic_regularize(w))
    assert rows[1] == LinComb.single(blockword(1, (2, 0)))
    assert rows[0] == LinComb(
        {blockword(1, (2, 0), (1, 0)): Fraction(-1), blockword(1, (3, 0)): Fraction(-1)}
    )


@given(st.data())
def test_harmonic_regularize_recombines(data):
    level = data.draw(st.sampled_from([1, 2, 3]))
    w = data.draw(index_words(level=level, max_weight=5))
    rows = harmonic_regularize(w)
    one = Word((0,), level)
    total = LinComb()
    for j, comb in rows:
        for t, c in comb:
            assert t.is_admissible
            total = total + harmonic_product(
                LinComb.single(t, c), harmonic_power(one, j)
            )
    assert total == LinComb({w: Fraction(1)})


def test_shuffle_regularize_single_letters():
    assert shuffle_regularize(W((0,))) == [(1, LinComb.single(Word.empty(1)))]
    assert shuffle_regularize(W((E_ZERO,))) == []


def test_shuffle_regularize_zeta_words():
    for n in (2, 3, 5):
        w = W((E_ZERO,) * (n - 1) + (0,))
        assert shuffle_regularize(w) == [(0, LinComb.single(w))]


@given(st.data())
def test_shuffle_regularize_recombines(data):
    level = data.draw(st.sampled_from([1, 2]))
    letters = data.draw(st.lists(st.integers(-1, level - 1), max_size=5))
    w = Word(letters, level)
    rows = shuffle_regularize(w)
    one = Word((0,), level)
    # sum_j c_j sh root(0)^(sh j) must reproduce the trailing-e0 projection
    expect = LinComb(_strip_trailing_zeros(w))
    recombined = LinComb()
    for j, comb in rows:
        for t, _ in comb:
            assert t.is_admissible
        power = LinComb.single(Word.empty(level))
        for _ in range(j):
            power = shuffle_product(power, LinComb.single(one))
        recombined = recombined + shuffle_product(comb, power)
    assert recombined == expect


def test_parse_and_format_index():
    ix = parse_index("k=2,1;e=0,2", 3)
    assert ix == Index((2, 1), (0, 2), 3)
    assert format_index(ix) == "k=2,1;e=0,2"
    assert parse_index("k=;e=", 5) == Index((), (), 5)
    with pytest.raises(ValueError):
        parse_index("k=2;f=1", 3)
    with pytest.raises(ValueError):
        parse_index("k=2,1;e=0", 3)


def test_indices_of_weight_counts():
    # level 1, weight 3: compositions (3), (2,1) are admissible
    got = indices_of_weight(1, 3)
    assert {(ix.ks, ix.es) for ix in got} == {((3,), (0,)), ((2, 1), (0, 0))}
    # all indices: 4 compositions of 3
    assert len(indices_of_weight(1, 3, admissible_only=False)) == 4
    # level 2 weight 2: 2 compositions, colors 2^r; admissible drops (1,0),(1,*) head
    allw2 = indices_of_weight(2, 2, admissible_only=False)
    assert len(allw2) == 2 + 4
    adm = indices_of_weight(2, 2)
    assert all(ix.is_admissible for ix in adm)
    assert len(adm) == 4  # (2;e) for e in {0,1}; (1,1;e1,e2) needs e1=1: 2 choices


def test_lincomb_drops_zeros():
    w = blockword(1, (2, 0))
    lc = LinComb({w: 1}) + LinComb({w: -1})
    assert not lc
    assert len(LinComb({w: 0})) == 0
    assert LinComb({w: 2}).scale(0) == LinComb()


def test_index_helpers():
    ix = Index((2, 1), (1, 2), 3)
    assert ix.reversed() == Index((1, 2), (2, 1), 3)
    assert ix.weight == 3 and ix.depth == 2
    assert not Index((1,), (0,), 4).is_admissible


# ---- the nested-sum kernel ----


def brute_nested_sum(columns, stop):
    """Sum of prod_j columns[j][n_j - 1] over every stop >= n_1 > ... > n_r >= 1."""
    total = 0
    for ns in itertools.combinations(range(stop, 0, -1), len(columns)):
        term = 1
        for col, n in zip(columns, ns):
            term = term * col[n - 1]
        total = total + term
    return total


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.data())
def test_nested_sum_matches_enumeration(depth, data):
    stop = data.draw(st.integers(depth, 30))
    ring = data.draw(st.sampled_from(["int64", "fraction", "complex128"]))
    p = None
    if ring == "int64":
        p = data.draw(st.sampled_from([2, 3, 101, 65521, 2**31 - 1]))
        entry = st.integers(0, p - 1)
    elif ring == "fraction":
        entry = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))
    else:
        part = st.floats(-1, 1)
        entry = st.builds(complex, part, part)
    columns = [data.draw(st.lists(entry, min_size=stop, max_size=stop)) for _ in range(depth)]
    dtype = {"int64": np.int64, "fraction": object, "complex128": np.complex128}[ring]
    requested = []

    def column(j):
        requested.append(j)
        return np.array(columns[j], dtype=dtype)

    got = nested_sum(depth, column, p)
    assert requested == list(range(depth - 1, -1, -1))  # one at a time, innermost first
    want = brute_nested_sum(columns, stop)
    if ring == "int64":
        assert got == want % p
    elif ring == "fraction":
        assert got == want
    else:
        scale = brute_nested_sum([[abs(x) for x in col] for col in columns], stop)
        assert abs(got - want) <= 1e-12 * scale


def test_nested_sum_int64_is_exact_at_the_largest_modulus():
    p, stop = 2**31 - 1, 30  # every product and prefix sum at its int64 worst case
    columns = [[p - 1] * stop] * 3
    got = nested_sum(3, lambda j: np.array(columns[j], dtype=np.int64), p)
    assert got == brute_nested_sum(columns, stop) % p


def test_nested_sum_rejects_moduli_past_int64_range():
    def column(j):
        raise AssertionError("no column may be requested")

    with pytest.raises(ValueError):
        nested_sum(2, column, p=2**31)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.data())
def test_nested_sum_rows_match_one_dimensional_calls(depth, data):
    stop = data.draw(st.integers(depth, 30))
    rows = data.draw(st.integers(1, 4))
    ring = data.draw(st.sampled_from(["int64", "fraction", "complex128"]))
    p = None
    if ring == "int64":
        p = data.draw(st.sampled_from([2, 101, 2**31 - 1]))
        entry = st.integers(0, p - 1)
    elif ring == "fraction":
        entry = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))
    else:
        entry = st.builds(complex, st.floats(-1, 1), st.floats(-1, 1))
    dtype = {"int64": np.int64, "fraction": object, "complex128": np.complex128}[ring]
    shape = st.lists(entry, min_size=stop, max_size=stop)
    block = np.array(
        [[data.draw(shape) for _ in range(rows)] for _ in range(depth)], dtype=dtype
    )  # block[j] is the (rows, stop) column of slot j
    got = nested_sum(depth, lambda j: block[j].copy(), p)
    assert got.shape == (rows,)
    for g in range(rows):
        assert got[g] == nested_sum(depth, lambda j: block[j, g].copy(), p)  # bit for bit


def test_nested_sum_one_dimensional_object_column_returns_the_element():
    from cmzv.fq import Fq, make_fq_context

    column = [Fraction(1, n) for n in range(1, 6)]
    got = nested_sum(2, lambda j: np.array(column, dtype=object))
    assert type(got) is Fraction
    assert got == brute_nested_sum([column] * 2, 5)
    ctx = make_fq_context(7, 3)
    got = nested_sum(2, lambda j: np.array([ctx.scalar(n) for n in range(1, 7)], dtype=object))
    assert type(got) is Fq
    assert got == ctx.scalar(brute_nested_sum([list(range(1, 7))] * 2, 6))


@pytest.mark.parametrize("text", ["k=1;e=0;x", "k=1;e", "k=1;e=0;e=1", "", "k=1"])
def test_parse_index_rejects_malformed_text(text):
    with pytest.raises(ValueError):
        parse_index(text, 2)


@given(st.integers(1, 4), st.data())
def test_nested_sum_rows_continue_the_named_inner_rows(depth, data):
    # slot j's row i continues row rows[j][i] of slot j + 1, as in a suffix
    # trie; levels gives the sums of every slot, innermost first
    stop = data.draw(st.integers(depth, 12))
    p = data.draw(st.sampled_from([2, 101, 2**31 - 1]))
    widths = [data.draw(st.integers(1, 4)) for _ in range(depth)]
    row = st.lists(st.integers(0, p - 1), min_size=stop, max_size=stop)
    columns = [data.draw(st.lists(row, min_size=w, max_size=w)) for w in widths]
    rows = [
        data.draw(st.lists(st.integers(0, widths[j + 1] - 1), min_size=widths[j], max_size=widths[j]))
        for j in range(depth - 1)
    ]

    def column(j):
        terms = np.array(columns[j], dtype=np.int64)
        return terms if j == depth - 1 else (terms, None, np.array(rows[j]))

    got = nested_sum(depth, column, p, levels=True)
    assert [len(level) for level in got] == widths[::-1]
    for j in range(depth):
        for i in range(widths[j]):
            chain, at = [], i
            for slot in range(j, depth):
                chain.append(columns[slot][at])
                at = rows[slot][at] if slot < depth - 1 else None
            assert got[depth - 1 - j][i] == brute_nested_sum(chain, stop) % p
