"""The numeric series against a frozen copy of the former implementation.

The former qsums wrote the numeric series four times: a numpy q-sum, a
per-term mpmath q-sum, and a numpy and an mpmath truncated sum.  They are
copied here as they were (less the operation counter).  The numpy q-sum sets
the bytes `cmzv qsum` prints, so the present one must equal it bit for bit
at 53 and 64 bits; the mpmath sums and the truncated sums need only agree to
rounding.  The present series runs in blocks of qsums._BLOCK terms; with
the block shrunk to a few terms, so that every sum crosses many block
boundaries, it must still equal the frozen single pass bit for bit.
"""

import itertools
import random
import tracemalloc

import mpmath
import numpy as np
import pytest

from cmzv import qsums
from cmzv.qsums import float_types, qsum_numeric, truncated_cmzv_numeric
from cmzv.words import Index, nested_sum


def frozen_numeric_sum(m, index, weights, precision):
    r = index.depth
    if r == 0:
        return 1.0 + 0.0j
    if r >= m:
        return 0.0 + 0.0j
    N = index.level
    types = float_types(precision)
    if types is None:
        return frozen_numeric_sum_mp(m, index, weights, precision)
    real, cplx, pi = types
    n = np.arange(1, m, dtype=real)
    sin_n = np.sin(pi * n / m)
    sin_1 = np.sin(pi / real(m))
    log_amp = np.log(sin_1) - np.log(sin_n)  # log of 1/|[n]|

    def column(j):
        k, e = index.ks[j], index.es[j]
        theta = (-pi * (n - 1) * k) / m + (2 * pi / N) * ((e * n) % N)
        if weights is not None and weights[j]:
            theta = theta + (2 * pi / m) * np.mod(weights[j] * n, m)
        return np.exp(k * log_amp) * (np.cos(theta) + 1j * np.sin(theta)).astype(cplx)

    return complex(nested_sum(r, column))


def frozen_numeric_sum_mp(m, index, weights, precision):
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


def frozen_truncated_cmzv_numeric(m, index, precision=53):
    r = index.depth
    if r == 0:
        return 1.0 + 0.0j
    if r >= m:
        return 0.0 + 0.0j
    N = index.level
    types = float_types(precision)
    if types is None:
        with mpmath.workprec(precision + 16):

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

    def column(j):
        k, e = index.ks[j], index.es[j]
        return root_table[(e * n.astype(np.int64)) % N] / n.astype(cplx) ** k

    return complex(nested_sum(r, column))


def indices():
    """Two indices of each level 1-5 and depth 1-3, drawn from a fixed seed."""
    rng = random.Random(18)
    for N, r in itertools.product(range(1, 6), range(1, 4)):
        for _ in range(2):
            ks = tuple(rng.randint(1, 3) for _ in range(r))
            es = tuple(rng.randrange(N) for _ in range(r))
            yield Index(ks, es, N)


# integer and fractional exponents a_j of q^(a_j n_j), a zero slot included
WEIGHTS = (None, (1, 0, 2), (0.5, 3, 0))


def bits(z):
    return z.real.hex(), z.imag.hex()


def close(got, want):
    return abs(got - want) <= 1e-14 * abs(want)


@pytest.mark.parametrize("precision", [53, 64])
def test_numpy_qsum_equals_the_frozen_bits(precision):
    bad = []
    for ix, m, weights in itertools.product(indices(), (1, 2, 3, 17, 240, 1001), WEIGHTS):
        w = weights if weights is None else weights[: ix.depth]
        got = qsum_numeric(m, ix, weights=w, precision=precision)
        want = frozen_numeric_sum(m, ix, w, precision)
        if bits(got) != bits(want):
            bad.append((ix, m, w, got, want))
    assert not bad, bad[:3]


def test_mpmath_qsum_agrees_with_the_frozen_loop():
    bad = []
    for ix in indices():
        for m, weights in ((29, None), (41, WEIGHTS[1]), (41, WEIGHTS[2])):
            w = weights if weights is None else weights[: ix.depth]
            got = qsum_numeric(m, ix, weights=w, precision=128)
            want = frozen_numeric_sum(m, ix, w, 128)
            if not close(got, want):
                bad.append((ix, m, w, got, want))
    assert not bad, bad[:3]


@pytest.mark.parametrize("precision", [53, 64, 128])
def test_truncated_agrees_with_the_frozen_sums(precision):
    bad = []
    for ix in indices():
        for m in (1, 3, 40, 501) if precision < 128 else (3, 40):
            got = truncated_cmzv_numeric(m, ix, precision)
            want = frozen_truncated_cmzv_numeric(m, ix, precision)
            if not close(got, want):
                bad.append((ix, m, got, want))
    assert not bad, bad[:3]


def blocked_cases(ms):
    """(index, m, weights) for every index, m in ms and WEIGHTS entry, and
    (index, m, "truncated") for the truncated sum."""
    for ix, m, weights in itertools.product(indices(), ms, WEIGHTS + ("truncated",)):
        yield ix, m, weights if weights in (None, "truncated") else weights[: ix.depth]


def present_and_frozen(ix, m, weights, precision):
    if weights == "truncated":
        return (truncated_cmzv_numeric(m, ix, precision),
                frozen_truncated_cmzv_numeric(m, ix, precision))
    return qsum_numeric(m, ix, weights, precision), frozen_numeric_sum(m, ix, weights, precision)


# blocks of 1 and 2 terms cost one pass per term or two, so they stop at
# m = 240, which already crosses 239 and 119 block boundaries
@pytest.mark.parametrize("block,ms", [
    (1, (1, 2, 3, 17, 240)),
    (2, (1, 2, 3, 17, 240)),
    (3, (1, 2, 3, 17, 240, 1001)),
    (7, (1, 2, 3, 17, 240, 1001)),
])
@pytest.mark.parametrize("precision", [53, 64])
def test_block_boundaries_keep_the_frozen_bits(block, ms, precision, monkeypatch):
    monkeypatch.setattr(qsums, "_BLOCK", block)
    bad = []
    for case in blocked_cases(ms):
        got, want = present_and_frozen(*case, precision)
        if bits(got) != bits(want):
            bad.append((case, got, want))
    assert not bad, bad[:3]


@pytest.mark.parametrize("precision", [53, 64])
def test_three_real_blocks_keep_the_frozen_bits(precision):
    m = 3 * qsums._BLOCK + 2  # three whole blocks and one of a single term
    ix = Index((2, 1, 1), (1, 2, 1), 3)
    for weights in WEIGHTS + ("truncated",):
        got, want = present_and_frozen(ix, m, weights, precision)
        assert bits(got) == bits(want), weights


def test_mpmath_blocks_agree_with_one_block(monkeypatch):
    # m < _BLOCK is one block, so this compares blocks of 2 with one pass
    cases = [case for case in blocked_cases((3, 29)) if case[0].depth == 3]
    whole = [present_and_frozen(*case, 128) for case in cases]
    monkeypatch.setattr(qsums, "_BLOCK", 2)
    for case, (one, frozen) in zip(cases, whole):
        got = present_and_frozen(*case, 128)[0]
        assert got == one and close(got, frozen), case


def test_no_numeric_column_is_longer_than_a_block(monkeypatch):
    shapes, nested_sum = [], qsums.nested_sum

    def spy(depth, column, *args, **kwargs):
        def recorded(j):
            terms = column(j)
            shapes.append(terms.shape)
            return terms

        return nested_sum(depth, recorded, *args, **kwargs)

    monkeypatch.setattr(qsums, "nested_sum", spy)
    ix = Index((2, 1, 1), (1, 2, 1), 3)
    m = 3 * qsums._BLOCK + 2
    qsum_numeric(m, ix, precision=53)
    truncated_cmzv_numeric(m, ix, 53)
    blocks = [(qsums._BLOCK,)] * 3 + [(1,)]
    assert shapes == [shape for shape in blocks for _ in range(ix.depth)] * 2


@pytest.mark.parametrize("series", [qsum_numeric, truncated_cmzv_numeric])
def test_numeric_series_memory_does_not_grow_with_m(series):
    ix = Index((2, 1, 1), (1, 2, 1), 3)
    tracemalloc.start()
    try:
        series(10**6, ix, precision=53)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, peak
