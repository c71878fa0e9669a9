"""The numeric series against a frozen copy of the former implementation.

The former qsums wrote the numeric series four times: a numpy q-sum, a
per-term mpmath q-sum, and a numpy and an mpmath truncated sum.  They are
copied here as they were (less the operation counter).  The numpy q-sum sets
the bytes `cmzv qsum` prints, so the present one must equal it bit for bit
at 53 and 64 bits; the mpmath sums and the truncated sums need only agree to
rounding.
"""

import itertools
import random

import mpmath
import numpy as np
import pytest

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
