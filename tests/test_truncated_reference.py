"""The exact truncated series against a frozen copy of the former implementation.

The former truncated_cmzv_exact summed CycNum products term by term, with
level 1 in Fraction; it is copied here as it was.  The present one sums
D^weight times the series as an integer element of Z[Z/N], D = lcm(1..m-1),
and must give exactly the same CycNum.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

from cmzv.cyclotomic import CycNum
from cmzv.qsums import truncated_cmzv_exact
from cmzv.words import Index, nested_sum


def frozen_truncated_cmzv_exact(m, index):
    N = index.level
    r = index.depth
    if r == 0:
        return CycNum.one(N)
    if r >= m:
        return CycNum.zero(N)
    roots = [CycNum.root_power(N, t) for t in range(N)] if N > 1 else [1]

    def column(j):
        k, e = index.ks[j], index.es[j]
        terms = [roots[(e * n) % N] * Fraction(1, n**k) for n in range(1, m)]
        return np.array(terms, dtype=object)

    total = nested_sum(r, column)
    return total if N > 1 else CycNum.rational(1, total)


def grid_indices():
    """Three indices per level 1..6 and depth 1..3, k <= 3, every colour allowed."""
    rng = random.Random(30)
    for N in range(1, 7):
        for depth in (1, 2, 3):
            for _ in range(3):
                ks = tuple(rng.randint(1, 3) for _ in range(depth))
                yield Index(ks, tuple(rng.randrange(N) for _ in range(depth)), N)


@pytest.mark.parametrize("m", [1, 2, 3, 17, 60, 101])
def test_truncated_exact_equals_the_frozen_sum(m):
    for ix in grid_indices():
        got, want = truncated_cmzv_exact(m, ix), frozen_truncated_cmzv_exact(m, ix)
        assert (got.level, got.nums, got.den) == (want.level, want.nums, want.den), (m, ix)
