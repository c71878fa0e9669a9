"""Integer lattice reduction and rational reconstruction.

The LLL routine keeps all Gram-Schmidt data in exact integer form (the
classical d_i / lambda_ij bookkeeping), so no floating point enters the
reduction and results are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


def rational_reconstruct(r: int, modulus: int, bound: int) -> Fraction | None:
    """A fraction a/b with |a| <= bound, 0 < b <= bound, a = r*b mod modulus.

    Found by stopping the extended Euclidean algorithm once the remainder
    drops to the bound.  When 2*bound**2 < modulus the result is the unique
    such fraction.  Returns None when none exists.
    """
    if modulus <= 1:
        raise ValueError("modulus must exceed 1")
    if bound < 1:
        raise ValueError("bound must be positive")
    r %= modulus
    r0, r1 = modulus, r
    t0, t1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if t1 == 0 or abs(t1) > bound:
        return None
    if math.gcd(r1, abs(t1)) != 1:
        return None
    cand = Fraction(r1, t1)
    if (cand.numerator - r * cand.denominator) % modulus != 0:
        return None
    return cand


@dataclass(frozen=True)
class IntLattice:
    """A lattice given by a basis of integer row vectors."""

    basis: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.basis:
            width = len(self.basis[0])
            if any(len(row) != width for row in self.basis):
                raise ValueError("ragged basis")

    @property
    def rank(self) -> int:
        return len(self.basis)


def _dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def lll_reduce(lattice, delta=Fraction(99, 100)) -> IntLattice:
    """LLL-reduce a basis of linearly independent integer vectors.

    Accepts an IntLattice or a plain list of rows.  delta is the Lovasz
    parameter (rational, 1/4 < delta < 1).  Raises ValueError on linearly
    dependent input.
    """
    if not isinstance(lattice, IntLattice):
        lattice = IntLattice(tuple(tuple(v) for v in lattice))  # rejects ragged rows
    rows = lattice.basis
    if isinstance(delta, float):
        delta = Fraction(delta).limit_denominator(10**9)
    delta = Fraction(delta)
    if not (Fraction(1, 4) < delta < 1):
        raise ValueError("delta must lie in (1/4, 1)")
    n = len(rows)
    if n == 0:
        return IntLattice(())
    nd, dd = delta.numerator, delta.denominator

    b = [list(v) for v in rows]
    D = [0] * (n + 1)
    D[0] = 1
    lam = [[0] * n for _ in range(n)]

    def gram_row(k):
        for j in range(k + 1):
            u = _dot(b[k], b[j])
            for i in range(j):
                u = (D[i + 1] * u - lam[k][i] * lam[j][i]) // D[i]
            if j < k:
                lam[k][j] = u
            else:
                if u == 0:
                    raise ValueError("basis vectors are linearly dependent")
                D[k + 1] = u

    def red(k, l):
        if 2 * abs(lam[k][l]) > D[l + 1]:
            q = (2 * lam[k][l] + D[l + 1]) // (2 * D[l + 1])
            if q:
                bk, bl = b[k], b[l]
                for idx in range(len(bk)):
                    bk[idx] -= q * bl[idx]
                for i in range(l):
                    lam[k][i] -= q * lam[l][i]
                lam[k][l] -= q * D[l + 1]

    gram_row(0)
    kmax = 0
    k = 1
    while k < n:
        if k > kmax:
            kmax = k
            gram_row(k)
        while True:
            red(k, k - 1)
            if dd * (D[k + 1] * D[k - 1] + lam[k][k - 1] ** 2) < nd * D[k] * D[k]:
                # swap b[k] and b[k-1], updating the integer GS data
                b[k], b[k - 1] = b[k - 1], b[k]
                for j in range(k - 1):
                    lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
                lam0 = lam[k][k - 1]
                Bnew = (D[k - 1] * D[k + 1] + lam0 * lam0) // D[k]
                for i in range(k + 1, kmax + 1):
                    t = lam[i][k]
                    lam[i][k] = (D[k + 1] * lam[i][k - 1] - lam0 * t) // D[k]
                    lam[i][k - 1] = (Bnew * t + lam0 * lam[i][k]) // D[k + 1]
                D[k] = Bnew
                k = max(1, k - 1)
            else:
                for l in range(k - 2, -1, -1):
                    red(k, l)
                k += 1
                break
    return IntLattice(tuple(tuple(v) for v in b))
