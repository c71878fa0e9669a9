"""Frozen outputs of the word algebra: term order and the last bits.

tests/data/word_algebra_reference.json was written by the former
implementation, which had one product table and one peel loop per product.
It holds the ordered regularization rows of every word of weight <= 5 at
levels 1 and 2 and of weight <= 4 at level 3 (harmonic: the index words),
and float.hex of the symmetric values of the 63 level-3 indices of weight
<= 3 at alpha = 1, 2 and precision 53.  Term order matters: the symmetric
values sum floats in the order of the regularization rows.
"""

import json
from pathlib import Path

import pytest

from cmzv.symmetric import MzvEvalConfig, symmetric_cmzv
from cmzv.words import Word, format_index, harmonic_regularize, parse_index, shuffle_regularize

REFERENCE = Path(__file__).parent / "data" / "word_algebra_reference.json"


@pytest.fixture(scope="module")
def reference():
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def _rows(rows):
    return [
        [j, [[list(t.letters), f"{c.numerator}/{c.denominator}"] for t, c in lc]]
        for j, lc in rows
    ]


@pytest.mark.parametrize("kind, regularize", [
    ("harmonic", harmonic_regularize),
    ("shuffle", shuffle_regularize),
])
def test_regularization_rows_match_frozen_order(reference, kind, regularize):
    records = reference[kind]
    assert len(records) == {"harmonic": 528, "shuffle": 765}[kind]
    bad = [
        rec for rec in records
        if _rows(regularize(Word(tuple(rec["letters"]), rec["level"]))) != rec["rows"]
    ]
    assert not bad, bad[0]


def test_symmetric_values_match_frozen_bits(reference):
    records = reference["symmetric"]
    assert len(records) == 2 * 63
    cfg = MzvEvalConfig(precision=53)
    bad = []
    for rec in records:
        ix = parse_index(rec["index"], 3)
        assert format_index(ix) == rec["index"]
        val = symmetric_cmzv(rec["alpha"], ix, cfg)
        got = {
            "value": [val.value.real.hex(), val.value.imag.hex()],
            "tol": val.tol.hex(),
            "t_coeffs": [[c.real.hex(), c.imag.hex()] for c in val.poly.coeffs],
        }
        if any(got[key] != rec[key] for key in got):
            bad.append((rec, got))
    assert not bad, bad[0]
