"""The residue-table cache reader against the JSON loop it replaced.

The reader matches each line against the text the writer gives a record and
decodes only the other lines.  `reference_read` is the loop that decoded
every line; files that mix the writer's lines with every other kind of line
must give the same table values and the same rewritten file bytes.
"""

import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cmzv import finite
from cmzv.finite import (
    CongruenceIndex,
    PrimeClass,
    build_residue_table,
    make_fq_context,
    primes_in_class,
)
from cmzv.relations import enumerate_generators
from cmzv.words import Index


def reference_read(path, table):
    """(found, kept): every line through _read_records, then the per-record
    rule, as the cache was read before lines were matched to the writer's."""
    by_key = {finite._generator_key(g): i for i, g in enumerate(table.generators)}
    heads = {p: (list(ctx.modulus), list(ctx.zeta_coeffs)) for p, ctx in table.contexts.items()}
    kept, found, last = ([], []), {}, None
    with open(path, encoding="utf-8") as fh:
        for rec in finite._read_records(fh):
            p, key = rec["p"], rec["index"]
            at = (by_key.get(key), table.col_of.get(p))
            if None in at or at in found or (rec["modulus"], rec["zeta_image"]) != heads[p]:
                kept[(p, key) == last].append(rec)
            else:
                found[at] = rec["residue"]
                last = (p, key)
    return found, kept


# alpha = 1 gives F_p (d = 1); alpha = 2 gives F_(p^2) (d = 2) at level 3
CLASSES = {1: PrimeClass(3, 1, (7, 13)), 2: PrimeClass(3, 2, (5, 11))}
GENS = (
    CongruenceIndex((1,), (0,), 3),
    CongruenceIndex((2, 1), (1, 2), 3),
    Index((1, 1), (1, 2), 3),
)
OTHER_GEN = CongruenceIndex((3,), (1,), 3)  # in the file, not in the table
OTHER_PRIME = {1: 19, 2: 17}  # of the class, not in the table


def _record(alpha, gen, p, twist, residue):
    ctx = make_fq_context(p, 3, twist)
    return {"v": 1, "N": 3, "alpha": alpha, "p": p, "index": finite._generator_key(gen),
            "modulus": list(ctx.modulus), "zeta_image": list(ctx.zeta_coeffs),
            "residue": residue}


KINDS = ("writer", "default", "root", "version", "zeros", "minus", "range", "length",
         "escaped", "spaced", "not json", "truncated", "open", "close", "blank")


def _line(kind, rec, k):
    """A cache line of the given kind for rec; k picks among the kind's variants."""
    p, ints = rec["p"], list(map(str, rec["residue"]))
    if kind == "writer":
        return finite._dump(rec)
    if kind == "default":  # json.dumps' own layout, as hand-edited files have it
        return json.dumps(rec) + "\n"
    if kind == "root":  # a stale root image under the table's modulus
        return finite._dump(dict(rec, zeta_image=[(rec["zeta_image"][0] + 1) % p]))
    if kind == "version":
        return finite._dump(dict(rec, v=2))
    if kind == "zeros":
        ints[-1] = "0" + ints[-1]
    elif kind == "minus":
        ints[0] = "-0"
    elif kind == "range":
        ints[0] = str(p + k % 4)
    elif kind == "length":
        ints = ints + ["0"] if k % 2 else ints[:-1]
    elif kind == "escaped":  # the same index, one character as a JSON escape
        key = rec["index"]
        at = k % len(key)
        quoted = '"' + key[:at] + "\\u%04x" % ord(key[at]) + key[at + 1:] + '"'
        return finite._dump(rec).replace(json.dumps(key), quoted)
    elif kind == "spaced":
        return " " + finite._dump(rec)
    elif kind == "not json":
        return "not json\n"
    elif kind == "truncated":
        line = finite._dump(rec)
        return line[: 1 + k % (len(line) - 2)] + "\n"
    elif kind == "open":
        return "[1\n"
    elif kind == "close":
        return "2]\n"
    else:
        return "\n"
    # the writer's line for rec, with the residue list written as ints
    return finite._dump(dict(rec, residue="#")).replace('"#"', "[" + ",".join(ints) + "]")


@st.composite
def cache_lines(draw, alpha):
    """One line of a cache file of the class, of any kind the reader meets."""
    p = draw(st.sampled_from(CLASSES[alpha].primes + (OTHER_PRIME[alpha],)))
    gen = draw(st.sampled_from(GENS + (OTHER_GEN,)))
    d = make_fq_context(p, 3).d
    residue = draw(st.lists(st.integers(0, p - 1), min_size=d, max_size=d))
    rec = _record(alpha, gen, p, draw(st.sampled_from((1, 1, 1, 2))), residue)
    kind = draw(st.sampled_from(("writer", "writer") + KINDS))
    return _line(kind, rec, draw(st.integers(0, 2**16)))


def _check_reader(root, alpha, text):
    """The cache file text gives the reference's table values and rewritten bytes."""
    path = root / f"residues_N3_a{alpha}.jsonl"
    path.write_text(text, encoding="utf-8")
    pclass = CLASSES[alpha]
    truth = build_residue_table(GENS, pclass, use_cache=False)

    found, kept = reference_read(path, truth)
    want = truth.values.copy()
    for (i, j), residue in found.items():
        want[i, j] = residue
    fresh = finite.ResidueTable(pclass, GENS, contexts=truth.contexts)
    assert finite._read_cache(finite._load_cache(str(path)), fresh) == kept

    table = build_residue_table(GENS, pclass, cache_dir=str(root))
    assert np.array_equal(table.values, want)
    if len(found) == want.shape[0] * want.shape[1]:
        assert path.read_text(encoding="utf-8") == text  # nothing computed, nothing written
    else:
        expected = root / "expected.jsonl"
        finite._store_cache(str(expected), kept[0], table, kept[1])
        assert path.read_bytes() == expected.read_bytes()


@pytest.mark.parametrize("alpha", sorted(CLASSES))
@given(data=st.data())
def test_reader_matches_the_json_loop(tmp_path_factory, alpha, data):
    lines = data.draw(st.lists(cache_lines(alpha), max_size=40), label="lines")
    text = "".join(lines)
    if text and data.draw(st.booleans(), label="no final newline"):
        text = text[:-1]
    _check_reader(tmp_path_factory.mktemp("cache"), alpha, text)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("alpha", sorted(CLASSES))
def test_reader_matches_the_json_loop_on_a_cell_first_line(tmp_path, alpha, kind):
    # each kind of line as the first for a cell of the table, with a residue
    # other than the true one, so that a line wrongly taken shows in the values
    p = CLASSES[alpha].primes[0]
    cell = build_residue_table(GENS[1:2], CLASSES[alpha], use_cache=False).values[0, 0]
    rec = _record(alpha, GENS[1], p, 1, [(int(c) + 1) % p for c in cell])
    for k in range(4):
        root = tmp_path / str(k)
        root.mkdir()
        _check_reader(root, alpha, _line(kind, rec, k))


@pytest.mark.parametrize("tables", [[(3, 1, 4), (2, 1, 5)], [(3, 2, 4)]])
def test_program_written_lines_are_not_json_decoded(tmp_path, monkeypatch, tables):
    # the seed-0 tables of the dim benchmark workloads, alpha = 1 and alpha = 2
    built = []
    for N, alpha, wmax in tables:
        gens = [g for w in range(1, wmax + 1) for g in enumerate_generators(N, w)]
        pclass = primes_in_class(N, alpha, 36, floor=50)
        built.append((gens, pclass, build_residue_table(gens, pclass, cache_dir=str(tmp_path))))
    decoded = []
    read_records, loads = finite._read_records, json.loads
    monkeypatch.setattr(finite, "_read_records", lambda *a: decoded.append(a) or read_records(*a))
    monkeypatch.setattr(json, "loads", lambda *a, **k: decoded.append(a) or loads(*a, **k))
    for gens, pclass, cold in built:
        warm = build_residue_table(gens, pclass, cache_dir=str(tmp_path))
        assert np.array_equal(warm.values, cold.values)
    assert decoded == []
