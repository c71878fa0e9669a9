"""The residue-cache reader against a plain first-source-wins JSON loop.

A cache file holds one line per column, the residues of a class at one prime
in one residue field; legacy files hold one record per entry.  `reference`
decodes every line alone and checks each field by hand; files that mix
valid, partial and duplicate columns, columns of other primes, twists and
classes, legacy records and every kind of bad line must give the same cells,
the same table values, and after the rewrite the same `cmzv cache export`.
"""

import json
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cmzv import finite
from cmzv.cli import main
from cmzv.finite import CongruenceIndex, PrimeClass, build_residue_table, make_fq_context
from cmzv.relations import enumerate_generators
from cmzv.words import Index

# alpha = 1 gives F_p (d = 1); alpha = 2 gives F_(p^2) (d = 2) at level 3
CLASSES = {1: PrimeClass(3, 1, (7, 13)), 2: PrimeClass(3, 2, (5, 11))}
GENS = (
    CongruenceIndex((1,), (0,), 3),
    CongruenceIndex((2, 1), (1, 2), 3),
    Index((1, 1), (1, 2), 3),
)
OTHER_GEN = CongruenceIndex((3,), (1,), 3)  # in the file, not in the table
OTHER_PRIME = {1: 19, 2: 17}  # of the class, not in the table
KEYS = [finite._generator_key(g) for g in GENS + (OTHER_GEN,)]


def _reference_column(value):
    """(head, residues) of a line's value, each field checked one by one."""
    if not isinstance(value, dict) or value.get("v") not in (1, 2):
        return None
    fields = ("N", "alpha", "p", "modulus", "zeta_image")
    N, alpha, p, modulus, zeta = (value.get(f) for f in fields)
    for x in (N, alpha, p):
        if type(x) is not int:
            return None
    for x in (modulus, zeta):
        if type(x) is not list or any(type(c) is not int for c in x):
            return None
    if value["v"] == 1:
        if type(value.get("index")) is not str:
            return None
        residues = {value["index"]: value.get("residue")}
    else:
        residues = value.get("residues")
        if type(residues) is not dict:
            return None
    d = len(modulus) - 1
    for residue in residues.values():
        if d < 1 or type(residue) is not list or len(residue) != d:
            return None
        if any(type(c) is not int or not 0 <= c < p for c in residue):
            return None
    return (N, alpha, p, tuple(modulus), tuple(zeta)), residues


def reference(path):
    """(cells, heads, legacy, bad): (head, index) -> the first residue read
    for it, the heads in the order they first appear, and whether a line was
    a legacy record and whether one was bad."""
    cells, heads, legacy, bad = {}, [], False, False
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            try:
                column = _reference_column(json.loads(line))
            except ValueError:
                column = None
            if column is None:
                bad = True
                continue
            head, residues = column
            legacy = legacy or json.loads(line)["v"] == 1
            if head not in heads:
                heads.append(head)
            for index, residue in residues.items():
                cells.setdefault((head, index), residue)
    return cells, heads, legacy, bad


def _export(root):
    out = root / "export.jsonl"
    assert main(["cache", "export", "--cache-dir", str(root / "cache"), "--out", str(out)]) == 0
    return out.read_text(encoding="utf-8")


def _column(alpha, p, twist, residues, N=3):
    ctx = make_fq_context(p, N, twist)
    return {"v": 2, "N": N, "alpha": alpha, "p": p, "modulus": list(ctx.modulus),
            "zeta_image": list(ctx.zeta_coeffs), "residues": residues}


def _record(column):
    (index, residue), = column["residues"].items()
    rec = {k: v for k, v in column.items() if k != "residues"}
    return dict(rec, v=1, index=index, residue=residue)


KINDS = ("writer", "default", "root", "version", "zeros", "minus", "range", "length",
         "escaped", "spaced", "not json", "truncated", "open", "close", "blank",
         "record", "bool", "float", "field")


def _line(kind, column, k):
    """A cache line of the given kind for column; k picks among the kind's variants."""
    p, residues = column["p"], column["residues"]
    index = sorted(residues)[k % len(residues)] if residues else None
    if kind == "writer":
        return finite._dump(column)
    if kind == "default":  # json.dumps' own layout, as hand-edited files have it
        return json.dumps(column) + "\n"
    if kind == "root":  # a stale root image under the same modulus
        return finite._dump(dict(column, zeta_image=[(column["zeta_image"][0] + 1) % p]))
    if kind == "version":
        return finite._dump(dict(column, v=3))
    if kind == "field":
        return finite._dump({f: v for f, v in column.items() if f != sorted(column)[k % 7]})
    if kind == "record" and index is not None:  # the legacy per-entry record of one cell
        return finite._dump(_record(dict(column, residues={index: residues[index]})))
    if kind in ("bool", "float", "range", "length", "minus") and index is not None:
        bad = list(residues[index])
        if kind == "bool":
            bad[0] = bool(bad[0] % 2)
        elif kind == "float":
            bad[-1] = float(bad[-1])
        elif kind == "range":
            bad[0] = p + k % 4 if k % 5 else -1 - k % 3
        elif kind == "length":
            bad = bad + [0] if k % 2 else bad[:-1]
        else:  # written -0, which JSON reads as the integer 0
            line = finite._dump(dict(column, residues={**residues, index: ["#"]}))
            return line.replace('["#"]', "[" + ",".join(["-0"] + list(map(str, bad[1:]))) + "]")
        return finite._dump(dict(column, residues={**residues, index: bad}))
    if kind == "zeros" and index is not None:  # not JSON: a leading zero
        line = finite._dump(dict(column, residues={**residues, index: ["#"]}))
        return line.replace('["#"]', "[0" + ",".join(map(str, residues[index])) + "]")
    if kind == "escaped" and index is not None:  # the same index, one character as an escape
        at = k % len(index)
        quoted = '"' + index[:at] + "\\u%04x" % ord(index[at]) + index[at + 1:] + '"'
        return finite._dump(column).replace(json.dumps(index), quoted)
    if kind == "spaced":
        return " " + finite._dump(column)
    if kind == "truncated":
        line = finite._dump(column)
        return line[: 1 + k % (len(line) - 2)] + "\n"
    return {"not json": "not json\n", "open": "[1\n", "close": "2]\n"}.get(kind, "\n")


@st.composite
def cache_lines(draw, alpha):
    """One line of a cache file of the class, of any kind the reader meets."""
    p = draw(st.sampled_from(CLASSES[alpha].primes + (OTHER_PRIME[alpha],)))
    d = make_fq_context(p, 3).d
    keys = draw(st.lists(st.sampled_from(KEYS), unique=True, max_size=len(KEYS)))
    residues = {key: draw(st.lists(st.integers(0, p - 1), min_size=d, max_size=d))
                for key in keys}
    label = draw(st.sampled_from((alpha,) * 5 + (3 - alpha,)))  # now and then another class
    column = _column(label, p, draw(st.sampled_from((1, 1, 1, 2))), residues)
    kind = draw(st.sampled_from(("writer",) * 6 + ("record",) * 2 + KINDS))
    return _line(kind, column, draw(st.integers(0, 2**16)))


def _check_reader(root, alpha, text):
    """The cache file text gives the reference's cells, table values and export."""
    path = root / "cache" / f"residues_N3_a{alpha}.jsonl"
    path.parent.mkdir()
    path.write_text(text, encoding="utf-8")
    pclass = CLASSES[alpha]
    truth = build_residue_table(GENS, pclass, use_cache=False)

    cells, heads, legacy, bad = reference(path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        columns, stale = finite._read_cache(str(path))
    assert [str(path) in str(w.message) for w in caught] == [True] * bad  # one warning
    assert list(columns) == heads and stale == (legacy or bad)
    assert {(h, i): r for h, residues in columns.items() for i, r in residues.items()} == cells

    want = truth.values.copy()
    computed = {}
    for j, p in enumerate(pclass.primes):
        head = finite._head(3, alpha, p, truth.contexts[p])
        for i, key in enumerate(KEYS[: len(GENS)]):
            if (head, key) in cells:
                want[i, j] = cells[head, key]
            else:
                computed[head, key] = truth.values[i, j].tolist()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        table = build_residue_table(GENS, pclass, cache_dir=str(root / "cache"))
    assert np.array_equal(table.values, want)
    if not (computed or legacy or bad):
        assert path.read_text(encoding="utf-8") == text  # nothing computed, nothing written
    else:
        assert all(json.loads(line)["v"] == 2 for line in path.read_text().splitlines())
    heads += [h for h in dict.fromkeys(h for h, _ in computed) if h not in heads]
    order = {h: n for n, h in enumerate(heads)}
    expected = sorted({**cells, **computed}.items(),
                      key=lambda cell: (cell[0][0][:3], cell[0][1], order[cell[0][0]]))
    records = ({"v": 1, "N": N, "alpha": a, "p": p, "index": index, "modulus": list(m),
                "zeta_image": list(z), "residue": residue}
               for ((N, a, p, m, z), index), residue in expected)
    assert _export(root) == "".join(map(finite._dump, records))


@pytest.mark.parametrize("alpha", sorted(CLASSES))
@given(data=st.data())
def test_reader_matches_the_json_loop(tmp_path_factory, alpha, data):
    lines = data.draw(st.lists(cache_lines(alpha), max_size=30), label="lines")
    text = "".join(lines)
    if text and data.draw(st.booleans(), label="no final newline"):
        text = text[:-1]
    _check_reader(tmp_path_factory.mktemp("cache"), alpha, text)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("alpha", sorted(CLASSES))
def test_reader_matches_the_json_loop_on_a_cell_first_line(tmp_path, alpha, kind):
    # each kind of line first in the file, for two cells of the table, with
    # residues other than the true ones, so that a line wrongly taken shows
    # in the values; a valid column of the true residues follows
    p = CLASSES[alpha].primes[0]
    true = build_residue_table(GENS, CLASSES[alpha], use_cache=False).values[:, 0].tolist()
    wrong = {KEYS[i]: [(c + 1) % p for c in true[i]] for i in (1, 2)}
    for k in range(4):
        root = tmp_path / str(k)
        root.mkdir()
        later = finite._dump(_column(alpha, p, 1, dict(zip(KEYS, true))))
        _check_reader(root, alpha, _line(kind, _column(alpha, p, 1, wrong), k) + later)


@pytest.mark.parametrize("tables", [[(3, 1, 4), (2, 1, 5)], [(3, 2, 4)]])
def test_program_written_lines_are_read_once_and_kept(tmp_path, monkeypatch, tables):
    # the seed-0 tables of the dim benchmark workloads, alpha = 1 and alpha = 2:
    # a warm table decodes each column line once and writes nothing
    built = []
    for N, alpha, wmax in tables:
        gens = [g for w in range(1, wmax + 1) for g in enumerate_generators(N, w)]
        pclass = finite.primes_in_class(N, alpha, 36, floor=50)
        built.append((gens, pclass, build_residue_table(gens, pclass, cache_dir=str(tmp_path))))
    before = {path: path.read_bytes() for path in tmp_path.iterdir()}
    decoded, loads = [], json.loads
    monkeypatch.setattr(json, "loads", lambda *a, **k: decoded.append(a) or loads(*a, **k))
    monkeypatch.setattr(finite, "_write_lines", lambda *a: pytest.fail("cache rewritten"))
    for gens, pclass, cold in built:
        warm = build_residue_table(gens, pclass, cache_dir=str(tmp_path))
        assert np.array_equal(warm.values, cold.values)
    assert len(decoded) == len(built) * 36
    assert {path: path.read_bytes() for path in tmp_path.iterdir()} == before


@pytest.mark.parametrize("alpha", sorted(CLASSES))
def test_whole_columns_and_columns_with_a_cell_missing(tmp_path, monkeypatch, alpha):
    # a whole column is taken at one lookup, also for a table of one
    # generator, whose lookup gives the cell alone; a column with a cell
    # missing takes its other cells and computes that one
    pclass = CLASSES[alpha]
    cold = build_residue_table(GENS, pclass, cache_dir=str(tmp_path))
    for gens in (GENS, GENS[1:2]):
        warm = build_residue_table(gens, pclass, cache_dir=str(tmp_path))
        assert np.array_equal(warm.values, cold.subtable(gens).values)
    path = tmp_path / f"residues_N3_a{alpha}.jsonl"
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    del lines[0]["residues"][KEYS[1]]
    path.write_text("".join(map(finite._dump, lines)))
    computed = []
    real = finite._compute_column
    monkeypatch.setattr(finite, "_compute_column", lambda a: computed.append((*a[:3], a[4].size)) or real(a))
    again = build_residue_table(GENS, pclass, cache_dir=str(tmp_path))
    assert np.array_equal(again.values, cold.values)
    assert computed == [(3, alpha, lines[0]["p"], 1)]  # one prime, one generator
