"""The residue-cache reader against a plain first-source-wins JSON loop.

A cache file holds one "v": 3 line per column, the residues of a class at
one prime in one residue field as an index list and one flat list of
integers.  `reference` decodes every line alone and checks each field by
hand; files that mix valid, partial, repeated and duplicate columns, columns
of other primes, twists and classes, the per-entry records ("v": 1) and
object columns ("v": 2) of older releases, which count as bad lines, and
every other kind of bad line must give the same cells, the same table
values, and the same `cmzv cache export`: the rewritten file's own lines.
"""

import json
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cmzv import finite
from cmzv.cli import main
from cmzv.finite import CongruenceIndex, PrimeClass, build_residue_table, make_fq_context
from cmzv.relations import DimConfig, dimension_table, enumerate_generators
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


def _first(pairs):
    """A JSON object whose repeated keys keep their first value."""
    obj = {}
    for key, value in pairs:
        obj.setdefault(key, value)
    return obj


def _reference_column(value):
    """(head, residues) of a line's value, each field checked one by one, the
    residues as a dict from index to cell, the first cell of an index winning;
    None for a line of an older format as for any bad line."""
    if not isinstance(value, dict):
        return None
    fields = ("v", "N", "alpha", "p", "modulus", "zeta_image")
    v, N, alpha, p, modulus, zeta = (value.get(f) for f in fields)
    for x in (v, N, alpha, p):
        if type(x) is not int:
            return None
    if v != 3:
        return None
    for x in (modulus, zeta):
        if type(x) is not list or any(type(c) is not int for c in x):
            return None
    d = len(modulus) - 1
    if d < 1:
        return None
    index, residues = value.get("index"), value.get("residues")
    if type(index) is not list or type(residues) is not list:
        return None
    if len(residues) != d * len(index) or any(type(key) is not str for key in index):
        return None
    if any(type(c) is not int or not 0 <= c < p for c in residues):
        return None
    cells = [(key, residues[i * d : (i + 1) * d]) for i, key in enumerate(index)]
    return (N, alpha, p, tuple(modulus), tuple(zeta)), _first(cells)


def reference(path):
    """(cells, heads, bad): (head, index) -> the first residue read for it,
    the heads in the order they first appear, and whether a line was bad."""
    cells, heads, bad = {}, [], False
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            try:
                value = json.loads(line, object_pairs_hook=_first)
            except ValueError:
                value = None
            column = _reference_column(value)
            if column is None:
                bad = True
                continue
            head, residues = column
            if head not in heads:
                heads.append(head)
            for index, residue in residues.items():
                cells.setdefault((head, index), residue)
    return cells, heads, bad


def _writer_lines(heads, cells):
    """The "v": 3 lines of the columns of heads, sorted by (N, alpha, p) and
    otherwise in order, each index list sorted, one json.dumps a line."""
    lines = []
    for head in sorted(heads, key=lambda head: head[:3]):
        N, alpha, p, modulus, zeta = head
        index = sorted(key for h, key in cells if h == head)
        column = {"v": 3, "N": N, "alpha": alpha, "p": p, "modulus": list(modulus),
                  "zeta_image": list(zeta), "index": index,
                  "residues": [c for key in index for c in cells[head, key]]}
        lines.append(json.dumps(column, sort_keys=True, separators=(",", ":")) + "\n")
    return "".join(lines)


def _export(root):
    out = root / "export.jsonl"
    assert main(["cache", "export", "--cache-dir", str(root / "cache"), "--out", str(out)]) == 0
    return out.read_text(encoding="utf-8")


def _column(alpha, p, twist, residues, N=3):
    """The "v": 3 line of the {index: cell} residues, laid out as the writer does."""
    ctx = make_fq_context(p, N, twist)
    index = sorted(residues)
    return {"v": 3, "N": N, "alpha": alpha, "p": p, "modulus": list(ctx.modulus),
            "zeta_image": list(ctx.zeta_coeffs), "index": index,
            "residues": [c for key in index for c in residues[key]]}


def _cells(column):
    """The {index: cell} of a "v": 3 line, the first cell of an index winning."""
    d, residues = len(column["modulus"]) - 1, column["residues"]
    return _first((key, residues[i * d : (i + 1) * d]) for i, key in enumerate(column["index"]))


def _legacy(column):
    """The "v": 2 line of a column, the format before index lists: its cells
    in one object."""
    rec = {k: v for k, v in column.items() if k != "index"}
    return dict(rec, v=2, residues=_cells(column))


def _record(column, index):
    """The "v": 1 record of one cell of a column, the format before columns."""
    rec = {k: v for k, v in column.items() if k != "residues"}
    return dict(rec, v=1, index=index, residue=_cells(column)[index])


def _expand(columns):
    """(head, index) -> cell of the reader's columns, each index list
    without repeats and as long as its residues allow."""
    out = {}
    for head, (index, residues) in columns.items():
        d = len(head[3]) - 1
        assert len(set(index)) == len(index) and len(residues) == d * len(index)
        out.update(((head, key), residues[i * d : (i + 1) * d]) for i, key in enumerate(index))
    return out


KINDS = ("writer", "default", "root", "version", "zeros", "minus", "range", "length",
         "escaped", "spaced", "not json", "truncated", "open", "close", "blank",
         "record", "legacy", "bool", "float", "field", "index", "entry", "repeat", "unsorted")


def _line(kind, column, k):
    """A cache line of the given kind for column; k picks among the kind's variants."""
    p, residues, d = column["p"], _cells(column), len(column["modulus"]) - 1
    index = sorted(residues)[k % len(residues)] if residues else None

    def cell(new):  # the column with the cell of index replaced
        at, flat = column["index"].index(index), list(column["residues"])
        flat[at * d : (at + 1) * d] = new
        return dict(column, residues=flat)

    if kind == "writer":
        return finite._dump(column)
    if kind == "default":  # json.dumps' own layout, as hand-edited files have it
        return json.dumps(column) + "\n"
    if kind == "root":  # a stale root image under the same modulus
        return finite._dump(dict(column, zeta_image=[(column["zeta_image"][0] + 1) % p]))
    if kind == "version":
        return finite._dump(dict(column, v=4))
    if kind == "field":
        return finite._dump({f: v for f, v in column.items() if f != sorted(column)[k % 8]})
    if kind == "legacy":  # the "v": 2 column of all cells in one object, now a bad line
        return finite._dump(_legacy(column))
    if kind == "index":  # the index list as a string or an object
        bad = ",".join(column["index"]) if k % 2 else dict.fromkeys(column["index"], 0)
        return finite._dump(dict(column, index=bad))
    if kind == "record" and index is not None:  # the "v": 1 record of one cell, now a bad line
        return finite._dump(_record(column, index))
    if kind == "entry" and index is not None:  # an index entry that is no string
        bad = list(column["index"])
        bad[bad.index(index)] = [k % 3, None, [index]][k % 3]
        return finite._dump(dict(column, index=bad))
    if kind == "repeat" and index is not None:  # index again, before or after the rest
        again = [(c + 1) % p for c in residues[index]]
        if k % 2:
            return finite._dump(dict(column, index=[index, *column["index"]],
                                     residues=again + column["residues"]))
        return finite._dump(dict(column, index=[*column["index"], index],
                                 residues=column["residues"] + again))
    if kind == "unsorted" and index is not None:  # the cells in reverse order
        order = sorted(residues, reverse=True)
        return finite._dump(dict(column, index=order, residues=[c for key in order
                                                                 for c in residues[key]]))
    if kind in ("bool", "float", "range", "length", "minus") and index is not None:
        bad = list(residues[index])
        if kind == "bool":
            bad[0] = bool(bad[0] % 2)
        elif kind == "float":
            bad[-1] = float(bad[-1])
        elif kind == "range":
            bad[0] = p + k % 4 if k % 5 else -1 - k % 3
        elif kind == "length":  # residues not d per index
            bad = bad + [0] if k % 2 else bad[:-1]
        else:  # written -0, which JSON reads as the integer 0
            return finite._dump(cell(["#"] + bad[1:])).replace('"#"', "-0")
        return finite._dump(cell(bad))
    if kind == "zeros" and index is not None:  # not JSON: a leading zero
        return finite._dump(cell(["#"] + residues[index][1:])).replace(
            '"#"', "0" + str(residues[index][0]))
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
    kind = draw(st.sampled_from(("writer",) * 6 + ("record", "legacy") * 2 + KINDS))
    return _line(kind, column, draw(st.integers(0, 2**16)))


def _check_reader(root, alpha, text):
    """The cache file text gives the reference's cells, table values and
    export, and the rewritten file, where there is one, the export's bytes."""
    path = root / "cache" / f"residues_N3_a{alpha}.jsonl"
    path.parent.mkdir()
    path.write_text(text, encoding="utf-8")
    pclass = CLASSES[alpha]
    truth = build_residue_table(GENS, pclass, use_cache=False)

    cells, heads, bad = reference(path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        columns, stale = finite._read_cache(str(path))
    assert [str(path) in str(w.message) for w in caught] == [True] * bad  # one warning
    assert list(columns) == heads and stale == bad
    assert _expand(columns) == cells

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
    heads += [h for h in dict.fromkeys(h for h, _ in computed) if h not in heads]
    expected = _writer_lines(heads, {**cells, **computed})
    if not (computed or bad):
        assert path.read_text(encoding="utf-8") == text  # nothing computed, nothing written
    else:  # columns sorted by prime, each index list sorted and without repeats
        assert path.read_text(encoding="utf-8") == expected
    assert _export(root) == expected


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
    # a whole column fills its plane at one gather, also for a table of one
    # generator; a column with a cell missing takes its other cells and
    # computes that one
    pclass = CLASSES[alpha]
    cold = build_residue_table(GENS, pclass, cache_dir=str(tmp_path))
    for gens in (GENS, GENS[1:2]):
        warm = build_residue_table(gens, pclass, cache_dir=str(tmp_path))
        assert np.array_equal(warm.values, cold.subtable(gens).values)
    path = tmp_path / f"residues_N3_a{alpha}.jsonl"
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    at, d = lines[0]["index"].index(KEYS[1]), len(lines[0]["modulus"]) - 1
    del lines[0]["index"][at], lines[0]["residues"][at * d : (at + 1) * d]
    path.write_text("".join(map(finite._dump, lines)))
    computed = []
    real = finite._compute_column
    monkeypatch.setattr(finite, "_compute_column", lambda a: computed.append((*a[:3], a[4].size)) or real(a))
    again = build_residue_table(GENS, pclass, cache_dir=str(tmp_path))
    assert np.array_equal(again.values, cold.values)
    assert computed == [(3, alpha, lines[0]["p"], 1)]  # one prime, one generator


def test_a_repeated_index_keeps_its_first_cell(tmp_path):
    # within a line as across lines; a "v": 2 object column that repeats a
    # key is a bad line and gives no cell
    head = '"N":1,"alpha":0,"modulus":[6,1],"p":7,"zeta_image":[1]'
    texts = ['{"v":3,%s,"index":["k=1;f=0","k=1;f=0"],"residues":[1,2]}\n' % head,
             '{"v":3,%s,"index":["k=1;f=0"],"residues":[1]}\n' % head
             + '{"v":3,%s,"index":["k=1;f=0"],"residues":[2]}\n' % head]
    path = tmp_path / "residues_N1_a0.jsonl"
    for text in texts:
        path.write_text(text)
        assert finite._read_cache(str(path)) == ({(1, 0, 7, (6, 1), (1,)): (["k=1;f=0"], [1])},
                                                 False)
    path.write_text('{"v":2,%s,"residues":{"k=1;f=0":[1],"k=1;f=0":[2]}}\n' % head)
    with pytest.warns(UserWarning, match="dropped 1 bad line"):
        assert finite._read_cache(str(path)) == ({}, True)


@pytest.mark.parametrize("N, alpha, wmax", [(3, 2, 3), (2, 1, 4)])
def test_a_cache_of_legacy_lines_is_recomputed_and_rewritten(tmp_path, monkeypatch, N, alpha,
                                                             wmax):
    # a file of the per-entry "v": 1 records or the "v": 2 object columns of
    # older releases: every line is bad, so one warning names the file, every
    # residue is recomputed, the reports are the same, and the file ends with
    # the cold run's bytes.  The relation records go, so that the lattice
    # runs on the residues recomputed
    config = DimConfig(cache_dir=str(tmp_path))
    want = dimension_table(N, alpha, wmax, config)
    path = tmp_path / f"residues_N{N}_a{alpha}.jsonl"
    cold = path.read_bytes()
    columns = [json.loads(line) for line in cold.splitlines()]
    records = [_record(col, key) for col in columns for key in col["index"]]
    computed, real = [], finite._compute_column
    monkeypatch.setattr(finite, "_compute_column", lambda a: computed.append(a[2]) or real(a))
    for lines in (records, list(map(_legacy, columns))):
        path.write_text("".join(map(finite._dump, lines)))
        (tmp_path / f"relations_N{N}_a{alpha}.jsonl").unlink()
        computed.clear()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert dimension_table(N, alpha, wmax, config) == want
        assert [str(w.message) for w in caught] == [
            f"cache file {path}: dropped {len(lines)} bad line(s)"]
        assert computed == [col["p"] for col in columns] and path.read_bytes() == cold
