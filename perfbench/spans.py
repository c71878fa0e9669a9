"""Spans recorded around calls into cmzv's layers, from outside the package.

A `Recorder` replaces a layer's public functions, in every cmzv module that
binds them, with wrappers that record one span per call: name, parent span,
start and end (monotonic nanoseconds) and an optional note such as the row
count of an LLL call.  Spans stay in memory; `write` saves them as JSON lines
and `summarize` turns them into the per-layer metrics.

The layer of a span is the part of its name before the first dot, which is
the cmzv module that owns the wrapped function.
"""

from __future__ import annotations

import functools
import json
import sys
import time

_clock = time.monotonic_ns

LAYERS = ("finite", "fq", "lattice", "relations", "qsums", "symmetric", "words")


def _rows(args, kwargs, result):
    return len(args[0])  # relations passes the basis as a list of rows


def _result_len(args, kwargs, result):
    return len(result)


def _table_entries(args, kwargs, result):
    return len(result.entries)


# (module, function, span name, note); the module is a cmzv submodule
LAYER_FUNCTIONS = (
    ("relations", "dimension_table", "relations.dimension_table", None),
    ("relations", "discover_relations_lll", "relations.discover", _result_len),
    ("lattice", "lll_reduce", "lattice.lll", _rows),
    ("finite", "build_residue_table", "finite.table", _table_entries),
    ("finite", "primes_in_class", "finite.primes", None),
    ("finite", "finite_residue", "finite.residue", None),
    ("finite", "congruence_residue", "finite.residue", None),
    ("fq", "inverse_table", "fq.inverse_table", None),
    ("fq", "make_fq_context", "fq.context", None),
    ("qsums", "qsum_exact", "qsums.exact", None),
    ("qsums", "qsum_numeric", "qsums.numeric", None),
    ("qsums", "truncated_cmzv_exact", "qsums.truncated_exact", None),
    ("qsums", "truncated_cmzv_numeric", "qsums.truncated_numeric", None),
    ("qsums", "asymptotic_probe", "qsums.asymptotic_probe", None),
    ("symmetric", "symmetric_cmzv", "symmetric.symmetric_cmzv", None),
    ("symmetric", "symmetric_pair_polynomial", "symmetric.pair_polynomial", None),
    ("symmetric", "harmonic_regularized_mzv", "symmetric.regularized_mzv", None),
    ("symmetric", "mzv_numeric", "symmetric.mzv", None),
    ("words", "harmonic_regularize", "words.regularize", None),
    ("words", "shuffle_regularize", "words.regularize", None),
)


class Recorder:
    """In-memory span store for one repetition of a workload."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, parent index or -1, start_ns, end_ns, note]
        self._stack = [-1]
        self._undo: list[tuple] = []

    def wrap(self, name, fn, note=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, stack[-1], 0, 0, None]
            spans.append(rec)
            stack.append(len(spans) - 1)
            rec[2] = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = _clock()
                stack.pop()
            if note is not None:
                rec[4] = note(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every LAYER_FUNCTIONS entry wherever a cmzv module binds it."""
        modules = [m for n, m in sys.modules.items() if n == "cmzv" or n.startswith("cmzv.")]
        for module, attr, name, note in LAYER_FUNCTIONS:
            orig = getattr(sys.modules[f"cmzv.{module}"], attr)
            wrapper = self.wrap(name, orig, note)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, orig))

    def uninstall(self) -> None:
        for mod, key, orig in reversed(self._undo):
            setattr(mod, key, orig)
        self._undo.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, parent, start, end, note) in enumerate(self.spans):
                rec = {"run": self.run_id, "id": i, "parent": parent, "name": name,
                       "start_ns": start, "end_ns": end}
                if note is not None:
                    rec["note"] = note
                fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


def _ratio(num, den) -> float:
    """num/den, or 0.0 when the base is empty (the base is reported beside it)."""
    return num / den if den else 0.0


def summarize(spans: list[list], root: int) -> dict:
    """Per-layer metrics from the spans under the root span `root`.

    Self time is a span's duration minus the durations of its direct
    children; wrapped calls run on one thread, so children never overlap.
    """
    child_ns = [0] * len(spans)
    for name, parent, start, end, note in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    dur = {}
    self_ns = {}
    calls = {}
    layer_self = dict.fromkeys(LAYERS, 0)
    for i, (name, parent, start, end, note) in enumerate(spans):
        if i == root:
            continue
        d = end - start
        dur[name] = dur.get(name, 0) + d
        self_ns[name] = self_ns.get(name, 0) + d - child_ns[i]
        calls[name] = calls.get(name, 0) + 1
        layer_self[name.split(".", 1)[0]] += d - child_ns[i]

    def notes(name):
        return [s[4] for s in spans if s[0] == name]

    def children_of(child, parent):
        return sum(1 for s in spans if s[0] == child and s[1] >= 0 and spans[s[1]][0] == parent)

    s = 1e-9
    root_ns = spans[root][3] - spans[root][2]
    entries = sum(notes("finite.table"))
    computed = children_of("finite.residue", "finite.table")
    mzv_calls = calls.get("symmetric.mzv", 0)
    lll_calls = calls.get("lattice.lll", 0)
    out = {
        "finite.residue_calls": calls.get("finite.residue", 0),
        "finite.residue_s": dur.get("finite.residue", 0) * s,
        "finite.table_self_s": self_ns.get("finite.table", 0) * s,
        "finite.table_entries": entries,
        "finite.cache_hit_ratio": _ratio(entries - computed, entries),
        "fq.inverse_table_calls": calls.get("fq.inverse_table", 0),
        "fq.inverse_table_s": dur.get("fq.inverse_table", 0) * s,
        "fq.context_calls": calls.get("fq.context", 0),
        "fq.context_s": dur.get("fq.context", 0) * s,
        "lattice.lll_calls": lll_calls,
        "lattice.lll_s": dur.get("lattice.lll", 0) * s,
        "lattice.lll_rows_max": max(notes("lattice.lll"), default=0),
        "relations.discover_self_s": self_ns.get("relations.discover", 0) * s,
        "relations.dim_self_s": self_ns.get("relations.dimension_table", 0) * s,
        "relations.accepted_ratio": _ratio(sum(notes("relations.discover")), lll_calls),
        "qsums.truncated_numeric_calls": calls.get("qsums.truncated_numeric", 0),
        "qsums.truncated_numeric_s": dur.get("qsums.truncated_numeric", 0) * s,
        "qsums.exact_calls": calls.get("qsums.exact", 0),
        "qsums.exact_s": dur.get("qsums.exact", 0) * s,
        "qsums.truncated_exact_s": dur.get("qsums.truncated_exact", 0) * s,
        "qsums.numeric_s": dur.get("qsums.numeric", 0) * s,
        "symmetric.mzv_calls": mzv_calls,
        "symmetric.memo_hit_ratio": _ratio(
            mzv_calls - children_of("qsums.truncated_numeric", "symmetric.mzv"), mzv_calls
        ),
        "words.regularize_s": dur.get("words.regularize", 0) * s,
        "trace.unattributed_frac": _ratio(root_ns - child_ns[root], root_ns),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer] * s
    return out
