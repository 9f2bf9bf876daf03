"""System documents (strict JSON schema), demo generators, CSV reports.

A document is either a linear system ("rows", optional "partition") or a
convex one ("convex" blocks); the schema is strict: unknown fields are
rejected so silent drift cannot poison stability comparisons, and the
version tag "lipstab-v1" is required.  Serialization round-trips exactly.

Rows and partition blocks are checked whole-column: a few passes over all
rows test every type at once.  The per-entry checker runs only when one of
those tests fails, and only to word the error: it walks the entries in
document order and raises for the first bad one.  A linear document keeps
its rows as the columns a LinearSystem stores (labels, one read-only float
matrix from a single np.array call, the rhs), and build_models hands those
same arrays to the system; no per-row object is made on the way, and the
row triples are derived only when something reads them.
"""
from __future__ import annotations

import json
from functools import cached_property
from itertools import chain
from operator import itemgetter

import numpy as np

from .convex import AffineFn, MaxAffineFn, QuadraticFn, ScaledNormFn
from .errors import RetryExhaustedError, SchemaError
from .model import (
    BlockPartition,
    Immutable,
    LinearSystem,
    coefficient_column,
    read_only,
    row_columns,
    validated,
)
from .norms import KINDS, NormSpec

VERSION = "lipstab-v1"

TRUNCATION_NOTE = "truncation: bound may underestimate the infinite system's modulus"

_TOP_KEYS = ("version", "dimension", "norm", "rows", "partition", "convex",
             "truncation_note")
_ROW_KEYS = ("label", "a", "b")
_BLOCK_KEYS = ("block", "labels")
# json.loads gives exact types, so a type test also rejects true and false
_NUMBER_TYPES = {int, float}


class SystemDocument(Immutable):
    """Verbatim document contents; field-for-field round-trip guaranteed.

    A linear document stores its rows as ``columns``: the labels, the
    coefficients (one read-only float matrix, or one read-only array per row
    when the rows are not ``dimension`` long) and the read-only rhs vector,
    as `model.row_columns` makes them.  ``rows``, the (label, coefficient
    tuple, rhs) triples of Python floats, is derived from the columns when
    first read, and is None for a convex document.  The constructor takes
    ``rows`` as such triples and turns them into the columns once.
    """

    def __init__(self, dimension: int, norm: str, rows=None, partition=None,
                 convex=None, truncation_note=None):
        columns = None if rows is None else row_columns(rows, dimension)
        self._store(dimension, norm, columns, partition, convex, truncation_note)

    @classmethod
    def from_columns(cls, dimension, norm, columns, partition=None, convex=None,
                     truncation_note=None) -> "SystemDocument":
        doc = object.__new__(cls)
        doc._store(dimension, norm, columns, partition, convex, truncation_note)
        return doc

    def _store(self, dimension, norm, columns, partition, convex, truncation_note):
        self.__dict__.update(dimension=dimension, norm=norm, columns=columns,
                             partition=partition, convex=convex,
                             truncation_note=truncation_note)

    @cached_property
    def rows(self) -> tuple | None:
        if self.columns is None:
            return None
        labels, coeffs, rhs = self.columns
        lists = coeffs.tolist() if isinstance(coeffs, np.ndarray) else [a.tolist() for a in coeffs]
        return tuple(zip(labels, map(tuple, lists), rhs.tolist()))

    def _fields(self) -> tuple:
        return (self.dimension, self.norm, self.rows, self.partition, self.convex,
                self.truncation_note)

    def __eq__(self, other):
        if type(other) is not SystemDocument:
            return NotImplemented
        return self._fields() == other._fields()

    def to_dict(self) -> dict:
        out = {"version": VERSION, "dimension": self.dimension, "norm": self.norm}
        if self.columns is not None:
            out["rows"] = [
                {"label": l, "a": list(a), "b": b} for l, a, b in self.rows
            ]
        if self.partition is not None:
            out["partition"] = [
                {"block": j, "labels": list(members)} for j, members in self.partition
            ]
        if self.convex is not None:
            out["convex"] = [dict(entry) for entry in self.convex]
        if self.truncation_note is not None:
            out["truncation_note"] = self.truncation_note
        return out

    @property
    def is_convex(self) -> bool:
        return self.convex is not None


def serialize_document(doc: SystemDocument) -> str:
    return json.dumps(doc.to_dict(), indent=2) + "\n"


def _expect(cond, path, message):
    if not cond:
        raise SchemaError(path, message)


def _check_keys(obj, allowed, path):
    for key in obj:
        if key not in allowed:
            raise SchemaError(f"{path}.{key}", "unknown field (strict schema)")


def _number(v, path):
    _expect(isinstance(v, (int, float)) and not isinstance(v, bool), path,
            "expected a number")
    return float(v)


def _vector(v, path, dim=None):
    _expect(isinstance(v, list), path, "expected a list of numbers")
    out = [_number(x, f"{path}[{i}]") for i, x in enumerate(v)]
    if dim is not None:
        _expect(len(out) == dim, path, f"expected {dim} entries, got {len(out)}")
    return out


def _columns(objs, keys):
    """One list per key when every entry is an object with exactly those keys."""
    # an entry with len(keys) entries that has every key has no other
    if set(map(type, objs)) == {dict} and set(map(len, objs)) == {len(keys)}:
        try:
            return [list(map(itemgetter(key), objs)) for key in keys]
        except KeyError:  # some entry lacks a key
            pass
    return None


def _linear_rows(rows, dim):
    """The rows' (labels, coefficients, rhs) columns, as `row_columns` makes them.

    The rows are checked whole-column; only when a check fails does the
    per-row loop run, to raise the SchemaError of the first bad entry.
    The float conversion of int entries is np.array's, which rounds as
    float() does.
    """
    columns = _columns(rows, _ROW_KEYS)
    if columns is not None:
        labels, coeffs, rhs = columns
        if (set(map(type, labels)) == {str} and set(map(type, coeffs)) == {list}
                and set(map(type, rhs)) <= _NUMBER_TYPES
                and set(map(type, chain.from_iterable(coeffs))) <= _NUMBER_TYPES):
            return (tuple(labels), coefficient_column(coeffs, dim),
                    read_only(np.array(rhs, dtype=float)))
    for i, row in enumerate(rows):
        path = f"$.rows[{i}]"
        _expect(isinstance(row, dict), path, "expected an object")
        _check_keys(row, _ROW_KEYS, path)
        _expect("label" in row and isinstance(row["label"], str), f"{path}.label",
                "expected a string label")
        _vector(row.get("a"), f"{path}.a")
        _number(row.get("b"), f"{path}.b")
    raise AssertionError("the per-row checker passed rows the column checks failed")


def _partition(blocks):
    """(block, labels) pairs, checked like the rows: whole-column first."""
    columns = _columns(blocks, _BLOCK_KEYS)
    if columns is not None:
        names, members = columns
        if (set(map(type, names)) == {str} and set(map(type, members)) == {list}
                and all(members)
                and set(map(type, chain.from_iterable(members))) == {str}):
            return tuple(zip(names, map(tuple, members)))
    for i, blk in enumerate(blocks):
        path = f"$.partition[{i}]"
        _expect(isinstance(blk, dict), path, "expected an object")
        _check_keys(blk, _BLOCK_KEYS, path)
        _expect(isinstance(blk.get("block"), str), f"{path}.block",
                "expected a string block label")
        labels = blk.get("labels")
        _expect(isinstance(labels, list) and labels
                and all(isinstance(t, str) for t in labels),
                f"{path}.labels", "expected a nonempty list of strings")
    raise AssertionError("the per-block checker passed blocks the column checks failed")


_CONVEX_KEYS = {
    "affine": {"block", "class", "c", "d"},
    "quadratic": {"block", "class", "Q", "c", "r"},
    "max_affine": {"block", "class", "pieces"},
    "scaled_norm": {"block", "class", "kappa", "shift", "offset", "kind"},
}


def parse_document(text: str) -> SystemDocument:
    """Strict parse of a lipstab-v1 document."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError("$", f"invalid JSON: {exc}") from exc
    _expect(isinstance(raw, dict), "$", "document must be a JSON object")
    _check_keys(raw, _TOP_KEYS, "$")
    _expect(raw.get("version") == VERSION, "$.version",
            f"required version {VERSION!r}, got {raw.get('version')!r}")
    dim = raw.get("dimension")
    _expect(isinstance(dim, int) and not isinstance(dim, bool) and dim >= 1,
            "$.dimension", "expected a positive integer")
    norm = raw.get("norm")
    _expect(norm in KINDS, "$.norm", f"expected one of {KINDS}")
    has_rows = "rows" in raw
    has_convex = "convex" in raw
    _expect(has_rows != has_convex, "$",
            "exactly one of 'rows' or 'convex' must be present")
    _expect(not (has_convex and "partition" in raw), "$.partition",
            "partition applies to linear documents only")

    columns = None
    if has_rows:
        _expect(isinstance(raw["rows"], list) and raw["rows"], "$.rows",
                "expected a nonempty list")
        columns = _linear_rows(raw["rows"], dim)

    partition = None
    if "partition" in raw:
        _expect(isinstance(raw["partition"], list) and raw["partition"], "$.partition",
                "expected a nonempty list")
        partition = _partition(raw["partition"])

    convex = None
    if has_convex:
        _expect(isinstance(raw["convex"], list) and raw["convex"], "$.convex",
                "expected a nonempty list")
        convex = []
        for i, entry in enumerate(raw["convex"]):
            path = f"$.convex[{i}]"
            _expect(isinstance(entry, dict), path, "expected an object")
            cls = entry.get("class")
            _expect(cls in _CONVEX_KEYS, f"{path}.class",
                    f"expected one of {sorted(_CONVEX_KEYS)}")
            _check_keys(entry, _CONVEX_KEYS[cls], path)
            _expect(isinstance(entry.get("block"), str), f"{path}.block",
                    "expected a string block label")
            _parse_convex_fields(entry, path, dim)  # validation only
            convex.append(_freeze(entry))
        convex = tuple(convex)

    return SystemDocument.from_columns(dim, norm, columns, partition, convex,
                                       raw.get("truncation_note"))


def _freeze(entry: dict):
    return tuple(sorted(entry.items(), key=lambda kv: kv[0]))


def _parse_convex_fields(entry, path, dim):
    cls = entry["class"]
    if cls == "affine":
        _vector(entry.get("c"), f"{path}.c", dim)
        _number(entry.get("d"), f"{path}.d")
    elif cls == "quadratic":
        Q = entry.get("Q")
        _expect(isinstance(Q, list) and len(Q) == dim, f"{path}.Q",
                f"expected a {dim}x{dim} matrix")
        for r, rowq in enumerate(Q):
            _vector(rowq, f"{path}.Q[{r}]", dim)
        _vector(entry.get("c"), f"{path}.c", dim)
        _number(entry.get("r"), f"{path}.r")
    elif cls == "max_affine":
        pieces = entry.get("pieces")
        _expect(isinstance(pieces, list) and pieces, f"{path}.pieces",
                "expected a nonempty list")
        for k, piece in enumerate(pieces):
            ppath = f"{path}.pieces[{k}]"
            _expect(isinstance(piece, dict), ppath, "expected an object")
            _check_keys(piece, ("c", "d"), ppath)
            _vector(piece.get("c"), f"{ppath}.c", dim)
            _number(piece.get("d"), f"{ppath}.d")
    elif cls == "scaled_norm":
        _expect(_number(entry.get("kappa"), f"{path}.kappa") > 0, f"{path}.kappa",
                "kappa must be positive")
        _vector(entry.get("shift"), f"{path}.shift", dim)
        _number(entry.get("offset"), f"{path}.offset")
        if "kind" in entry:
            _expect(entry["kind"] in KINDS, f"{path}.kind",
                    f"expected one of {KINDS}")


def build_models(doc: SystemDocument):
    """(LinearSystem | list of convex functions, BlockPartition, block labels).

    Linear documents default to the maximum partition when none is given;
    convex documents imply one block per function.
    """
    norm = NormSpec(doc.norm)
    if doc.columns is not None:
        system = LinearSystem.from_columns(doc.dimension, *doc.columns, norm)
        if doc.partition is not None:
            partition = BlockPartition(doc.partition)
        else:
            partition = BlockPartition.maximum(system.labels)
        validated(system, partition)
        return system, partition, None

    fs = []
    labels = []
    for entry in doc.convex:
        fields = dict(entry)
        labels.append(fields["block"])
        cls = fields["class"]
        if cls == "affine":
            fs.append(AffineFn(fields["c"], fields["d"]))
        elif cls == "quadratic":
            fs.append(QuadraticFn(fields["Q"], fields["c"], fields["r"]))
        elif cls == "max_affine":
            fs.append(MaxAffineFn([p["c"] for p in fields["pieces"]],
                                  [p["d"] for p in fields["pieces"]]))
        else:
            fs.append(ScaledNormFn(fields["kappa"], fields["shift"], fields["offset"],
                                   fields.get("kind", doc.norm)))
    return fs, None, tuple(labels)


def parse_system(path):
    """Read and parse a document from a file path ('-' reads stdin)."""
    import sys

    if path in (None, "-"):
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    return parse_document(text)


def demo_generate(name: str, **params) -> SystemDocument:
    """Built-in demo documents; see the command-line help for parameters."""
    if name == "paper-example":
        N = int(params.get("N", 2))
        if N < 2:
            raise ValueError("paper-example requires N >= 2")
        rows = tuple(
            (str(t), tuple([(-1.0) ** t * t, 0.0]), 1.0) for t in range(1, N + 1)
        ) + (("0", (1.0, 1.0), 0.0),)
        return SystemDocument(2, "euclid", rows, None, None, TRUNCATION_NOTE)
    if name == "convex-square":
        entry = _freeze({"block": "f0", "class": "quadratic", "Q": [[2.0]],
                         "c": [0.0], "r": 0.0})
        return SystemDocument(1, "euclid", None, None, (entry,), None)
    if name == "convex-square-shifted":
        entry = _freeze({"block": "f0", "class": "quadratic", "Q": [[2.0]],
                         "c": [0.0], "r": -1.0})
        return SystemDocument(1, "euclid", None, None, (entry,), None)
    if name == "random":
        return _demo_random(int(params.get("n", 3)), int(params.get("m", 10)),
                            int(params.get("seed", 0)))
    raise ValueError(f"unknown demo {name!r}")


def _demo_random(n, m, seed, retries: int = 50) -> SystemDocument:
    from .stability import check_ssc

    rng = np.random.default_rng(seed)
    for _ in range(retries):
        A = rng.normal(size=(m, n))
        xhat = rng.normal(size=n) * 0.5
        b = A @ xhat + rng.uniform(0.3, 2.0, size=m)
        columns = tuple(f"t{i}" for i in range(m)), coefficient_column(A, n), read_only(b)
        if check_ssc(LinearSystem.from_columns(n, *columns)).holds:
            return SystemDocument.from_columns(n, "euclid", columns)
    raise RetryExhaustedError(f"no SSC-holding random system after {retries} draws")


def fmt(x) -> str:
    """17-significant-digit float formatting shared by CSV and verdict lines."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, str):
        return x
    v = float(x)
    if np.isinf(v):
        return "inf" if v > 0 else "-inf"
    return f"{v:.17g}"


def write_csv(path, header, rows):
    """Deterministic CSV: fixed column order, 17-digit floats, LF newlines."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(v) for v in row))
    text = "\n".join(lines) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return text
