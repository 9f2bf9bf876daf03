import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lipstab import documents, model
from lipstab.documents import (
    TRUNCATION_NOTE,
    SystemDocument,
    build_models,
    demo_generate,
    fmt,
    parse_document,
    serialize_document,
    write_csv,
)
from lipstab.errors import SchemaError, ValidationError
from lipstab.model import (
    BlockPartition,
    LinearSystem,
    Perturbation,
    characteristic_generators,
    perturbed_system,
    validate,
)
from lipstab.norms import NormSpec
from lipstab.stability import check_ssc, coderivative_norm, eps_active, lip_bound

MINIMAL = """
{
  "version": "lipstab-v1",
  "dimension": 2,
  "norm": "euclid",
  "rows": [{"label": "t", "a": [1.0, 0.0], "b": 1.0}]
}
"""


class TestParse:
    def test_minimal_halfspace(self):
        doc = parse_document(MINIMAL)
        system, partition, _ = build_models(doc)
        assert isinstance(system, LinearSystem)
        assert len(system.rows) == 1
        assert len(partition.blocks) == 1  # defaults to the maximum partition

    def test_unknown_field_rejected(self):
        bad = MINIMAL.replace('"norm": "euclid",', '"norm": "euclid", "extra": 1,')
        with pytest.raises(SchemaError, match="unknown field"):
            parse_document(bad)

    def test_version_required(self):
        bad = MINIMAL.replace("lipstab-v1", "lipstab-v0")
        with pytest.raises(SchemaError, match="version"):
            parse_document(bad)

    def test_overlapping_blocks_rejected(self):
        text = """
        {"version": "lipstab-v1", "dimension": 1, "norm": "euclid",
         "rows": [{"label": "a", "a": [1.0], "b": 0.0},
                  {"label": "b", "a": [-1.0], "b": 1.0}],
         "partition": [{"block": "x", "labels": ["a", "b"]},
                       {"block": "y", "labels": ["b"]}]}
        """
        with pytest.raises(ValidationError):
            build_models(parse_document(text))

    def test_row_dimension_mismatch_rejected(self):
        text = """
        {"version": "lipstab-v1", "dimension": 2, "norm": "euclid",
         "rows": [{"label": "a", "a": [1.0, 0.0, 2.0], "b": 0.0}]}
        """
        with pytest.raises(ValidationError):
            build_models(parse_document(text))

    def test_rows_and_convex_mutually_exclusive(self):
        text = """
        {"version": "lipstab-v1", "dimension": 1, "norm": "euclid",
         "rows": [{"label": "a", "a": [1.0], "b": 0.0}],
         "convex": [{"block": "f", "class": "affine", "c": [1.0], "d": 0.0}]}
        """
        with pytest.raises(SchemaError):
            parse_document(text)

    def test_convex_quadratic_evaluates(self):
        text = """
        {"version": "lipstab-v1", "dimension": 1, "norm": "euclid",
         "convex": [{"block": "f", "class": "quadratic",
                     "Q": [[2.0]], "c": [0.0], "r": -1.0}]}
        """
        fs, _, labels = build_models(parse_document(text))
        assert labels == ("f",)
        assert fs[0].value([1.0]) == pytest.approx(0.0)  # x^2 - 1 at x = 1

    def test_all_convex_classes_parse(self):
        text = """
        {"version": "lipstab-v1", "dimension": 2, "norm": "euclid",
         "convex": [
           {"block": "a", "class": "affine", "c": [1.0, 0.0], "d": 0.5},
           {"block": "q", "class": "quadratic", "Q": [[2.0, 0.0], [0.0, 1.0]],
            "c": [0.0, 0.0], "r": 0.0},
           {"block": "m", "class": "max_affine",
            "pieces": [{"c": [1.0, 0.0], "d": 0.0}, {"c": [-1.0, 0.0], "d": 0.0}]},
           {"block": "s", "class": "scaled_norm", "kappa": 2.0,
            "shift": [0.0, 0.0], "offset": -1.0}
         ]}
        """
        fs, _, labels = build_models(parse_document(text))
        assert len(fs) == 4 and labels == ("a", "q", "m", "s")


class TestRoundTrip:
    @pytest.mark.parametrize("name,params", [
        ("paper-example", {"N": 2}),
        ("paper-example", {"N": 7}),
        ("convex-square", {}),
        ("convex-square-shifted", {}),
        ("random", {"n": 3, "m": 10, "seed": 7}),
    ])
    def test_demo_documents_round_trip(self, name, params):
        doc = demo_generate(name, **params)
        assert parse_document(serialize_document(doc)) == doc

    def test_round_trip_preserves_partition_and_note(self):
        text = """
        {"version": "lipstab-v1", "dimension": 1, "norm": "l1",
         "rows": [{"label": "a", "a": [1.0], "b": 0.25}],
         "partition": [{"block": "x", "labels": ["a"]}],
         "truncation_note": "finite sample of an infinite family"}
        """
        doc = parse_document(text)
        again = parse_document(serialize_document(doc))
        assert again == doc
        assert again.truncation_note == "finite sample of an infinite family"


class TestDemos:
    def test_demo_family_rows(self):
        doc = demo_generate("paper-example", N=3)
        system, _, _ = build_models(doc)
        expect = [([-1.0, 0.0], 1.0), ([2.0, 0.0], 1.0), ([-3.0, 0.0], 1.0),
                  ([1.0, 1.0], 0.0)]
        assert len(system.rows) == 4
        for (label, a, b), (ea, eb) in zip(system.rows, expect):
            assert np.allclose(a, ea) and b == eb
        assert doc.truncation_note == TRUNCATION_NOTE

    def test_demo_family_requires_two(self):
        with pytest.raises(ValueError):
            demo_generate("paper-example", N=1)

    def test_convex_square_is_square(self):
        fs, _, _ = build_models(demo_generate("convex-square"))
        assert fs[0].value([3.0]) == pytest.approx(9.0)

    def test_random_demo_holds_ssc(self):
        doc = demo_generate("random", n=3, m=10, seed=7)
        system, _, _ = build_models(doc)
        assert check_ssc(system).holds


class TestCsv:
    def test_seventeen_digit_floats(self, tmp_path):
        path = tmp_path / "r.csv"
        text = write_csv(path, ["a", "b"], [(1.0 / 3.0, True), (np.inf, "x")])
        assert text == "a,b\n0.33333333333333331,true\ninf,x\n"
        assert path.read_bytes().decode() == text

    def test_fmt_matches_repr_precision(self):
        assert fmt(1 / np.sqrt(2)) == "0.70710678118654746"
        assert fmt(False) == "false"


def _linear_text(rows, partition=None):
    doc = {"version": "lipstab-v1", "dimension": 2, "norm": "euclid", "rows": rows}
    if partition is not None:
        doc["partition"] = partition
    return json.dumps(doc)


def _five_rows():
    return [{"label": f"t{i}", "a": [1.0, -i], "b": 0.5 * i} for i in range(5)]


# (case, spoiled row, exact message with {p} standing for the row's path)
BAD_ROWS = [
    ("true in a", lambda r: {**r, "a": [1.0, True]}, "{p}.a[1]: expected a number"),
    ("string in a", lambda r: {**r, "a": ["1.0", 2.0]}, "{p}.a[0]: expected a number"),
    ("b false", lambda r: {**r, "b": False}, "{p}.b: expected a number"),
    ("missing label", lambda r: {"a": r["a"], "b": r["b"]},
     "{p}.label: expected a string label"),
    ("int label", lambda r: {**r, "label": 3}, "{p}.label: expected a string label"),
    ("extra row key", lambda r: {**r, "c": 1.0}, "{p}.c: unknown field (strict schema)"),
    ("a not a list", lambda r: {**r, "a": 1.0}, "{p}.a: expected a list of numbers"),
    ("row not an object", lambda r: [r["label"], r["a"], r["b"]],
     "{p}: expected an object"),
]


class TestSchemaErrors:
    """Exact SchemaError text for bad entries in the first, a middle and the last row."""

    @pytest.mark.parametrize("where", [0, 2, 4], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("case,spoil,message", BAD_ROWS, ids=[c[0] for c in BAD_ROWS])
    def test_bad_row(self, case, spoil, message, where):
        rows = _five_rows()
        rows[where] = spoil(rows[where])
        with pytest.raises(SchemaError) as err:
            parse_document(_linear_text(rows))
        assert str(err.value) == message.format(p=f"$.rows[{where}]")

    @pytest.mark.parametrize("where", [0, 2, 4], ids=["first", "middle", "last"])
    def test_partition_label_not_a_string(self, where):
        blocks = [{"block": f"B{i}", "labels": [f"t{i}"]} for i in range(5)]
        blocks[where]["labels"] = [f"t{where}", 7]
        with pytest.raises(SchemaError) as err:
            parse_document(_linear_text(_five_rows(), blocks))
        assert str(err.value) == (f"$.partition[{where}].labels: "
                                  "expected a nonempty list of strings")

    def test_first_bad_entry_in_document_order_is_reported(self):
        rows = _five_rows()
        rows[1]["b"] = True
        rows[3]["a"] = [None, 0.0]
        with pytest.raises(SchemaError) as err:
            parse_document(_linear_text(rows))
        assert str(err.value) == "$.rows[1].b: expected a number"

    def test_int_entries_parse_to_floats(self):
        text = _linear_text([{"label": "t", "a": [1, 0], "b": 2}])
        doc = parse_document(text)
        assert doc.rows == (("t", (1.0, 0.0), 2.0),)
        assert all(type(v) is float for v in (*doc.rows[0][1], doc.rows[0][2]))
        assert '"b": 2.0' in serialize_document(doc)


def _oracle_number(v, path):
    if not (isinstance(v, (int, float)) and not isinstance(v, bool)):
        raise SchemaError(path, "expected a number")
    return float(v)


def _oracle_rows(raw_rows):
    """The per-entry row checker and builder the whole-column one replaced, frozen."""
    rows = []
    for i, row in enumerate(raw_rows):
        path = f"$.rows[{i}]"
        if not isinstance(row, dict):
            raise SchemaError(path, "expected an object")
        for key in row:
            if key not in ("label", "a", "b"):
                raise SchemaError(f"{path}.{key}", "unknown field (strict schema)")
        if not ("label" in row and isinstance(row["label"], str)):
            raise SchemaError(f"{path}.label", "expected a string label")
        a = row.get("a")
        if not isinstance(a, list):
            raise SchemaError(f"{path}.a", "expected a list of numbers")
        a = [_oracle_number(x, f"{path}.a[{j}]") for j, x in enumerate(a)]
        b = _oracle_number(row.get("b"), f"{path}.b")
        rows.append((row["label"], tuple(a), b))
    return tuple(rows)


_numbers = st.one_of(st.integers(-10**6, 10**6),
                     st.floats(allow_nan=False, allow_infinity=False))
_not_numbers = st.one_of(st.booleans(), st.none(), st.text(max_size=2),
                         st.lists(st.integers(), max_size=1))
_rows = st.lists(st.fixed_dictionaries({"label": st.text(max_size=3),
                                        "a": st.lists(_numbers, max_size=3),
                                        "b": _numbers}),
                 min_size=1, max_size=6)


@st.composite
def _rows_with_at_most_one_bad_entry(draw):
    rows = draw(_rows)
    kind = draw(st.sampled_from(
        ["none", "entry", "b", "label", "drop", "extra", "a", "row"]))
    i = draw(st.integers(0, len(rows) - 1))
    row = rows[i]
    if kind == "entry" and row["a"]:
        row["a"][draw(st.integers(0, len(row["a"]) - 1))] = draw(_not_numbers)
    elif kind == "b":
        row["b"] = draw(_not_numbers)
    elif kind == "label":
        row["label"] = draw(st.one_of(st.integers(), st.none(), st.booleans(),
                                      st.just([])))
    elif kind == "drop":
        del row[draw(st.sampled_from(sorted(row)))]
    elif kind == "extra":
        row[draw(st.sampled_from(["c", "A", "label "]))] = 1.0
    elif kind == "a":
        row["a"] = draw(st.one_of(_numbers, st.text(max_size=2), st.none(),
                                  st.just({})))
    elif kind == "row":
        rows[i] = draw(st.one_of(st.lists(_numbers, max_size=2), st.text(max_size=2),
                                 st.none(), st.integers()))
    return rows


@settings(max_examples=300, deadline=None)
@given(_rows_with_at_most_one_bad_entry())
def test_rows_agree_with_the_per_entry_checker(rows):
    text = _linear_text(rows)
    try:
        expected = SystemDocument(2, "euclid", _oracle_rows(json.loads(text)["rows"]))
    except SchemaError as exc:
        with pytest.raises(SchemaError) as err:
            parse_document(text)
        assert str(err.value) == str(exc)
    else:
        doc = parse_document(text)
        assert doc == expected
        assert serialize_document(doc) == serialize_document(expected)


def test_valid_rows_never_reach_the_per_entry_checker(monkeypatch):
    calls = []
    for name in ("_number", "_vector"):
        real = getattr(documents, name)
        monkeypatch.setattr(documents, name,
                            lambda *args, real=real, name=name:
                            calls.append(name) or real(*args))
    text = serialize_document(demo_generate("paper-example", N=1000))
    system, partition, _ = build_models(parse_document(text))
    assert calls == []
    assert len(system.rows) == len(partition.blocks) == 1001
    with pytest.raises(SchemaError):  # the spies do see the error path
        parse_document(text.replace('"b": 1.0', '"b": true', 1))
    assert calls


def _oracle_partition(raw_blocks):
    """The per-block checker and builder, frozen like _oracle_rows."""
    blocks = []
    for i, blk in enumerate(raw_blocks):
        path = f"$.partition[{i}]"
        if not isinstance(blk, dict):
            raise SchemaError(path, "expected an object")
        for key in blk:
            if key not in ("block", "labels"):
                raise SchemaError(f"{path}.{key}", "unknown field (strict schema)")
        if not isinstance(blk.get("block"), str):
            raise SchemaError(f"{path}.block", "expected a string block label")
        labels = blk.get("labels")
        if not (isinstance(labels, list) and labels and all(isinstance(t, str) for t in labels)):
            raise SchemaError(f"{path}.labels", "expected a nonempty list of strings")
        blocks.append((blk["block"], tuple(labels)))
    return tuple(blocks)


def _bits(v):
    return (type(v), struct.pack("<d", v))


def _same_float_rows(got, want):
    """Equal labels, and float entries of the same type and bits (NaN too)."""
    assert len(got) == len(want)
    for (l1, a1, b1), (l2, a2, b2) in zip(got, want):
        assert l1 == l2 and type(a1) is type(a2) and _bits(b1) == _bits(b2)
        assert list(map(_bits, a1)) == list(map(_bits, a2))


def _same_array(x, y):
    assert x.dtype == y.dtype == float and x.shape == y.shape
    assert x.tobytes() == y.tobytes()
    assert not x.flags.writeable and not y.flags.writeable


def _same_system(system, oracle):
    """Columns and derived rows match bit for bit, views and all."""
    assert system.labels == oracle.labels and type(system.labels) is tuple
    _same_array(system.rhs_vector(), oracle.rhs_vector())
    try:
        matrix = oracle.coefficient_matrix()
    except ValidationError as exc:
        with pytest.raises(ValidationError) as err:
            system.coefficient_matrix()
        assert str(err.value) == str(exc)
        matrix = None
    else:
        _same_array(system.coefficient_matrix(), matrix)
    assert len(system.rows) == len(oracle.rows)
    for (l1, a1, b1), (l2, a2, b2) in zip(system.rows, oracle.rows):
        assert l1 == l2 and _bits(b1) == _bits(b2)
        _same_array(a1, a2)
        if matrix is not None:
            assert a1.base is system.coefficient_matrix() and a2.base is matrix


_LABELS = ("a", "b", "c", "t0", "")
_ENTRIES = st.one_of(st.integers(-2**70, 2**70), st.floats(),
                     st.sampled_from([0, -0.0, 1e308, -1e308, float("nan"),
                                      float("inf"), float("-inf")]))
_BAD_ENTRIES = st.one_of(st.booleans(), st.text(max_size=1), st.none())


@st.composite
def _linear_documents(draw):
    """Document text with int, -0.0, 1e308, NaN and Infinity entries,
    repeated labels, ragged or misfit rows, a few bool or string entries,
    and no partition (the maximum one) or a given one."""
    dim = draw(st.integers(1, 3))
    m = draw(st.integers(1, 6))
    width = draw(st.sampled_from([dim, dim, dim, dim + 1, 0, None]))  # None: ragged
    rows = []
    for _ in range(m):
        k = draw(st.integers(0, dim + 1)) if width is None else width
        rows.append({"label": draw(st.sampled_from(_LABELS)),
                     "a": draw(st.lists(_ENTRIES, min_size=k, max_size=k)),
                     "b": draw(_ENTRIES)})
    spoil = draw(st.sampled_from(["none"] * 6 + ["a", "b", "label"]))
    row = rows[draw(st.integers(0, m - 1))]
    if spoil == "a" and row["a"]:
        row["a"][draw(st.integers(0, len(row["a"]) - 1))] = draw(_BAD_ENTRIES)
    elif spoil == "b":
        row["b"] = draw(_BAD_ENTRIES)
    elif spoil == "label":
        row["label"] = draw(st.one_of(st.integers(0, 3), st.booleans()))
    doc = {"version": "lipstab-v1", "dimension": dim,
           "norm": draw(st.sampled_from(["euclid", "l1", "linf"])), "rows": rows}
    form = draw(st.sampled_from(["maximum", "given", "given", "bad"]))
    if form != "maximum":
        doc["partition"] = [
            {"block": draw(st.sampled_from(["B0", "B1", "B2"])),
             "labels": draw(st.lists(st.sampled_from(_LABELS), min_size=1, max_size=3))}
            for _ in range(draw(st.integers(1, 3)))]
        if form == "bad":
            doc["partition"][-1]["labels"] = draw(st.sampled_from([[], [1], ["a", None]]))
    return json.dumps(doc)


@settings(max_examples=400, deadline=None)
@given(_linear_documents())
def test_columns_agree_with_the_triple_path(text):
    """Parse and build through the columns against the per-entry parse and the
    triple constructor, with the maximum partition written out as 1-tuples."""
    raw = json.loads(text)
    try:
        triples = _oracle_rows(raw["rows"])
        blocks = _oracle_partition(raw["partition"]) if "partition" in raw else None
    except SchemaError as exc:
        with pytest.raises(SchemaError) as err:
            parse_document(text)
        assert str(err.value) == str(exc)
        return
    doc = parse_document(text)
    _same_float_rows(doc.rows, triples)
    assert doc.partition == blocks
    expected_doc = SystemDocument(raw["dimension"], raw["norm"], triples, blocks)
    assert serialize_document(doc) == serialize_document(expected_doc)

    norm = NormSpec(raw["norm"])
    oracle = LinearSystem(raw["dimension"], triples, norm)
    oracle_part = (BlockPartition(blocks) if blocks is not None
                   else BlockPartition(tuple((t, (t,)) for t in oracle.labels)))
    issues = validate(oracle, oracle_part).issues
    try:
        system, partition, _ = build_models(doc)
    except ValidationError as err:
        assert issues and str(err) == str(ValidationError(issues))
        system = LinearSystem.from_columns(doc.dimension, *doc.columns, norm)
        partition = (BlockPartition(doc.partition) if doc.partition is not None
                     else BlockPartition.maximum(system.labels))
        assert validate(system, partition).issues == issues
    else:
        assert not issues
    _same_system(system, oracle)
    assert partition.blocks == oracle_part.blocks
    assert partition.block_of() == oracle_part.block_of()
    if not issues:
        keep = system.labels[::2]
        _same_system(system.subsystem(keep), oracle.subsystem(keep))


class TestColumnsFromParseToSolver:
    """The paper document reaches the solvers with no per-row objects."""

    @pytest.fixture
    def paper5000(self):
        return serialize_document(demo_generate("paper-example", N=5000))

    def test_no_row_triples_or_singleton_blocks_are_built(self, paper5000, monkeypatch):
        def refuse(self):
            raise AssertionError(f"{type(self).__name__} built its per-row objects")

        for cls, name in ((LinearSystem, "rows"), (BlockPartition, "blocks"),
                          (SystemDocument, "rows")):
            monkeypatch.setattr(cls, name, property(refuse))
        system, partition, _ = build_models(parse_document(paper5000))
        anchor = np.zeros(2)
        assert lip_bound(system, anchor).bound == pytest.approx(1 / np.sqrt(2))
        assert check_ssc(system).holds
        assert eps_active(system, anchor, 0.5).matches_full
        assert coderivative_norm(system, partition, anchor).value == pytest.approx(
            1 / np.sqrt(2))

    def test_each_object_is_validated_once(self, paper5000, monkeypatch):
        calls = []
        real = model.validate
        monkeypatch.setattr(model, "validate",
                            lambda *args: calls.append(args) or real(*args))
        system, partition, _ = build_models(parse_document(paper5000))
        anchor = np.zeros(2)
        lip_bound(system, anchor)
        check_ssc(system)
        coderivative_norm(system, partition, anchor)
        eps_active(system, anchor, 0.5)
        p = Perturbation.zero(partition)
        perturbed_system(system, partition, p)
        characteristic_generators(system, partition, p)
        # build_models once, and the eps-active subsystem once
        assert len(calls) == 2
        assert calls[0][0] is system and calls[0][1] is partition
        assert calls[1][0] is not system and calls[1][1] is None

    def test_rows_read_directly_are_the_triples(self, paper5000):
        doc = parse_document(paper5000)
        expect = tuple((str(t), ((-1.0) ** t * t, 0.0), 1.0) for t in range(1, 5001))
        _same_float_rows(doc.rows, expect + (("0", (1.0, 1.0), 0.0),))
        system, partition, _ = build_models(doc)
        A, b = system.coefficient_matrix(), system.rhs_vector()
        assert system.rows is system.rows and len(system.rows) == 5001
        for i, (label, a, rhs) in enumerate(system.rows):
            assert label == system.labels[i] and type(rhs) is float and rhs == b[i]
            assert a.base is A and not a.flags.writeable
        assert partition.blocks == tuple((t, (t,)) for t in system.labels)

    def test_linearize_prints_the_triples(self, tmp_path, capsys):
        from lipstab.cli import run_cli
        from lipstab.convex import CutConfig, linearize

        doc = demo_generate("convex-square-shifted")
        path = tmp_path / "sq.json"
        path.write_text(serialize_document(doc))
        assert run_cli(["linearize", "--system", str(path), "--anchor", "1",
                        "--budget", "5"]) == 0
        fs, _, labels = build_models(doc)
        lin = linearize(fs, CutConfig(budget=5), np.array([1.0]), block_labels=list(labels))
        rows = tuple((l, tuple(a), float(b)) for l, a, b in lin.system.rows)
        blocks = tuple((j, tuple(m)) for j, m in lin.partition.blocks)
        expected = serialize_document(SystemDocument(1, "euclid", rows, blocks))
        assert capsys.readouterr().out == expected
