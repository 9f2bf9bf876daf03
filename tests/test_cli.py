import io
import json
import re
import shlex
import sys
from pathlib import Path

import numpy as np
import pytest

from lipstab.cli import run_cli
from lipstab.documents import parse_document


def run(argv, stdin_text=None, capsys=None):
    if stdin_text is not None:
        old = sys.stdin
        sys.stdin = io.StringIO(stdin_text)
        try:
            code = run_cli(argv)
        finally:
            sys.stdin = old
    else:
        code = run_cli(argv)
    out = capsys.readouterr().out if capsys else ""
    return code, out


def last_line(out):
    return out.strip().splitlines()[-1]


@pytest.fixture
def demo3(tmp_path, capsys):
    path = tmp_path / "p3.json"
    code, out = run(["demo", "paper-example", "--N", "3", "--out", str(path)],
                    capsys=capsys)
    assert code == 0
    return str(path)


class TestVerdictLines:
    def test_lip_pipe_from_demo(self, capsys):
        code, out = run(["demo", "paper-example", "--N", "2"], capsys=capsys)
        assert code == 0
        doc_text = out
        code, out = run(["lip", "--anchor", "0,0"], stdin_text=doc_text,
                        capsys=capsys)
        assert code == 0
        assert last_line(out) == "lip=0.70710678118654746 regime=Regular"

    def test_ssc_line(self, demo3, capsys):
        code, out = run(["ssc", "--system", demo3], capsys=capsys)
        assert code == 0
        line = last_line(out)
        assert line.startswith("ssc=true ")
        assert "hull_gap=" in line and "margin=" in line

    def test_ssc_degenerate(self, tmp_path, capsys):
        doc = {"version": "lipstab-v1", "dimension": 1, "norm": "euclid",
               "rows": [{"label": "a", "a": [1.0], "b": 0.0},
                        {"label": "b", "a": [-1.0], "b": 0.0}]}
        path = tmp_path / "deg.json"
        path.write_text(json.dumps(doc))
        code, out = run(["ssc", "--system", str(path)], capsys=capsys)
        assert code == 0
        assert "ssc=false" in last_line(out)
        assert "hull_gap=0" in last_line(out)

    def test_scaled_pair_certifies(self, tmp_path, capsys):
        doc = {"version": "lipstab-v1", "dimension": 2, "norm": "euclid",
               "rows": [{"label": "a", "a": [-19e6, 0.0], "b": 1e6},
                        {"label": "b", "a": [20e6, 0.0], "b": 1e6}]}
        path = tmp_path / "scaled.json"
        path.write_text(json.dumps(doc))
        code, out = run(["ssc", "--system", str(path)], capsys=capsys)
        assert code == 0
        assert last_line(out).startswith("ssc=true margin=-1000000 ")
        code, out = run(["lip", "--system", str(path), "--anchor=0,0"], capsys=capsys)
        assert code == 0
        assert last_line(out) == "lip=0 regime=SlaterPoint"

    def test_eps_active_line(self, demo3, capsys):
        code, out = run(["eps-active", "--system", demo3, "--anchor", "0,0",
                         "--eps", "0.5"], capsys=capsys)
        assert code == 0
        assert last_line(out) == (
            "eps_active=0 bound=0.70710678118654746 matches_full=true")

    def test_codnorm_line(self, demo3, capsys):
        code, out = run(["codnorm", "--system", demo3, "--anchor", "0,0"],
                        capsys=capsys)
        assert code == 0
        assert last_line(out).startswith("codnorm=0.7071067811865")

    def test_dist_line(self, demo3, capsys):
        code, out = run(["dist", "--system", demo3, "--anchor", "2,0"],
                        capsys=capsys)
        assert code == 0
        assert last_line(out).startswith("dist=1.58113883008418")

    def test_negative_vectors_after_a_space(self, demo3, capsys):
        for cmd, vectors in (("lip", [("--anchor", "-0.3,0.3")]),
                             ("dist", [("--anchor", "-0.5,0.5"), ("--p", "-0.1,0.2,0,0")])):
            spaced = [a for flag, v in vectors for a in (flag, v)]
            joined = [f"{flag}={v}" for flag, v in vectors]
            code_s, out_s = run([cmd, "--system", demo3] + spaced, capsys=capsys)
            code_j, out_j = run([cmd, "--system", demo3] + joined, capsys=capsys)
            assert code_s == code_j == 0
            assert out_s == out_j

    def test_convex_lip(self, capsys):
        code, out = run(["demo", "convex-square-shifted"], capsys=capsys)
        doc_text = out
        code, out = run(["lip", "--anchor", "1"], stdin_text=doc_text, capsys=capsys)
        assert code == 0
        assert last_line(out).startswith("lip=0.5 regime=Regular")

    def test_convex_square_infinite(self, capsys):
        code, out = run(["demo", "convex-square"], capsys=capsys)
        doc_text = out
        code, out = run(["lip", "--anchor", "0"], stdin_text=doc_text, capsys=capsys)
        assert code == 0
        assert last_line(out).startswith("lip=inf regime=SSCFails")


class TestConvexLip:
    @pytest.fixture
    def shifted(self, tmp_path, capsys):
        path = tmp_path / "sq.json"
        code, _ = run(["demo", "convex-square-shifted", "--out", str(path)], capsys=capsys)
        assert code == 0
        return str(path)

    def test_tol_reaches_the_anchor_check(self, shifted, capsys):
        argv = ["lip", "--system", shifted, "--anchor=1.0000001"]
        code, _ = run(argv, capsys=capsys)
        assert code == 2
        code, out = run(argv + ["--tol", "1e-3"], capsys=capsys)
        assert code == 0
        assert last_line(out) == "lip=0.49999995000000497 regime=Regular converged=true"

    def test_history_holds_the_one_exact_value(self, shifted, tmp_path, capsys):
        out_csv = tmp_path / "lip.csv"
        code, out = run(["lip", "--system", shifted, "--anchor=1", "--out", str(out_csv)],
                        capsys=capsys)
        assert code == 0
        assert out.splitlines() == ["regime: Regular", "history: 0.5",
                                    "lip=0.5 regime=Regular converged=true"]
        assert out_csv.read_text().splitlines() == ["bound,regime,history,note",
                                                    "0.5,Regular,0.5,"]

    def test_lip_takes_no_budget(self, shifted, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["lip", "--system", shifted, "--anchor=1", "--budget", "8"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --budget 8" in capsys.readouterr().err


class TestExitCodes:
    def test_unknown_field_is_validation_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"version": "lipstab-v1", "dimension": 1, '
                        '"norm": "euclid", "rows": [], "oops": 1}')
        code, _ = run(["ssc", "--system", str(path)], capsys=capsys)
        assert code == 2

    def test_garbage_json(self, capsys):
        code, _ = run(["ssc"], stdin_text="not json", capsys=capsys)
        assert code == 2

    def test_infeasible_anchor(self, demo3, capsys):
        code, _ = run(["lip", "--system", demo3, "--anchor", "9,9"],
                      capsys=capsys)
        assert code == 2

    def test_ssc_violated_distance(self, tmp_path, capsys):
        doc = {"version": "lipstab-v1", "dimension": 1, "norm": "euclid",
               "rows": [{"label": "a", "a": [1.0], "b": 0.0},
                        {"label": "b", "a": [-1.0], "b": 0.0}]}
        path = tmp_path / "deg.json"
        path.write_text(json.dumps(doc))
        code, _ = run(["dist", "--system", str(path), "--anchor", "1"],
                      capsys=capsys)
        assert code == 2

    def test_missing_anchor(self, demo3, capsys):
        code, _ = run(["lip", "--system", demo3], capsys=capsys)
        assert code == 2

    def test_one_parser_serves_every_call(self, demo3, capsys):
        from lipstab.cli import build_parser
        assert build_parser() is build_parser()
        for _ in range(2):  # an argparse error leaves the shared parser as it was
            with pytest.raises(SystemExit) as exc:
                run_cli(["lip", "--system", demo3, "--bogus"])
            assert exc.value.code == 2
            assert "unrecognized arguments: --bogus" in capsys.readouterr().err
            code, out = run(["lip", "--system", demo3, "--anchor", "-0.3,0.3"], capsys=capsys)
            assert code == 0 and last_line(out).startswith("lip=")

    def test_non_convergence_is_exit_three(self, demo3, capsys, monkeypatch):
        from lipstab import cli as cli_mod
        from lipstab.errors import OrderingViolationError

        def boom(*args, **kwargs):
            raise OrderingViolationError("synthetic breach", [("J0", "min", 1.0, 0.5)])

        monkeypatch.setattr(cli_mod, "partition_compare", boom)
        code, _ = run(["compare-partitions", "--system", demo3,
                       "--anchor", "0,0"], capsys=capsys)
        assert code == 3

    def test_retry_exhausted_is_exit_three(self, capsys, monkeypatch):
        from lipstab import cli as cli_mod
        from lipstab.errors import RetryExhaustedError

        def boom(*args, **kwargs):
            raise RetryExhaustedError("no SSC-holding draw")

        monkeypatch.setattr(cli_mod, "demo_generate", boom)
        code, _ = run(["demo", "random", "--n", "2", "--m", "4"], capsys=capsys)
        assert code == 3

    def test_failed_cross_check_is_exit_four(self, demo3, capsys, monkeypatch):
        from lipstab import cli as cli_mod
        from lipstab.errors import InternalCheckError

        def boom(*args, **kwargs):
            raise InternalCheckError("synthetic disagreement")

        monkeypatch.setattr(cli_mod, "check_ssc", boom)
        code = run_cli(["ssc", "--system", demo3])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert captured.err == "error: synthetic disagreement\n"


class TestDocumentsOut:
    def test_linearize_emits_parseable_document(self, tmp_path, capsys):
        code, out = run(["demo", "convex-square-shifted"], capsys=capsys)
        conv = tmp_path / "c.json"
        conv.write_text(out)
        out_path = tmp_path / "lin.json"
        code, out = run(["linearize", "--system", str(conv), "--anchor", "1",
                         "--budget", "8", "--out", str(out_path)], capsys=capsys)
        assert code == 0
        doc = parse_document(out_path.read_text())
        assert doc.rows is not None and doc.partition is not None
        # every cut reads <u, x> <= f*(u) with f*(u) = u^2/4 + 1
        for label, a, b in doc.rows:
            assert b == pytest.approx(a[0] ** 2 / 4.0 + 1.0, abs=1e-9)

    def test_estimate_csv_determinism(self, demo3, tmp_path, capsys):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["estimate", "--system", demo3, "--anchor", "0,0",
                "--radius-ladder", "0.1,0.01", "--samples", "60", "--seed", "5"]
        code, _ = run(argv + ["--out", str(out1)], capsys=capsys)
        assert code == 0
        code, _ = run(argv + ["--out", str(out2)], capsys=capsys)
        assert code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_compare_partitions_runs(self, demo3, tmp_path, capsys):
        out_csv = tmp_path / "cmp.csv"
        code, out = run(["compare-partitions", "--system", demo3, "--anchor",
                         "0,0", "--samples", "200", "--radius-ladder", "1e-2,1e-3",
                         "--seed", "3", "--out", str(out_csv)], capsys=capsys)
        assert code == 0
        assert last_line(out).startswith("ordered=true")
        header = out_csv.read_text().splitlines()[0]
        assert header == "partition,radius,max_quotient,estimate,lip,within_slack"

    def test_demo_random_pipes_to_ssc(self, capsys):
        code, out = run(["demo", "random", "--n", "3", "--m", "8", "--seed", "1"],
                        capsys=capsys)
        assert code == 0
        code, out = run(["ssc"], stdin_text=out, capsys=capsys)
        assert code == 0
        assert "ssc=true" in last_line(out)


class TestAnchorLength:
    """An anchor of the wrong length is a validation error that names both sizes."""

    @pytest.fixture
    def paper1000(self, tmp_path, capsys):
        path = tmp_path / "p1000.json"
        code, _ = run(["demo", "paper-example", "--N", "1000", "--out", str(path)],
                      capsys=capsys)
        assert code == 0
        return str(path)

    @pytest.mark.parametrize("verb,extra", [
        ("lip", []), ("dist", []), ("codnorm", []), ("eps-active", ["--eps", "0.5"]),
        ("estimate", []), ("compare-partitions", []),
    ])
    def test_linear_verbs(self, paper1000, verb, extra, capsys):
        code = run_cli([verb, "--system", paper1000, "--anchor=0.1", *extra])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: anchor has 1 entries for a 2-dimensional system\n")

    @pytest.mark.parametrize("verb", ["lip", "dist", "linearize"])
    def test_convex_verbs(self, tmp_path, verb, capsys):
        path = tmp_path / "square.json"
        code, _ = run(["demo", "convex-square", "--out", str(path)], capsys=capsys)
        assert code == 0
        code = run_cli([verb, "--system", str(path), "--anchor=0.1,0.2"])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: anchor has 2 entries for a 1-dimensional system\n")


# every verb that reads a system document, with the options it needs here
DOCUMENT_VERBS = {
    "ssc": [], "dist": [], "lip": [], "codnorm": [], "eps-active": ["--eps", "0.5"],
    "linearize": [], "estimate": ["--samples", "50", "--radius-ladder", "0.1"],
    "compare-partitions": ["--samples", "200", "--seed", "3"],
}
LINEAR_ONLY = ("ssc", "codnorm", "eps-active", "estimate", "compare-partitions")
# one demo document of each kind, with an anchor in it
KIND_DEMOS = {"linear": (["paper-example", "--N", "3"], "0,0"),
              "convex": (["convex-square"], "0")}


class TestDocumentKinds:
    """A verb given a document of a kind it does not take exits 2 and says so."""

    @pytest.mark.parametrize("kind", KIND_DEMOS)
    @pytest.mark.parametrize("verb", DOCUMENT_VERBS)
    def test_every_verb_on_both_kinds(self, tmp_path, kind, verb, capsys):
        demo, anchor = KIND_DEMOS[kind]
        path = tmp_path / "doc.json"
        code, _ = run(["demo", *demo, "--out", str(path)], capsys=capsys)
        assert code == 0
        argv = [verb, "--system", str(path), *DOCUMENT_VERBS[verb]]
        code = run_cli(argv if verb == "ssc" else argv + [f"--anchor={anchor}"])
        err = capsys.readouterr().err
        if kind == "convex" and verb in LINEAR_ONLY:
            assert (code, err) == (2, f"error: {verb} expects a linear document\n")
        elif kind == "linear" and verb == "linearize":
            assert (code, err) == (2, "error: linearize expects a convex document\n")
        else:
            assert (code, err) == (0, "")


class TestConvexNorm:
    """A convex document's norm is the one its lip, dist and linearize use."""

    @staticmethod
    def _docs(tmp_path, norm):
        head = {"version": "lipstab-v1", "dimension": 2, "norm": norm}
        convex = dict(head, convex=[{"block": "f", "class": "affine",
                                     "c": [1.0, 1.0], "d": -1.0}])
        linear = dict(head, rows=[{"label": "f", "a": [1.0, 1.0], "b": 1.0}])
        paths = tmp_path / f"convex_{norm}.json", tmp_path / f"linear_{norm}.json"
        for path, doc in zip(paths, (convex, linear)):
            path.write_text(json.dumps(doc))
        return map(str, paths)

    @staticmethod
    def _value(argv, capsys, stdin_text=None):
        code, out = run(argv, stdin_text=stdin_text, capsys=capsys)
        assert code == 0
        return float(last_line(out).split()[0].split("=")[1])

    @pytest.mark.parametrize("norm", ["euclid", "l1", "linf"])
    @pytest.mark.parametrize("verb,anchor", [("dist", "2,2"), ("lip", "0.5,0.5")])
    def test_convex_matches_its_linear_form(self, tmp_path, norm, verb, anchor, capsys):
        convex, linear = self._docs(tmp_path, norm)
        got = self._value([verb, "--system", convex, f"--anchor={anchor}"], capsys)
        want = self._value([verb, "--system", linear, f"--anchor={anchor}"], capsys)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("norm", ["euclid", "l1", "linf"])
    def test_linearize_then_lip_matches_lip(self, tmp_path, norm, capsys):
        convex, _ = self._docs(tmp_path, norm)
        code, lin = run(["linearize", "--system", convex, "--anchor=0.5,0.5"],
                        capsys=capsys)
        assert code == 0
        piped = self._value(["lip", "--anchor=0.5,0.5"], capsys, stdin_text=lin)
        assert piped == self._value(["lip", "--system", convex, "--anchor=0.5,0.5"], capsys)


ROOT = Path(__file__).resolve().parents[1]


def fenced_block(path, heading, lang=""):
    """Body of the first fenced code block after ``heading`` in ``path``."""
    text = path.read_text(encoding="utf-8")
    section = text[text.index(heading):]
    start = section.index("```" + lang + "\n") + len(lang) + 4
    return section[start:section.index("```", start)]


def shell_steps(block):
    """(command, expected last line) pairs from a shell block.

    A ``# `` comment after a command holds its verdict line; text after a
    run of two or more spaces in the comment is an aside, not output.
    """
    steps, command = [], ""
    for line in block.splitlines():
        if line.startswith("# "):
            steps[-1] = (steps[-1][0], re.split(r"\s{2,}", line[2:])[0])
        elif line.strip():
            command += line.rstrip("\\").strip() + " "
            if not line.endswith("\\"):
                steps.append((command.strip(), None))
                command = ""
    return steps


def run_shell(command, capsys):
    """Runs ``lipstab ... | lipstab ... > file`` through run_cli."""
    command, _, target = command.partition(" > ")
    text = None
    for stage in command.split(" | "):
        argv = shlex.split(stage)
        assert argv[0] == "lipstab"
        code, text = run(argv[1:], stdin_text=text, capsys=capsys)
        assert code == 0, stage
    if target:
        Path(target).write_text(text)
    return text


# argv of each verdict line in docs/formats.md that runs in well under a
# second, on the N = 2 paper example
FORMATS_VERDICT_ARGV = {
    "ssc": ["ssc"],
    "dist": ["dist", "--anchor", "2,0"],
    "lip": ["lip", "--anchor", "0,0"],
    "codnorm": ["codnorm", "--anchor", "0,0"],
    "eps_active": ["eps-active", "--anchor", "0,0", "--eps", "0.5"],
}


class TestDocExamples:
    def test_readme_cli_examples(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        steps = shell_steps(fenced_block(ROOT / "README.md", "## CLI", "sh"))
        assert sum(expected is not None for _, expected in steps) == 3
        for command, expected in steps:
            out = run_shell(command, capsys)
            if expected is not None:
                assert last_line(out) == expected, command

    def test_readme_library_examples(self, capsys):
        """Each ``print(...)  # value`` line in the python blocks prints value."""
        checked = []
        for heading in ("## Library quick start", "Convex systems use function objects"):
            block = fenced_block(ROOT / "README.md", heading, "python")
            exec(block, {})
            printed = capsys.readouterr().out.splitlines()
            prints = [line for line in block.splitlines() if line.startswith("print(")]
            assert len(printed) == len(prints)
            for line, out in zip(prints, printed):
                if "# " in line:
                    assert out == line.split("# ", 1)[1].strip(), line
                    checked.append(out)
        assert checked == ["True", "0.7071067811865475", "0.5"]

    def test_formats_verdict_lines(self, tmp_path, capsys):
        block = fenced_block(ROOT / "docs" / "formats.md", "## Verdict lines")
        code, doc_text = run(["demo", "paper-example", "--N", "2"], capsys=capsys)
        assert code == 0
        path = tmp_path / "p2.json"
        path.write_text(doc_text)
        checked = set()
        for line in block.splitlines():
            key = line.split("=", 1)[0]
            if key in FORMATS_VERDICT_ARGV:
                argv = FORMATS_VERDICT_ARGV[key] + ["--system", str(path)]
                code, out = run(argv, capsys=capsys)
                assert code == 0
                assert last_line(out) == line
                checked.add(key)
        assert checked == set(FORMATS_VERDICT_ARGV)
