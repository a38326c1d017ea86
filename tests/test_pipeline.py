import io
import json

import pytest

from ccgcomment import pyparse as py
from ccgcomment.cli import main
from ccgcomment.pipeline import (
    SKIP_NO_REALIZATION,
    SKIP_UNSUPPORTED,
    RunConfig,
    StmtReport,
    report_coverage,
    run,
)


def run_capture(cfg):
    out, err = io.StringIO(), io.StringIO()
    code = run(cfg, out, err)
    return code, out.getvalue(), err.getvalue()


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_annotate_inserts_comment_above_statement(tmp_path):
    path = write(tmp_path, "in.py", "if x != y:\n    x = y\n")
    code, out, err = run_capture(RunConfig(path))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# Checking for inequality between x and y"
    assert "# Assign y to x" in out
    # indentation of the inserted line matches the statement
    idx = lines.index("    # Assign y to x")
    assert lines[idx + 1] == "    x = y"


def test_annotate_preserves_original_bytes(tmp_path):
    original = "x = 5\n\n# a comment\nif x != y:\n    x = y\n"
    path = write(tmp_path, "in.py", original)
    code, out, _ = run_capture(RunConfig(path))
    assert code == 0
    kept = [l for l in out.splitlines(keepends=True) if not l.lstrip().startswith("# A")
            and not l.lstrip().startswith("# Check")]
    assert "".join(kept) == original


def test_annotate_numbers_lines_as_python_does(tmp_path):
    # a form feed is whitespace to Python, though str.splitlines breaks there
    original = "a = 1\n\x0c\nb = 2\n"
    path = write(tmp_path, "in.py", original)
    code, out, _ = run_capture(RunConfig(path))
    assert code == 0
    assert out == "# Assign 1 to a\na = 1\n\x0c\n# Assign 2 to b\nb = 2\n"


def test_empty_file_exits_2(tmp_path):
    path = write(tmp_path, "in.py", "")
    code, out, err = run_capture(RunConfig(path))
    assert code == 2
    assert out == ""


def test_missing_file_exits_1(tmp_path):
    code, _, err = run_capture(RunConfig(str(tmp_path / "absent.py")))
    assert code == 1
    assert "error" in err


def test_bad_lexicon_exits_1(tmp_path):
    src = write(tmp_path, "in.py", "x = 5\n")
    lexicon = write(tmp_path, "broken.ccg", "roots: S\nbad :=\n")
    code, _, err = run_capture(RunConfig(src, lexicon_path=lexicon))
    assert code == 1
    assert "lexicon" in err


def test_emit_lf_does_not_read_lexicon(tmp_path):
    src = write(tmp_path, "in.py", "x = 5\n")
    lexicon = write(tmp_path, "broken.ccg", "roots: S\nbad :=\n")
    code, _, _ = run_capture(RunConfig(src, lexicon_path=lexicon, mode="emit-lf"))
    assert code == 0


@pytest.mark.parametrize("text", [
    "x = " + "(" * 300 + "1" + ")" * 300 + "\n",
    "x = " + "-" * 5000 + "1\n",  # deeper than ast.parse can recurse
    "x = 1 +\n",  # not Python, so the whole file is rejected
    "x = 1\0\n",
], ids=["parentheses", "unary-minus", "incomplete", "null-byte"])
def test_invalid_source_exits_1(tmp_path, text):
    path = write(tmp_path, "in.py", text)
    code, out, err = run_capture(RunConfig(path, mode="jsonl"))
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_wide_expression_is_skipped(tmp_path):
    path = write(tmp_path, "in.py", "x = " + " + ".join(["a"] * 2000) + "\n")
    code, out, _ = run_capture(RunConfig(path, mode="jsonl"))
    assert code == 2
    (report,) = [json.loads(l) for l in out.splitlines()]
    assert report["skip_reason"] == SKIP_UNSUPPORTED


@pytest.mark.parametrize("mode", ["jsonl", "emit-lf"])
def test_huge_integer_literal_is_skipped(tmp_path, mode):
    path = write(tmp_path, "in.py", "x = 0x" + "f" * 4000 + "\ny = 2\n")
    code, out, _ = run_capture(RunConfig(path, mode=mode))
    marker, assign = (json.loads(l) for l in out.splitlines())
    assert marker["goal"] is None
    assert assign["goal"] == ["assign(y, 2)"]
    assert code == 0


def test_jsonl_reports(tmp_path):
    path = write(tmp_path, "in.py", "x = 5\nimport os\n")
    code, out, err = run_capture(RunConfig(path, mode="jsonl"))
    assert code == 0
    first, second = (json.loads(l) for l in out.splitlines())
    assert first == {"loc": [1, 0], "source": "x = 5",
                     "goal": ["assign(x, 5)"], "comment": "Assign 5 to x"}
    assert second["skip_reason"] == SKIP_UNSUPPORTED
    assert second["goal"] is None
    assert "comment" not in second


def test_jsonl_no_realization_skip(tmp_path):
    # four parameters exceed what the grammar can coordinate
    path = write(tmp_path, "in.py", "def f(a, b, c, d):\n    return a\n")
    code, out, _ = run_capture(RunConfig(path, mode="jsonl"))
    reports = [json.loads(l) for l in out.splitlines()]
    assert reports[0]["skip_reason"] == SKIP_NO_REALIZATION
    assert reports[1]["comment"] == "Return the value of a"
    assert code == 0


def test_emit_lf_mode(tmp_path):
    path = write(tmp_path, "in.py", "x = 5\n")
    code, out, _ = run_capture(RunConfig(path, mode="emit-lf"))
    assert code == 0
    (doc,) = [json.loads(l) for l in out.splitlines()]
    assert doc == {"loc": [1, 0], "kind": "Assign", "goal": ["assign(x, 5)"]}


def test_parse_debug_mode(tmp_path):
    path = write(tmp_path, "sentences.txt", "sort the array\nsort sort\n")
    lexicon = write(tmp_path, "sort.ccg",
                    "roots: VP\n"
                    "sort := VP/NP : \\x. sort'(x)\n"
                    "the := NP/N : \\x. x\n"
                    "array := N : array'\n")
    code, out, _ = run_capture(RunConfig(path, lexicon_path=lexicon, mode="parse-debug"))
    assert code == 0
    assert "% sort the array" in out
    assert "FwdApp VP : sort'(array')" in out
    assert "no parse" in out


def test_roots_override(tmp_path):
    path = write(tmp_path, "in.py", "if x != y:\n    x = y\n")
    # with declarative roots only, nothing realizes
    code, out, err = run_capture(RunConfig(path, roots="S[dcl]"))
    assert code == 2
    assert "no-realization" in err


def test_verify_flag_round_trips(tmp_path):
    path = write(tmp_path, "in.py", "x = 5\nprint(x)\n")
    code, out, _ = run_capture(RunConfig(path, verify=True))
    assert code == 0


def test_json_input_ingested(tmp_path):
    stmts = py.parse_source("x = 5\n")
    path = write(tmp_path, "in.json", py.dump_ast(stmts))
    code, out, _ = run_capture(RunConfig(path, mode="jsonl"))
    assert code == 0
    assert json.loads(out.splitlines()[0])["comment"] == "Assign 5 to x"


def test_json_input_has_no_source_lines(tmp_path):
    stmts = py.parse_source("x = 5\n")
    path = write(tmp_path, "in.json", py.dump_ast(stmts))
    code, out, _ = run_capture(RunConfig(path, mode="jsonl"))
    assert code == 0
    assert json.loads(out.splitlines()[0])["source"] == ""
    code, out, err = run_capture(RunConfig(path, mode="annotate"))
    assert (code, out) == (1, "")
    assert err.startswith("error:") and ".json" in err


@pytest.mark.parametrize("mode", ["jsonl", "annotate", "emit-lf", "parse-debug"])
def test_non_utf8_input_exits_1(tmp_path, mode):
    path = tmp_path / "in.py"
    path.write_bytes(b"x = 1\n\xff = 2\n")
    code, out, err = run_capture(RunConfig(str(path), mode=mode))
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "in.py" in err


@pytest.mark.parametrize("mode", ["jsonl", "parse-debug"])
def test_non_utf8_lexicon_exits_1(tmp_path, mode):
    lexicon = tmp_path / "lex.ccg"
    lexicon.write_bytes(b"roots: S\nhi := S : p() # \xff\n")
    path = write(tmp_path, "in.py", "x = 1\n")
    code, out, err = run_capture(RunConfig(path, lexicon_path=str(lexicon), mode=mode))
    assert (code, out) == (1, "")
    assert err.startswith("error: lexicon:")


def test_bad_json_input_exits_1(tmp_path):
    path = write(tmp_path, "in.json", '{"schema_version": 1}')
    code, _, err = run_capture(RunConfig(path, mode="jsonl"))
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("mode", ["jsonl", "emit-lf"])
def test_huge_json_number_exits_1(tmp_path, mode):
    text = py.dump_ast([py.Assign(py.Name("x"), py.NumLit(7), (1, 0))])
    path = write(tmp_path, "in.json", text.replace("7", "9" * 5000))
    code, out, err = run_capture(RunConfig(path, mode=mode))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {path}: $: invalid JSON:")


def test_deep_json_input_exits_1(tmp_path):
    value = py.Name("a")
    for _ in range(400):
        value = py.BinOp("+", value, py.Name("a"))
    path = write(tmp_path, "in.json", py.dump_ast([py.Assign(py.Name("x"), value, (1, 0))]))
    code, _, err = run_capture(RunConfig(path, mode="emit-lf"))
    assert code == 1
    assert err.startswith("error:")


def test_variants_stack_in_annotate(tmp_path):
    path = write(tmp_path, "in.py", "x = 5\n")
    code, out, _ = run_capture(RunConfig(path, variants=2))
    assert code == 0
    # only one distinct phrasing exists for this goal
    assert out.splitlines()[0] == "# Assign 5 to x"


def test_coverage_summary_counts():
    reports = [
        StmtReport((1, 0), "x = 5", ["assign(x, 5)"], comment="Assign 5 to x"),
        StmtReport((2, 0), "import os", None, skip_reason=SKIP_UNSUPPORTED),
        StmtReport((3, 0), "f(1)", ["call()"], skip_reason=SKIP_NO_REALIZATION),
    ]
    err = io.StringIO()
    counts = report_coverage(reports, err)
    assert counts["total"] == 3
    assert counts["supported"] == 2
    assert counts["commented"] == 1
    assert counts["skipped"][SKIP_UNSUPPORTED] == 1
    assert counts["skipped"][SKIP_NO_REALIZATION] == 1
    assert "1/2" in err.getvalue()


def test_all_supported_summary():
    reports = [
        StmtReport((i, 0), "s", ["p()"], comment="C") for i in range(1, 4)
    ]
    counts = report_coverage(reports, io.StringIO())
    assert (counts["total"], counts["supported"], counts["commented"]) == (3, 3, 3)
    assert sum(counts["skipped"].values()) == 0


def test_cli_main_smoke(tmp_path, capsys):
    path = write(tmp_path, "in.py", "x = 5\n")
    code = main([path, "--mode", "jsonl", "--verify"])
    assert code == 0
    captured = capsys.readouterr()
    assert "Assign 5 to x" in captured.out
    assert "coverage:" in captured.err


def test_cli_rejects_unknown_mode(tmp_path):
    path = write(tmp_path, "in.py", "x = 5\n")
    with pytest.raises(SystemExit):
        main([path, "--mode", "nonsense"])


def test_byte_determinism_on_snippet(tmp_path):
    text = "a = [1, 2]\nfor e in a:\n    print(e)\n"
    path = write(tmp_path, "in.py", text)
    outputs = set()
    for _ in range(2):
        code, out, err = run_capture(RunConfig(path, mode="jsonl"))
        assert code == 0
        outputs.add(out + "\x00" + err)
    assert len(outputs) == 1
