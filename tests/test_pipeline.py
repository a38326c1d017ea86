import io
import json
import os
import pathlib
import random
import subprocess
import sys
from collections import Counter

import pytest

import ccgcomment
from ccgcomment import chart, pipeline, pyparse as py
from ccgcomment.cli import main
from ccgcomment.extract import extract, goal_constants
from ccgcomment.lexicon import bundled_lexicon_text, extend_with_identifiers, load_bundled_lexicon, load_lexicon
from ccgcomment.pipeline import (
    SKIP_NO_REALIZATION,
    SKIP_UNSUPPORTED,
    RunConfig,
    StmtReport,
    report_coverage,
    run,
)
from ccgcomment.realize import Goal, Realization, SearchLimits
from ccgcomment.terms import equivalent, rename_constants


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


def _line_end(line):
    return line[len(line.rstrip("\r\n")):]


@pytest.mark.parametrize("original, comments", [
    (b"x = 1\r\nif x:\r\n    y = 2\r\n", 3),
    (b"x = 1\rif x:\r    y = 2\r", 3),
    (b"x = 1\r\n\nif x:\r    y = (a +\r\n         b)\nz = 4", 4),
], ids=["crlf", "cr", "mixed"])
def test_annotate_keeps_line_ends(tmp_path, original, comments):
    path = tmp_path / "in.py"
    path.write_bytes(original)
    code, out, _ = run_capture(RunConfig(str(path)))
    assert code == 0
    lines = io.StringIO(out, newline="").readlines()
    inserted = [i for i, line in enumerate(lines) if line.lstrip().startswith("# ")]
    assert len(inserted) == comments
    for i in inserted:
        # a comment line ends as its statement's line does; above a last
        # line with no end, it ends with \n
        assert _line_end(lines[i]) == (_line_end(lines[i + 1]) or "\n")
    kept = [line for i, line in enumerate(lines) if i not in inserted]
    assert "".join(kept).encode() == original


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


def test_verify_identifier_spelled_like_a_parsed_word(tmp_path, monkeypatch):
    # `list` is parsed as a word of the lexicon for the first two comments,
    # then as the identifier of `a = list`, which only the lexicon scoped
    # to that statement has as an `NP`
    base = load_lexicon(bundled_lexicon_text())
    monkeypatch.setattr(pipeline, "load_bundled_lexicon", lambda: base)
    path = write(tmp_path, "in.py", "xs = [1]\nfor x in xs:\n    print(x)\na = list\n")
    code, out, _ = run_capture(RunConfig(path, mode="jsonl", verify=True))
    assert code == 0
    comments = [json.loads(l)["comment"] for l in out.splitlines()]
    assert len(comments) == 4 and comments[-1] == "Assign list to a"


@pytest.mark.parametrize("tokens,message", [
    # the goal assigns y to x; these words assign x to y
    (("assign", "x", "to", "y"), "does not re-parse to its goal"),
    (("assign", "y", "frobnicated", "x"), "no lexicon entry for 'frobnicated'"),
], ids=["wrong-words", "unknown-word"])
@pytest.mark.parametrize("mode", ["annotate", "jsonl"])
def test_verify_rejects_a_wrong_comment(tmp_path, monkeypatch, tokens, message, mode):
    monkeypatch.setattr(pipeline, "realize_all",
                        lambda lex, goal, k, limits: [Realization(tokens, len(tokens))])
    path = write(tmp_path, "in.py", "x = y\n")
    code, out, err = run_capture(RunConfig(path, mode=mode, verify=True))
    assert code == 1
    assert out == ""
    assert err.startswith("error: verification failed: 1:")
    assert message in err


@pytest.mark.parametrize("source,words,parses,message", [
    # `x = y` is given the words of `a = b` with its identifiers swapped:
    # the same comment shape, so the second statement takes the readings
    # of the first parse, and its own goal still fails them
    ("a = b\nx = y\n", [("assign", "b", "to", "a"), ("assign", "x", "to", "y")], 1,
     "does not re-parse to its goal"),
    # a word spelled like a placeholder is no identifier, and is unknown
    ("a = a\nx = x\n", [("assign", "a", "to", "a"), ("assign", "_0", "to", "x")], 2,
     "no lexicon entry for '_0'"),
], ids=["swapped-identifiers", "placeholder-word"])
def test_verify_cache_hit_rejects_a_wrong_comment(tmp_path, monkeypatch, source, words,
                                                   parses, message):
    base = load_lexicon(bundled_lexicon_text())
    monkeypatch.setattr(pipeline, "load_bundled_lexicon", lambda: base)
    words = iter(words)
    monkeypatch.setattr(pipeline, "realize_all",
                        lambda lex, goal, k, limits: [Realization(next(words), 4)])
    made = []
    parse = pipeline.chart_parse
    monkeypatch.setattr(pipeline, "chart_parse", lambda *args: made.append(args) or parse(*args))
    path = write(tmp_path, "in.py", source)
    code, out, err = run_capture(RunConfig(path, mode="jsonl", verify=True))
    assert (code, out, len(made)) == (1, "", parses)
    assert err.startswith("error: verification failed: 2:")
    assert message in err


# identifier spellings for the draw below: ordinary names, words of the
# bundled lexicon, and the placeholders `--verify` renames identifiers to
RESPELLINGS = ["a", "b", "n", "total", "sum", "list", "the", "_0", "_1"]


def _reads_as(lex, tokens, goal):
    """Whether a direct parse of `tokens` has a reading equivalent to `goal`."""
    try:
        return any(equivalent(d.sem, goal.as_term()) for d in chart.parse(lex, tokens))
    except chart.UnknownWord:
        return False


@pytest.mark.parametrize("seed", range(3))
def test_verify_agrees_with_a_direct_parse(corpus_files, seed):
    # Corpus comments, respelled and perturbed, are checked by `_verify`,
    # which shares parses across comment shapes, and by a direct parse of
    # each comment: the verdicts agree.  A respelling renames a name in the
    # goal and every token spelled like it, a word included, and applies
    # to the previous draw of a chain, so one chain holds the same shape
    # with its identifiers spelled as words, as placeholders and as
    # neither.  A perturbation swaps two tokens, copies one identifier
    # token over another token, or overwrites a token with a respelling.
    rng = random.Random(seed)
    base = load_lexicon(bundled_lexicon_text())
    comments = []
    for path in corpus_files:
        for item in extract(py.parse_source(path.read_text())):
            if item.goal is not None:
                scoped = extend_with_identifiers(load_bundled_lexicon(), goal_constants(item.goal))
                for r in pipeline.realize_all(scoped, item.goal, 2, SearchLimits()):
                    comments.append((r.tokens, item.goal))
    verdicts = Counter()
    for _ in range(150):
        tokens, goal = rng.choice(comments)
        for _ in range(4):
            names = goal_constants(goal)
            to = {n: rng.choice(RESPELLINGS) for n in names if rng.random() < 0.7}
            goal = Goal(tuple(rename_constants(p, to) for p in goal.predicates))
            tokens = [to.get(t, t) for t in tokens]
            names = goal_constants(goal)
            i, j = rng.sample(range(len(tokens)), 2)
            move = rng.random()
            if move < 0.2:
                tokens[i], tokens[j] = tokens[j], tokens[i]
            elif move < 0.35:
                tokens[j] = rng.choice([t for t in tokens if t in names] or tokens)
            elif move < 0.45:
                tokens[j] = rng.choice(RESPELLINGS)
            lex = extend_with_identifiers(base, names)
            expected = _reads_as(lex, tokens, goal)
            try:
                pipeline._verify(lex, tuple(tokens), goal, (1, 0))
            except pipeline.VerifyFailure:
                assert not expected, (tokens, goal)
            else:
                assert expected, (tokens, goal)
            verdicts[expected] += 1
    assert verdicts[True] >= 100 and verdicts[False] >= 100


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


BOM = "\ufeff"


@pytest.mark.parametrize("mode", ["jsonl", "annotate", "emit-lf", "parse-debug"])
def test_source_with_byte_order_mark(tmp_path, mode):
    # a leading BOM is read as no part of the text, so reports quote and
    # locate line 1 as they would without it; annotate keeps it first
    plain = "x = 1\nif x != y:\n    x = y\n"
    path = tmp_path / "bom.py"
    path.write_text(BOM + plain, encoding="utf-8")
    code, out, err = run_capture(RunConfig(str(path), mode=mode))
    want_code, want_out, want_err = run_capture(RunConfig(write(tmp_path, "in.py", plain), mode=mode))
    if mode == "annotate":
        assert out.startswith(BOM + "# Assign 1 to x\nx = 1\n")
        want_out = BOM + want_out
    assert (code, out, err) == (want_code, want_out, want_err)
    assert code != 1


def test_json_input_with_byte_order_mark(tmp_path):
    text = py.dump_ast(py.parse_source("x = 5\n"))
    path = tmp_path / "bom.json"
    path.write_text(BOM + text, encoding="utf-8")
    got = run_capture(RunConfig(str(path), mode="jsonl"))
    assert got == run_capture(RunConfig(write(tmp_path, "in.json", text), mode="jsonl"))
    assert got[0] == 0


def test_lexicon_with_byte_order_mark(tmp_path):
    lexicon = tmp_path / "lex.ccg"
    lexicon.write_text(BOM + bundled_lexicon_text(), encoding="utf-8")
    path = write(tmp_path, "in.py", "x = 1\n")
    got = run_capture(RunConfig(path, lexicon_path=str(lexicon), mode="jsonl"))
    assert got == run_capture(RunConfig(path, mode="jsonl"))
    assert got[0] == 0


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


@pytest.mark.parametrize("lexicon,roots", [
    ("roots: S\nx := S : " + "(" * 3000 + "a" + ")" * 3000 + "\n", None),
    ("roots: S\nx := " + "(" * 3000 + "S" + ")" * 3000 + " : a\n", None),
    ("roots: S\nx := S : \\y. " + "(\\x. x) " * 2000 + "y\n", None),
    (None, "(" * 3000 + "S" + ")" * 3000),
], ids=["term-parentheses", "category-parentheses", "application-spine", "roots-parentheses"])
def test_deep_lexicon_exits_1(tmp_path, lexicon, roots):
    # the console script in a process of its own, so the recursion limit
    # is met at the depth a user meets it
    args = [sys.executable, "-m", "ccgcomment.cli", write(tmp_path, "in.py", "x = 5\n"), "--mode", "jsonl"]
    if lexicon is not None:
        args += ["--lexicon", write(tmp_path, "lex.ccg", lexicon)]
    if roots is not None:
        args += ["--roots", roots]
    src = str(pathlib.Path(ccgcomment.__file__).parents[1])
    done = subprocess.run(args, capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr.startswith("error: lexicon:") and "Traceback" not in done.stderr


@pytest.mark.parametrize("mode", ["jsonl", "emit-lf", "parse-debug"])
def test_closed_stdout_exits_quietly(tmp_path, mode):
    # a reader that stops after one line, as `| head -n 1` does; each mode
    # prints well over a pipe's buffer for these 400 statements, so the
    # console script writes to the closed pipe while it runs
    name = "a_rather_long_identifier_of_a_value_in_a_generated_program_"
    path = write(tmp_path, "big.py", "".join(
        f"{name}{i} = {name}{i + 1} + {name}{i + 2} * {name}{i + 3}\n" for i in range(400)))
    src = str(pathlib.Path(ccgcomment.__file__).parents[1])
    with subprocess.Popen([sys.executable, "-m", "ccgcomment.cli", path, "--mode", mode],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env={**os.environ, "PYTHONPATH": src}) as proc:
        assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
    assert err == b""


def test_variants_stack_in_annotate(tmp_path):
    path = write(tmp_path, "in.py", "x = 5\n")
    code, out, _ = run_capture(RunConfig(path, variants=2))
    assert code == 0
    # only one distinct phrasing exists for this goal
    assert out.splitlines()[0] == "# Assign 5 to x"


@pytest.mark.parametrize("k,variants", [(1, None), (2, ["Show aa zz", "Show zz aa"]),
                                         (3, ["Show aa zz", "Show zz aa"])])
def test_variants_listed_in_jsonl(tmp_path, k, variants):
    lexicon = write(tmp_path, "show.ccg",
                    "roots: S\nshow := (S/NP)/NP : \\y. \\x. output() & value(x) & value(y)\n")
    path = write(tmp_path, "in.py", "print(zz, aa)\nimport os\n")
    code, out, _ = run_capture(RunConfig(path, lexicon_path=lexicon, mode="jsonl", variants=k))
    assert code == 0
    commented, skipped = (json.loads(l) for l in out.splitlines())
    assert commented["comment"] == "Show aa zz"
    assert commented.get("variants") == variants
    assert "variants" not in skipped


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
