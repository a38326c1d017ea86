import ast
import dataclasses
import json
import sys
import threading
import warnings

import pytest

from ccgcomment import pyparse as py


def test_assign_number():
    stmts = py.parse_source("x = 5")
    assert stmts == (py.Assign(py.Name("x"), py.NumLit(5), (1, 0)),)


def test_empty_module():
    assert py.parse_source("") == ()
    assert py.parse_source("\n\n# comment only\n") == ()


def test_locations_increase_in_document_order():
    text = "x = 1\nwhile x > 0:\n    x = x - 1\n    print(x)\ny = 2\n"
    stmts = py.parse_source(text)

    def flatten(ss):
        for s in ss:
            yield s
            for field in ("body", "orelse"):
                yield from flatten(getattr(s, field, ()))

    locs = [s.loc for s in flatten(stmts)]
    assert locs == sorted(locs)
    assert len(set(locs)) == len(locs)


def test_if_elif_else_nesting():
    text = """if x < 0:
    y = 1
elif x == 0:
    y = 2
else:
    y = 3
"""
    (stmt,) = py.parse_source(text)
    assert isinstance(stmt, py.If)
    assert stmt.cond == py.Compare("<", py.Name("x"), py.NumLit(0))
    (elif_stmt,) = stmt.orelse
    assert isinstance(elif_stmt, py.If)
    assert elif_stmt.cond == py.Compare("==", py.Name("x"), py.NumLit(0))
    assert len(elif_stmt.orelse) == 1


def test_for_in_and_while():
    text = "for e in a:\n    print(e)\nwhile n > 0:\n    n = n - 1\n"
    for_stmt, while_stmt = py.parse_source(text)
    assert isinstance(for_stmt, py.ForIn)
    assert for_stmt.var == "e"
    assert for_stmt.iterable == py.Name("a")
    assert isinstance(while_stmt, py.While)


def test_funcdef_params_and_body():
    (fd,) = py.parse_source("def add(p, q):\n    return p + q\n")
    assert isinstance(fd, py.FuncDef)
    assert fd.name == "add"
    assert fd.params == ("p", "q")
    (ret,) = fd.body
    assert ret == py.Return(py.BinOp("+", py.Name("p"), py.Name("q")), (2, 4))


def test_io_classification():
    read, write = py.parse_source('name = input("who? ")\nprint(name)\n')
    assert isinstance(read, py.IORead)
    assert read.target == py.Name("name")
    assert read.prompt == (py.StrLit("who? "),)
    assert isinstance(write, py.IOPrint)
    assert write.args == (py.Name("name"),)


def test_bare_call_statement():
    (call,) = py.parse_source("work(3, 4)\n")
    assert call == py.ExprCall(py.Call(py.Name("work"), (py.NumLit(3), py.NumLit(4))), (1, 0))


def test_augassign():
    (s,) = py.parse_source("i += 1\n")
    assert s == py.AugAssign(py.Name("i"), "+", py.NumLit(1), (1, 0))


def test_index_targets_and_values():
    read, write = py.parse_source("x = a[i]\na[i] = x\n")
    assert read.value == py.Index(py.Name("a"), py.Name("i"))
    assert write.target == py.Index(py.Name("a"), py.Name("i"))


def test_expression_grammar():
    (s,) = py.parse_source("y = a + b * c ** 2 % d\n")
    assert s.value == py.BinOp(
        "+",
        py.Name("a"),
        py.BinOp("%", py.BinOp("*", py.Name("b"),
                               py.BinOp("**", py.Name("c"), py.NumLit(2))),
                 py.Name("d")),
    )
    (s,) = py.parse_source("ok = x < y and not done or z == 1\n")
    assert s.value == py.BoolOp("or", (
        py.BoolOp("and", (py.Compare("<", py.Name("x"), py.Name("y")),
                          py.BoolOp("not", (py.Name("done"),)))),
        py.Compare("==", py.Name("z"), py.NumLit(1)),
    ))


def test_literals():
    (s,) = py.parse_source("a = [1, 2, 3]\n")
    assert s.value == py.ListLit((py.NumLit(1), py.NumLit(2), py.NumLit(3)))
    (s,) = py.parse_source('d = {1: "x", 2: "y"}\n')
    assert s.value == py.DictLit(((py.NumLit(1), py.StrLit("x")),
                                  (py.NumLit(2), py.StrLit("y"))))


@pytest.mark.parametrize("text,expected", [
    # a multi-line docstring is one expression statement
    ('def area(w, h):\n    """Area.\n\n    w times h.\n    """\n    return w * h\n',
     [("FuncDef", (1, 0)), ("Unsupported", (2, 4)), ("Return", (6, 4))]),
    ("total = first + \\\n    second\nprint(total)\n", [("Assign", (1, 0)), ("IOPrint", (3, 0))]),
    ("x = 1; y = 2\n", [("Assign", (1, 0)), ("Assign", (1, 7))]),
    # columns count characters, not UTF-8 bytes
    ('s = "é"; t = 1\n', [("Assign", (1, 0)), ("Assign", (1, 9))]),
    # and tabs expand to multiples of 8
    ("if x:\n\ty = 1\n", [("If", (1, 0)), ("Assign", (2, 8))]),
    # a form feed is whitespace, not a line break
    ("a = 1\n\x0c\nb = 2\n", [("Assign", (1, 0)), ("Assign", (3, 0))]),
], ids=["docstring", "continuation", "semicolon", "utf8-column", "tab-column", "form-feed"])
def test_kinds_and_locations(text, expected):
    def flatten(ss):
        for s in ss:
            yield s
            for field in ("body", "orelse"):
                yield from flatten(getattr(s, field, ()))

    got = [(type(s).__name__, s.loc) for s in flatten(py.parse_source(text))]
    assert got == expected


@pytest.mark.parametrize("text,kind", [
    ("x = 1 is 1\n", "Unsupported"),
    ('x = "\\d"\n', "Assign"),  # an invalid escape sequence warns
], ids=["is-literal", "invalid-escape"])
def test_source_warnings_are_not_raised(text, kind):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (stmt,) = py.parse_source(text)
    assert type(stmt).__name__ == kind


def test_concurrent_parses_restore_warning_filters():
    before = list(warnings.filters)
    interval = sys.getswitchinterval()

    def work():
        for _ in range(300):
            py.parse_source("x = 1\n")

    threads = [threading.Thread(target=work) for _ in range(4)]
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert warnings.filters == before


# ---------------------------------------------------------------------------
# unsupported constructs become markers, never failures
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("text,reason_part", [
    ("b = [e for e in a]\n", "comprehension"),
    ("import os\n", "import"),
    ("x.y = 1\n", "attribute"),
    ("x = obj.method()\n", "attribute"),
    ("x = 1.5\n", "float"),
    ("x, y = 1, 2\n", ""),
    ("class Foo:\n    pass\n", "class"),
    ("x = lambda v: v\n", "lambda"),
    ("del x\n", "del"),
    ("x = -1\n", ""),
    ("if x < y < z:\n    pass\n", "chained"),
    ("if x: y = 1\n", "inline suite"),
    pytest.param("x = " + " + ".join(["a"] * 2000) + "\n", "nested too deeply", id="wide-sum"),
    # more decimal digits than `str` converts
    pytest.param("x = 0x" + "f" * 4000 + "\n", "integer literal too long", id="huge-int"),
])
def test_unsupported_constructs_are_markers(text, reason_part):
    stmts = py.parse_source(text)
    assert len(stmts) >= 1
    assert isinstance(stmts[0], py.Unsupported)
    if reason_part:
        assert reason_part in stmts[0].reason


def test_unsupported_does_not_abort_rest_of_file():
    text = "b = [e for e in a]\nc = 1\n"
    marker, assign = py.parse_source(text)
    assert isinstance(marker, py.Unsupported)
    assert assign == py.Assign(py.Name("c"), py.NumLit(1), (2, 0))


def test_unsupported_compound_skips_its_suite():
    text = "class Foo:\n    x = 1\n    y = 2\nz = 3\n"
    marker, assign = py.parse_source(text)
    assert isinstance(marker, py.Unsupported)
    assert assign.loc == (4, 0)


def test_lexical_errors_raise():
    with pytest.raises(py.SourceSyntaxError):
        py.parse_source("x = 1\n  y = 2\n")  # unexpected indent
    with pytest.raises(py.SourceSyntaxError):
        # dedent to a level that was never on the indent stack
        py.parse_source("if x:\n        y = 1\n    z = 2\n")
    with pytest.raises(py.SourceSyntaxError):
        py.parse_source('s = "unterminated\n')
    with pytest.raises(py.SourceSyntaxError):
        py.parse_source("x = 1 ?\n")


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------

def test_json_round_trip_matches_parse(corpus_files):
    for path in corpus_files:
        stmts = py.parse_source(path.read_text())
        assert py.ingest_ast(py.dump_ast(stmts)) == stmts, path


def test_ingest_equals_parse_for_assignment():
    doc = {
        "schema_version": 1,
        "body": [{
            "kind": "Assign",
            "loc": [1, 0],
            "target": {"kind": "Name", "id": "x"},
            "value": {"kind": "NumLit", "value": 5},
        }],
    }
    assert py.ingest_ast(json.dumps(doc)) == py.parse_source("x = 5")


def test_ingest_rejects_unknown_kind():
    doc = {"schema_version": 1,
           "body": [{"kind": "Goto", "loc": [1, 0]}]}
    with pytest.raises(py.SchemaError) as err:
        py.ingest_ast(json.dumps(doc))
    assert "kind" in err.value.path


def test_ingest_rejects_bad_version_and_shape():
    with pytest.raises(py.SchemaError):
        py.ingest_ast(json.dumps({"schema_version": 99, "body": []}))
    with pytest.raises(py.SchemaError):
        py.ingest_ast(json.dumps({"schema_version": 1}))
    with pytest.raises(py.SchemaError):
        py.ingest_ast("not json")
    with pytest.raises(py.SchemaError) as err:
        py.ingest_ast(json.dumps({
            "schema_version": 1,
            "body": [{"kind": "Assign", "loc": [1, 0],
                      "target": {"kind": "Name", "id": "x"},
                      "value": {"kind": "NumLit", "value": "five"}}],
        }))
    assert "value" in err.value.path


def _one_stmt(stmt):
    return json.dumps({"schema_version": 1, "body": [dict(stmt, loc=[1, 0])]})


_F = {"kind": "Name", "id": "f"}
_ONE = {"kind": "NumLit", "value": 1}


def _located(loc):
    return json.dumps({"schema_version": 1, "body": [
        {"kind": "Assign", "loc": loc, "target": {"kind": "Name", "id": "x"}, "value": _ONE}]})


@pytest.mark.parametrize("text,path,message", [
    (_one_stmt({"kind": "ExprCall", "call": {"kind": "Call", "fn": _F, "args": 5}}),
     "$.body[0].call.args", "expected a list"),
    (_one_stmt({"kind": "ExprCall", "call": {"kind": "Call", "fn": _F, "args": "ab"}}),
     "$.body[0].call.args", "expected a list"),
    (_one_stmt({"kind": "IOPrint", "args": {"kind": "Name", "id": "x"}}),
     "$.body[0].args", "expected a list"),
    (_one_stmt({"kind": "FuncDef", "name": 5, "params": [], "body": []}),
     "$.body[0].name", "not an identifier"),
    (_one_stmt({"kind": "Assign", "target": _ONE, "value": _ONE}),
     "$.body[0].target", "Name or Index"),
    (_one_stmt({"kind": "IORead", "target": _F, "prompt": "x"}),
     "$.body[0].prompt", "expected a list"),
    (_one_stmt({"kind": ["Assign"]}), "$.body[0].kind", "unknown statement kind"),
    (_one_stmt({"kind": {"Assign": 1}}), "$.body[0].kind", "unknown statement kind"),
    (_located([True, -7]), "$.body[0].loc", "expected [line, column]"),
    (_located([1, False]), "$.body[0].loc", "expected [line, column]"),
    (_located([0, 0]), "$.body[0].loc", "expected [line, column]"),
    (_located([1, -1]), "$.body[0].loc", "expected [line, column]"),
    (_located([1.0, 0]), "$.body[0].loc", "expected [line, column]"),
], ids=["args-int", "args-str", "print-args", "funcdef-name", "assign-target", "prompt-str",
        "list-kind", "object-kind", "loc-bools", "loc-bool-column", "loc-line-0",
        "loc-negative-column", "loc-float"])
def test_ingest_rejects_mistyped_fields(text, path, message):
    with pytest.raises(py.SchemaError) as err:
        py.ingest_ast(text)
    assert err.value.path == path
    assert message in err.value.message


def _nested(kind, depth):
    """A document whose statement or expression nests `depth` deep."""
    name = {"kind": "Name", "id": "a"}
    if kind == "expression":
        value = name
        for _ in range(depth - 1):
            value = {"kind": "BinOp", "op": "+", "left": value, "right": name}
        stmt = {"kind": "Assign", "loc": [1, 0], "target": name, "value": value}
    else:
        stmt = {"kind": "Return", "loc": [1, 0], "value": None}
        for _ in range(depth - 1):
            stmt = {"kind": "While", "loc": [1, 0], "cond": name, "body": [stmt]}
    return json.dumps({"schema_version": 1, "body": [stmt]})


@pytest.mark.parametrize("text,message", [
    (_nested("expression", py.MAX_DEPTH + 1), "expression nested deeper"),
    (_nested("statement", py.MAX_DEPTH + 1), "statements nested deeper"),
    ('{"schema_version": 1, "body": ' + "[" * 5000 + "]" * 5000 + "}", "too deeply"),
], ids=["expression", "statement", "json"])
def test_ingest_rejects_deep_nesting(text, message):
    with pytest.raises(py.SchemaError) as err:
        py.ingest_ast(text)
    assert message in err.value.message


def test_json_round_trip_at_depth_limits():
    # Python allows 99 nested blocks; the innermost holds the deepest
    # expression the frontend keeps
    text = "".join(" " * i + "while x:\n" for i in range(99))
    text += " " * 99 + "y = " + " + ".join(["a"] * py.MAX_DEPTH) + "\n"
    stmts = py.parse_source(text)
    inner = stmts[0]
    while isinstance(inner, py.While):
        (inner,) = inner.body
    assert isinstance(inner, py.Assign)
    assert py.ingest_ast(py.dump_ast(stmts)) == stmts
    assert py.ingest_ast(_nested("expression", py.MAX_DEPTH))
    assert py.ingest_ast(_nested("statement", py.MAX_DEPTH))


# ---------------------------------------------------------------------------
# print and re-parse round trip, printed by the standard library
# ---------------------------------------------------------------------------

def _reprinted(text):
    return py.parse_source(ast.unparse(ast.parse(text)))


def _strip_locations(stmts):
    """Statements with locations zeroed and marker reasons blanked, for a
    comparison that ignores layout."""
    def strip(s):
        changes = {"loc": (0, 0)}
        if hasattr(s, "reason"):
            changes["reason"] = ""
        for name in ("body", "orelse"):
            if hasattr(s, name):
                changes[name] = _strip_locations(getattr(s, name))
        return dataclasses.replace(s, **changes)
    return tuple(strip(s) for s in stmts)


def test_print_parse_round_trip_on_corpus(corpus_files):
    for path in corpus_files:
        text = path.read_text()
        stmts = py.parse_source(text)
        assert _strip_locations(_reprinted(text)) == _strip_locations(stmts), path


def test_print_parse_round_trip_expressions():
    text = ("y = (a + b) * c\n"
            "z = a + b * c\n"
            "w = a ** (b ** c)\n"
            "v = (a ** b) ** c\n"
            "u = not (p and q) or r\n"
            "t = a[i + 1]\n"
            "s = a ** b ** c\n")
    stmts = py.parse_source(text)
    assert _strip_locations(_reprinted(text)) == _strip_locations(stmts)
    a, b, c = py.Name("a"), py.Name("b"), py.Name("c")
    assert stmts[0].value == py.BinOp("*", py.BinOp("+", a, b), c)
    assert stmts[-1].value == py.BinOp("**", a, py.BinOp("**", b, c))


def test_golden_kind_histogram(corpus_files, golden_dir):
    import collections
    golden = json.loads((golden_dir / "bubble_sort_kinds.json").read_text())
    path = next(p for p in corpus_files if p.name == "bubble_sort.py")
    stmts = py.parse_source(path.read_text())

    def flatten(ss):
        for s in ss:
            yield s
            for field in ("body", "orelse"):
                yield from flatten(getattr(s, field, ()))

    hist = collections.Counter(type(s).__name__ for s in flatten(stmts))
    assert sum(hist.values()) == golden["total"]
    assert dict(hist) == golden["kinds"]
