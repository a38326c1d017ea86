"""Crash-safety fuzzing: the parsers may reject input only with their
declared error types, never with anything else, and the whole pipeline
reports every statement of a subset program, on the bundled lexicon and
on lexicons with planted copies of its entries."""

import copy
import io
import json
import pathlib
import random

from hypothesis import given, settings, strategies as st

from ccgcomment import pyparse as py
from ccgcomment.extract import extract
from ccgcomment.categories import CategorySyntaxError, format_category, parse_category
from ccgcomment.lexicon import LexiconError, load_bundled_lexicon, load_lexicon
from ccgcomment.pipeline import RunConfig, run
from ccgcomment.terms import TermSyntaxError, format_term, parse_term
from test_realize import planted_lexicon

source_alphabet = st.sampled_from(
    list("abxyz013 _=+-*/%<>!().[]{}:,#'\"\n\t") + ["if ", "def ", "for ", "while ",
                                                   "return", "in ", "and ", "not ", "else:"])


# one construct nested n deep: "x = not not a", "x = f(f(a))", ...
deep_source = st.builds(lambda nest, n: "x = " + nest[0] * n + "a" + nest[1] * n,
                        st.sampled_from([("not ", ""), ("a + ", ""), ("a ** ", ""),
                                         ("[", "]"), ("f(", ")"), ("a[", "]")]),
                        st.integers(0, 20 * py.MAX_DEPTH))


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.lists(source_alphabet, max_size=40).map("".join), deep_source))
def test_parse_source_total(text):
    try:
        stmts = py.parse_source(text)
    except py.SourceSyntaxError:
        return
    assert isinstance(stmts, tuple)
    extract(stmts)  # every parsed tree is bounded enough to extract


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="abx'\\.&(), ", max_size=30))
def test_parse_term_total(text):
    try:
        parse_term(text)
    except TermSyntaxError:
        pass


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="SNP/\\()[]imp ", max_size=25))
def test_parse_category_total(text):
    try:
        parse_category(text)
    except CategorySyntaxError:
        pass


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="abxyz:=\\. &()#@\nSNP/", max_size=80))
def test_load_lexicon_total(text):
    try:
        load_lexicon(text)
    except LexiconError:
        pass


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=60))
def test_ingest_ast_total(text):
    try:
        py.ingest_ast(text)
    except py.SchemaError:
        pass


CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"
CORPUS_DOCS = [json.loads(py.dump_ast(py.parse_source(p.read_text())))
               for p in sorted(CORPUS.glob("**/*.py"))]


def _slots(doc):
    """Every (container, key) place in a JSON document."""
    places, stack = [], [doc]
    while stack:
        node = stack.pop()
        items = (node.items() if isinstance(node, dict)
                 else enumerate(node) if isinstance(node, list) else ())
        for key, value in items:
            places.append((node, key))
            stack.append(value)
    return places


# every key and string of the corpus documents: kinds, fields, operators, names
_words = sorted({w for doc in CORPUS_DOCS for node, key in _slots(doc)
                 for w in (key, node[key]) if isinstance(w, str)})
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 2) | st.sampled_from(_words),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(_words), inner, max_size=3),
    max_leaves=6)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_ingest_ast_total_on_mutated_documents(data):
    """Corpus documents with values replaced by JSON scalars, lists and
    objects, or with keys deleted, ingest or raise SchemaError."""
    doc = copy.deepcopy(data.draw(st.sampled_from(CORPUS_DOCS)))
    for _ in range(data.draw(st.integers(1, 3))):
        places = _slots(doc)
        if not places:
            break
        node, key = data.draw(st.sampled_from(places))
        if isinstance(node, dict) and data.draw(st.booleans()):
            del node[key]
        else:
            node[key] = data.draw(json_values)
    try:
        assert isinstance(py.ingest_ast(json.dumps(doc)), tuple)
    except py.SchemaError:
        pass


# names that are lexicon words (`list`, `the`) or placeholder spellings
# (`_0`, `_1`) as well as plain ones
names = st.sampled_from(["a", "xs", "list", "the", "_0", "_1"])


def _call(fn, args):
    return f"{fn}({', '.join(args)})"


expressions = st.recursive(
    names | st.integers(0, 12).map(str),
    lambda inner: st.one_of(
        st.builds("({} {} {})".format, inner, st.sampled_from(["+", "-", "*", "<", "!="]), inner),
        st.builds("{}[{}]".format, names, inner),
        st.builds(_call, names, st.lists(inner, max_size=3))),
    max_leaves=4)
# each statement is (source lines, statements in them)
simple_statements = st.one_of(
    st.builds("{} = {}".format, names, expressions),
    st.builds(_call, names | st.just("print"), st.lists(expressions, max_size=3)),
).map(lambda line: ([line], 1))
headers = st.one_of(
    expressions.map("if {}:".format),
    expressions.map("while {}:".format),
    st.builds("for {} in {}:".format, names, expressions),
    st.builds(_call, names, st.lists(names, max_size=3, unique=True)).map("def {}:".format))
statements = st.recursive(
    simple_statements,
    lambda inner: st.builds(
        lambda header, body: ([header] + ["    " + line for lines, _ in body for line in lines],
                              1 + sum(n for _, n in body)),
        headers, st.lists(inner, min_size=1, max_size=2)),
    max_leaves=4)


@settings(max_examples=30, deadline=None)
@given(st.lists(statements, min_size=1, max_size=3))
def test_pipeline_total_on_subset_programs(tmp_path_factory, program):
    """Every statement of a subset program gets one report, a comment
    that re-parses to its goal or a skip reason, and the run ends in 0 or 2."""
    path = tmp_path_factory.mktemp("fuzz") / "in.py"
    path.write_text("".join(line + "\n" for lines, _ in program for line in lines))
    out, err = io.StringIO(), io.StringIO()
    code = run(RunConfig(str(path), mode="jsonl", verify=True, max_expansions=2000), out, err)
    assert code in (0, 2), err.getvalue()
    reports = [json.loads(line) for line in out.getvalue().splitlines()]
    assert len(reports) == sum(n for _, n in program)
    for report in reports:
        assert ("comment" in report) != ("skip_reason" in report), report


def _lexicon_text(lex):
    return "".join([f"roots: {', '.join(map(format_category, lex.root_cats))}\n"] + [
        f"{e.word} := {format_category(e.cat)} : {format_term(e.sem)} @weight {e.weight}\n"
        for e in lex.entries])


@settings(max_examples=25, deadline=None)
@given(st.lists(statements, min_size=1, max_size=3), st.integers(0, 2**32 - 1),
       st.sampled_from([3, 5, 8]), st.sampled_from([30, 300, 2000]))
def test_pipeline_total_on_planted_lexicons(tmp_path_factory, program, seed, max_words,
                                            max_expansions):
    """The same on the bundled lexicon with renamed copies of some of its
    entries planted (which may form classes with the originals, and come
    first in them), at budgets as tight as the realizer's oracle tests."""
    directory = tmp_path_factory.mktemp("fuzz")
    lexicon = directory / "planted.ccg"
    lexicon.write_text(_lexicon_text(planted_lexicon(random.Random(seed), load_bundled_lexicon())[0]))
    path = directory / "in.py"
    path.write_text("".join(line + "\n" for lines, _ in program for line in lines))
    out, err = io.StringIO(), io.StringIO()
    cfg = RunConfig(str(path), str(lexicon), mode="jsonl", verify=True,
                    max_words=max_words, max_expansions=max_expansions)
    assert run(cfg, out, err) in (0, 2), err.getvalue()
    reports = [json.loads(line) for line in out.getvalue().splitlines()]
    assert len(reports) == sum(n for _, n in program)
    for report in reports:
        assert ("comment" in report) != ("skip_reason" in report), report
