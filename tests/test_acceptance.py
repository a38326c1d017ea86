"""Acceptance suite.

Each test covers one acceptance criterion at its stated tolerance and
prints a single pass/fail line (run with -s to see them all).
"""

import io
import json
import random
import time

from ccgcomment import pyparse as py
from ccgcomment.categories import Atom
from ccgcomment.chart import format_derivation, parse as chart_parse
from ccgcomment.extract import extract, goal_constants
from ccgcomment.lexicon import extend_with_identifiers, load_bundled_lexicon, load_lexicon
from ccgcomment.pipeline import RunConfig, process_statements, run
from ccgcomment.postprocess import finalize
from ccgcomment.realize import Goal, LimitExceeded, NoRealization, SearchLimits, realize, realize_all
from ccgcomment.terms import Const, Pred, equivalent

from test_chart import bracketing_parses, result_set
from test_realize import _achievable_goals, _random_lexicon, dp_min_cost


def report(name, ok, detail=""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}{' — ' + detail if detail else ''}")
    assert ok, f"{name}: {detail}"


TABLE1 = [
    # (source, statement index, logical forms, comment)
    ("if x != y:\n    x = y\n", 0,
     ["condition()", "inequality(x, y)"],
     "Checking for inequality between x and y"),
    ("a = [1]\nfor e in a:\n    x = e\n", 1,
     ["iterate()", "element()", "list(a)"],
     "Iterate over elements of the list a"),
    ("a = {1: 2}\nfor e in a:\n    x = e\n", 1,
     ["iterate()", "keys()", "dictionary(a)"],
     "Iterate over the keys of the dictionary a"),
]


def test_criterion_1_table1_reproduction(english):
    start = time.perf_counter()
    from ccgcomment.terms import format_term
    for source, index, forms, expected in TABLE1:
        annotated = extract(py.parse_source(source))
        goal = annotated[index].goal
        assert goal is not None
        assert [format_term(p) for p in goal.predicates] == forms, source
        scoped = extend_with_identifiers(english, goal_constants(goal))
        r = realize(scoped, goal)
        comment = finalize(r.tokens).text
        assert comment == expected, (comment, expected)
    elapsed = time.perf_counter() - start
    report("C1 Table-1 reproduction (3 exact logical forms + comments)",
           elapsed < 1.0, f"{elapsed:.2f}s")


def test_criterion_2_fig1_semantics(sort_lexicon):
    start = time.perf_counter()
    ders = chart_parse(sort_lexicon, ["sort", "the", "array"])
    ok = (len(ders) == 1
          and ders[0].cat == Atom("VP")
          and ders[0].sem == Pred("sort'", (Const("array'"),)))
    elapsed = time.perf_counter() - start
    report("C2 sort/array composition is exactly sort'(array') at VP",
           ok and elapsed < 1.0, f"{elapsed:.2f}s")


def test_criterion_3_assign_extraction():
    annotated = extract(py.parse_source("x = 5"))
    goal = annotated[0].goal
    ok = goal is not None and goal.predicates == (
        Pred("assign", (Const("x"), Const("5"))),)
    report("C3 `x = 5` extracts exactly {assign(x, 5)}", ok)


def test_criterion_4_roundtrip_soundness(english, corpus_files):
    supported = 0
    emitted = 0
    round_tripped = 0
    for path in corpus_files:
        text = path.read_text()
        annotated = extract(py.parse_source(text))
        cfg = RunConfig(str(path))
        results = process_statements(english, annotated, text.splitlines(), cfg)
        for res in results:
            if res.report.skip_reason == "unsupported-stmt":
                continue
            supported += 1
            if res.tokens is None:
                continue
            emitted += 1
            scoped = extend_with_identifiers(english, goal_constants(res.goal))
            ders = chart_parse(scoped, res.tokens)
            goal_term = res.goal.as_term()
            if any(equivalent(d.sem, goal_term) for d in ders):
                round_tripped += 1
    ok = supported >= 60 and emitted > 0 and round_tripped == emitted
    report("C4 corpus round-trip soundness",
           ok, f"{round_tripped}/{emitted} comments re-parse; {supported} supported stmts")


def test_criterion_5_astar_optimality_oracle():
    start = time.perf_counter()
    rng = random.Random(0xACCE55)
    instances = 0
    while instances < 50:
        lex = _random_lexicon(rng)
        goals = _achievable_goals(lex, 5)
        if not goals:
            continue
        goal = Goal(rng.choice(goals))
        oracle = dp_min_cost(lex, goal, 8)
        assert oracle is not None
        r = realize(lex, goal, SearchLimits(max_words=8, max_expansions=300_000))
        assert r.cost == oracle, (lex.entries, goal)
        instances += 1
    elapsed = time.perf_counter() - start
    report("C5 A* cost equals brute-force minimum on 50 random instances",
           elapsed < 60.0, f"{elapsed:.1f}s")


def test_criterion_6_parser_equivalence_oracle(sort_lexicon):
    start = time.perf_counter()
    mixed = load_lexicon(
        "roots: S\n"
        "s := S/VP : \\p. s'(p)\n"
        "v := VP/NP : \\x. v'(x)\n"
        "d := NP/N : \\x. x\n"
        "n := N : n'\n"
        "m := N\\N : \\x. m'(x)\n"
        "p := NP : p'\n"
        "r := S\\S : \\x. r'(x)\n"
    )
    rng = random.Random(0xBEEF)
    checked = 0
    for lex in (sort_lexicon, mixed):
        words = sorted({e.word for e in lex.entries})
        for _ in range(150):
            length = rng.randint(1, 6)
            tokens = [rng.choice(words) for _ in range(length)]
            chart = result_set(chart_parse(lex, tokens))
            brute = result_set(bracketing_parses(lex, tokens), lex.root_cats)
            assert chart == brute, tokens
            checked += 1
    elapsed = time.perf_counter() - start
    report("C6 chart parser equals exhaustive bracketing enumeration",
           elapsed < 30.0, f"{checked} sequences, {elapsed:.1f}s")


def _run_pipeline_bytes(path):
    from ccgcomment.pipeline import run
    out, err = io.StringIO(), io.StringIO()
    for mode in ("annotate", "jsonl"):
        code = run(RunConfig(str(path), mode=mode, verify=True), out, err)
        assert code == 0, path
    return out.getvalue() + "\x00" + err.getvalue()


def test_criterion_7_determinism(corpus_files):
    sample = [p for p in corpus_files if p.name in (
        "bubble_sort.py", "s03_for_list.py", "s08_io.py", "s19_unsupported_mix.py")]
    assert len(sample) == 4
    ok = True
    for path in sample:
        if _run_pipeline_bytes(path) != _run_pipeline_bytes(path):
            ok = False
    report("C7 two pipeline runs produce byte-identical output", ok)


def test_criterion_8_coverage(english, corpus_files, golden_dir):
    supported = commented = total = 0
    per_file = {}
    comments = {}
    for path in corpus_files:
        text = path.read_text()
        annotated = extract(py.parse_source(text))
        results = process_statements(english, annotated, text.splitlines(),
                                     RunConfig(str(path)))
        reports = [r.report for r in results]
        counts = {
            "total": len(reports),
            "supported": sum(1 for r in reports if r.skip_reason != "unsupported-stmt"),
            "commented": sum(1 for r in reports if r.comment is not None),
        }
        rel = str(path.relative_to(golden_dir.parent))
        per_file[rel] = counts
        comments[rel] = [{"comment": r.comment} if r.comment is not None
                         else {"skip_reason": r.skip_reason} for r in reports]
        total += counts["total"]
        supported += counts["supported"]
        commented += counts["commented"]
    golden = json.loads((golden_dir / "summary.json").read_text())
    assert golden["totals"] == {"total": total, "supported": supported,
                                "commented": commented}
    for rel, counts in per_file.items():
        frozen = golden["files"][rel]
        assert frozen["total"] == counts["total"], rel
        assert frozen["supported"] == counts["supported"], rel
        assert frozen["commented"] == counts["commented"], rel
    # every statement's comment or skip reason, in order, byte for byte
    frozen_comments = json.loads((golden_dir / "comments.json").read_text("utf-8"))
    assert frozen_comments["files"].keys() == comments.keys()
    for rel, stmts in comments.items():
        assert frozen_comments["files"][rel] == stmts, rel
    ratio = commented / supported
    report("C8 coverage of supported statements",
           ratio >= 0.8, f"{commented}/{supported} = {ratio:.0%} (golden summary and comments match)")


def test_criterion_8_variants_golden(corpus_files, golden_dir):
    # k > 1 keeps searching past the first result, and every symbol class
    # of the bundled lexicon is spelled back in some file; the golden is
    # each file's output in turn
    golden = (golden_dir / "variants3.jsonl").read_text("utf-8").splitlines(keepends=True)
    differ = []
    for path in corpus_files:
        out = io.StringIO()
        assert run(RunConfig(str(path), mode="jsonl", variants=3), out, io.StringIO()) == 0, path
        lines = out.getvalue().splitlines(keepends=True)
        if lines != golden[:len(lines)]:
            differ.append(path.name)
        golden = golden[len(lines):]
    report("C8 the corpus at --variants 3 matches its golden", not differ and not golden,
           f"differ: {differ}, {len(golden)} golden lines left over")


def corpus_derivations(corpus_files) -> str:
    """Each distinct realization of the corpus at --variants 3, in order
    of first appearance, as `% <tokens>` and then every chart reading of
    it on its statement's scoped lexicon, printed by `format_derivation`."""
    lex = load_bundled_lexicon()
    seen = set()
    out = []
    for path in corpus_files:
        for item in extract(py.parse_source(path.read_text("utf-8"))):
            if item.goal is None:
                continue
            scoped = extend_with_identifiers(lex, goal_constants(item.goal))
            try:
                realizations = realize_all(scoped, item.goal, 3, SearchLimits())
            except (NoRealization, LimitExceeded):
                continue
            for r in realizations:
                if r.tokens not in seen:
                    seen.add(r.tokens)
                    out.append(f"% {' '.join(r.tokens)}")
                    out.extend(format_derivation(d, 1) for d in chart_parse(scoped, r.tokens))
    return "\n".join(out) + "\n"


def test_criterion_8_derivations_golden(corpus_files, golden_dir):
    # corpus goals are ground, but the derivations that build them print
    # abstractions, applications and nested conjunctions: this golden
    # pins the printer and the bound names the normalizer picks
    golden = (golden_dir / "derivations.txt").read_text("utf-8")
    made = corpus_derivations(corpus_files)
    report("C8 the corpus derivations at --variants 3 match their golden", made == golden,
           f"{made.count(chr(10))} lines made, {golden.count(chr(10))} in the golden")
