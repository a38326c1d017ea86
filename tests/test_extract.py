from ccgcomment import pyparse as py
from ccgcomment.extract import extract, goal_constants, goal_strings, render
from ccgcomment.realize import Goal
from ccgcomment.terms import Conj, Const, Pred, is_ground


def goals_of(text):
    return [(a.stmt, a.goal) for a in extract(py.parse_source(text))]


def the_goal(text, index=0):
    annotated = [a for a in extract(py.parse_source(text)) if a.goal is not None]
    return annotated[index].goal


def test_assign_number_extracts_assign_pred():
    goal = the_goal("x = 5")
    assert goal == Goal((Pred("assign", (Const("x"), Const("5"))),))


def test_if_inequality_matches_published_form():
    goal = the_goal("if x != y:\n    x = y\n")
    assert goal.predicates == (Pred("condition"),
                               Pred("inequality", (Const("x"), Const("y"))))


def test_list_iteration_uses_type_environment():
    goal = the_goal("a = [1]\nfor e in a:\n    print(e)\n", index=1)
    assert goal.predicates == (Pred("iterate"), Pred("element"),
                               Pred("list", (Const("a"),)))


def test_dict_iteration_uses_type_environment():
    goal = the_goal("a = {1: 2}\nfor e in a:\n    print(e)\n", index=1)
    assert goal.predicates == (Pred("iterate"), Pred("keys"),
                               Pred("dictionary", (Const("a"),)))


def test_unknown_iterable_falls_back_to_collection():
    goal = the_goal("for e in items:\n    print(e)\n")
    assert goal.predicates == (Pred("iterate"), Pred("element"),
                               Pred("collection", (Const("items"),)))


def test_range_iteration_describes_the_counter():
    goal = the_goal("for i in range(10):\n    print(i)\n")
    assert goal.predicates == (Pred("iterate"), Pred("counter", (Const("i"),)))


def test_reassignment_retags():
    # later literal assignment wins; a non-literal resets to unknown
    goal = the_goal("a = [1]\na = {1: 2}\nfor e in a:\n    print(e)\n", index=2)
    assert Pred("dictionary", (Const("a"),)) in goal.predicates
    goal = the_goal("a = [1]\na = foo()\nfor e in a:\n    print(e)\n", index=2)
    assert Pred("collection", (Const("a"),)) in goal.predicates


def test_funcdef_scope_gets_fresh_environment():
    text = "a = [1]\ndef f(a):\n    for e in a:\n        print(e)\n"
    goals = [g for _, g in goals_of(text) if g is not None]
    for_goal = goals[2]
    assert Pred("collection", (Const("a"),)) in for_goal.predicates


def test_while_and_while_true():
    goal = the_goal("while i < n:\n    i = i + 1\n")
    assert goal.predicates == (Pred("loop"), Pred("while"),
                               Pred("less", (Const("i"), Const("n"))))
    goal = the_goal("while True:\n    print(1)\n")
    assert goal.predicates == (Pred("loop"), Pred("forever"))


def test_condition_shapes():
    assert the_goal("if done:\n    x = 1\n").predicates[1] == Pred("truth", (Const("done"),))
    assert the_goal("if not done:\n    x = 1\n").predicates[1] == Pred("falsity", (Const("done"),))
    both = the_goal("if x < y and y < z:\n    x = 1\n").predicates[1]
    assert both == Pred("both", (Pred("less", (Const("x"), Const("y"))),
                                 Pred("less", (Const("y"), Const("z")))))
    either = the_goal("if x < y or y < z:\n    x = 1\n").predicates[1]
    assert either.name == "either"


def test_funcdef_call_return_io_goals():
    text = (
        "def add(p, q):\n"
        "    return p + q\n"
        "add(1, 2)\n"
        "print(x)\n"
        "name = input()\n"
        "def zero():\n"
        "    return\n"
        "zero()\n"
    )
    goals = [g for _, g in goals_of(text) if g is not None]
    assert goals[0].predicates == (Pred("define"), Pred("function", (Const("add"),)),
                                   Pred("parameters", (Const("p"), Const("q"))))
    assert goals[1].predicates == (Pred("return"),
                                   Pred("value", (Pred("plus", (Const("p"), Const("q"))),)))
    assert goals[2].predicates == (Pred("call"), Pred("function", (Const("add"),)),
                                   Pred("arguments", (Const("1"), Const("2"))))
    assert goals[3].predicates == (Pred("output"), Pred("value", (Const("x"),)))
    assert goals[4].predicates == (Pred("input"), Pred("target", (Const("name"),)))
    assert goals[5].predicates == (Pred("define"), Pred("function", (Const("zero"),)))
    assert goals[6].predicates == (Pred("return"),)
    assert goals[7].predicates == (Pred("call"), Pred("function", (Const("zero"),)))


def test_goal_constants_in_first_seen_order():
    assert goal_constants(the_goal("x = y + x")) == ["x", "y"]
    assert goal_constants(the_goal("def f(a, b):\n    pass\n")) == ["f", "a", "b"]
    # extract never puts a conjunction under a predicate, but a constant
    # there is still mentioned in the goal
    nested = Conj(Pred("list", (Const("a"),)), Pred("list", (Const("b"),)))
    goal = Goal((Pred("assign", (Const("x"),)), Pred("value", (nested,))))
    assert goal_constants(goal) == ["x", "a", "b"]


def test_augassign_expands_to_assignment():
    goal = the_goal("i += 1")
    assert goal == Goal((Pred("assign", (Const("i"),
                                         Pred("plus", (Const("i"), Const("1"))))),))


def test_unsupported_statements_pass_through_without_goal():
    annotated = extract(py.parse_source("import os\nx = 1\n"))
    assert annotated[0].goal is None
    assert isinstance(annotated[0].stmt, py.Unsupported)
    assert annotated[1].goal is not None


# ---------------------------------------------------------------------------
# render
# ---------------------------------------------------------------------------

def test_render_atoms():
    assert render(py.Name("x")) == Const("x")
    assert render(py.NumLit(5)) == Const("5")
    assert render(py.StrLit("hi")) == Pred("string")
    assert render(py.ListLit(())) == Pred("list")
    assert render(py.DictLit(())) == Pred("dictionary")


def test_render_compound_golden():
    # golden expected forms, written by hand
    cases = [
        (py.BinOp("+", py.Name("i"), py.NumLit(1)),
         Pred("plus", (Const("i"), Const("1")))),
        (py.BinOp("%", py.Name("n"), py.NumLit(2)),
         Pred("modulo", (Const("n"), Const("2")))),
        (py.Index(py.Name("a"), py.Name("i")),
         Pred("index", (Const("a"), Const("i")))),
        (py.Call(py.Name("f"), (py.Name("x"),)),
         Pred("call_result", (Const("f"), Const("x")))),
        (py.Compare("<=", py.Name("x"), py.Name("y")),
         Pred("at_most", (Const("x"), Const("y")))),
        (py.BinOp("**", py.Name("x"), py.NumLit(2)),
         Pred("power", (Const("x"), Const("2")))),
    ]
    for expr, expected in cases:
        assert render(expr) == expected


# ---------------------------------------------------------------------------
# whole-corpus invariants
# ---------------------------------------------------------------------------

def test_goals_are_ground_across_corpus(corpus_files):
    for path in corpus_files:
        for item in extract(py.parse_source(path.read_text())):
            if item.goal is None:
                continue
            for p in item.goal.predicates:
                assert is_ground(p), (path, goal_strings(item.goal))


def test_goal_identifiers_come_from_the_source(corpus_files):
    import re
    for path in corpus_files:
        text = path.read_text()
        source_tokens = set(re.findall(r"[A-Za-z_0-9]+", text))
        for item in extract(py.parse_source(text)):
            if item.goal is None:
                continue
            for name in goal_constants(item.goal):
                assert name in source_tokens, (path, name)


def test_extraction_is_deterministic(corpus_files):
    for path in corpus_files:
        stmts = py.parse_source(path.read_text())
        first = [a.goal for a in extract(stmts)]
        second = [a.goal for a in extract(stmts)]
        assert first == second
