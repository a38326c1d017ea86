"""Tests for the benchmark's own checks and generators.

    python3 -m pytest perfbench/test_checks.py

Each check must accept a right output and reject a deliberately wrong
one: a comment with one word swapped, a goal with a predicate dropped, a
changed skip reason and a missing statement.
"""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from checks import CorpusChecker, check_frontend, check_unrealizable, judge  # noqa: E402
from probe import REFERENCE_S, Sampler, adjusted  # noqa: E402
from reference import reference_statements  # noqa: E402
from run import goal_shape, shape_repeats  # noqa: E402
from workloads import FRONTEND_FAULTS, Case, FrontendGen, Names, build  # noqa: E402

IF_INEQUALITY = [
    {"loc": [1, 0], "source": "if x != y:", "goal": ["condition()", "inequality(x, y)"],
     "comment": "Checking for inequality between x and y"},
    {"loc": [2, 4], "source": "x = y", "goal": ["assign(x, y)"], "comment": "Assign y to x"},
]
MODULO = [
    {"loc": [1, 0], "source": "m = n % 2", "goal": ["assign(m, modulo(n, 2))"],
     "comment": "Assign the remainder of n and 2 to m"},
]
MIX = [
    {"loc": [1, 0], "source": "b = [e for e in a]", "goal": None, "skip_reason": "unsupported-stmt"},
    {"loc": [2, 0], "source": "c = 1", "goal": ["assign(c, 1)"], "comment": "Assign 1 to c"},
]


def jsonl(reports) -> str:
    return "".join(json.dumps(r) + "\n" for r in reports)


@pytest.fixture(scope="module")
def corpus_check():
    return CorpusChecker(ROOT)


def corpus_case(name: str) -> Case:
    return Case(f"corpus/snippets/{name}", "jsonl", True)


@pytest.mark.parametrize("name,reports", [("s02_if_inequality.py", IF_INEQUALITY),
                                          ("s16_modulo.py", MODULO),
                                          ("s19_unsupported_mix.py", MIX)])
def test_corpus_accepts_right_output(corpus_check, name, reports):
    assert corpus_check(corpus_case(name), 0, jsonl(reports)) is None


def mutate(reports, index, **changes):
    out = [dict(r) for r in reports]
    out[index].update(changes)
    return out


@pytest.mark.parametrize("name,reports,why", [
    # one word swapped: the sentence parses, but to another meaning
    ("s16_modulo.py", mutate(MODULO, 0, comment="Assign the quotient of n and 2 to m"), "re-parse"),
    ("s02_if_inequality.py", mutate(IF_INEQUALITY, 1, comment="Assign x to x"), "re-parse"),
    # a predicate dropped from the goal
    ("s02_if_inequality.py", mutate(IF_INEQUALITY, 0, goal=["inequality(x, y)"]), "reference"),
    # a changed skip reason: the counts no longer match the golden summary
    ("s19_unsupported_mix.py", mutate(MIX, 0, skip_reason="no-realization"), "golden"),
    # a missing statement
    ("s02_if_inequality.py", IF_INEQUALITY[:1], "statements reported"),
])
def test_corpus_rejects_wrong_output(corpus_check, name, reports, why):
    reason = corpus_check(corpus_case(name), 0, jsonl(reports))
    assert reason is not None and why in reason


def test_corpus_reference_matches_hand_counted_kinds():
    text = (ROOT / "corpus/bubble_sort.py").read_text()
    kinds = json.loads((ROOT / "corpus/golden/bubble_sort_kinds.json").read_text())["kinds"]
    ref = reference_statements(text)
    assert {k: sum(1 for r in ref if r["kind"] == k) for k in kinds} == kinds


def unrealizable_case(tmp_path) -> Case:
    return [c for c in build("unrealizable", 5, ROOT, tmp_path) if "def4" in c.path][0]


def unrealizable_output(case: Case) -> list[dict]:
    return [{"loc": e["loc"], "source": "", "goal": e["goal"], "skip_reason": e["skip"]}
            for e in case.expected]


def test_unrealizable_check(tmp_path):
    case = unrealizable_case(tmp_path)
    right = unrealizable_output(case)
    assert check_unrealizable(case, 2, jsonl(right)) is None
    assert "skip" in check_unrealizable(case, 2, jsonl(mutate(right, 0, skip_reason="limit-exceeded")))
    assert "goal" in check_unrealizable(case, 2, jsonl(mutate(right, 0, goal=right[0]["goal"][1:])))
    assert "expected 2" in check_unrealizable(case, 2, jsonl(right[1:]))
    commented = mutate(right, 0, comment="Define the function")
    del commented[0]["skip_reason"]
    assert "beyond the grammar" in check_unrealizable(case, 0, jsonl(commented))


def test_frontend_check(tmp_path):
    cases = build("frontend", 5, ROOT, tmp_path)
    case = next(c for c in cases if sum(1 for e in c.expected if e["goal"]) > 2)
    right = case.expected
    assert check_frontend(case, 0, jsonl(right)) is None
    i = next(i for i, e in enumerate(right) if e["goal"] and len(e["goal"]) > 1)
    assert check_frontend(case, 0, jsonl(mutate(right, i, goal=right[i]["goal"][1:]))) is not None
    assert check_frontend(case, 0, jsonl(right[:-1])) is not None


def test_judge_counts_a_crash_and_exit_1_as_failures():
    def ok(case, code, stdout):
        return None

    base = {"code": 0, "stdout": "", "stderr": "", "error": None}
    assert judge(ok, None, base) is None
    assert "raised" in judge(ok, None, {**base, "code": None, "error": "RecursionError: x"})
    assert "exited 1" in judge(ok, None, {**base, "code": 1})


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_frontend_generator_agrees_with_ast_reference(seed):
    rng = random.Random(seed)
    for size in (10, 80):
        text, expected = FrontendGen(rng, Names(rng, set())).write(size)
        assert reference_statements(text) == expected


def test_fault_files_expectations_follow_the_reference():
    for _stem, text, expected, _why in FRONTEND_FAULTS:
        assert reference_statements(text) == expected


def test_same_seed_same_inputs(tmp_path):
    a = build("frontend", 3, ROOT, tmp_path / "a")
    b = build("frontend", 3, ROOT, tmp_path / "b")
    assert [c.expected for c in a] == [c.expected for c in b]
    assert [(ROOT / c.path).read_text() for c in a] == [(ROOT / c.path).read_text() for c in b]


def test_goal_shape():
    assert goal_shape(["assign(i, plus(i, 1))"]) == goal_shape(["assign(j, plus(j, 2))"])
    assert goal_shape(["assign(i, plus(i, 1))"]) != goal_shape(["assign(i, plus(j, 1))"])
    assert shape_repeats([["loop()", "while()", "less(i, n)"], ["loop()", "while()", "less(j, m)"],
                          ["assign(x, 5)"]]) == 1


def test_adjusted_drops_inner_probes_and_scales_by_the_probes_around():
    span = {"t0": 10.0, "t1": 11.0, "c0": 5.0, "c1": 5.5}
    # two probes inside the span (0.05 s of its CPU time), one just after
    samples = [(10.2, 0.02), (10.6, 0.03), (11.5, 0.025)]
    speed = REFERENCE_S / 0.025
    assert adjusted(span, samples) == pytest.approx((0.5 - 0.05) * speed)
    # a machine twice as slow everywhere reads the same
    slow = {"t0": 10.0, "t1": 11.0, "c0": 5.0, "c1": 6.0}
    assert adjusted(slow, [(s, 2 * d) for s, d in samples]) == pytest.approx(adjusted(span, samples))


def test_sampler_probes_while_started():
    sampler = Sampler()
    sampler.start()
    end = time.perf_counter() + 0.1
    while time.perf_counter() < end:
        pass
    sampler.stop()
    assert len(sampler.samples) >= 3
    assert all(d > 0 for _, d in sampler.samples)
