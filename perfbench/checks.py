"""Correctness checks for one `run()` output, per workload.

Each check returns None when the output is right and otherwise a short
reason.  None of them compares against a saved copy of the program's
own output:

- corpus: goals must equal the `ast`-based reference (reference.py);
  each comment must re-parse through `chart.parse`, under the bundled
  lexicon scoped to the goal's identifiers, to a reading `equivalent`
  to its goal; per-file counts must equal the hand-audited
  corpus/golden/summary.json.
- unrealizable: every statement has the goal the generator recorded,
  no comment, and the declared skip.
- frontend: the emit-lf output equals the generator's record.
"""

from __future__ import annotations

import json
from pathlib import Path

from reference import reference_statements

SKIPS = ("unsupported-stmt", "no-realization", "limit-exceeded")


def _reports(stdout: str):
    try:
        return [json.loads(line) for line in stdout.splitlines()], None
    except json.JSONDecodeError as exc:
        return None, f"output is not JSON lines: {exc}"


def _exit_code_for(reports) -> int:
    return 0 if any(r.get("goal") is not None and "comment" in r for r in reports) else 2


class CorpusChecker:
    def __init__(self, root: Path):
        from ccgcomment.lexicon import load_bundled_lexicon

        self.root = root
        self.lexicon = load_bundled_lexicon()
        self.golden = json.loads((root / "corpus/golden/summary.json").read_text("utf-8"))["files"]

    def comment_means_goal(self, comment: str, goal: list[str]) -> bool:
        from ccgcomment.chart import UnknownWord, parse
        from ccgcomment.lexicon import extend_with_identifiers
        from ccgcomment.terms import Const, Pred, conj_of, equivalent, parse_term

        preds = [parse_term(p) for p in goal]
        names: dict[str, None] = {}

        def visit(t):
            if isinstance(t, Const):
                names.setdefault(t.name)
            elif isinstance(t, Pred):
                for a in t.args:
                    visit(a)

        for p in preds:
            visit(p)
        tokens = comment.split(" ")
        tokens[0] = tokens[0][:1].lower() + tokens[0][1:]
        scoped = extend_with_identifiers(self.lexicon, list(names))
        try:
            derivations = parse(scoped, tokens)
        except UnknownWord:
            return False
        target = conj_of(preds)
        return any(equivalent(d.sem, target) for d in derivations)

    def __call__(self, case, code: int, stdout: str) -> str | None:
        reports, err = _reports(stdout)
        if err:
            return err
        text = (self.root / case.path).read_text("utf-8")
        lines = text.splitlines()
        ref = reference_statements(text)
        if len(reports) != len(ref):
            return f"{len(reports)} statements reported, reference has {len(ref)}"
        for r, e in zip(reports, ref):
            where = f"{case.path}:{e['loc'][0]}:{e['loc'][1]}"
            if r.get("loc") != e["loc"]:
                return f"{where}: reported at {r.get('loc')}"
            if r.get("goal") != e["goal"]:
                return f"{where}: goal {r.get('goal')} != reference {e['goal']}"
            if r.get("source") != lines[e["loc"][0] - 1].strip():
                return f"{where}: wrong source text {r.get('source')!r}"
            if "comment" in r:
                if e["goal"] is None:
                    return f"{where}: comment on an unsupported statement"
                if not self.comment_means_goal(r["comment"], e["goal"]):
                    return f"{where}: comment {r['comment']!r} does not re-parse to its goal"
            elif r.get("skip_reason") not in SKIPS:
                return f"{where}: neither comment nor known skip"
        counts = {
            "total": len(reports),
            "supported": sum(1 for r in reports if r.get("skip_reason") != "unsupported-stmt"),
            "commented": sum(1 for r in reports if "comment" in r),
            "skipped": {s: sum(1 for r in reports if r.get("skip_reason") == s) for s in SKIPS},
        }
        golden = self.golden.get(str(Path(case.path).relative_to("corpus")))
        if counts != golden:
            return f"{case.path}: counts {counts} != golden {golden}"
        if code != _exit_code_for(reports):
            return f"{case.path}: exit code {code}"
        return None


def check_unrealizable(case, code: int, stdout: str) -> str | None:
    reports, err = _reports(stdout)
    if err:
        return err
    if len(reports) != len(case.expected):
        return f"{len(reports)} statements reported, expected {len(case.expected)}"
    for r, e in zip(reports, case.expected):
        where = f"{case.path}:{e['loc'][0]}:{e['loc'][1]}"
        if r.get("loc") != e["loc"] or r.get("goal") != e["goal"]:
            return f"{where}: got loc {r.get('loc')} goal {r.get('goal')}, expected {e['goal']}"
        if "comment" in r:
            return f"{where}: commented {r['comment']!r} beyond the grammar"
        if r.get("skip_reason") != e["skip"]:
            return f"{where}: skip {r.get('skip_reason')!r}, declared {e['skip']!r}"
    if code != 2:
        return f"{case.path}: exit code {code}, expected 2 (no comment)"
    return None


def check_frontend(case, code: int, stdout: str) -> str | None:
    reports, err = _reports(stdout)
    if err:
        return err
    if len(reports) != len(case.expected):
        return f"{len(reports)} statements emitted, expected {len(case.expected)}"
    for r, e in zip(reports, case.expected):
        if r != e:
            return f"{case.path}: emitted {r}, expected {e}"
    if code != (0 if any(e["goal"] for e in case.expected) else 2):
        return f"{case.path}: exit code {code}"
    return None


def checker_for(workload: str, root: Path):
    if workload == "corpus":
        return CorpusChecker(root)
    return {"unrealizable": check_unrealizable, "frontend": check_frontend}[workload]


def judge(check, case, result: dict) -> str | None:
    """None for a good operation, else why it failed."""
    if result["error"] is not None:
        return f"run() raised {result['error']}"
    if result["code"] == 1:
        return f"run() exited 1: {result['stderr'].strip()}"
    return check(case, result["code"], result["stdout"])
