"""End-to-end pipeline: source file in, comments out.

Modes:
  annotate     original source with `# <comment>` inserted above each
               commented statement (all other bytes preserved)
  jsonl        one report object per statement
  emit-lf      one {loc, kind, goal} object per statement
  parse-debug  treat the input as one space-tokenized sentence per line
               and print its derivations

Exit status: 0 when at least one comment was produced, 2 when none was,
1 on errors (unreadable or non-UTF-8 input, bad lexicon, annotate of a
.json input, or a --verify failure).
"""

from __future__ import annotations

import json
import re
import sys
from collections import Counter
from dataclasses import dataclass

from . import pyparse as py
from .chart import UnknownWord, format_derivation, parse as chart_parse
from .extract import AnnotatedStmt, extract, goal_constants, goal_strings
from .lexicon import (
    Lexicon,
    LexiconError,
    extend_with_identifiers,
    load_bundled_lexicon,
    load_lexicon,
    placeholder_lexicon,
)
from .postprocess import finalize
from .realize import Goal, LimitExceeded, NoRealization, SearchLimits, realize_all
from .categories import CategorySyntaxError, parse_category
from .terms import Const, Term, equivalent, rename_constants, subterms

MODES = ("annotate", "jsonl", "emit-lf", "parse-debug")

SKIP_UNSUPPORTED = "unsupported-stmt"
SKIP_NO_REALIZATION = "no-realization"
SKIP_LIMIT = "limit-exceeded"


@dataclass
class RunConfig:
    input_path: str
    lexicon_path: str | None = None
    mode: str = "annotate"
    roots: str | None = None
    max_words: int = 12
    max_expansions: int = 200_000
    variants: int = 1
    verify: bool = False


@dataclass(frozen=True)
class StmtReport:
    loc: tuple[int, int]
    source: str
    goal: list[str] | None
    comment: str | None = None
    skip_reason: str | None = None
    # every comment found, best first, when more than one was asked for
    variants: tuple[str, ...] | None = None

    def to_json(self) -> dict:
        doc = {"loc": list(self.loc), "source": self.source, "goal": self.goal}
        if self.comment is not None:
            doc["comment"] = self.comment
            if self.variants is not None:
                doc["variants"] = list(self.variants)
        else:
            doc["skip_reason"] = self.skip_reason
        return doc


@dataclass(frozen=True)
class StmtResult:
    report: StmtReport
    variants: tuple  # finalized variant strings, best first
    tokens: tuple[str, ...] | None
    goal: Goal | None


class VerifyFailure(Exception):
    pass


def _source_line(lines: list[str], loc: tuple[int, int]) -> str:
    line = loc[0]
    if 1 <= line <= len(lines):
        return lines[line - 1].strip()
    return ""


def process_statements(lex: Lexicon, annotated: list[AnnotatedStmt],
                       lines: list[str], cfg: RunConfig) -> list[StmtResult]:
    limits = SearchLimits(cfg.max_words, cfg.max_expansions)
    results: list[StmtResult] = []
    for item in annotated:
        loc = item.stmt.loc
        source = _source_line(lines, loc)
        if item.goal is None:
            report = StmtReport(loc, source, None, skip_reason=SKIP_UNSUPPORTED)
            results.append(StmtResult(report, (), None, None))
            continue
        goal_text = goal_strings(item.goal)
        scoped = extend_with_identifiers(lex, goal_constants(item.goal))
        try:
            realizations = realize_all(scoped, item.goal, cfg.variants, limits)
        except (NoRealization, LimitExceeded) as exc:
            reason = SKIP_LIMIT if isinstance(exc, LimitExceeded) else SKIP_NO_REALIZATION
            report = StmtReport(loc, source, goal_text, skip_reason=reason)
            results.append(StmtResult(report, (), None, item.goal))
            continue
        variants = tuple(finalize(r.tokens).text for r in realizations)
        report = StmtReport(loc, source, goal_text, comment=variants[0],
                            variants=variants if cfg.variants > 1 else None)
        if cfg.verify:
            for r in realizations:
                _verify(scoped, r.tokens, item.goal, loc)
        results.append(StmtResult(report, variants, realizations[0].tokens, item.goal))
    return results


_PLACEHOLDER = re.compile(r"_\d+\Z")


class _Readings:
    """What `_verify` keeps on a base lexicon: the words and constants of
    its entries, and the root readings of each comment shape (see
    `_verify`) of it and of the lexicons `extend_with_identifiers` made
    from it."""

    def __init__(self, base: Lexicon):
        self.taken = {e.word for e in base.entries} | {
            t.name for e in base.entries for t in subterms(e.sem) if isinstance(t, Const)}
        self.clash = any(map(_PLACEHOLDER.match, self.taken))
        self.shapes: dict[tuple[str, ...], tuple[Term, ...]] = {}


def _verify(lex: Lexicon, tokens, goal: Goal, loc):
    """Re-parse the emitted tokens and require a goal-equivalent reading.

    A comment is parsed in its shape: its tokens with each identifier of
    `lex` renamed to `_0`, `_1`, ... in order of first use, on the base's
    lexicon of that many placeholders (`placeholder_lexicon`).  The base
    (`lex.base or lex`) keeps each shape's root readings, and every call,
    hit or miss, renames its own goal the same way and needs a reading
    equivalent to it.  Only the parse is shared: a shape is parsed once,
    and the placeholder lexicon keeps the cell of each word span, so a
    span that an earlier shape of the same count parsed is not combined
    again.  Each comment is still checked against its own goal.

    Sharing is sound when the renaming is fresh: no identifier of `lex`
    is a word or a constant of the base, and no identifier, token, word
    or constant of the base is spelled `_<digits>`.  An identifier's only
    entry is then `name := NP : name`, every other token is a word of the
    base or unknown, and the constants of readings and goal are renamed
    one to one.  The chart compares constants only for equality, so the
    chart of the shape on the placeholder lexicon is the chart of the
    tokens on `lex`, renamed.  A comment whose renaming is not fresh is
    parsed on `lex` as it is, and its readings are kept nowhere.
    """
    base = lex.base or lex
    kept = base.table(_Readings)
    ids = set(lex.identifiers)
    fresh = not (kept.clash or ids & kept.taken or any(map(_PLACEHOLDER.match, ids.union(tokens))))
    to = {}
    if fresh:
        to = {n: f"_{i}" for i, n in enumerate(dict.fromkeys(t for t in tokens if t in ids))}
    shape = tuple(to.get(t, t) for t in tokens)
    readings = kept.shapes.get(shape) if fresh else None
    if readings is None:
        try:
            derivations = (chart_parse(placeholder_lexicon(base, len(to)), shape) if fresh
                           else chart_parse(lex, tokens))
        except UnknownWord as exc:
            raise VerifyFailure(f"{loc[0]}:{loc[1]}: {exc}") from exc
        readings = tuple(d.sem for d in derivations)
        if fresh:
            kept.shapes[shape] = readings
    goal_term = rename_constants(goal.as_term(), to)
    if not any(equivalent(r, goal_term) for r in readings):
        raise VerifyFailure(
            f"{loc[0]}:{loc[1]}: comment {' '.join(tokens)!r} does not re-parse to its goal")


def report_coverage(reports: list[StmtReport], stream=None) -> dict:
    """Count totals and print a one-line summary to `stream` (stderr)."""
    stream = stream if stream is not None else sys.stderr
    reasons = Counter(r.skip_reason for r in reports)
    skips = {s: reasons[s] for s in (SKIP_UNSUPPORTED, SKIP_NO_REALIZATION, SKIP_LIMIT)}
    counts = {
        "total": len(reports),
        "supported": len(reports) - skips[SKIP_UNSUPPORTED],
        "commented": sum(1 for r in reports if r.comment is not None),
        "skipped": skips,
    }
    print(
        f"coverage: {counts['commented']}/{counts['supported']} supported statements"
        f" commented ({counts['total']} total;"
        f" {skips[SKIP_UNSUPPORTED]} unsupported,"
        f" {skips[SKIP_NO_REALIZATION]} no-realization,"
        f" {skips[SKIP_LIMIT]} limit-exceeded)",
        file=stream,
    )
    return counts


def _load_lexicon_for(cfg: RunConfig) -> Lexicon:
    if cfg.lexicon_path is None:
        lex = load_bundled_lexicon()
    else:
        with open(cfg.lexicon_path, "r", encoding="utf-8") as fh:
            lex = load_lexicon(fh)
    if cfg.roots:
        roots = tuple(parse_category(p.strip()) for p in cfg.roots.split(","))
        lex = Lexicon(lex.entries, roots)
    return lex


def _annotate_output(lines: list[str], results: list[StmtResult]) -> str:
    inserts: dict[int, list[str]] = {}
    for res in results:
        if not res.variants:
            continue
        line_no, _ = res.report.loc
        raw = lines[line_no - 1] if 1 <= line_no <= len(lines) else ""
        indent = raw[:len(raw) - len(raw.lstrip(" "))]
        # each comment line ends as its statement's line does
        end = raw[len(raw.rstrip("\r\n")):] or "\n"
        inserts.setdefault(line_no, []).extend(
            f"{indent}# {v}{end}" for v in res.variants)
    out: list[str] = []
    for i, line in enumerate(lines, start=1):
        out.extend(inserts.get(i, ()))
        out.append(line)
    return "".join(out)


def _run_parse_debug(lex: Lexicon, text: str, stdout) -> int:
    any_parse = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if not tokens:
            continue
        print(f"% {' '.join(tokens)}", file=stdout)
        try:
            derivations = chart_parse(lex, tokens)
        except UnknownWord as exc:
            print(f"  unknown word: {exc}", file=stdout)
            continue
        if not derivations:
            print("  no parse", file=stdout)
            continue
        any_parse = True
        for d in derivations:
            print(format_derivation(d, 1), file=stdout)
    return 0 if any_parse else 2


def run(cfg: RunConfig, stdout=None, stderr=None) -> int:
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    if cfg.mode not in MODES:
        print(f"error: unknown mode {cfg.mode!r}", file=stderr)
        return 1
    if cfg.variants < 1 or cfg.max_words < 1 or cfg.max_expansions < 1:
        print("error: limits and variant count must be positive", file=stderr)
        return 1
    from_json = cfg.input_path.endswith(".json")
    if from_json and cfg.mode == "annotate":
        print("error: annotate needs Python source; a .json input has none", file=stderr)
        return 1
    lex = None
    if cfg.mode != "emit-lf":  # the only mode that never reads the lexicon
        try:
            lex = _load_lexicon_for(cfg)
        except (OSError, UnicodeDecodeError, LexiconError, CategorySyntaxError) as exc:
            print(f"error: lexicon: {exc}", file=stderr)
            return 1
    try:
        # newline="" keeps \r\n and \r, which annotate copies through
        with open(cfg.input_path, encoding="utf-8", newline="") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: {exc}", file=stderr)
        return 1
    except UnicodeDecodeError as exc:
        print(f"error: {cfg.input_path}: {exc}", file=stderr)
        return 1
    # a leading byte-order mark is not part of the text; annotate keeps it
    bom = "\ufeff" if text.startswith("\ufeff") else ""
    text = text[len(bom):]

    if cfg.mode == "parse-debug":
        return _run_parse_debug(lex, text, stdout)

    if from_json:
        try:
            stmts = py.ingest_ast(text)
        except py.SchemaError as exc:
            print(f"error: {cfg.input_path}: {exc}", file=stderr)
            return 1
    else:
        try:
            stmts = py.parse_source(text)
        except py.SourceSyntaxError as exc:
            print(f"error: {cfg.input_path}: {exc}", file=stderr)
            return 1
    annotated = extract(stmts)

    if cfg.mode == "emit-lf":
        for item in annotated:
            doc = {"loc": list(item.stmt.loc), "kind": type(item.stmt).__name__,
                   "goal": goal_strings(item.goal) if item.goal else None}
            print(json.dumps(doc), file=stdout)
        return 0 if any(a.goal for a in annotated) else 2

    # a JSON document holds no source lines, so its reports quote none
    lines = [] if from_json else py.source_lines(text)

    try:
        results = process_statements(lex, annotated, lines, cfg)
    except VerifyFailure as exc:
        print(f"error: verification failed: {exc}", file=stderr)
        return 1
    reports = [r.report for r in results]

    if cfg.mode == "jsonl":
        for report in reports:
            print(json.dumps(report.to_json()), file=stdout)
    else:
        stdout.write(bom + _annotate_output(lines, results))
    report_coverage(reports, stderr)
    commented = sum(1 for r in reports if r.comment is not None)
    return 0 if commented > 0 else 2
