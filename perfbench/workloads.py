"""The benchmark's workloads: their input files and expected outcomes.

Every workload is a list of `Case`s, one per input file.  A case carries
the `run()` settings and, for generated files, the outcome the generator
recorded for every statement it wrote: `loc`, `kind` and goal as given by
docs/logical_forms.md (None for unsupported syntax), and the skip the
README's "Limits and skips" declares.  The program sees only the files.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from pathlib import Path

from reference import pred

WORKLOADS = ("corpus", "unrealizable", "frontend")

NO_REALIZATION = "no-realization"
UNSUPPORTED = "unsupported-stmt"


@dataclass
class Case:
    path: str  # relative to the checkout root
    mode: str
    verify: bool
    # generated files only: one {loc, kind, goal[, skip]} dict per statement
    expected: list[dict] | None = None
    # a fault of the program that makes run() exit 1 on this file
    known_fault: str | None = None


def _lexicon_words(root: Path) -> set[str]:
    text = (root / "src/ccgcomment/lexicons/english.ccg").read_text("utf-8")
    return {line.split(":=", 1)[0].strip() for line in text.splitlines() if ":=" in line}


class Names:
    """Seeded pool of identifiers that are neither lexicon words nor keywords."""

    _CONS = "bdfghklmnprstvz"
    _VOWELS = "aeiou"

    def __init__(self, rng: random.Random, avoid: set[str]):
        self.rng = rng
        self.used = set(avoid)

    def fresh(self) -> str:
        while True:
            n = self.rng.choice((2, 2, 3))
            name = "".join(self.rng.choice(self._CONS) + self.rng.choice(self._VOWELS)
                           for _ in range(n))
            if name not in self.used:
                self.used.add(name)
                return name


# ---------------------------------------------------------------- corpus

def corpus_cases(root: Path) -> list[Case]:
    files = sorted((root / "corpus").glob("*.py")) + sorted((root / "corpus/snippets").glob("*.py"))
    return [Case(str(f.relative_to(root)), "jsonl", True) for f in files]


# ---------------------------------------------------------- unrealizable

def unrealizable_sources(rng: random.Random, names: Names) -> list[tuple[str, str, list[dict]]]:
    """(file stem, source, expected) for each kind beyond the grammar.

    Each file holds one statement (a `def` also needs its `pass` body),
    and no two goals share a shape.  Five files, so that the median file
    is one of the two ~8 s proofs rather than a mean of a short and a
    long one.  `x = f(a, b, c)` is left out: it
    spends the whole expansion budget (tens of seconds) and reports
    limit-exceeded, which does not fit one steady run.
    """
    n = names.fresh
    out = []

    f, a, b, c, d = n(), n(), n(), n(), n()
    out.append(("def4", f"def {f}({a}, {b}, {c}, {d}):\n    pass\n", [
        {"loc": [1, 0], "goal": [pred("define"), pred("function", f), pred("parameters", a, b, c, d)],
         "skip": NO_REALIZATION},
        {"loc": [2, 4], "goal": None, "skip": UNSUPPORTED}]))

    f, a, b, c, d = n(), n(), n(), n(), n()
    out.append(("call4", f"{f}({a}, {b}, {c}, {d})\n", [
        {"loc": [1, 0], "goal": [pred("call"), pred("function", f), pred("arguments", a, b, c, d)],
         "skip": NO_REALIZATION}]))

    g, a, b, c = n(), n(), n(), n()
    out.append(("return_call3", f"return {g}({a}, {b}, {c})\n", [
        {"loc": [1, 0], "goal": [pred("return"), pred("value", pred("call_result", g, a, b, c))],
         "skip": NO_REALIZATION}]))

    a, b, c = n(), n(), n()
    out.append(("print3", f"print({a}, {b}, {c})\n", [
        {"loc": [1, 0], "goal": [pred("output"), pred("value", a), pred("value", b), pred("value", c)],
         "skip": NO_REALIZATION}]))

    x, a, b, c, d = n(), n(), n(), n(), n()
    out.append(("index3", f"{x} = {a}[{b}[{c}[{d}]]]\n", [
        {"loc": [1, 0], "goal": [pred("assign", x, pred("index", a, pred("index", b, pred("index", c, d))))],
         "skip": NO_REALIZATION}]))
    return out


# -------------------------------------------------------------- frontend

def _tag(term: str) -> str:
    """The type tag the docs give a name bound to the expression `term`."""
    if term in (pred("list"), pred("dictionary")):
        return term[:-2]
    if term.isdigit():
        return "number"
    return "string" if term == pred("string") else "unknown"


_BINOPS = (("+", "plus"), ("-", "minus"), ("*", "times"), ("/", "divide"),
           ("%", "modulo"), ("**", "power"))
_CMPS = (("==", "equality"), ("!=", "inequality"), ("<", "less"), (">", "greater"),
         ("<=", "at_most"), (">=", "at_least"))


STRATA = 16


class FrontendGen:
    """Writes one file of the subset plus unsupported syntax.

    Expressions are built as (text, term) pairs, so each statement's goal
    follows the docs' tables by construction.  Names fall in disjoint
    pools: scalars, collections (only ever bound to list or dict
    literals, so the type tags the `for` rows depend on are exact) and
    functions.  A function body starts a fresh tag scope, as documented.
    """

    def __init__(self, rng: random.Random, names: Names):
        self.rng = rng
        self.scalars = [names.fresh() for _ in range(12)]
        self.colls = [names.fresh() for _ in range(4)]
        self.funcs = [names.fresh() for _ in range(5)]
        self.lines: list[str] = []
        self.expected: list[dict] = []
        self._strata: dict[str, list[float]] = {}

    def draw(self, choice: str) -> float:
        """A uniform draw for the named choice, stratified: each run of
        `STRATA` draws puts one in each of `STRATA` equal slices of [0, 1),
        in seeded order.  The mix of statement and expression kinds of a
        file then varies little from seed to seed, and so does its cost."""
        pool = self._strata.setdefault(choice, [])
        if not pool:
            pool.extend((k + self.rng.random()) / STRATA for k in range(STRATA))
            self.rng.shuffle(pool)
        return pool.pop()

    # ---- expressions

    def atom(self):
        r = self.draw("atom")
        if r < 0.55:
            v = self.rng.choice(self.scalars)
            return v, v
        if r < 0.85:
            k = str(self.rng.randrange(100))
            return k, k
        if r < 0.93:
            return '"text"', pred("string")
        v = self.rng.choice(("True", "False"))
        return v, v

    def expr(self, depth: int):
        if depth <= 0:
            return self.atom()
        r = self.draw("expr")
        if r < 0.3:
            return self.atom()
        if r < 0.55:
            op, name = self.rng.choice(_BINOPS)
            (lt, lf), (rt, rf) = self.expr(depth - 1), self.expr(depth - 1)
            return f"({lt}) {op} ({rt})", pred(name, lf, rf)
        if r < 0.67:
            base = self.rng.choice(self.colls + self.scalars)
            st, sf = self.expr(depth - 1)
            return f"{base}[{st}]", pred("index", base, sf)
        if r < 0.79:
            fn = self.rng.choice(self.funcs)
            args = [self.expr(depth - 1) for _ in range(int(self.draw("call_args") * 3))]
            return (f"{fn}({', '.join(t for t, _ in args)})",
                    pred("call_result", fn, *(f for _, f in args)))
        if r < 0.87:
            op, name = self.rng.choice(_CMPS)
            (lt, lf), (rt, rf) = self.expr(depth - 1), self.expr(depth - 1)
            return f"(({lt}) {op} ({rt}))", pred(name, lf, rf)
        if r < 0.93:
            return "[1, 2, 3]", pred("list")
        return "{1: 2}", pred("dictionary")

    def cond(self, depth: int):
        r = self.draw("cond")
        if r < 0.45 or depth <= 0:
            op, name = self.rng.choice(_CMPS)
            (lt, lf), (rt, rf) = self.expr(depth - 1), self.expr(depth - 1)
            return f"({lt}) {op} ({rt})", pred(name, lf, rf)
        if r < 0.55:
            v = self.rng.choice(self.scalars)
            return v, pred("truth", v)
        if r < 0.63:
            v = self.rng.choice(self.scalars)
            return f"not {v}", pred("falsity", v)
        if r < 0.8:
            word, kw = self.rng.choice((("both", "and"), ("either", "or")))
            parts = [self.cond(depth - 1) for _ in range(2 + (self.draw("parts") >= 2 / 3))]
            text, term = f"({parts[0][0]})", parts[0][1]
            for t, f in parts[1:]:
                text, term = f"{text} {kw} ({t})", pred(word, term, f)
            return text, term
        if r < 0.88:
            op, name = self.rng.choice(_CMPS)
            (lt, lf), (rt, rf) = self.expr(depth - 1), self.expr(depth - 1)
            return f"not (({lt}) {op} ({rt}))", pred("negation", pred(name, lf, rf))
        fn = self.rng.choice(self.funcs)
        at, af = self.expr(depth - 1)
        return f"{fn}({at})", pred("truth", pred("call_result", fn, af))

    # ---- statements

    def emit(self, indent: int, text: str, kind: str, goal):
        self.lines.append(" " * indent + text)
        self.expected.append({"loc": [len(self.lines), indent], "kind": kind, "goal": goal})

    def simple(self, indent: int, env: dict, in_def: bool):
        rng = self.rng
        r = self.draw("simple")
        if r < 0.3:
            v = rng.choice(self.scalars)
            t, f = self.expr(2)
            self.emit(indent, f"{v} = {t}", "Assign", [pred("assign", v, f)])
            env[v] = _tag(f)
        elif r < 0.38:
            c = rng.choice(self.colls)
            lit = rng.choice(("list", "dictionary"))
            text = "[4, 5, 6]" if lit == "list" else "{4: 5, 6: 7}"
            self.emit(indent, f"{c} = {text}", "Assign", [pred("assign", c, pred(lit))])
            env[c] = lit
        elif r < 0.45:
            base = rng.choice(self.colls + self.scalars)
            (st, sf), (vt, vf) = self.expr(1), self.expr(2)
            self.emit(indent, f"{base}[{st}] = {vt}", "Assign",
                      [pred("assign", pred("index", base, sf), vf)])
        elif r < 0.53:
            v = rng.choice(self.scalars)
            op, name = rng.choice(_BINOPS)
            t, f = self.expr(1)
            self.emit(indent, f"{v} {op}= {t}", "AugAssign", [pred("assign", v, pred(name, v, f))])
            env.setdefault(v, "unknown")
        elif r < 0.62:
            fn = rng.choice(self.funcs)
            args = [self.expr(1) for _ in range(int(self.draw("stmt_call_args") * 5))]
            goal = [pred("call"), pred("function", fn)]
            if args:
                goal.append(pred("arguments", *(f for _, f in args)))
            self.emit(indent, f"{fn}({', '.join(t for t, _ in args)})", "ExprCall", goal)
        elif r < 0.7:
            args = [self.expr(1) for _ in range(int(self.draw("print_args") * 4))]
            self.emit(indent, f"print({', '.join(t for t, _ in args)})", "IOPrint",
                      [pred("output")] + [pred("value", f) for _, f in args])
        elif r < 0.75:
            v = rng.choice(self.scalars)
            prompt = rng.choice(("", '"? "'))
            self.emit(indent, f"{v} = input({prompt})", "IORead", [pred("input"), pred("target", v)])
            env[v] = "string"
        elif r < 0.82 and in_def:
            if rng.random() < 0.25:
                self.emit(indent, "return", "Return", [pred("return")])
            else:
                t, f = self.expr(2)
                self.emit(indent, f"return {t}", "Return", [pred("return"), pred("value", f)])
        else:
            self.unsupported(indent)

    def unsupported(self, indent: int):
        rng = self.rng
        v, c = rng.choice(self.scalars), rng.choice(self.colls)
        text = rng.choice((
            f"import {v}",
            f"from {v} import {c}",
            f"{v} = {c}.{rng.choice(self.scalars)}",
            f"{v} = [{v} * 2 for {v} in {c}]",
            f"{v} = {rng.randrange(10)}.5",
            "pass",
            f"{c}.append({v})",
        ))
        self.emit(indent, text, "Unsupported", None)

    def block(self, indent: int, env: dict, depth: int, in_def: bool, budget: int):
        """Write about `budget` statements at `indent`; at least one."""
        written = 0
        while written < max(budget, 1):
            before = len(self.expected)
            r = self.draw("block")
            if depth >= 3 or r < 0.55:
                self.simple(indent, env, in_def)
            else:
                self.compound(indent, env, depth, in_def, budget - written)
            written += len(self.expected) - before

    def compound(self, indent: int, env: dict, depth: int, in_def: bool, budget: int):
        rng = self.rng
        inner = min(max(1, budget // 3), 6)
        r = self.draw("compound")
        if r < 0.3:
            t, f = self.cond(2)
            self.emit(indent, f"if {t}:", "If", [pred("condition"), f])
            self.block(indent + 4, env, depth + 1, in_def, inner)
            for _ in range(max(0, int(self.draw("elifs") * 4) - 1)):
                t, f = self.cond(2)
                self.emit(indent, f"elif {t}:", "If", [pred("condition"), f])
                self.block(indent + 4, env, depth + 1, in_def, inner)
            if self.draw("else") < 0.4:
                self.lines.append(" " * indent + "else:")
                self.block(indent + 4, env, depth + 1, in_def, inner)
        elif r < 0.45:
            if self.draw("while_true") < 0.3:
                self.emit(indent, "while True:", "While", [pred("loop"), pred("forever")])
            else:
                t, f = self.cond(2)
                self.emit(indent, f"while {t}:", "While", [pred("loop"), pred("while"), f])
            self.block(indent + 4, env, depth + 1, in_def, inner)
        elif r < 0.7:
            v = rng.choice(self.scalars)
            k = self.draw("for")
            if k < 0.3:
                t, _ = self.expr(1)
                text, goal = f"range({t})", [pred("iterate"), pred("counter", v)]
            else:
                text, f = (rng.choice(self.colls),) * 2 if k < 0.7 else self.expr(1)
                tag = env.get(f, "unknown")
                if tag == "dictionary":
                    goal = [pred("iterate"), pred("keys"), pred("dictionary", f)]
                elif tag == "list":
                    goal = [pred("iterate"), pred("element"), pred("list", f)]
                else:
                    goal = [pred("iterate"), pred("element"), pred("collection", f)]
            self.emit(indent, f"for {v} in {text}:", "ForIn", goal)
            env[v] = "unknown"
            self.block(indent + 4, env, depth + 1, in_def, inner)
        elif r < 0.9 and not in_def:
            fn = rng.choice(self.funcs)
            params = rng.sample(self.scalars, int(self.draw("params") * 5))
            goal = [pred("define"), pred("function", fn)]
            if params:
                goal.append(pred("parameters", *params))
            self.emit(indent, f"def {fn}({', '.join(params)}):", "FuncDef", goal)
            self.block(indent + 4, {}, depth + 1, True, min(budget, 12))
        else:
            self.lines.append(" " * indent + f"class {rng.choice(self.funcs).title()}:")
            self.expected.append({"loc": [len(self.lines), indent], "kind": "Unsupported", "goal": None})
            self.lines.append(" " * (indent + 4) + f"{rng.choice(self.scalars)} = 1")
            self.lines.append(" " * (indent + 4) + f"def {rng.choice(self.funcs)}(self):")
            self.lines.append(" " * (indent + 8) + "return self")

    def write(self, statements: int) -> tuple[str, list[dict]]:
        self.block(0, {}, 0, False, statements)
        return "\n".join(self.lines) + "\n", self.expected


# Statement budgets of the generated frontend files: fixed, so that every
# seed has the same mix of sizes; the seed picks their order and content.
FRONTEND_SIZES = (10, 20, 40, 60, 80, 120, 160, 240) * 3

# Two files that any Python programmer writes and that the frontend
# rejects as a whole today; their outcome is the documented one.
FRONTEND_FAULTS = (
    ("fault_docstring",
     'def area(width, height):\n'
     '    """Compute the area.\n'
     '\n'
     '    Width times height.\n'
     '    """\n'
     '    return width * height\n',
     [{"loc": [1, 0], "kind": "FuncDef",
       "goal": [pred("define"), pred("function", "area"), pred("parameters", "width", "height")]},
      {"loc": [2, 4], "kind": "Unsupported", "goal": None},
      {"loc": [6, 4], "kind": "Return",
       "goal": [pred("return"), pred("value", pred("times", "width", "height"))]}],
     "tokenizer rejects a multi-line string"),
    ("fault_continuation",
     "total = first + \\\n"
     "    second\n"
     "print(total)\n",
     [{"loc": [1, 0], "kind": "Assign", "goal": [pred("assign", "total", pred("plus", "first", "second"))]},
      {"loc": [3, 0], "kind": "IOPrint", "goal": [pred("output"), pred("value", "total")]}],
     "tokenizer rejects a backslash line continuation"),
)


# ----------------------------------------------------------------- build

def build(workload: str, seed: int, root: Path, outdir: Path) -> list[Case]:
    """Write the workload's inputs under `outdir` and return its cases."""
    if workload == "corpus":
        return corpus_cases(root)
    rng = random.Random(f"{workload}:{seed}")
    names = Names(rng, _lexicon_words(root) | {"print", "input", "range", "self"})
    outdir.mkdir(parents=True, exist_ok=True)
    cases = []

    def add(stem, text, expected, mode, verify, fault=None):
        path = outdir / f"{stem}.py"
        path.write_text(text, encoding="utf-8")
        cases.append(Case(os.path.relpath(path, root), mode, verify, expected, fault))

    if workload == "unrealizable":
        for i, (stem, text, expected) in enumerate(unrealizable_sources(rng, names)):
            add(f"u{i}_{stem}", text, expected, "jsonl", True)
    elif workload == "frontend":
        sizes = list(FRONTEND_SIZES)
        rng.shuffle(sizes)
        for i, size in enumerate(sizes):
            text, expected = FrontendGen(rng, names).write(size)
            add(f"f{i:02d}", text, expected, "emit-lf", False)
        for stem, text, expected, fault in FRONTEND_FAULTS:
            add(stem, text, expected, "emit-lf", False, fault)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    (outdir / "expected.json").write_text(
        json.dumps([c.__dict__ for c in cases], indent=1), encoding="utf-8")
    return cases
