"""Lambda-calculus terms: substitution, beta normalization, equivalence.

Terms carry the word meanings in the lexicon and the logical forms
extracted from source statements.  Conjunction is a first-class node and
is compared as a flattened multiset, so `p() & q()` and `q() & p()` are
equivalent.
"""

from __future__ import annotations

import re
from collections.abc import Iterator
from dataclasses import dataclass
from functools import reduce
from operator import is_not, itemgetter


class FuelExhausted(Exception):
    """Normalization did not reach a normal form within its step budget."""


class TermSyntaxError(Exception):
    def __init__(self, position: int, message: str):
        super().__init__(f"term syntax error at offset {position}: {message}")
        self.position = position
        self.message = message


@dataclass(frozen=True, slots=True)
class Var:
    name: str


@dataclass(frozen=True, slots=True)
class Const:
    name: str


@dataclass(frozen=True, slots=True)
class Pred:
    name: str
    args: tuple = ()


@dataclass(frozen=True, slots=True)
class Abs:
    param: str
    body: "Term"


@dataclass(frozen=True, slots=True)
class App:
    fn: "Term"
    arg: "Term"


@dataclass(frozen=True, slots=True)
class Conj:
    left: "Term"
    right: "Term"


Term = Var | Const | Pred | Abs | App | Conj


def free_vars(term: Term) -> frozenset[str]:
    match term:
        case Var(name):
            return frozenset((name,))
        case Const():
            return frozenset()
        case Pred(_, args):
            return frozenset().union(*(free_vars(a) for a in args)) if args else frozenset()
        case Abs(param, body):
            return free_vars(body) - {param}
        case App(fn, arg):
            return free_vars(fn) | free_vars(arg)
        case Conj(left, right):
            return free_vars(left) | free_vars(right)
    raise TypeError(f"not a term: {term!r}")


def node_count(term: Term) -> int:
    match term:
        case Var() | Const():
            return 1
        case Pred(_, args):
            return 1 + sum(node_count(a) for a in args)
        case Abs(_, body):
            return 1 + node_count(body)
        case App(fn, arg) | Conj(fn, arg):
            return 1 + node_count(fn) + node_count(arg)
    raise TypeError(f"not a term: {term!r}")


def subterms(term: Term) -> Iterator[Term]:
    """Every subterm of `term`, itself first, in left-to-right preorder."""
    stack = [term]
    while stack:
        t = stack.pop()
        yield t
        match t:
            case Pred(_, args):
                stack.extend(reversed(args))
            case Abs(_, body):
                stack.append(body)
            case App(a, b) | Conj(a, b):
                stack += (b, a)


def is_ground(term: Term) -> bool:
    """Ground terms contain no variables and no abstractions."""
    match term:
        case Var() | Abs():
            return False
        case Const():
            return True
        case Pred(_, args):
            return all(is_ground(a) for a in args)
        case App(fn, arg) | Conj(fn, arg):
            return is_ground(fn) and is_ground(arg)
    raise TypeError(f"not a term: {term!r}")


def fresh_name(base: str, avoid: frozenset[str] | set[str]) -> str:
    name = base
    while name in avoid:
        name += "'"
    return name


def substitute(term: Term, var: str, value: Term) -> Term:
    """Capture-avoiding substitution of `value` for free occurrences of `var`."""
    match term:
        case Var(name):
            return value if name == var else term
        case Const():
            return term
        case Pred(name, args):
            return Pred(name, tuple(substitute(a, var, value) for a in args))
        case App(fn, arg):
            return App(substitute(fn, var, value), substitute(arg, var, value))
        case Conj(left, right):
            return Conj(substitute(left, var, value), substitute(right, var, value))
        case Abs(param, body):
            if param == var:
                return term
            if param in free_vars(value) and var in free_vars(body):
                renamed = fresh_name(param, free_vars(body) | free_vars(value) | {var})
                body = substitute(body, param, Var(renamed))
                return Abs(renamed, substitute(body, var, value))
            return Abs(param, substitute(body, var, value))
    raise TypeError(f"not a term: {term!r}")


def beta_normalize(term: Term, fuel: int | None = None) -> Term:
    """Reduce to beta-normal form by leftmost-outermost steps, in one walk.

    At each node the walk contracts the head redexes along its application
    spine, innermost argument first and in a loop, then normalizes the
    children left to right: the steps, in order, of a restart from the
    root per leftmost-outermost redex.  A node whose children come back
    unchanged is returned itself, so normal subterms stay shared.

    `fuel` bounds the number of reduction steps: a reduction may take
    exactly `fuel` steps.  The default, `10 * node_count(term) + 32`, is
    never below 42, so it is computed from the input term only when a
    reduction passes 42 steps.  Raises FuelExhausted when the budget
    runs out, which signals a malformed (non-terminating) lexicon entry.
    """
    if fuel is not None and fuel <= 0:
        raise ValueError("fuel must be positive")
    budget = 42 if fuel is None else fuel
    steps = 0

    def walk(t: Term) -> Term:
        nonlocal fuel, budget, steps
        spine = []
        while True:
            while isinstance(t, App):
                spine.append(t)
                t = t.fn
            if not (spine and isinstance(t, Abs)):
                break
            steps += 1
            if steps > budget:
                if fuel is None:
                    fuel = budget = 10 * node_count(term) + 32
                if steps > budget:
                    raise FuelExhausted(f"no normal form within {budget} steps")
            t = substitute(t.body, t.param, spine.pop().arg)
        match t:
            case Abs(param, body):
                new = walk(body)
                if new is not body:
                    t = Abs(param, new)
            case Conj(left, right):
                lhs, rhs = walk(left), walk(right)
                if lhs is not left or rhs is not right:
                    t = Conj(lhs, rhs)
            case Pred(name, args):
                new = tuple([walk(a) for a in args])
                if any(map(is_not, new, args)):
                    t = Pred(name, new)
        for node in reversed(spine):
            arg = walk(node.arg)
            t = node if t is node.fn and arg is node.arg else App(t, arg)
        return t

    return walk(term)


def rename_constants(term: Term, names: dict[str, str], predicates: dict[str, str] = {}) -> Term:
    """`term` with every constant in `names`, and every predicate in
    `predicates`, renamed, all at once."""
    match term:
        case Var():
            return term
        case Const(name):
            return Const(names.get(name, name))
        case Pred(name, args):
            return Pred(predicates.get(name, name),
                        tuple(rename_constants(a, names, predicates) for a in args))
        case Abs(param, body):
            return Abs(param, rename_constants(body, names, predicates))
        case App(fn, arg):
            return App(rename_constants(fn, names, predicates), rename_constants(arg, names, predicates))
        case Conj(left, right):
            return Conj(rename_constants(left, names, predicates),
                        rename_constants(right, names, predicates))
    raise TypeError(f"not a term: {term!r}")


def conjuncts(term: Term) -> list[Term]:
    """Flatten the Conj spine of a term into its conjunct list."""
    if isinstance(term, Conj):
        return conjuncts(term.left) + conjuncts(term.right)
    return [term]


def conj_of(parts: list[Term] | tuple[Term, ...]) -> Term:
    """Left-nested conjunction of one or more terms."""
    if not parts:
        raise ValueError("empty conjunction")
    return reduce(Conj, parts)


def _canonical(term: Term, env: dict[str, str], depth: int) -> Term:
    match term:
        case Var(name):
            return Var(env.get(name, name))
        case Const():
            return term
        case Pred(name, args):
            return Pred(name, tuple(_canonical(a, env, depth) for a in args))
        case App(fn, arg):
            return App(_canonical(fn, env, depth), _canonical(arg, env, depth))
        case Abs(param, body):
            slot = f"${depth}"
            return Abs(slot, _canonical(body, {**env, param: slot}, depth + 1))
        case Conj():
            parts = [_canonical(c, env, depth) for c in conjuncts(term)]
            parts.sort(key=format_term)
            return conj_of(parts)
    raise TypeError(f"not a term: {term!r}")


def canonical(term: Term) -> Term:
    """Alpha-canonical form with Conj spines sorted as multisets."""
    return _canonical(term, {}, 0)


def _canonical_text(term: Term, env: dict[str, str], depth: int) -> str:
    # the text of `format_term(_canonical(term, env, depth))`; canonical
    # forms keep each node's kind, so the caller parenthesises by `term`.
    # This walk keys every chart cell and search state, so it tests
    # `type(...)` where the other walks `match`: class patterns cost it
    # about twice the time.
    kind = type(term)
    if kind is Abs:
        slot = f"${depth}"
        return f"\\{slot}. {_canonical_text(term.body, {**env, term.param: slot}, depth + 1)}"
    if kind is App:
        fn, arg = term.fn, term.arg
        fn_text = _canonical_text(fn, env, depth)
        if type(fn) is Abs or type(fn) is Conj:
            fn_text = f"({fn_text})"
        arg_text = _canonical_text(arg, env, depth)
        if type(arg) is App or type(arg) is Abs or type(arg) is Conj:
            arg_text = f"({arg_text})"
        return f"{fn_text} {arg_text}"
    if kind is Pred:
        return f"{term.name}({', '.join([_canonical_text(a, env, depth) for a in term.args])})"
    if kind is Var:
        return env.get(term.name, term.name)
    if kind is Const:
        return term.name
    if kind is Conj:
        parts = [(_canonical_text(c, env, depth), c) for c in conjuncts(term)]
        parts.sort(key=itemgetter(0))
        return " & ".join([f"({text})" if type(c) is Abs else text for text, c in parts])
    raise TypeError(f"not a term: {term!r}")


def canonical_text(term: Term) -> str:
    """`format_term(canonical(term))`, written in one walk of `term`
    without building the canonical term."""
    return _canonical_text(term, {}, 0)


def equivalent(a: Term, b: Term) -> bool:
    """Alpha-equivalence, treating conjunction as a multiset of conjuncts.

    Both terms are expected to be beta-normal.
    """
    return canonical(a) == canonical(b)


# ---------------------------------------------------------------------------
# Textual syntax
#
#   term := '\' ident '.' term | conj
#   conj := app ('&' app)*               left-associative
#   app  := atom+                        juxtaposition, left-associative
#   atom := ident '(' [term (',' term)*] ')' | ident | '(' term ')'
#
# An identifier is a Var exactly when it is bound by an enclosing lambda.
# ---------------------------------------------------------------------------

_IDENT_RE = re.compile(r"[A-Za-z0-9_][A-Za-z0-9_]*'*")


class _TermParser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str):
        raise TermSyntaxError(self.pos, message)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        if self.peek() != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def ident(self) -> str:
        self.skip_ws()
        m = _IDENT_RE.match(self.text, self.pos)
        if not m:
            self.error("expected identifier")
        self.pos = m.end()
        return m.group()

    def term(self, bound: frozenset[str]) -> Term:
        if self.peek() == "\\":
            self.pos += 1
            param = self.ident()
            self.expect(".")
            return Abs(param, self.term(bound | {param}))
        return self.conj(bound)

    def conj(self, bound: frozenset[str]) -> Term:
        left = self.app(bound)
        while self.peek() == "&":
            self.pos += 1
            left = Conj(left, self.app(bound))
        return left

    def app(self, bound: frozenset[str]) -> Term:
        fn = self.atom(bound)
        while self._starts_atom():
            fn = App(fn, self.atom(bound))
        return fn

    def _starts_atom(self) -> bool:
        ch = self.peek()
        return ch == "(" or bool(_IDENT_RE.match(ch))

    def atom(self, bound: frozenset[str]) -> Term:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            inner = self.term(bound)
            self.expect(")")
            return inner
        name = self.ident()
        # predicate parentheses attach directly to the name; a space means
        # application to a parenthesized term instead
        if self.pos < len(self.text) and self.text[self.pos] == "(":
            self.pos += 1
            args: list[Term] = []
            if self.peek() != ")":
                args.append(self.term(bound))
                while self.peek() == ",":
                    self.pos += 1
                    args.append(self.term(bound))
            self.expect(")")
            return Pred(name, tuple(args))
        return Var(name) if name in bound else Const(name)


def parse_term(text: str) -> Term:
    parser = _TermParser(text)
    try:
        term = parser.term(frozenset())
    except RecursionError:
        parser.error("nested too deeply")
    parser.skip_ws()
    if parser.pos != len(text):
        parser.error("trailing input")
    return term


def format_term(term: Term) -> str:
    """Print a term with minimal parentheses and single spaces."""
    match term:
        case Var(name) | Const(name):
            return name
        case Pred(name, args):
            return f"{name}({', '.join(map(format_term, args))})"
        case Abs(param, body):
            return f"\\{param}. {format_term(body)}"
        case App(fn, arg):
            fn_text, arg_text = format_term(fn), format_term(arg)
            if isinstance(fn, (Abs, Conj)):
                fn_text = f"({fn_text})"
            if isinstance(arg, (App, Abs, Conj)):
                arg_text = f"({arg_text})"
            return f"{fn_text} {arg_text}"
        case Conj(left, right):
            left_text, right_text = format_term(left), format_term(right)
            if isinstance(left, Abs):
                left_text = f"({left_text})"
            if isinstance(right, (Abs, Conj)):
                right_text = f"({right_text})"
            return f"{left_text} & {right_text}"
    raise TypeError(f"not a term: {term!r}")
