"""CCG syntactic categories.

A category is an atom (optionally carrying a single feature tag, e.g.
S[imp]) or a directed function type: `A/B` expects a B to its right,
`A\\B` expects a B to its left; the result is always written on the left.
Slashes associate to the left, so `S\\NP/NP` is `(S\\NP)/NP`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass


class CategorySyntaxError(Exception):
    def __init__(self, position: int, message: str):
        super().__init__(f"category syntax error at offset {position}: {message}")
        self.position = position
        self.message = message


@dataclass(frozen=True, slots=True)
class Atom:
    name: str
    feature: str | None = None


@dataclass(frozen=True, slots=True)
class Forward:
    result: "Category"
    arg: "Category"


@dataclass(frozen=True, slots=True)
class Backward:
    result: "Category"
    arg: "Category"


Category = Atom | Forward | Backward


def unifies(a: Category, b: Category) -> bool:
    """Structural match; atom features unify when equal or one is unset."""
    if isinstance(a, Atom) and isinstance(b, Atom):
        if a.name != b.name:
            return False
        return a.feature is None or b.feature is None or a.feature == b.feature
    if type(a) is type(b):
        return unifies(a.result, b.result) and unifies(a.arg, b.arg)
    return False


_ATOM_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_FEAT_RE = re.compile(r"[A-Za-z0-9_]+")


class _CatParser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str):
        raise CategorySyntaxError(self.pos, message)

    def peek(self) -> str:
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def category(self) -> Category:
        left = self.atomish()
        while True:
            ch = self.peek()
            if ch == "/":
                self.pos += 1
                left = Forward(left, self.atomish())
            elif ch == "\\":
                self.pos += 1
                left = Backward(left, self.atomish())
            else:
                return left

    def atomish(self) -> Category:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            inner = self.category()
            if self.peek() != ")":
                self.error("expected ')'")
            self.pos += 1
            return inner
        m = _ATOM_RE.match(self.text, self.pos)
        if not m:
            self.error("expected category atom")
        self.pos = m.end()
        name = m.group()
        if self.peek() == "[":
            self.pos += 1
            fm = _FEAT_RE.match(self.text, self.pos)
            if not fm:
                self.error("expected feature tag")
            self.pos = fm.end()
            if self.peek() != "]":
                self.error("expected ']'")
            self.pos += 1
            return Atom(name, fm.group())
        return Atom(name)


def parse_category(text: str) -> Category:
    parser = _CatParser(text)
    try:
        cat = parser.category()
    except RecursionError:
        parser.error("nested too deeply")
    if parser.peek() != "":
        parser.error("trailing input")
    return cat


def format_category(cat: Category) -> str:
    """Minimal-parentheses printer; parse_category inverts it."""
    match cat:
        case Atom(name, None):
            return name
        case Atom(name, feature):
            return f"{name}[{feature}]"
        case Forward(result, arg):
            return f"{format_category(result)}/{_fmt_arg(arg)}"
        case Backward(result, arg):
            return f"{format_category(result)}\\{_fmt_arg(arg)}"
    raise TypeError(f"not a category: {cat!r}")


def _fmt_arg(cat: Category) -> str:
    if isinstance(cat, Atom):
        return format_category(cat)
    return f"({format_category(cat)})"
