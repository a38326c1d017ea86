"""Lexicon representation and the lexicon file loader.

File format (UTF-8 text):

    # comment lines and blank lines are ignored
    roots: S[imp], S[ger]          exactly one roots declaration
    word := Category : lambda-term
    word := Category : lambda-term @weight 2

Words in a file are lowercase; homonyms are simply repeated entries.
Entry semantics are closed by construction, since a name no lambda
binds parses as a constant; they must be linear (every lambda uses its
variable exactly once), and are stored beta-normal.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field
from importlib import resources

from .categories import Atom, Category, CategorySyntaxError, parse_category
from .terms import (
    Abs,
    App,
    Conj,
    Const,
    FuelExhausted,
    Pred,
    Term,
    TermSyntaxError,
    Var,
    beta_normalize,
    parse_term,
    subterms,
)


class LexiconError(Exception):
    pass


class LexiconSyntaxError(LexiconError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


class DuplicateRootDecl(LexiconError):
    def __init__(self, line: int):
        super().__init__(f"line {line}: duplicate roots declaration")
        self.line = line


class EmptyLexicon(LexiconError):
    def __init__(self):
        super().__init__("lexicon has no entries")


@dataclass(frozen=True)
class LexEntry:
    word: str
    cat: Category
    sem: Term
    weight: int = 1


@dataclass(frozen=True)
class Lexicon:
    entries: tuple[LexEntry, ...]
    root_cats: tuple[Category, ...]
    # set by `extend_with_identifiers`: the lexicon it first extended and
    # the identifier names it appended, in entry order
    base: Lexicon | None = field(default=None, repr=False, compare=False)
    identifiers: tuple[str, ...] = field(default=(), repr=False, compare=False)
    # what is derived from this lexicon (its word index, the realizer's
    # search tables and results, the chart's cells and `--verify`'s
    # readings of each comment shape), keyed by the callable that makes
    # each; `table` makes each on first use
    _tables: dict = field(default_factory=dict, repr=False, compare=False)

    def lookup(self, word: str) -> tuple[LexEntry, ...]:
        return self.table(_by_word).get(word, ())

    def table(self, make):
        """`make(self)`, made on the first call and kept for the rest."""
        out = self._tables.get(make)
        if out is None:
            out = self._tables.setdefault(make, make(self))
        return out


def _by_word(lex: Lexicon) -> dict[str, tuple[LexEntry, ...]]:
    index: dict[str, list[LexEntry]] = {}
    for entry in lex.entries:
        index.setdefault(entry.word, []).append(entry)
    return {w: tuple(es) for w, es in index.items()}


def is_atomic(lex: Lexicon) -> bool:
    """Whether every root category of `lex`, and every argument of every
    entry category at any depth, is an atom.  Identifier entries are
    `NP`, so a lexicon made by `extend_with_identifiers` is atomic
    exactly when its base is, and the base keeps the answer."""
    return (lex.base or lex).table(_all_atoms)


def _all_atoms(lex: Lexicon) -> bool:
    for entry in lex.entries:
        cat = entry.cat
        while not isinstance(cat, Atom):
            if not isinstance(cat.arg, Atom):
                return False
            cat = cat.result
    return all(isinstance(r, Atom) for r in lex.root_cats)


def _uses(term: Term, name: str) -> int:
    """Free occurrences of the variable `name` in `term`."""
    match term:
        case Var(v):
            return int(v == name)
        case Abs(param, body):
            return 0 if param == name else _uses(body, name)
        case Pred(_, args):
            return sum(_uses(a, name) for a in args)
        case App(a, b) | Conj(a, b):
            return _uses(a, name) + _uses(b, name)
    return 0


def _nonlinear(term: Term) -> tuple[str, int] | None:
    """The first lambda variable in `term` that its body does not use
    exactly once, with its use count."""
    for t in subterms(term):
        if isinstance(t, Abs) and (uses := _uses(t.body, t.param)) != 1:
            return t.param, uses
    return None


_WORD_RE = re.compile(r"[a-z][a-z0-9_']*\Z")
_WEIGHT_RE = re.compile(r"(.*?)\s*@weight\s+(\d+)\s*\Z")


def load_lexicon(source) -> Lexicon:
    """Parse a lexicon from a string or a readable text stream."""
    text = source.read() if hasattr(source, "read") else source
    text = text.removeprefix("\ufeff")  # a byte-order mark saved by an editor
    entries: list[LexEntry] = []
    roots: tuple[Category, ...] | None = None
    roots_line = 0

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("roots:"):
            if roots is not None:
                raise DuplicateRootDecl(lineno)
            parts = [p.strip() for p in line[len("roots:"):].split(",")]
            if not all(parts):
                raise LexiconSyntaxError(lineno, "empty root category")
            try:
                roots = tuple(parse_category(p) for p in parts)
            except CategorySyntaxError as exc:
                raise LexiconSyntaxError(lineno, str(exc)) from exc
            roots_line = lineno
            continue
        if ":=" not in line:
            raise LexiconSyntaxError(lineno, "expected 'word := Category : term'")
        word_part, rest = line.split(":=", 1)
        word = word_part.strip()
        if not _WORD_RE.match(word):
            raise LexiconSyntaxError(lineno, f"bad word {word!r}")
        weight = 1
        wm = _WEIGHT_RE.match(rest)
        if wm:
            rest, weight = wm.group(1), int(wm.group(2))
            if weight < 1:
                raise LexiconSyntaxError(lineno, f"weight must be a positive integer, not {weight}")
        if ":" not in rest:
            raise LexiconSyntaxError(lineno, "missing ':' between category and term")
        cat_part, term_part = rest.split(":", 1)
        try:
            cat = parse_category(cat_part.strip())
        except CategorySyntaxError as exc:
            raise LexiconSyntaxError(lineno, str(exc)) from exc
        try:
            sem = parse_term(term_part.strip())
        except TermSyntaxError as exc:
            raise LexiconSyntaxError(lineno, str(exc)) from exc
        try:
            sem = beta_normalize(sem)
            # the realizer's prunes assume no word drops or copies an argument
            bad = _nonlinear(sem)
        except FuelExhausted as exc:
            raise LexiconSyntaxError(lineno, f"semantics do not normalize: {exc}") from exc
        except RecursionError as exc:
            raise LexiconSyntaxError(lineno, "semantics nested too deeply") from exc
        if bad is not None:
            raise LexiconSyntaxError(
                lineno, f"semantics not linear: variable {bad[0]!r} used {bad[1]} times")
        entries.append(LexEntry(word, cat, sem, weight))

    if not entries:
        raise EmptyLexicon()
    if roots is None:
        raise LexiconSyntaxError(roots_line or 1, "missing roots declaration")
    return Lexicon(tuple(entries), roots)


def extend_with_identifiers(lex: Lexicon, names) -> Lexicon:
    """Extended copy of `lex` with an `NP : name` entry per identifier.

    Identifiers come from analyzed source code, so any spelling is
    accepted verbatim.  Re-adding a name is a no-op.  The copy records
    the lexicon that was first extended (`base`) and every name appended
    since (`identifiers`), which lets the realizer treat identifiers as
    interchangeable.
    """
    np = Atom("NP")
    added: dict[str, LexEntry] = {}
    for name in names:
        sem = Const(name)
        if name not in added and not any(
                e.cat == np and e.sem == sem for e in lex.lookup(name)):
            added[name] = LexEntry(name, np, sem, 1)
    if not added:
        return lex
    base = lex.base if lex.base is not None else lex
    return Lexicon(lex.entries + tuple(added.values()), lex.root_cats, base,
                   lex.identifiers + tuple(added))


def placeholder_lexicon(base: Lexicon, count: int) -> Lexicon:
    """`base` with the identifiers `_0`, `_1`, ... `_<count - 1>`, made once
    per count and kept by `base`.  It has no identifier record, which
    would refer back to `base`, so it is realized and parsed as it is."""
    made = base.table(_by_count)
    lex = made.get(count)
    if lex is None:
        entries = extend_with_identifiers(base, [f"_{i}" for i in range(count)]).entries
        lex = made.setdefault(count, Lexicon(entries, base.root_cats))
    return lex


def _by_count(base: Lexicon) -> dict[int, Lexicon]:
    return {}


def bundled_lexicon_text() -> str:
    return resources.files(__package__).joinpath("lexicons").joinpath("english.ccg").read_text("utf-8")


@functools.cache
def load_bundled_lexicon() -> Lexicon:
    """The package's lexicon, loaded once per process and shared, so the
    search tables and shape results it keeps serve every caller; use
    `load_lexicon(bundled_lexicon_text())` for a lexicon of one's own."""
    return load_lexicon(bundled_lexicon_text())
