"""Chart (CKY) parser over a lexicon, plus the combinator rules.

The combinators here are shared with the realizer: forward/backward
application and harmonic forward/backward composition.  The parser is
used to round-trip generated comments back to their logical forms and to
debug lexicons.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .categories import Backward, Category, Forward, format_category, unifies
from .lexicon import Lexicon
from .terms import Abs, App, Term, Var, beta_normalize, canonical_text, format_term, free_vars, fresh_name


class UnknownWord(Exception):
    def __init__(self, token: str, position: int):
        super().__init__(f"no lexicon entry for {token!r} (token {position})")
        self.token = token
        self.position = position


@dataclass(frozen=True)
class Derivation:
    cat: Category
    sem: Term
    rule: str  # Lex, FwdApp, BwdApp, FwdComp or BwdComp
    children: tuple["Derivation", ...] = ()
    word: str | None = None

    @cached_property
    def signature(self) -> tuple[str, str]:
        """(category, canonical semantics): derivations that agree on it
        combine alike, so charts and the realizer keep one of each.  The
        semantics is `canonical_text(sem)`, its alpha-canonical form."""
        return (format_category(self.cat), canonical_text(self.sem))

    @cached_property
    def nf_signature(self) -> tuple[tuple[str, str], bool, bool]:
        """The signature and whether this is a forward or a backward
        composition, which normal form bars from one side of a rule:
        derivations that agree on it combine alike in normal form."""
        return (self.signature, self.rule == "FwdComp", self.rule == "BwdComp")

    def tokens(self) -> tuple[str, ...]:
        if self.rule == "Lex":
            return (self.word,)
        return tuple(t for c in self.children for t in c.tokens())


def _compose_sem(outer: Term, inner: Term) -> Term:
    v = fresh_name("v", free_vars(outer) | free_vars(inner))
    return beta_normalize(Abs(v, App(outer, App(inner, Var(v)))))


def combine(left: Derivation, right: Derivation, normal_form: bool = False) -> list[Derivation]:
    """All single-rule combinations of two adjacent constituents.

    With `normal_form` set, composition output may not feed the primary
    side of a same-direction rule (Eisner's normal form), which removes
    spurious rebracketings without losing any derivable category or
    semantics.
    """
    out: list[Derivation] = []
    lc, rc = left.cat, right.cat
    fwd_ok = not (normal_form and left.rule == "FwdComp")
    bwd_ok = not (normal_form and right.rule == "BwdComp")
    if fwd_ok and isinstance(lc, Forward) and unifies(lc.arg, rc):
        sem = beta_normalize(App(left.sem, right.sem))
        out.append(Derivation(lc.result, sem, "FwdApp", (left, right)))
    if bwd_ok and isinstance(rc, Backward) and unifies(rc.arg, lc):
        sem = beta_normalize(App(right.sem, left.sem))
        out.append(Derivation(rc.result, sem, "BwdApp", (left, right)))
    if fwd_ok and isinstance(lc, Forward) and isinstance(rc, Forward) and unifies(lc.arg, rc.result):
        sem = _compose_sem(left.sem, right.sem)
        out.append(Derivation(Forward(lc.result, rc.arg), sem, "FwdComp", (left, right)))
    if bwd_ok and isinstance(lc, Backward) and isinstance(rc, Backward) and unifies(rc.arg, lc.result):
        sem = _compose_sem(right.sem, left.sem)
        out.append(Derivation(Backward(rc.result, lc.arg), sem, "BwdComp", (left, right)))
    return out


def lexical_derivations(lex: Lexicon, token: str, position: int) -> list[Derivation]:
    entries = lex.lookup(token)
    if not entries:
        raise UnknownWord(token, position)
    return [
        Derivation(e.cat, e.sem, "Lex", (), e.word)
        for e in entries
    ]


def parse(lex: Lexicon, tokens) -> list[Derivation]:
    """All root-category readings covering every token, one derivation
    per signature; an empty result means no parse, which is left to the
    caller to interpret.

    The chart combines in Eisner's normal form, as the realizer does, so
    it builds no spurious rebracketing.  A cell keeps one derivation per
    signature and normal-form flags (whether it is a forward or a
    backward composition), since those fix what it combines into.  Every
    normal-form derivation is a derivation, so a reading found here is a
    reading of the words: `--verify` may reject more comments than a
    full chart would, never pass a wrong one.  Eisner shows it rejects
    none, and a realized comment has its normal-form derivation anyway.
    `parse` keeps nothing between calls, so a `--verify` re-parse shares
    no table with the realizer that made the comment.
    """
    tokens = list(tokens)
    if not tokens:
        return []
    n = len(tokens)
    cells: dict[tuple[int, int], dict[tuple, Derivation]] = {}
    for i, tok in enumerate(tokens):
        cell: dict[tuple, Derivation] = {}
        for d in lexical_derivations(lex, tok, i):
            cell.setdefault(d.nf_signature, d)
        cells[(i, i + 1)] = cell
    for width in range(2, n + 1):
        for i in range(0, n - width + 1):
            j = i + width
            cell = {}
            for k in range(i + 1, j):
                for left in cells[(i, k)].values():
                    for right in cells[(k, j)].values():
                        for d in combine(left, right, normal_form=True):
                            cell.setdefault(d.nf_signature, d)
            cells[(i, j)] = cell
    roots: dict[tuple[str, str], Derivation] = {}
    for d in cells[(0, n)].values():
        if any(unifies(d.cat, root) for root in lex.root_cats):
            roots.setdefault(d.signature, d)
    return list(roots.values())


def validate_derivation(lex: Lexicon, d: Derivation) -> bool:
    """Independent node-by-node check of the rule invariants: each leaf is
    an entry of `lex`, and each inner node is its rule applied to its two
    children.  A binary tree covers its leaves contiguously by
    construction, so there is no span to check."""
    if d.rule == "Lex":
        if d.children or d.word is None:
            return False
        return any(e.cat == d.cat and e.sem == d.sem for e in lex.lookup(d.word))
    if len(d.children) != 2:
        return False
    left, right = d.children
    if not (validate_derivation(lex, left) and validate_derivation(lex, right)):
        return False
    lc, rc = left.cat, right.cat
    if d.rule == "FwdApp":
        return (isinstance(lc, Forward) and unifies(lc.arg, rc)
                and d.cat == lc.result
                and d.sem == beta_normalize(App(left.sem, right.sem)))
    if d.rule == "BwdApp":
        return (isinstance(rc, Backward) and unifies(rc.arg, lc)
                and d.cat == rc.result
                and d.sem == beta_normalize(App(right.sem, left.sem)))
    if d.rule == "FwdComp":
        return (isinstance(lc, Forward) and isinstance(rc, Forward)
                and unifies(lc.arg, rc.result)
                and d.cat == Forward(lc.result, rc.arg)
                and d.sem == _compose_sem(left.sem, right.sem))
    if d.rule == "BwdComp":
        return (isinstance(lc, Backward) and isinstance(rc, Backward)
                and unifies(rc.arg, lc.result)
                and d.cat == Backward(rc.result, lc.arg)
                and d.sem == _compose_sem(right.sem, left.sem))
    return False


def format_derivation(d: Derivation, indent: int = 0) -> str:
    """Indented tree, one node per line: `rule category : semantics`."""
    pad = "  " * indent
    if d.rule == "Lex":
        head = f"{pad}Lex {d.word} := {format_category(d.cat)} : {format_term(d.sem)}"
        return head
    head = f"{pad}{d.rule} {format_category(d.cat)} : {format_term(d.sem)}"
    parts = [head]
    for child in d.children:
        parts.append(format_derivation(child, indent + 1))
    return "\n".join(parts)
