"""Surface realization as A* search over shift-reduce derivation states.

The communicative goal is a multiset of ground predicates.  A state is a
stack of adjacent constituents plus the multiset of predicate and
constant symbols introduced so far.  Successors either shift a lexicon
entry whose symbols still fit inside the goal, or reduce the top two
stack constituents with one combinator.  Search cost is the summed
entry weight of the shifted words; the heuristic counts how many
covering shifts are still needed, so it never overestimates.

A shift is also skipped when the new word could never interact with the
constituent to its left: since reduction only ever touches the top two
stack items, the pair must eventually combine, either directly or after
the right item absorbs later material.  The reachable right-hand
categories are over-approximated from the lexicon, so that filter, like
the goal-subterm checks on reductions, only discards provably dead
states (provided word meanings use each argument exactly once, which
`load_lexicon` checks).

States are keyed on each constituent's `Derivation.signature`
(category and canonical semantics).  The tables the search consults are
built on a lexicon's first realization and kept by that lexicon, not by
the module, so one lexicon may serve concurrent realizations.

Every call is looked up in a table kept by the base lexicon (the one
`extend_with_identifiers` first extended, or the lexicon itself), keyed
on the goal's shape, and searched only on a miss.  The search compares
names only for equality, so when the identifiers are interchangeable,
renaming identifier i to a placeholder `_i`, in both the goal and the
appended entries, leaves every step the same and renames what it finds;
otherwise the goal is searched under its own names.  The table keeps
each shape's whole found set; every call maps it back to the real names
and only then breaks ties on token order.
"""

from __future__ import annotations

import heapq
import itertools
from collections import Counter
from dataclasses import dataclass
from math import ceil

from .categories import Atom, Backward, Category, Forward, format_category, unifies
from .chart import Derivation, combine
from .lexicon import Lexicon, extend_with_identifiers
from .terms import (
    Abs,
    App,
    Conj,
    Const,
    Pred,
    Term,
    Var,
    canonical,
    conj_of,
    conjuncts as term_conjuncts,
    equivalent,
    format_term,
    is_ground,
    rename_constants,
)


class NoRealization(Exception):
    """The search space was exhausted without reaching the goal."""


class LimitExceeded(Exception):
    """The expansion budget ran out; retry with larger limits."""


@dataclass(frozen=True)
class Goal:
    predicates: tuple[Term, ...]

    def __post_init__(self):
        if not self.predicates:
            raise ValueError("goal must contain at least one predicate")
        for p in self.predicates:
            if not isinstance(p, Pred) or not is_ground(p):
                raise ValueError(f"goal predicates must be ground: {p!r}")

    def as_term(self) -> Term:
        return conj_of(self.predicates)


@dataclass(frozen=True)
class SearchLimits:
    max_words: int = 12
    max_expansions: int = 200_000


@dataclass(frozen=True)
class Realization:
    tokens: tuple[str, ...]
    derivation: Derivation
    sem: Term
    cost: int


def symbol_counts(term: Term) -> Counter:
    """Multiset of predicate symbols (name and arity) and constant symbols
    occurring in a term.

    Word meanings never drop or duplicate their arguments, so every
    symbol a shifted entry introduces survives into the final semantics;
    the goal's symbol multiset therefore bounds what may be shifted.  Beta
    reduction never changes a predicate's argument count, so a goal
    predicate at an arity no entry introduces has no realization.
    """
    counts: Counter = Counter()
    stack = [term]
    while stack:
        t = stack.pop()
        match t:
            case Pred(name, args):
                counts[("p", name, len(args))] += 1
                stack.extend(args)
            case Const(name):
                counts[("c", name)] += 1
            case Abs(_, body):
                stack.append(body)
            case App(a, b) | Conj(a, b):
                stack.append(a)
                stack.append(b)
            case _:
                pass
    return counts


def _suffixes(cat: Category) -> set[Category]:
    out = {cat}
    while isinstance(cat, (Forward, Backward)):
        cat = cat.result
        out.add(cat)
    return out


def _right_reach(cat: Category, backward_functors: tuple[Category, ...]) -> tuple[Category, ...]:
    """Categories a constituent may end up with after absorbing material
    to its right (over-approximation)."""
    seen: dict[str, Category] = {format_category(cat): cat}
    frontier = [cat]
    while frontier:
        c = frontier.pop()
        grown = []
        if isinstance(c, Forward):
            grown.append(c.result)
        for b in backward_functors:
            if unifies(b.arg, c):
                grown.append(b.result)
        for g in grown:
            key = format_category(g)
            if key not in seen:
                seen[key] = g
                frontier.append(g)
    return tuple(seen.values())


def _coord_head_arity(cat: Category, sem: Term) -> int | None:
    """Arity of the Church tuple this entry builds with its left argument
    as first component, or None for ordinary entries.

    Recognizes `\\y. \\x. \\f. f x y` under `(T\\A)/B` (pair) and
    `\\p. \\x. \\f. p (f x)` (tuple extension by one component).
    """
    if not (isinstance(cat, Forward) and isinstance(cat.result, Backward)):
        return None
    if not (isinstance(sem, Abs) and isinstance(sem.body, Abs)
            and isinstance(sem.body.body, Abs)):
        return None
    right_p, left_p, f = sem.param, sem.body.param, sem.body.body.param
    t = sem.body.body.body
    if (isinstance(t, App) and isinstance(t.fn, App)
            and t.fn.fn == Var(f) and t.fn.arg == Var(left_p)
            and t.arg == Var(right_p)):
        return 2
    if (isinstance(t, App) and t.fn == Var(right_p)
            and isinstance(t.arg, App) and t.arg.fn == Var(f)
            and t.arg.arg == Var(left_p)):
        return 3
    return None


def _may_follow(top: Category, reach: tuple[Category, ...]) -> bool:
    """Could a constituent with right-reach `reach` ever combine with the
    constituent `top` on its left?"""
    if isinstance(top, Forward) and not isinstance(top.arg, Atom):
        return True  # composition can build functor arguments we do not enumerate
    for c in reach:
        if isinstance(top, Forward):
            if unifies(top.arg, c):
                return True
            if isinstance(c, Forward) and unifies(top.arg, c.result):
                return True
        if isinstance(c, Backward):
            if unifies(c.arg, top):
                return True
            if isinstance(top, Backward) and unifies(c.arg, top.result):
                return True
    return False


def _owned(lex: Lexicon, table):
    """`table(lex)`, made on the first call and kept by `lex` for the rest."""
    out = lex._tables.get(table)
    if out is None:
        out = lex._tables.setdefault(table, table(lex))
    return out


class _Domain:
    """Tables over one lexicon's entries."""

    def __init__(self, lex: Lexicon):
        backward = tuple(
            {format_category(s): s
             for e in lex.entries for s in _suffixes(e.cat)
             if isinstance(s, Backward)}.values())
        self.entry_symbols = [symbol_counts(e.sem) for e in lex.entries]
        self.entry_reach = [_right_reach(e.cat, backward) for e in lex.entries]
        self.entry_coord_arity = [_coord_head_arity(e.cat, e.sem) for e in lex.entries]
        covering = [i for i, c in enumerate(self.entry_symbols) if c]
        self.max_preds = max((sum(self.entry_symbols[i].values()) for i in covering), default=1)
        self.min_cover_weight = min((lex.entries[i].weight for i in covering), default=1)
        # The first word of a sentence has nothing to its left, so its
        # right-closure must reach a root category outright.
        self.left_edge = tuple(
            i for i, reach in enumerate(self.entry_reach)
            if any(unifies(c, root) for c in reach for root in lex.root_cats))
        self._followers: dict[str, tuple[int, ...]] = {}

    def followers(self, top: Derivation) -> tuple[int, ...]:
        """Indices, ascending, of the entries that may be shifted onto `top`."""
        key = top.signature[0]
        out = self._followers.get(key)
        if out is None:
            out = tuple(i for i, reach in enumerate(self.entry_reach)
                        if _may_follow(top.cat, reach))
            self._followers[key] = out
        return out


class _Shapes:
    """What a base lexicon keeps to search once per goal shape: the names
    that clash with it, its placeholder lexicons by identifier count, and
    the realizations found for each shape.  Nothing here refers back to
    the base, so reference counting frees the base with its last user."""

    def __init__(self, base: Lexicon):
        self.taken = {e.word for e in base.entries} | {
            s[1] for e in base.entries for s in symbol_counts(e.sem) if s[0] == "c"}
        self.lexicons: dict[int, Lexicon] = {}
        self.found: dict[tuple, tuple[Realization, ...] | Exception] = {}


def _rename_derivation(d: Derivation, names: dict[str, str]) -> Derivation:
    return Derivation(d.cat, rename_constants(d.sem, names), d.rule, d.span,
                      tuple(_rename_derivation(c, names) for c in d.children),
                      names.get(d.word, d.word))


def realize_all(lex: Lexicon, goal: Goal, k: int = 1,
                limits: SearchLimits = SearchLimits(),
                audit: bool = False) -> list[Realization]:
    """Up to k distinct realizations in nondecreasing cost order.

    Ties in cost are broken by lexicographic token order.  Raises
    NoRealization when the space is exhausted with no result and
    LimitExceeded when the expansion budget runs out first; if the budget
    runs out after at least one result was found, the results found so
    far are returned.

    The identifiers of `lex` are spelled as placeholders `_0`, `_1`, ...
    when every goal constant is one of them and no identifier or
    placeholder is a word or constant of the base lexicon, and as
    themselves otherwise.  Each goal shape under that spelling is
    searched once, and its results are kept by the base lexicon.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if limits.max_words < 1 or limits.max_expansions < 1:
        raise ValueError("limits must be positive")
    base, names = lex.base or lex, lex.identifiers
    shapes = _owned(base, _Shapes)
    spelling = tuple(f"_{i}" for i in range(len(names)))
    constants = {s[1] for p in goal.predicates for s in symbol_counts(p) if s[0] == "c"}
    if not (constants <= set(names) and shapes.taken.isdisjoint(names + spelling)):
        spelling = names
    shape = Goal(tuple(rename_constants(p, dict(zip(names, spelling)))
                       for p in goal.predicates))
    key = (shape, spelling, k, limits, audit)
    # threads that race here at most search the same shape twice
    outcome = shapes.found.get(key)
    if outcome is None:
        slex = lex
        if spelling != names:
            slex = shapes.lexicons.get(len(names))
            if slex is None:
                # without the record, which would refer back to the base
                entries = extend_with_identifiers(base, spelling).entries
                slex = shapes.lexicons.setdefault(len(names), Lexicon(entries, base.root_cats))
        try:
            outcome = _search(slex, shape, k, limits, audit)
        except (NoRealization, LimitExceeded) as exc:
            outcome = exc.with_traceback(None)
        shapes.found[key] = outcome
    if isinstance(outcome, Exception):
        raise type(outcome)(*outcome.args)
    back = dict(zip(spelling, names))
    found = [Realization(tuple(back.get(t, t) for t in r.tokens),
                         _rename_derivation(r.derivation, back),
                         rename_constants(r.sem, back), r.cost)
             for r in outcome]
    return sorted(found, key=lambda r: (r.cost, r.tokens))[:k]


def _search(lex: Lexicon, goal: Goal, k: int, limits: SearchLimits,
            audit: bool) -> tuple[Realization, ...]:
    """Every realization the A* search finds before it can stop with k."""
    domain = _owned(lex, _Domain)
    goal_term = goal.as_term()
    goal_symbols = Counter()
    for p in goal.predicates:
        goal_symbols.update(symbol_counts(p))
    total = sum(goal_symbols.values())

    coverable = Counter()
    for syms in domain.entry_symbols:
        coverable |= syms
    missing = sorted(f"{s[1]}/{s[2]}" if s[0] == "p" else s[1]
                     for s in goal_symbols if coverable[s] == 0)
    if missing:
        raise NoRealization(f"no lexicon entry introduces {missing}")

    entries = lex.entries
    entry_items = [tuple(syms.items()) for syms in domain.entry_symbols]
    root_cats = lex.root_cats
    counter = itertools.count()

    # Word meanings keep their arguments intact, so a constituent whose
    # meaning is already ground can only end up verbatim inside the final
    # semantics; prune reductions whose ground meaning is no goal subterm.
    # Conjunctions may only join whole goal predicates, and coordination
    # tuples must line up with consecutive arguments of a goal predicate.
    goal_subterms: set[str] = set()
    goal_conjuncts: set[str] = set()
    goal_arg_windows: set[tuple[str, ...]] = set()

    def _ckey(t: Term) -> str:
        return format_term(canonical(t))

    def note_subterms(t: Term):
        goal_subterms.add(_ckey(t))
        if isinstance(t, Pred):
            keys = [_ckey(a) for a in t.args]
            for size in (2, 3):
                for i in range(len(keys) - size + 1):
                    goal_arg_windows.add(tuple(keys[i:i + size]))
            for a in t.args:
                note_subterms(a)
        elif isinstance(t, Conj):
            for c in term_conjuncts(t):
                goal_conjuncts.add(_ckey(c))
                note_subterms(c)
        elif isinstance(t, App):
            note_subterms(t.fn)
            note_subterms(t.arg)

    for p in goal.predicates:
        note_subterms(p)
        goal_conjuncts.add(_ckey(p))

    def tuple_components(sem: Term) -> list[Term] | None:
        # \f. f a1 ... an with ground components (a coordination tuple)
        if not isinstance(sem, Abs):
            return None
        parts: list[Term] = []
        t = sem.body
        while isinstance(t, App):
            parts.append(t.arg)
            t = t.fn
        if not (isinstance(t, Var) and t.name == sem.param and len(parts) >= 2):
            return None
        parts.reverse()
        return parts if all(is_ground(p) for p in parts) else None

    def reduction_ok(d: Derivation) -> bool:
        sem = d.sem
        if is_ground(sem):
            if isinstance(sem, Conj):
                return all(_ckey(c) in goal_conjuncts for c in term_conjuncts(sem))
            return d.signature[1] in goal_subterms
        parts = tuple_components(sem)
        if parts is not None:
            return tuple(_ckey(p) for p in parts) in goal_arg_windows
        return True

    # first components of goal argument windows, by window size
    window_heads: dict[int, set[str]] = {}
    for w in goal_arg_windows:
        window_heads.setdefault(len(w), set()).add(w[0])

    # one lexical derivation per (entry index, position), so that each
    # computes its signature once
    lex_memo: dict[tuple[int, int], Derivation] = {}
    # covering shifts still needed, at the cheapest covering weight
    h_table = [ceil(u / domain.max_preds) * domain.min_cover_weight for u in range(total + 1)]

    # state: (stack, covered Counter, words, g)
    start = ((), Counter(), (), 0)
    heap: list[tuple[int, int, tuple]] = [(h_table[total], next(counter), start)]
    closed: set = set()
    expansions = 0
    limit_hit = False
    found: dict[tuple[str, ...], Realization] = {}
    found_costs: list[int] = []

    while heap:
        if len(found_costs) >= k and heap[0][0] > found_costs[k - 1]:
            break
        f, _, state = heapq.heappop(heap)
        stack, covered, words, g = state
        key = (tuple(d.signature for d in stack), tuple(sorted(covered.items())), words)
        if key in closed:
            continue
        closed.add(key)

        if expansions >= limits.max_expansions:
            limit_hit = True
            break
        expansions += 1

        uncovered = total - sum(covered.values())
        h_here = h_table[uncovered]
        if len(stack) == 1 and uncovered == 0:
            d = stack[0]
            if any(unifies(d.cat, r) for r in root_cats):
                if symbol_counts(d.sem) == goal_symbols and equivalent(d.sem, goal_term):
                    if words not in found:
                        found[words] = Realization(words, d, d.sem, g)
                        found_costs.append(g)

        # reduce the top two constituents
        if len(stack) >= 2:
            for d in combine(stack[-2], stack[-1], normal_form=True):
                if not reduction_ok(d):
                    continue
                heapq.heappush(heap, (g + h_here, next(counter),
                                      (stack[:-2] + (d,), covered, words, g)))

        # shift a lexicon entry
        if len(words) < limits.max_words:
            budget = (limits.max_words - len(words)) * domain.max_preds
            if budget < uncovered:
                continue
            if stack:
                top = stack[-1]
                candidates = domain.followers(top)
                # a coordinator's left argument is the current top; if that
                # is already ground it must open a window
                top_key = top.signature[1] if is_ground(top.sem) else None
            else:
                candidates = domain.left_edge
                top_key = None
            pos = len(words)
            for i in candidates:
                items = entry_items[i]
                if items and any(covered[s] + c > goal_symbols[s] for s, c in items):
                    continue
                arity = domain.entry_coord_arity[i]
                if (top_key is not None and arity is not None
                        and top_key not in window_heads.get(arity, ())):
                    continue
                entry = entries[i]
                d = lex_memo.get((i, pos))
                if d is None:
                    d = Derivation(entry.cat, entry.sem, "Lex", (pos, pos + 1), (), entry.word)
                    lex_memo[(i, pos)] = d
                syms = domain.entry_symbols[i]
                new_covered = covered + syms if syms else covered
                new_u = uncovered - sum(syms.values())
                ng = g + entry.weight
                if audit:
                    assert h_here <= entry.weight + h_table[new_u], \
                        "heuristic is not consistent"
                heapq.heappush(heap, (ng + h_table[new_u], next(counter),
                                      (stack + (d,), new_covered, words + (entry.word,), ng)))

    if found:
        return tuple(found.values())
    if limit_hit:
        raise LimitExceeded(f"no realization within {limits.max_expansions} expansions")
    raise NoRealization("search space exhausted")


def realize(lex: Lexicon, goal: Goal, limits: SearchLimits = SearchLimits(),
            audit: bool = False) -> Realization:
    """Minimum-cost realization of the goal (ties: lexicographic tokens)."""
    return realize_all(lex, goal, 1, limits, audit)[0]
