"""Surface realization as A* search over shift-reduce derivation states.

The communicative goal is a multiset of ground predicates.  A state is a
stack of adjacent constituents plus the multiset of predicate and
constant symbols introduced so far.  Successors either shift a lexicon
entry whose symbols still fit inside the goal, or reduce the top two
stack constituents with one combinator.  Search cost is the summed
entry weight of the shifted words, and the heap is ordered on cost plus
an outside estimate of the words still to come (below).

Each search keeps one table of shift candidates, keyed on the stack's
top: its category and, when ground, its canonical meaning.  It holds the
entries whose symbols fit inside the whole goal and that could interact
with the top.  When every root category and every argument category of
every entry is an atom, a complete derivation fills each slot of each
word with a whole constituent of an atomic category, so an entry stays
only if a least fixpoint over the fitting entries (which also weighs
what each slot needs) finds a constituent for each of its slots.  The
first word must reach a root category on its own; a later word must
combine with the constituent to its left, directly or after absorbing
later material, since reduction only touches the top two stack items; a
coordinator of a ground left argument must open a window of consecutive
goal arguments.  A reduction is kept only if every predicate in its
meaning matches a goal subterm of its name and arity, with equal
constant arguments and matching predicate arguments, since beta
reduction never removes a predicate, and a coordination tuple must line
up with consecutive arguments of a goal predicate.  Reachable categories
are over-approximated from the lexicon, so these filters only discard
provably dead states (provided word meanings use each argument exactly
once, which `load_lexicon` checks).  A shift then tests only what depends
on the state: the words left and the symbols still uncovered.

The estimate (after Lewis and Steedman 2014) sums what each goal symbol
not yet introduced costs, what the top's forward slots need, and what
each lower item's forward slots but its next one need.  A slot atom
needs the least weight of the symbol-free words in a constituent that
fills it, a word with symbols needing nothing; a symbol costs the least,
per symbol, that an entry introducing it weighs plus what its forward
slots need.  With atomic slots this is admissible: each charged slot is
filled by later words alone (the items above a lower item lie in its
next slot), and two charged constituents share no symbol-free word, as
one nests in another only below a word with symbols, whose slots are
its own charge.  Other lexicons charge symbols only.  A reduction keeps
the slots its parts counted, so it keeps the estimate.  The estimate is
not consistent: after `between`, whose slot needs `and`, shifting an
identifier lowers g + h by 1, which `and` pays back.  So the first
path to a stack need not be the cheapest: when homonyms of different
weight split the same words differently among stack items, a dearer
path can reach the stack while the cheaper one still waits behind a
charge.  A state's key is therefore its words, g, and for each stack
item its `Derivation.nf_signature`: its category, canonical semantics
and whether it is a composition, which normal form bars from one side
of a rule.  The key fixes what the state can become, and h, since linear
meanings keep every symbol they introduce, so the first expansion of a
key loses nothing.  The tables the search consults are built on a
lexicon's first realization and kept by that lexicon, not by the
module, so one lexicon may serve concurrent realizations; the
estimate's are made per search, with the fixpoint above.

Each search also keeps its reductions: each pair of constituent
signatures is combined once per search, with the two normal-form flags,
and a later pair with the same signatures and flags gets the same
results, filtered once.  Constituents with one signature differ only in
the names of bound variables and in the order and grouping of
conjunctions, which nothing the search reads of a constituent can tell
apart.  The search therefore returns words and costs, not derivations;
`chart.parse` of the words finds a derivation of the goal, as `--verify`
does.

Every call is looked up in a table kept by the base lexicon (the one
`extend_with_identifiers` first extended, or the lexicon itself), keyed
on the goal's shape, and searched only on a miss.  The search compares
names only for equality and shifts entries in lexicon order, so symbols
whose entries are equal up to the symbol are interchangeable: a class is
a run of predicates or constants whose entries mention nothing else, use
words no other entry uses, and lie next to each other, one symbol after
another, with the same categories, meanings up to the symbol and bound
names, weights and repeated words, in order.  A goal's members of a
class are renamed, in entry order, to the class's first members, and
its identifiers to the placeholders `_0`, `_1`, ...; every search step,
and the order of every shift, is then renamed alike, budget hits
included.  The table keeps each shape's whole found set; every call
spells its words back and breaks ties on token order.
"""

from __future__ import annotations

import heapq
import itertools
from collections import Counter
from dataclasses import dataclass
from math import inf, lcm

from .categories import Atom, Backward, Category, Forward, unifies
from .chart import Derivation, combine
from .lexicon import Lexicon, is_atomic, placeholder_lexicon
from .terms import (
    Abs,
    App,
    Conj,
    Const,
    Pred,
    Term,
    Var,
    canonical_text,
    conj_of,
    equivalent,
    is_ground,
    rename_constants,
    subterms,
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
    return Counter(("p", t.name, len(t.args)) if isinstance(t, Pred) else ("c", t.name)
                   for t in subterms(term) if isinstance(t, (Pred, Const)))


def _suffixes(cat: Category) -> set[Category]:
    out = {cat}
    while isinstance(cat, (Forward, Backward)):
        cat = cat.result
        out.add(cat)
    return out


def _right_reach(cat: Category, backward_functors: tuple[Category, ...]) -> tuple[Category, ...]:
    """Categories a constituent may end up with after absorbing material
    to its right (over-approximation)."""
    seen: dict[Category, None] = {cat: None}
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
            if g not in seen:
                seen[g] = None
                frontier.append(g)
    return tuple(seen)


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


def _atomic_slots(cat: Category) -> tuple[Atom, tuple[Atom, ...], tuple[Atom, ...]]:
    """The result, the arguments and the forward arguments of `cat`, a
    category of an atomic lexicon."""
    args, forward = [], []
    while isinstance(cat, (Forward, Backward)):
        args.append(cat.arg)
        if isinstance(cat, Forward):
            forward.append(cat.arg)
        cat = cat.result
    return cat, tuple(args), tuple(forward)


def _estimate(lex: Lexicon, domain: _Domain, fitting: list[int]
              ) -> tuple[dict[Atom, int], dict[tuple, int], dict[int, int]]:
    """The outside estimate's tables for a search that may shift the
    entries `fitting`, in units of 1/`domain.scale`: the least weight of
    the symbol-free words that fill each slot atom a constituent can
    fill, the cost of each symbol, and what shifting each entry whose
    slots can all be filled adds (see the module docstring)."""
    entries, slots, sizes = lex.entries, domain.entry_slots, domain.entry_size
    free: dict[Atom, float] = {}
    if slots is not None:
        # a least fixpoint: a word with symbols needs nothing once its
        # slots can be filled, any other word its weight and its slots'
        free = dict.fromkeys([a for i in fitting for a in slots[i][1]], inf)
        rules = [(sizes[i], entries[i].weight * domain.scale, slots[i][1],
                  [a for a in free if a.name == slots[i][0].name and unifies(a, slots[i][0])])
                 for i in fitting]
        changed = True
        while changed:
            changed = False
            for charged, weight, args, fills in rules:
                need = sum([free[a] for a in args])
                cost = (0 if need < inf else inf) if charged else weight + need
                for a in fills:
                    if cost < free[a]:
                        free[a], changed = cost, True
        free = {a: w for a, w in free.items() if w < inf}
        fitting = [i for i in fitting if all(a in free for a in slots[i][1])]
    forward = {i: sum([free[a] for a in slots[i][2]]) if slots else 0 for i in fitting}
    cost: dict[tuple, int] = {}
    for i in fitting:
        for s in domain.entry_symbols[i]:
            each = (entries[i].weight * domain.scale + forward[i]) // sizes[i]
            cost[s] = min(cost.get(s, each), each)
    return free, cost, {i: forward[i] - sum([cost[s] * c for s, c in domain.entry_items[i]])
                        for i in fitting}


def _pattern_fits(t: Pred, g: Pred) -> bool:
    """Can the predicate `t` become `g`, a goal subterm of its name and
    arity?  A constant argument stays itself and a predicate argument
    stays a predicate; any other argument may become anything."""
    for a, b in zip(t.args, g.args):
        if isinstance(a, Const) and a != b:
            return False
        if isinstance(a, Pred) and not (isinstance(b, Pred) and b.name == a.name
                                        and len(b.args) == len(a.args) and _pattern_fits(a, b)):
            return False
    return True


class _Domain:
    """Tables over one lexicon's entries; they never grow once built."""

    def __init__(self, lex: Lexicon):
        backward = tuple(dict.fromkeys(
            s for e in lex.entries for s in _suffixes(e.cat) if isinstance(s, Backward)))
        self.entry_symbols = [symbol_counts(e.sem) for e in lex.entries]
        self.entry_items = [tuple(syms.items()) for syms in self.entry_symbols]
        self.entry_size = [sum(syms.values()) for syms in self.entry_symbols]
        # one lexical derivation per entry computes its signature once
        self.lexical = [Derivation(e.cat, e.sem, "Lex", (), e.word) for e in lex.entries]
        self.entry_reach = [_right_reach(e.cat, backward) for e in lex.entries]
        self.entry_coord_arity = [_coord_head_arity(e.cat, e.sem) for e in lex.entries]
        self.max_preds = max(self.entry_size, default=1) or 1
        # With atomic roots and arguments, a complete derivation fills
        # every slot of every word with a whole constituent of an atomic
        # category, whose head entry's slots are filled alike.
        self.entry_slots = [_atomic_slots(e.cat) for e in lex.entries] if is_atomic(lex) else None
        # the unit of the estimate is 1/scale of a weight
        self.scale = lcm(*filter(None, self.entry_size))


class _Shapes:
    """What a base lexicon keeps to search once per goal shape: the
    symbols it covers, its entries by symbol and by word, its classes,
    the words of each class member, and the realizations found for each
    shape.  Nothing here refers back to the base, so reference counting
    frees the base with its last user."""

    def __init__(self, base: Lexicon):
        entries = base.entries
        symbols = [symbol_counts(e.sem) for e in entries]
        self.coverable = set().union(*symbols)
        # entry indices by ("p" or "c", name) of each symbol and by ("w", word)
        self.users: dict[tuple[str, str], list[int]] = {}
        for i, e in enumerate(entries):
            for s in {s[:2] for s in symbols[i]} | {("w", e.word)}:
                self.users.setdefault(s, []).append(i)
        self.words: dict[tuple[str, str], tuple[str, ...]] = {}
        runs: list[tuple] = []
        last = None  # the key and last entry of the symbol `runs` ends with
        for s, idx in sorted(self.users.items(), key=lambda item: item[1]):
            words = tuple(entries[i].word for i in idx)
            if (s[0] == "w" or idx[-1] - idx[0] != len(idx) - 1
                    or any({t[:2] for t in symbols[i]} != {s} for i in idx)
                    or any(not set(self.users["w", w]) <= set(idx) for w in words)):
                continue
            hole = ({s[1]: ""}, {}) if s[0] == "c" else ({}, {s[1]: ""})
            key = tuple((entries[i].cat, canonical_text(rename_constants(entries[i].sem, *hole)),
                         entries[i].weight, words.index(entries[i].word)) for i in idx)
            if last == (key, idx[0] - 1):
                runs[-1] += (s,)
            else:
                runs.append((s,))
            last = (key, idx[-1])
            self.words[s] = words
        # each class with the symbols and words a clashing name would spoil
        self.classes = [(run, set(run) | {("w", w) for s in run for w in self.words[s]})
                        for run in runs if len(run) > 1]
        self.found: dict[tuple, tuple[Realization, ...] | Exception] = {}


def realize_all(lex: Lexicon, goal: Goal, k: int = 1,
                limits: SearchLimits = SearchLimits()) -> list[Realization]:
    """Up to k distinct realizations in nondecreasing cost order.

    Ties in cost are broken by lexicographic token order.  Raises
    NoRealization when the space is exhausted with no result and
    LimitExceeded when the expansion budget runs out first; if the budget
    runs out after at least one result was found, the results found so
    far are returned.

    A class of the base lexicon is set aside when an identifier of `lex`
    is spelled like one of its names or words, and the identifiers are
    spelled as themselves when one of them or of the placeholders is a
    name or word of the base.  Each goal shape is searched once, and its
    results are kept by the base lexicon.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if limits.max_words < 1 or limits.max_expansions < 1:
        raise ValueError("limits must be positive")
    base, names = lex.base or lex, lex.identifiers
    shapes = base.table(_Shapes)
    symbols = set().union(*map(symbol_counts, goal.predicates))
    identifiers = tuple(("c", n) for n in names)
    # named as the statement has them, before any renaming
    missing = sorted(f"{s[1]}/{s[2]}" if s[0] == "p" else s[1] for s in symbols
                     if s not in shapes.coverable and s[:2] not in identifiers)
    if missing:
        raise NoRealization(f"no lexicon entry introduces {missing}")
    present = {s[:2] for s in symbols}
    placeholders = tuple(f"_{i}" for i in range(len(names)))
    used = shapes.users.keys() & {(kind, n) for n in names + placeholders for kind in "cw"}
    classes = [(run, run) for run, spoilers in shapes.classes if spoilers.isdisjoint(used)]
    spelling = names
    if not used:
        # an identifier's one entry, `name := NP : name`, is spelled with its name
        spelling = placeholders
        classes.append((identifiers, tuple(("c", n) for n in spelling)))
    to: dict[str, dict[str, str]] = {"c": {}, "p": {}, "w": {}}
    for members, targets in classes:
        for m, t in zip([m for m in members if m in present], targets):
            to[m[0]][m[1]] = t[1]
            to["w"].update(zip(shapes.words.get(m, m[1:]), shapes.words.get(t, t[1:])))
    shape = Goal(tuple(rename_constants(p, to["c"], to["p"]) for p in goal.predicates))
    slex = lex if spelling == names else placeholder_lexicon(base, len(names))
    key = (shape, spelling, k, limits)
    # threads that race here at most search the same shape twice
    outcome = shapes.found.get(key)
    if outcome is None:
        try:
            outcome = _search(slex, shape, k, limits)
        except (NoRealization, LimitExceeded) as exc:
            outcome = exc.with_traceback(None)
        shapes.found[key] = outcome
    if isinstance(outcome, Exception):
        raise type(outcome)(*outcome.args)
    back = {b: a for a, b in to["w"].items()}
    found = sorted((r.cost, tuple(back.get(t, t) for t in r.tokens)) for r in outcome)
    return [Realization(tokens, cost) for cost, tokens in found[:k]]


def _search(lex: Lexicon, goal: Goal, k: int,
            limits: SearchLimits) -> tuple[Realization, ...]:
    """Every realization the A* search finds before it can stop with k;
    the caller has checked that `lex` introduces every goal symbol."""
    domain = lex.table(_Domain)
    goal_term = goal.as_term()
    goal_symbols = symbol_counts(goal_term)
    total = sum(goal_symbols.values())

    entries = lex.entries
    root_cats = lex.root_cats
    counter = itertools.count()

    # Word meanings keep their arguments intact and beta reduction never
    # removes a predicate, so every predicate in a constituent's meaning
    # ends up in the final semantics with its name, arity, constant
    # arguments and predicate arguments; prune reductions with a
    # predicate that matches no goal subterm.  Coordination tuples must
    # line up with consecutive arguments of a goal predicate.
    goal_preds: dict[tuple[str, int], list[Pred]] = {}
    goal_arg_windows: set[tuple[str, ...]] = set()

    for t in subterms(goal_term):
        if isinstance(t, Pred):
            goal_preds.setdefault((t.name, len(t.args)), []).append(t)
            keys = [canonical_text(a) for a in t.args]
            for size in (2, 3):
                for i in range(len(keys) - size + 1):
                    goal_arg_windows.add(tuple(keys[i:i + size]))

    def pattern_ok(sem: Term) -> bool:
        stack = [sem]
        while stack:
            t = stack.pop()
            match t:
                case Pred(name, args):
                    if not any(_pattern_fits(t, g) for g in goal_preds.get((name, len(args)), ())):
                        return False
                    stack.extend(args)
                case Abs(_, body):
                    stack.append(body)
                case App(a, b) | Conj(a, b):
                    stack.append(a)
                    stack.append(b)
        return True

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
        if not pattern_ok(sem):
            return False
        parts = tuple_components(sem)
        if parts is not None:
            return tuple(canonical_text(p) for p in parts) in goal_arg_windows
        return True

    # shift candidates by top key, among the entries that fit the whole
    # goal and, when slots are atomic, whose slots such entries can fill
    fitting = [i for i, items in enumerate(domain.entry_items)
               if all(goal_symbols[s] >= c for s, c in items)]
    free, symbol_cost, shift_cost = _estimate(lex, domain, fitting)
    fitting = list(shift_cost)
    shifts: dict[tuple[str, str | None] | None, tuple[tuple[int, ...], int]] = {}
    reductions: dict[tuple, list[Derivation]] = {}  # kept results by signatures and flags
    scale = domain.scale

    def shift_candidates(top: Derivation | None, key) -> tuple[tuple[int, ...], int]:
        # the candidates, and the need of the top's next slot, which they fill
        if top is None:
            # the first word has nothing to its left, so its
            # right-closure must reach a root category outright
            return tuple(i for i in fitting if any(
                unifies(c, root) for c in domain.entry_reach[i] for root in root_cats)), 0
        # a coordinator's left argument is the top; if that is ground it
        # must open a goal argument window of the coordinator's arity
        ground = key[1]
        opens = {None} | {len(w) for w in goal_arg_windows if w[0] == ground}
        nxt = free.get(top.cat.arg, 0) if isinstance(top.cat, Forward) else 0
        return tuple(i for i in fitting if _may_follow(top.cat, domain.entry_reach[i])
                     and (ground is None or domain.entry_coord_arity[i] in opens)), nxt

    # state: (stack, covered Counter, words, g, h in units of 1/scale)
    h = sum(symbol_cost.get(s, 0) * c for s, c in goal_symbols.items())
    heap: list[tuple[int, int, tuple]] = [(-(-h // scale), next(counter), ((), Counter(), (), 0, h))]
    closed: set = set()
    expansions = 0
    limit_hit = False
    found: dict[tuple[str, ...], int] = {}
    bound = inf  # the k-th cost found, once k are

    while heap:
        if heap[0][0] > bound:
            break
        f, _, state = heapq.heappop(heap)
        stack, covered, words, g, h = state
        key = (tuple([d.nf_signature for d in stack]), words, g)
        if key in closed:
            continue
        closed.add(key)

        if expansions >= limits.max_expansions:
            limit_hit = True
            break
        expansions += 1

        uncovered = total - sum(covered.values())
        if len(stack) == 1 and uncovered == 0:
            d = stack[0]
            if any(unifies(d.cat, r) for r in root_cats) and equivalent(d.sem, goal_term):
                if words not in found:
                    found[words] = g
                    if len(found) == k:
                        bound = g

        # reduce the top two constituents
        if len(stack) >= 2:
            left, right = stack[-2], stack[-1]
            pair = (left.signature, right.signature, left.rule == "FwdComp", right.rule == "BwdComp")
            results = reductions.get(pair)
            if results is None:
                results = reductions[pair] = [
                    d for d in combine(left, right, normal_form=True) if reduction_ok(d)]
            for d in results:
                # the result's forward slots are those its parts counted
                heapq.heappush(heap, (f, next(counter), (stack[:-2] + (d,), covered, words, g, h)))

        # shift a lexicon entry
        if len(words) < limits.max_words:
            # symbols the words after the shifted one can still cover
            budget = (limits.max_words - len(words) - 1) * domain.max_preds
            top = stack[-1] if stack else None
            top_key = top and (top.signature[0], top.signature[1] if is_ground(top.sem) else None)
            shift = shifts.get(top_key)
            if shift is None:
                shift = shifts[top_key] = shift_candidates(top, top_key)
            candidates, h_top = shift[0], h - shift[1]
            for i in candidates:
                new_u = uncovered - domain.entry_size[i]
                if budget < new_u:
                    continue  # a child that cannot finish is never pushed
                items = domain.entry_items[i]
                if items and any(covered[s] + c > goal_symbols[s] for s, c in items):
                    continue
                entry = entries[i]
                syms = domain.entry_symbols[i]
                new_covered = covered + syms if syms else covered
                ng = g + entry.weight
                nh = h_top + shift_cost[i]
                heapq.heappush(heap, (ng - (-nh // scale), next(counter),
                                      (stack + (domain.lexical[i],), new_covered,
                                       words + (entry.word,), ng, nh)))

    if found:
        return tuple(Realization(words, g) for words, g in found.items())
    if limit_hit:
        raise LimitExceeded(f"no realization within {limits.max_expansions} expansions")
    raise NoRealization("search space exhausted")


def realize(lex: Lexicon, goal: Goal, limits: SearchLimits = SearchLimits()) -> Realization:
    """Minimum-cost realization of the goal (ties: lexicographic tokens)."""
    return realize_all(lex, goal, 1, limits)[0]
