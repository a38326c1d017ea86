"""Lambda-core tests.

Derived expectations are checked against independent oracles written
here: a de Bruijn converter for alpha-equivalence, exhaustive reduction
over all redex orders for confluence, leftmost-outermost reduction
restarted from the root for the normalizer's step order, and multiset
flattening for conjunction equivalence.
"""

import random
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from ccgcomment.terms import (
    Abs,
    App,
    Conj,
    Const,
    FuelExhausted,
    Pred,
    TermSyntaxError,
    Var,
    beta_normalize,
    canonical_text,
    conjuncts,
    equivalent,
    format_term,
    free_vars,
    is_ground,
    node_count,
    parse_term,
    rename_constants,
    substitute,
    subterms,
)


# ---------------------------------------------------------------------------
# Oracle 1: de Bruijn representation for alpha-equivalence checks.
# ---------------------------------------------------------------------------

def debruijn(term, env=()):
    match term:
        case Var(name):
            return ("var", env.index(name)) if name in env else ("free", name)
        case Const(name):
            return ("const", name)
        case Pred(name, args):
            return ("pred", name, tuple(debruijn(a, env) for a in args))
        case Abs(param, body):
            return ("abs", debruijn(body, (param,) + env))
        case App(fn, arg):
            return ("app", debruijn(fn, env), debruijn(arg, env))
        case Conj(left, right):
            return ("conj", debruijn(left, env), debruijn(right, env))
    raise TypeError(term)


def alpha_equal(a, b):
    return debruijn(a) == debruijn(b)


# ---------------------------------------------------------------------------
# Oracle 2: reduce along every redex order (terms are tiny).
# ---------------------------------------------------------------------------

def all_single_steps(term):
    """Every term reachable by one beta step anywhere."""
    out = []
    match term:
        case App(Abs(p, b), a):
            out.append(substitute(b, p, a))
        case _:
            pass
    match term:
        case App(fn, arg):
            out.extend(App(s, arg) for s in all_single_steps(fn))
            out.extend(App(fn, s) for s in all_single_steps(arg))
        case Abs(p, b):
            out.extend(Abs(p, s) for s in all_single_steps(b))
        case Conj(l, r):
            out.extend(Conj(s, r) for s in all_single_steps(l))
            out.extend(Conj(l, s) for s in all_single_steps(r))
        case Pred(n, args):
            for i, a in enumerate(args):
                out.extend(Pred(n, args[:i] + (s,) + args[i + 1:])
                           for s in all_single_steps(a))
        case _:
            pass
    return out


def all_normal_forms(term, limit=4000):
    seen = set()
    normals = set()
    frontier = [term]
    steps = 0
    while frontier:
        steps += 1
        assert steps < limit, "oracle reduction did not terminate"
        t = frontier.pop()
        key = debruijn(t)
        if key in seen:
            continue
        seen.add(key)
        succ = all_single_steps(t)
        if not succ:
            normals.add(key)
        else:
            frontier.extend(succ)
    return normals


# ---------------------------------------------------------------------------
# substitute
# ---------------------------------------------------------------------------

def test_substitute_at_redex_gives_applied_predicate():
    body = Pred("sort'", (Var("x"),))
    assert substitute(body, "x", Const("array'")) == Pred("sort'", (Const("array'"),))


def test_substitute_mismatched_variable_is_identity():
    assert substitute(Var("y"), "x", Const("c")) == Var("y")


def test_substitute_renames_to_avoid_capture():
    # (\y. x y)[x := y] must not capture the substituted y
    term = Abs("y", App(Var("x"), Var("y")))
    result = substitute(term, "x", Var("y"))
    expected = Abs("y'", App(Var("y"), Var("y'")))
    assert result == expected
    assert alpha_equal(result, Abs("z", App(Var("y"), Var("z"))))
    assert not alpha_equal(result, Abs("z", App(Var("z"), Var("z"))))


def test_substitute_no_capture_needed_keeps_binder():
    term = Abs("y", App(Var("x"), Var("y")))
    assert substitute(term, "x", Const("c")) == Abs("y", App(Const("c"), Var("y")))


def test_substitute_shadowed_binder_untouched():
    term = Abs("x", Var("x"))
    assert substitute(term, "x", Const("c")) == term


def test_substitute_keeps_a_binder_the_variable_is_not_free_under():
    # (\y. y z)[x := y]: the binder shares a name with a free variable of
    # the value, but nothing is substituted under it, so it is not renamed
    term = Abs("y", App(Var("y"), Var("z")))
    assert substitute(term, "x", Var("y")) == term
    assert substitute(App(term, Var("x")), "x", Var("y")) == App(term, Var("y"))


# ---------------------------------------------------------------------------
# beta_normalize
# ---------------------------------------------------------------------------

def test_normalize_sort_array_composition():
    fn = Abs("x", Pred("sort'", (Var("x"),)))
    assert beta_normalize(App(fn, Const("array'"))) == Pred("sort'", (Const("array'"),))


def test_normalize_already_normal():
    assert beta_normalize(Const("array'")) == Const("array'")


def test_normalize_conj_body():
    # (\x. x & p()) q() -> q() & p(); all reduction orders agree (oracle)
    term = App(Abs("x", Conj(Var("x"), Pred("p"))), Pred("q"))
    expected = Conj(Pred("q"), Pred("p"))
    assert beta_normalize(term) == expected
    assert all_normal_forms(term) == {debruijn(expected)}


def test_normalize_is_idempotent():
    term = App(Abs("x", App(Var("x"), Const("c"))), Abs("y", Pred("p", (Var("y"),))))
    once = beta_normalize(term)
    assert beta_normalize(once) == once


def test_normalize_rejects_nonpositive_fuel():
    with pytest.raises(ValueError):
        beta_normalize(Const("c"), fuel=0)


def test_normalize_fuel_exhausted_on_omega():
    omega = Abs("x", App(Var("x"), Var("x")))
    with pytest.raises(FuelExhausted):
        beta_normalize(App(omega, omega), fuel=50)
    with pytest.raises(FuelExhausted, match="within 122 steps"):
        beta_normalize(App(omega, omega))


def test_default_fuel_counts_the_input_term():
    # (\x. x x x) (\x. x x x) grows at every step; its budget is sized
    # on the 13 nodes it starts with
    w3 = Abs("x", App(App(Var("x"), Var("x")), Var("x")))
    with pytest.raises(FuelExhausted, match="within 162 steps"):
        beta_normalize(App(w3, w3))


def _identity_chain(n):
    # \x. x applied n times to c, innermost last: exactly n steps to normal
    term = Const("c")
    for _ in range(n):
        term = App(Abs("x", Var("x")), term)
    return term


def test_normalize_default_fuel_covers_long_reductions():
    # 50 steps is past the 42 that every default budget allows, and well
    # inside this term's 10 * 151 + 32
    assert beta_normalize(_identity_chain(50)) == Const("c")


@pytest.mark.parametrize("steps", [1, 3, 42, 43, 50])
def test_normalize_may_take_exactly_fuel_steps(steps):
    term = _identity_chain(steps)
    assert beta_normalize(term, fuel=steps) == Const("c")
    if steps > 1:
        with pytest.raises(FuelExhausted, match=f"within {steps - 1} steps"):
            beta_normalize(term, fuel=steps - 1)


def test_normalize_walks_spines_in_a_loop():
    # ((I I) I) ... c and I (I (... c)), 900 links each, at the default
    # recursion limit: a spine link costs the walk no frame
    left = reduce(App, [Abs("x", Var("x"))] * 900 + [Const("c")])
    assert beta_normalize(left) == beta_normalize(_identity_chain(900)) == Const("c")


def _normal_or_error(term, **fuel):
    try:
        return beta_normalize(term, **fuel)
    except FuelExhausted as exc:
        return str(exc)


def _random_term(rng, depth, scope):
    pick = rng.random()
    if depth <= 0 or pick < 0.25:
        if scope and rng.random() < 0.6:
            return Var(rng.choice(scope))
        return Const(rng.choice("abc"))
    if pick < 0.5:
        v = rng.choice("xyz")
        return Abs(v, _random_term(rng, depth - 1, scope + [v]))
    if pick < 0.75:
        return App(_random_term(rng, depth - 1, scope), _random_term(rng, depth - 1, scope))
    if pick < 0.9:
        return Conj(_random_term(rng, depth - 1, scope), _random_term(rng, depth - 1, scope))
    return Pred(rng.choice("pq"), (_random_term(rng, depth - 1, scope),))


def test_confluence_spot_check():
    # all reduction orders of random small terms reach one normal form
    rng = random.Random(20240817)
    checked = 0
    while checked < 120:
        term = _random_term(rng, 3, [])
        if node_count(term) > 12:
            continue
        try:
            normals = all_normal_forms(term)
        except AssertionError:
            continue  # diverging term (e.g. contains omega); skip
        if not normals:
            continue
        assert len(normals) == 1
        assert debruijn(beta_normalize(term, fuel=500)) in normals
        checked += 1


def test_default_fuel_is_ten_per_node_plus_32():
    # random terms, diverging ones included, end alike with the default
    # budget and with that budget given explicitly
    rng = random.Random(1717)
    for _ in range(400):
        term = _random_term(rng, 4, [])
        assert _normal_or_error(term) == _normal_or_error(term, fuel=10 * node_count(term) + 32)


# ---------------------------------------------------------------------------
# Oracle 3: leftmost-outermost reduction, restarted from the root per step.
# ---------------------------------------------------------------------------

def _reduce_once(term):
    """One leftmost-outermost beta step; None when the term is normal."""
    match term:
        case App(Abs(param, body), arg):
            return substitute(body, param, arg)
        case App(fn, arg):
            step = _reduce_once(fn)
            if step is not None:
                return App(step, arg)
            step = _reduce_once(arg)
            return App(fn, step) if step is not None else None
        case Abs(param, body):
            step = _reduce_once(body)
            return Abs(param, step) if step is not None else None
        case Conj(left, right):
            step = _reduce_once(left)
            if step is not None:
                return Conj(step, right)
            step = _reduce_once(right)
            return Conj(left, step) if step is not None else None
        case Pred(name, args):
            for i, a in enumerate(args):
                step = _reduce_once(a)
                if step is not None:
                    return Pred(name, args[:i] + (step,) + args[i + 1:])
            return None
        case Var() | Const():
            return None
    raise TypeError(f"not a term: {term!r}")


def _restarting_normalize(term, fuel=None):
    """`beta_normalize`'s contract, one `_reduce_once` from the root at a
    time, with its fuel rules."""
    budget = 42 if fuel is None else fuel
    steps = 0
    start = term
    while (step := _reduce_once(term)) is not None:
        steps += 1
        if steps > budget:
            if fuel is None:
                fuel = budget = 10 * node_count(start) + 32
            if steps > budget:
                raise FuelExhausted(f"no normal form within {budget} steps")
        term = step
    return term


@pytest.mark.parametrize("fuel", [None, 1, 3, 20])
def test_normalize_makes_the_restarting_steps_in_order(fuel):
    # the one walk contracts the redexes that restarting from the root
    # finds, in the same order: normal forms agree to the bound names, and
    # fuel runs out after the same number of steps
    rng = random.Random(4_000 + (fuel or 0))
    normal = 0
    for _ in range(2_000):
        term = _random_term(rng, rng.randint(3, 6), [])
        try:
            expected = _restarting_normalize(term, fuel)
        except FuelExhausted as exc:
            expected = str(exc)
        assert _normal_or_error(term, fuel=fuel) == expected
        if not isinstance(expected, str):
            # a normal term comes back as itself, not as a copy
            assert beta_normalize(expected, fuel) is expected
            normal += 1
    assert normal >= 500


# ---------------------------------------------------------------------------
# equivalent
# ---------------------------------------------------------------------------

def conjunct_multiset(term):
    """Oracle: sorted de Bruijn keys of the flattened conjunct list."""
    return sorted(repr(debruijn(c)) for c in conjuncts(term))


def test_equivalent_commutes_conjunction():
    assert equivalent(Conj(Pred("p"), Pred("q")), Conj(Pred("q"), Pred("p")))


def test_equivalent_alpha():
    assert equivalent(Abs("x", Var("x")), Abs("z", Var("z")))


def test_equivalent_nested_conjunction_multiset():
    a = Conj(Pred("p"), Conj(Pred("q"), Pred("r")))
    b = Conj(Conj(Pred("r"), Pred("p")), Pred("q"))
    assert conjunct_multiset(a) == conjunct_multiset(b)
    assert equivalent(a, b)
    c = Conj(Pred("p"), Conj(Pred("p"), Pred("q")))
    assert conjunct_multiset(a) != conjunct_multiset(c)
    assert not equivalent(a, c)


def test_equivalent_respects_multiplicity():
    assert not equivalent(Conj(Pred("p"), Pred("p")), Pred("p"))


names = st.sampled_from(["x", "y", "z"])
consts = st.sampled_from(["a", "b", "c"])


def normal_terms(scope=()):
    # beta-normal by construction: no App of an Abs
    base = st.one_of(
        st.builds(Const, consts),
        *( [st.builds(Var, st.sampled_from(list(scope)))] if scope else [] ),
        st.builds(Pred, st.sampled_from(["p", "q"]), st.just(())),
    )
    return st.recursive(
        base,
        lambda inner: st.one_of(
            st.builds(Conj, inner, inner),
            st.builds(lambda n, b: Abs(n, b), names, inner),
            st.builds(lambda n, a: Pred(n, (a,)), st.sampled_from(["p", "q"]), inner),
        ),
        max_leaves=6,
    )


@settings(max_examples=150, deadline=None)
@given(normal_terms(), normal_terms(), normal_terms())
def test_equivalent_is_an_equivalence_relation(a, b, c):
    assert equivalent(a, a)
    if equivalent(a, b):
        assert equivalent(b, a)
    if equivalent(a, b) and equivalent(b, c):
        assert equivalent(a, c)


@settings(max_examples=150, deadline=None)
@given(normal_terms())
def test_canonical_is_stable(t):
    assert canonical_text(canonical(t)) == canonical_text(t)


# ---------------------------------------------------------------------------
# ground terms
# ---------------------------------------------------------------------------

def test_ground_excludes_vars_and_abstractions():
    assert is_ground(Pred("p", (Const("a"), Pred("q"))))
    assert not is_ground(Pred("p", (Var("x"),)))
    assert not is_ground(Abs("x", Pred("p")))


# ---------------------------------------------------------------------------
# textual syntax
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("text,expected", [
    ("array'", Const("array'")),
    (r"\x. sort'(x)", Abs("x", Pred("sort'", (Var("x"),)))),
    ("p() & q()", Conj(Pred("p"), Pred("q"))),
    ("a & b & c", Conj(Conj(Const("a"), Const("b")), Const("c"))),
    ("f x y", App(App(Const("f"), Const("x")), Const("y"))),
    ("f (x y)", App(Const("f"), App(Const("x"), Const("y")))),
    ("p(a, q(b))", Pred("p", (Const("a"), Pred("q", (Const("b"),))))),
    (r"\p. p (\x. \y. plus(x, y))",
     Abs("p", App(Var("p"), Abs("x", Abs("y", Pred("plus", (Var("x"), Var("y")))))))),
])
def test_parse_term(text, expected):
    assert parse_term(text) == expected


def test_parse_term_var_iff_bound():
    term = parse_term(r"\x. x y")
    assert term == Abs("x", App(Var("x"), Const("y")))


def test_parse_term_errors_report_position():
    with pytest.raises(TermSyntaxError) as err:
        parse_term(r"\x. (x")
    assert err.value.position >= 5
    with pytest.raises(TermSyntaxError):
        parse_term("p(a,)")
    with pytest.raises(TermSyntaxError):
        parse_term("a & & b")


@pytest.mark.parametrize("text", [
    "a", "a & b", "a & b & c", "a & (b & c)", "f x", "f x y", "f (x y)",
    "p()", "p(a, b)", r"\x. x", r"\x. \y. f x y", r"\x. p(x) & q()",
    r"f (\x. x)", "p(a & b)", r"p(\x. x, c)", r"(\x. x) a", "(a & b) c", "f (a & b)",
    r"(\x. p(x)) & q()", r"p() & (\x. x)", "f (g x)",
])
def test_print_parse_round_trip(text):
    term = parse_term(text)
    printed = format_term(term)
    # each case is written with the fewest parentheses
    assert printed == text
    assert parse_term(printed) == term
    # the printer is bit-stable on its own output
    assert format_term(parse_term(printed)) == printed


def ground_printables():
    base = st.one_of(st.builds(Const, consts), st.builds(Pred, st.sampled_from(["p", "q"]), st.just(())))
    return st.recursive(
        base,
        lambda inner: st.one_of(
            st.builds(Conj, inner, inner),
            st.builds(lambda n, a, b: Pred(n, (a, b)), st.sampled_from(["p", "q"]), inner, inner),
        ),
        max_leaves=8,
    )


@settings(max_examples=200, deadline=None)
@given(ground_printables())
def test_print_parse_identity_on_ground_terms(t):
    assert parse_term(format_term(t)) == t


def test_subterms_walks_left_to_right_preorder():
    p = Pred("p", (Const("b"), Pred("q")))
    app = App(Var("x"), Const("a"))
    conj = Conj(app, p)
    term = Abs("x", conj)
    assert list(subterms(term)) == [term, conj, app, Var("x"), Const("a"),
                                    p, Const("b"), Pred("q")]


def any_terms(max_leaves=8):
    # every node kind, applications and predicates of any arity included
    preds = st.sampled_from(["p", "q"])
    base = st.one_of(st.builds(Const, consts), st.builds(Var, names),
                     st.builds(Pred, preds, st.just(())))
    return st.recursive(
        base,
        lambda inner: st.one_of(
            st.builds(App, inner, inner),
            st.builds(Conj, inner, inner),
            st.builds(Abs, names, inner),
            st.builds(lambda n, args: Pred(n, tuple(args)), preds, st.lists(inner, max_size=3)),
        ),
        max_leaves=max_leaves,
    )


@settings(max_examples=150, deadline=None)
@given(any_terms())
def test_subterms_yields_every_node_once(t):
    assert len(list(subterms(t))) == node_count(t)


# ---------------------------------------------------------------------------
# canonical_text
# ---------------------------------------------------------------------------

def canonical(term, env=None, depth=0):
    """Oracle: the alpha-canonical term itself, bound variables renamed
    `$depth` and each conjunction's conjuncts sorted by their printed
    text, for `canonical_text` to print."""
    env = env or {}
    match term:
        case Var(name):
            return Var(env.get(name, name))
        case Const():
            return term
        case Pred(name, args):
            return Pred(name, tuple(canonical(a, env, depth) for a in args))
        case App(fn, arg):
            return App(canonical(fn, env, depth), canonical(arg, env, depth))
        case Abs(param, body):
            return Abs(f"${depth}", canonical(body, {**env, param: f"${depth}"}, depth + 1))
        case Conj():
            return reduce(Conj, sorted((canonical(c, env, depth) for c in conjuncts(term)), key=format_term))
    raise TypeError(term)


@settings(max_examples=400, deadline=None)
@given(any_terms(max_leaves=14))
def test_canonical_text_is_the_canonical_form_printed(t):
    # conjunctions under binders, in application and predicate arguments,
    # and applications in function and argument position
    assert canonical_text(t) == format_term(canonical(t))


def test_canonical_text_on_random_terms():
    rng = random.Random(1718)
    for _ in range(500):
        term = _random_term(rng, 5, [])
        assert canonical_text(term) == format_term(canonical(term))


@pytest.mark.parametrize("text,expected", [
    # an abstraction conjunct is parenthesised, and sorts by its bare text
    ("p(a) & (\\x. q(x))", "(\\$0. q($0)) & p(a)"),
    # a conjunction as an application's argument and as its function
    ("f (q(b) & p(a))", "f (p(a) & q(b))"),
    ("(q(b) & p(a)) c", "(p(a) & q(b)) c"),
    # a conjunction in a predicate argument and under a binder
    ("r(q(b) & p(a), \\x. x & p(x))", "r(p(a) & q(b), \\$0. $0 & p($0))"),
    # nested conjunctions are one multiset
    ("(q(b) & (r() & p(a))) & q(a)", "p(a) & q(a) & q(b) & r()"),
    # an inner binder shadows an outer one of the same name
    ("\\x. \\x. p(x)", "\\$0. \\$1. p($1)"),
    ("f (g c) (\\x. x)", "f (g c) (\\$0. $0)"),
])
def test_canonical_text_fixed_cases(text, expected):
    term = parse_term(text)
    assert canonical_text(term) == expected == format_term(canonical(term))


def test_canonical_text_alpha_variants_print_alike():
    a = parse_term("\\x. \\y. p(x, y) & q(y)")
    b = parse_term("\\u. \\v. q(v) & p(u, v)")
    assert canonical_text(a) == canonical_text(b) == "\\$0. \\$1. p($0, $1) & q($1)"
    # a free variable keeps its name
    assert canonical_text(Abs("x", App(Var("x"), Var("z")))) == "\\$0. $0 z"
    assert canonical_text(Abs("x", Var("y"))) != canonical_text(Abs("x", Var("z")))


def test_free_vars():
    term = Abs("x", App(Var("x"), Var("y")))
    assert free_vars(term) == frozenset({"y"})


def test_rename_constants_is_simultaneous_and_touches_only_constants():
    term = parse_term(r"\x. p(a, b, x) & q(x a) & b")
    assert format_term(rename_constants(term, {"a": "b", "b": "a", "x": "y", "p": "r"})) == \
        r"\x. p(b, a, x) & q(x b) & a"
