"""Chart parser tests, including the exhaustive-bracketing oracle."""

import itertools
import random

import pytest

from ccgcomment.categories import Atom, Backward, Forward, format_category, unifies
from ccgcomment.chart import (
    Derivation,
    UnknownWord,
    _compose_sem,
    combine,
    format_derivation,
    lexical_derivations,
    parse,
)
from ccgcomment.lexicon import extend_with_identifiers, is_atomic, load_lexicon
from ccgcomment.terms import Abs, App, Conj, Const, Pred, Var, beta_normalize, canonical_text, equivalent


# ---------------------------------------------------------------------------
# Oracle: enumerate every binary bracketing with every entry choice.
# ---------------------------------------------------------------------------

def bracketing_parses(lex, tokens):
    """All full-span derivations by direct recursion over bracketings."""
    def span(i, j):
        if j - i == 1:
            return lexical_derivations(lex, tokens[i], i)
        out = []
        for k in range(i + 1, j):
            for left in span(i, k):
                for right in span(k, j):
                    out.extend(combine(left, right))
        return out
    return span(0, len(tokens))


def validate_derivation(lex, d):
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


def result_set(derivs, roots=None):
    out = set()
    for d in derivs:
        if roots is not None and not any(unifies(d.cat, r) for r in roots):
            continue
        out.add((format_category(d.cat), canonical_text(d.sem)))
    return out


# ---------------------------------------------------------------------------
# sort the array (application only)
# ---------------------------------------------------------------------------

def test_sort_the_array(sort_lexicon):
    ders = parse(sort_lexicon, ["sort", "the", "array"])
    assert len(ders) == 1
    d = ders[0]
    assert d.cat == Atom("VP")
    assert d.sem == Pred("sort'", (Const("array'"),))
    assert validate_derivation(sort_lexicon, d)


def test_single_root_token():
    lex = load_lexicon("roots: NP\nfoo := NP : foo'\n")
    ders = parse(lex, ["foo"])
    assert len(ders) == 1
    assert ders[0].rule == "Lex"


def test_unknown_word():
    lex = load_lexicon("roots: NP\nfoo := NP : foo'\n")
    with pytest.raises(UnknownWord) as err:
        parse(lex, ["foo", "bar"])
    assert err.value.token == "bar"
    assert err.value.position == 1


def test_no_parse_is_empty_not_error(sort_lexicon):
    assert parse(sort_lexicon, ["array", "sort"]) == []


def test_empty_token_list(sort_lexicon):
    assert parse(sort_lexicon, []) == []


def test_table1_sentence_parses_to_goal(english):
    lex = extend_with_identifiers(english, ["x", "y"])
    tokens = "checking for inequality between x and y".split()
    ders = parse(lex, tokens)
    goal = Conj(Pred("condition"), Pred("inequality", (Const("x"), Const("y"))))
    assert any(equivalent(d.sem, goal) for d in ders)
    # agrees with the exhaustive bracketing enumeration
    assert result_set(ders) == result_set(bracketing_parses(lex, tokens), lex.root_cats)


def test_derivations_validate_and_tokens_round_trip(english):
    lex = extend_with_identifiers(english, ["a"])
    tokens = "iterate over the keys of the dictionary a".split()
    ders = parse(lex, tokens)
    assert ders
    for d in ders:
        assert validate_derivation(lex, d)
        assert d.tokens() == tuple(tokens)


def test_validator_rejects_tampered_nodes(sort_lexicon):
    (d,) = parse(sort_lexicon, ["sort", "the", "array"])
    wrong_sem = Derivation(d.cat, Pred("other"), d.rule, d.children, d.word)
    assert not validate_derivation(sort_lexicon, wrong_sem)
    wrong_cat = Derivation(Atom("NP"), d.sem, d.rule, d.children, d.word)
    assert not validate_derivation(sort_lexicon, wrong_cat)
    wrong_rule = Derivation(d.cat, d.sem, "BwdApp", d.children, d.word)
    assert not validate_derivation(sort_lexicon, wrong_rule)


def test_composition_rules():
    lex = load_lexicon(
        "roots: A\n"
        "f := A/B : \\x. f'(x)\n"
        "g := B/C : \\x. g'(x)\n"
        "c := C : c'\n"
    )
    ders = parse(lex, ["f", "g", "c"])
    assert len(ders) == 1
    assert ders[0].sem == Pred("f'", (Pred("g'", (Const("c'"),)),))
    # forward composition produced an A/C constituent somewhere or the
    # bracketing applied g to c first; both must validate
    assert validate_derivation(lex, ders[0])
    comp = combine(*[lexical_derivations(lex, w, i)[0] for i, w in enumerate(["f", "g"])])
    assert [d for d in comp if d.rule == "FwdComp"]


def test_backward_composition_rule():
    lex = load_lexicon(
        "roots: A\n"
        "c := C : c'\n"
        "g := B\\C : \\x. g'(x)\n"
        "f := A\\B : \\x. f'(x)\n"
    )
    ders = parse(lex, ["c", "g", "f"])
    assert len(ders) == 1
    assert ders[0].sem == Pred("f'", (Pred("g'", (Const("c'"),)),))
    lex_g = lexical_derivations(lex, "g", 0)[0]
    lex_f = lexical_derivations(lex, "f", 1)[0]
    assert [d for d in combine(lex_g, lex_f) if d.rule == "BwdComp"]


def test_chart_equals_bracketing_enumeration_random(english):
    # random token windows over a compact mixed lexicon; it is atomic, so
    # the chart builds no composition
    lex = load_lexicon(
        "roots: S\n"
        "s := S/VP : \\p. s'(p)\n"
        "v := VP/NP : \\x. v'(x)\n"
        "w := VP/NP : \\x. w'(x)\n"
        "d := NP/N : \\x. x\n"
        "n := N : n'\n"
        "m := N\\N : \\x. m'(x)\n"
        "p := NP : p'\n"
    )
    assert is_atomic(lex)
    words = [e.word for e in lex.entries]
    rng = random.Random(7)
    windows = [[rng.choice(words) for _ in range(rng.randint(1, 5))] for _ in range(120)]
    assert_chart_equals_bracketings(lex, windows)


def assert_chart_equals_bracketings(lex, windows):
    """The chart finds the root readings of the bracketing enumeration on
    each token window."""
    for tokens in windows:
        chart = result_set(parse(lex, tokens))
        brute = result_set(bracketing_parses(lex, tokens), lex.root_cats)
        assert chart == brute, tokens


# Lexicons that are not atomic, each with sentences whose only reading
# needs a composition: `b c` is `N/NP` by forward composition alone,
# `m k` is `N\NP` by backward composition alone, and `f h t` has the
# functor root `S/NP` only by forward composition.  Every window of up
# to 4 words is checked against the bracketing enumeration.
FUNCTOR_ARGUMENT = r"""
roots: S
a := S/(N/NP) : \f. p(f c')
e := S/(N\NP) : \f. e'(f c')
b := N/X : \x. b'(x)
c := X/NP : \x. q(x)
k := N\X : \x. k'(x)
m := X\NP : \x. m'(x)
n := X : n'
d := N/NP : \x. d'(x)
r := N/N : \x. r'(x)
"""
FUNCTOR_ROOT = r"""
roots: S/NP
f := S/VP : \p. f'(p)
g := VP/NP : \x. g'(x)
h := VP/PP : \x. h'(x)
t := PP/NP : \x. t'(x)
o := NP : o'
s := S/NP : \x. s'(x)
u := VP/VP : \x. u'(x)
"""


@pytest.mark.parametrize("text,readings", [
    pytest.param(FUNCTOR_ARGUMENT, {"a b c": "p(b'(q(c')))", "e m k": "e'(k'(m'(c')))"},
                 id="functor-argument"),
    pytest.param(FUNCTOR_ROOT, {"f h t": "\\$0. f'(h'(t'($0)))"}, id="functor-root"),
])
def test_chart_composes_when_the_lexicon_is_not_atomic(text, readings):
    lex = load_lexicon(text)
    assert not is_atomic(lex)
    for sentence, reading in readings.items():
        ders = parse(lex, sentence.split())
        assert [canonical_text(d.sem) for d in ders] == [reading], sentence
        assert all(validate_derivation(lex, d) for d in ders)
    words = list(dict.fromkeys(e.word for e in lex.entries))
    assert_chart_equals_bracketings(lex, [list(w) for n in range(1, 5)
                                          for w in itertools.product(words, repeat=n)])


def test_format_derivation_shape(sort_lexicon):
    (d,) = parse(sort_lexicon, ["sort", "the", "array"])
    text = format_derivation(d)
    lines = text.splitlines()
    assert lines[0] == "FwdApp VP : sort'(array')"
    assert lines[1].startswith("  Lex sort :=")
    assert lines[2].startswith("  FwdApp NP")
    assert lines[3].startswith("    Lex the :=")


def test_signature_is_category_and_canonical_semantics():
    cat = Forward(Atom("S"), Atom("NP"))

    def lex(sem):
        return Derivation(cat, sem, "Lex", (), "w")

    over_x = lex(Abs("x", Pred("p", (Var("x"),))))
    over_y = lex(Abs("y", Pred("p", (Var("y"),))))
    assert over_x.signature == over_y.signature == ("S/NP", "\\$0. p($0)")
    # a constant named like the bound variable is a different meaning
    const = lex(Abs("x", Pred("p", (Const("x"),))))
    assert const.signature != over_x.signature
    # the same meaning at another category is another signature
    assert Derivation(Atom("S"), over_x.sem, "Lex", (), "w").signature != over_x.signature
