"""Chart parser tests, including the exhaustive-bracketing oracle."""

import random

import pytest

from ccgcomment.categories import Atom, Forward, format_category, unifies
from ccgcomment.chart import (
    Derivation,
    UnknownWord,
    combine,
    format_derivation,
    lexical_derivations,
    parse,
    validate_derivation,
)
from ccgcomment.lexicon import extend_with_identifiers, load_lexicon
from ccgcomment.terms import Abs, Conj, Const, Pred, Var, canonical_text, equivalent


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
    # random token windows over a compact mixed lexicon
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
    words = [e.word for e in lex.entries]
    rng = random.Random(7)
    for _ in range(120):
        length = rng.randint(1, 5)
        tokens = [rng.choice(words) for _ in range(length)]
        chart = result_set(parse(lex, tokens))
        brute = result_set(bracketing_parses(lex, tokens), lex.root_cats)
        assert chart == brute, tokens


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
