import io

import pytest

from ccgcomment.categories import Atom, Forward
from ccgcomment.lexicon import (
    DuplicateRootDecl,
    EmptyLexicon,
    LexiconSyntaxError,
    extend_with_identifiers,
    load_bundled_lexicon,
    load_lexicon,
)
from ccgcomment.terms import Abs, Const, Pred, Var, free_vars


def test_load_single_entry():
    lex = load_lexicon("roots: VP\nsort := VP/NP : \\x. sort'(x)\n")
    assert len(lex.entries) == 1
    entry = lex.entries[0]
    assert entry.word == "sort"
    assert entry.cat == Forward(Atom("VP"), Atom("NP"))
    assert entry.sem == Abs("x", Pred("sort'", (Var("x"),)))
    assert entry.weight == 1
    assert lex.root_cats == (Atom("VP"),)


def test_load_accepts_stream():
    lex = load_lexicon(io.StringIO("roots: NP\nfoo := NP : foo'\n"))
    assert lex.lookup("foo")


def test_load_skips_a_byte_order_mark():
    text = "roots: NP\nfoo := NP : foo'\n"
    assert load_lexicon("\ufeff" + text) == load_lexicon(text)
    assert load_lexicon(io.StringIO("\ufeff" + text)) == load_lexicon(text)


def test_empty_file_is_an_error():
    with pytest.raises(EmptyLexicon):
        load_lexicon("")
    with pytest.raises(EmptyLexicon):
        load_lexicon("# only comments\n\n")


def test_homonyms_are_all_returned():
    text = """roots: S
over := PP/NP : \\x. x
over := S\\S : \\x. x
the := NP/N : \\x. x
"""
    lex = load_lexicon(text)
    # independent count: scan entry lines for the word
    expected = sum(1 for line in text.splitlines() if line.startswith("over :="))
    assert len(lex.lookup("over")) == expected == 2
    assert len(lex.lookup("the")) == 1
    assert lex.lookup("missing") == ()


def test_duplicate_roots_rejected():
    with pytest.raises(DuplicateRootDecl):
        load_lexicon("roots: S\nroots: NP\nfoo := NP : c\n")


def test_missing_roots_rejected():
    with pytest.raises(LexiconSyntaxError):
        load_lexicon("foo := NP : c\n")


def test_syntax_errors_carry_line_numbers():
    with pytest.raises(LexiconSyntaxError) as err:
        load_lexicon("roots: S\nfoo : NP : c\n")
    assert err.value.line == 2
    with pytest.raises(LexiconSyntaxError) as err:
        load_lexicon("roots: S\nfoo := NP/ : c\n")
    assert err.value.line == 2
    with pytest.raises(LexiconSyntaxError) as err:
        load_lexicon("roots: S\nfoo := NP : p(\n")
    assert err.value.line == 2


def test_uppercase_words_rejected():
    with pytest.raises(LexiconSyntaxError):
        load_lexicon("roots: S\nFoo := NP : c\n")


def test_semantics_are_closed_by_construction():
    # an identifier is a variable only when bound, so file entries cannot
    # smuggle in free variables: unbound names become constants
    lex = load_lexicon("roots: S\nfoo := NP : \\x. p(x, y)\n")
    assert lex.entries[0].sem == Abs("x", Pred("p", (Var("x"), Const("y"))))
    assert not free_vars(lex.entries[0].sem)


@pytest.mark.parametrize("term,var,uses", [
    ("\\y. assign(y, y)", "y", 2),  # copies its argument
    ("\\x. y", "x", 0),  # drops it
    ("\\x. \\x. p(x)", "x", 0),  # the inner binder shadows the outer
    ("\\p. p (\\z. q())", "z", 0),  # a binder below the top
])
def test_nonlinear_semantics_rejected(term, var, uses):
    with pytest.raises(LexiconSyntaxError) as info:
        load_lexicon(f"roots: S\nok := NP : c\nbad := NP : {term}\n")
    assert info.value.line == 3
    assert f"{var!r} used {uses} times" in str(info.value)


def test_linearity_is_checked_after_normalization():
    lex = load_lexicon("roots: S\ntwice := NP : (\\f. \\x. f (f x)) (\\v. p(v))\n")
    assert lex.entries[0].sem == Abs("x", Pred("p", (Pred("p", (Var("x"),)),)))


def test_nonnormalizing_semantics_rejected():
    omega = r"(\x. x x) (\x. x x)"
    with pytest.raises(LexiconSyntaxError):
        load_lexicon(f"roots: S\nloopy := NP : {omega}\n")


def test_entry_semantics_stored_beta_normal():
    lex = load_lexicon("roots: S\nfoo := NP : (\\x. p(x)) c\n")
    assert lex.entries[0].sem == Pred("p", (Const("c"),))


def test_weight_suffix():
    lex = load_lexicon("roots: S\nfoo := NP : c @weight 3\n")
    assert lex.entries[0].weight == 3


@pytest.mark.parametrize("weight", ["0", "00"])
def test_weight_zero_rejected(weight):
    # docs/lexicon_format.md: a weight is a positive integer
    with pytest.raises(LexiconSyntaxError) as err:
        load_lexicon(f"roots: S\na := S : p() @weight {weight}\n")
    assert err.value.line == 2
    assert "positive" in err.value.message


def test_comments_and_blanks_ignored():
    lex = load_lexicon("# header\nroots: S  # trailing\n\nfoo := NP : c  # entry\n")
    assert len(lex.entries) == 1


def test_extend_with_identifiers_adds_np_constants():
    lex = load_lexicon("roots: S\nfoo := NP : c\n")
    ext = extend_with_identifiers(lex, ["x", "y"])
    assert len(ext.entries) == 3
    (entry,) = ext.lookup("x")
    assert entry.cat == Atom("NP")
    assert entry.sem == Const("x")
    assert entry.weight == 1
    # original untouched
    assert len(lex.entries) == 1


def test_extend_with_identifiers_empty_is_identity():
    lex = load_lexicon("roots: S\nfoo := NP : c\n")
    assert extend_with_identifiers(lex, []) is lex


def test_extend_with_identifiers_idempotent_and_set_commutative():
    lex = load_lexicon("roots: S\nfoo := NP : c\n")
    once = extend_with_identifiers(lex, ["a"])
    twice = extend_with_identifiers(once, ["a"])
    assert len(twice.lookup("a")) == 1
    assert set(twice.entries) == set(once.entries)
    ab = extend_with_identifiers(lex, ["a", "b"])
    ba = extend_with_identifiers(lex, ["b", "a"])
    assert set(ab.entries) == set(ba.entries)


def test_extend_accepts_arbitrary_identifier_spellings():
    # identifiers come from programs: mixed case and digits are kept verbatim
    lex = load_lexicon("roots: S\nfoo := NP : c\n")
    ext = extend_with_identifiers(lex, ["True", "5", "bubble_sort"])
    for name in ("True", "5", "bubble_sort"):
        (entry,) = ext.lookup(name)
        assert entry.sem == Const(name)


def test_bundled_lexicon_loads_and_is_wellformed():
    lex = load_bundled_lexicon()
    assert lex.root_cats == (Atom("S", "imp"), Atom("S", "ger"))
    assert len(lex.entries) > 40
    for entry in lex.entries:
        assert not free_vars(entry.sem)


def test_bundled_semantics_normalize_within_linear_fuel():
    # every raw entry term reaches normal form within 10x its node count
    from ccgcomment.lexicon import bundled_lexicon_text
    from ccgcomment.terms import beta_normalize, node_count, parse_term

    checked = 0
    for line in bundled_lexicon_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if not line or line.startswith("roots:") or ":=" not in line:
            continue
        term_text = line.split(":=", 1)[1].split(":", 1)[1]
        if "@weight" in term_text:
            term_text = term_text.rsplit("@weight", 1)[0]
        term = parse_term(term_text.strip())
        beta_normalize(term, fuel=10 * node_count(term))  # must not raise
        checked += 1
    assert checked > 40
