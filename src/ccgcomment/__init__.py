"""ccgcomment: comment generation for a Python subset via CCG realization.

The pipeline parses source statements, extracts a ground logical form
per statement, and searches a lexicalized grammar for a minimal sentence
whose composed semantics equal that logical form exactly.
"""

from .categories import Atom, Backward, Category, Forward, format_category, parse_category, unifies
from .chart import Derivation, UnknownWord, combine, format_derivation, parse
from .extract import AnnotatedStmt, TypeEnv, extract, render, statement_goal
from .lexicon import (
    DuplicateRootDecl,
    EmptyLexicon,
    LexEntry,
    Lexicon,
    LexiconSyntaxError,
    bundled_lexicon_text,
    extend_with_identifiers,
    load_bundled_lexicon,
    load_lexicon,
)
from .pipeline import RunConfig, StmtReport, report_coverage, run
from .postprocess import CommentText, EmptyTokens, finalize
from .pyparse import SchemaError, SourceSyntaxError, dump_ast, ingest_ast, parse_source
from .realize import (
    Goal,
    LimitExceeded,
    NoRealization,
    Realization,
    SearchLimits,
    realize,
    realize_all,
)
from .terms import (
    Abs,
    App,
    Conj,
    Const,
    FuelExhausted,
    Pred,
    TermSyntaxError,
    Var,
    beta_normalize,
    equivalent,
    format_term,
    parse_term,
    substitute,
)

__version__ = "0.1.0"
