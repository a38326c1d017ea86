"""Frontend for the analyzed Python subset.

`parse_source` parses the text with the standard library's `ast` and
converts each statement to one of the frozen statement nodes below.
Constructs outside the subset never abort a file: each turns into an
Unsupported marker (with location; a compound statement's suite is not
looked into) and the rest of the file still converts.  Text that is not
valid Python is the only hard error (SourceSyntaxError).

The same statements can also be dumped to, and ingested from, a JSON
interchange document (docs/ast_schema.md).  Its schema is stated once,
in `_SCHEMA`, and `dump_ast` and `ingest_ast` both walk that table;
ingestion rejects any document outside it with a SchemaError.
"""

from __future__ import annotations

import ast
import io
import json
import threading
import warnings
from dataclasses import dataclass
from typing import get_args


class SourceSyntaxError(Exception):
    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column
        self.message = message


class SchemaError(Exception):
    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.message = message


# --------------------------------------------------------------------------
# Expressions
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Name:
    id: str


@dataclass(frozen=True)
class NumLit:
    value: int


@dataclass(frozen=True)
class StrLit:
    value: str


@dataclass(frozen=True)
class ListLit:
    items: tuple = ()


@dataclass(frozen=True)
class DictLit:
    pairs: tuple = ()  # of (key, value) expression pairs


@dataclass(frozen=True)
class BinOp:
    op: str  # + - * / % **
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Compare:
    op: str  # == != < <= > >=
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class BoolOp:
    op: str  # and or not
    args: tuple


@dataclass(frozen=True)
class Call:
    fn: Name
    args: tuple = ()


@dataclass(frozen=True)
class Index:
    base: "Expr"
    sub: "Expr"


Expr = Name | NumLit | StrLit | ListLit | DictLit | BinOp | Compare | BoolOp | Call | Index


# --------------------------------------------------------------------------
# Statements.  loc is (line, column): 1-based line, 0-based column.
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Assign:
    target: Expr
    value: Expr
    loc: tuple[int, int]


@dataclass(frozen=True)
class AugAssign:
    target: Expr
    op: str
    value: Expr
    loc: tuple[int, int]


@dataclass(frozen=True)
class If:
    cond: Expr
    body: tuple
    orelse: tuple
    loc: tuple[int, int]


@dataclass(frozen=True)
class While:
    cond: Expr
    body: tuple
    loc: tuple[int, int]


@dataclass(frozen=True)
class ForIn:
    var: str
    iterable: Expr
    body: tuple
    loc: tuple[int, int]


@dataclass(frozen=True)
class FuncDef:
    name: str
    params: tuple
    body: tuple
    loc: tuple[int, int]


@dataclass(frozen=True)
class Return:
    value: Expr | None
    loc: tuple[int, int]


@dataclass(frozen=True)
class ExprCall:
    call: Call
    loc: tuple[int, int]


@dataclass(frozen=True)
class IOPrint:
    args: tuple
    loc: tuple[int, int]


@dataclass(frozen=True)
class IORead:
    target: Expr
    prompt: tuple
    loc: tuple[int, int]


@dataclass(frozen=True)
class Unsupported:
    reason: str
    loc: tuple[int, int]


SourceStmt = (Assign | AugAssign | If | While | ForIn | FuncDef | Return
              | ExprCall | IOPrint | IORead | Unsupported)


# --------------------------------------------------------------------------
# Conversion from the standard library's `ast`
# --------------------------------------------------------------------------

# Expressions nested deeper than this become Unsupported markers, and JSON
# documents whose expressions or statement lists nest deeper are rejected,
# so every later stage, which recurses over both, stays far inside the
# interpreter's recursion limit.  Python source itself cannot nest
# statement lists deeper than 100.
MAX_DEPTH = 100

_BINOPS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/",
           ast.Mod: "%", ast.Pow: "**"}
_COMPARES = {ast.Eq: "==", ast.NotEq: "!=", ast.Lt: "<", ast.LtE: "<=",
             ast.Gt: ">", ast.GtE: ">="}


class _Unsupported(Exception):
    def __init__(self, reason: str):
        self.reason = reason


def _expr(node: ast.expr, depth: int = 1) -> Expr:
    if depth > MAX_DEPTH:
        raise _Unsupported("expression nested too deeply")
    depth += 1
    match node:
        case ast.Name(id_):
            return Name(id_)
        case ast.Constant(None | True | False as v):
            return Name(str(v))
        case ast.Constant(int() as v):
            try:
                str(v)
            except ValueError:  # past the interpreter's integer digit limit
                raise _Unsupported("integer literal too long") from None
            return NumLit(v)
        case ast.Constant(str() as v):
            return StrLit(v)
        case ast.Constant(v):
            raise _Unsupported(f"{type(v).__name__} literal")
        case ast.List(items):
            return ListLit(tuple(_expr(x, depth) for x in items))
        case ast.Dict(keys, values) if None not in keys:
            return DictLit(tuple((_expr(k, depth), _expr(v, depth))
                                 for k, v in zip(keys, values)))
        case ast.BinOp(left, op, right) if type(op) in _BINOPS:
            return BinOp(_BINOPS[type(op)], _expr(left, depth), _expr(right, depth))
        case ast.Compare(left, [op], [right]) if type(op) in _COMPARES:
            return Compare(_COMPARES[type(op)], _expr(left, depth), _expr(right, depth))
        case ast.Compare(_, [_, _, *_]):
            raise _Unsupported("chained comparison")
        case ast.BoolOp(op, args):
            return BoolOp("and" if isinstance(op, ast.And) else "or",
                          tuple(_expr(a, depth) for a in args))
        case ast.UnaryOp(ast.Not(), arg):
            return BoolOp("not", (_expr(arg, depth),))
        case ast.Call(fn, args, []):
            fn = _expr(fn, depth)
            if not isinstance(fn, Name):
                raise _Unsupported("call of a non-name")
            return Call(fn, tuple(_expr(a, depth) for a in args))
        case ast.Subscript(base, sub):
            return Index(_expr(base, depth), _expr(sub, depth))
        case ast.ListComp():
            raise _Unsupported("list comprehension")
    raise _Unsupported(f"{type(node).__name__.lower()} expression")


def _target(node: ast.expr) -> Expr:
    target = _expr(node)
    if not isinstance(target, (Name, Index)):
        raise _Unsupported("unsupported assignment target")
    return target


def _plain_params(args: ast.arguments) -> bool:
    return not (args.posonlyargs or args.vararg or args.kwonlyargs or args.kwarg
                or args.defaults or any(a.annotation for a in args.args))


def _prefix(node: ast.stmt, lines: list[str]) -> str:
    """The text of the node's first line before the node."""
    return lines[node.lineno - 1].encode()[:node.col_offset].decode()


def _suite(body: list[ast.stmt], lines: list[str]) -> tuple:
    if body and _prefix(body[0], lines).strip():
        raise _Unsupported("inline suite")
    return tuple(_stmt(s, lines) for s in body)


def _stmt(node: ast.stmt, lines: list[str]) -> SourceStmt:
    loc = (node.lineno, len(_prefix(node, lines).expandtabs(8)))
    try:
        return _convert(node, loc, lines)
    except _Unsupported as exc:
        return Unsupported(exc.reason, loc)


def _convert(node: ast.stmt, loc: tuple[int, int], lines: list[str]) -> SourceStmt:
    match node:
        case ast.FunctionDef(name, args, body, [], None) if _plain_params(args):
            return FuncDef(name, tuple(a.arg for a in args.args), _suite(body, lines), loc)
        case ast.If(cond, body, orelse):  # an elif is an If in orelse
            return If(_expr(cond), _suite(body, lines), _suite(orelse, lines), loc)
        case ast.While(cond, body, []):
            return While(_expr(cond), _suite(body, lines), loc)
        case ast.For(ast.Name(var), iterable, body, []):
            return ForIn(var, _expr(iterable), _suite(body, lines), loc)
        case ast.Return(value):
            return Return(None if value is None else _expr(value), loc)
        case ast.Assign([target], value):
            target, value = _target(target), _expr(value)
            if isinstance(value, Call) and value.fn.id == "input":
                return IORead(target, value.args, loc)
            return Assign(target, value, loc)
        case ast.AugAssign(target, op, value) if type(op) in _BINOPS:
            return AugAssign(_target(target), _BINOPS[type(op)], _expr(value), loc)
        case ast.Expr(value):
            call = _expr(value)
            if not isinstance(call, Call):
                raise _Unsupported("expression statement is not a call")
            if call.fn.id == "print":
                return IOPrint(call.args, loc)
            return ExprCall(call, loc)
    raise _Unsupported(f"{type(node).__name__.lower()} statement")


_WARNINGS_LOCK = threading.Lock()


def parse_source(text: str) -> tuple:
    """Parse subset source text into a statement tuple.

    Raises SourceSyntaxError when `text` is not valid Python."""
    try:
        # SyntaxWarning and the like concern the user's source, not this
        # run.  The filters are process-wide: without the lock, two threads
        # parsing at once can restore each other's "ignore" for good.
        with _WARNINGS_LOCK, warnings.catch_warnings():
            warnings.simplefilter("ignore")
            tree = ast.parse(text)
    except SyntaxError as exc:  # also IndentationError and TabError
        raise SourceSyntaxError(exc.lineno or 1, max((exc.offset or 1) - 1, 0),
                                exc.msg) from exc
    except (ValueError, RecursionError) as exc:  # null bytes; nesting too deep for ast
        raise SourceSyntaxError(1, 0, str(exc)) from exc
    lines = source_lines(text)
    return tuple(_stmt(s, lines) for s in tree.body)


def source_lines(text: str) -> list[str]:
    """The lines of `text`, with their ends, as statement locations number
    them: a line ends at \\n, \\r\\n or \\r only, where str.splitlines also
    breaks at form feeds and other separators."""
    return io.StringIO(text, newline="").readlines()


# --------------------------------------------------------------------------
# JSON interchange.  True/False/None are ordinary Name atoms here.
# --------------------------------------------------------------------------

SCHEMA_VERSION = 1

# The interchange schema: each node class's fields in document order, each
# with the rule its value follows, either a tuple of the operators allowed
# or a name that `_field` checks.  dump_ast and ingest_ast both walk this
# table.  Every object also carries `kind`, its class name, and every
# statement `loc` after it.
_SCHEMA = {
    Name: {"id": "identifier"},
    NumLit: {"value": "integer"},
    StrLit: {"value": "string"},
    ListLit: {"items": "expressions"},
    DictLit: {"pairs": "pairs"},
    BinOp: {"op": tuple(_BINOPS.values()), "left": "expression", "right": "expression"},
    Compare: {"op": tuple(_COMPARES.values()), "left": "expression", "right": "expression"},
    BoolOp: {"op": ("and", "or", "not"), "args": "expressions"},
    Call: {"fn": "Name", "args": "expressions"},
    Index: {"base": "expression", "sub": "expression"},
    Assign: {"target": "target", "value": "expression"},
    AugAssign: {"op": tuple(_BINOPS.values()), "target": "target", "value": "expression"},
    If: {"cond": "expression", "body": "statements", "orelse": "statements"},
    While: {"cond": "expression", "body": "statements"},
    ForIn: {"var": "identifier", "iterable": "expression", "body": "statements"},
    FuncDef: {"name": "identifier", "params": "identifiers", "body": "statements"},
    Return: {"value": "optional expression"},
    ExprCall: {"call": "Call"},
    IOPrint: {"args": "expressions"},
    IORead: {"target": "target", "prompt": "expressions"},
    Unsupported: {"reason": "text"},
}

# expression rules that admit only some kinds, and the error otherwise
_RESTRICTED = {"target": ((Name, Index), "expected a Name or Index target"),
               "Name": (Name, "call target must be a Name"),
               "Call": (Call, "expected a Call expression")}


def _dump(value):
    if type(value) in _SCHEMA:
        names = list(_SCHEMA[type(value)])
        if isinstance(value, SourceStmt):
            names.insert(0, "loc")
        return {"kind": type(value).__name__,
                **{name: _dump(getattr(value, name)) for name in names}}
    if isinstance(value, tuple):  # a location, or a list of nodes, pairs or names
        return [_dump(x) for x in value]
    return value


def dump_ast(stmts) -> str:
    doc = {"schema_version": SCHEMA_VERSION, "body": [_dump(s) for s in stmts]}
    return json.dumps(doc, indent=2)


def _need(obj, key, path):
    if not isinstance(obj, dict):
        raise SchemaError(path, "expected an object")
    if key not in obj:
        raise SchemaError(path, f"missing field {key!r}")
    return obj[key]


def _node(obj, path: str, depth: int, union):
    """The expression (`union` is Expr) or statement (SourceStmt) object
    `obj`, nested `depth` deep among its own sort."""
    stmt = union is SourceStmt
    if not stmt and depth > MAX_DEPTH:
        raise SchemaError(path, f"expression nested deeper than {MAX_DEPTH}")
    kind = _need(obj, "kind", path)
    cls = next((c for c in get_args(union) if c.__name__ == kind), None)
    if cls is None:
        sort = "statement" if stmt else "expression"
        raise SchemaError(path + ".kind", f"unknown {sort} kind {kind!r}")
    values = {}
    if stmt:
        loc = _need(obj, "loc", path)
        if (not isinstance(loc, list) or len(loc) != 2
                or not all(type(x) is int for x in loc) or loc[0] < 1 or loc[1] < 0):
            raise SchemaError(path + ".loc", "expected [line, column]")
        values["loc"] = tuple(loc)
    for name, rule in _SCHEMA[cls].items():
        # an expression starts a new count in a statement; statement lists
        # count on
        inner = depth + 1 if not stmt or rule == "statements" else 1
        values[name] = _field(rule, _need(obj, name, path), f"{path}.{name}", inner)
    return cls(**values)


def _field(rule, value, path: str, depth: int):
    match rule:
        case tuple():
            if value not in rule:
                raise SchemaError(path, f"unknown operator {value!r}")
            return value
        case "optional expression" if value is None:
            return None
        case "expression" | "optional expression":
            return _node(value, path, depth, Expr)
        case "target" | "Name" | "Call":
            expr = _node(value, path, depth, Expr)
            kinds, message = _RESTRICTED[rule]
            if not isinstance(expr, kinds):
                raise SchemaError(path, message)
            return expr
        case "statements":
            if depth > MAX_DEPTH:
                raise SchemaError(path, f"statements nested deeper than {MAX_DEPTH}")
            if not isinstance(value, list):
                raise SchemaError(path, "expected a list of statements")
            return tuple(_node(s, f"{path}[{i}]", depth, SourceStmt)
                         for i, s in enumerate(value))
        case "expressions" | "pairs":
            if not isinstance(value, list):
                raise SchemaError(path, "expected a list")
            item = "expression" if rule == "expressions" else "pair"
            return tuple(_field(item, x, f"{path}[{i}]", depth) for i, x in enumerate(value))
        case "pair":
            if not isinstance(value, list) or len(value) != 2:
                raise SchemaError(path, "expected a [key, value] pair")
            return tuple(_node(x, f"{path}[{i}]", depth, Expr) for i, x in enumerate(value))
        case "identifier":
            if not isinstance(value, str) or not value.isidentifier():
                raise SchemaError(path, "not an identifier")
        case "identifiers":
            if not isinstance(value, list) or not all(
                    isinstance(p, str) and p.isidentifier() for p in value):
                raise SchemaError(path, "expected identifier list")
            return tuple(value)
        case "integer":
            if not isinstance(value, int) or isinstance(value, bool):
                raise SchemaError(path, "expected an integer")
        case "string":
            if not isinstance(value, str):
                raise SchemaError(path, "expected a string")
        case "text":
            return str(value)
    return value


def ingest_ast(json_text: str) -> tuple:
    """Load statements from a schema-version-1 JSON document."""
    try:
        doc = json.loads(json_text)
    except RecursionError as exc:
        raise SchemaError("$", "JSON nested too deeply") from exc
    except ValueError as exc:  # also a number past the integer digit limit
        raise SchemaError("$", f"invalid JSON: {exc}") from exc
    version = _need(doc, "schema_version", "$")
    if version != SCHEMA_VERSION:
        raise SchemaError("$.schema_version", f"unsupported version {version!r}")
    return _field("statements", _need(doc, "body", "$"), "$.body", 1)
