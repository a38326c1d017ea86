"""Frontend for the analyzed Python subset.

`parse_source` parses the text with the standard library's `ast` and
converts each statement to one of the frozen statement nodes below.
Constructs outside the subset never abort a file: each turns into an
Unsupported marker (with location; a compound statement's suite is not
looked into) and the rest of the file still converts.  Text that is not
valid Python is the only hard error (SourceSyntaxError).

The same statements can also be ingested from, and dumped to, a JSON
interchange document (`schema_version` 1, one object per statement with
`kind`, `loc` and kind-specific operand fields).
"""

from __future__ import annotations

import ast
import io
import json
import threading
import warnings
from dataclasses import dataclass, fields


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

_EXPR_KINDS = {
    "Name": Name, "NumLit": NumLit, "StrLit": StrLit, "ListLit": ListLit,
    "DictLit": DictLit, "BinOp": BinOp, "Compare": Compare, "BoolOp": BoolOp,
    "Call": Call, "Index": Index,
}
_STMT_KINDS = {
    "Assign": Assign, "AugAssign": AugAssign, "If": If, "While": While,
    "ForIn": ForIn, "FuncDef": FuncDef, "Return": Return, "ExprCall": ExprCall,
    "IOPrint": IOPrint, "IORead": IORead, "Unsupported": Unsupported,
}


def _expr_to_json(e: Expr):
    match e:
        case Name(id_):
            return {"kind": "Name", "id": id_}
        case NumLit(v):
            return {"kind": "NumLit", "value": v}
        case StrLit(v):
            return {"kind": "StrLit", "value": v}
        case ListLit(items):
            return {"kind": "ListLit", "items": [_expr_to_json(x) for x in items]}
        case DictLit(pairs):
            return {"kind": "DictLit",
                    "pairs": [[_expr_to_json(k), _expr_to_json(v)] for k, v in pairs]}
        case BinOp(op, l, r):
            return {"kind": "BinOp", "op": op,
                    "left": _expr_to_json(l), "right": _expr_to_json(r)}
        case Compare(op, l, r):
            return {"kind": "Compare", "op": op,
                    "left": _expr_to_json(l), "right": _expr_to_json(r)}
        case BoolOp(op, args):
            return {"kind": "BoolOp", "op": op,
                    "args": [_expr_to_json(a) for a in args]}
        case Call(fn, args):
            return {"kind": "Call", "fn": _expr_to_json(fn),
                    "args": [_expr_to_json(a) for a in args]}
        case Index(base, sub):
            return {"kind": "Index", "base": _expr_to_json(base),
                    "sub": _expr_to_json(sub)}
    raise TypeError(f"not an expression: {e!r}")


def _stmt_to_json(s: SourceStmt):
    loc = list(s.loc)
    match s:
        case Assign(t, v, _):
            return {"kind": "Assign", "loc": loc,
                    "target": _expr_to_json(t), "value": _expr_to_json(v)}
        case AugAssign(t, op, v, _):
            return {"kind": "AugAssign", "loc": loc, "op": op,
                    "target": _expr_to_json(t), "value": _expr_to_json(v)}
        case If(c, body, orelse, _):
            return {"kind": "If", "loc": loc, "cond": _expr_to_json(c),
                    "body": [_stmt_to_json(x) for x in body],
                    "orelse": [_stmt_to_json(x) for x in orelse]}
        case While(c, body, _):
            return {"kind": "While", "loc": loc, "cond": _expr_to_json(c),
                    "body": [_stmt_to_json(x) for x in body]}
        case ForIn(var, it, body, _):
            return {"kind": "ForIn", "loc": loc, "var": var,
                    "iterable": _expr_to_json(it),
                    "body": [_stmt_to_json(x) for x in body]}
        case FuncDef(name, params, body, _):
            return {"kind": "FuncDef", "loc": loc, "name": name,
                    "params": list(params),
                    "body": [_stmt_to_json(x) for x in body]}
        case Return(v, _):
            return {"kind": "Return", "loc": loc,
                    "value": None if v is None else _expr_to_json(v)}
        case ExprCall(call, _):
            return {"kind": "ExprCall", "loc": loc, "call": _expr_to_json(call)}
        case IOPrint(args, _):
            return {"kind": "IOPrint", "loc": loc,
                    "args": [_expr_to_json(a) for a in args]}
        case IORead(t, prompt, _):
            return {"kind": "IORead", "loc": loc, "target": _expr_to_json(t),
                    "prompt": [_expr_to_json(a) for a in prompt]}
        case Unsupported(reason, _):
            return {"kind": "Unsupported", "loc": loc, "reason": reason}
    raise TypeError(f"not a statement: {s!r}")


def dump_ast(stmts) -> str:
    doc = {"schema_version": SCHEMA_VERSION,
           "body": [_stmt_to_json(s) for s in stmts]}
    return json.dumps(doc, indent=2)


def _need(obj, key, path):
    if not isinstance(obj, dict):
        raise SchemaError(path, "expected an object")
    if key not in obj:
        raise SchemaError(path, f"missing field {key!r}")
    return obj[key]


def _need_list(obj, key, path) -> list:
    value = _need(obj, key, path)
    if not isinstance(value, list):
        raise SchemaError(f"{path}.{key}", "expected a list")
    return value


def _need_identifier(obj, key, path) -> str:
    value = _need(obj, key, path)
    if not isinstance(value, str) or not value.isidentifier():
        raise SchemaError(f"{path}.{key}", "not an identifier")
    return value


def _expr_from_json(obj, path, depth: int = 1) -> Expr:
    if depth > MAX_DEPTH:
        raise SchemaError(path, f"expression nested deeper than {MAX_DEPTH}")
    depth += 1
    kind = _need(obj, "kind", path)
    if kind == "Name":
        return Name(_need_identifier(obj, "id", path))
    if kind == "NumLit":
        v = _need(obj, "value", path)
        if not isinstance(v, int) or isinstance(v, bool):
            raise SchemaError(path + ".value", "expected an integer")
        return NumLit(v)
    if kind == "StrLit":
        v = _need(obj, "value", path)
        if not isinstance(v, str):
            raise SchemaError(path + ".value", "expected a string")
        return StrLit(v)
    if kind == "ListLit":
        items = _need_list(obj, "items", path)
        return ListLit(tuple(_expr_from_json(x, f"{path}.items[{i}]", depth)
                             for i, x in enumerate(items)))
    if kind == "DictLit":
        pairs = _need_list(obj, "pairs", path)
        out = []
        for i, pair in enumerate(pairs):
            if not isinstance(pair, list) or len(pair) != 2:
                raise SchemaError(f"{path}.pairs[{i}]", "expected a [key, value] pair")
            out.append((_expr_from_json(pair[0], f"{path}.pairs[{i}][0]", depth),
                        _expr_from_json(pair[1], f"{path}.pairs[{i}][1]", depth)))
        return DictLit(tuple(out))
    if kind == "BinOp":
        op = _need(obj, "op", path)
        if op not in ("+", "-", "*", "/", "%", "**"):
            raise SchemaError(path + ".op", f"unknown operator {op!r}")
        return BinOp(op, _expr_from_json(_need(obj, "left", path), path + ".left", depth),
                     _expr_from_json(_need(obj, "right", path), path + ".right", depth))
    if kind == "Compare":
        op = _need(obj, "op", path)
        if op not in ("==", "!=", "<", "<=", ">", ">="):
            raise SchemaError(path + ".op", f"unknown operator {op!r}")
        return Compare(op, _expr_from_json(_need(obj, "left", path), path + ".left", depth),
                       _expr_from_json(_need(obj, "right", path), path + ".right", depth))
    if kind == "BoolOp":
        op = _need(obj, "op", path)
        if op not in ("and", "or", "not"):
            raise SchemaError(path + ".op", f"unknown operator {op!r}")
        args = _need_list(obj, "args", path)
        return BoolOp(op, tuple(_expr_from_json(a, f"{path}.args[{i}]", depth)
                                for i, a in enumerate(args)))
    if kind == "Call":
        fn = _expr_from_json(_need(obj, "fn", path), path + ".fn", depth)
        if not isinstance(fn, Name):
            raise SchemaError(path + ".fn", "call target must be a Name")
        args = _need_list(obj, "args", path)
        return Call(fn, tuple(_expr_from_json(a, f"{path}.args[{i}]", depth)
                              for i, a in enumerate(args)))
    if kind == "Index":
        return Index(_expr_from_json(_need(obj, "base", path), path + ".base", depth),
                     _expr_from_json(_need(obj, "sub", path), path + ".sub", depth))
    raise SchemaError(path + ".kind", f"unknown expression kind {kind!r}")


def _target_from_json(obj, path) -> Expr:
    target = _expr_from_json(_need(obj, "target", path), path + ".target")
    if not isinstance(target, (Name, Index)):
        raise SchemaError(path + ".target", "expected a Name or Index target")
    return target


def _loc_from_json(obj, path) -> tuple[int, int]:
    loc = _need(obj, "loc", path)
    if (not isinstance(loc, list) or len(loc) != 2
            or not all(isinstance(x, int) for x in loc)):
        raise SchemaError(path + ".loc", "expected [line, column]")
    return (loc[0], loc[1])


def _stmts_from_json(items, path, depth: int = 1) -> tuple:
    if depth > MAX_DEPTH:
        raise SchemaError(path, f"statements nested deeper than {MAX_DEPTH}")
    if not isinstance(items, list):
        raise SchemaError(path, "expected a list of statements")
    return tuple(_stmt_from_json(s, f"{path}[{i}]", depth) for i, s in enumerate(items))


def _stmt_from_json(obj, path, depth: int) -> SourceStmt:
    kind = _need(obj, "kind", path)
    if kind not in _STMT_KINDS:
        raise SchemaError(path + ".kind", f"unknown statement kind {kind!r}")
    loc = _loc_from_json(obj, path)
    if kind == "Assign":
        return Assign(_target_from_json(obj, path),
                      _expr_from_json(_need(obj, "value", path), path + ".value"), loc)
    if kind == "AugAssign":
        op = _need(obj, "op", path)
        if op not in ("+", "-", "*", "/", "%", "**"):
            raise SchemaError(path + ".op", f"unknown operator {op!r}")
        return AugAssign(_target_from_json(obj, path), op,
                         _expr_from_json(_need(obj, "value", path), path + ".value"), loc)
    if kind == "If":
        return If(_expr_from_json(_need(obj, "cond", path), path + ".cond"),
                  _stmts_from_json(_need(obj, "body", path), path + ".body", depth + 1),
                  _stmts_from_json(_need(obj, "orelse", path), path + ".orelse", depth + 1), loc)
    if kind == "While":
        return While(_expr_from_json(_need(obj, "cond", path), path + ".cond"),
                     _stmts_from_json(_need(obj, "body", path), path + ".body", depth + 1), loc)
    if kind == "ForIn":
        return ForIn(_need_identifier(obj, "var", path),
                     _expr_from_json(_need(obj, "iterable", path), path + ".iterable"),
                     _stmts_from_json(_need(obj, "body", path), path + ".body", depth + 1), loc)
    if kind == "FuncDef":
        name = _need_identifier(obj, "name", path)
        params = _need(obj, "params", path)
        if not isinstance(params, list) or not all(
                isinstance(p, str) and p.isidentifier() for p in params):
            raise SchemaError(path + ".params", "expected identifier list")
        return FuncDef(name, tuple(params),
                       _stmts_from_json(_need(obj, "body", path), path + ".body", depth + 1), loc)
    if kind == "Return":
        v = _need(obj, "value", path)
        return Return(None if v is None else _expr_from_json(v, path + ".value"), loc)
    if kind == "ExprCall":
        call = _expr_from_json(_need(obj, "call", path), path + ".call")
        if not isinstance(call, Call):
            raise SchemaError(path + ".call", "expected a Call expression")
        return ExprCall(call, loc)
    if kind == "IOPrint":
        args = _need_list(obj, "args", path)
        return IOPrint(tuple(_expr_from_json(a, f"{path}.args[{i}]")
                             for i, a in enumerate(args)), loc)
    if kind == "IORead":
        prompt = _need_list(obj, "prompt", path)
        return IORead(_target_from_json(obj, path),
                      tuple(_expr_from_json(a, f"{path}.prompt[{i}]")
                            for i, a in enumerate(prompt)), loc)
    return Unsupported(str(_need(obj, "reason", path)), loc)


def ingest_ast(json_text: str) -> tuple:
    """Load statements from a schema-version-1 JSON document."""
    try:
        doc = json.loads(json_text)
    except json.JSONDecodeError as exc:
        raise SchemaError("$", f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise SchemaError("$", "JSON nested too deeply") from exc
    version = _need(doc, "schema_version", "$")
    if version != SCHEMA_VERSION:
        raise SchemaError("$.schema_version", f"unsupported version {version!r}")
    return _stmts_from_json(_need(doc, "body", "$"), "$.body")


# --------------------------------------------------------------------------
# Pretty printer (round-trips through parse_source, up to locations)
# --------------------------------------------------------------------------

_BINOP_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "%": 2, "**": 3}


def format_expr(e: Expr, prec: int = 0) -> str:
    match e:
        case Name(id_):
            return id_
        case NumLit(v):
            return str(v)
        case StrLit(v):
            body = v.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n").replace("\t", "\\t")
            return f'"{body}"'
        case ListLit(items):
            return "[" + ", ".join(format_expr(x) for x in items) + "]"
        case DictLit(pairs):
            return "{" + ", ".join(f"{format_expr(k)}: {format_expr(v)}" for k, v in pairs) + "}"
        case BinOp(op, l, r):
            p = _BINOP_PREC[op] + 3
            if op == "**":
                text = f"{format_expr(l, p + 1)} {op} {format_expr(r, p)}"
            else:
                text = f"{format_expr(l, p)} {op} {format_expr(r, p + 1)}"
            return f"({text})" if prec > p else text
        case Compare(op, l, r):
            text = f"{format_expr(l, 4)} {op} {format_expr(r, 4)}"
            return f"({text})" if prec > 3 else text
        case BoolOp("not", (arg,)):
            text = f"not {format_expr(arg, 3)}"
            return f"({text})" if prec > 2 else text
        case BoolOp("and", args):
            text = " and ".join(format_expr(a, 3) for a in args)
            return f"({text})" if prec > 2 else text
        case BoolOp("or", args):
            text = " or ".join(format_expr(a, 2) for a in args)
            return f"({text})" if prec > 1 else text
        case Call(fn, args):
            return f"{fn.id}(" + ", ".join(format_expr(a) for a in args) + ")"
        case Index(base, sub):
            return f"{format_expr(base, 9)}[{format_expr(sub)}]"
    raise TypeError(f"not an expression: {e!r}")


def format_stmt(s: SourceStmt, indent: int = 0) -> list[str]:
    pad = "    " * indent
    match s:
        case Assign(t, v, _):
            return [f"{pad}{format_expr(t)} = {format_expr(v)}"]
        case AugAssign(t, op, v, _):
            return [f"{pad}{format_expr(t)} {op}= {format_expr(v)}"]
        case If(c, body, orelse, _):
            lines = [f"{pad}if {format_expr(c)}:"]
            for x in body:
                lines.extend(format_stmt(x, indent + 1))
            if len(orelse) == 1 and isinstance(orelse[0], If):
                elif_lines = format_stmt(orelse[0], indent)
                lines.append(pad + "el" + elif_lines[0].strip())
                lines.extend(elif_lines[1:])
            elif orelse:
                lines.append(f"{pad}else:")
                for x in orelse:
                    lines.extend(format_stmt(x, indent + 1))
            return lines
        case While(c, body, _):
            lines = [f"{pad}while {format_expr(c)}:"]
            for x in body:
                lines.extend(format_stmt(x, indent + 1))
            return lines
        case ForIn(var, it, body, _):
            lines = [f"{pad}for {var} in {format_expr(it)}:"]
            for x in body:
                lines.extend(format_stmt(x, indent + 1))
            return lines
        case FuncDef(name, params, body, _):
            lines = [f"{pad}def {name}({', '.join(params)}):"]
            for x in body:
                lines.extend(format_stmt(x, indent + 1))
            return lines
        case Return(None, _):
            return [f"{pad}return"]
        case Return(v, _):
            return [f"{pad}return {format_expr(v)}"]
        case ExprCall(call, _):
            return [f"{pad}{format_expr(call)}"]
        case IOPrint(args, _):
            return [f"{pad}print(" + ", ".join(format_expr(a) for a in args) + ")"]
        case IORead(t, prompt, _):
            return [f"{pad}{format_expr(t)} = input("
                    + ", ".join(format_expr(a) for a in prompt) + ")"]
        case Unsupported(_, _):
            return [f"{pad}pass  # unsupported"]
    raise TypeError(f"not a statement: {s!r}")


def format_source(stmts) -> str:
    lines: list[str] = []
    for s in stmts:
        lines.extend(format_stmt(s))
    return "\n".join(lines) + ("\n" if lines else "")


def strip_locations(stmts):
    """Structural copy with locations zeroed (and marker diagnostics
    blanked), for layout-free comparison."""
    def strip(s):
        kwargs = {}
        for f in fields(s):
            v = getattr(s, f.name)
            if f.name == "loc":
                kwargs[f.name] = (0, 0)
            elif f.name == "reason":
                kwargs[f.name] = ""
            elif f.name in ("body", "orelse"):
                kwargs[f.name] = tuple(strip(x) for x in v)
            else:
                kwargs[f.name] = v
        return type(s)(**kwargs)
    return tuple(strip(s) for s in stmts)
