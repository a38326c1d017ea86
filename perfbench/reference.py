"""Reference goals computed from the stdlib `ast` module.

This is an implementation of the tables in docs/logical_forms.md that
shares no code with `ccgcomment`: it reads source with `ast.parse` and
writes each statement's goal in the program's printed form
(`assign(x, plus(a, 1))`).  The benchmark compares the program's goals
against it.  Statements outside the subset the docs describe map to
kind `Unsupported` with goal None, and their suites are not reported.
"""

from __future__ import annotations

import ast

_BINOP = {ast.Add: "plus", ast.Sub: "minus", ast.Mult: "times", ast.Div: "divide",
          ast.Mod: "modulo", ast.Pow: "power"}
_CMP = {ast.Eq: "equality", ast.NotEq: "inequality", ast.Lt: "less",
        ast.Gt: "greater", ast.LtE: "at_most", ast.GtE: "at_least"}


class Outside(Exception):
    """The construct is outside the documented subset."""


def pred(name: str, *args: str) -> str:
    return f"{name}({', '.join(args)})"


def render(e: ast.expr) -> str:
    match e:
        case ast.Name(id=name):
            return name
        case ast.Constant(value=bool() | None):
            return str(e.value)
        case ast.Constant(value=int() as v):
            return str(v)
        case ast.Constant(value=str()):
            return pred("string")
        case ast.List(elts=elts):
            for x in elts:
                render(x)
            return pred("list")
        case ast.Dict(keys=keys, values=values):
            if any(k is None for k in keys):
                raise Outside("dict unpacking")
            for x in keys + values:
                render(x)
            return pred("dictionary")
        case ast.BinOp(op=op, left=left, right=right) if type(op) in _BINOP:
            return pred(_BINOP[type(op)], render(left), render(right))
        case ast.Compare():
            return _compare(e)
        case ast.BoolOp() | ast.UnaryOp(op=ast.Not()):
            return cond(e)
        case ast.Call(func=ast.Name(id=fn), args=args, keywords=[]):
            return pred("call_result", fn, *(render(a) for a in _plain(args)))
        case ast.Subscript(value=base, slice=sub) if not isinstance(sub, (ast.Slice, ast.Tuple)):
            return pred("index", render(base), render(sub))
    raise Outside(type(e).__name__)


def _plain(args):
    if any(isinstance(a, ast.Starred) for a in args):
        raise Outside("starred argument")
    return args


def _compare(e: ast.Compare) -> str:
    if len(e.ops) != 1 or type(e.ops[0]) not in _CMP:
        raise Outside("comparison")
    return pred(_CMP[type(e.ops[0])], render(e.left), render(e.comparators[0]))


def cond(e: ast.expr) -> str:
    """The predicate for a boolean context (the docs' cond table)."""
    match e:
        case ast.Compare():
            return _compare(e)
        case ast.Name(id=name):
            return pred("truth", name)
        case ast.UnaryOp(op=ast.Not(), operand=ast.Name(id=name)):
            return pred("falsity", name)
        case ast.UnaryOp(op=ast.Not(), operand=inner):
            return pred("negation", cond(inner))
        case ast.BoolOp(op=op, values=values):
            word = "both" if isinstance(op, ast.And) else "either"
            term = cond(values[0])
            for v in values[1:]:
                term = pred(word, term, cond(v))
            return term
    return pred("truth", render(e))


def _target(t: ast.expr) -> str:
    if not isinstance(t, (ast.Name, ast.Subscript)):
        raise Outside("assignment target")
    return render(t)


def _tag(value: ast.expr) -> str:
    match value:
        case ast.List():
            return "list"
        case ast.Dict():
            return "dictionary"
        case ast.Constant(value=bool() | None):
            return "unknown"
        case ast.Constant(value=int()):
            return "number"
        case ast.Constant(value=str()):
            return "string"
    return "unknown"


class _Walker:
    def __init__(self, lines: list[str]):
        self.lines = lines
        self.out: list[dict] = []

    def emit(self, node: ast.stmt, kind: str, goal: list[str] | None):
        self.out.append({"loc": [node.lineno, node.col_offset], "kind": kind, "goal": goal})

    def block(self, stmts, env: dict):
        for s in stmts:
            self.stmt(s, env)

    def _suite_ok(self, node, body):
        # an inline suite (`if x: y = 1`) is outside the subset
        if body and body[0].lineno == node.lineno:
            raise Outside("inline suite")

    def stmt(self, s: ast.stmt, env: dict):
        mark = len(self.out)
        try:
            self._stmt(s, env)
        except Outside:
            del self.out[mark:]
            self.emit(s, "Unsupported", None)

    def _stmt(self, s: ast.stmt, env: dict):
        match s:
            case ast.Assign(targets=[target], value=ast.Call(func=ast.Name(id="input"), args=args, keywords=[])):
                for a in _plain(args):
                    render(a)
                self.emit(s, "IORead", [pred("input"), pred("target", _target(target))])
                if isinstance(target, ast.Name):
                    env[target.id] = "string"
            case ast.Assign(targets=[target], value=value):
                self.emit(s, "Assign", [pred("assign", _target(target), render(value))])
                if isinstance(target, ast.Name):
                    env[target.id] = _tag(value)
            case ast.AugAssign(target=target, op=op, value=value) if type(op) in _BINOP:
                t = _target(target)
                self.emit(s, "AugAssign", [pred("assign", t, pred(_BINOP[type(op)], t, render(value)))])
                if isinstance(target, ast.Name):
                    env.setdefault(target.id, "unknown")
            case ast.If():
                self._if(s, env)
            case ast.While(test=test, body=body, orelse=[]):
                self._suite_ok(s, body)
                if isinstance(test, ast.Constant) and test.value is True:
                    goal = [pred("loop"), pred("forever")]
                else:
                    goal = [pred("loop"), pred("while"), cond(test)]
                self.emit(s, "While", goal)
                self.block(body, env)
            case ast.For(target=ast.Name(id=var), iter=it, body=body, orelse=[]):
                self._suite_ok(s, body)
                self.emit(s, "ForIn", self._iteration(var, it, env))
                env[var] = "unknown"
                self.block(body, env)
            case ast.FunctionDef(name=name, args=args, body=body, decorator_list=[], returns=None):
                if (args.posonlyargs or args.vararg or args.kwonlyargs or args.kwarg
                        or args.defaults or any(a.annotation for a in args.args)):
                    raise Outside("parameter list")
                self._suite_ok(s, body)
                params = [a.arg for a in args.args]
                goal = [pred("define"), pred("function", name)]
                if params:
                    goal.append(pred("parameters", *params))
                self.emit(s, "FuncDef", goal)
                self.block(body, {})
            case ast.Return(value=None):
                self.emit(s, "Return", [pred("return")])
            case ast.Return(value=value):
                self.emit(s, "Return", [pred("return"), pred("value", render(value))])
            case ast.Expr(value=ast.Call(func=ast.Name(id="print"), args=args, keywords=[])):
                self.emit(s, "IOPrint", [pred("output")] + [pred("value", render(a)) for a in _plain(args)])
            case ast.Expr(value=ast.Call(func=ast.Name(id=fn), args=args, keywords=[])):
                goal = [pred("call"), pred("function", fn)]
                if args:
                    goal.append(pred("arguments", *(render(a) for a in _plain(args))))
                self.emit(s, "ExprCall", goal)
            case _:
                raise Outside(type(s).__name__)

    def _if(self, s: ast.If, env: dict):
        self._suite_ok(s, s.body)
        self.emit(s, "If", [pred("condition"), cond(s.test)])
        self.block(s.body, env)
        orelse = s.orelse
        if len(orelse) == 1 and isinstance(orelse[0], ast.If) and self._is_elif(orelse[0]):
            self._if(orelse[0], env)
        else:
            self.block(orelse, env)

    def _is_elif(self, s: ast.If) -> bool:
        return self.lines[s.lineno - 1][s.col_offset:].startswith("elif")

    def _iteration(self, var: str, it: ast.expr, env: dict) -> list[str]:
        if isinstance(it, ast.Call) and isinstance(it.func, ast.Name) and it.func.id == "range":
            render(it)
            return [pred("iterate"), pred("counter", var)]
        tag = env.get(it.id, "unknown") if isinstance(it, ast.Name) else "unknown"
        target = render(it)
        if tag == "dictionary":
            return [pred("iterate"), pred("keys"), pred("dictionary", target)]
        if tag == "list":
            return [pred("iterate"), pred("element"), pred("list", target)]
        return [pred("iterate"), pred("element"), pred("collection", target)]


def reference_statements(text: str) -> list[dict]:
    """`{loc, kind, goal}` for every statement of `text`, in document order."""
    walker = _Walker(text.splitlines())
    walker.block(ast.parse(text).body, {})
    return walker.out
