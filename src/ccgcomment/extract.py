"""Statement -> logical form extraction.

Each supported statement maps to a small set of ground predicates (the
communicative goal for the realizer); see docs/logical_forms.md for the
full per-kind table.  A lightweight, flow-insensitive type environment
tracks which names were last assigned list/dictionary literals so that
iteration goals can distinguish the two.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import pyparse as py
from .realize import Goal
from .terms import Const, Pred, Term, format_term, subterms

_BINOP_PRED = {"+": "plus", "-": "minus", "*": "times", "/": "divide",
               "%": "modulo", "**": "power"}
_COMPARE_PRED = {"==": "equality", "!=": "inequality", "<": "less",
                 ">": "greater", "<=": "at_most", ">=": "at_least"}


@dataclass
class TypeEnv:
    """Name -> {list, dictionary, number, string, unknown} tag map."""
    bindings: dict[str, str] = field(default_factory=dict)

    def lookup(self, name: str) -> str:
        return self.bindings.get(name, "unknown")

    def observe(self, stmt: py.SourceStmt):
        match stmt:
            case py.Assign(py.Name(name), value, _):
                self.bindings[name] = _value_tag(value)
            case py.IORead(py.Name(name), _, _):
                self.bindings[name] = "string"
            case py.ForIn(var, _, _, _):
                self.bindings[var] = "unknown"
            case py.AugAssign(py.Name(name), _, _, _):
                self.bindings.setdefault(name, "unknown")
            case _:
                pass


def _value_tag(e: py.Expr) -> str:
    match e:
        case py.ListLit():
            return "list"
        case py.DictLit():
            return "dictionary"
        case py.NumLit():
            return "number"
        case py.StrLit():
            return "string"
        case _:
            return "unknown"


@dataclass(frozen=True)
class AnnotatedStmt:
    stmt: py.SourceStmt
    goal: Goal | None  # None only for Unsupported markers


def render(e: py.Expr) -> Term:
    """Encode an expression as a ground term for use inside predicates."""
    match e:
        case py.Name(id_):
            return Const(id_)
        case py.NumLit(v):
            return Const(str(v))
        case py.StrLit(_):
            return Pred("string")
        case py.ListLit(_):
            return Pred("list")
        case py.DictLit(_):
            return Pred("dictionary")
        case py.BinOp(op, l, r):
            return Pred(_BINOP_PRED[op], (render(l), render(r)))
        case py.Compare(op, l, r):
            return Pred(_COMPARE_PRED[op], (render(l), render(r)))
        case py.BoolOp(_, _):
            return _condition_term(e)
        case py.Call(fn, args):
            return Pred("call_result", (Const(fn.id),) + tuple(render(a) for a in args))
        case py.Index(base, sub):
            return Pred("index", (render(base), render(sub)))
    raise ValueError(f"cannot render {e!r}")


def _condition_term(e: py.Expr) -> Term:
    """The predicate describing a boolean context, without markers."""
    match e:
        case py.Compare(op, l, r):
            return Pred(_COMPARE_PRED[op], (render(l), render(r)))
        case py.Name(_):
            return Pred("truth", (render(e),))
        case py.BoolOp("not", (py.Name(_) as inner,)):
            return Pred("falsity", (render(inner),))
        case py.BoolOp("not", (inner,)):
            return Pred("negation", (_condition_term(inner),))
        case py.BoolOp("and", args):
            term = _condition_term(args[0])
            for a in args[1:]:
                term = Pred("both", (term, _condition_term(a)))
            return term
        case py.BoolOp("or", args):
            term = _condition_term(args[0])
            for a in args[1:]:
                term = Pred("either", (term, _condition_term(a)))
            return term
        case _:
            return Pred("truth", (render(e),))


def _iteration_goal(stmt: py.ForIn, env: TypeEnv) -> Goal:
    it = stmt.iterable
    if isinstance(it, py.Call) and it.fn.id == "range":
        return Goal((Pred("iterate"), Pred("counter", (Const(stmt.var),))))
    tag = env.lookup(it.id) if isinstance(it, py.Name) else "unknown"
    target = render(it)
    if tag == "dictionary":
        return Goal((Pred("iterate"), Pred("keys"), Pred("dictionary", (target,))))
    if tag == "list":
        return Goal((Pred("iterate"), Pred("element"), Pred("list", (target,))))
    return Goal((Pred("iterate"), Pred("element"), Pred("collection", (target,))))


def statement_goal(stmt: py.SourceStmt, env: TypeEnv) -> Goal | None:
    match stmt:
        case py.Assign(target, value, _):
            return Goal((Pred("assign", (render(target), render(value))),))
        case py.AugAssign(target, op, value, _):
            t = render(target)
            return Goal((Pred("assign", (t, Pred(_BINOP_PRED[op], (t, render(value))))),))
        case py.If(cond, _, _, _):
            return Goal((Pred("condition"), _condition_term(cond)))
        case py.While(py.Name("True"), _, _):
            return Goal((Pred("loop"), Pred("forever")))
        case py.While(cond, _, _):
            return Goal((Pred("loop"), Pred("while"), _condition_term(cond)))
        case py.ForIn(_, _, _, _):
            return _iteration_goal(stmt, env)
        case py.FuncDef(name, params, _, _):
            preds = [Pred("define"), Pred("function", (Const(name),))]
            if params:
                preds.append(Pred("parameters", tuple(Const(p) for p in params)))
            return Goal(tuple(preds))
        case py.Return(None, _):
            return Goal((Pred("return"),))
        case py.Return(value, _):
            return Goal((Pred("return"), Pred("value", (render(value),))))
        case py.ExprCall(call, _):
            preds = [Pred("call"), Pred("function", (Const(call.fn.id),))]
            if call.args:
                preds.append(Pred("arguments", tuple(render(a) for a in call.args)))
            return Goal(tuple(preds))
        case py.IOPrint(args, _):
            preds = [Pred("output")]
            preds.extend(Pred("value", (render(a),)) for a in args)
            return Goal(tuple(preds))
        case py.IORead(target, _, _):
            return Goal((Pred("input"), Pred("target", (render(target),))))
        case py.Unsupported(_, _):
            return None
    raise TypeError(f"not a statement: {stmt!r}")


def _walk(stmts, env: TypeEnv, out: list[AnnotatedStmt]):
    for stmt in stmts:
        out.append(AnnotatedStmt(stmt, statement_goal(stmt, env)))
        env.observe(stmt)
        match stmt:
            case py.FuncDef(_, _, body, _):
                _walk(body, TypeEnv(), out)  # fresh scope
            case py.If(_, body, orelse, _):
                _walk(body, env, out)
                _walk(orelse, env, out)
            case py.While(_, body, _) | py.ForIn(_, _, body, _):
                _walk(body, env, out)
            case _:
                pass


def extract(stmts) -> list[AnnotatedStmt]:
    """Annotate every statement (document order) with its goal."""
    out: list[AnnotatedStmt] = []
    _walk(stmts, TypeEnv(), out)
    return out


def goal_strings(goal: Goal) -> list[str]:
    return [format_term(p) for p in goal.predicates]


def goal_constants(goal: Goal) -> list[str]:
    """Constant names mentioned anywhere in the goal, in first-seen order."""
    return list(dict.fromkeys(t.name for t in subterms(goal.as_term()) if isinstance(t, Const)))
