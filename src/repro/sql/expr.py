"""Expression compilation and evaluation.

The planner compiles every scalar expression of a plan node into a Python
closure ``fn(ctx) -> Value`` at *plan* time (name resolution happens here,
once).  At *run* time the closure is applied to an :class:`EvalContext`
carrying the current input row(s); this is the engine's equivalent of
PostgreSQL's ``ExprState`` machinery.

Correlated and scalar subqueries compile into *subplans*.  A subplan is
instantiated lazily once per execution (charged to the first evaluation) and
*re-opened* on subsequent evaluations — the cheap "rescan" that lets a single
compiled ``WITH RECURSIVE`` plan evaluate the paper's embedded queries
``Q1..Q3`` thousands of times without per-evaluation ExecutorStart cost.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from . import ast as A
from .errors import (ExecutionError, NameResolutionError, PlanError,
                     TypeError_)
from .functions import (SCALAR_BUILTINS, is_aggregate_name,
                        is_window_function_name)
from .types import cast_value
from .values import (Row, Value, sql_and, sql_eq, sql_ge, sql_gt, sql_le,
                     sql_lt, sql_ne, sql_not, sql_or)

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Database
    from .planner import Plan, Planner


class RuntimeContext:
    """Per-execution runtime services: database handle and parameters.

    ``cancel`` snapshots the statement's cancellation token (see
    :mod:`repro.sql.cancel`) at instantiation time so executor hot loops
    can poll it with two attribute loads; outside any statement it falls
    back to a token nothing ever trips.
    """

    __slots__ = ("db", "params", "depth", "cancel")

    def __init__(self, db: "Database", params: Sequence[Value] = ()):
        self.db = db
        self.params = tuple(params)
        self.depth = 0
        cancel = getattr(db, "_active_cancel", None)
        if cancel is None:
            from .cancel import NEVER_CANCELED
            cancel = NEVER_CANCELED
        self.cancel = cancel

    @property
    def rng(self):
        return self.db.rng

    @property
    def catalog(self):
        return self.db.catalog


class EvalContext:
    """A row binding environment for one expression evaluation.

    ``rows`` holds one tuple per relation visible in the innermost scope;
    ``parent`` chains outward for correlated references; ``slots`` is the
    owning operator's per-execution subplan cache.
    """

    __slots__ = ("rt", "rows", "parent", "slots")

    def __init__(self, rt: RuntimeContext, rows: Sequence[tuple],
                 parent: Optional["EvalContext"] = None,
                 slots: Optional[list] = None):
        self.rt = rt
        self.rows = rows
        self.parent = parent
        self.slots = slots if slots is not None else []


class Relation:
    """Plan-time description of one FROM-clause relation."""

    __slots__ = ("alias", "columns")

    def __init__(self, alias: str, columns: Sequence[str]):
        self.alias = alias.lower()
        self.columns = [c.lower() for c in columns]

    def __repr__(self) -> str:
        return f"Relation({self.alias}, {self.columns})"


class Scope:
    """Plan-time name-resolution scope (one per SELECT nesting level).

    ``observer``, when set, is called with ``(rel_index, col_index)`` every
    time a name (from any nesting depth) resolves into *this* scope's
    relations — the planner's index-pushdown probe uses this to prove that
    a key expression never touches the scanned relation.
    """

    def __init__(self, relations: Sequence[Relation],
                 parent: Optional["Scope"] = None):
        self.relations = list(relations)
        self.parent = parent
        self.observer = None

    def child(self, relations: Sequence[Relation]) -> "Scope":
        return Scope(relations, parent=self)

    def resolve(self, parts: tuple[str, ...]):
        """Resolve a (possibly qualified) name to
        ``(level, rel_index, col_index, field_tail)``.

        ``level`` counts how many scopes outward the reference is; a nonzero
        level makes the expression *correlated*.
        """
        scope: Optional[Scope] = self
        level = 0
        first = parts[0].lower()
        while scope is not None:
            # 1. qualified: first part names a relation alias.
            if len(parts) >= 2:
                for rel_index, rel in enumerate(scope.relations):
                    if rel.alias == first:
                        column = parts[1].lower()
                        if column in rel.columns:
                            if scope.observer is not None:
                                scope.observer(rel_index,
                                               rel.columns.index(column))
                            return (level, rel_index,
                                    rel.columns.index(column), parts[2:])
                        raise NameResolutionError(
                            f"relation {first!r} has no column {parts[1]!r} "
                            f"(columns: {rel.columns})")
            # 2. bare column name, possibly with composite field tail.
            matches = [(rel_index, rel.columns.index(first))
                       for rel_index, rel in enumerate(scope.relations)
                       if first in rel.columns]
            if len(matches) == 1:
                rel_index, col_index = matches[0]
                if scope.observer is not None:
                    scope.observer(rel_index, col_index)
                return (level, rel_index, col_index, parts[1:])
            if len(matches) > 1:
                raise NameResolutionError(f"column reference {first!r} is ambiguous")
            scope = scope.parent
            level += 1
        raise NameResolutionError(f"column {'.'.join(parts)!r} does not exist")


CompiledExpr = Callable[[EvalContext], Value]


class ExprCompiler:
    """Compiles AST expressions to closures within one plan node's scope.

    After compiling all of a node's expressions, :attr:`slot_count` tells the
    node how many subplan slots its PlanState must allocate.
    """

    def __init__(self, scope: Scope, planner: Optional["Planner"] = None):
        self.scope = scope
        self.planner = planner
        self.slot_count = 0
        #: Subplans aligned with slot indices; the owning plan node's state
        #: eagerly instantiates these into its slot list (ExecutorStart).
        self.subplans: list = []

    # ------------------------------------------------------------------

    def compile(self, expr: A.Expr) -> CompiledExpr:
        method = getattr(self, "_compile_" + type(expr).__name__, None)
        if method is None:
            raise PlanError(f"cannot compile expression node {type(expr).__name__}")
        return method(expr)

    def compile_many(self, exprs: Sequence[A.Expr]) -> list[CompiledExpr]:
        return [self.compile(e) for e in exprs]

    def _alloc_slot(self) -> int:
        index = self.slot_count
        self.slot_count += 1
        return index

    # -- leaves -----------------------------------------------------------

    def _compile_Literal(self, expr: A.Literal) -> CompiledExpr:
        value = expr.value
        return lambda ctx: value

    def _compile_Param(self, expr: A.Param) -> CompiledExpr:
        index = expr.index - 1
        if index < 0:
            raise PlanError("parameters are numbered from $1")

        def run(ctx: EvalContext) -> Value:
            params = ctx.rt.params
            if index >= len(params):
                raise ExecutionError(f"no value supplied for parameter ${index + 1}")
            return params[index]

        return run

    def _compile_ColumnRef(self, expr: A.ColumnRef) -> CompiledExpr:
        level, rel_index, col_index, fields = self.scope.resolve(expr.parts)
        if not fields:
            if level == 0:
                return lambda ctx: ctx.rows[rel_index][col_index]

            def run_outer(ctx: EvalContext) -> Value:
                target = ctx
                for _ in range(level):
                    if target.parent is None:
                        raise ExecutionError(
                            f"missing outer context for {expr.display!r}")
                    target = target.parent
                return target.rows[rel_index][col_index]

            return run_outer

        field_tail = tuple(fields)

        def run_fields(ctx: EvalContext) -> Value:
            target = ctx
            for _ in range(level):
                target = target.parent  # type: ignore[assignment]
            value = target.rows[rel_index][col_index]
            for name in field_tail:
                if value is None:
                    return None
                if not isinstance(value, Row):
                    raise TypeError_(
                        f"cannot access field {name!r} of non-composite value")
                value = value.field(name)
            return value

        return run_fields

    # -- operators --------------------------------------------------------

    def _compile_BinaryOp(self, expr: A.BinaryOp) -> CompiledExpr:
        op = expr.op
        if op == "and":
            left, right = self.compile(expr.left), self.compile(expr.right)

            def run_and(ctx: EvalContext):
                lhs = _as_bool(left(ctx))
                if lhs is False:
                    return False
                return sql_and(lhs, _as_bool(right(ctx)))

            return run_and
        if op == "or":
            left, right = self.compile(expr.left), self.compile(expr.right)

            def run_or(ctx: EvalContext):
                lhs = _as_bool(left(ctx))
                if lhs is True:
                    return True
                return sql_or(lhs, _as_bool(right(ctx)))

            return run_or
        left, right = self.compile(expr.left), self.compile(expr.right)
        cmp_fn = COMPARE_FNS.get(op)
        if cmp_fn is not None:
            return lambda ctx: cmp_fn(left(ctx), right(ctx))
        if op == "||":
            return lambda ctx: _concat(left(ctx), right(ctx))
        if op not in _ARITH_FNS:
            raise PlanError(f"unknown binary operator {op!r}")
        apply = arith_value_fn(op)

        def run_arith(ctx: EvalContext):
            a = left(ctx)
            if a is None:
                return None
            return apply(a, right(ctx))

        return run_arith

    def _compile_UnaryOp(self, expr: A.UnaryOp) -> CompiledExpr:
        operand = self.compile(expr.operand)
        if expr.op == "not":
            return lambda ctx: sql_not(_as_bool(operand(ctx)))
        if expr.op == "-":
            def run_neg(ctx: EvalContext):
                value = operand(ctx)
                if value is None:
                    return None
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    raise TypeError_("unary minus expects a number")
                return -value
            return run_neg
        if expr.op == "+":
            return operand
        raise PlanError(f"unknown unary operator {expr.op!r}")

    def _compile_IsNull(self, expr: A.IsNull) -> CompiledExpr:
        operand = self.compile(expr.operand)
        if expr.negated:
            return lambda ctx: operand(ctx) is not None
        return lambda ctx: operand(ctx) is None

    def _compile_IsBool(self, expr: A.IsBool) -> CompiledExpr:
        operand = self.compile(expr.operand)
        wanted = expr.value
        negated = expr.negated

        def run(ctx: EvalContext):
            value = _as_bool(operand(ctx))
            result = value is wanted
            return (not result) if negated else result

        return run

    def _compile_Between(self, expr: A.Between) -> CompiledExpr:
        operand = self.compile(expr.operand)
        low = self.compile(expr.low)
        high = self.compile(expr.high)
        negated = expr.negated

        def run(ctx: EvalContext):
            value = operand(ctx)
            result = sql_and(sql_ge(value, low(ctx)), sql_le(value, high(ctx)))
            return sql_not(result) if negated else result

        return run

    def _compile_InList(self, expr: A.InList) -> CompiledExpr:
        operand = self.compile(expr.operand)
        items = self.compile_many(expr.items)
        negated = expr.negated

        def run(ctx: EvalContext):
            value = operand(ctx)
            result: Optional[bool] = False
            for item in items:
                part = sql_eq(value, item(ctx))
                if part is True:
                    result = True
                    break
                if part is None:
                    result = None
            return sql_not(result) if negated else result

        return run

    def _compile_Like(self, expr: A.Like) -> CompiledExpr:
        operand = self.compile(expr.operand)
        pattern = self.compile(expr.pattern)
        negated = expr.negated
        flags = re.IGNORECASE if expr.case_insensitive else 0
        cache: dict[str, re.Pattern] = {}

        def run(ctx: EvalContext):
            value = operand(ctx)
            pat = pattern(ctx)
            if value is None or pat is None:
                return None
            regex = cache.get(pat)
            if regex is None:
                regex = re.compile(_like_to_regex(pat), flags)
                if len(cache) < 64:
                    cache[pat] = regex
            result = regex.fullmatch(value) is not None
            return (not result) if negated else result

        return run

    def _compile_CaseExpr(self, expr: A.CaseExpr) -> CompiledExpr:
        whens = [(self.compile(c), self.compile(r)) for c, r in expr.whens]
        else_result = (self.compile(expr.else_result)
                       if expr.else_result is not None else None)
        if expr.operand is None:
            def run_searched(ctx: EvalContext):
                for cond, result in whens:
                    if _as_bool(cond(ctx)) is True:
                        return result(ctx)
                return else_result(ctx) if else_result is not None else None
            return run_searched

        operand = self.compile(expr.operand)

        def run_simple(ctx: EvalContext):
            value = operand(ctx)
            for cond, result in whens:
                if sql_eq(value, cond(ctx)) is True:
                    return result(ctx)
            return else_result(ctx) if else_result is not None else None

        return run_simple

    def _compile_Cast(self, expr: A.Cast) -> CompiledExpr:
        operand = self.compile(expr.operand)
        type_name = expr.type_name

        def run(ctx: EvalContext):
            composite = ctx.rt.catalog.get_type(type_name)
            return cast_value(operand(ctx), type_name, composite)

        return run

    def _compile_RowExpr(self, expr: A.RowExpr) -> CompiledExpr:
        items = self.compile_many(expr.items)
        type_name = expr.type_name

        def run(ctx: EvalContext):
            values = [item(ctx) for item in items]
            if type_name is not None:
                composite = ctx.rt.catalog.get_type(type_name)
                if composite is not None:
                    return composite.make_row(values)
            return Row(values, type_name=type_name)

        return run

    def _compile_ArrayExpr(self, expr: A.ArrayExpr) -> CompiledExpr:
        items = self.compile_many(expr.items)
        return lambda ctx: [item(ctx) for item in items]

    def _compile_ArrayIndex(self, expr: A.ArrayIndex) -> CompiledExpr:
        operand = self.compile(expr.operand)
        index = self.compile(expr.index)

        def run(ctx: EvalContext):
            arr = operand(ctx)
            i = index(ctx)
            if arr is None or i is None:
                return None
            if not isinstance(arr, list):
                raise TypeError_("cannot subscript a non-array value")
            if not isinstance(i, int) or isinstance(i, bool):
                raise TypeError_("array subscript must be an integer")
            if i < 1 or i > len(arr):
                return None
            return arr[i - 1]

        return run

    def _compile_FieldAccess(self, expr: A.FieldAccess) -> CompiledExpr:
        operand = self.compile(expr.operand)
        name = expr.fieldname

        def run(ctx: EvalContext):
            value = operand(ctx)
            if value is None:
                return None
            if not isinstance(value, Row):
                raise TypeError_(f"cannot access field {name!r} of "
                                 f"{type(value).__name__}")
            return value.field(name)

        return run

    # -- function calls -----------------------------------------------------

    def _compile_FuncCall(self, expr: A.FuncCall) -> CompiledExpr:
        name = expr.name.lower()
        if expr.window is not None:
            raise PlanError(f"window function {name}() not allowed here")
        if is_aggregate_name(name):
            raise PlanError(f"aggregate {name}() not allowed here")
        if name == "coalesce":
            items = self.compile_many(expr.args)

            def run_coalesce(ctx: EvalContext):
                for item in items:
                    value = item(ctx)
                    if value is not None:
                        return value
                return None

            return run_coalesce
        builtin = SCALAR_BUILTINS.get(name)
        if builtin is not None:
            args = self.compile_many(expr.args)
            return lambda ctx: builtin(ctx.rt, *[a(ctx) for a in args])
        if self.planner is not None:
            fdef = self.planner.catalog.get_function(name)
            if fdef is None:
                raise NameResolutionError(f"unknown function {name!r}")
            if len(expr.args) != fdef.arity:
                raise PlanError(
                    f"function {name}() takes {fdef.arity} arguments, "
                    f"got {len(expr.args)}")
            if fdef.kind == "compiled" and self.planner.inline_compiled:
                # The paper's finalization step: splice the compiled pure-SQL
                # query Qf into the call site so Q and Qf are planned as one.
                from .astutil import substitute_params_select
                inlined = substitute_params_select(fdef.query, list(expr.args))
                return self._compile_ScalarSubquery(A.ScalarSubquery(inlined))
        # User-defined function (SQL / PL/pgSQL / compiled-but-not-inlined):
        # every evaluation is a Q→f context switch through the engine.
        args = self.compile_many(expr.args)

        def run_udf(ctx: EvalContext):
            fdef = ctx.rt.catalog.get_function(name)
            if fdef is None:
                raise NameResolutionError(f"unknown function {name!r}")
            values = [a(ctx) for a in args]
            return ctx.rt.db.call_function(fdef, values)

        return run_udf

    # -- subqueries ----------------------------------------------------------

    def _plan_subquery(self, query: A.SelectStmt) -> "Plan":
        if self.planner is None:
            raise PlanError("subqueries are not allowed in this context")
        # Expression subqueries (EXISTS / IN / scalar) stop pulling rows
        # early, so everything planned beneath them must stay lazily
        # evaluated — the planner declines eager compiled-UDF batching
        # while this depth is nonzero.
        self.planner.expr_subquery_depth += 1
        try:
            return self.planner.plan_select(query, outer_scope=self.scope)
        finally:
            self.planner.expr_subquery_depth -= 1

    def _subplan_runner(self, query: A.SelectStmt):
        """Return ``run(ctx) -> PlanState`` fetching the pre-instantiated
        subplan from this node's slot array and (re)opening it for *ctx*."""
        plan = self._plan_subquery(query)
        slot = self._alloc_slot()
        self.subplans.append(plan)

        def run(ctx: EvalContext):
            try:
                state = ctx.slots[slot]
            except IndexError:
                raise ExecutionError(
                    "internal: subplan slot missing (operator did not "
                    "allocate expression slots)")
            state.open(ctx)
            return state

        return run

    def _compile_ScalarSubquery(self, expr: A.ScalarSubquery) -> CompiledExpr:
        runner = self._subplan_runner(expr.query)

        def run(ctx: EvalContext):
            state = runner(ctx)
            first = state.next()
            if first is None:
                return None
            if state.next() is not None:
                raise ExecutionError(
                    "more than one row returned by a subquery used as an expression")
            if len(first) == 1:
                return first[0]
            return Row(first)

        return run

    def _compile_Exists(self, expr: A.Exists) -> CompiledExpr:
        runner = self._subplan_runner(expr.subquery)

        def run(ctx: EvalContext):
            state = runner(ctx)
            return state.next() is not None

        return run

    def _compile_InSubquery(self, expr: A.InSubquery) -> CompiledExpr:
        operand = self.compile(expr.operand)
        runner = self._subplan_runner(expr.subquery)
        negated = expr.negated

        def run(ctx: EvalContext):
            value = operand(ctx)
            state = runner(ctx)
            result: Optional[bool] = False
            while True:
                row = state.next()
                if row is None:
                    break
                candidate = row[0] if len(row) == 1 else Row(row)
                part = sql_eq(value, candidate)
                if part is True:
                    result = True
                    break
                if part is None:
                    result = None
            return sql_not(result) if negated else result

        return run


# ---------------------------------------------------------------------------
# Value-level helpers
# ---------------------------------------------------------------------------


def _as_bool(value: Value) -> Optional[bool]:
    if value is None or isinstance(value, bool):
        return value
    raise TypeError_(f"expected boolean, got {type(value).__name__}")


def _check_number(value: Value) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError_(f"expected number, got {type(value).__name__}")


def _add(a, b):
    _check_number(a), _check_number(b)
    return a + b


def _sub(a, b):
    _check_number(a), _check_number(b)
    return a - b


def _mul(a, b):
    _check_number(a), _check_number(b)
    return a * b


def _int_div(a: int, b: int) -> int:
    if b == 0:
        raise ExecutionError("division by zero")
    # PostgreSQL integer division truncates toward zero.
    quotient = abs(a) // abs(b)
    return quotient if (a >= 0) == (b >= 0) else -quotient


def _int_mod(a: int, b: int) -> int:
    if b == 0:
        raise ExecutionError("division by zero")
    # Sign follows the dividend (PostgreSQL semantics).
    remainder = abs(a) % abs(b)
    return remainder if a >= 0 else -remainder


def _div(a, b):
    _check_number(a), _check_number(b)
    if isinstance(a, int) and isinstance(b, int):
        return _int_div(a, b)
    if b == 0:
        raise ExecutionError("division by zero")
    return a / b


def _mod(a, b):
    _check_number(a), _check_number(b)
    if isinstance(a, int) and isinstance(b, int):
        return _int_mod(a, b)
    if b == 0:
        raise ExecutionError("division by zero")
    import math
    return math.fmod(a, b)


def _pow(a, b):
    import math

    _check_number(a), _check_number(b)
    # PostgreSQL ^ semantics: double-precision result, with the two error
    # cases numeric exponentiation rejects.  Infinite/NaN exponents skip the
    # integrality test and take IEEE semantics ((-2) ^ inf = inf).
    if a == 0 and b < 0:
        raise ExecutionError("zero raised to a negative power is undefined")
    if a < 0 and math.isfinite(b) and float(b) != int(b):
        raise ExecutionError("a negative number raised to a non-integer "
                             "power yields a complex result")
    try:
        return float(a) ** float(b)
    except OverflowError:
        raise ExecutionError("value out of range: overflow")


COMPARE_FNS = {"=": sql_eq, "<>": sql_ne, "<": sql_lt, "<=": sql_le,
               ">": sql_gt, ">=": sql_ge}

_ARITH_FNS = {"+": _add, "-": _sub, "*": _mul, "/": _div, "%": _mod,
              "^": _pow}

#: Exact-int shortcuts taken by :func:`arith_value_fn` (``^`` stays on the
#: generic path: SQL power always yields double precision).
_INT_FAST_FNS = {"+": lambda a, b: a + b, "-": lambda a, b: a - b,
                 "*": lambda a, b: a * b, "/": _int_div, "%": _int_mod}


def arith_value_fn(op: str) -> Callable[[Value, Value], Value]:
    """The value function of binary arithmetic *op*: NULL in, NULL out;
    exact ints (bool excluded by ``type() is``) take the fast path, where
    / and % keep their SQL division/sign semantics.  The row closure and
    the batch kernel (:mod:`repro.sql.executor.vector`) both call it."""
    arith = _ARITH_FNS[op]
    fast = _INT_FAST_FNS.get(op)
    if fast is None:
        def apply(a, b):
            if a is None or b is None:
                return None
            return arith(a, b)
        return apply

    def apply_fast(a, b):
        if type(a) is int and type(b) is int:
            return fast(a, b)
        if a is None or b is None:
            return None
        return arith(a, b)

    return apply_fast


def _concat(a: Value, b: Value) -> Value:
    if a is None or b is None:
        return None
    if isinstance(a, list) and isinstance(b, list):
        return a + b
    if isinstance(a, list):
        return a + [b]
    if isinstance(b, list):
        return [a] + b

    def text(v):
        if isinstance(v, str):
            return v
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, (int, float)):
            return str(v)
        from .values import render_value
        return render_value(v)

    return text(a) + text(b)


def _like_to_regex(pattern: str) -> str:
    out = []
    i = 0
    while i < len(pattern):
        ch = pattern[i]
        if ch == "\\" and i + 1 < len(pattern):
            out.append(re.escape(pattern[i + 1]))
            i += 2
            continue
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
        i += 1
    return "".join(out)
