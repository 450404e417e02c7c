"""Set-oriented compiled-UDF execution: the ``BatchedUdf`` operator.

The planner's scalar finalization inlines a compiled function as a
*correlated scalar subquery*, so ``SELECT f(x) FROM t`` re-opens (and hence
re-materializes) the whole ``WITH RECURSIVE`` trampoline once per input
row.  This module evaluates the same workload through **one** trampoline:

1. the owning SELECT block materializes its surviving row vectors,
2. for each batched call site the argument expressions are evaluated per
   row, producing a *batch input* relation ``(k, <args...>)`` keyed by the
   row's position,
3. the function's batched trampoline runs once, in its *machine form*
   (:class:`repro.compiler.template.BatchedMachine`): the transition
   rules of the set-oriented template, evaluated as compiled expression
   closures over a working set that carries ``k`` alongside the machine
   state, so every pending call advances in lock-step — one
   condition/argument evaluation per pending call per step, no generic
   operator overhead (the same engine-side move as ``WITH ITERATE``),
4. the ``(k, result)`` output is joined back positionally — a key join on
   ``k`` against an array — and exposed to the projection as the
   ``__batch`` relation.

The per-row scalar path remains the fallback: volatile argument
expressions, volatile function bodies, loop-free functions, calls outside
the select list, and ``planner.batch_compiled = False`` all keep the seed
behaviour (see :meth:`repro.sql.planner.Planner._plan_batched_udfs`).
"""

from __future__ import annotations

from typing import Optional

from ..errors import ExecutionError
from ..expr import EvalContext, ExprCompiler, Relation, Scope
from ..profiler import (BATCHED_UDF_BATCHES, BATCHED_UDF_DISTINCT,
                        BATCHED_UDF_ROWS, TRAMPOLINE_ITERATIONS,
                        TRAMPOLINE_WORKING_ROWS)
from ..values import Row
from .scan import make_slots


def _dedup_key(value):
    """Hashable dedup key distinguishing *representations*, not just SQL
    equality: ``f(5)`` and ``f(5.0)`` compare equal in SQL yet can produce
    different results (integer vs float division), so unlike join keys the
    argument dedup must never merge them."""
    if isinstance(value, Row):
        return ("row",) + tuple(_dedup_key(v) for v in value.values)
    if isinstance(value, list):
        return ("arr",) + tuple(_dedup_key(v) for v in value)
    return (type(value).__name__, value)


class BatchedUdfStagePlan:
    """All batched call sites of one SELECT block (plan-time).

    ``dedup`` (``planner.batch_dedup``): batching materializes the whole
    argument relation before the trampoline runs, so rows with identical
    argument vectors can share one activation — sound because batching
    already requires non-volatile functions.  The per-row scalar path can
    never see this: it evaluates calls one at a time.
    """

    __slots__ = ("calls", "subplans", "dedup")

    def __init__(self, calls: list, subplans, dedup: bool = True):
        self.calls = calls
        self.subplans = subplans
        self.dedup = dedup

    def explain(self, indent: int = 0) -> str:
        lines = []
        for call in self.calls:
            tags = "one trampoline, keyed on k"
            if call.volatility:
                tags += f"; volatility={call.volatility}"
            lines.append("  " * indent
                         + f"-> BatchedUdf {call.name}({call.arg_display})"
                         + f"  [{tags}]")
            lines.extend(call.explain_children(indent + 1))
        return "\n".join(lines)


class BatchedUdfStageState:
    """Per-execution state: one instantiated trampoline per call site."""

    __slots__ = ("rt", "stage", "slots", "calls")

    def __init__(self, rt, stage: BatchedUdfStagePlan, ictx):
        self.rt = rt
        self.stage = stage
        self.slots = make_slots(rt, ictx, stage.subplans)
        self.calls = [call.instantiate(rt, ictx) for call in stage.calls]

    def attach(self, vectors: list[tuple], outer: Optional[EvalContext]
               ) -> list[tuple]:
        """Evaluate every batched call over *vectors*; returns the
        ``__batch`` relation row (one result column per call) per vector."""
        if not vectors:
            return []
        profiler = self.rt.db.profiler
        dedup = self.stage.dedup
        columns = []
        for call_state in self.calls:
            args = call_state.plan.args
            profiler.bump(BATCHED_UDF_BATCHES)
            profiler.bump(BATCHED_UDF_ROWS, len(vectors))
            if dedup:
                # One activation per *distinct* argument vector; every
                # caller row keeps a remap index into the unique batch.
                seen: dict = {}
                batch_rows: list[tuple] = []
                remap = []
                for vec in vectors:
                    ctx = EvalContext(self.rt, vec, parent=outer,
                                      slots=self.slots)
                    values = tuple(arg(ctx) for arg in args)
                    key = tuple(_dedup_key(v) for v in values)
                    index = seen.get(key)
                    if index is None:
                        index = len(batch_rows)
                        seen[key] = index
                        batch_rows.append((index,) + values)
                    remap.append(index)
                profiler.bump(BATCHED_UDF_DISTINCT, len(batch_rows))
                unique = call_state.run(batch_rows)
                columns.append([unique[index] for index in remap])
            else:
                batch_rows = []
                for k, vec in enumerate(vectors):
                    ctx = EvalContext(self.rt, vec, parent=outer,
                                      slots=self.slots)
                    batch_rows.append((k,) + tuple(arg(ctx) for arg in args))
                profiler.bump(BATCHED_UDF_DISTINCT, len(batch_rows))
                columns.append(call_state.run(batch_rows))
        return [tuple(column[k] for column in columns)
                for k in range(len(vectors))]

    def close(self) -> None:
        for call_state in self.calls:
            call_state.close()


# ---------------------------------------------------------------------------
# The trampoline machine — compiled transition rules over the working set
# ---------------------------------------------------------------------------


def compile_machine(machine, planner) -> "MachineCallPlan":
    """Compile a :class:`~repro.compiler.template.BatchedMachine`'s ASTs
    into closures.  The base rule sees one batch-input row ``(params...)``;
    each transition rule sees one state row ``(fn, vars...)`` — with the
    columns that belong to *other* rules masked, so a rule's let-bound
    locals can never capture them (the machine mirror of
    :func:`repro.compiler.template._dispatch_body`'s per-function binding).
    ``MachineLet`` bindings extend the row at run time, exactly like the
    template's LATERAL chain extends the iter row.

    Node closures return the *next* machine row: ``(label, vars...)`` for a
    tail call, ``(None, value)`` for a finished activation — ``fn`` labels
    are 1-based, so ``None`` in slot 0 is unambiguous.
    """
    base_subplans: list = []
    base = _compile_node(
        machine.base, planner,
        [Relation("b", machine.param_columns), Relation("_lets", [])],
        base_subplans)
    trans_subplans: list = []
    transitions = {}
    for label, node in machine.transitions.items():
        own = machine.own_params[label]
        columns = [c if c == "fn" or c in own else "\x00" + c
                   for c in machine.state_columns]
        transitions[label] = _compile_node(
            node, planner,
            [Relation("s", columns), Relation("_lets", [])],
            trans_subplans)
    return MachineCallPlan(base, base_subplans, transitions, trans_subplans)


def _compile_node(node, planner, rels: list, subplans: list):
    from ...compiler.template import (MachineCall, MachineIf, MachineLet,
                                      MachineResult)

    def compile_expr(ast):
        # Fresh compiler per expression (the visible columns grow through
        # let bindings) sharing one subplan slot list per rule set.
        compiler = ExprCompiler(Scope(rels), planner)
        compiler.subplans = subplans
        compiler.slot_count = len(subplans)
        return compiler.compile(ast)

    if isinstance(node, MachineLet):
        # Let values land in the second relation's mutable row (appended in
        # path order; only one branch runs per row, so indices line up).
        # Whole chains fuse into one closure — a let costs one expression
        # evaluation plus a list append, nothing more.
        values = []
        pushed = 0
        while isinstance(node, MachineLet):
            values.append(compile_expr(node.value))
            rels[1].columns.append(node.var.lower())
            pushed += 1
            node = node.body
        body_fn = _compile_node(node, planner, rels, subplans)
        del rels[1].columns[-pushed:]
        if len(values) == 1:
            value0, = values

            def run_let(ctx):
                ctx.rows[1].append(value0(ctx))
                return body_fn(ctx)

            return run_let

        def run_lets(ctx):
            lets = ctx.rows[1]
            for value in values:
                lets.append(value(ctx))
            return body_fn(ctx)

        return run_lets
    if isinstance(node, MachineIf):
        cond = compile_expr(node.condition)
        then_fn = _compile_node(node.then_node, planner, rels, subplans)
        else_fn = _compile_node(node.else_node, planner, rels, subplans)

        def run_if(ctx):
            return then_fn(ctx) if cond(ctx) is True else else_fn(ctx)

        return run_if
    if isinstance(node, MachineCall):
        arg_fns = [compile_expr(a) for a in node.args]
        label = node.label
        if len(arg_fns) == 1:
            a0, = arg_fns
            return lambda ctx: (label, a0(ctx))
        if len(arg_fns) == 2:
            a0, a1 = arg_fns
            return lambda ctx: (label, a0(ctx), a1(ctx))
        if len(arg_fns) == 3:
            a0, a1, a2 = arg_fns
            return lambda ctx: (label, a0(ctx), a1(ctx), a2(ctx))
        if len(arg_fns) == 4:
            a0, a1, a2, a3 = arg_fns
            return lambda ctx: (label, a0(ctx), a1(ctx), a2(ctx), a3(ctx))

        def run_call(ctx):
            return (label,) + tuple(fn(ctx) for fn in arg_fns)

        return run_call
    assert isinstance(node, MachineResult)
    value = compile_expr(node.value)

    def run_result(ctx):
        return (None, value(ctx))

    return run_result


class MachineCallPlan:
    """One batched call site evaluated via compiled transition rules."""

    __slots__ = ("name", "arg_display", "args", "volatility", "base",
                 "base_subplans", "transitions", "trans_subplans")

    def __init__(self, base, base_subplans, transitions, trans_subplans):
        self.name = ""
        self.arg_display = ""
        self.args: list = []
        self.volatility = ""
        self.base = base
        self.base_subplans = base_subplans
        self.transitions = transitions
        self.trans_subplans = trans_subplans

    def at_call_site(self, name: str, arg_display: str,
                     args: list) -> "MachineCallPlan":
        """A shallow per-call-site copy (the compiled rules are shared)."""
        site = MachineCallPlan(self.base, self.base_subplans,
                               self.transitions, self.trans_subplans)
        site.name = name
        site.arg_display = arg_display
        site.args = args
        site.volatility = self.volatility
        return site

    def explain_children(self, indent: int) -> list[str]:
        return ["  " * indent
                + f"-> Trampoline machine ({len(self.transitions)} "
                + ("transition rule)" if len(self.transitions) == 1
                   else "transition rules)")]

    def instantiate(self, rt, ictx) -> "MachineCallState":
        return MachineCallState(rt, self, ictx)


class MachineCallState:
    __slots__ = ("rt", "plan", "base_slots", "trans_slots")

    def __init__(self, rt, plan: MachineCallPlan, ictx):
        self.rt = rt
        self.plan = plan
        self.base_slots = make_slots(rt, ictx, plan.base_subplans)
        self.trans_slots = make_slots(rt, ictx, plan.trans_subplans)

    def run(self, batch_rows: list[tuple]) -> list:
        """Advance every pending call in lock-step; results aligned by k."""
        rt = self.rt
        plan = self.plan
        profiler = rt.db.profiler
        results: list = [None] * len(batch_rows)
        base = plan.base
        # One context per rule set, rebound per row through a shared vector
        # (slot 0: the machine row, slot 1: this row's let bindings).
        lets: list = []
        vector: list = [None, lets]
        base_ctx = EvalContext(rt, vector, slots=self.base_slots)
        working: list = []  # (k, state) pairs, state = (label, vars...)
        for row in batch_rows:
            vector[0] = row[1:]
            del lets[:]
            out = base(base_ctx)
            if out[0] is None:
                results[row[0]] = out[1]
            else:
                working.append((row[0], out))
        transitions = plan.transitions
        single = (next(iter(transitions.values()))
                  if len(transitions) == 1 else None)
        ctx = EvalContext(rt, vector, slots=self.trans_slots)
        limit = rt.db.max_recursion_iterations
        cancel = rt.cancel
        iterations = 0
        while working:
            cancel.check()
            iterations += 1
            if iterations > limit:
                raise ExecutionError(
                    f"batched evaluation of {plan.name}() exceeded {limit} "
                    "iterations (possible infinite recursion)")
            profiler.bump(TRAMPOLINE_ITERATIONS)
            profiler.bump(TRAMPOLINE_WORKING_ROWS, len(working))
            next_working = []
            append = next_working.append
            if single is not None:
                for k, state in working:
                    vector[0] = state
                    del lets[:]
                    out = single(ctx)
                    if out[0] is None:
                        results[k] = out[1]
                    else:
                        append((k, out))
            else:
                for k, state in working:
                    vector[0] = state
                    del lets[:]
                    out = transitions[state[0]](ctx)
                    if out[0] is None:
                        results[k] = out[1]
                    else:
                        append((k, out))
            working = next_working
        return results

    def close(self) -> None:
        pass
