"""Vectorized batch-at-a-time execution of the scan→filter→project→aggregate
pipeline.

The paper's thesis is that set-oriented execution beats row-at-a-time
dispatch; PR 2 proved it for compiled UDFs.  This module applies the same
idea to plain SELECT blocks over a single base table: instead of pulling
one dict-row at a time through the Volcano ``next()`` chain (one
``EvalContext`` allocation and a closure-tree walk per row), the engine
pulls **column batches** of ~:data:`BATCH_SIZE` rows straight from the
table's scan — ``HeapTable.visible_rows`` for a SeqScan, or the bisected
window of a sorted index for a bounded ``IndexRangeScan`` — and evaluates
batch-compiled expressions in tight loops over the columns.

**One expression semantics.**  A batch expression is a small
node→kernel table (:data:`_KERNELS`) plus one generic lift.  Only the
nodes that pay for a batch form have a kernel: literals, parameters,
bare column references, and the comparison and arithmetic operators
(with exact-int constant specializations).  Each kernel calls the same
value function as its row closure in :mod:`repro.sql.expr`.  Every other
node runs as its :class:`~repro.sql.expr.ExprCompiler` row closure,
applied to each selected row with one reused ``EvalContext``
(:func:`_lift`), so three-valued logic, laziness and error behaviour
live in exactly one place.  :func:`batch_pure` decides what may run
batch-wise at all: no subqueries, user-defined or volatile calls,
window or aggregate calls, or correlated references.

Pipeline stages (one instance per execution, composed by
:class:`BatchAdapterState`):

* :class:`VectorScan` — cuts the core's row scan (a SeqScan, or a
  bounded forward IndexRangeScan) into :class:`Batch` objects.  The scan
  state is the row engine's own, opened by the row engine's own ``open``
  (one snapshot read, one bisect), never at plan or instantiation time, so
  same-transaction DML is always seen (the stale-batch
  read-your-own-writes bug class).  Cancellation is polled once per
  window of the scan.
* :class:`VectorFilter` — evaluates the batch-compiled WHERE predicate
  over the whole batch and attaches a *selection vector* (row indices
  where it is TRUE) instead of copying the columns.
* :class:`VectorProject` — either a C-speed ``itemgetter`` row projection
  (when every select item is a bare column) or per-item batch evaluators.
* :class:`VectorAggregate` — grouped/ungrouped aggregation whose
  accumulators fold each column **in the exact order the row scan delivers**
  with the scalar aggregates' own step semantics (see
  :func:`_accumulate`), so row and batch engines are numerically
  identical — including the order-dependent ``avg()`` over
  ``{7, -2^63, 2^63}`` bigints that PR 5's fuzzer pinned.

:class:`BatchAdapterState` is the boundary operator: it extends
:class:`~.select_core.SelectCoreState`, drains the batch pipeline and
emits ordinary row tuples, so parents (Sort, Limit, joins, set ops,
recursion) keep consuming rows unchanged.

**Row fallback.**  The batch compiler only supports pure expressions
(no subqueries, UDF calls, or volatile builtins), so batch evaluation has
no observable side effects.  That makes a very simple error story sound:
if *any* engine error is raised while evaluating a batch, the adapter
poisons itself and transparently re-runs the statement through the
inherited row-at-a-time machinery, skipping the rows it already emitted
(earlier batches were fully evaluated, and pure expressions over the same
MVCC snapshot reproduce them exactly).  The row engine then reproduces the
error — or the absence of one — with exact row-at-a-time ordering and
laziness, e.g. an error in row 50 under ``LIMIT 3`` is never raised.
Cancellation (:class:`~repro.sql.errors.QueryCanceledError`) always
propagates and never triggers the fallback.

Thread-safety: all state here is per-execution; statements are serialized
by ``Database._exec_lock``, and the only module-level value,
:data:`BATCH_SIZE`, is read-only at run time (tests monkeypatch it to
sweep batch-boundary edge cases).
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Optional, Sequence

from .. import ast as A
from ..astutil import walk_expr
from ..errors import ExecutionError, QueryCanceledError, SqlError, TypeError_
from ..expr import (_ARITH_FNS, COMPARE_FNS, EvalContext, ExprCompiler, Scope,
                    arith_value_fn)
from ..functions import (SCALAR_BUILTINS, VOLATILE_FUNCTIONS, AvgAgg,
                         CountAgg, SumAgg, is_aggregate_name, make_aggregate)
from ..profiler import VECTOR_BATCHES, VECTOR_ROWS
from ..values import hashable_row as _hashable_row
from ..values import hashable_value as _hashable_value
from .scan import SeqScanPlan
from .select_core import AggStagePlan, SelectCorePlan, SelectCoreState

#: Rows per column batch.  Module-level (not a GUC) so tests can sweep it —
#: the differential suite runs batch sizes 1 and rows±1 to flush
#: off-by-one drain bugs that would hide at the default size.
BATCH_SIZE = 1024


class Batch:
    """A batch of rows with lazily transposed parallel column vectors.

    ``rows`` is one window of the row scan's visible tuples.
    ``cols`` transposes on first touch — projections that only need
    ``itemgetter`` row access never pay for it.  ``sel`` is the selection
    vector the filter stage attaches: ``None`` means "all rows", otherwise
    a list of row indices that survived the predicate.
    """

    __slots__ = ("rows", "n", "rt", "sel", "_cols")

    def __init__(self, rows: Sequence[tuple], rt):
        self.rows = rows
        self.n = len(rows)
        self.rt = rt
        self.sel: Optional[list[int]] = None
        self._cols: Optional[list[tuple]] = None

    @property
    def cols(self) -> list[tuple]:
        cols = self._cols
        if cols is None:
            cols = self._cols = list(zip(*self.rows))
        return cols

    def selected(self) -> int:
        return self.n if self.sel is None else len(self.sel)

    def selected_rows(self) -> Sequence[tuple]:
        if self.sel is None:
            return self.rows
        rows = self.rows
        return [rows[i] for i in self.sel]


#: A batch expression: ``fn(batch) -> column`` with one element per row
#: of the batch's selection vector.
VectorFn = Callable[[Batch], list]


def batch_pure(expr: A.Expr, scope: Scope) -> bool:
    """May *expr* run batch-wise?  Batch evaluation is eager and may be
    retried on the row engine, so only side-effect-free expressions over
    this core's own columns qualify: no subqueries, no user-defined or
    compiled calls, no volatile builtins, no window or aggregate calls,
    no correlated (or unresolvable) column references, and no ``$0``."""
    for node in walk_expr(expr):
        if isinstance(node, (A.ScalarSubquery, A.Exists, A.InSubquery)):
            return False
        if isinstance(node, A.FuncCall):
            name = node.name.lower()
            if node.window is not None or is_aggregate_name(name) \
                    or name in VOLATILE_FUNCTIONS \
                    or (name != "coalesce" and name not in SCALAR_BUILTINS):
                return False
        elif isinstance(node, A.ColumnRef):
            try:
                level = scope.resolve(node.parts)[0]
            except SqlError:
                return False
            if level != 0:
                return False
        elif isinstance(node, A.Param) and node.index < 1:
            return False
    return True


def compile_batch(expr: A.Expr, scope: Scope) -> VectorFn:
    """The batch form of a :func:`batch_pure` expression: its kernel from
    :data:`_KERNELS` when it has one, else the lifted row closure."""
    make = _KERNELS.get(type(expr))
    fn = make(expr, scope) if make is not None else None
    return fn if fn is not None else _lift(expr, scope)


def _lift(expr: A.Expr, scope: Scope) -> VectorFn:
    """Apply *expr*'s row closure to every selected row of a batch."""
    row_fn = ExprCompiler(scope).compile(expr)

    def run(batch: Batch) -> list:
        vector = [None]
        ctx = EvalContext(batch.rt, vector)
        out = []
        append = out.append
        for row in batch.selected_rows():
            vector[0] = row
            append(row_fn(ctx))
        return out

    return run


def _const_value(expr: A.Expr) -> Optional[Callable[[Batch], object]]:
    """A literal's or parameter's value (one per batch); None otherwise."""
    if isinstance(expr, A.Literal):
        value = expr.value
        return lambda batch: value
    if not isinstance(expr, A.Param):
        return None
    index = expr.index - 1

    def param(batch: Batch):
        params = batch.rt.params
        if index >= len(params):
            # Same error as the scalar compiler; surfacing it here
            # triggers the row fallback, which re-raises it.
            raise ExecutionError(
                f"no value supplied for parameter ${index + 1}")
        return params[index]

    return param


def _const_kernel(expr: A.Expr, scope: Scope) -> VectorFn:
    value = _const_value(expr)
    return lambda batch: [value(batch)] * batch.selected()


def _column_kernel(expr: A.ColumnRef, scope: Scope) -> Optional[VectorFn]:
    _level, _rel, col_index, fields = scope.resolve(expr.parts)
    if fields:
        return None

    def run(batch: Batch) -> list:
        col = batch.cols[col_index]
        sel = batch.sel
        return col if sel is None else [col[i] for i in sel]

    run.col_index = col_index  # marks a bare column (fast projection)
    return run


#: ``column <op> c`` for an exact-int constant *c*: exact-int elements take
#: the native operator inline, every other element the shared value
#: function *f* (NULLs, floats, bools and type errors included).  The %
#: and / forms inline PostgreSQL's truncating semantics and therefore need
#: a positive divisor.
_INT_CONST_KERNELS = {
    "=": lambda col, c, f: [(a == c) if type(a) is int else f(a, c)
                            for a in col],
    "<>": lambda col, c, f: [(a != c) if type(a) is int else f(a, c)
                             for a in col],
    "<": lambda col, c, f: [(a < c) if type(a) is int else f(a, c)
                            for a in col],
    "<=": lambda col, c, f: [(a <= c) if type(a) is int else f(a, c)
                             for a in col],
    ">": lambda col, c, f: [(a > c) if type(a) is int else f(a, c)
                            for a in col],
    ">=": lambda col, c, f: [(a >= c) if type(a) is int else f(a, c)
                             for a in col],
    "+": lambda col, c, f: [(a + c) if type(a) is int else f(a, c)
                            for a in col],
    "-": lambda col, c, f: [(a - c) if type(a) is int else f(a, c)
                            for a in col],
    "*": lambda col, c, f: [(a * c) if type(a) is int else f(a, c)
                            for a in col],
    "%": lambda col, c, f: [((a % c) if a >= 0 else -((-a) % c))
                            if type(a) is int else f(a, c) for a in col],
    "/": lambda col, c, f: [((a // c) if a >= 0 else -((-a) // c))
                            if type(a) is int else f(a, c) for a in col],
}


def _binary_kernel(expr: A.BinaryOp, scope: Scope) -> Optional[VectorFn]:
    """Comparison and arithmetic kernels (AND/OR/|| are lifted)."""
    op = expr.op
    fn = COMPARE_FNS.get(op)
    if fn is None:
        if op not in _ARITH_FNS:
            return None
        fn = arith_value_fn(op)
    left = compile_batch(expr.left, scope)
    right = compile_batch(expr.right, scope)
    const_kernel = _INT_CONST_KERNELS.get(op)
    const = _const_value(expr.right)
    if const_kernel is None or const is None:
        return lambda batch: list(map(fn, left(batch), right(batch)))

    def run(batch: Batch) -> list:
        # A literal or parameter operand is one value per batch: when it
        # is an exact int, skip materializing and zipping its column.
        c = const(batch)
        if type(c) is int and (c > 0 or op not in ("%", "/")):
            return const_kernel(left(batch), c, fn)
        return list(map(fn, left(batch), right(batch)))

    return run


#: The node→kernel table; every other node is lifted (see :func:`_lift`).
#: A factory may return ``None`` to lift a node it does not specialize.
_KERNELS: dict = {
    A.Literal: _const_kernel,
    A.Param: _const_kernel,
    A.ColumnRef: _column_kernel,
    A.BinaryOp: _binary_kernel,
}


# ---------------------------------------------------------------------------
# Pipeline stages
# ---------------------------------------------------------------------------


class VectorScan:
    """Cuts a row scan into batches.

    *source* is the core's own leaf scan state — a ``SeqScanState`` or a
    bounded forward ``IndexRangeScanState`` — opened by the core's
    inherited ``open``, so the snapshot read (and, for a range, the
    bounds, the probe check and the bisect) happens once per execution
    in exactly the row engine's code, and a rescan after same-transaction
    DML sees the new rows.  Each batch is built from the next
    ``next_window`` of at most :data:`BATCH_SIZE` positions, never the
    whole range at once.  Cancellation is polled once per window (the
    window bounds the reaction latency); the profiler counts batches and
    the rows they carried.
    """

    __slots__ = ("rt", "source")

    def __init__(self, rt, source):
        self.rt = rt
        self.source = source

    def next_batch(self) -> Optional[Batch]:
        size = max(1, BATCH_SIZE)
        # Each pass consumes up to *size* positions of a finite scan.
        while True:  # lint: bounded
            self.rt.cancel.check()
            chunk = self.source.next_window(size)
            if chunk is None:
                return None
            if chunk:  # a range window may hold only invisible versions
                break
        profiler = self.rt.db.profiler
        profiler.bump(VECTOR_BATCHES)
        profiler.bump(VECTOR_ROWS, len(chunk))
        return Batch(chunk, self.rt)


class VectorFilter:
    """Attaches a selection vector for the batch-compiled WHERE predicate."""

    __slots__ = ("fn",)

    def __init__(self, fn: VectorFn):
        self.fn = fn

    def apply(self, batch: Batch) -> Batch:
        pred = self.fn(batch)
        sel = [i for i, v in enumerate(pred) if v is True]
        batch.sel = None if len(sel) == batch.n else sel
        return batch


class VectorProject:
    """Projects a filtered batch into output row tuples.

    When every select item is a bare column reference the projection is a
    single C-speed ``itemgetter`` map over the surviving row tuples (the
    batch is never transposed); otherwise each item's batch evaluator
    produces an output column and the columns are zipped back into rows.
    """

    __slots__ = ("fns", "fast")

    def __init__(self, fns: list[VectorFn]):
        self.fns = fns
        indices = [getattr(fn, "col_index", None) for fn in fns]
        self.fast = None
        if all(i is not None for i in indices):
            if len(indices) == 1:
                getter = itemgetter(indices[0])
                self.fast = lambda rows: [(v,) for v in map(getter, rows)]
            else:
                getter = itemgetter(*indices)
                self.fast = lambda rows: list(map(getter, rows))

    def rows(self, batch: Batch) -> list[tuple]:
        if self.fast is not None:
            return self.fast(batch.selected_rows())
        cols = [fn(batch) for fn in self.fns]
        return list(zip(*cols))


def _accumulate(agg, state, col):
    """Fold *col* into *state* in column order.

    ``sum``/``avg``/``count`` get inlined loops that are statement-for-
    statement the scalar ``step`` bodies (same None skip, same bool/type
    rejection, same exact-bigint accumulation seeded by ``AvgAgg.create``'s
    ``(0, 0)`` — the PR 5 order-dependent-avg fix); every other aggregate
    calls the scalar ``step`` itself.  Either way values are accumulated
    in the order SeqScan delivers them, so row and batch engines agree
    bit for bit.
    """
    if type(agg) is SumAgg:
        for v in col:
            if v is None:
                continue
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise TypeError_("sum expects numbers")
            state = v if state is None else state + v
        return state
    if type(agg) is AvgAgg:
        count, total = state
        for v in col:
            if v is None:
                continue
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise TypeError_("avg expects numbers")
            count += 1
            total = total + v
        return (count, total)
    if type(agg) is CountAgg and not agg.star:
        for v in col:
            if v is not None:
                state += 1
        return state
    step = agg.step
    for v in col:
        state = step(state, v)
    return state


class VectorAggregate:
    """Grouped/ungrouped aggregation over batches.

    Reuses the scalar aggregate state machines (``make_aggregate``) for
    creation and finalization; accumulation goes through
    :func:`_accumulate`.  The ungrouped case folds whole argument columns
    per aggregate; the grouped case walks the batch row-major (exactly the
    scalar loop, minus the per-row ``EvalContext`` and closure dispatch).
    """

    __slots__ = ("stage", "key_fns", "arg_fns", "aggs", "groups",
                 "group_values", "distinct_seen", "states", "dsets")

    def __init__(self, stage: AggStagePlan, key_fns: list[VectorFn],
                 arg_fns: list[Optional[VectorFn]]):
        self.stage = stage
        self.key_fns = key_fns
        self.arg_fns = arg_fns
        self.aggs = [make_aggregate(c.name, c.star, c.separator)
                     for c in stage.agg_calls]
        self.groups: dict[tuple, list] = {}
        self.group_values: dict[tuple, tuple] = {}
        self.distinct_seen: dict[tuple, list[set]] = {}
        # Ungrouped fast path: one state vector, per-call distinct sets.
        self.states = ([agg.create() for agg in self.aggs]
                       if not stage.group_keys else None)
        self.dsets = [set() if c.distinct and not c.star else None
                      for c in stage.agg_calls]

    def add_batch(self, batch: Batch) -> None:
        stage = self.stage
        calls = stage.agg_calls
        m = batch.selected()
        if m == 0:
            return
        if self.states is not None:
            for index, (call, agg) in enumerate(zip(calls, self.aggs)):
                if call.star:
                    # count(*): CountAgg's ``state + 1`` per row, m times.
                    self.states[index] += m
                    continue
                col = self.arg_fns[index](batch)
                dset = self.dsets[index]
                if dset is None:
                    self.states[index] = _accumulate(agg, self.states[index],
                                                     col)
                    continue
                state = self.states[index]
                step = agg.step
                for v in col:
                    marker = _hashable_value(v)
                    if marker in dset:
                        continue
                    dset.add(marker)
                    state = step(state, v)
                self.states[index] = state
            return
        key_cols = [fn(batch) for fn in self.key_fns]
        arg_cols = [None if call.star else fn(batch)
                    for call, fn in zip(calls, self.arg_fns)]
        # Bucket the batch's rows by group key (dict order = first
        # occurrence in scan order, exactly the row engine's group order),
        # then fold each bucket's argument values column-at-a-time.  Each
        # group's values arrive in scan order relative to that group, so
        # per-group aggregate states match the row engine's interleaved
        # per-row stepping bit for bit.
        buckets: dict = {}
        key_tuples: dict = {}
        if len(key_cols) == 1:
            kc = key_cols[0]
            for r in range(m):
                v = kc[r]
                key = _hashable_value(v)
                rows = buckets.get(key)
                if rows is None:
                    buckets[key] = [r]
                    key_tuples[key] = (v,)
                else:
                    rows.append(r)
        else:
            for r in range(m):
                key_values = tuple(col[r] for col in key_cols)
                key = _hashable_row(key_values)
                rows = buckets.get(key)
                if rows is None:
                    buckets[key] = [r]
                    key_tuples[key] = key_values
                else:
                    rows.append(r)
        groups = self.groups
        for key, rows in buckets.items():
            states = groups.get(key)
            if states is None:
                states = groups[key] = [agg.create() for agg in self.aggs]
                self.group_values[key] = key_tuples[key]
                self.distinct_seen[key] = [set() for _ in self.aggs]
            dsets = self.distinct_seen[key]
            for index, (call, agg) in enumerate(zip(calls, self.aggs)):
                if call.star:
                    if type(agg) is CountAgg:
                        states[index] += len(rows)
                    else:
                        step = agg.step
                        state = states[index]
                        for _ in rows:
                            state = step(state, True)
                        states[index] = state
                    continue
                col = arg_cols[index]
                if call.distinct:
                    seen = dsets[index]
                    step = agg.step
                    state = states[index]
                    for r in rows:
                        value = col[r]
                        marker = _hashable_value(value)
                        if marker in seen:
                            continue
                        seen.add(marker)
                        state = step(state, value)
                    states[index] = state
                else:
                    states[index] = _accumulate(agg, states[index],
                                                [col[r] for r in rows])

    def finish(self) -> tuple[dict, dict]:
        """The (groups, group_values) maps, with the ungrouped fold folded
        in — including the empty-input "one row of empty finals" case."""
        if self.states is not None:
            self.groups[()] = self.states
            self.group_values[()] = ()
        return self.groups, self.group_values


# ---------------------------------------------------------------------------
# Plan-time qualification
# ---------------------------------------------------------------------------


class VectorSpec:
    """Batch-compiled artifacts of one vectorizable SELECT core."""

    __slots__ = ("where_fn", "project", "key_fns", "arg_fns")

    def __init__(self, where_fn: Optional[VectorFn],
                 project: Optional[VectorProject],
                 key_fns: Optional[list[VectorFn]],
                 arg_fns: Optional[list[Optional[VectorFn]]]):
        self.where_fn = where_fn
        self.project = project
        self.key_fns = key_fns
        self.arg_fns = arg_fns


def vectorize_core(base: SelectCorePlan, core: A.SelectCore,
                   item_exprs: Sequence[A.Expr], scope: Scope,
                   residual: Optional[A.Expr]
                   ) -> Optional["VectorizedCorePlan"]:
    """Batch-compile *base* (already fully planned for the row engine) into
    a :class:`VectorizedCorePlan`, or return ``None`` when any needed
    expression fails :func:`batch_pure`.

    The caller (the planner) has already established the structural
    preconditions: single non-lateral base-table FROM on a SeqScan or a
    bounded forward IndexRangeScan, no ORDER BY, no window/batched-UDF
    stage.  What remains is expression purity: the whole WHERE clause
    (range bounds included, so a correlated bound keeps the row plan),
    and either every select item (streaming) or every group key and
    aggregate argument (aggregation — HAVING and the post-aggregation
    projections run row-wise over the few group rows, so they stay on the
    scalar closures).  Only *residual*, the WHERE left after the scan
    absorbed its range conjuncts, becomes the VectorFilter.
    """
    stage = base.agg_stage
    if stage is not None:
        if any(not c.star and c.arg_ast is None for c in stage.agg_calls):
            return None
        args = [c.arg_ast for c in stage.agg_calls if not c.star]
        exprs = list(core.group_by) + args
    else:
        exprs = list(item_exprs)
    checked = exprs if core.where is None else [core.where] + exprs
    if not all(batch_pure(e, scope) for e in checked):
        return None
    where = [residual] if residual is not None else []
    fns = iter([compile_batch(e, scope) for e in where + exprs])
    where_fn = next(fns) if where else None
    project = None
    key_fns: Optional[list[VectorFn]] = None
    arg_fns: Optional[list[Optional[VectorFn]]] = None
    if stage is not None:
        key_fns = [next(fns) for _ in core.group_by]
        arg_fns = [None if c.star else next(fns) for c in stage.agg_calls]
    else:
        project = VectorProject(list(fns))
    spec = VectorSpec(where_fn, project, key_fns, arg_fns)
    return VectorizedCorePlan(base, spec)


# ---------------------------------------------------------------------------
# The boundary operator
# ---------------------------------------------------------------------------


class VectorizedCorePlan(SelectCorePlan):
    """A SELECT core that executes batch-at-a-time.

    Subclasses :class:`SelectCorePlan` and keeps every row-engine field
    intact, so the inherited machinery *is* the fallback plan: the state
    can switch to row-at-a-time execution mid-statement without replanning
    (see :class:`BatchAdapterState`).
    """

    __slots__ = ("vspec",)

    def __init__(self, base: SelectCorePlan, vspec: VectorSpec):
        super().__init__(
            output_columns=base.output_columns,
            n_relations=base.n_relations,
            from_plan=base.from_plan,
            where=base.where,
            where_subplans=base.where_subplans,
            agg_stage=base.agg_stage,
            window_stage=base.window_stage,
            project_exprs=base.project_exprs,
            project_subplans=base.project_subplans,
            distinct=base.distinct,
            batch_stage=base.batch_stage,
        )
        self.vspec = vspec

    def label(self) -> str:
        return "Vectorized" + super().label()

    def explain(self, indent: int = 0) -> str:
        spec = self.vspec
        lines = ["  " * indent + "-> " + self.label()
                 + f"  [{', '.join(self.output_columns)}]"]
        depth = indent + 1
        if self.agg_stage is not None:
            stage = self.agg_stage
            lines.append("  " * depth + "-> VectorAggregate "
                         f"({len(stage.group_keys)} keys, "
                         f"{len(stage.agg_calls)} calls)")
            depth += 1
        elif spec.project is not None:
            kind = "columns" if spec.project.fast is not None else "exprs"
            lines.append("  " * depth + f"-> VectorProject ({kind})")
            depth += 1
        if spec.where_fn is not None:
            lines.append("  " * depth + "-> VectorFilter")
            depth += 1
        scan = self.from_plan.source
        label = (f"VectorScan on {scan.table_name}"
                 if isinstance(scan, SeqScanPlan) else scan.label())
        lines.append("  " * depth + f"-> {label} (batch={BATCH_SIZE})")
        return "\n".join(lines)

    def instantiate(self, rt, ictx=None) -> "BatchAdapterState":
        return BatchAdapterState(rt, self, ictx)


class BatchAdapterState(SelectCoreState):
    """Boundary operator: drains the batch pipeline, emits row tuples.

    Extends :class:`SelectCoreState`, so DISTINCT, HAVING, the
    post-aggregation projections and the materialized-output protocol are
    the inherited row-engine code paths — only the hot FROM→WHERE→
    project/aggregate loop is replaced by batches.  On any engine error
    during batch evaluation the state *poisons* itself and re-executes
    through the inherited row path (see the module docstring for why that
    is observably identical).
    """

    __slots__ = ("_scan", "_filter", "_use_vector", "_poisoned",
                 "_vbuf", "_vbuf_pos", "_emitted")

    def __init__(self, rt, plan: VectorizedCorePlan, ictx):
        super().__init__(rt, plan, ictx)
        # Batches come from the FROM leaf's own scan state, which the
        # inherited open() opens for either engine.
        self._scan = VectorScan(rt, self.from_state.source)
        self._filter = (VectorFilter(plan.vspec.where_fn)
                        if plan.vspec.where_fn is not None else None)
        self._use_vector = True
        self._poisoned = False
        self._vbuf: list[tuple] = []
        self._vbuf_pos = 0
        self._emitted = 0

    # ------------------------------------------------------------------

    def open(self, outer) -> None:
        if not self._poisoned:
            self._use_vector = True
            self._vbuf = []
            self._vbuf_pos = 0
            self._emitted = 0
            try:
                super().open(outer)  # aggregation runs vectorized in here
                return
            except QueryCanceledError:
                raise
            except SqlError:
                self._poisoned = True
        self._use_vector = False
        super().open(outer)

    def next(self) -> Optional[tuple]:
        if not self._use_vector or self.materialized is not None:
            return super().next()
        try:
            row = self._next_vector()
        except QueryCanceledError:
            raise
        except SqlError:
            return self._fall_back()
        if row is not None:
            self._emitted += 1
        return row

    # ------------------------------------------------------------------

    def _next_vector(self) -> Optional[tuple]:
        project = self.plan.vspec.project
        # The scan drains a finite row snapshot and polls the cancel token
        # once per batch.
        while True:  # lint: bounded
            buf = self._vbuf
            if self._vbuf_pos < len(buf):
                row = buf[self._vbuf_pos]
                self._vbuf_pos += 1
                if self.seen is None or self._distinct_ok(row):
                    return row
                continue
            batch = self._scan.next_batch()
            if batch is None:
                return None
            if self._filter is not None:
                batch = self._filter.apply(batch)
                if batch.sel is not None and not batch.sel:
                    continue
            self._vbuf = project.rows(batch)
            self._vbuf_pos = 0

    def _fall_back(self) -> Optional[tuple]:
        """Re-execute through the inherited row engine, skipping the rows
        already emitted (pure expressions over the same snapshot reproduce
        them exactly)."""
        self._poisoned = True
        self._use_vector = False
        emitted = self._emitted
        super().open(self.outer)
        for _ in range(emitted):
            if super().next() is None:
                break
        return super().next()

    # ------------------------------------------------------------------

    def _run_aggregation(self, stage: AggStagePlan) -> list[tuple]:
        if not self._use_vector:
            return super()._run_aggregation(stage)
        spec = self.plan.vspec
        vagg = VectorAggregate(stage, spec.key_fns, spec.arg_fns)
        scan = self._scan
        # The scan drains a finite row snapshot and polls the cancel token
        # once per batch.
        while True:  # lint: bounded
            batch = scan.next_batch()
            if batch is None:
                break
            if self._filter is not None:
                batch = self._filter.apply(batch)
            vagg.add_batch(batch)
        groups, group_values = vagg.finish()
        # Finalization + HAVING: the inherited row-engine tail, verbatim.
        out: list[tuple] = []
        for key, states in groups.items():
            finals = tuple(agg.final(state)
                           for agg, state in zip(vagg.aggs, states))
            row = group_values[key] + finals
            vec = (row,)
            if stage.having is not None:
                ctx = EvalContext(self.rt, vec, parent=self.outer,
                                  slots=self.having_slots)
                if stage.having(ctx) is not True:
                    continue
            out.append(vec)
        return out
