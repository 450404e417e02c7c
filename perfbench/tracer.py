"""Span recording around the calls into each layer, installed from outside.

The program under test carries no tracing of its own, so the traced run
wraps the public entry points of each layer *at the bindings their
callers use* (``repro.sql.engine.parse_statement``, not only
``repro.sql.parser.parse_statement``) and restores the originals on
:meth:`Tracer.uninstall`.  Each span records its name, start, end, parent
span and the request id of the op it served; spans nest per thread, so a
span's self time is its duration minus the durations of its children
(children of one thread never overlap).  Spans stay in memory until
:meth:`Tracer.write`.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path

from .common import percentile

_perf = time.perf_counter


class Tracer:
    def __init__(self):
        #: (span_id, parent_id, name, start_s, end_s, self_s, request_id)
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._counter_lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches: list[tuple] = []

    # -- request ids ----------------------------------------------------

    def set_request(self, request_id) -> None:
        """Tag spans this thread records from now on with *request_id*."""
        self._local.request = request_id

    def count(self, name: str, amount: float = 1) -> None:
        with self._counter_lock:
            self.counters[name] += amount

    # -- spans ------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, name: str, start: float, end: float) -> None:
        """Record a span measured elsewhere (e.g. a queue wait)."""
        self.spans.append((next(self._ids), None, name, start, end,
                           end - start, getattr(self._local, "request", None)))

    def wrap(self, name: str, fn):
        """A function that runs *fn* inside a span called *name*."""
        spans = self.spans
        ids = self._ids
        local = self._local
        stack_of = self._stack

        def traced(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else None
            frame = [next(ids), 0.0]
            stack.append(frame)
            start = _perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = _perf()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                spans.append((frame[0], parent[0] if parent else None, name,
                              start, end, duration - frame[1],
                              getattr(local, "request", None)))

        traced.__wrapped__ = fn
        return traced

    # -- installation -----------------------------------------------------

    def patch(self, owner, attribute: str, replacement) -> None:
        """Replace ``owner.attribute`` until :meth:`uninstall`."""
        original = owner.__dict__[attribute] if isinstance(owner, type) \
            else getattr(owner, attribute)
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, replacement)

    def span(self, owner, attribute: str, name: str) -> None:
        """Wrap ``owner.attribute`` in a span called *name*."""
        original = owner.__dict__[attribute] if isinstance(owner, type) \
            else getattr(owner, attribute)
        self.patch(owner, attribute, self.wrap(name, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -- reporting --------------------------------------------------------

    def reset(self) -> None:
        self.spans.clear()
        with self._counter_lock:
            self.counters.clear()

    def summary(self) -> dict:
        """Per span name: count, total and self seconds, p50/p99 duration."""
        durations: dict[str, list] = defaultdict(list)
        selfs: dict[str, float] = defaultdict(float)
        for _, _, name, start, end, self_s, _ in list(self.spans):
            durations[name].append(end - start)
            selfs[name] += self_s
        out = {}
        for name, values in durations.items():
            out[name] = {"count": len(values), "total_s": sum(values),
                         "self_s": selfs[name],
                         "p50_s": percentile(values, 0.5),
                         "p99_s": percentile(values, 0.99)}
        return {"spans": out, "counters": dict(self.counters)}

    def write(self, path) -> None:
        """Write every span as one JSON object per line."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, start, end, self_s, rid in self.spans:
                fh.write(json.dumps({
                    "id": span_id, "parent": parent, "name": name,
                    "start": start, "end": end, "self": self_s,
                    "request": rid}) + "\n")


# ---------------------------------------------------------------------------
# Entry points per layer
# ---------------------------------------------------------------------------

#: The passes ``compile_plsql`` calls, by their names in
#: ``repro.compiler.pipeline``; ``ssa_to_anf`` and ``inline_anf`` both
#: count towards the ANF stage.
COMPILER_PASSES = {
    "build_cfg": "compiler.cfg",
    "build_ssa": "compiler.ssa",
    "optimize_ssa": "compiler.optimize",
    "ssa_to_anf": "compiler.anf",
    "inline_anf": "compiler.anf",
    "build_udf": "compiler.udf",
    "build_template_query": "compiler.template",
}


def install_engine(tracer: Tracer) -> None:
    """Spans around the parser, planner, interpreter, compiler passes,
    analyzer, engine dispatch and WAL."""
    import repro.analysis as analysis
    import repro.compiler.pipeline as pipeline
    import repro.plsql.interpreter as interpreter
    import repro.sql.engine as engine
    import repro.sql.parser as parser
    from repro.sql.planner import Planner
    from repro.sql.session import PreparedStatement, _Activation
    from repro.sql.wal import WalManager, _dumps

    for owner in (parser, engine, pipeline):
        tracer.span(owner, "parse_statement", "parser.parse")
    for owner in (parser, engine):
        tracer.span(owner, "parse_script", "parser.parse")
    tracer.span(Planner, "plan_select", "planner.plan")
    tracer.span(interpreter, "call_plpgsql", "interpreter.call")
    for function, name in COMPILER_PASSES.items():
        tracer.span(pipeline, function, name)
    tracer.span(analysis, "analyze_function", "analysis.check")
    tracer.span(engine.Database, "_dispatch_ast", "engine.dispatch")
    tracer.span(PreparedStatement, "dispatch", "engine.dispatch")
    # Entering a session takes the database execution lock: this span is
    # mostly the wait for it.
    tracer.span(_Activation, "__enter__", "session.activate")
    tracer.span(WalManager, "checkpoint", "wal.checkpoint")

    commit = tracer.wrap("wal.commit", WalManager.__dict__["commit"])

    def counted_commit(self, xid, records):
        # Bytes as the log writes them: one JSON line per record plus
        # the commit marker.
        size = sum(len(_dumps(record)) + 1 for record in records)
        size += len(_dumps({"t": "commit", "x": xid})) + 1
        tracer.count("wal.bytes", size)
        tracer.count("wal.records", len(records) + 1)
        return commit(self, xid, records)

    tracer.patch(WalManager, "commit", counted_commit)


def install_server(tracer: Tracer) -> None:
    """Spans around wire decode, the loop-to-pool hop, query handling and
    response encoding (server process only)."""
    import repro.server.handler as handler
    import repro.server.server as server

    connection = server._WireConnection
    received = tracer.wrap("protocol.decode",
                           connection.__dict__["data_received"])

    def data_received(self, data):
        self._perfbench_rx = _perf()
        if self.backend_key is not None:  # past startup: the next query
            tracer.set_request(f"{self.backend_key[0]}:"
                               f"{getattr(self, '_perfbench_seq', 0) + 1}")
        tracer.count("protocol.bytes_in", len(data))
        return received(self, data)

    enqueue = connection.__dict__["_enqueue_query"]

    def enqueue_query(self, sql):
        # Simple-protocol clients wait for each reply, so at most one
        # query per connection is between the loop and a worker.
        self._perfbench_seq = getattr(self, "_perfbench_seq", 0) + 1
        self._perfbench_queued = (self._perfbench_seq, self._perfbench_rx)
        return enqueue(self, sql)

    execute = tracer.wrap("server.execute", server.SqlServer.__dict__["_execute"])

    def execute_query(self, conn, sql):
        seq, received_at = conn._perfbench_queued
        tracer.set_request(f"{conn.backend_key[0]}:{seq}")
        tracer.record("server.queue_wait", received_at, _perf())
        response = execute(self, conn, sql)
        tracer.count("protocol.bytes_out", len(response))
        return response

    fast = handler._fast_execute

    def fast_execute(session, sql):
        outcome = fast(session, sql)
        tracer.count("handler.queries")
        if outcome is not None:
            tracer.count("handler.fast_path")
        return outcome

    tracer.patch(connection, "data_received", data_received)
    tracer.patch(connection, "_enqueue_query", enqueue_query)
    tracer.patch(server.SqlServer, "_execute", execute_query)
    tracer.span(server, "run_script", "handler.run_script")
    tracer.span(handler, "parse_script", "parser.parse")
    tracer.patch(handler, "_fast_execute", fast_execute)
