"""Per-layer metrics of a traced run, from spans and ``Profiler`` deltas.

:data:`PER_LAYER` (loaded from ``manifest.json``) names every metric,
its unit and which end-to-end metric it should move on which workload.
Every traced run reports all of them; a layer a workload never enters
reports 0 there.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.sql import profiler as P

from .common import Metric, RunOutcome

MANIFEST = json.loads((Path(__file__).parent / "manifest.json")
                      .read_text(encoding="utf-8"))
#: name -> {"unit", "better", "should_move", "on_workload", "layer"}
PER_LAYER: dict[str, dict] = {entry["name"]: entry
                              for entry in MANIFEST["per_layer"]}


def profiler_state(profiler) -> dict:
    return {"times": dict(profiler.times), "counts": dict(profiler.counts)}


def profiler_delta(before: dict, after: dict) -> dict:
    return {kind: {key: after[kind].get(key, 0) - before[kind].get(key, 0)
                   for key in after[kind]}
            for kind in ("times", "counts")}


def layer_metrics(ops: int, prof: dict, trace: dict,
                  extra: dict | None = None) -> dict[str, tuple]:
    """Every per-layer metric as ``name -> (value, unit)``.

    *prof* is a :func:`profiler_delta` over the traced phase, *trace* a
    :meth:`Tracer.summary` over the same phase, *ops* the ops it
    completed, and *extra* the metrics only the workload can compute.
    """
    ops = max(ops, 1)
    times, counts = prof["times"], prof["counts"]
    spans, counters = trace["spans"], trace["counters"]

    def span(name, key):
        return spans.get(name, {}).get(key, 0)

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    hits = counts.get(P.PLAN_CACHE_HIT, 0)
    misses = counts.get(P.PLAN_CACHE_MISS, 0)
    batched_rows = counts.get(P.BATCHED_UDF_ROWS, 0)
    commits = span("wal.commit", "count")
    values = {
        "protocol.decode_us": span("protocol.decode", "self_s") / ops * 1e6,
        "protocol.encode_us": span("server.execute", "self_s") / ops * 1e6,
        "protocol.bytes_per_op": (counters.get("protocol.bytes_in", 0)
                                  + counters.get("protocol.bytes_out", 0))
        / ops,
        "server.queue_wait_us": ratio(span("server.queue_wait", "total_s"),
                                      span("server.queue_wait", "count"))
        * 1e6,
        "server.queue_wait_p99_us": span("server.queue_wait", "p99_s") * 1e6,
        "handler.self_us": span("handler.run_script", "self_s") / ops * 1e6,
        "handler.fast_path_share": ratio(counters.get("handler.fast_path", 0),
                                         counters.get("handler.queries", 0)),
        "parser.calls_per_op": span("parser.parse", "count") / ops,
        "parser.self_ms_per_op": span("parser.parse", "self_s") / ops * 1e3,
        "planner.calls_per_op": span("planner.plan", "count") / ops,
        "planner.self_ms_per_op": span("planner.plan", "self_s") / ops * 1e3,
        "engine.plan_cache_hit_ratio": ratio(hits, hits + misses),
        "engine.plan_instantiations_per_op":
            counts.get(P.PLAN_INSTANTIATIONS, 0) / ops,
        "session.prepared_executions_per_op":
            counts.get(P.PREPARED_EXECUTIONS, 0) / ops,
        "session.prepared_replans": counts.get(P.PREPARED_REPLANS, 0),
        "session.activate_ms_per_op":
            span("session.activate", "total_s") / ops * 1e3,
        "executor.start_ms_per_op": times.get(P.EXEC_START, 0) / ops * 1e3,
        "executor.run_ms_per_op": times.get(P.EXEC_RUN, 0) / ops * 1e3,
        "executor.end_ms_per_op": times.get(P.EXEC_END, 0) / ops * 1e3,
        "recursion.iterations_per_op":
            counts.get(P.TRAMPOLINE_ITERATIONS, 0) / ops,
        "recursion.working_rows_per_op":
            counts.get(P.TRAMPOLINE_WORKING_ROWS, 0) / ops,
        "batched_udf.rows_per_op": batched_rows / ops,
        "batched_udf.distinct_ratio":
            ratio(counts.get(P.BATCHED_UDF_DISTINCT, 0), batched_rows),
        "vector.batches_per_op": counts.get(P.VECTOR_BATCHES, 0) / ops,
        "vector.rows_per_op": counts.get(P.VECTOR_ROWS, 0) / ops,
        "scan.index_range_scans_per_op":
            counts.get(P.INDEX_RANGE_SCANS, 0) / ops,
        "scan.sorted_index_builds": counts.get(P.SORTED_INDEX_BUILDS, 0),
        "scan.snapshot_scans_per_op": counts.get(P.SNAPSHOT_SCANS, 0) / ops,
        "hashjoin.build_rows_per_op":
            counts.get(P.HASHJOIN_BUILD_ROWS, 0) / ops,
        "topn.input_rows_per_op": counts.get(P.TOPN_INPUT_ROWS, 0) / ops,
        "interpreter.self_ms_per_op": times.get(P.INTERP, 0) / ops * 1e3,
        "interpreter.q_to_f_per_op": counts.get(P.SWITCH_Q_TO_F, 0) / ops,
        "interpreter.f_to_q_per_op": counts.get(P.SWITCH_F_TO_Q, 0) / ops,
        "analysis.check_ms_per_function":
            ratio(span("analysis.check", "total_s"),
                  span("analysis.check", "count")) * 1e3,
        "txn.commits_per_op": counts.get(P.TXN_COMMITTED, 0) / ops,
        "wal.commit_ms": ratio(span("wal.commit", "total_s"), commits) * 1e3,
        "wal.bytes_per_commit": ratio(counters.get("wal.bytes", 0), commits),
        "wal.records_per_commit": ratio(counters.get("wal.records", 0),
                                        commits),
        "wal.checkpoints": span("wal.checkpoint", "count"),
        "wal.checkpoint_ms": span("wal.checkpoint", "total_s") * 1e3,
    }
    values.update(extra or {})
    unknown = set(values) - set(PER_LAYER)
    if unknown:
        raise KeyError(f"metrics missing from manifest.json: {sorted(unknown)}")
    return {name: (float(values.get(name, 0.0)), entry["unit"])
            for name, entry in PER_LAYER.items()}


@dataclass
class Checked:
    """One timed phase after its results were checked."""

    ops: int
    elapsed: float
    attempted: int
    failed: int
    wrong: list


def traced_outcome(plain: Checked, traced: Checked, prof: dict, trace: dict,
                   extra_metrics: dict, extra: dict) -> RunOutcome:
    """The result of a traced run: the per-layer metrics of its traced
    phase, the tracing overhead against its untraced phase, and the
    checks of both phases."""
    plain_tput = plain.ops / plain.elapsed
    traced_tput = traced.ops / traced.elapsed
    extra_metrics = dict(extra_metrics, **{
        "trace.untraced_throughput_ops_s": plain_tput,
        "trace.traced_throughput_ops_s": traced_tput,
        "trace.throughput_ratio": traced_tput / plain_tput,
    })
    metrics = {name: Metric(value, unit, traced.ops) for name, (value, unit)
               in layer_metrics(traced.ops, prof, trace,
                                extra_metrics).items()}
    extra["ops_completed"] = traced.ops
    return RunOutcome(plain.attempted + traced.attempted,
                      plain.failed + traced.failed,
                      plain.wrong + traced.wrong, metrics, extra)
