"""Workload ``analytic_scan``: scans, aggregates, a hash join and Top-N.

Data: one embedded connection, a 25,000-row fact table
``fact(k, a, b, g, s)`` (k unique, a and b uniform in 0..999, g in 0..9,
s a uniform float) with indexes on ``b`` and ``k``, and a 10-row
dimension table ``dim(g, name)``.  One client, a closed loop with no
think time.

Ops come in rounds of twenty with a fixed mix: 3 full-table aggregates,
3 non-sargable filtered aggregates (``k % $1 = $2``), 3 grouped
aggregates, 6 range aggregates ``b < $1`` with thresholds stratified
over 1%..60% selectivity, 2 hash joins to ``dim`` with a group-by,
2 Top-N and 1 size-preserving write (a range UPDATE, or a DELETE plus
an INSERT), so visibility caches and sorted indexes are maintained
between scans.  Results are checked after the timed phase by replaying
the stream against a Python mirror of the rows.
"""

from __future__ import annotations

import bisect
import gc
import random
import time

from repro.sql import Database

from .common import (OUT_DIR, ROOT, Metric, RunOutcome, median, op_metrics,
                     peak_rss_mb_self, reference_metrics, reference_seconds,
                     settle_heap, stream_hash, timed_loop)
from .layers import Checked, profiler_delta, profiler_state, traced_outcome
from .tracer import Tracer, install_engine

NAME = "analytic_scan"
FACT_ROWS = 25_000
GROUPS = 10
SETUP_REPEATS = 5
STREAM_LENGTH = 5000

_ROUND = (("full",) * 3 + ("mod",) * 3 + ("grouped",) * 3 + ("range",) * 6
          + ("join",) * 2 + ("topn",) * 2 + ("write",))
_SQL = {
    "full": "SELECT count(*), sum(a), min(b), max(b) FROM fact",
    "mod": "SELECT count(*), sum(a) FROM fact WHERE k % $1 = $2",
    "grouped": "SELECT g, count(*), sum(a) FROM fact GROUP BY g",
    "range": "SELECT count(*), sum(a) FROM fact WHERE b < $1",
    "join": ("SELECT d.name, count(*), sum(f.b) FROM fact AS f "
             "JOIN dim AS d ON f.g = d.g WHERE f.a < $1 GROUP BY d.name"),
    "topn": ("SELECT k, s FROM fact WHERE g = $1 "
             "ORDER BY s DESC, k LIMIT 10"),
    "update": "UPDATE fact SET a = a + $1 WHERE k BETWEEN $2 AND $3",
    "delete": "DELETE FROM fact WHERE k = $1",
    "insert": "INSERT INTO fact VALUES ($1, $2, $3, $4, $5)",
}


def make_rows(seed: int, count: int = FACT_ROWS) -> list[tuple]:
    rng = random.Random(f"{seed}:fact")
    return [(k, rng.randrange(1000), rng.randrange(1000),
             rng.randrange(GROUPS), rng.random()) for k in range(count)]


def make_ops(seed: int, count: int = FACT_ROWS,
             length: int = STREAM_LENGTH) -> list[tuple]:
    """The op stream: ``(kind, args)``; a write's args name its statements."""
    rng = random.Random(f"{seed}:ops")
    victims = iter(rng.sample(range(count), length // len(_ROUND) + 1))
    ops: list[tuple] = []
    writes = 0
    while len(ops) < length:
        kinds = list(_ROUND)
        rng.shuffle(kinds)
        range_slot = join_slot = 0
        for kind in kinds:
            if kind == "full" or kind == "grouped":
                args = ()
            elif kind == "mod":
                modulus = rng.randint(3, 11)
                args = (modulus, rng.randrange(modulus))
            elif kind == "range":
                # Six bins over thresholds 10..600 of b in 0..999.
                width = 590 / 6
                args = (10 + int(width * range_slot + rng.random() * width),)
                range_slot += 1
            elif kind == "join":
                # Two bins over a < 200..1000: 20%..100% of rows joined.
                args = (200 + 400 * join_slot + rng.randrange(400),)
                join_slot += 1
            elif kind == "topn":
                args = (rng.randrange(GROUPS),)
            else:
                writes += 1
                if writes % 2:
                    low = rng.randrange(count - 100)
                    kind, args = "update", (rng.randint(1, 9), low, low + 99)
                else:
                    kind = "replace"
                    args = (next(victims), count + len(ops),
                            rng.randrange(1000), rng.randrange(1000),
                            rng.randrange(GROUPS), rng.random())
            ops.append((kind, args))
    return ops


def setup(seed: int, rows: int = FACT_ROWS) -> Database:
    db = Database()
    db.execute("CREATE TABLE fact(k int, a int, b int, g int, s float)")
    db.execute("CREATE TABLE dim(g int, name text)")
    cursor = db.connect().cursor()
    cursor.executemany("INSERT INTO fact VALUES ($1, $2, $3, $4, $5)",
                       make_rows(seed, rows))
    cursor.executemany("INSERT INTO dim VALUES ($1, $2)",
                       [(g, f"group-{g}") for g in range(GROUPS)])
    db.execute("CREATE INDEX fact_b ON fact(b)")
    db.execute("CREATE INDEX fact_k ON fact(k)")
    return db


def run_op(db, op):
    """Run one op; returns ``[(kind, seconds, rows|exc)]``."""
    kind, args = op
    start = time.perf_counter()
    try:
        if kind == "replace":
            victim, k, a, b, g, s = args
            rows = db.query_all(_SQL["delete"], (victim,))
            rows += db.query_all(_SQL["insert"], (k, a, b, g, s))
        else:
            rows = db.query_all(_SQL[kind], args)
    except Exception as exc:  # counted as a failed op
        return [(kind, time.perf_counter() - start, exc)]
    return [(kind, time.perf_counter() - start, rows)]


class Mirror:
    """The fact table as Python rows; computes every read independently."""

    def __init__(self, rows):
        self.rows = {row[0]: list(row) for row in rows}

    def apply(self, op):
        """Expected result of *op*, applying it if it writes."""
        kind, args = op
        rows = self.rows.values()
        if kind == "full":
            bs = [r[2] for r in rows]
            return [(len(bs), sum(r[1] for r in rows), min(bs), max(bs))]
        if kind == "mod":
            modulus, rest = args
            hit = [r[1] for r in rows if r[0] % modulus == rest]
            return [(len(hit), sum(hit) if hit else None)]
        if kind == "grouped":
            out: dict = {}
            for r in rows:
                count, total = out.get(r[3], (0, 0))
                out[r[3]] = (count + 1, total + r[1])
            return [(g, c, t) for g, (c, t) in out.items()]
        if kind == "range":
            hit = [r[1] for r in rows if r[2] < args[0]]
            return [(len(hit), sum(hit) if hit else None)]
        if kind == "join":
            out = {}
            for r in rows:
                if r[1] < args[0]:
                    count, total = out.get(r[3], (0, 0))
                    out[r[3]] = (count + 1, total + r[2])
            return [(f"group-{g}", c, t) for g, (c, t) in out.items()]
        if kind == "topn":
            hit = sorted(((-r[4], r[0]) for r in rows if r[3] == args[0]))
            return [(k, -s) for s, k in hit[:10]]
        if kind == "update":
            delta, low, high = args
            touched = 0
            for k in range(low, high + 1):
                if k in self.rows:
                    self.rows[k][1] += delta
                    touched += 1
            return [(touched,)]
        victim, k, a, b, g, s = args
        removed = 1 if self.rows.pop(victim, None) is not None else 0
        self.rows[k] = [k, a, b, g, s]
        return [(removed,), (1,)]


def verify(records, ops, seed, rows: int = FACT_ROWS
           ) -> tuple[int, int, list]:
    mirror = Mirror(make_rows(seed, rows))
    attempted = failed = 0
    wrong = []
    for index, samples in records:
        expected = mirror.apply(ops[index])
        for kind, _, outcome in samples:
            attempted += 1
            if isinstance(outcome, Exception):
                failed += 1
                wrong.append(f"op {index} {kind}: error {outcome!r}")
            elif _canonical(kind, outcome) != _canonical(kind, expected):
                failed += 1
                wrong.append(f"op {index} {kind} args={ops[index][1]}: got "
                             f"{str(outcome)[:80]} expected "
                             f"{str(expected)[:80]}")
    return attempted, failed, wrong


def _canonical(kind, rows):
    # Top-N order is part of its answer; group order is not.
    return list(rows) if kind == "topn" else sorted(rows, key=repr)


def input_properties(ops, seed) -> dict:
    bs = sorted(row[2] for row in make_rows(seed))
    selectivity = [bisect.bisect_left(bs, args[0]) / len(bs)
                   for kind, args in ops if kind == "range"]
    writes = sum(kind in ("update", "replace") for kind, _ in ops)
    return {
        "range_selectivity_min": round(min(selectivity), 4),
        "range_selectivity_median": round(median(selectivity), 4),
        "range_selectivity_max": round(max(selectivity), 4),
        "write_share": round(writes / len(ops), 4),
    }


def plan_shares(db, records, ops) -> dict:
    """Share of completed ops whose plan (EXPLAIN, outside timing) is
    vectorized, and share that scans an index range."""
    shapes: dict[str, str] = {}
    for kind in ("full", "mod", "grouped", "range", "join", "topn"):
        shapes[kind] = db.explain(_SQL[kind])
    vectorized = index_range = 0
    for index, _ in records:
        plan = shapes.get(ops[index][0], "")
        vectorized += "Vectorized" in plan
        index_range += "IndexRangeScan" in plan
    done = max(len(records), 1)
    return {"planner.vectorized_share": vectorized / done,
            "planner.index_range_share": index_range / done}


def _measure(seed, seconds, ops, tracer=None, setup_repeats=SETUP_REPEATS):
    setup_samples = []
    db = None
    for _ in range(setup_repeats):
        db = None  # let the previous copy go before building the next
        gc.collect()
        took, db = reference_seconds(lambda: setup(seed))
        setup_samples.append(took)
    settle_heap()
    # Warm up: one read of each shape, so plans are cached and the
    # visible-rows cache is filled (writes are not repeated).
    for kind in ("full", "mod", "grouped", "range", "join", "topn"):
        op = next(op for op in ops if op[0] == kind)
        run_op(db, op)
    if tracer is not None:
        tracer.reset()
    before = profiler_state(db.profiler)
    marks, probes = [], []
    records, elapsed = timed_loop(ops, lambda op: run_op(db, op), seconds,
                                  tracer, marks, probes, len(_ROUND))
    result = {"db": db, "records": records, "elapsed": elapsed,
              "marks": marks, "probes": probes, "setup": setup_samples,
              "prof": profiler_delta(before, profiler_state(db.profiler))}
    if tracer is not None:
        result["trace"] = tracer.summary()
    return result


def run(seed: int, seconds: float, traced: bool) -> RunOutcome:
    ops = make_ops(seed)
    extra = {"op_stream_hash": stream_hash(ops), "clients": 1,
             "loop": "closed, no think time"}
    if not traced:
        got = _measure(seed, seconds, ops)
        attempted, failed, wrong = verify(got["records"], ops, seed)
        samples = [s for _, ss in got["records"] for s in ss]
        every = [seconds for _, seconds, _ in samples]
        reads = [s for kind, s, _ in samples
                 if kind not in ("update", "replace")]
        writes = [s for kind, s, _ in samples if kind in ("update", "replace")]
        extra.update(input_properties(ops[:len(got["records"])], seed))
        extra["ops_completed"] = len(got["records"])
        metrics = op_metrics(every, got["elapsed"])
        reference, probe = reference_metrics(
            got["marks"], [[s for _, s, _ in ss] for _, ss in got["records"]],
            got["probes"], len(_ROUND))
        extra["host_probe_ms"] = round(probe * 1e3, 4)
        metrics.update(reference)
        metrics.update({
            "setup_s": Metric(median(got["setup"]), "s", len(got["setup"])),
            "error_rate": Metric(failed / max(attempted, 1), "share",
                                 attempted),
            "peak_rss_mb": Metric(peak_rss_mb_self(), "MB"),
            "read_p50_ms": Metric(median(reads) * 1e3, "ms", len(reads)),
            "write_p50_ms": Metric(median(writes) * 1e3 if writes else 0.0,
                                   "ms", len(writes)),
        })
        return RunOutcome(attempted, failed, wrong, metrics, extra)

    plain = _measure(seed, seconds / 2, ops, setup_repeats=1)
    tracer = Tracer()
    install_engine(tracer)
    try:
        got = _measure(seed, seconds / 2, ops, tracer, setup_repeats=1)
    finally:
        tracer.uninstall()
    spans = OUT_DIR / f"spans-{NAME}-seed{seed}.jsonl"
    tracer.write(spans)
    extra.update({"spans_file": str(spans.relative_to(ROOT)),
                  "spans": len(tracer.spans)})
    phases = [Checked(len(m["records"]), m["elapsed"],
                      *verify(m["records"], ops, seed)) for m in (plain, got)]
    return traced_outcome(*phases, got["prof"], got["trace"],
                          plan_shares(got["db"], got["records"], ops), extra)
