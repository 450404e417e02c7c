"""Vectorized executor core: what batch-at-a-time buys over row-at-a-time.

The paper's thesis is set-oriented beats tuple-at-a-time dispatch; PR 10
applies it to plain single-table SELECT cores (executor/vector.py).  This
benchmark runs the same 100k-row workloads under ``enable_vectorize`` on
and off — same engine, same plans otherwise — and gates the headline
claims:

* **full-table aggregate** (``count(*) / sum / avg`` over every row):
  ≥ 5x.  This is the purest measure of per-row closure-dispatch overhead
  vs column-loop accumulation.
* **filtered aggregate** (predicate rejects 2/3 of the table, sum the
  rest): ≥ 5x.  Exercises VectorFilter's selection vectors feeding the
  aggregate fold.
* **range aggregate** (``k < 50000``, 50% selectivity): ≥ 5x.  Both
  settings plan an ``IndexRangeScan``, so this compares batch and row
  execution over the same bisected index window.

Three more workloads are reported unasserted: **filter+project**
(predicate + two-column output) and **grouped aggregate** (10 groups)
carry per-row output materialization costs the batch engine cannot
amortize away, and **selective range** (``k < 2000``, 2%) is dominated by
the fixed per-statement cost.

All queries verify identical results under both settings before timing.
``BENCH_vectorized.json`` is emitted for the cross-PR perf trajectory.
"""

from __future__ import annotations

import gc
import time

from repro.bench.harness import render_table
from repro.sql import Database

ROWS = 100_000
REPS = 7

WORKLOADS = [
    ("full_table_aggregate",
     "SELECT count(*), sum(v), avg(v) FROM big"),
    ("filtered_aggregate",
     "SELECT sum(v) FROM big WHERE k % 3 = 0"),
    ("filter_project",
     "SELECT k, v FROM big WHERE v % 7 = 3"),
    ("grouped_aggregate",
     "SELECT v % 10, count(*), sum(k) FROM big GROUP BY v % 10"),
    ("range_aggregate",
     "SELECT count(*), sum(v) FROM big WHERE k < 50000"),
    ("selective_range",
     "SELECT count(*), sum(v) FROM big WHERE k < 2000"),
]

#: Workloads gated at >= 5x; the rest are reported for the trajectory.
GATED = {"full_table_aggregate": 5.0, "filtered_aggregate": 5.0,
         "range_aggregate": 5.0}

#: Workloads that must plan an IndexRangeScan under both settings.
RANGED = {"range_aggregate", "selective_range"}


def _build() -> Database:
    db = Database(profile=False)
    db.execute("CREATE TABLE big(k int, v int)")
    conn = db.connect()
    conn.execute("BEGIN")
    for i in range(ROWS):
        conn.execute("INSERT INTO big VALUES ($1, $2)",
                     [i, (i * 37) % 1000])
    conn.execute("COMMIT")
    return db


def _plan(db: Database, query: str) -> str:
    return "\n".join(row[0] for row in db.execute("EXPLAIN " + query).rows)


def _best(db: Database, query: str) -> float:
    db.execute(query)  # warm: plan cache + visibility cache
    best = float("inf")
    gc.collect()
    gc.disable()  # keep collector pauses out of the timed region
    try:
        for _ in range(REPS):
            start = time.perf_counter()
            db.execute(query)
            best = min(best, time.perf_counter() - start)
    finally:
        gc.enable()
    return best


def test_vectorized_speedups(write_artifact, write_json):
    db = _build()
    timings: dict[str, dict[str, float]] = {}
    speedups: dict[str, float] = {}
    rows = []
    for name, query in WORKLOADS:
        db.execute("SET enable_vectorize = on")
        vec_rows = db.execute(query).rows
        plan = _plan(db, query)
        assert "Vector" in plan, f"{name}: expected a vectorized plan"
        assert ("IndexRangeScan" in plan) == (name in RANGED), name
        on_s = _best(db, query)
        db.execute("SET enable_vectorize = off")
        assert db.execute(query).rows == vec_rows, \
            f"{name}: row/batch engines disagree"
        assert ("IndexRangeScan" in _plan(db, query)) == (name in RANGED), \
            name
        off_s = _best(db, query)
        speedup = off_s / on_s
        timings[name] = {"vectorized_s": on_s, "row_s": off_s}
        speedups[name] = speedup
        rows.append((name, f"{on_s * 1000:.1f}", f"{off_s * 1000:.1f}",
                     f"{speedup:.2f}x", "yes" if name in GATED else ""))

    write_artifact("bench_vectorized.txt", render_table(
        ("workload", "vector[ms]", "row[ms]", "speedup", "gated"),
        rows,
        title=f"Vectorized vs row-at-a-time execution "
              f"({ROWS} rows, best of {REPS})"))
    write_json("vectorized", {
        "rows": ROWS,
        "reps": REPS,
        "timings_s": timings,
        "speedups": speedups,
        "gates": {name: floor for name, floor in GATED.items()},
    })
    for name, floor in GATED.items():
        assert speedups[name] >= floor, (
            f"{name}: vectorized speedup {speedups[name]:.2f}x "
            f"below the {floor}x gate")
