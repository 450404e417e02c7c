"""Set-oriented compiled-UDF execution vs the per-row scalar path.

The paper compiles a PL/SQL function f into one ``WITH RECURSIVE`` query
Qf.  The engine's scalar finalization splices Qf into the calling query as
a *correlated scalar subquery*, so ``SELECT f(x) FROM t`` re-materializes
the whole recursive trampoline once per input row.  The ``BatchedUdf``
operator instead seeds one trampoline from all 10,000 rows at once — the
working set carries a caller row key ``k`` — and advances every pending
call in lock-step (``planner.batch_compiled``, on by default).

The workload is a loop-heavy integer function over a 10k-row table with
realistically skewed argument values (20 distinct), the shape the paper's
Figure 10/11 sweeps use.  Set-orientation wins twice: the trampoline pays
its per-step machinery once per step for the whole relation instead of
once per call, and — because the whole argument relation is in hand and
batching requires non-volatile functions — rows with identical arguments
share one activation (``planner.batch_dedup``).

Asserted here (the PR's acceptance criteria):

* the batched trampoline beats the per-row scalar path by >= 10x on the
  10k-row workload (it also stays >= 5x with argument dedup disabled,
  i.e. running all 10,000 activations),
* EXPLAIN names the ``BatchedUdf`` operator for the batched plan and not
  for the scalar one,
* the batched trampoline machine and the scalar path return identical
  results.
"""

from __future__ import annotations

from repro.bench.harness import render_table, time_query
from repro.compiler import compile_plsql
from repro.sql import Database
from repro.sql.profiler import (BATCHED_UDF_BATCHES, BATCHED_UDF_DISTINCT,
                                BATCHED_UDF_ROWS, TRAMPOLINE_ITERATIONS)

ROWS = 10_000

#: Two running accumulators: every loop iteration is three let bindings,
#: which cost the scalar template three LATERAL rescans per call per
#: iteration and the batched machine three expression evaluations.
TETRA = """
CREATE FUNCTION tetra(n int) RETURNS int AS $$
DECLARE s int := 0; q int := 0; i int := 1;
BEGIN
  WHILE i <= n LOOP
    s := s + i;
    q := q + s;
    i := i + 1;
  END LOOP;
  RETURN q;
END;
$$ LANGUAGE plpgsql"""

QUERY = "SELECT tetra_c(x) FROM t"


def _build_db() -> Database:
    db = Database(profile=False)
    db.execute("CREATE TABLE t(x int)")
    table = db.catalog.get_table("t")
    for i in range(ROWS):
        table.insert((i % 20 + 1,))
    compile_plsql(TETRA, db).register(db, name="tetra_c")
    return db


def _timed(db: Database, batched: bool, dedup: bool = True,
           runs: int = 3) -> float:
    db.planner.batch_compiled = batched
    db.planner.batch_dedup = dedup
    db.clear_plan_cache()
    return time_query(db, QUERY, runs=runs, warmup=1).minimum


def test_batched_udf_beats_scalar_path(write_artifact, write_json, benchmark):
    db = _build_db()

    # Sanity: both evaluation paths agree before we time anything.
    db.planner.batch_compiled = True
    db.clear_plan_cache()
    machine_rows = db.query_all(QUERY)
    explain_batched = db.explain(QUERY)
    db.planner.batch_compiled = False
    db.clear_plan_cache()
    scalar_rows = db.query_all(QUERY)
    explain_scalar = db.explain(QUERY)
    assert machine_rows == scalar_rows
    assert "BatchedUdf" in explain_batched
    assert "BatchedUdf" not in explain_scalar

    machine_s = _timed(db, batched=True)
    raw_s = _timed(db, batched=True, dedup=False)
    scalar_s = _timed(db, batched=False, runs=1)
    speedup = scalar_s / machine_s
    raw_speedup = scalar_s / raw_s

    # One instrumented run for the new profiler counters.
    db.planner.batch_compiled = True
    db.planner.batch_dedup = True
    db.clear_plan_cache()
    db.profiler.enabled = True
    db.profiler.reset()
    db.query_all(QUERY)
    counts = dict(db.profiler.counts)
    db.profiler.enabled = False
    assert counts[BATCHED_UDF_BATCHES] == 1
    assert counts[BATCHED_UDF_ROWS] == ROWS
    assert counts[BATCHED_UDF_DISTINCT] == 20
    # One lock-step trampoline: iterations equal the *longest* call, not
    # the sum over calls (20 loop iterations + the final empty check).
    assert counts[TRAMPOLINE_ITERATIONS] <= 25

    rows = [
        ["scalar subquery per row (seed path)", round(scalar_s * 1000, 1)],
        ["batched, trampoline machine, no arg dedup",
         round(raw_s * 1000, 1)],
        ["batched, trampoline machine (default)",
         round(machine_s * 1000, 1)],
        ["speedup (default batched vs scalar)", round(speedup, 1)],
        ["speedup (no-dedup batched vs scalar)", round(raw_speedup, 1)],
        ["trampoline iterations (batched)", counts[TRAMPOLINE_ITERATIONS]],
        ["batch size / distinct activations",
         f"{counts[BATCHED_UDF_ROWS]} / {counts[BATCHED_UDF_DISTINCT]}"],
    ]
    write_artifact("bench_batched_udf.txt", render_table(
        ["variant", "ms (min) / count"], rows,
        title=f"Compiled UDF over a {ROWS}-row table: "
              "one trampoline vs one per row"))

    write_json("batched_udf", {
        "rows": ROWS,
        "timings_s": {
            "scalar_per_row": scalar_s,
            "batched_machine_no_dedup": raw_s,
            "batched_machine": machine_s,
        },
        "speedups": {"batched": speedup, "batched_no_dedup": raw_speedup},
        "rows_per_s": {"batched_machine": ROWS / machine_s},
    })

    assert speedup >= 10.0, f"batched trampoline only {speedup:.1f}x faster"
    assert raw_speedup >= 5.0, \
        f"no-dedup trampoline only {raw_speedup:.1f}x faster"

    db.planner.batch_compiled = True
    db.clear_plan_cache()
    benchmark.pedantic(lambda: db.query_all(QUERY), rounds=3, iterations=1)
