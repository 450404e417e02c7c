"""The vectorized executor core (executor/vector.py): plan shape, the
profiler's batch counters, the statement-level row fallback, snapshot
freshness under same-transaction DML, cancellation, and batches read from
a bounded index range.

Numeric parity lives in ``test_fuzz_regressions.py`` (the adversarial
bigint sweep) and ``test_differential.py`` (randomized row/batch
differential incl. the batch-size boundary sweep); this file pins the
executor's *mechanics*.
"""

from __future__ import annotations

import time

import pytest

from repro.sql import Database
from repro.sql.errors import ExecutionError, QueryCanceledError, TypeError_
from repro.sql.executor import scan, vector
from repro.sql.profiler import INDEX_RANGE_SCANS, VECTOR_BATCHES, VECTOR_ROWS


@pytest.fixture()
def vdb(db):
    db.execute("CREATE TABLE t(a int, b int)")
    for i in range(10):
        db.execute("INSERT INTO t VALUES ($1, $2)", [i, i % 3])
    return db


def _explain(db, sql: str) -> str:
    return "\n".join(r[0] for r in db.execute("EXPLAIN " + sql).rows)


# ---------------------------------------------------------------------------
# Plan shape / EXPLAIN labels
# ---------------------------------------------------------------------------


class TestPlanShape:
    def test_explain_labels_the_vector_pipeline(self, vdb):
        text = _explain(vdb, "SELECT a FROM t WHERE a % 2 = 0")
        assert "VectorizedSelect" in text
        assert "VectorFilter" in text
        assert "VectorProject" in text
        assert f"VectorScan on t (batch={vector.BATCH_SIZE})" in text

    def test_explain_labels_vector_aggregation(self, vdb):
        text = _explain(vdb, "SELECT b, sum(a) FROM t GROUP BY b")
        assert "VectorizedAggregate+Select" in text
        assert "VectorAggregate (1 keys, 1 calls)" in text

    def test_setting_toggles_the_plan(self, vdb):
        sql = "SELECT sum(a) FROM t"
        assert "VectorScan" in _explain(vdb, sql)
        vdb.execute("SET enable_vectorize = off")
        assert "VectorScan" not in _explain(vdb, sql)
        vdb.execute("RESET enable_vectorize")
        assert "VectorScan" in _explain(vdb, sql)

    def test_row_only_shapes_keep_the_row_plan(self, vdb):
        # Joins, ORDER BY, window functions, subqueries, correlated
        # references, and volatile or user-defined calls (however deeply
        # nested) all stay on the row engine; the vectorized core never
        # appears under them.
        vdb.execute("CREATE TABLE u(x int)")
        vdb.execute("CREATE FUNCTION f(n int) RETURNS int AS "
                    "'SELECT n + 1' LANGUAGE SQL")
        for sql in [
            "SELECT t.a FROM t, u WHERE t.a = u.x",
            "SELECT a FROM t ORDER BY b",
            "SELECT a, row_number() OVER (ORDER BY a) FROM t",
            "SELECT a, (SELECT max(x) FROM u) FROM t",
            "SELECT (SELECT count(*) FROM u WHERE u.x = t.a) FROM t",
            "SELECT random() FROM t",
            "SELECT CASE WHEN a > 0 THEN random() END FROM t",
            "SELECT sum(a + random()) FROM t",
            "SELECT coalesce(a, f(a)) FROM t",
            "SELECT a FROM t WHERE b = 1 AND f(a) > 2",
        ]:
            assert "Vector" not in _explain(vdb, sql), sql

    def test_vectorized_axis_is_plan_affecting(self, vdb):
        assert any(s.name == "enable_vectorize" and values == (False, True)
                   for s, values in vdb.settings.plan_axes())


# ---------------------------------------------------------------------------
# Profiler counters
# ---------------------------------------------------------------------------


class TestProfilerCounters:
    def test_batches_and_rows_counted(self, vdb, monkeypatch):
        monkeypatch.setattr(vector, "BATCH_SIZE", 4)
        vdb.profiler.reset()
        assert vdb.query_value("SELECT sum(a) FROM t") == 45
        assert vdb.profiler.counts["vector batches"] == 3  # 4 + 4 + 2
        assert vdb.profiler.counts["vector rows"] == 10

    def test_row_engine_does_not_bump(self, vdb):
        vdb.execute("SET enable_vectorize = off")
        vdb.profiler.reset()
        vdb.execute("SELECT sum(a) FROM t")
        assert vdb.profiler.counts["vector batches"] == 0


# ---------------------------------------------------------------------------
# Row fallback on evaluation errors
# ---------------------------------------------------------------------------


class TestRowFallback:
    def test_error_parity_with_the_row_engine(self, vdb):
        vdb.execute("INSERT INTO t VALUES (NULL, 0)")
        sql = "SELECT 10 / b FROM t"  # b = 0 rows divide by zero
        with pytest.raises(ExecutionError) as vec_err:
            vdb.execute(sql)
        vdb.execute("SET enable_vectorize = off")
        with pytest.raises(ExecutionError) as row_err:
            vdb.execute(sql)
        assert str(vec_err.value) == str(row_err.value)

    def test_limit_laziness_preserved(self, db):
        # The row engine never reaches the poisoned third row under
        # LIMIT 2; the batch engine evaluates the whole batch eagerly,
        # hits the error, and must fall back to reproduce the lazy
        # row-at-a-time outcome.
        db.execute("CREATE TABLE z(a int)")
        for v in (1, 2, 0, 5):
            db.execute("INSERT INTO z VALUES ($1)", [v])
        sql = "SELECT 10 / a FROM z LIMIT 2"
        assert db.query_all(sql) == [(10,), (5,)]
        db.execute("SET enable_vectorize = off")
        assert db.query_all(sql) == [(10,), (5,)]

    def test_scan_level_error_falls_back(self, vdb, monkeypatch):
        def boom(self):
            raise ExecutionError("injected scan failure")

        monkeypatch.setattr(vector.VectorScan, "next_batch", boom)
        assert vdb.query_value("SELECT sum(a) FROM t") == 45

    def test_streaming_fallback_resumes_after_emitted_rows(self, vdb,
                                                           monkeypatch):
        # Let two batches stream out vectorized, then poison the scan:
        # the fallback must skip exactly the rows already emitted.
        monkeypatch.setattr(vector, "BATCH_SIZE", 3)
        original = vector.VectorScan.next_batch
        calls = {"n": 0}

        def flaky(self):
            calls["n"] += 1
            if calls["n"] == 3:
                raise ExecutionError("injected mid-stream failure")
            return original(self)

        monkeypatch.setattr(vector.VectorScan, "next_batch", flaky)
        assert vdb.query_all("SELECT a FROM t") == [(i,) for i in range(10)]


# ---------------------------------------------------------------------------
# Snapshot freshness: batches never outlive same-transaction DML
# ---------------------------------------------------------------------------


class TestSnapshotFreshness:
    def test_in_txn_update_then_aggregate(self, vdb):
        # The batch pipeline reads HeapTable.rows at *open* time, so an
        # aggregate inside an explicit transaction must see the
        # transaction's own prior UPDATE (and re-reading after more DML
        # must not serve a stale cached batch).
        for setting in ("on", "off"):
            vdb.execute(f"SET enable_vectorize = {setting}")
            conn = vdb.connect()
            conn.execute("BEGIN")
            conn.execute("UPDATE t SET a = a + 100")
            assert conn.execute("SELECT sum(a) FROM t").scalar() == 1045, \
                setting
            conn.execute("INSERT INTO t VALUES (1000, 9)")
            assert conn.execute("SELECT sum(a) FROM t").scalar() == 2045, \
                setting
            conn.execute("ROLLBACK")
            assert conn.execute("SELECT sum(a) FROM t").scalar() == 45, \
                setting

    def test_autocommit_dml_between_scans(self, vdb):
        assert vdb.query_value("SELECT sum(a) FROM t") == 45
        vdb.execute("DELETE FROM t WHERE a >= 5")
        assert vdb.query_value("SELECT sum(a) FROM t") == 10
        vdb.execute("UPDATE t SET a = a * 2")
        assert vdb.query_value("SELECT sum(a) FROM t") == 20


# ---------------------------------------------------------------------------
# Cancellation
# ---------------------------------------------------------------------------


class TestCancellation:
    def test_cancel_propagates_and_never_falls_back(self, vdb, monkeypatch):
        # QueryCanceledError must escape the fallback's SqlError net —
        # were it swallowed, the row engine would quietly re-run the
        # statement to completion and this would return 45.
        def canceled(self):
            raise QueryCanceledError("canceling statement")

        monkeypatch.setattr(vector.VectorScan, "next_batch", canceled)
        with pytest.raises(QueryCanceledError):
            vdb.execute("SELECT sum(a) FROM t")

    def test_scan_polls_once_per_batch(self, vdb, monkeypatch):
        monkeypatch.setattr(vector, "BATCH_SIZE", 2)
        polls = {"n": 0}
        from repro.sql import cancel as cancel_mod

        real_check = cancel_mod.CancelToken.check

        def counting_check(self):
            polls["n"] += 1
            return real_check(self)

        monkeypatch.setattr(cancel_mod.CancelToken, "check", counting_check)
        vdb.execute("SELECT sum(a) FROM t")
        assert polls["n"] >= 5  # one per 2-row batch over 10 rows


# ---------------------------------------------------------------------------
# Bounded index ranges: the batch engine reads the bisected window
# ---------------------------------------------------------------------------


RANGE_SUM = "SELECT count(*), sum(a) FROM t WHERE b < $1"


class TestIndexRange:
    def test_range_aggregate_is_vectorized_over_the_range(self, vdb):
        text = _explain(vdb, RANGE_SUM)
        assert "VectorizedAggregate+Select" in text
        assert "-> IndexRangeScan on t (b < $1) " \
               f"(batch={vector.BATCH_SIZE})" in text
        # The range already applied its bound: no filter stage.
        assert "VectorFilter" not in text
        text = _explain(vdb, "SELECT a FROM t WHERE b >= 1 AND a % 2 = 0")
        assert "VectorFilter" in text
        assert "IndexRangeScan on t (b >= 1)" in text

    def test_correlated_and_ordered_ranges_keep_the_row_plan(self, vdb):
        vdb.execute("CREATE TABLE u(x int)")
        vdb.execute("CREATE INDEX t_b ON t(b)")
        for sql in [
            "SELECT u.x, s.n FROM u, "
            "LATERAL (SELECT count(*) AS n FROM t WHERE t.b < u.x) s",
            "SELECT b FROM t WHERE b < 2 ORDER BY b",
            "SELECT b FROM t ORDER BY b",
        ]:
            text = _explain(vdb, sql)
            assert "IndexRangeScan" in text and "Vector" not in text, sql

    def test_one_range_scan_and_range_rows_per_execution(self, vdb,
                                                         monkeypatch):
        monkeypatch.setattr(vector, "BATCH_SIZE", 3)
        vdb.profiler.reset()
        for runs in (1, 2):
            assert vdb.execute(RANGE_SUM, [1]).rows == [(4, 18)]
            counts = vdb.profiler.counts
            assert counts[INDEX_RANGE_SCANS] == runs
            # b = 0 on 4 of the 10 rows: the batches carry the range only.
            assert counts[VECTOR_ROWS] == 4 * runs
            assert counts[VECTOR_BATCHES] == 2 * runs

    def test_mvcc_visibility_inside_and_outside_the_transaction(self, vdb):
        sql = "SELECT count(*), sum(a) FROM t WHERE b < 1"
        assert "Vectorized" in _explain(vdb, sql)
        writer, reader = vdb.connect(), vdb.connect()
        writer.execute("BEGIN")
        writer.execute("UPDATE t SET a = a + 100 WHERE b = 0")
        writer.execute("UPDATE t SET b = 0 WHERE a = 1")  # moves into range
        assert writer.execute(sql).rows == [(5, 419)]
        assert reader.execute(sql).rows == [(4, 18)]
        writer.execute("ROLLBACK")
        assert writer.execute(sql).rows == [(4, 18)]
        assert reader.execute(sql).rows == [(4, 18)]

    def test_incomparable_bound_raises_like_the_row_engine(self, vdb):
        sql = "SELECT count(*), sum(a) FROM t WHERE b < 'x'"
        assert "Vectorized" in _explain(vdb, sql)
        with pytest.raises(TypeError_) as vec_err:
            vdb.execute(sql)
        vdb.execute("SET enable_vectorize = off")
        with pytest.raises(TypeError_) as row_err:
            vdb.execute(sql)
        assert type(vec_err.value) is type(row_err.value)
        assert str(vec_err.value) == str(row_err.value)

    def test_statement_timeout_fires_during_the_range_scan(self, db,
                                                           monkeypatch):
        db.execute("CREATE TABLE big(a int, b int)")
        table = db.catalog.get_table("big")
        for i in range(4000):
            table.insert((i, i % 100))
        monkeypatch.setattr(vector, "BATCH_SIZE", 8)
        windows = scan.IndexRangeScanState.next_window

        def slow_window(self, size):
            time.sleep(0.002)  # ~1.6 s over the 800 windows of the range
            return windows(self, size)

        monkeypatch.setattr(scan.IndexRangeScanState, "next_window",
                            slow_window)
        sql = "SELECT count(*), sum(a) FROM big WHERE b < 80"
        assert "IndexRangeScan" in _explain(db, sql)
        db.execute("SET statement_timeout = 50")
        db.profiler.reset()
        started = time.monotonic()
        with pytest.raises(QueryCanceledError, match="statement timeout"):
            db.execute(sql)
        assert time.monotonic() - started < 1.0
        assert db.profiler.counts[VECTOR_BATCHES] >= 1
        assert db.profiler.counts[INDEX_RANGE_SCANS] == 1  # no fallback
