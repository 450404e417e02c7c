"""Tests of the benchmark itself: its checks, its seeding, its tracing.

Run from the repository root: ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from repro.compiler import compile_plsql  # noqa: E402
from repro.workloads import FIBONACCI_SOURCE  # noqa: E402
from repro.workloads.robot import default_grid  # noqa: E402

from perfbench import analytic_scan, plsql_calls, wire_oltp  # noqa: E402
from perfbench.common import (PROBE_REF_S, reference_metrics,  # noqa: E402
                              stream_hash, timed_loop)
from perfbench.layers import PER_LAYER, layer_metrics  # noqa: E402
from perfbench.tracer import Tracer, install_engine  # noqa: E402

SMALL_FACT = 2000


@pytest.fixture(scope="module")
def cells():
    return default_grid().cells()


def _plsql_run(ops, seed, plant=None, tracer=None, marks=None, probes=None):
    demo, tables = plsql_calls.setup(seed)
    if plant is not None:
        plant(demo.db)
    records, _ = timed_loop(ops, lambda op: plsql_calls.run_op(demo.db, op),
                            600, tracer, marks, probes,
                            len(plsql_calls._ROUND))
    return demo, tables, records


def _outcomes(records):
    return [[(form, repr(result)) for form, _, result in samples]
            for _, samples in records]


# -- the correctness oracle ----------------------------------------------


def test_planted_wrong_compiled_result_is_counted(cells):
    ops = plsql_calls.make_ops(3, cells, length=48)

    def plant(db):
        # A compiler bug: fibonacci_c adds one on every step.
        wrong = FIBONACCI_SOURCE.replace("t = a + b;", "t = a + b + 1;")
        compile_plsql(wrong, db).register(db, name="fibonacci_c")

    marks, probes = [], []
    demo, tables, records = _plsql_run(ops, 3, plant, marks=marks,
                                       probes=probes)
    attempted, failed, wrong = plsql_calls.verify(
        records, ops, plsql_calls.Oracle(demo, tables))
    bad_ops = [op for op in ops
               if op[1] == "fibonacci" and op[2][0] >= 2
               or op[1] == "select:fibonacci"]
    assert bad_ops, "the stream should call fibonacci"
    assert failed == len(bad_ops)
    assert all("compiled" in line for line in wrong)
    got = {"records": records, "demo": demo, "tables": tables,
           "elapsed": 1.0, "marks": marks, "probes": probes, "setup": [0.1],
           "compile": [0.001]}
    outcome = plsql_calls._end_to_end(got, ops, {})
    assert outcome.metrics["error_rate"].value == pytest.approx(
        failed / attempted) and failed > 0


def test_clean_plsql_run_has_no_failures(cells):
    ops = plsql_calls.make_ops(4, cells, length=36)
    demo, tables, records = _plsql_run(ops, 4)
    attempted, failed, wrong = plsql_calls.verify(
        records, ops, plsql_calls.Oracle(demo, tables))
    assert attempted == 2 * len(ops) and failed == 0, wrong


def test_planted_wrong_row_is_caught_by_the_mirror():
    ops = analytic_scan.make_ops(5, count=SMALL_FACT, length=40)
    db = analytic_scan.setup(5, rows=SMALL_FACT)
    records, _ = timed_loop(ops, lambda op: analytic_scan.run_op(db, op), 600)
    assert analytic_scan.verify(records, ops, 5, SMALL_FACT)[1] == 0
    db = analytic_scan.setup(5, rows=SMALL_FACT)
    db.execute("UPDATE fact SET a = a + 1 WHERE k = 7")  # behind its back
    records, _ = timed_loop(ops, lambda op: analytic_scan.run_op(db, op), 600)
    attempted, failed, wrong = analytic_scan.verify(records, ops, 5,
                                                    SMALL_FACT)
    assert attempted == len(ops) and failed > 0
    assert any("full" in line for line in wrong)


def test_short_wire_run_is_correct_and_reaps_its_server():
    outcome = wire_oltp.run(seed=2, seconds=1.0, traced=False)
    assert outcome.failed == 0, outcome.wrong
    assert outcome.attempted > 10
    assert outcome.metrics["setup_s"].samples == wire_oltp.SETUP_REPEATS
    assert not list((ROOT / "perfbench" / "out").glob("wal-seed2*"))


def test_bank_accepts_only_balances_a_read_could_see():
    bank = wire_oltp.Bank({1: 100, 2: 200})
    before = bank.begin_read(1)
    assert bank.acceptable(1, before) == {100}
    legs = ((1, -10), (2, 10))
    token = bank.begin_transfer(legs)
    assert bank.acceptable(1, before) == {100, 90}
    bank.end_transfer(token, legs, committed=True)
    later = bank.begin_read(1)
    assert bank.acceptable(1, later) == {90}
    token = bank.begin_transfer(legs)
    bank.end_transfer(token, legs, committed=False)
    assert bank.acceptable(1, bank.begin_read(1)) == {90}
    assert bank.committed == {1: 90, 2: 210} and bank.total == 300


# -- seeding ----------------------------------------------------------------


def test_op_streams_are_deterministic_per_seed(cells):
    makers = {
        "plsql_calls": lambda seed: plsql_calls.make_ops(seed, cells, 300),
        "analytic_scan": lambda seed: analytic_scan.make_ops(seed,
                                                             length=300),
        "wire_oltp": lambda seed: (wire_oltp.make_ops(seed, 0, length=300)
                                   + wire_oltp.make_ops(seed, 1, length=300)),
    }
    for name, make in makers.items():
        assert stream_hash(make(11)) == stream_hash(make(11)), name
        assert make(11) == make(11), name
        assert stream_hash(make(11)) != stream_hash(make(12)), name
    assert plsql_calls.make_tables(11) == plsql_calls.make_tables(11)
    assert analytic_scan.make_rows(11, 50) == analytic_scan.make_rows(11, 50)


# -- tracing ----------------------------------------------------------------


def test_traced_and_untraced_runs_agree(cells):
    ops = plsql_calls.make_ops(6, cells, length=36)
    _, _, plain = _plsql_run(ops, 6)
    tracer = Tracer()
    install_engine(tracer)
    try:
        _, _, traced = _plsql_run(ops, 6, tracer=tracer)
    finally:
        tracer.uninstall()
    assert _outcomes(plain) == _outcomes(traced)
    names = {span[2] for span in tracer.spans}
    assert {"interpreter.call", "analysis.check"} <= names
    assert {span[6] for span in tracer.spans} >= set(range(len(ops)))

    analytic_ops = analytic_scan.make_ops(6, count=SMALL_FACT, length=40)
    results = []
    for trace in (False, True):
        tracer = Tracer()
        if trace:
            install_engine(tracer)
        try:
            db = analytic_scan.setup(6, rows=SMALL_FACT)
            records, _ = timed_loop(
                analytic_ops, lambda op: analytic_scan.run_op(db, op), 600,
                tracer)
        finally:
            tracer.uninstall()
        results.append(_outcomes(records))
    assert results[0] == results[1]


def test_tracer_self_time_excludes_children():
    tracer = Tracer()

    def child():
        return sum(range(1000))

    traced_child = tracer.wrap("child", child)

    def parent():
        return traced_child() + traced_child()

    tracer.wrap("parent", parent)()
    summary = tracer.summary()["spans"]
    assert summary["child"]["count"] == 2
    parent_span = summary["parent"]
    assert parent_span["self_s"] == pytest.approx(
        parent_span["total_s"] - summary["child"]["total_s"])
    assert [s[1] for s in tracer.spans if s[2] == "child"] == \
        [s[0] for s in tracer.spans if s[2] == "parent"] * 2


def test_uninstall_restores_every_entry_point():
    import repro.sql.engine as engine
    from repro.sql.planner import Planner

    before = (engine.parse_statement, Planner.__dict__["plan_select"],
              engine.Database.__dict__["_dispatch_ast"])
    tracer = Tracer()
    install_engine(tracer)
    assert engine.parse_statement is not before[0]
    tracer.uninstall()
    assert (engine.parse_statement, Planner.__dict__["plan_select"],
            engine.Database.__dict__["_dispatch_ast"]) == before


# -- the reference metrics ------------------------------------------------


def _rounds(slow: set, count: int, size: int = 2):
    """Marks and latencies of *count* rounds of *size* ops, each op
    10 ms of work at the reference speed, rounds in *slow* run at half
    speed."""
    marks, latencies, now = [], [], 0.0
    for number in range(count):
        took = 0.010 * (2 if number in slow else 1)
        for _ in range(size):
            marks.append(now)
            latencies.append([took])
            now += took
    marks.append(now)
    return marks, latencies


def test_reference_metrics_scale_each_round_by_its_probes():
    slow = {4, 5, 6, 7, 8}
    probes = [PROBE_REF_S * (2 if r in slow else 1) for r in range(12)]
    marks, latencies = _rounds(slow, 12)
    metrics, probe = reference_metrics(marks, latencies, probes, 2)
    assert probe == PROBE_REF_S
    assert metrics["ref_throughput_ops_s"].samples == 24
    assert metrics["ref_throughput_ops_s"].value == pytest.approx(100)
    assert metrics["ref_latency_geomean_ms"].value == pytest.approx(10)
    # One stray probe moves no round's scale: each takes the median of
    # the five probes nearest it.
    probes = [PROBE_REF_S] * 12
    probes[3] *= 5
    metrics, _ = reference_metrics(*_rounds(set(), 12), probes, 2)
    assert metrics["ref_latency_geomean_ms"].value == pytest.approx(10)
    # A partial last round is left out; a run shorter than one round is
    # taken whole.
    short, _ = reference_metrics(marks[:-1], latencies[:-1], probes, 2)
    assert short["ref_throughput_ops_s"].samples == 22
    whole, _ = reference_metrics([0.0, 0.5], [[0.5]], [PROBE_REF_S / 2], 4)
    assert whole["ref_throughput_ops_s"].value == pytest.approx(1.0)


def test_timed_loop_marks_every_op_and_probes_every_round():
    marks, probes = [], []
    records, elapsed = timed_loop(range(5), lambda op: op, 600, marks=marks,
                                  probes=probes, round_size=2)
    assert len(records) == 5 and len(marks) == 6 and len(probes) == 3
    assert marks == sorted(marks) and all(p > 0 for p in probes)
    assert marks[-1] - marks[0] <= elapsed


# -- the declared metrics -------------------------------------------------


def test_layer_metrics_cover_the_declared_per_layer_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [metric["name"] for metric in spec["per_layer"]]
    assert declared == list(PER_LAYER)
    empty = {"times": {}, "counts": {}}
    metrics = layer_metrics(1, empty, {"spans": {}, "counters": {}})
    assert list(metrics) == declared
    for metric in spec["per_layer"]:
        assert metrics[metric["name"]][1] == metric["unit"]
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert {w["name"] for w in spec["workloads"]} == \
        set(json.loads((ROOT / "perfbench" / "manifest.json")
                       .read_text())["workloads"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "plsql_calls",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={"PATH": "/usr/bin:/bin"})
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
