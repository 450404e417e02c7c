"""Workload ``plsql_calls``: the paper's four functions, compiled vs interpreted.

Data: ``build_demo_database`` plus two seeded argument tables of 2,000
rows each, ``uargs(id, a, h, n)`` (traverse start/hops, fibonacci n)
and ``pargs(id, s)`` (parse inputs).  One embedded connection, one
client, a closed loop with no think time.

Ops come in rounds of twelve with a fixed mix (3 walk, 2 parse,
2 traverse, 2 fibonacci, 2 select-list calls over a 30-row id window,
1 ``sum(traverse(a, h))`` over a 30-row window); sizes are stratified
within a round, so every seed sees the same spread of sizes.  Each op
runs back to back in both forms, ``f_c`` (compiled) and ``f``
(PL/pgSQL), with identical arguments; which form goes first alternates
by op.  ``walk`` is reseeded per op and form.  Every result is checked
after the timed phase against the Python oracles of
:mod:`repro.workloads`, which share no code with the compiler.
"""

from __future__ import annotations

import gc
import random
import time
from functools import lru_cache
from statistics import fmean

from repro.compiler import compile_plsql
from repro.workloads import WORKLOADS, build_demo_database
from repro.workloads.fibonacci import fibonacci_reference
from repro.workloads.parser_fsm import make_parseable_input
from repro.workloads.robot import default_grid, walk_reference

from .common import (OUT_DIR, ROOT, Metric, RunOutcome, duplicate_share,
                     median, op_metrics, peak_rss_mb_self, reference_metrics,
                     reference_seconds, settle_heap, stream_hash,
                     timed_loop)
from .layers import Checked, profiler_delta, profiler_state, traced_outcome
from .tracer import COMPILER_PASSES, Tracer, install_engine

NAME = "plsql_calls"
ARG_ROWS = 2000
WINDOW = 30
SETUP_REPEATS = 5
COMPILE_REPEATS = 3
#: win / -loose of a walk that is to take all its steps.
WALK_ALL = 1_000_000
#: Logical ops generated per run (far more than a minute's worth).
STREAM_LENGTH = 6000

_ROUND = ("walk", "walk", "walk", "parse", "parse", "traverse", "traverse",
          "fibonacci", "fibonacci", "select", "select", "aggregate")
_SELECT_SHAPES = ("fibonacci", "parse", "traverse")
_SQL = {
    "walk": "SELECT walk{f}(row($1, $2)::coord, $3, $4, $5)",
    "parse": "SELECT parse{f}($1)",
    "traverse": "SELECT traverse{f}($1, $2)",
    "fibonacci": "SELECT fibonacci{f}($1)",
    "select:fibonacci": ("SELECT id, fibonacci{f}(n) FROM uargs "
                         "WHERE id BETWEEN $1 AND $2"),
    "select:parse": "SELECT id, parse{f}(s) FROM pargs WHERE id BETWEEN $1 AND $2",
    "select:traverse": ("SELECT id, traverse{f}(a, h) FROM uargs "
                        "WHERE id BETWEEN $1 AND $2"),
    "aggregate": ("SELECT sum(traverse{f}(a, h)) FROM uargs "
                  "WHERE id BETWEEN $1 AND $2"),
}
#: Which forms run; the compiled form's name carries the ``_c`` suffix.
FORMS = ("compiled", "interpreted")


def _stratified(rng: random.Random, low: int, high: int, slot: int,
                slots: int) -> int:
    """A draw from the *slot*-th of *slots* equal bins of [low, high]."""
    width = (high - low + 1) / slots
    return low + int(width * slot + rng.random() * width)


def make_tables(seed: int) -> tuple[list, list]:
    """The two argument tables: fibonacci n repeats heavily (a pool of
    12 values), traverse (a, h) and parse strings mostly do not."""
    rng = random.Random(f"{seed}:tables")
    pool = rng.sample(range(1, 91), 12)
    uargs = [(i, rng.randrange(64), rng.randint(5, 40), rng.choice(pool))
             for i in range(ARG_ROWS)]
    pargs = [(i, make_parseable_input(rng.randint(5, 60),
                                      seed=rng.randrange(1 << 30)))
             for i in range(ARG_ROWS)]
    return uargs, pargs


def make_ops(seed: int, cells, length: int = STREAM_LENGTH) -> list[tuple]:
    """The op stream: ``(kind, shape, args, rng_seed, compiled_first)``."""
    rng = random.Random(f"{seed}:ops")
    ops = []
    slot_of: dict[str, int] = {}
    shape_turn = 0
    while len(ops) < length:
        kinds = list(_ROUND)
        rng.shuffle(kinds)
        slot_of.clear()
        for kind in kinds:
            slot = slot_of.get(kind, 0)
            slot_of[kind] = slot + 1
            slots = _ROUND.count(kind)
            shape, args = kind, ()
            if kind == "walk":
                # The last walk of a round may stop early on reaching
                # win or loose; the others walk all their steps, so the
                # cost of a round does not hang on how a walk turns out.
                x, y = rng.choice(cells)
                bound = rng.randint(5, 40) if slot == slots - 1 else WALK_ALL
                args = (x, y, bound, -bound,
                        _stratified(rng, 10, 200, slot, slots))
            elif kind == "parse":
                text = make_parseable_input(
                    _stratified(rng, 5, 200, slot, slots),
                    seed=rng.randrange(1 << 30))
                if rng.random() < 0.2:  # an offending character somewhere
                    at = rng.randrange(len(text))
                    text = text[:at] + "x" + text[at + 1:]
                args = (text,)
            elif kind == "traverse":
                args = (rng.randrange(64), _stratified(rng, 5, 60, slot,
                                                       slots))
            elif kind == "fibonacci":
                args = (_stratified(rng, 1, 90, slot, slots),)
            else:
                if kind == "select":
                    shape = "select:" + _SELECT_SHAPES[shape_turn % 3]
                    shape_turn += 1
                low = rng.randrange(ARG_ROWS - WINDOW + 1)
                args = (low, low + WINDOW - 1)
            ops.append((kind, shape, args, rng.randrange(1 << 30),
                        len(ops) % 2 == 0))
    return ops


def setup(seed: int):
    """Build the database the workload runs on; returns (demo, tables)."""
    demo = build_demo_database(seed=seed)
    db = demo.db
    uargs, pargs = make_tables(seed)
    db.execute("CREATE TABLE uargs(id int, a int, h int, n int)")
    db.execute("CREATE TABLE pargs(id int, s text)")
    cursor = db.connect().cursor()
    cursor.executemany("INSERT INTO uargs VALUES ($1, $2, $3, $4)", uargs)
    cursor.executemany("INSERT INTO pargs VALUES ($1, $2)", pargs)
    db.execute("CREATE INDEX uargs_id ON uargs(id)")
    db.execute("CREATE INDEX pargs_id ON pargs(id)")
    return demo, (uargs, pargs)


class Oracle:
    """Expected results from the plain-Python references."""

    def __init__(self, demo, tables):
        self.demo = demo
        self.uargs, self.pargs = tables
        self.traverse = lru_cache(maxsize=None)(demo.graph.traverse_reference)
        self.fibonacci = lru_cache(maxsize=None)(fibonacci_reference)

    def expected(self, op):
        kind, shape, args, rng_seed, _ = op
        demo = self.demo
        if kind == "walk":
            x, y, win, loose, steps = args
            return [(walk_reference(demo.db, demo.grid, (x, y), win, loose,
                                    steps, rng_seed),)]
        if kind == "parse":
            return [(demo.fsm.run(args[0]),)]
        if kind == "traverse":
            return [(self.traverse(*args),)]
        if kind == "fibonacci":
            return [(self.fibonacci(args[0]),)]
        low, high = args
        if shape == "select:parse":
            return [(i, demo.fsm.run(s)) for i, s in self.pargs[low:high + 1]]
        rows = self.uargs[low:high + 1]
        if shape == "select:fibonacci":
            return [(i, self.fibonacci(n)) for i, _, _, n in rows]
        values = [(i, self.traverse(a, h)) for i, a, h, _ in rows]
        if shape == "select:traverse":
            return values
        return [(sum(v for _, v in values),)]


def run_op(db, op):
    """Run *op* in both forms; returns ``[(form, seconds, rows|exc)]``."""
    kind, shape, args, rng_seed, compiled_first = op
    forms = FORMS if compiled_first else FORMS[::-1]
    out = []
    for form in forms:
        sql = _SQL[shape].format(f="_c" if form == "compiled" else "")
        db.reseed(rng_seed)
        start = time.perf_counter()
        try:
            rows = db.query_all(sql, args)
        except Exception as exc:  # counted as a failed op
            out.append((form, time.perf_counter() - start, exc))
            continue
        out.append((form, time.perf_counter() - start, rows))
    return out


def calls_in(op) -> int:
    """Compiled-function calls one form of *op* makes."""
    return 1 if op[0] not in ("select", "aggregate") else WINDOW


def warm_up(db, ops) -> None:
    """Run one op of every statement shape so plans are cached."""
    seen = set()
    for op in ops:
        if op[1] not in seen:
            seen.add(op[1])
            run_op(db, op)


def verify(records, ops, oracle) -> tuple[int, int, list]:
    """Check every sample; returns (attempted, failed, descriptions)."""
    attempted = failed = 0
    wrong = []
    for index, samples in records:
        op = ops[index]
        expected = oracle.expected(op)
        for form, _, outcome in samples:
            attempted += 1
            if isinstance(outcome, Exception):
                failed += 1
                wrong.append(f"op {index} {op[1]} {form}: error {outcome!r}")
            elif sorted(outcome) != sorted(expected):
                failed += 1
                wrong.append(f"op {index} {op[1]} {form} args={op[2]}: got "
                             f"{str(sorted(outcome))[:80]} expected "
                             f"{str(sorted(expected))[:80]}")
    return attempted, failed, wrong


def compile_times(db) -> tuple[list, list]:
    """``compile_plsql`` of the four paper functions, repeated; returns
    (seconds per compile, last artifact per function)."""
    samples, artifacts = [], []
    for source in WORKLOADS.values():
        for _ in range(COMPILE_REPEATS):
            start = time.perf_counter()
            artifact = compile_plsql(source, db)
            samples.append(time.perf_counter() - start)
        artifacts.append(artifact)
    return samples, artifacts


def input_properties(ops, tables) -> dict:
    uargs, pargs = tables
    fib_dup, parse_dup, traverse_dup = [], [], []
    for _, shape, args, _, _ in ops:
        if shape.startswith("select") or shape == "aggregate":
            low, high = args
            if shape == "select:parse":
                parse_dup.append(duplicate_share(
                    s for _, s in pargs[low:high + 1]))
            elif shape == "select:fibonacci":
                fib_dup.append(duplicate_share(
                    n for *_, n in uargs[low:high + 1]))
            else:
                traverse_dup.append(duplicate_share(
                    (a, h) for _, a, h, _ in uargs[low:high + 1]))
    return {
        "dup_share_fibonacci_window": round(fmean(fib_dup or [0]), 4),
        "dup_share_parse_window": round(fmean(parse_dup or [0]), 4),
        "dup_share_traverse_window": round(fmean(traverse_dup or [0]), 4),
    }


def _measure(seed, seconds, ops, tracer=None, setup_repeats=SETUP_REPEATS):
    """Set up, compile, warm up and run the loop; returns what it measured.

    With a *tracer*, its spans are summarised per stage (set-up, compile,
    loop) so each stage's layers are attributed separately.
    """
    stages = {}

    def stage(name, keep=False):
        if tracer is not None:
            stages[name] = tracer.summary()
            if not keep:
                tracer.reset()

    setup_samples = []
    for _ in range(setup_repeats):
        gc.collect()  # the previous copy's cycles, outside the timing
        took, (demo, tables) = reference_seconds(lambda: setup(seed))
        setup_samples.append(took)
    stage("setup")
    db = demo.db
    compile_samples, artifacts = compile_times(db)
    stage("compile")
    settle_heap()
    warm_up(db, ops)
    stage("warm_up")
    before = profiler_state(db.profiler)
    marks, probes = [], []
    records, elapsed = timed_loop(ops, lambda op: run_op(db, op),
                                  seconds, tracer, marks, probes,
                                  len(_ROUND))
    stage("loop", keep=True)  # its spans are written out
    return {"demo": demo, "tables": tables, "records": records,
            "elapsed": elapsed, "marks": marks, "probes": probes,
            "setup": setup_samples,
            "compile": compile_samples, "artifacts": artifacts,
            "prof": profiler_delta(before, profiler_state(db.profiler)),
            "stages": stages}


def run(seed: int, seconds: float, traced: bool) -> RunOutcome:
    ops = make_ops(seed, default_grid().cells())
    extra = {"op_stream_hash": stream_hash(ops), "clients": 1,
             "loop": "closed, no think time"}
    if not traced:
        got = _measure(seed, seconds, ops)
        return _end_to_end(got, ops, extra)
    # Traced run: the same seed untraced for half the time, then traced
    # (fresh set-up, so analysis and compiler spans are captured too).
    plain = _measure(seed, seconds / 2, ops, setup_repeats=1)
    tracer = Tracer()
    install_engine(tracer)
    try:
        got = _measure(seed, seconds / 2, ops, tracer, setup_repeats=1)
    finally:
        tracer.uninstall()
    return _per_layer(plain, got, ops, extra, tracer, seed)


def _samples(records, form):
    return [seconds for _, samples in records
            for f, seconds, _ in samples if f == form]


def _end_to_end(got, ops, extra) -> RunOutcome:
    records = got["records"]
    oracle = Oracle(got["demo"], got["tables"])
    attempted, failed, wrong = verify(records, ops, oracle)
    every = [s for _, samples in records for _, s, _ in samples]
    compiled = _samples(records, "compiled")
    interpreted = _samples(records, "interpreted")
    extra.update(input_properties(ops[:len(records)], got["tables"]))
    extra["ops_completed"] = len(records)
    metrics = op_metrics(every, got["elapsed"])
    reference, probe = reference_metrics(
        got["marks"], [[s for _, s, _ in samples] for _, samples in records],
        got["probes"], len(_ROUND))
    extra["host_probe_ms"] = round(probe * 1e3, 4)
    metrics.update(reference)
    metrics.update({
        "setup_s": Metric(median(got["setup"]), "s", len(got["setup"])),
        "error_rate": Metric(failed / max(attempted, 1), "share", attempted),
        "peak_rss_mb": Metric(peak_rss_mb_self(), "MB"),
        "compiled_p50_ms": Metric(median(compiled) * 1e3, "ms",
                                  len(compiled)),
        "interpreted_p50_ms": Metric(median(interpreted) * 1e3, "ms",
                                     len(interpreted)),
        "compile_ms": Metric(median(got["compile"]) * 1e3, "ms",
                             len(got["compile"])),
    })
    return RunOutcome(attempted, failed, wrong, metrics, extra)


def _per_layer(plain, got, ops, extra, tracer, seed) -> RunOutcome:
    spans = OUT_DIR / f"spans-{NAME}-seed{seed}.jsonl"
    tracer.write(spans)
    extra.update({"spans_file": str(spans.relative_to(ROOT)),
                  "spans": len(tracer.spans)})
    phases = []
    for measured in (plain, got):
        records = measured["records"]
        checked = verify(records, ops, Oracle(measured["demo"],
                                              measured["tables"]))
        phases.append(Checked(sum(len(samples) for _, samples in records),
                              measured["elapsed"], *checked))
    records, prof = got["records"], got["prof"]
    compiled_calls = sum(calls_in(ops[index]) for index, _ in records)
    working_rows = prof["counts"].get("trampoline working rows", 0)
    compiles = got["stages"]["compile"]["spans"]
    checks = got["stages"]["setup"]["spans"].get("analysis.check", {})
    layer_extra = {
        "batched_udf.batched_call_share":
            prof["counts"].get("batched udf rows", 0) / max(compiled_calls, 1),
        "recursion.us_per_working_row":
            sum(_samples(records, "compiled")) * 1e6 / working_rows
            if working_rows else 0.0,
        "compiler.cfg_blocks": sum(len(a.cfg.blocks)
                                   for a in got["artifacts"]),
        "compiler.ssa_stmts": sum(len(b.phis) + len(b.stmts)
                                  for a in got["artifacts"]
                                  for b in a.ssa.blocks.values()),
        "compiler.sql_bytes": sum(len(a.sql()) for a in got["artifacts"]),
        "analysis.check_ms_per_function":
            checks.get("total_s", 0) / max(checks.get("count", 0), 1) * 1e3,
    }
    for stage in set(COMPILER_PASSES.values()):
        layer_extra[stage + "_ms"] = (compiles.get(stage, {}).get("total_s", 0)
                                      / len(got["compile"]) * 1e3)
    return traced_outcome(*phases, prof, got["stages"]["loop"], layer_extra,
                          extra)
