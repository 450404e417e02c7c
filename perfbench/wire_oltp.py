"""Workload ``wire_oltp``: point reads beside durable transfers, over the wire.

A server process (:mod:`perfbench.wire_server`) serves a durable
database (WAL, fsync on every commit, default checkpoint interval)
holding ``acct(id, bal)``: 10,000 rows with an index on ``id``.  Two
client threads in this process each own one connection and run their
own seeded op stream in a closed loop with no think time, in lock-step:
both send an op, and the next pair starts once both replies are in.
Free-running clients phase-lock on the database execution lock, so the
share of reads that wait behind a write drifts for seconds at a time;
in lock-step every pair is a fresh draw and that share is steady.

* ~60% ``EXECUTE rd(id)`` of a per-connection prepared point read,
  uniform keys;
* ~20% ``SELECT bal FROM acct WHERE id = <literal>`` with Zipf-skewed
  keys: a head of texts repeats while the tail far exceeds the
  256-entry plan cache;
* ~15% ``BEGIN; UPDATE; UPDATE; COMMIT`` transfers, retried on 40001;
* ~5% ``SELECT sum(bal)``, checked against the conserved total.

Point reads are checked against the transfers the clients know about:
a read must return the committed balance it started with plus some
subset of the transfers on that account in flight during the read.
After the loop the whole table is compared with the committed
transfers.
"""

from __future__ import annotations

import bisect
import itertools
import json
import os
import random
import subprocess
import sys
import threading
import time
from collections import defaultdict

from repro.server.client import ServerError, connect

from .common import (OUT_DIR, ROOT, Metric, RunOutcome, median, op_metrics,
                     host_probe, percentile, reference_metrics,
                     reference_seconds, stream_hash)
from .layers import Checked, traced_outcome
from .wire_server import ROWS, UNIT, initial_balances

NAME = "wire_oltp"
CLIENTS = 2
SETUP_REPEATS = 5
STREAM_LENGTH = 20_000
ZIPF_S = 1.1
MAX_ATTEMPTS = 50

_ROUND = ("prep",) * 12 + ("text",) * 4 + ("xfer",) * 3 + ("sum",)
_PREPARE = "PREPARE rd(int) AS SELECT bal FROM acct WHERE id = $1"


def make_ops(seed: int, client: int,
             length: int = STREAM_LENGTH) -> list[tuple]:
    """One client's op stream: ``(kind, args)``."""
    rng = random.Random(f"{seed}:{client}:ops")
    ranks = list(range(ROWS))
    random.Random(f"{seed}:zipf").shuffle(ranks)  # same head for both
    weights = list(itertools.accumulate(1 / (r + 1) ** ZIPF_S
                                        for r in range(ROWS)))
    ops: list[tuple] = []
    while len(ops) < length:
        kinds = list(_ROUND)
        rng.shuffle(kinds)
        for kind in kinds:
            if kind == "prep":
                args = (rng.randrange(ROWS),)
            elif kind == "text":
                rank = bisect.bisect_left(weights, rng.random() * weights[-1])
                args = (ranks[min(rank, ROWS - 1)],)
            elif kind == "xfer":
                source, target = rng.sample(range(ROWS), 2)
                args = (source, target, UNIT * rng.randint(1, 50))
            else:
                args = ()
            ops.append((kind, args))
    return ops


class Bank:
    """What the clients know about balances, for checking reads.

    Transfer amounts commute, so the committed balance of an account is
    its initial balance plus the amounts of the transfers whose COMMIT
    succeeded.  A transfer is *uncertain* to a read while it is in
    flight: the server may have committed it before or after the read.
    """

    def __init__(self, balances: dict[int, int]):
        self.committed = dict(balances)
        self.total = sum(balances.values())
        self._lock = threading.Lock()
        self._started: dict[int, list] = defaultdict(list)  # id -> [(tok, d)]
        self._inflight: dict[int, dict] = defaultdict(dict)  # id -> {tok: d}
        self._tokens = itertools.count()

    def begin_transfer(self, legs) -> int:
        with self._lock:
            token = next(self._tokens)
            for account, delta in legs:
                self._started[account].append((token, delta))
                self._inflight[account][token] = delta
        return token

    def end_transfer(self, token: int, legs, committed: bool) -> None:
        with self._lock:
            for account, delta in legs:
                del self._inflight[account][token]
                if committed:
                    self.committed[account] += delta

    def begin_read(self, account: int) -> tuple:
        with self._lock:
            return (self.committed[account], len(self._started[account]),
                    dict(self._inflight[account]))

    def acceptable(self, account: int, start: tuple) -> set[int]:
        base, seen, inflight = start
        with self._lock:
            uncertain = dict(inflight)
            uncertain.update(self._started[account][seen:])
        values = {base}
        for delta in uncertain.values():
            values |= {value + delta for value in values}
        return values


def _query_retry(client, sql, counters):
    """Run *sql*; on 40001 roll back and retry.  Returns the results."""
    for attempt in range(MAX_ATTEMPTS):
        try:
            return client.query(sql)
        except ServerError as error:
            if error.sqlstate != "40001" or attempt == MAX_ATTEMPTS - 1:
                raise
            counters["retries"] += 1
            if client.transaction_status != b"I":
                client.query("ROLLBACK")
            time.sleep(0.001 * (attempt + 1))
    raise AssertionError("unreachable")


def run_op(client, bank: Bank, op, counters) -> tuple:
    """Run one op; returns ``(kind, seconds, problem or None)``."""
    kind, args = op
    start = time.perf_counter()
    try:
        if kind in ("prep", "text"):
            (account,) = args
            before = bank.begin_read(account)
            sql = (f"EXECUTE rd({account})" if kind == "prep" else
                   f"SELECT bal FROM acct WHERE id = {account}")
            rows = client.query_rows(sql)
            elapsed = time.perf_counter() - start
            got = int(rows[0][0]) if len(rows) == 1 else None
            if got not in bank.acceptable(account, before):
                return kind, elapsed, f"{sql} -> {rows}"
            return kind, elapsed, None
        if kind == "sum":
            rows = client.query_rows("SELECT sum(bal) FROM acct")
            elapsed = time.perf_counter() - start
            if int(rows[0][0]) != bank.total:
                return kind, elapsed, f"sum {rows} != {bank.total}"
            return kind, elapsed, None
        source, target, amount = args
        legs = ((source, -amount), (target, amount))
        token = bank.begin_transfer(legs)
        committed = False
        try:
            results = _query_retry(
                client,
                f"BEGIN; UPDATE acct SET bal = bal - {amount} WHERE id = "
                f"{source}; UPDATE acct SET bal = bal + {amount} WHERE id = "
                f"{target}; COMMIT", counters)
            committed = True
        finally:
            bank.end_transfer(token, legs, committed)
        elapsed = time.perf_counter() - start
        tags = [result.command_tag for result in results]
        if tags != ["BEGIN", "UPDATE 1", "UPDATE 1", "COMMIT"]:
            return kind, elapsed, f"transfer tags {tags}"
        return kind, elapsed, None
    except (ServerError, OSError) as exc:
        return kind, time.perf_counter() - start, f"error {exc!r}"


class ServerProcess:
    """The server child: launched, commanded over stdin, always reaped."""

    def __init__(self, seed: int, traced: bool, tag: str):
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        self.wal = OUT_DIR / f"wal-{tag}.log"
        self._remove_wal()
        self.spans = OUT_DIR / f"spans-{NAME}-{tag}-server.jsonl"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), str(ROOT)]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "perfbench.wire_server",
             "--wal", str(self.wal), "--seed", str(seed),
             "--trace", "1" if traced else "0", "--spans", str(self.spans)],
            cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True)
        try:
            line = self.proc.stdout.readline().split()
            if not line or line[0] != "READY":
                raise RuntimeError(f"server did not start: {line}")
        except BaseException:
            self.close()
            raise
        self.address = (line[1], int(line[2]))

    def _remove_wal(self) -> None:
        for leftover in (self.wal, self.wal.with_name(self.wal.name
                                                      + ".ckpt")):
            if leftover.exists():
                leftover.unlink()

    def command(self, text: str) -> dict | None:
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()
        if text == "report":
            return json.loads(self.proc.stdout.readline())
        return None

    def close(self) -> None:
        try:
            if self.proc.poll() is None:
                self.proc.stdin.write("quit\n")
                self.proc.stdin.flush()
            self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        finally:
            for stream in (self.proc.stdin, self.proc.stdout):
                stream.close()
            self._remove_wal()


def _client_loop(address, bank, ops, clock, barrier, out, counters, errors):
    try:
        with connect(*address) as client:
            client.query(_PREPARE)
            # Warm up outside timing: every read shape once.
            client.query_rows("EXECUTE rd(0)")
            client.query_rows("SELECT bal FROM acct WHERE id = 0")
            client.query_rows("SELECT sum(bal) FROM acct")
            barrier.wait(timeout=120)
            for index, op in enumerate(ops):
                out.append((index, run_op(client, bank, op, counters)))
                barrier.wait(timeout=120)
                if clock["stop"]:
                    break
    except Exception as exc:  # reported by _measure; frees the other client
        errors.append(repr(exc))
        barrier.abort()


def _measure(seed, seconds, streams, traced, tag, setup_repeats):
    setup_samples = []
    for repeat in range(setup_repeats - 1):
        took, spare = reference_seconds(
            lambda: ServerProcess(seed, False, f"{tag}-setup{repeat}"))
        setup_samples.append(took)
        spare.close()
    took, server = reference_seconds(
        lambda: ServerProcess(seed, traced, tag))
    setup_samples.append(took)
    try:
        bank = Bank(initial_balances(seed))
        outs = [[] for _ in streams]
        counters = [defaultdict(int) for _ in streams]
        errors: list[str] = []
        clock = {"marks": [], "probes": []}

        def step():
            # Runs each time every client has finished its op: the first
            # time (all connected and warmed up) it starts the clock.
            now = time.perf_counter()
            if "start" not in clock:
                server.command("mark")
                clock["start"] = now = time.perf_counter()
            if len(clock["marks"]) % len(_ROUND) == 0:  # a round begins
                clock["probes"].append(host_probe())
                now = time.perf_counter()
            clock["marks"].append(now)  # the start of the next pair
            clock["stop"] = now >= clock["start"] + seconds

        barrier = threading.Barrier(len(streams), action=step)
        threads = [threading.Thread(
            target=_client_loop,
            args=(server.address, bank, stream, clock, barrier, out,
                  client_counters, errors))
            for stream, out, client_counters in zip(streams, outs, counters)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=seconds + 120)
            if thread.is_alive():
                raise RuntimeError("client thread did not finish")
        if errors:
            raise RuntimeError(f"client failed: {errors}")
        elapsed = time.perf_counter() - clock["start"]
        report = server.command("report")
        final = _final_check(server.address, bank)
    finally:
        server.close()
    return {"outs": outs, "elapsed": elapsed, "marks": clock["marks"],
            "probes": clock["probes"],
            "setup": setup_samples,
            "report": report,
            "retries": sum(c["retries"] for c in counters),
            "final": final, "spans_file": server.spans}


def _final_check(address, bank) -> list[str]:
    """Every balance equals its initial value plus committed transfers."""
    with connect(*address) as client:
        rows = client.query_rows("SELECT id, bal FROM acct")
    got = {int(i): int(b) for i, b in rows}
    bad = [f"acct {i}: {got.get(i)} != {v}" for i, v in
           bank.committed.items() if got.get(i) != v]
    if len(got) != len(bank.committed):
        bad.append(f"{len(got)} rows, expected {len(bank.committed)}")
    return bad


def _tally(got):
    samples = [s for out in got["outs"] for _, s in out]
    wrong = [f"client op {index} {s[0]}: {s[2]}" for out in got["outs"]
             for index, s in out if s[2] is not None]
    wrong += [f"final state: {line}" for line in got["final"]]
    attempted = len(samples) + 1  # the final state check counts once
    failed = sum(s[2] is not None for s in samples) + bool(got["final"])
    return samples, attempted, failed, wrong


def input_properties(streams, done) -> dict:
    texts = [args[0] for stream, n in zip(streams, done)
             for kind, args in stream[:n] if kind == "text"]
    distinct = len(set(texts))
    return {"text_read_repeat_share": round(1 - distinct / max(len(texts), 1),
                                            4),
            "text_read_distinct": distinct,
            "text_read_distinct_over_plan_cache": round(distinct / 256, 3)}


def run(seed: int, seconds: float, traced: bool) -> RunOutcome:
    streams = [make_ops(seed, client) for client in range(CLIENTS)]
    extra = {"op_stream_hash": stream_hash(streams[0] + streams[1]),
             "clients": CLIENTS,
             "loop": "closed, no think time, clients in lock-step",
             "flush_policy": "WAL fsync per commit, "
                             "wal_checkpoint_interval default"}
    if not traced:
        got = _measure(seed, seconds, streams, False, f"seed{seed}",
                       SETUP_REPEATS)
        samples, attempted, failed, wrong = _tally(got)
        extra.update(input_properties(streams,
                                      [len(out) for out in got["outs"]]))
        extra["ops_completed"] = len(samples)
        every = [s[1] for s in samples]
        by_kind = defaultdict(list)
        for kind, seconds_taken, _ in samples:
            by_kind[kind].append(seconds_taken)
        writes = by_kind["xfer"]
        metrics = op_metrics(every, got["elapsed"])
        # Pair i of the lock-step loop starts at marks[i].
        pairs = [[sample[1] for _, sample in pair]
                 for pair in zip(*got["outs"])]
        reference, probe = reference_metrics(got["marks"], pairs,
                                             got["probes"], len(_ROUND))
        extra["host_probe_ms"] = round(probe * 1e3, 4)
        metrics.update(reference)
        metrics.update({
            "setup_s": Metric(median(got["setup"]), "s", len(got["setup"])),
            "error_rate": Metric(failed / attempted, "share", attempted),
            "peak_rss_mb": Metric(got["report"]["peak_rss_mb"], "MB"),
            "prepared_read_p50_ms": Metric(median(by_kind["prep"]) * 1e3,
                                           "ms", len(by_kind["prep"])),
            "text_read_p50_ms": Metric(median(by_kind["text"]) * 1e3, "ms",
                                       len(by_kind["text"])),
            "write_p50_ms": Metric(median(writes) * 1e3, "ms", len(writes)),
            "write_p99_ms": Metric(percentile(writes, 0.99) * 1e3, "ms",
                                   len(writes)),
        })
        return RunOutcome(attempted, failed, wrong, metrics, extra)

    plain = _measure(seed, seconds / 2, streams, False, f"seed{seed}-plain",
                     1)
    got = _measure(seed, seconds / 2, streams, True, f"seed{seed}", 1)
    extra["spans_file"] = str(got["spans_file"].relative_to(ROOT))
    phases = []
    for measured in (plain, got):
        samples, attempted, failed, wrong = _tally(measured)
        phases.append(Checked(len(samples), measured["elapsed"], attempted,
                              failed, wrong))
    report = got["report"]
    retries = got["retries"] / max(phases[1].ops, 1)
    return traced_outcome(*phases, report["prof"], report["trace"],
                          {"txn.conflict_retries_per_op": retries}, extra)
