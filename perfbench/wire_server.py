"""Server process of the ``wire_oltp`` workload.

Started by :mod:`perfbench.wire_oltp` as
``python3 -m perfbench.wire_server --wal PATH --seed S --trace 0|1 --spans PATH``
(with ``src`` and the repository root on ``PYTHONPATH``).  It builds a
durable database (WAL with fsync on every commit, default checkpoint
interval) holding ``acct(id, bal)`` with an index on ``id``, serves it
through :class:`repro.server.server.SqlServer` on an ephemeral port, and
prints ``READY <host> <port>``.  With ``--trace 1`` the span wrappers
are installed in this process, where the server layers run.

Commands arrive one per line on standard input:

``mark``    start a measurement: remember the profiler state, drop spans;
``report``  print one JSON line: profiler delta, span summary, peak RSS;
``quit``    write the spans (if traced), stop serving and exit.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from repro.server.server import ServerThread
from repro.sql import Database

from .common import peak_rss_mb_self, settle_heap
from .layers import profiler_delta, profiler_state
from .tracer import Tracer, install_engine, install_server

#: Balances are ``UNIT * k + id`` and transfers move multiples of UNIT,
#: so every balance keeps its id as the remainder modulo UNIT.
UNIT = 1 << 20
ROWS = 10_000
LOAD_CHUNK = 2000


def initial_balances(seed: int) -> dict[int, int]:
    rng = random.Random(f"{seed}:acct")
    return {i: UNIT * rng.randint(100, 1000) + i for i in range(ROWS)}


def build(path: str, seed: int) -> Database:
    db = Database(path=path)
    db.execute("CREATE TABLE acct(id int, bal int)")
    cursor = db.connect().cursor()
    items = sorted(initial_balances(seed).items())
    for start in range(0, len(items), LOAD_CHUNK):
        cursor.executemany("INSERT INTO acct VALUES ($1, $2)",
                           items[start:start + LOAD_CHUNK])
    db.execute("CREATE INDEX acct_id ON acct(id)")
    return db


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--wal", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", required=True,
                        help="where a traced server writes its spans")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        tracer = Tracer()
        install_engine(tracer)
        install_server(tracer)
    db = build(args.wal, args.seed)
    settle_heap()
    host = ServerThread(db)
    host.start()
    address = host.address
    print(f"READY {address[0]} {address[1]}", flush=True)
    marked = profiler_state(db.profiler)
    try:
        for line in sys.stdin:
            command = line.strip()
            if command == "mark":
                marked = profiler_state(db.profiler)
                if tracer is not None:
                    tracer.reset()
            elif command == "report":
                report = {
                    "prof": profiler_delta(marked, profiler_state(db.profiler)),
                    "trace": tracer.summary() if tracer is not None else None,
                    "peak_rss_mb": peak_rss_mb_self(),
                }
                print(json.dumps(report), flush=True)
            elif command == "quit":
                break
    finally:
        host.stop()
        if db.wal is not None:
            db.wal.close()
        if tracer is not None:
            tracer.write(args.spans)
            tracer.uninstall()
    return 0


if __name__ == "__main__":
    sys.exit(main())
