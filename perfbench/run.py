"""The repository's benchmark: one command, three seeded workloads.

Run from the repository root::

    python3 perfbench/run.py --workload plsql_calls --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with the library as users
get it (``Database()`` defaults: profiler on, plan cache on), at the
reference host speed (see ``reference_metrics`` in ``common.py``).
The process, and the server it starts, is pinned to one CPU.
``--trace 1`` runs the same seed twice, untraced for the first half of
``--seconds`` and traced for the second, and reports the per-layer
metrics plus the tracing overhead.  The metric names come from
``BENCHMARK.json``; ``perfbench/manifest.json`` holds the rest of the
benchmark's description.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("plsql_calls", "wire_oltp", "analytic_scan")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} "
              "is missing", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    reported = [metric["name"] for metric in
                spec["per_layer" if args.trace else "end_to_end"]]

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import importlib

    from perfbench.common import finish, pin_to_one_cpu, run_metadata

    module = importlib.import_module(f"perfbench.{args.workload}")
    meta = run_metadata(args.workload, args.seed, bool(args.trace),
                        args.seconds)
    meta["pinned_cpu"] = pin_to_one_cpu()
    outcome = module.run(args.seed, args.seconds, bool(args.trace))
    finish(meta, outcome, reported)
    return 0


if __name__ == "__main__":
    sys.exit(main())
