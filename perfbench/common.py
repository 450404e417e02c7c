"""Shared pieces of the benchmark: statistics, run metadata, reporting.

Every workload module returns a :class:`RunOutcome`; :func:`finish`
prints the human-readable report, the full run record (metadata, every
metric with its unit and sample count, input properties, op-stream hash)
and, as the last line, the result object the harness reads.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

#: Root of the checkout (the directory holding ``perfbench/`` and ``src/``).
ROOT = Path(__file__).resolve().parent.parent
#: Where spans, WAL files and the run ledger go (ignored by git).
OUT_DIR = ROOT / "perfbench" / "out"
#: One host probe: a fixed pure-Python loop that touches nothing of the
#: program, so its time tells only how fast the host runs Python then.
PROBE_LOOPS = 20_000
#: The reference host runs one probe in this time; ``ref_*`` metrics
#: are what the program would take there (see :func:`reference_metrics`).
PROBE_REF_S = 1.0e-3


def percentile(values, fraction: float) -> float:
    """Linear-interpolated percentile of *values* (``fraction`` in 0..1)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values) -> float:
    return percentile(values, 0.5)


def stream_hash(items) -> str:
    """A stable digest of a generated op stream (its ``repr`` per op)."""
    digest = hashlib.sha256()
    for item in items:
        digest.update(repr(item).encode())
        digest.update(b"\n")
    return digest.hexdigest()[:16]


def duplicate_share(values) -> float:
    """Share of *values* that repeat an earlier value: 1 - distinct/total."""
    values = list(values)
    if not values:
        return 0.0
    return 1.0 - len(set(values)) / len(values)


def peak_rss_mb_self() -> float:
    """Peak resident set size of this process, in MB (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _commit() -> str:
    try:
        # The ceiling keeps git from reporting an enclosing repository
        # when the checkout itself is not one.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _source_digest() -> str:
    """Digest of ``src/**/*.py``: identifies the code where git cannot."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def run_metadata(workload: str, seed: int, traced: bool,
                 seconds: float) -> dict:
    """The ledger fields every output carries."""
    return {
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "seconds": seconds,
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def settle_heap() -> None:
    """Collect garbage, then exempt what set-up built from later cyclic
    collections (``gc.freeze``), as long-running servers do: otherwise a
    full collection rescans the loaded tables at random points in the
    timed phase.  Objects the ops allocate are still collected."""
    gc.collect()
    gc.freeze()


def host_probe(repeats: int = 3) -> float:
    """The fastest of *repeats* probe loops, in seconds."""
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        total = 0
        for i in range(PROBE_LOOPS):
            total += i * i % 7
        best = min(best, time.perf_counter() - start)
    return best


def reference_seconds(action):
    """Run ``action()``; returns its wall time scaled to the reference
    host speed by probes just before and after it, and its result."""
    before = host_probe()
    start = time.perf_counter()
    result = action()
    took = time.perf_counter() - start
    return took * PROBE_REF_S * 2 / (before + host_probe()), result


def pin_to_one_cpu():
    """Keep this process, and the processes it starts, on one CPU, so
    the host probes time the CPU the work runs on and a two-process
    workload does not hand off between CPUs that the host slows by
    different amounts.  Returns the CPU, or None where the platform
    cannot pin."""
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def timed_loop(ops, run_op, seconds: float, tracer=None, marks=None,
               probes=None, round_size: int = 0):
    """Closed loop, no think time: run ``run_op(op)`` over *ops* in order
    until *seconds* pass (or the stream ends); returns
    ``([(index, samples)], elapsed_seconds)``.  A *marks* list receives
    the clock at the start of every op and, last, at the end.  A
    *probes* list receives a :func:`host_probe` before every round of
    *round_size* ops, outside the marks but inside the elapsed time
    (about 1% of it)."""
    records = []
    if marks is None:
        marks = []
    start = now = time.perf_counter()
    deadline = start + seconds
    for index, op in enumerate(ops):
        if now >= deadline:
            break
        if tracer is not None:
            tracer.set_request(index)
        if probes is not None and index % round_size == 0:
            probes.append(host_probe())
            now = time.perf_counter()
        marks.append(now)
        records.append((index, run_op(op)))
        now = time.perf_counter()
    marks.append(now)
    return records, now - start


@dataclass
class Metric:
    value: float
    unit: str
    samples: int | None = None


def op_metrics(latencies: list, elapsed: float) -> dict:
    """Throughput and per-op latency metrics over all completed ops.

    The geometric mean has no cliff where the median sits between two op
    classes (a wire read that waited for the execution lock and one that
    did not), so it is the steady summary of a mixed workload.
    """
    n = len(latencies)
    return {
        "throughput_ops_s": Metric(n / elapsed, "ops/s", n),
        "latency_geomean_ms": Metric(
            math.exp(sum(math.log(s) for s in latencies) / n) * 1e3, "ms", n),
        "latency_p50_ms": Metric(median(latencies) * 1e3, "ms", n),
        "latency_p95_ms": Metric(percentile(latencies, 0.95) * 1e3, "ms", n),
        "latency_p99_ms": Metric(percentile(latencies, 0.99) * 1e3, "ms", n),
    }


def reference_metrics(marks: list, latencies: list, probes: list,
                      size: int) -> tuple[dict, float]:
    """Throughput and latency at the reference host speed.

    On a shared host a neighbour's load slows every op by up to 1.7x,
    for seconds or minutes at a time, so wall times of the same program
    spread by a fifth between runs.  Each workload's op stream is a
    sequence of rounds of *size* ops with the same mix and stratified
    sizes, and a :func:`host_probe` runs before every round.  A round's
    times are scaled by ``PROBE_REF_S`` over the median of the five
    probes nearest it, which gives what the round would take on the
    reference host; a change that slows the program slows them alike,
    since the probe runs none of it.

    ``marks[i]`` is the clock at the start of op *i* and
    ``marks[len(latencies)]`` the end of the last; ``latencies[i]``
    holds the latencies (seconds) op *i* produced; ``probes[r]`` ran
    before round *r*.  Throughput is the median over complete rounds;
    latency is the geometric mean over their ops.  Returns the metrics
    and the median probe time (seconds).
    """
    rounds = []
    for number, at in enumerate(range(0, len(latencies) - size + 1, size)):
        scale = PROBE_REF_S / median(probes[max(0, number - 2):number + 3])
        rounds.append(((marks[at + size] - marks[at]) * scale,
                       [s * scale for op in latencies[at:at + size]
                        for s in op]))
    if not rounds:  # a run shorter than one round: all of it
        scale = PROBE_REF_S / median(probes)
        rounds = [((marks[len(latencies)] - marks[0]) * scale,
                   [s * scale for op in latencies for s in op])]
    samples = [s for _, op_samples in rounds for s in op_samples]
    n = len(samples)
    return {
        "ref_throughput_ops_s": Metric(
            median([len(ops) / wall for wall, ops in rounds]), "ops/s", n),
        "ref_latency_geomean_ms": Metric(
            math.exp(sum(math.log(s) for s in samples) / n) * 1e3, "ms", n),
    }, median(probes)


@dataclass
class RunOutcome:
    """What one workload run hands back to the reporter."""

    attempted: int
    failed: int
    wrong: list = field(default_factory=list)  # descriptions of bad ops
    metrics: dict = field(default_factory=dict)  # name -> Metric
    extra: dict = field(default_factory=dict)  # input properties, hashes


def finish(meta: dict, outcome: RunOutcome, reported: list[str]) -> None:
    """Print the report, append the run record to the ledger, and print
    the result line (``reported`` names the metrics it carries)."""
    print(f"# perfbench {meta['workload']} seed={meta['seed']} "
          f"traced={meta['traced']} commit={meta['commit'][:12]} "
          f"python={meta['python']} nproc={meta['nproc']}")
    for key, value in sorted(outcome.extra.items()):
        print(f"#   {key} = {value}")
    for name, metric in sorted(outcome.metrics.items()):
        count = "" if metric.samples is None else f"  (n={metric.samples})"
        print(f"  {name:<42} {metric.value:>14.6g} {metric.unit}{count}")
    print(f"  attempted={outcome.attempted} failed={outcome.failed} "
          f"error_rate={outcome.failed / max(outcome.attempted, 1):.6f}")
    for line in outcome.wrong[:20]:
        print(f"  WRONG: {line}")
    record = {
        "meta": meta,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "wrong": outcome.wrong[:100],
        "extra": outcome.extra,
        "metrics": {name: {"value": m.value, "unit": m.unit,
                           "samples": m.samples}
                    for name, m in sorted(outcome.metrics.items())},
    }
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with open(OUT_DIR / "ledger.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    print("RUN-RECORD " + json.dumps(record, sort_keys=True))
    missing = [name for name in reported if name not in outcome.metrics]
    if missing:
        raise RuntimeError(f"workload did not measure {missing}")
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": outcome.metrics[name].value,
                           "unit": outcome.metrics[name].unit}
                    for name in reported},
    }
    sys.stdout.flush()
    print(json.dumps(result))
