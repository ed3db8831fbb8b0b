"""The ledger's metric names, units, directions and regression bounds.

``END_TO_END`` is what a user of the engine feels; ``PER_LAYER`` is what the
traced run attributes to single layers (no bounds: they explain a change,
they do not gate it).  ``BENCHMARK.json`` at the repository root repeats the
gating subset for the driver; ``test_ledger.py`` checks the two agree.
"""

from __future__ import annotations

import math
from typing import Dict, List, NamedTuple, Optional, Sequence

__all__ = ["Metric", "END_TO_END", "GATED_BY_DRIVER", "PER_LAYER", "LAYERS", "WORKLOADS",
           "percentile", "tail_percentile", "summarise_latencies"]


class Metric(NamedTuple):
    name: str
    unit: str
    better: str           # "higher" | "lower"
    bound: Optional[float]  # share of the base's median it may worsen by
    meaning: str


#: Bounds were calibrated, not guessed: twenty runs per workload on the seed
#: (README, "How the bounds were calibrated") put the run-to-run spread of
#: the timing metrics at 2-8 % and the drift between two sets at up to 6 %
#: on the shared 2-core sandbox; a bound is three times the widest spread.
END_TO_END: Sequence[Metric] = (
    Metric("throughput_ops_s", "ops/s", "higher", 0.25,
           "correct ops completed / time the clients spent in ops"),
    Metric("op_ms_p50", "ms", "lower", 0.25, "median op latency"),
    Metric("op_ms_tail", "ms", "lower", 0.25,
           "op latency at the workload's tail percentile (p90, or p99 on "
           "serve_mixed): the highest with >= 10 samples beyond it"),
    Metric("setup_s", "s", "lower", 0.25,
           "generate inputs + open database + load tables, median of the "
           "run's set-ups"),
    Metric("peak_rss_mb", "MB", "lower", 0.15,
           "ru_maxrss of the workload's process"),
    Metric("stored_bytes_per_user_byte", "ratio", "lower", 0.0,
           "etl_durable only: database file size after the final checkpoint "
           "/ raw bytes of live user data; an exact count"),
    Metric("failed_frac", "ratio", "lower", 0.0,
           "(errors + refused + wrong results + retries exhausted) / ops "
           "attempted; may not rise"),
)

#: The subset BENCHMARK.json hands to the driver, which wants every metric on
#: every workload and never 0: stored_bytes_per_user_byte exists on one
#: workload only and failed_frac is 0 at the seed (the driver reads failures
#: from the result's ``attempted`` / ``failed`` instead).
GATED_BY_DRIVER: Sequence[str] = ("throughput_ops_s", "op_ms_p50",
                                  "op_ms_tail", "setup_s", "peak_rss_mb")

#: Layers are the modules under src/repro/ that the traced run separates;
#: ``harness`` is the benchmark's own time inside an op.
LAYERS: Sequence[str] = ("sql", "planner", "optimizer", "server", "client",
                         "execution", "transaction", "storage", "etl",
                         "harness")


def _layer(name: str, unit: str, better: str, meaning: str) -> Metric:
    return Metric(name, unit, better, None, meaning)


PER_LAYER: Sequence[Metric] = tuple(
    _layer(f"share.{layer}_pct", "%", "lower",
           f"self time of {layer} spans / time of all ops")
    for layer in LAYERS
) + (
    _layer("sql.parse_ms", "ms", "lower", "mean repro.sql.parse call"),
    _layer("planner.bind_ms", "ms", "lower",
           "mean Binder.bind_statement call"),
    _layer("optimizer.optimize_ms", "ms", "lower",
           "mean Executor.prepare_select call"),
    _layer("server.session_open_ms", "ms", "lower",
           "mean server.session() + session.close()"),
    _layer("server.plan_cache_hit_rate", "ratio", "higher",
           "plan cache hits / lookups"),
    _layer("server.result_cache_hit_rate", "ratio", "higher",
           "result cache hits / lookups"),
    _layer("server.plan_cache_evictions", "count", "lower",
           "plan cache evictions in the slice"),
    _layer("server.plan_cache_invalidations", "count", "lower",
           "plan cache invalidations in the slice"),
    _layer("server.result_cache_evictions", "count", "lower",
           "result cache evictions in the slice"),
    _layer("server.admission_waits", "count", "lower",
           "statements that waited for admission"),
    _layer("server.wait_share", "ratio", "lower",
           "1 - (op p50 with 1 client / op p50 with all clients)"),
    _layer("execution.lower_ms", "ms", "lower",
           "mean create_physical_plan call"),
    _layer("execution.run_ms", "ms", "lower",
           "time draining physical.run() per plan run"),
    _layer("execution.rows_scanned_per_result_row", "ratio", "lower",
           "rows scanned / rows returned, from repro_statement_log()"),
    _layer("execution.vectors_per_stmt", "count", "lower",
           "vectors handed over per SELECT, from repro_statement_log()"),
    _layer("client.glue_ms", "ms", "lower",
           "self time of Connection.execute per call: its wall time minus "
           "every layer it calls"),
    _layer("client.export_numpy_rows_s", "rows/s", "higher",
           "rows handed over by fetch_numpy / fetch_chunk per second"),
    _layer("client.export_rows_rows_s", "rows/s", "higher",
           "rows handed over by fetchall / cursor.fetchmany per second"),
    _layer("client.import_numpy_rows_s", "rows/s", "higher",
           "rows taken in by Appender.append_numpy (+ commit) per second"),
    _layer("client.import_rows_rows_s", "rows/s", "higher",
           "rows taken in by executemany per second"),
    _layer("client.bytes_per_op", "bytes", "lower",
           "raw bytes handed over per op, both directions"),
    _layer("transaction.commit_ms", "ms", "lower",
           "mean TransactionManager.commit call"),
    _layer("transaction.conflicts_retried", "count", "lower",
           "TransactionConflict raised and retried"),
    _layer("transaction.conflict_rate", "ratio", "lower",
           "conflicts retried / write attempts"),
    _layer("storage.checkpoint_ms", "ms", "lower",
           "mean Database.checkpoint call"),
    _layer("storage.wal_bytes_per_user_byte", "ratio", "lower",
           "bytes appended to the WAL / raw bytes of user data written"),
    _layer("storage.file_bytes_written_per_user_byte", "ratio", "lower",
           "bytes written by checkpoints / raw bytes of user data written"),
    _layer("storage.stored_bytes_per_user_byte", "ratio", "lower",
           "database file size after a checkpoint / raw bytes live"),
    _layer("storage.recover_ms", "ms", "lower",
           "opening a copy of file + WAL taken without closing"),
    _layer("storage.buffer_hits", "count", "higher",
           "buffer manager block-cache hits in the slice"),
    _layer("storage.buffer_misses", "count", "lower",
           "buffer manager block-cache misses in the slice"),
    _layer("etl.csv_rows_per_s", "rows/s", "higher",
           "rows loaded by COPY ... FROM per second"),
    _layer("trace.overhead_pct", "%", "lower",
           "traced vs untraced op_ms_p50 on the identical slice"),
)

#: name -> why it exists (one line; BENCHMARK.json carries the same text).
WORKLOADS: Dict[str, str] = {
    "olap_scan": "Dashboard refreshes over TPC-H-shaped tables: execution and "
                 "functions do the work per row scanned, front-end layers are "
                 "amortised away.",
    "serve_mixed": "Short served sessions, 80 % reads / 20 % writes, 2 "
                   "clients: per-statement fixed cost in sql, planner, "
                   "optimizer, server and client glue dominates.",
    "transfer_bulk": "Result export and import in bulk and value-at-a-time "
                     "forms: the client hand-over does the work, execution "
                     "almost none.",
    "etl_durable": "File-backed ETL batches with fsync per commit and "
                   "periodic checkpoints: storage, transaction and etl do "
                   "the work; write, read and space cost trade off.",
}


def percentile(ordered: Sequence[float], p: float) -> float:
    """Linear-interpolated percentile of an ascending sample."""
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = (len(ordered) - 1) * p / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(samples: int, preferred: float) -> float:
    """The workload's tail percentile, lowered until >= 10 samples lie
    beyond it (only short smoke runs ever lower it)."""
    for p in (99.0, 95.0, 90.0, 75.0):  # whole numbers: exact arithmetic
        if p <= preferred and samples * (100 - int(p)) >= 1000:
            return p
    return 50.0


def summarise_latencies(latencies_ms: List[float], preferred_tail: float
                        ) -> Dict[str, float]:
    ordered = sorted(latencies_ms)
    tail = tail_percentile(len(ordered), preferred_tail)
    return {"op_ms_p50": percentile(ordered, 50.0),
            "op_ms_tail": percentile(ordered, tail),
            "tail_percentile": tail,
            "samples": float(len(ordered))}
