"""Ablation benches for the design choices DESIGN.md calls out.

Four ablations, each toggling one mechanism on an otherwise identical
query, quantifying what the design element buys:

* **zonemaps** (paper §6 "skip irrelevant blocks of rows") -- range query on
  a clustered column with and without zone skipping;
* **filter pushdown + column pruning** -- the same query executed from the
  raw bound plan vs the optimized plan;
* **scan chunk size** -- the per-chunk interpretation overhead argument
  behind vectorized execution, swept across chunk sizes;
* **statistics-driven join order** -- a star join written worst-side-first,
  planned with column statistics vs the syntactic (heuristic) order.
"""

import time

import numpy as np
import pytest

from conftest import record_experiment

import repro
from repro.execution.physical import ExecutionContext
from repro.execution.physical_planner import create_physical_plan
from repro.optimizer import cost, optimize
from repro.planner.binder import Binder
from repro.sql import parse_one

ROWS = 1_000_000


def build():
    con = repro.connect()
    con.execute("CREATE TABLE facts (t INTEGER, a INTEGER, b INTEGER, "
                "c INTEGER, v DOUBLE)")
    rng = np.random.default_rng(21)
    with con.appender("facts") as appender:
        appender.append_numpy({
            "t": np.arange(ROWS, dtype=np.int32),   # clustered
            "a": rng.integers(0, 100, ROWS).astype(np.int32),
            "b": rng.integers(0, 100, ROWS).astype(np.int32),
            "c": rng.integers(0, 100, ROWS).astype(np.int32),
            "v": rng.normal(0, 1, ROWS),
        })
    return con


def execute_plan(con, sql, optimized=True):
    transaction = con.database.transaction_manager.begin()
    try:
        binder = Binder(con.database.catalog, transaction)
        bound = binder.bind_statement(parse_one(sql))
        plan = optimize(bound.plan) if optimized else bound.plan
        context = ExecutionContext(transaction, con.database)
        physical = create_physical_plan(plan, context)
        started = time.perf_counter()
        rows = [row for chunk in physical.execute()
                for row in chunk.to_rows()]
        elapsed = time.perf_counter() - started
        return rows, elapsed, context.stats
    finally:
        con.database.transaction_manager.rollback(transaction)


RANGE_SQL = "SELECT count(*), sum(v) FROM facts WHERE t >= 900000 AND t < 910000"


def test_zonemap_ablation(benchmark):
    con = build()

    def measure():
        execute_plan(con, RANGE_SQL)  # warm zone cache
        with_rows, with_s, with_stats = execute_plan(con, RANGE_SQL)
        # Ablate: monkeypatch zone_bounds to pretend zonemaps don't exist.
        from repro.storage.table_data import ColumnData

        original = ColumnData.zone_bounds
        ColumnData.zone_bounds = lambda self, start, end: None
        try:
            without_rows, without_s, without_stats = execute_plan(con,
                                                                  RANGE_SQL)
        finally:
            ColumnData.zone_bounds = original
        assert with_rows == without_rows
        return with_s, with_stats, without_s, without_stats

    with_s, with_stats, without_s, without_stats = benchmark.pedantic(
        measure, rounds=1, iterations=1)
    record_experiment("A1", "Ablation: zonemap scan skipping (paper §6)", [
        f"range query selecting 10k of {ROWS:,} clustered rows",
        f"with zonemaps   : {with_s * 1000:7.2f} ms, "
        f"{with_stats['rows_scanned']:,} rows fetched, "
        f"{with_stats.get('zones_skipped', 0)} zones skipped",
        f"without zonemaps: {without_s * 1000:7.2f} ms, "
        f"{without_stats['rows_scanned']:,} rows fetched",
        f"speedup         : {without_s / with_s:7.1f}x",
    ])
    assert with_stats["rows_scanned"] < without_stats["rows_scanned"] / 10
    assert with_s < without_s
    con.close()


def test_optimizer_ablation(benchmark):
    con = build()
    sql = ("SELECT sum(v) FROM (SELECT t, v, a FROM facts) sub "
           "WHERE a < 10 AND t < 500000")

    def measure():
        execute_plan(con, sql)  # warm
        opt_rows, opt_s, opt_stats = execute_plan(con, sql, optimized=True)
        raw_rows, raw_s, raw_stats = execute_plan(con, sql, optimized=False)
        assert opt_rows == raw_rows
        return opt_s, raw_s, opt_stats, raw_stats

    opt_s, raw_s, opt_stats, raw_stats = benchmark.pedantic(measure, rounds=1,
                                                            iterations=1)
    record_experiment("A2", "Ablation: filter pushdown + column pruning", [
        f"query: filtered aggregation through a subquery, {ROWS:,} rows",
        f"optimized plan  : {opt_s * 1000:7.2f} ms "
        f"({opt_stats['rows_scanned']:,} rows through the scan)",
        f"unoptimized plan: {raw_s * 1000:7.2f} ms "
        f"({raw_stats['rows_scanned']:,} rows through the scan)",
        f"speedup         : {raw_s / opt_s:7.1f}x",
    ])
    assert opt_s < raw_s
    con.close()


def test_statistics_join_order_ablation(benchmark):
    """Stats-driven join reordering vs the heuristic (syntactic) order.

    The query joins ``dim_a JOIN facts`` first, so the syntactic plan
    builds a 1M-row hash table (the build side is the right join input)
    and probes it with a 100-row dimension.  With statistics the
    optimizer starts from the smallest dimension and keeps the fact
    table on the probe side throughout.
    """
    con = build()
    con.execute("CREATE TABLE dim_a (a_id INTEGER, a_name VARCHAR)")
    con.execute("CREATE TABLE dim_b (b_id INTEGER, b_name VARCHAR)")
    with con.appender("dim_a") as appender:
        appender.append_numpy({
            "a_id": np.arange(100, dtype=np.int32),
            "a_name": np.array([f"a-{i}" for i in range(100)], dtype=object),
        })
    with con.appender("dim_b") as appender:
        appender.append_numpy({
            "b_id": np.arange(100, dtype=np.int32),
            "b_name": np.array([f"b-{i}" for i in range(100)], dtype=object),
        })
    sql = ("SELECT count(*), sum(f.v) FROM dim_a "
           "JOIN facts f ON f.a = dim_a.a_id "
           "JOIN dim_b ON f.b = dim_b.b_id "
           "WHERE dim_a.a_id < 10 AND dim_b.b_id < 10")

    def measure():
        execute_plan(con, sql)  # warm
        stats_rows, stats_s, stats_ctx = execute_plan(con, sql)
        previous = cost.set_statistics_enabled(False)
        try:
            heur_rows, heur_s, heur_ctx = execute_plan(con, sql)
        finally:
            cost.set_statistics_enabled(previous)
        # Join order changes float summation order; compare with tolerance.
        assert stats_rows[0][0] == heur_rows[0][0]
        assert stats_rows[0][1] == pytest.approx(heur_rows[0][1])
        return stats_s, stats_ctx, heur_s, heur_ctx

    stats_s, stats_ctx, heur_s, heur_ctx = benchmark.pedantic(
        measure, rounds=1, iterations=1)
    record_experiment("A4", "Ablation: statistics-driven join ordering", [
        f"3-table star join, fact table ({ROWS:,} rows) written as a "
        f"build side",
        f"stats-driven order: {stats_s * 1000:7.2f} ms, "
        f"{stats_ctx.get('join_build_rows', 0):,} hash-build rows",
        f"heuristic order   : {heur_s * 1000:7.2f} ms, "
        f"{heur_ctx.get('join_build_rows', 0):,} hash-build rows",
        f"speedup           : {heur_s / stats_s:7.1f}x",
    ])
    # The stats-driven plan must never build on the fact table, so its
    # hash-build input is orders of magnitude smaller -- and faster.
    assert stats_ctx.get("join_build_rows", 0) < \
        heur_ctx.get("join_build_rows", 0) / 100
    assert stats_s < heur_s
    con.close()


def test_chunk_size_sweep(benchmark):
    con = build()
    transaction = con.database.transaction_manager.begin()
    table = con.database.catalog.get_table("facts", transaction)
    con.database.transaction_manager.rollback(transaction)

    def measure():
        results = []
        for chunk_rows in (512, 2048, 16384, 131072):
            transaction = con.database.transaction_manager.begin()
            started = time.perf_counter()
            total = 0
            for chunk in table.data.scan(transaction, [4],
                                         chunk_size=chunk_rows):
                total += float(chunk.columns[0].data.sum())
            elapsed = time.perf_counter() - started
            con.database.transaction_manager.rollback(transaction)
            results.append((chunk_rows, elapsed))
        return results

    results = benchmark.pedantic(measure, rounds=1, iterations=1)
    base = results[0][1]
    lines = [f"summing one DOUBLE column of {ROWS:,} rows",
             f"{'chunk rows':>11} {'time':>9} {'vs 512':>8}"]
    for chunk_rows, elapsed in results:
        lines.append(f"{chunk_rows:>11,} {elapsed * 1000:7.1f}ms "
                     f"{base / elapsed:7.1f}x")
    record_experiment("A3", "Ablation: scan chunk size (vectorization "
                            "amortization, paper §2)", lines)
    # Bigger chunks amortize per-chunk interpretation overhead.
    assert results[-1][1] < results[0][1]
    con.close()
