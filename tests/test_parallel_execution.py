"""Morsel-driven parallel execution: serial/parallel equivalence and plumbing.

The contract under test: at equal ``morsel_size`` a query returns the same
bits whether it runs on one thread or many (``PRAGMA threads``), because
one worker runs the very morsels many workers do, morsel boundaries align
with scan chunks, and the coordinator consumes worker results in morsel
order.  So the cooperation controller may cut the worker count at run time
without changing an answer.
"""

import os
import re

import numpy as np
import pytest

import repro
from repro.config import DatabaseConfig
from repro.cooperation.controller import ReactiveController, StaticController
from repro.cooperation.monitor import ResourceMonitor, SimulatedApplication
from repro.errors import InterruptError, InvalidInputError
from repro.execution import scan as scan_module
from repro.execution.physical import ExecutionContext
from repro.execution.physical_planner import create_physical_plan
from repro.optimizer import optimize
from repro.planner.binder import Binder
from repro.sql import parse_one
from repro.storage.table_data import SCAN_CHUNK_ROWS, aligned_morsel_rows

ROWS = 50000
#: Small morsels so a modest table still splits across several workers.
MORSEL = SCAN_CHUNK_ROWS


def _populate(con):
    con.execute("CREATE TABLE t (g INTEGER, v INTEGER, s VARCHAR, d DOUBLE)")
    index = np.arange(ROWS)
    with con.appender("t") as appender:
        appender.append_numpy({
            "g": (index % 13).astype(np.int32),
            "v": index.astype(np.int32),
            "s": np.array([f"key{i % 5}" for i in range(ROWS)], dtype=object),
            "d": (index % 97) / 7.0,
        })
    # A few NULLs so merge paths see invalid values.
    con.execute("UPDATE t SET g = NULL, s = NULL WHERE v = 17")
    con.execute("UPDATE t SET d = NULL WHERE v = 40011")


@pytest.fixture(scope="module")
def serial_con():
    con = repro.connect(config={"threads": 1})
    _populate(con)
    yield con
    con.close()


@pytest.fixture(scope="module")
def one_worker_con():
    con = repro.connect(config={"threads": 1, "morsel_size": MORSEL})
    _populate(con)
    yield con
    con.close()


@pytest.fixture(scope="module")
def parallel_con():
    con = repro.connect(config={"threads": 4, "morsel_size": MORSEL})
    _populate(con)
    yield con
    con.close()


EQUIVALENCE_QUERIES = [
    "SELECT g, count(*), sum(v), min(v), max(v) FROM t GROUP BY g "
    "ORDER BY g NULLS FIRST",
    "SELECT g, avg(v), stddev(d) FROM t GROUP BY g ORDER BY g NULLS FIRST",
    "SELECT s, count(v), sum(d) FROM t GROUP BY s ORDER BY s NULLS FIRST",
    "SELECT count(*), sum(v), min(d), max(d) FROM t",
    "SELECT count(d), avg(d) FROM t WHERE v % 3 = 0",
    "SELECT g, count(*) FROM t WHERE v > 25000 GROUP BY g ORDER BY g",
    "SELECT g, s, sum(v) FROM t GROUP BY g, s "
    "ORDER BY g NULLS FIRST, s NULLS FIRST",
    "SELECT sum(v + 1), max(v * 2) FROM t WHERE s LIKE 'key%'",
    "SELECT count(*) FROM t WHERE v BETWEEN 1000 AND 2000",
    "SELECT v FROM t WHERE v < 100 ORDER BY v",
    "SELECT first(v) FROM t",
    "SELECT g, first(s) FROM t GROUP BY g ORDER BY g NULLS FIRST",
]


def assert_equivalent(serial, parallel):
    """Exact equality, except a tight tolerance for floats: ``serial`` and
    ``parallel`` fold morsels of different sizes, which changes the
    floating-point summation order (last-ulp effects)."""
    assert len(serial) == len(parallel)
    for serial_row, parallel_row in zip(serial, parallel):
        assert len(serial_row) == len(parallel_row)
        for expected, actual in zip(serial_row, parallel_row):
            if isinstance(expected, float) and isinstance(actual, float):
                assert actual == pytest.approx(expected, rel=1e-12, abs=1e-12)
            else:
                assert actual == expected


class TestEquivalence:
    @pytest.mark.parametrize("query", EQUIVALENCE_QUERIES)
    def test_same_results(self, serial_con, parallel_con, query):
        serial = serial_con.execute(query).fetchall()
        parallel = parallel_con.execute(query).fetchall()
        assert_equivalent(serial, parallel)

    @pytest.mark.parametrize("query", EQUIVALENCE_QUERIES)
    def test_same_bits_at_equal_morsel_size(self, one_worker_con,
                                            parallel_con, query):
        assert one_worker_con.execute(query).fetchall() == \
            parallel_con.execute(query).fetchall()

    def test_scan_order_is_deterministic(self, serial_con, parallel_con):
        # Without ORDER BY, morsel results are yielded in morsel order, so
        # even the row order matches serial execution.
        query = "SELECT v FROM t WHERE v % 7 = 0"
        assert serial_con.execute(query).fetchall() == \
            parallel_con.execute(query).fetchall()

    def test_distinct_aggregate_stays_correct(self, serial_con, parallel_con):
        # DISTINCT aggregates are not partial-safe; the planner must fall
        # back to serial aggregation and still be right.
        query = ("SELECT g, count(DISTINCT s) FROM t GROUP BY g "
                 "ORDER BY g NULLS FIRST")
        assert serial_con.execute(query).fetchall() == \
            parallel_con.execute(query).fetchall()

    def test_pragma_threads_switches_at_runtime(self, serial_con):
        query = "SELECT g, sum(v) FROM t GROUP BY g ORDER BY g NULLS FIRST"
        baseline = serial_con.execute(query).fetchall()
        serial_con.execute("PRAGMA threads = 4")
        serial_con.execute(f"PRAGMA morsel_size = {MORSEL}")
        try:
            assert serial_con.execute(query).fetchall() == baseline
        finally:
            serial_con.execute("PRAGMA threads = 1")
            serial_con.execute("PRAGMA morsel_size = 65536")


class TestExplainAndStats:
    def test_explain_shows_parallel_operators(self, parallel_con):
        plan = "\n".join(r[0] for r in parallel_con.execute(
            "EXPLAIN SELECT g, sum(v) FROM t GROUP BY g").fetchall())
        assert "HASH_AGGREGATE groups=1 aggs=1 workers=4" in plan

    def test_explain_analyze_reports_morsels_and_workers(self, parallel_con):
        plan = "\n".join(r[0] for r in parallel_con.execute(
            "EXPLAIN ANALYZE SELECT g, sum(v) FROM t GROUP BY g").fetchall())
        assert "morsels:" in plan
        assert "parallel_workers:" in plan
        assert "worker_0_rows:" in plan
        assert f"rows_scanned: {ROWS}" in plan

    def test_parallel_scan_in_plan(self, parallel_con):
        # A plain scan runs in place at every ``threads`` value; only the
        # aggregate folding its morsels is granted workers.
        plan = "\n".join(r[0] for r in parallel_con.execute(
            "EXPLAIN SELECT v FROM t WHERE v > 10").fetchall())
        assert re.search(r"TABLE_SCAN t\[v\] ", plan), plan
        assert "workers=" not in plan
        plan = "\n".join(r[0] for r in parallel_con.execute(
            "EXPLAIN SELECT g, sum(v) FROM t WHERE v > 10 GROUP BY g"
        ).fetchall())
        assert [line.split()[0] for line in plan.splitlines()
                if "workers=" in line] == ["HASH_AGGREGATE"], plan
        assert re.search(r"TABLE_SCAN t\[.*\] ", plan), plan

    def test_workers_capped_at_the_morsel_count(self):
        # 40k rows are three 16,384-row morsels: a fourth worker would have
        # nothing to run.
        con = repro.connect(config={"threads": 4, "morsel_size": MORSEL})
        try:
            con.execute("CREATE TABLE t (g INTEGER, v INTEGER)")
            with con.appender("t") as appender:
                index = np.arange(40_000)
                appender.append_numpy({"g": (index % 7).astype(np.int32),
                                       "v": index.astype(np.int32)})
            plan = "\n".join(line for (line,) in con.execute(
                "EXPLAIN ANALYZE SELECT g, sum(v) FROM t GROUP BY g"
            ).fetchall())
        finally:
            con.close()
        assert "HASH_AGGREGATE groups=1 aggs=1 workers=3" in plan, plan
        assert "morsels: 3" in plan

    def test_worker_rows_cover_table(self, parallel_con):
        rows = parallel_con.execute(
            "EXPLAIN ANALYZE SELECT count(*) FROM t").fetchall()
        worker_rows = 0
        for (line,) in rows:
            text = line.strip()
            if text.startswith("worker_") and "_rows:" in text:
                worker_rows += int(text.split(":")[1])
        assert worker_rows == ROWS

    def test_serial_plan_has_no_parallel_operators(self, serial_con):
        plan = "\n".join(r[0] for r in serial_con.execute(
            "EXPLAIN SELECT g, sum(v) FROM t GROUP BY g").fetchall())
        assert "workers=" not in plan


class TestOneLowering:
    @pytest.mark.parametrize("threads", [1, 4])
    def test_aggregate_lowers_its_pipeline_once(self, threads, monkeypatch):
        # The morsel fragments are copies of the one lowered pipeline, so
        # its zone conditions are extracted once per execution, not once
        # per morsel on top of the whole-table pipeline EXPLAIN shows.
        con = repro.connect(config={"threads": threads, "morsel_size": MORSEL,
                                    "result_cache_entries": 0})
        try:
            _populate(con)
            sql = "SELECT g, sum(v) FROM t WHERE v > 10 GROUP BY g"
            expected = con.execute(sql).fetchall()
            calls = []
            original = scan_module._extract_zone_conditions

            def spy(*args):
                calls.append(args)
                return original(*args)

            monkeypatch.setattr(scan_module, "_extract_zone_conditions", spy)
            analyze = "\n".join(line for (line,) in con.execute(
                f"EXPLAIN ANALYZE {sql}").fetchall())
            assert "morsels: 4" in analyze
            calls.clear()
            assert con.execute(sql).fetchall() == expected
            assert len(calls) == 1
        finally:
            con.close()


class TestMorselRanges:
    def test_ranges_cover_and_align(self, parallel_con):
        transaction = parallel_con.database.transaction_manager.begin()
        try:
            entry = parallel_con.database.catalog.get_table("t", transaction)
            ranges = entry.data.morsel_ranges(MORSEL)
        finally:
            parallel_con.database.transaction_manager.rollback(transaction)
        assert len(ranges) > 1
        assert ranges[0][0] == 0
        assert ranges[-1][1] == entry.data.row_count
        for (start, end), (next_start, _) in zip(ranges, ranges[1:]):
            assert end == next_start
            assert start % SCAN_CHUNK_ROWS == 0

    def test_aligned_morsel_rows(self):
        assert aligned_morsel_rows(SCAN_CHUNK_ROWS) == SCAN_CHUNK_ROWS
        assert aligned_morsel_rows(SCAN_CHUNK_ROWS + 1) == SCAN_CHUNK_ROWS
        assert aligned_morsel_rows(1) == SCAN_CHUNK_ROWS
        assert aligned_morsel_rows(65536) == \
            65536 // SCAN_CHUNK_ROWS * SCAN_CHUNK_ROWS


class TestWorkerCountPolicy:
    def test_static_controller_grants_request(self):
        assert StaticController().choose_worker_count(4) == 4
        assert StaticController().choose_worker_count(0) == 1

    def test_reactive_controller_degrades_under_app_cpu(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        app = SimulatedApplication([(1000.0, 0, 0.75)])
        monitor = ResourceMonitor(1 << 30, lambda: 0, app)
        controller = ReactiveController(monitor)
        # 8 cores, app burning 75% of the machine -> 2 cores for the pool.
        assert controller.choose_worker_count(8) == 2
        assert controller.choose_worker_count(1) == 1

    def test_a_cut_worker_count_keeps_the_answer(self):
        # Cooperation: when the host application burns every core, the
        # controller cuts the pool from four workers to one.  The answer
        # must not move by a bit, or giving the host its cores would
        # change query results.
        queries = ("SELECT g, sum(d), avg(d) FROM t WHERE v % 3 = 0 "
                   "GROUP BY g ORDER BY g NULLS FIRST",
                   "SELECT sum(d), avg(d) FROM t WHERE v % 3 = 0")
        con = repro.connect(config={"threads": 4, "morsel_size": MORSEL,
                                    "result_cache_entries": 0})
        try:
            _populate(con)

            def run():
                analyze = "\n".join(line for (line,) in con.execute(
                    f"EXPLAIN ANALYZE {queries[1]}").fetchall())
                return analyze, [con.execute(sql).fetchall()
                                 for sql in queries]

            analyze, uncut = run()
            assert "HASH_AGGREGATE groups=0 aggs=2 workers=4" in analyze
            controller = con.database.enable_reactive_resources(
                1 << 30, SimulatedApplication([(1000.0, 0, 1.0)]))
            analyze, cut = run()
            assert cut == uncut
            assert controller.worker_degrades > 0
            # One worker ran the same four morsels.
            assert "workers=" not in analyze
            assert "parallel_workers: 1" in analyze
            assert "morsels: 4" in analyze
        finally:
            con.close()

    def test_reactive_controller_never_starves(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        app = SimulatedApplication([(1000.0, 0, 1.0)])
        monitor = ResourceMonitor(1 << 30, lambda: 0, app)
        controller = ReactiveController(monitor)
        assert controller.choose_worker_count(4) == 1


class TestConfig:
    def test_morsel_size_option(self):
        config = DatabaseConfig.from_dict({"morsel_size": 4096})
        assert config.morsel_size == 4096
        with pytest.raises(InvalidInputError):
            DatabaseConfig.from_dict({"morsel_size": 0})

    def test_threads_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_THREADS", "4")
        assert DatabaseConfig.from_dict(None).threads == 4
        assert DatabaseConfig.from_dict({}).threads == 4
        # Explicit option wins over the environment.
        assert DatabaseConfig.from_dict({"threads": 2}).threads == 2
        # The plain constructor is untouched (serialization round-trips).
        assert DatabaseConfig().threads == 1

    def test_threads_env_ignored_when_unset(self, monkeypatch):
        monkeypatch.delenv("REPRO_THREADS", raising=False)
        assert DatabaseConfig.from_dict(None).threads == 1


class TestInterrupt:
    def test_interrupt_propagates_to_workers(self, parallel_con):
        # Flip the interrupt flag before driving the plan: every morsel
        # task polls it and the drive must abort, not hang.
        database = parallel_con.database
        transaction = database.transaction_manager.begin()
        try:
            binder = Binder(database.catalog, transaction)
            bound = binder.bind_statement(
                parse_one("SELECT g, sum(v) FROM t GROUP BY g"))
            plan = optimize(bound.plan)
            context = ExecutionContext(transaction, database)
            physical = create_physical_plan(plan, context)
            context.interrupted = True
            with pytest.raises(InterruptError):
                list(physical.execute())
        finally:
            database.transaction_manager.rollback(transaction)


class TestConcurrentDDL:
    def test_ddl_on_one_connection_during_parallel_scans(self):
        """Catalog DDL must not corrupt parallel scans on another connection.

        One connection hammers parallel aggregations over a stable table
        while a second connection creates, fills, and drops side tables --
        the MVCC catalog guarantees every scan sees a consistent snapshot
        and every aggregate stays exact.
        """
        import threading

        con = repro.connect(config={"threads": 4, "morsel_size": MORSEL})
        try:
            _populate(con)
            expected = con.execute(
                "SELECT count(v), sum(v) FROM t").fetchone()
            other = con.duplicate()
            stop = threading.Event()
            failures = []

            def scan_loop():
                try:
                    while not stop.is_set():
                        row = con.execute(
                            "SELECT count(v), sum(v) FROM t").fetchone()
                        if row != expected:
                            failures.append(f"scan saw {row}, "
                                            f"expected {expected}")
                            return
                except Exception as exc:  # propagated to the assert below
                    failures.append(repr(exc))

            scanner = threading.Thread(target=scan_loop)
            scanner.start()
            try:
                for round_index in range(20):
                    other.execute(
                        f"CREATE TABLE ddl_side_{round_index} (x INTEGER)")
                    other.execute(
                        f"INSERT INTO ddl_side_{round_index} "
                        f"VALUES ({round_index})")
                    other.execute(f"DROP TABLE ddl_side_{round_index}")
            finally:
                stop.set()
                scanner.join()
            assert failures == []
            assert "ddl_side_0" not in other.table_names()
            other.close()
        finally:
            con.close()
