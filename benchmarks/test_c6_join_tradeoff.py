"""C6 -- §6 claim: hash join trades RAM for CPU vs the out-of-core merge join.

"The hash join uses a large amount of main memory to store the hash table,
but few CPU cycles to compute the actual join result because of its lower
complexity class. The merge join requires fewer main memory resources to
run, but O(n log n) CPU cycles as well as disk IO."

The bench joins a fact table against build sides of growing size with both
algorithms, recording wall time and the engine's tracked peak memory, then
shows the reactive controller picking merge join when the machine is under
memory pressure.  The probe side is larger than every build side, so the
optimizer always builds the hash table on ``build`` (asserted from EXPLAIN)
and the hash join's memory follows the build size.
"""

import time

import numpy as np
import pytest

from conftest import record_experiment

import repro
from repro.storage.compression import CompressionLevel

PROBE_ROWS = 1_000_000
JOIN_SQL = "SELECT count(*), sum(b.payload) FROM probe p JOIN build b ON p.k = b.k"

MB = 1 << 20


class ForcedAlgorithm:
    """Controller stub that pins the join algorithm."""

    def __init__(self, algorithm):
        self.algorithm = algorithm

    def compression_level(self):
        return CompressionLevel.NONE

    def choose_join_algorithm(self, estimate):
        return self.algorithm


def build_tables(build_rows, config=None):
    # The sweep repeats its query; with the result cache on, the repeat is
    # answered from the cache and no join runs at all.
    con = repro.connect(config={"result_cache_entries": 0, **(config or {})})
    rng = np.random.default_rng(14)
    con.execute("CREATE TABLE probe (k INTEGER)")
    con.execute("CREATE TABLE build (k INTEGER, payload INTEGER)")
    with con.appender("probe") as appender:
        appender.append_numpy({
            "k": rng.integers(0, build_rows, PROBE_ROWS).astype(np.int32)})
    with con.appender("build") as appender:
        appender.append_numpy({
            "k": np.arange(build_rows, dtype=np.int32),
            "payload": rng.integers(0, 100, build_rows).astype(np.int32),
        })
    return con


def hash_build_side(con):
    """The physical plan line of the hash join's build (right) child."""
    lines = [line for (line,) in con.execute("EXPLAIN " + JOIN_SQL).fetchall()]
    physical = lines[lines.index("-- physical plan --") + 1:]
    (join,) = [index for index, line in enumerate(physical)
               if "HASH_JOIN" in line]
    indent = len(physical[join]) - len(physical[join].lstrip())
    children = []
    for line in physical[join + 1:]:
        depth = len(line) - len(line.lstrip())
        if depth <= indent:
            break
        if depth == indent + 2:
            children.append(line.strip())
    return children[1]


def run_join(con, algorithm):
    con.database.resource_controller = ForcedAlgorithm(algorithm)
    manager = con.database.buffer_manager
    manager._peak = manager._used  # reset peak tracking for this query
    started = time.perf_counter()
    row = con.execute(JOIN_SQL).fetchone()
    elapsed = time.perf_counter() - started
    peak = manager.peak_bytes
    con.database.disable_reactive_resources()
    return row, elapsed, peak


def test_hash_join(benchmark):
    con = build_tables(100_000)
    con.database.resource_controller = ForcedAlgorithm("hash")
    benchmark(lambda: con.execute(JOIN_SQL).fetchone())
    con.close()


def test_merge_join(benchmark):
    con = build_tables(100_000)
    con.database.resource_controller = ForcedAlgorithm("merge")
    benchmark(lambda: con.execute(JOIN_SQL).fetchone())
    con.close()


def test_c6_report(benchmark):
    def sweep():
        rows = []
        for build_rows in (10_000, 100_000, 400_000):
            # Hash join: unconstrained memory (it materializes the build).
            con = build_tables(build_rows)
            con.database.resource_controller = ForcedAlgorithm("hash")
            assert hash_build_side(con).startswith("TABLE_SCAN build"), \
                "the hash table must be built on the smaller input, build"
            run_join(con, "hash")  # warm-up (plan caches, allocator)
            hash_result, hash_s, hash_peak = run_join(con, "hash")
            con.close()
            # Merge join: a tight memory limit forces the out-of-core path
            # (sort runs spill to disk); it must still finish, with its
            # resident working set bounded by the limit.
            con = build_tables(build_rows, config={"memory_limit": 2 * MB})
            merge_result, merge_s, merge_peak = run_join(con, "merge")
            con.close()
            assert hash_result == merge_result, "algorithms must agree"
            rows.append((build_rows, hash_s, hash_peak, merge_s, merge_peak))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    lines = [f"{'build rows':>11} {'hash time':>10} {'hash peakRAM':>13} "
             f"{'merge time':>11} {'merge peakRAM':>14}",
             f"{'':>11} {'(unlimited RAM)':>24} "
             f"{'(2 MiB memory_limit, spills to disk)':>40}"]
    for build_rows, hash_s, hash_peak, merge_s, merge_peak in rows:
        lines.append(f"{build_rows:>11,} {hash_s * 1000:8.1f}ms "
                     f"{hash_peak / MB:11.2f}MB {merge_s * 1000:9.1f}ms "
                     f"{merge_peak / MB:12.2f}MB")
    record_experiment("C6", "Hash join (RAM-hungry, fast) vs out-of-core "
                            "merge join (paper §6)", lines)

    # Shape: hash join wins CPU-wise once the build side is sizable (at tiny
    # builds the merge's single big sort can compete with per-chunk probe
    # overhead); its memory grows with the build side, while the merge
    # join's resident working set stays bounded by the memory limit.
    for build_rows, hash_s, hash_peak, merge_s, merge_peak in rows:
        if build_rows >= 100_000:
            assert hash_s < merge_s, f"hash should win at {build_rows}"
        assert merge_peak <= 2 * MB * 1.25, \
            "merge join must respect the memory limit"
    assert rows[-1][2] > rows[0][2] * 2, \
        "hash join memory must scale with the build side"
    assert rows[-1][2] > rows[-1][4], \
        "at the largest build, hash must need more RAM than bounded merge"


def test_reactive_controller_switches_to_merge(benchmark):
    """The adaptive story: under external memory pressure the planner picks
    the merge join without being told."""
    from repro.cooperation import SimulatedApplication

    con = build_tables(400_000)

    class StepClock:
        now = 0.0

        def __call__(self):
            return self.now

    clock = StepClock()
    app = SimulatedApplication([(100.0, 100 * MB, 0.1),
                                (100.0, 1015 * MB, 0.9)], clock=clock)
    con.database.enable_reactive_resources(1024 * MB, app, clock=clock)

    def run_both_phases():
        results = {}
        for label, when in (("idle", 0.0), ("pressure", 150.0)):
            clock.now = when
            from repro.execution.physical import ExecutionContext

            transaction = con.database.transaction_manager.begin()
            try:
                from repro.planner.binder import Binder
                from repro.optimizer import optimize
                from repro.execution.physical_planner import create_physical_plan
                from repro.sql import parse_one

                binder = Binder(con.database.catalog, transaction)
                bound = binder.bind_statement(parse_one(JOIN_SQL))
                plan = optimize(bound.plan)
                context = ExecutionContext(transaction, con.database)
                physical = create_physical_plan(plan, context)
                results[label] = physical.explain()
            finally:
                con.database.transaction_manager.rollback(transaction)
        return results

    plans = benchmark.pedantic(run_both_phases, rounds=1, iterations=1)
    record_experiment("C6b", "Reactive join algorithm choice under pressure", [
        "idle machine    : " + ("HASH_JOIN" if "HASH_JOIN" in plans["idle"]
                                else "MERGE_JOIN"),
        "RAM pressure 0.9: " + ("MERGE_JOIN"
                                if "MERGE_JOIN" in plans["pressure"]
                                else "HASH_JOIN"),
    ])
    assert "HASH_JOIN" in plans["idle"]
    assert "MERGE_JOIN" in plans["pressure"]
    con.database.disable_reactive_resources()
    con.close()
