"""C3 -- §5/§6 claim: transfer efficiency of the in-process bulk API.

The paper's argument, quantified on this engine:

* **bulk chunk API** -- "the chunk is handed over without requiring
  copying"; the client consumes the engine's internal representation;
* **row API** -- ``fetchall`` / ``fetchmany`` hand out Python tuples, and
  ``executemany`` takes them in; rows are built (and taken apart) per
  column, once per chunk, so the cost is one Python object per value and
  no Python *call* per value;
* **value-at-a-time API** -- the ODBC/JDBC/SQLite shape; "the function
  call overhead for each value becomes excessive";
* **serializing socket protocol** -- the traditional client-server path:
  real serialization/deserialization CPU plus a modeled 1 Gbit/s wire.

Expected shape: bulk >> row API >> value-at-a-time, and the socket path
pays both serialization CPU and wire time on top.
"""

import time

import numpy as np
import pytest

from conftest import record_experiment

import repro
from repro.client.protocol import GIGABIT_PER_SECOND, SocketProtocolClient

ROWS = 500_000
QUERY = "SELECT id, value, score FROM wide"


def build():
    con = repro.connect()
    con.execute("CREATE TABLE wide (id INTEGER, value INTEGER, score DOUBLE)")
    rng = np.random.default_rng(6)
    with con.appender("wide") as appender:
        appender.append_numpy({
            "id": np.arange(ROWS, dtype=np.int32),
            "value": rng.integers(0, 10**6, ROWS).astype(np.int32),
            "score": rng.normal(0, 1, ROWS),
        })
    return con


def fetch_bulk(con):
    """Chunk/NumPy bulk path: zero per-value work."""
    arrays = con.execute(QUERY, stream=True).fetch_numpy()
    return len(arrays["id"])


def fetch_rows_all(con):
    """DB-API ``fetchall``: every row as a tuple."""
    return len(con.execute(QUERY).fetchall())


def fetch_rows_many(con):
    """DB-API cursor, ``fetchmany(1000)`` until done."""
    cursor = con.cursor()
    cursor.execute(QUERY)
    count = 0
    while True:
        batch = cursor.fetchmany(1000)
        if not batch:
            break
        count += len(batch)
    cursor.close()
    return count


def import_rows(con, rows):
    """``executemany`` of row tuples into an empty twin table."""
    con.execute("CREATE TABLE sink (id INTEGER, value INTEGER, score DOUBLE)")
    count = con.executemany("INSERT INTO sink VALUES (?, ?, ?)", rows).rowcount
    con.execute("DROP TABLE sink")
    return count


def fetch_value_at_a_time(con):
    """SQLite-style stepping cursor: one call per value."""
    cursor = con.cursor()
    cursor.execute(QUERY)
    count = 0
    width = None
    while cursor.step():
        if width is None:
            width = cursor.column_count()
        for index in range(width):
            cursor.column_value(index)
        count += 1
    cursor.finalize()
    return count


def fetch_socket(con):
    client = SocketProtocolClient(con, bandwidth=GIGABIT_PER_SECOND)
    rows, stats = client.execute(QUERY)
    return len(rows), stats


def test_bulk_chunk_api(benchmark):
    con = build()
    assert benchmark(fetch_bulk, con) == ROWS
    con.close()


def test_row_api_fetchall(benchmark):
    con = build()
    assert benchmark.pedantic(fetch_rows_all, args=(con,),
                              rounds=3, iterations=1) == ROWS
    con.close()


def test_value_at_a_time_api(benchmark):
    con = build()
    assert benchmark.pedantic(fetch_value_at_a_time, args=(con,),
                              rounds=1, iterations=1) == ROWS
    con.close()


def test_socket_protocol(benchmark):
    con = build()
    (count, _stats) = benchmark.pedantic(fetch_socket, args=(con,),
                                         rounds=1, iterations=1)
    assert count == ROWS
    con.close()


def test_c3_report(benchmark):
    con = build()

    def timed(call, *args):
        started = time.perf_counter()
        out = call(*args)
        return time.perf_counter() - started, out

    def measure():
        bulk, _ = timed(fetch_bulk, con)
        fetchall, _ = timed(fetch_rows_all, con)
        fetchmany, _ = timed(fetch_rows_many, con)
        rows = con.execute(QUERY).fetchall()
        executemany, imported = timed(import_rows, con, rows)
        assert imported == ROWS
        value, _ = timed(fetch_value_at_a_time, con)
        socket_cpu, (_, stats) = timed(fetch_socket, con)
        return bulk, fetchall, fetchmany, executemany, value, socket_cpu, stats

    bulk, fetchall, fetchmany, executemany, value, socket_cpu, stats = \
        benchmark.pedantic(measure, rounds=1, iterations=1)
    socket_total = socket_cpu + stats["simulated_wire_seconds"]
    lines = [
        f"result set: {ROWS:,} rows x 3 columns",
        f"bulk chunk API (in-process)   : {bulk:8.3f} s "
        f"({ROWS / bulk / 1e6:6.2f} M rows/s)",
        f"row API, fetchall()           : {fetchall:8.3f} s "
        f"({ROWS / fetchall / 1e6:6.2f} M rows/s)  "
        f"[{fetchall / bulk:.0f}x slower]",
        f"row API, cursor fetchmany(1k) : {fetchmany:8.3f} s "
        f"({ROWS / fetchmany / 1e6:6.2f} M rows/s)  "
        f"[{fetchmany / bulk:.0f}x slower]",
        f"row API, executemany() import : {executemany:8.3f} s "
        f"({ROWS / executemany / 1e6:6.2f} M rows/s)",
        f"value-at-a-time API           : {value:8.3f} s "
        f"({ROWS / value / 1e6:6.2f} M rows/s)  "
        f"[{value / bulk:.0f}x slower]",
        f"socket protocol (CPU only)    : {socket_cpu:8.3f} s "
        f"(serialize {stats['serialize_seconds']:.3f}s + "
        f"deserialize {stats['deserialize_seconds']:.3f}s)",
        f"socket protocol + 1Gbit wire  : {socket_total:8.3f} s "
        f"({stats['bytes_transferred']:,} bytes on the wire)  "
        f"[{socket_total / bulk:.0f}x slower]",
    ]
    record_experiment("C3", "Transfer efficiency: bulk vs value-at-a-time vs "
                            "socket (paper §5)", lines)
    # Shape assertions from the paper's argument.
    assert bulk * 5 < value, "bulk API must dominate per-value calls"
    assert bulk * 100 <= value, "value-at-a-time stays >= 100x slower"
    assert bulk < fetchall < value and bulk < fetchmany < value, \
        "row API sits between bulk and value-at-a-time"
    assert bulk * 5 < socket_total, "bulk API must dominate the socket path"
    con.close()
