"""Each value moves once from scan to aggregate.

An operator hands on the batch it built and an expression runs once per
batch: a join emits one chunk per probe batch, the hash aggregate buffers
its child's chunks and evaluates its keys and arguments once per batch, and
a scan reads the columns only its pushed filters read without emitting
them.  These tests pin the shapes (EXPLAIN ANALYZE ``chunks=``, the scan's
``filter_schema``) and check TPC-H-shaped answers against NumPy under every
thread count and verifier setting.
"""

import datetime
import math
import re

import numpy as np
import pytest

import repro
from repro.cooperation.controller import StaticController
from repro.errors import PlanVerificationError
from repro.execution import intermediates
from repro.optimizer import rules
from repro.planner.logical import LogicalGet
from repro.storage.compression import CompressionLevel

LINES = 150_000
ORDERS = LINES // 4
CUSTOMERS = ORDERS // 10
SEGMENTS = np.array(["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD",
                     "MACHINERY"], dtype=object)
FLAGS = np.array(["A", "N", "R"], dtype=object)
EPOCH = datetime.date(1970, 1, 1)
BASE_DAY = 9131

Q1 = """SELECT l_returnflag, sum(l_quantity),
       sum(l_extendedprice * (1 - l_discount)), avg(l_discount), count(*)
FROM lineitem
WHERE l_shipdate >= ? AND l_shipdate <= ?
GROUP BY l_returnflag
ORDER BY l_returnflag"""

Q3 = """SELECT l_orderkey, sum(l_extendedprice * (1 - l_discount)) AS revenue,
       o_orderdate
FROM customer
JOIN orders ON c_custkey = o_custkey
JOIN lineitem ON l_orderkey = o_orderkey
WHERE c_mktsegment = ? AND o_orderdate < ? AND l_shipdate > ?
GROUP BY l_orderkey, o_orderdate
ORDER BY revenue DESC, l_orderkey
LIMIT 10"""

QW = """SELECT c_mktsegment, o_orderdate,
       sum(l_extendedprice * (1 - l_discount)) AS revenue
FROM customer
JOIN orders ON c_custkey = o_custkey
JOIN lineitem ON l_orderkey = o_orderkey
WHERE l_shipdate > ? AND o_orderdate >= ?
GROUP BY c_mktsegment, o_orderdate
ORDER BY c_mktsegment, o_orderdate"""


def _date(day):
    return EPOCH + datetime.timedelta(days=int(day))


@pytest.fixture(scope="module")
def tables():
    rng = np.random.default_rng(41)
    return {
        "customer": {
            "c_custkey": np.arange(CUSTOMERS, dtype=np.int32),
            "c_mktsegment": rng.integers(0, len(SEGMENTS), CUSTOMERS),
        },
        "orders": {
            "o_orderkey": np.arange(ORDERS, dtype=np.int32),
            "o_custkey": rng.integers(0, CUSTOMERS, ORDERS).astype(np.int32),
            "o_orderdate": (BASE_DAY + rng.integers(-365, 365, ORDERS)
                            ).astype(np.int32),
        },
        "lineitem": {
            "l_orderkey": rng.integers(0, ORDERS, LINES).astype(np.int32),
            "l_quantity": rng.integers(1, 51, LINES).astype(np.float64),
            "l_extendedprice": rng.uniform(900.0, 105_000.0, LINES).round(2),
            "l_discount": rng.integers(0, 11, LINES) / 100.0,
            "l_returnflag": rng.integers(0, len(FLAGS), LINES),
            "l_shipdate": (BASE_DAY + rng.integers(-400, 400, LINES)
                           ).astype(np.int32),
        },
    }


def _connect(tables, **config):
    con = repro.connect(config={"result_cache_entries": 0,
                                "morsel_size": 16384, **config})
    con.execute("CREATE TABLE customer (c_custkey INTEGER NOT NULL, "
                "c_mktsegment VARCHAR)")
    con.execute("CREATE TABLE orders (o_orderkey INTEGER NOT NULL, "
                "o_custkey INTEGER, o_orderdate DATE)")
    con.execute("CREATE TABLE lineitem (l_orderkey INTEGER NOT NULL, "
                "l_quantity DOUBLE, l_extendedprice DOUBLE, "
                "l_discount DOUBLE, l_returnflag VARCHAR, l_shipdate DATE)")
    strings = {"c_mktsegment": SEGMENTS, "l_returnflag": FLAGS}
    for table, columns in tables.items():
        with con.appender(table) as appender:
            appender.append_numpy({
                name: strings[name][values] if name in strings else values
                for name, values in columns.items()})
    return con


CONFIGS = [(1, True), (1, False), (4, True), (4, False)]


@pytest.fixture(scope="module")
def connections(tables):
    cons = {(threads, verify): _connect(tables, threads=threads,
                                        verify_plans=verify)
            for threads, verify in CONFIGS}
    yield cons
    for con in cons.values():
        con.close()


# -- NumPy references --------------------------------------------------------

def reference_q1(tables, low, high):
    line = tables["lineitem"]
    keep = (line["l_shipdate"] >= low) & (line["l_shipdate"] <= high)
    rows = []
    for code in np.argsort(FLAGS):
        rows_of = keep & (line["l_returnflag"] == code)
        if not rows_of.any():
            continue
        price = line["l_extendedprice"][rows_of]
        discount = line["l_discount"][rows_of]
        rows.append((FLAGS[code], line["l_quantity"][rows_of].sum(),
                     (price * (1 - discount)).sum(), discount.mean(),
                     int(rows_of.sum())))
    return rows


def _joined(tables):
    """Every lineitem's order and customer positions (all keys exist)."""
    line, orders = tables["lineitem"], tables["orders"]
    order = line["l_orderkey"]
    return order, orders["o_custkey"][order]


def reference_q3(tables, segment, order_before, ship_after):
    line, orders = tables["lineitem"], tables["orders"]
    order, customer = _joined(tables)
    segment_code = list(SEGMENTS).index(segment)
    keep = ((tables["customer"]["c_mktsegment"][customer] == segment_code)
            & (orders["o_orderdate"][order] < order_before)
            & (line["l_shipdate"] > ship_after))
    revenue = np.bincount(order[keep], minlength=ORDERS, weights=(
        line["l_extendedprice"] * (1 - line["l_discount"]))[keep])
    present = np.flatnonzero(np.bincount(order[keep], minlength=ORDERS))
    ranked = sorted(present, key=lambda key: (-revenue[key], key))[:10]
    return [(int(key), revenue[key], _date(orders["o_orderdate"][key]))
            for key in ranked]


def reference_qw(tables, ship_after, order_from):
    line, orders = tables["lineitem"], tables["orders"]
    order, customer = _joined(tables)
    keep = ((line["l_shipdate"] > ship_after)
            & (orders["o_orderdate"][order] >= order_from))
    segment = tables["customer"]["c_mktsegment"][customer][keep]
    day = orders["o_orderdate"][order][keep].astype(np.int64)
    keys, inverse = np.unique(segment * 100_000 + day, return_inverse=True)
    revenue = np.bincount(inverse.reshape(-1), weights=(
        line["l_extendedprice"] * (1 - line["l_discount"]))[keep])
    rows = [(SEGMENTS[key // 100_000], _date(key % 100_000), total)
            for key, total in zip(keys, revenue)]
    return sorted(rows, key=lambda row: (row[0], row[1]))


TEMPLATES = {
    "Q1": (Q1, (BASE_DAY - 350, BASE_DAY + 330), reference_q1,
           ["l_shipdate"]),
    "Q3": (Q3, ("BUILDING", BASE_DAY + 60, BASE_DAY + 50), reference_q3,
           ["c_mktsegment", "l_shipdate"]),
    "QW": (QW, (BASE_DAY - 300, BASE_DAY - 350), reference_qw,
           ["l_shipdate"]),
}


def _parameters(name):
    """The template's parameters as SQL values (dates for day numbers)."""
    _, values, _, _ = TEMPLATES[name]
    return tuple(value if isinstance(value, str) else _date(value)
                 for value in values)


def _close(got_rows, want_rows):
    def same(got, want):
        if isinstance(want, (float, np.floating)):
            return math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-6)
        return got == want

    return len(got_rows) == len(want_rows) and all(
        len(got) == len(want) and all(map(same, got, want))
        for got, want in zip(got_rows, want_rows))


# -- answers ---------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(TEMPLATES))
def test_answers_match_numpy_in_every_configuration(connections, tables,
                                                    name):
    sql, values, reference, _ = TEMPLATES[name]
    want = reference(tables, *values)
    assert want
    answers = {config: con.execute(sql, _parameters(name)).fetchall()
               for config, con in connections.items()}
    for config, rows in answers.items():
        assert _close(rows, want), (config, rows[:3], want[:3])
    # The verifier only checks plans: exactly the same answer with it off.
    for threads in (1, 4):
        assert answers[(threads, True)] == answers[(threads, False)]
    # At equal morsel_size the thread count sets only how many workers run
    # the morsels: the same bits.
    assert answers[(4, True)] == answers[(1, True)]


@pytest.mark.parametrize("name", sorted(TEMPLATES))
def test_scans_read_filter_only_columns_without_emitting_them(
        connections, name):
    sql, _, _, filter_only = TEMPLATES[name]
    con = connections[(1, True)]
    plan = "\n".join(row[0] for row in con.execute(
        "EXPLAIN " + sql, _parameters(name)).fetchall())
    found = sorted(column for columns in re.findall(
        r"TABLE_SCAN \w+\[[^\]]*\][^\n]* filter_cols=\[([^\]]*)\]", plan)
        for column in columns.split(", "))
    assert found == filter_only, plan
    for column in filter_only:
        assert not re.search(rf"TABLE_SCAN \w+\[[^\]]*\b{column}\b", plan)


# -- joins emit one chunk per probe batch ------------------------------------------

def test_join_emits_one_chunk_per_probe_batch(connections):
    con = connections[(1, True)]
    lines = con.execute(
        "EXPLAIN ANALYZE SELECT c_mktsegment, l_extendedprice FROM customer "
        "JOIN orders ON c_custkey = o_custkey "
        "JOIN lineitem ON l_orderkey = o_orderkey").fetchall()
    joins = [(int(re.search(r"rows_out=(\d+)", line).group(1)),
              int(re.search(r"chunks=(\d+)", line).group(1)))
             for (line,) in lines
             if "HASH_JOIN" in line and "chunks=" in line]
    # The 150,000 lineitems probe in batches of >= 65,536 rows: three
    # chunks, not one per 2,048-row vector.  The 37,500 orders probe the
    # customers in one batch.
    assert sorted(joins) == [(ORDERS, 1), (LINES, 3)]


def test_left_join_emits_matches_then_unmatched_rows():
    con = repro.connect()
    con.execute("CREATE TABLE a (k INTEGER)")
    con.execute("CREATE TABLE b (k INTEGER, v INTEGER)")
    with con.appender("a") as appender:
        appender.append_numpy({"k": np.arange(10_000, dtype=np.int32)})
    with con.appender("b") as appender:
        appender.append_numpy({"k": np.arange(0, 10_000, 2, dtype=np.int32),
                               "v": np.ones(5_000, dtype=np.int32)})
    sql = "SELECT a.k, b.v FROM a LEFT JOIN b ON a.k = b.k"
    profile = [line for (line,) in con.execute(
        "EXPLAIN ANALYZE " + sql).fetchall()
        if "HASH_JOIN" in line and "chunks=" in line]
    # One probe batch: one chunk of matches, one of NULL-extended rows.
    assert len(profile) == 1 and "chunks=2 " in profile[0] + " "
    rows = con.execute(sql).fetchall()
    assert sorted(rows) == [(k, 1 if k % 2 == 0 else None)
                            for k in range(10_000)]
    con.close()


# -- a broken filter-only column is caught -------------------------------------------

def test_pushed_filter_outside_the_scan_columns_is_reported(monkeypatch):
    original = rules._prune_columns

    def drop_filter_columns(*args, **kwargs):
        plan, mapping = original(*args, **kwargs)
        if isinstance(plan, LogicalGet):
            plan.column_ids = plan.column_ids[:len(plan.schema)]
            plan.filter_schema = []
        return plan, mapping

    monkeypatch.setenv("REPRO_VERIFY_PLANS", "1")
    monkeypatch.setattr(rules, "_prune_columns", drop_filter_columns)
    con = repro.connect()
    con.execute("CREATE TABLE t (i INTEGER, d DOUBLE)")
    con.execute("INSERT INTO t VALUES (1, 0.5), (2, 2.5)")
    with pytest.raises(PlanVerificationError) as info:
        con.execute("SELECT i FROM t WHERE d > 1").fetchall()
    message = str(info.value)
    assert "column_pruning" in message
    assert "dangling column ref #1" in message
    con.close()


# -- DML through a filter-only column ------------------------------------------------

def test_update_through_a_filter_only_column():
    con = repro.connect()
    con.execute("CREATE TABLE m (k INTEGER, d INTEGER)")
    keys = np.arange(50_000, dtype=np.int32)
    with con.appender("m") as appender:
        appender.append_numpy({"k": keys,
                               "d": np.where(keys % 7 == 0, -999, keys)})
    sql = "UPDATE m SET d = NULL WHERE d = -999"
    assert con.execute(sql).rowcount == int(np.count_nonzero(keys % 7 == 0))
    assert con.execute(
        "SELECT count(*) FROM m WHERE d IS NULL AND k % 7 = 0").fetchone() \
        == (int(np.count_nonzero(keys % 7 == 0)),)
    assert con.execute("SELECT count(*) FROM m WHERE d = k").fetchone() \
        == (int(np.count_nonzero(keys % 7 != 0)),)
    con.close()


# -- compression and spill under pressure ----------------------------------------------

def test_join_aggregate_compresses_and_spills_under_pressure(tables,
                                                              monkeypatch):
    appended, spilled = [], []
    append, spill = intermediates.ChunkBuffer.append, \
        intermediates.ChunkBuffer._spill

    def counting_append(buffer, chunk):
        append(buffer, chunk)
        appended.append((buffer.description, buffer.compressed_appends))

    def counting_spill(buffer, entry, chunk):
        spilled.append(buffer.description)
        spill(buffer, entry, chunk)

    monkeypatch.setattr(intermediates.ChunkBuffer, "append", counting_append)
    monkeypatch.setattr(intermediates.ChunkBuffer, "_spill", counting_spill)
    want = reference_qw(tables, *TEMPLATES["QW"][1])

    con = _connect(tables, threads=1)
    con.database.resource_controller = StaticController(CompressionLevel.HEAVY)
    assert _close(con.execute(QW, _parameters("QW")).fetchall(), want)
    assert any(description == "aggregate input" and compressed
               for description, compressed in appended)
    con.close()

    # Room for the tables but not for the aggregate's buffered input.
    con = _connect(tables, threads=1)
    con.execute("PRAGMA memory_limit = '512KB'")
    assert _close(con.execute(QW, _parameters("QW")).fetchall(), want)
    assert "aggregate input" in spilled
    con.close()
