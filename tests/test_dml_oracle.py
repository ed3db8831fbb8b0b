"""DML oracle: INSERT, UPDATE and DELETE agree with stdlib ``sqlite3``.

Hypothesis draws statement sequences over a NULL-heavy table -- WHERE
clauses built from comparisons, BETWEEN, IN lists, IS [NOT] NULL and
AND/OR, with constants written as literals or ``?`` parameters -- and runs
each statement on both engines.  After every statement the table (as a
multiset of rows) and the rowcount must agree.  The sequences run with one
and with four threads (over a table several morsels long, so DML scans run
on morsel workers and zone maps prune), inside an explicit transaction that
ends in ROLLBACK, and on a file-backed database reopened from its WAL.
"""

import os
import sqlite3
import tempfile
from collections import Counter

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.storage.table_data import SCAN_CHUNK_ROWS

SCHEMA = "CREATE TABLE t (a INTEGER, b DOUBLE, s VARCHAR)"
INTS = st.integers(-6, 6)
FLOATS = st.sampled_from([-2.5, -1.0, 0.0, 0.5, 1.5, 3.0])
STRINGS = st.sampled_from(["a", "b", "c", "dd"])
VALUES = {"a": INTS, "b": FLOATS, "s": STRINGS}


def nullable(values):
    return st.one_of(st.none(), values)


ROWS = st.tuples(nullable(INTS), nullable(FLOATS), nullable(STRINGS))


@st.composite
def operand(draw, column):
    """A constant for ``column``: SQL text plus the parameters it binds."""
    value = draw(VALUES[column])
    if draw(st.booleans()):
        return "?", [value]
    return (f"'{value}'" if isinstance(value, str) else repr(value)), []


@st.composite
def predicate(draw, depth=0):
    if depth < 2 and draw(st.integers(0, 3)) == 0:
        left_sql, left_params = draw(predicate(depth + 1))
        right_sql, right_params = draw(predicate(depth + 1))
        connective = draw(st.sampled_from(["AND", "OR"]))
        return (f"({left_sql} {connective} {right_sql})",
                left_params + right_params)
    column = draw(st.sampled_from(["a", "b", "s"]))
    form = draw(st.sampled_from(["compare", "between", "in", "null"]))
    if form == "null":
        return f"{column} IS {draw(st.sampled_from(['', 'NOT ']))}NULL", []
    if form == "between":
        low, low_params = draw(operand(column))
        high, high_params = draw(operand(column))
        return f"{column} BETWEEN {low} AND {high}", low_params + high_params
    if form == "in":
        items = draw(st.lists(operand(column), min_size=1, max_size=3))
        return (f"{column} IN ({', '.join(sql for sql, _ in items)})",
                [value for _, params in items for value in params])
    op = draw(st.sampled_from(["<", "<=", "=", "<>", ">", ">="]))
    value, params = draw(operand(column))
    return f"{column} {op} {value}", params


SET_FORMS = {
    "a": ["a + 1", "a - 3", "a * 2", "NULL", "?"],
    "b": ["b * 2", "b + 0.5", "a", "NULL", "?"],
    "s": ["s || 'x'", "NULL", "?"],
}


@st.composite
def statement(draw):
    kind = draw(st.sampled_from(["insert", "update", "update", "delete",
                                 "delete"]))
    if kind == "insert":
        rows = draw(st.lists(ROWS, min_size=1, max_size=3))
        marks = ", ".join(["(?, ?, ?)"] * len(rows))
        return (f"INSERT INTO t VALUES {marks}",
                [value for row in rows for value in row])
    where, where_params = draw(st.one_of(st.just(("", [])), predicate()))
    where_sql = f" WHERE {where}" if where else ""
    if kind == "delete":
        return f"DELETE FROM t{where_sql}", where_params
    columns = draw(st.lists(st.sampled_from(["a", "b", "s"]), min_size=1,
                            max_size=3, unique=True))
    assignments, params = [], []
    for column in columns:
        form = draw(st.sampled_from(SET_FORMS[column]))
        if form == "?":
            params.append(draw(VALUES[column]))
        assignments.append(f"{column} = {form}")
    return (f"UPDATE t SET {', '.join(assignments)}{where_sql}",
            params + where_params)


STATEMENTS = st.lists(statement(), min_size=1, max_size=8)


def bulk_rows(count):
    """Rows ordered on ``a`` (zone maps can prune it), a NULL every 7th."""
    index = np.arange(count)
    a = index * 13 // count - 6
    rows = []
    for i in range(count):
        rows.append((None if i % 7 == 0 else int(a[i]),
                     None if i % 5 == 0 else float(i % 4) - 1.0,
                     None if i % 3 == 0 else "abc"[i % 3]))
    return rows


class Engines:
    """The same table in QuackDB and in sqlite3, checked statement by
    statement."""

    def __init__(self, con, rows):
        self.con = con
        self.lite = sqlite3.connect(":memory:", isolation_level=None)
        for engine in (con, self.lite):
            engine.execute(SCHEMA)
        if rows:
            self.lite.executemany("INSERT INTO t VALUES (?, ?, ?)", rows)
            self.con.executemany("INSERT INTO t VALUES (?, ?, ?)", rows)

    def table(self):
        return Counter(self.con.execute("SELECT a, b, s FROM t").fetchall())

    def check(self):
        expected = Counter(self.lite.execute("SELECT a, b, s FROM t"))
        assert self.table() == expected

    def run(self, sql, params):
        expected = self.lite.execute(sql, params).rowcount
        assert self.con.execute(sql, params).rowcount == expected, sql
        self.check()

    def close(self):
        self.lite.close()
        self.con.close()


ORACLE = settings(max_examples=60, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])


@ORACLE
@given(initial=st.lists(ROWS, max_size=12), statements=STATEMENTS)
def test_dml_matches_sqlite(initial, statements):
    engines = Engines(repro.connect(), initial)
    try:
        for sql, params in statements:
            engines.run(sql, params)
    finally:
        engines.close()


#: Three morsels: DML scans stream in place at ``threads`` 4 as at 1, and
#: zone maps prune on ``a``.
PARALLEL_BASE = bulk_rows(3 * SCAN_CHUNK_ROWS)


@settings(ORACLE, max_examples=12)
@given(statements=STATEMENTS)
def test_dml_matches_sqlite_on_morsel_workers(statements):
    con = repro.connect(config={"threads": 4, "morsel_size": SCAN_CHUNK_ROWS})
    engines = Engines(con, PARALLEL_BASE)
    try:
        for sql, params in statements:
            engines.run(sql, params)
    finally:
        engines.close()


@settings(ORACLE, max_examples=30)
@given(initial=st.lists(ROWS, max_size=12), statements=STATEMENTS)
def test_rollback_restores_the_table(initial, statements):
    engines = Engines(repro.connect(), initial)
    try:
        before = engines.table()
        engines.con.execute("BEGIN")
        engines.lite.execute("BEGIN")
        for sql, params in statements:
            engines.run(sql, params)
        engines.con.execute("ROLLBACK")
        engines.lite.execute("ROLLBACK")
        engines.check()
        assert engines.table() == before
    finally:
        engines.close()


@settings(ORACLE, max_examples=20)
@given(initial=st.lists(ROWS, max_size=12), statements=STATEMENTS)
def test_wal_replay_restores_the_table(initial, statements):
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "oracle.qdb")
        engines = Engines(repro.connect(path, {"checkpoint_on_close": False}),
                          initial)
        try:
            for sql, params in statements:
                engines.run(sql, params)
            assert engines.con.execute("PRAGMA wal_size").fetchvalue() > 0
            engines.con.close()
            # Reopened from the last checkpoint (none) plus the WAL.
            engines.con = repro.connect(path)
            engines.check()
        finally:
            engines.close()
