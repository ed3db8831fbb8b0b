"""The redesigned client API: pools, prepared statements, paramstyles.

PR9 satellites: ``repro.connect(pool_size=N)`` returning a
:class:`~repro.client.pool.ConnectionPool`, ``Connection.prepare()``
returning a :class:`~repro.client.prepared.PreparedStatement`, unified
qmark/named paramstyles across every entry point, and the PEP 249
closed-handle contract (``InterfaceError``, never an internal engine
error) for closed connections, cursors, and pool-returned proxies.
"""

import pytest

import repro
from repro.client import Connection, ConnectionPool, PreparedStatement
from repro.errors import (
    ClosedHandleError,
    InterfaceError,
    InvalidInputError,
    ParserError,
)


# -- pooled connections -----------------------------------------------------

def test_connect_with_pool_size_returns_pool():
    with repro.connect(pool_size=2) as pool:
        assert isinstance(pool, ConnectionPool)
        assert pool.size == 2
        with pool.connection() as con:
            con.execute("CREATE TABLE t (i INTEGER)")
            con.execute("INSERT INTO t VALUES (1)")
            assert pool.available == 1
        assert pool.available == 2
        # Pooled connections share the one database.
        with pool.connection() as con:
            assert con.execute("SELECT count(*) FROM t").fetchone() == (1,)


def test_pool_pragmas_do_not_leak_across_borrowers():
    with repro.connect(pool_size=1) as pool:
        default_threads = pool._database.config.threads
        with pool.connection() as con:
            con.execute("PRAGMA threads=3")
            assert con.session_config.threads == 3
        # The next borrower gets a pristine config.
        with pool.connection() as con:
            assert con.session_config.threads == default_threads
        assert pool._database.config.threads == default_threads


def test_pool_rolls_back_abandoned_transaction():
    with repro.connect(pool_size=1) as pool:
        with pool.connection() as con:
            con.execute("CREATE TABLE t (i INTEGER)")
        with pool.connection() as con:
            con.execute("BEGIN")
            con.execute("INSERT INTO t VALUES (1)")
            # Returned to the pool mid-transaction: rolled back.
        with pool.connection() as con:
            assert con.execute("SELECT count(*) FROM t").fetchone() == (0,)


def test_released_proxy_raises_interface_error():
    with repro.connect(pool_size=1) as pool:
        con = pool.acquire()
        con.execute("SELECT 1")
        con.close()
        assert con.released
        with pytest.raises(InterfaceError):
            con.execute("SELECT 1")
        with pytest.raises(InterfaceError):
            con.cursor()
        con.close()  # idempotent


def test_pool_acquire_timeout_raises_interface_error():
    with repro.connect(pool_size=1) as pool:
        borrowed = pool.acquire()
        with pytest.raises(InterfaceError):
            pool.acquire(timeout=0.05)
        borrowed.close()
        pool.acquire(timeout=0.05).close()


def test_closed_pool_raises_interface_error():
    pool = repro.connect(pool_size=1)
    pool.close()
    with pytest.raises(InterfaceError):
        pool.acquire()


def test_pool_size_must_be_positive():
    with pytest.raises(InvalidInputError):
        repro.connect(pool_size=0)


# -- prepared statements ----------------------------------------------------

def test_prepared_statement_execute(con):
    con.execute("CREATE TABLE t (i INTEGER, s VARCHAR)")
    insert = con.prepare("INSERT INTO t VALUES (?, ?)")
    assert isinstance(insert, PreparedStatement)
    insert.execute((1, "one"))
    insert.executemany([(2, "two"), (3, "three")])
    with con.prepare("SELECT s FROM t WHERE i = ?") as select:
        assert select.execute((2,)).fetchone() == ("two",)
        assert select.execute((3,)).fetchone() == ("three",)


def test_prepared_statement_named_parameters(con):
    con.execute("CREATE TABLE t (i INTEGER)")
    con.execute("INSERT INTO t VALUES (1), (2), (3)")
    statement = con.prepare("SELECT count(*) FROM t WHERE i > :low")
    assert statement.execute({"low": 0}).fetchone() == (3,)
    assert statement.execute({"low": 2}).fetchone() == (1,)


def test_prepared_statement_reuses_cached_plan(con):
    con.execute("CREATE TABLE t (i INTEGER)")
    con.execute("INSERT INTO t VALUES (1), (2), (3)")
    statement = con.prepare("SELECT count(*) FROM t WHERE i > ?")
    before = con.database.plan_cache.stats()
    for value in (0, 1, 2):
        statement.execute((value,))
    after = con.database.plan_cache.stats()
    assert after["misses"] - before["misses"] == 1
    assert after["hits"] - before["hits"] == 2


def test_prepared_statement_rejects_multi_statement(con):
    with pytest.raises(InvalidInputError):
        con.prepare("SELECT 1; SELECT 2")
    with pytest.raises(InvalidInputError):
        con.prepare("   ")


def test_closed_prepared_statement_raises(con):
    statement = con.prepare("SELECT 1")
    statement.close()
    with pytest.raises(ClosedHandleError):
        statement.execute()


# -- unified paramstyles ----------------------------------------------------

def test_named_parameters_on_connection_and_cursor(con):
    con.execute("CREATE TABLE t (i INTEGER, s VARCHAR)")
    con.execute("INSERT INTO t VALUES (:i, :s)", {"i": 1, "s": "one"})
    cursor = con.cursor()
    cursor.execute("SELECT s FROM t WHERE i = :i", {"i": 1})
    assert cursor.fetchone() == ("one",)
    cursor.executemany("INSERT INTO t VALUES (:i, :s)",
                       [{"i": 2, "s": "two"}, {"i": 3, "s": "three"}])
    assert con.execute("SELECT count(*) FROM t").fetchone() == (3,)


def test_named_parameter_reused_twice_in_one_statement(con):
    result = con.execute("SELECT :x + :x", {"x": 21})
    assert result.fetchone() == (42,)


def test_mixed_paramstyles_rejected(con):
    with pytest.raises(ParserError):
        con.execute("SELECT ? + :x", {"x": 1})


def test_string_parameters_rejected(con):
    with pytest.raises(InvalidInputError):
        con.execute("SELECT ?", "oops")


def test_parameter_types_key_distinct_plans(con):
    con.execute("CREATE TABLE t (d DOUBLE)")
    con.execute("INSERT INTO t VALUES (1.5)")
    before = con.database.plan_cache.stats()
    sql = "SELECT count(*) FROM t WHERE d > ?"
    assert con.execute(sql, (1,)).fetchone() == (1,)
    assert con.execute(sql, (1.0,)).fetchone() == (1,)
    after = con.database.plan_cache.stats()
    # int and float fingerprints bind separate plans -- a cached cast for
    # one type is never replayed against the other.
    assert after["misses"] - before["misses"] == 2


# -- closed-handle contract -------------------------------------------------

def test_closed_connection_raises_interface_error():
    con = repro.connect()
    con.close()
    with pytest.raises(InterfaceError):
        con.execute("SELECT 1")
    with pytest.raises(ClosedHandleError):
        con.cursor()
    with pytest.raises(ClosedHandleError):
        con.table_names()


def test_closed_cursor_raises_interface_error(con):
    cursor = con.cursor()
    cursor.close()
    with pytest.raises(InterfaceError):
        cursor.execute("SELECT 1")
    with pytest.raises(InterfaceError):
        cursor.fetchall()


# -- construction paths -----------------------------------------------------

def test_factory_paths_do_not_warn(recwarn):
    with repro.connect() as con:
        con.execute("SELECT 1")
        with con.duplicate() as dup:
            dup.execute("SELECT 1")
        # Direct construction is just what Database.connect() builds.
        with Connection(con.database) as direct:
            direct.execute("SELECT 1")
    with repro.connect(pool_size=1) as pool:
        with pool.connection() as pooled:
            pooled.execute("SELECT 1")
    assert not [w for w in recwarn.list
                if issubclass(w.category, DeprecationWarning)]
