"""The serving front end: sessions, shared caches, admission, introspection.

Covers the PR9 tentpole: :class:`repro.server.QueryServer` multiplexing
sessions onto one database, session-scoped PRAGMAs, snapshot isolation
across sessions, plan-cache invalidation on DDL, result-cache invalidation
on commit, admission control, and the ``repro_sessions()`` /
``repro_serving()`` system tables.  The hammer test at the end runs the
whole stack from many threads (and doubles as a sanitizer workload under
``REPRO_SANITIZE=1``).
"""

import threading

import pytest

import repro
from repro.errors import AdmissionError, ClosedHandleError, InterfaceError
from repro.server import QueryServer, Session


@pytest.fixture
def server():
    with repro.serve() as srv:
        yield srv


def test_serve_returns_query_server(server):
    assert isinstance(server, QueryServer)
    session = server.session("smoke")
    assert isinstance(session, Session)
    with session:
        session.execute("CREATE TABLE t (i INTEGER)")
        session.execute("INSERT INTO t VALUES (1), (2)")
        result = session.execute("SELECT sum(i) FROM t")
        assert result.fetchone() == (3,)
    stats = server.stats()
    assert stats["sessions"]["opened"] >= 1
    assert stats["sessions"]["closed"] == stats["sessions"]["opened"]


def test_one_shot_execute(server):
    server.execute("CREATE TABLE t (i INTEGER)")
    server.execute("INSERT INTO t VALUES (?)", (7,))
    assert server.execute("SELECT i FROM t").fetchall() == [(7,)]
    # The throwaway sessions are closed even on error.
    with pytest.raises(Exception):
        server.execute("SELECT no_such FROM t")
    assert len(server.sessions) == 0


def test_session_pragmas_are_scoped(server):
    default_threads = server.database.config.threads
    with server.session("tuned") as tuned, server.session("plain") as plain:
        tuned.execute("PRAGMA threads=3")
        assert tuned.connection.session_config.threads == 3
        # Neither the sibling session nor the database-wide config moved.
        assert plain.connection.session_config.threads == default_threads
        assert server.database.config.threads == default_threads


def test_session_pragma_on_database_option_reaches_the_database(server):
    # Only database-owned components read these options; a session-local
    # copy would read back the new value while nothing obeyed it.
    server.execute("CREATE TABLE t (i INTEGER)")
    with server.session("tuned") as tuned:
        tuned.execute("PRAGMA plan_cache_entries = 0")
        tuned.execute("PRAGMA max_concurrent_queries = 3")
        tuned.execute("PRAGMA wal_autocheckpoint = 0")
        assert tuned.execute(
            "PRAGMA plan_cache_entries").fetchone() == ("0",)
        settings = dict(tuned.execute(
            "SELECT name, value FROM repro_settings()").fetchall())
        before = server.database.plan_cache.stats()
        for _ in range(2):
            tuned.execute("SELECT count(*) FROM t WHERE i > ?", (0,))
        after = server.database.plan_cache.stats()
    assert (settings["plan_cache_entries"],
            settings["max_concurrent_queries"],
            settings["wal_autocheckpoint"]) == ("0", "3", "0")
    assert server.database.plan_cache.capacity == 0
    assert after["hits"] == before["hits"]
    assert after["entries"] == 0
    # Later sessions start from the database config, so they agree.
    with server.session("later") as later:
        assert later.connection.session_config.plan_cache_entries == 0


def test_sessions_are_snapshot_isolated(server):
    server.execute("CREATE TABLE t (i INTEGER)")
    server.execute("INSERT INTO t VALUES (1)")
    with server.session("writer") as writer, \
            server.session("reader") as reader:
        writer.execute("BEGIN")
        writer.execute("INSERT INTO t VALUES (2)")
        # The reader's autocommit snapshot must not see the open write.
        assert reader.execute("SELECT count(*) FROM t").fetchone() == (1,)
        writer.execute("COMMIT")
        assert reader.execute("SELECT count(*) FROM t").fetchone() == (2,)


def test_plan_cache_warm_hits(server):
    server.execute("CREATE TABLE t (i INTEGER)")
    server.execute("INSERT INTO t VALUES (1), (2), (3)")
    before = server.database.plan_cache.stats()
    with server.session() as session:
        for value in (0, 1, 2):
            session.execute("SELECT count(*) FROM t WHERE i > ?", (value,))
    after = server.database.plan_cache.stats()
    # One miss binds the plan; the other values reuse it.
    assert after["misses"] - before["misses"] == 1
    assert after["hits"] - before["hits"] == 2


def test_ddl_invalidates_cached_plans(server):
    server.execute("CREATE TABLE t (i INTEGER)")
    server.execute("INSERT INTO t VALUES (1)")
    with server.session() as session:
        session.execute("SELECT count(*) FROM t WHERE i > ?", (0,))
        session.execute("SELECT count(*) FROM t WHERE i > ?", (0,))
        before = server.database.plan_cache.stats()
        # Any DDL bumps the catalog version; the cached plan is discarded
        # on its next lookup rather than served stale.
        session.execute("CREATE TABLE other (j INTEGER)")
        result = session.execute("SELECT count(*) FROM t WHERE i > ?", (0,))
        assert result.fetchone() == (1,)
    after = server.database.plan_cache.stats()
    assert after["invalidations"] > before["invalidations"]


def test_commit_supersedes_cached_results(server):
    server.execute("CREATE TABLE t (i INTEGER)")
    server.execute("INSERT INTO t VALUES (1)")
    with server.session() as session:
        assert session.execute("SELECT sum(i) FROM t").fetchone() == (1,)
        before = server.database.result_cache.stats()
        assert session.execute("SELECT sum(i) FROM t").fetchone() == (1,)
        mid = server.database.result_cache.stats()
        assert mid["hits"] - before["hits"] == 1
        # A committed write advances the data version: the cached result is
        # stale and must not be served.
        session.execute("INSERT INTO t VALUES (10)")
        assert session.execute("SELECT sum(i) FROM t").fetchone() == (11,)


def test_result_cache_values_key_distinct_entries(server):
    server.execute("CREATE TABLE t (i INTEGER)")
    server.execute("INSERT INTO t VALUES (1), (2), (3)")
    with server.session() as session:
        sql = "SELECT count(*) FROM t WHERE i > ?"
        assert session.execute(sql, (0,)).fetchone() == (3,)
        assert session.execute(sql, (2,)).fetchone() == (1,)
        # Same SQL, different values: each result was cached under its own
        # value fingerprint, so both replay correctly.
        assert session.execute(sql, (0,)).fetchone() == (3,)
        assert session.execute(sql, (2,)).fetchone() == (1,)


def test_admission_limit_rejects_past_timeout():
    with repro.serve(config={"max_concurrent_queries": 1,
                             "admission_timeout_ms": 30}) as server:
        server.execute("CREATE TABLE t (i INTEGER)")
        # Occupy the only slot, exactly as an in-flight query would.
        server.admission.admit()
        with server.session() as session:
            try:
                with pytest.raises(AdmissionError):
                    session.execute("SELECT count(*) FROM t")
            finally:
                server.admission.release()
            # The timed-out statement counts as an error and leaves no
            # phantom activity behind.
            assert server.execute(
                "SELECT state, errors FROM repro_sessions() "
                "WHERE session_id = ?", [session.session_id]
            ).fetchall() == [("idle", 1)]
            assert server.execute(
                "SELECT count(*) FROM repro_activity() "
                "WHERE session_id = ?", [session.session_id]
            ).fetchvalue() == 0
        stats = server.admission.stats()
        assert stats["timeouts"] >= 1
        # The slot is free again: queries run.
        assert server.execute("SELECT count(*) FROM t").fetchone() == (0,)


def test_closed_session_raises_interface_error(server):
    session = server.session()
    session.close()
    with pytest.raises(ClosedHandleError):
        session.execute("SELECT 1")
    assert issubclass(ClosedHandleError, InterfaceError)
    session.close()  # idempotent


def test_repro_sessions_system_table(server):
    with server.session("dashboard") as session:
        session.execute("SELECT 1")
        rows = session.execute(
            "SELECT name, state, statements FROM repro_sessions() "
            "ORDER BY session_id").fetchall()
    names = [row[0] for row in rows]
    assert "dashboard" in names
    dashboard = rows[names.index("dashboard")]
    # The introspecting statement itself is the active one.
    assert dashboard[1] == "active"
    assert dashboard[2] >= 2


def test_repro_serving_system_table(server):
    server.execute("SELECT 1")
    rows = dict(server.execute(
        "SELECT name, value FROM repro_serving()").fetchall())
    assert "plan_cache.hits" in rows
    assert "result_cache.misses" in rows
    assert "admission.admitted" in rows
    assert rows["sessions.opened"] >= 1


def test_serving_metrics_fold_into_observability(server):
    server.execute("CREATE TABLE t (i INTEGER)")
    with server.session() as session:
        session.execute("SELECT count(*) FROM t WHERE i > ?", (0,))
        session.execute("SELECT count(*) FROM t WHERE i > ?", (0,))
    metrics = dict(server.execute(
        "SELECT name, value FROM repro_metrics() "
        "WHERE name LIKE 'repro_plan_cache%'").fetchall())
    # The second SELECT hits; the first and the repro_metrics() read miss.
    assert metrics["repro_plan_cache_hits_total"] == 1
    assert metrics["repro_plan_cache_misses_total"] == 2


def test_concurrent_session_hammer(server):
    """Many threads driving full sessions through the shared caches."""
    server.execute("CREATE TABLE t (category INTEGER, amount DOUBLE)")
    server.execute("INSERT INTO t VALUES (1, 10.0), (2, 20.0), (3, 30.0)")
    errors = []

    def client(index):
        try:
            for round_index in range(4):
                with server.session(f"hammer-{index}-{round_index}") as s:
                    s.execute("SELECT category, sum(amount) FROM t "
                              "WHERE category <> ? GROUP BY category",
                              (index % 3,)).fetchall()
                    s.execute("INSERT INTO t VALUES (?, ?)",
                              (index, float(index)))
                    s.execute("SELECT count(*) FROM t").fetchall()
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(f"{type(exc).__name__}: {exc}")

    threads = [threading.Thread(target=client, args=(index,))
               for index in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []
    assert len(server.sessions) == 0
    # 8 clients x 4 rounds x 1 insert each, on top of the 3 seed rows.
    assert server.execute("SELECT count(*) FROM t").fetchone() == (35,)
    stats = server.database.plan_cache.stats()
    assert stats["hits"] > stats["misses"]
