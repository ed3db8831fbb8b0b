"""One statement path: every client route is the same pipeline.

``Connection.execute``, ``PreparedStatement``, ``Cursor``,
``PooledConnection`` and ``Session`` all funnel into
``Connection._execute`` -> ``_run_statement``.  The matrix below takes one
fixed statement list down every route, with the plan cache on and off,
eager and streaming, in autocommit and inside ``BEGIN ... COMMIT``, and
requires the same rows, the same ``repro_statement_log()`` rows, exactly
one root query span per logged statement and the same transaction state
after each statement.  The remaining tests pin what the single skeleton
fixed: one bind per statement, private result-cache copies, one abort
policy for eager and streaming, and session totals that add up.
"""

import numpy as np
import pytest

import repro
from repro.client import ConnectionPool
from repro.planner.binder import Binder

ROUTES = ("connection", "prepared", "cursor", "pooled", "session")

SELECT_ALL = "SELECT a, s FROM t ORDER BY a"
QMARK = "SELECT a FROM t WHERE a > ? ORDER BY a"
NAMED = "SELECT a FROM t WHERE a > :low ORDER BY a"
TOP_N = "SELECT a FROM t ORDER BY a LIMIT ?"
BIND_FAILS = "SELECT nope FROM t"
RUN_FAILS = "SELECT CAST(s AS BIGINT) FROM t"
INSERT = "INSERT INTO t VALUES (?, ?)"
UPDATE = "UPDATE t SET a = a + ? WHERE a = ?"
DELETE = "DELETE FROM t WHERE a = ?"
MULTI = ("INSERT INTO t VALUES (20, 'a'); INSERT INTO t VALUES (21, 'b'); "
         "SELECT count(*) FROM t")

#: (sql, parameters); a list of parameter sets means ``executemany``.
#: SELECT_ALL runs twice back to back so the second is a result-cache hit
#: wherever the result cache is in play.
STATEMENTS = (
    (SELECT_ALL, None),
    (SELECT_ALL, None),
    (QMARK, (1,)),
    (QMARK, (2,)),
    (NAMED, {"low": 1}),
    (TOP_N, (2,)),
    (BIND_FAILS, None),
    (RUN_FAILS, None),
    (INSERT, (10, "ten")),
    (UPDATE, (1, 10)),
    (UPDATE, (2, 11)),  # a cached-DML hit wherever the plan cache is on
    (DELETE, (13,)),
    (MULTI, None),
    (INSERT, [(30, "p"), (31, "q")]),
    (SELECT_ALL, None),
)


class Route:
    """One client route over a fresh served database with the fixed table."""

    def __init__(self, kind, config=None):
        self.kind = kind
        self.server = repro.serve(config=config)
        self.database = self.server.database
        self.pool = None
        setup = self.database.connect()
        setup.execute("CREATE TABLE t (a INTEGER, s VARCHAR)")
        setup.execute("INSERT INTO t VALUES (1, '1'), (2, '2'), (3, 'x')")
        setup.close()
        if kind == "session":
            self.handle = self.server.session("route")
            self.connection = self.handle.connection
        elif kind == "pooled":
            self.pool = ConnectionPool(self.database, 1)
            self.handle = self.pool.connection()
            self.connection = self.handle._connection
        else:
            self.connection = self.database.connect()
            self.handle = self.connection.cursor() if kind == "cursor" \
                else self.connection

    def run(self, sql, parameters=None, stream=False):
        """Rows of the statement's (last) result."""
        if self.kind in ("cursor", "session"):  # no stream argument
            return self.handle.execute(sql, parameters).fetchall()
        if self.kind == "prepared" and ";" not in sql:
            with self.connection.prepare(sql) as prepared:
                return prepared.execute(parameters, stream=stream).fetchall()
        return self.handle.execute(sql, parameters, stream=stream).fetchall()

    def run_many(self, sql, parameter_sets):
        """The call's ``rowcount``."""
        if self.kind == "prepared":
            with self.connection.prepare(sql) as prepared:
                return prepared.executemany(parameter_sets).rowcount
        return self.handle.executemany(sql, parameter_sets).rowcount

    def close(self):
        if self.kind in ("session", "pooled"):
            self.handle.close()
        else:
            self.connection.close()
        if self.pool is not None:
            self.pool.close()
        self.server.close()


def transcript(route, stream, in_transaction):
    """Run STATEMENTS; return (outcomes, statement-log rows)."""
    outcomes = []
    for sql, parameters in STATEMENTS:
        if in_transaction:
            route.run("BEGIN")
        try:
            if isinstance(parameters, list):
                route.run_many(sql, parameters)
                outcome = "ok"
            else:
                outcome = route.run(sql, parameters, stream)
        except repro.Error as error:
            outcome = type(error).__name__
        # Bind errors wrote nothing and leave an explicit transaction open;
        # a failure once execution began aborts it -- eager or streaming.
        assert route.connection.in_transaction == (
            in_transaction and outcome != "ConversionError")
        if route.connection.in_transaction:
            route.run("COMMIT")
        outcomes.append(outcome)
    reader = route.database.connect()
    logged = reader.execute(
        "SELECT sql, error FROM repro_statement_log()").fetchall()
    reader.close()
    return outcomes, logged


@pytest.fixture(scope="module")
def reference():
    """What the plain route gives: eager, autocommit, default caches."""
    route = Route("connection")
    try:
        route.database.statement_log.clear()
        return transcript(route, stream=False, in_transaction=False)
    finally:
        route.close()


@pytest.mark.parametrize("in_transaction", [False, True],
                         ids=["autocommit", "explicit"])
@pytest.mark.parametrize("plan_cache", [None, 0], ids=["cached", "uncached"])
@pytest.mark.parametrize("kind,stream", [
    # Sessions are eager-only; cursors always stream.
    (kind, stream) for kind in ROUTES for stream in (False, True)
    if (kind, stream) not in (("session", True), ("cursor", False))])
def test_every_route_is_the_same_pipeline(reference, kind, stream,
                                          plan_cache, in_transaction):
    expected_outcomes, expected_log = reference
    config = {"trace_enabled": True}
    if plan_cache is not None:
        config["plan_cache_entries"] = plan_cache
    route = Route(kind, config)
    tracer = route.database.tracer
    try:
        route.database.statement_log.clear()
        tracer.clear()
        outcomes, logged = transcript(route, stream, in_transaction)
        assert outcomes == expected_outcomes
        # One log row per executed statement (three for the multi-statement
        # string, one for executemany), with the same error everywhere.
        assert logged == expected_log
        assert len(logged) == len(STATEMENTS) + 2
        assert [error for _, error in logged if error] \
            == ["BinderError", "ConversionError"]
        # ...and exactly one root query span each, result-cache hits too.
        roots = [span.name for span in tracer.spans()
                 if span.kind == "query"]
        assert roots[:len(logged)] == [sql.strip() for sql, _ in logged]
        assert len(roots) == len(logged) + 1  # + the log read itself
        if plan_cache is None and not stream and not in_transaction:
            assert route.database.result_cache.stats()["hits"] >= 1
    finally:
        route.close()


@pytest.mark.parametrize("kind", ROUTES)
def test_one_bind_per_statement(monkeypatch, kind):
    binds = []
    original = Binder.bind_statement

    def counting(self, statement):
        binds.append(type(statement).__name__)
        return original(self, statement)

    monkeypatch.setattr(Binder, "bind_statement", counting)

    def binds_of(sql, parameters):
        del binds[:]
        try:
            route.run(sql, parameters)
        except repro.Error:
            pass
        return len(binds)

    route = Route(kind)
    try:
        before = route.database.plan_cache.stats()
        for sql, fill, hit in ((QMARK, (1,), (2,)),
                               (INSERT, (10, "ten"), (20, "twenty")),
                               (UPDATE, (1, 10), (5, 3)),
                               (DELETE, (11,), (1,))):
            assert binds_of(sql, fill) == 1        # plan-cache fill
            assert binds_of(sql, hit) == 0         # warm hit, other values
        assert binds_of(TOP_N, (2,)) == 1          # value-dependent plan
        assert binds_of(TOP_N, (1,)) == 1          # ...so never cached
        assert binds_of(BIND_FAILS, None) == 1     # raised once, no retry
        assert route.run(TOP_N, (1,)) == [(2,)]
        plans = route.database.plan_cache.stats()
        assert plans["entries"] - before["entries"] == 4
        assert plans["hits"] - before["hits"] == 4
        assert route.run(SELECT_ALL) == [(2, "2"), (8, "x"), (20, "twenty")]
    finally:
        route.close()


@pytest.mark.parametrize("plan_cache", [None, 0], ids=["cached", "uncached"])
@pytest.mark.parametrize("kind", ROUTES)
def test_executemany_binds_once_per_type_run(monkeypatch, kind, plan_cache):
    """Three same-typed sets share one bind; a warm plan needs none; a
    value-dependent plan binds once per set, not once more for the run."""
    binds = []
    original = Binder.bind_statement

    def counting(self, statement):
        binds.append(type(statement).__name__)
        return original(self, statement)

    monkeypatch.setattr(Binder, "bind_statement", counting)
    config = {} if plan_cache is None else {"plan_cache_entries": plan_cache}
    route = Route(kind, config)
    try:
        del binds[:]
        assert route.run_many(UPDATE, [(10, 1), (10, 2), (10, 3)]) == 3
        assert binds == ["UpdateStatement"]
        del binds[:]
        assert route.run_many(UPDATE, [(5, 11), (5, 12), (5, 99)]) == 2
        assert len(binds) == (0 if plan_cache is None else 1)
        assert route.run(SELECT_ALL) == [(13, "x"), (16, "1"), (17, "2")]
        # ``LIMIT ?`` puts each set's value in its plan: one bind per set.
        route.run("CREATE TABLE u (a INTEGER)")
        del binds[:]
        assert route.run_many("INSERT INTO u SELECT a FROM t LIMIT ?",
                              [(1,), (2,)]) == 3
        assert binds == ["InsertStatement"] * 2
    finally:
        route.close()


def test_result_cache_owns_private_copies():
    """A client writing into its zero-copy arrays (or ``fetch_chunk``
    decoding a coded VARCHAR vector in place) must not change what another
    session reads from the result cache."""
    with repro.serve() as server:
        with server.session("writer") as first, \
                server.session("reader") as second:
            first.execute("CREATE TABLE t (a BIGINT, s VARCHAR)")
            first.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'z')")
            sql = "SELECT a, s FROM t ORDER BY a"
            expected = [(1, "x"), (2, "y"), (3, "z")]
            filled = first.execute(sql).fetch_numpy()
            filled["a"][:] = -5
            filled["s"][:] = "clobbered"
            hit = second.execute(sql).fetch_numpy()
            assert server.database.result_cache.stats()["hits"] == 1
            np.testing.assert_array_equal(hit["a"], [1, 2, 3])
            assert list(hit["s"]) == ["x", "y", "z"]
            hit["a"][:] = -7
            hit["s"][:] = "again"
            assert first.execute(sql).fetchall() == expected
            assert second.execute(sql).fetchall() == expected
            assert server.database.result_cache.stats()["hits"] == 3


@pytest.mark.parametrize("stream", [False, True], ids=["eager", "stream"])
def test_run_time_error_aborts_explicit_transaction(stream):
    """One abort policy: eager and streaming both end the transaction and
    both log the exception class exactly once."""
    route = Route("connection")
    con = route.connection
    try:
        route.database.statement_log.clear()
        con.execute("BEGIN")
        con.execute("INSERT INTO t VALUES (4, '4')")
        with pytest.raises(repro.ConversionError):
            con.execute(RUN_FAILS, stream=stream).fetchall()
        assert not con.in_transaction
        assert con.execute("SELECT count(*) FROM t").fetchvalue() == 3
        errors = [record.error
                  for record in route.database.statement_log.records()
                  if record.sql == RUN_FAILS]
        assert errors == ["ConversionError"]
    finally:
        route.close()


def test_session_totals_equal_its_statement_log_rows():
    with repro.serve() as server:
        with server.session("ledger") as session:
            session.execute("CREATE TABLE t (a INTEGER)")
            session.execute("INSERT INTO t VALUES (1); INSERT INTO t VALUES "
                            "(2); SELECT a FROM t")
            session.executemany("INSERT INTO t VALUES (?)", [(3,), (4,)])
            assert len(session.execute("SELECT a FROM t").fetchall()) == 4
            with pytest.raises(repro.BinderError):
                session.execute("SELECT nope FROM t")
            bills = [record for record
                     in server.database.statement_log.records()
                     if record.session_id == session.session_id]
            assert len(bills) == 7  # executemany is one statement
            stats = session.stats()
            assert stats["statements"] == 5 and stats["errors"] == 1
            # One count row per CREATE/INSERT/executemany (4), plus the
            # SELECTs' 2 + 4.
            assert stats["rows_returned"] \
                == sum(bill.rows_out for bill in bills) == 4 + 2 + 4
            for total in ("wall_ms", "cpu_ms", "rows_scanned",
                          "buffer_hits", "buffer_misses"):
                assert stats[total] == pytest.approx(
                    sum(getattr(bill, total) for bill in bills))
            row = server.session("reader").execute(
                "SELECT rows_returned, wall_ms FROM repro_sessions() "
                "WHERE name = 'ledger'").fetchone()
            assert row == (stats["rows_returned"],
                           pytest.approx(stats["wall_ms"]))


# -- cached DML: what a shared INSERT/UPDATE/DELETE plan must never do -------
CACHED_UPDATE = "UPDATE u SET b = b + ? WHERE a = ?"


def test_ddl_between_runs_of_a_cached_update_replans():
    """A DROP + CREATE with the columns reordered moves the catalog version:
    the next run binds afresh and writes the column the new table names."""
    con = repro.connect()
    con.execute("CREATE TABLE u (a INTEGER, b INTEGER)")
    con.execute("INSERT INTO u VALUES (1, 10)")
    con.execute(CACHED_UPDATE, (1, 1))
    con.execute(CACHED_UPDATE, (1, 1))
    assert con.database.plan_cache.stats()["hits"] == 1
    con.execute("DROP TABLE u")
    con.execute("CREATE TABLE u (b INTEGER, a INTEGER)")
    con.execute("INSERT INTO u VALUES (100, 1)")
    before = con.database.plan_cache.stats()
    assert con.execute(CACHED_UPDATE, (5, 1)).rowcount == 1
    assert con.execute("SELECT a, b FROM u").fetchall() == [(1, 105)]
    assert con.database.plan_cache.stats()["invalidations"] \
        == before["invalidations"] + 1
    con.close()


def test_write_write_conflict_raises_on_a_cached_plan():
    con = repro.connect()
    other = con.duplicate()
    con.execute("CREATE TABLE u (a INTEGER, b INTEGER)")
    con.execute("INSERT INTO u VALUES (1, 0)")
    other.execute(CACHED_UPDATE, (1, 1))                   # fill
    con.execute("BEGIN")
    con.execute(CACHED_UPDATE, (10, 1))                    # uncommitted write
    hits = con.database.plan_cache.stats()["hits"]
    with pytest.raises(repro.TransactionConflict):
        other.execute(CACHED_UPDATE, (100, 1))
    assert con.database.plan_cache.stats()["hits"] == hits + 1
    con.execute("COMMIT")
    assert other.execute("SELECT b FROM u").fetchall() == [(11,)]
    con.close()


@pytest.mark.parametrize("kind", ROUTES)
def test_the_same_update_twice_writes_twice(kind):
    """A cached UPDATE is never answered from the result cache."""
    route = Route(kind)
    try:
        results = route.database.result_cache
        before = results.stats()
        twice = "UPDATE t SET a = a + ? WHERE s = ?"
        assert route.run(twice, (100, "1")) == [(1,)]
        assert route.run(twice, (100, "1")) == [(1,)]
        assert route.run(SELECT_ALL) == [(2, "2"), (3, "x"), (201, "1")]
        after = results.stats()
        # Only the SELECT reached the result cache (cursors always stream).
        probes = 0 if kind == "cursor" else 1
        assert after["hits"] + after["misses"] \
            == before["hits"] + before["misses"] + probes
        assert after["entries"] == before["entries"] + probes
    finally:
        route.close()


@pytest.mark.parametrize("warm", [False, True], ids=["fill", "hit"])
def test_streamed_update_has_written_when_execute_returns(monkeypatch, warm):
    from repro.storage.table_data import TableData

    writes = []
    original = TableData.update_rows

    def counting(self, *args, **kwargs):
        writes.append(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(TableData, "update_rows", counting)
    route = Route("connection")
    con = route.connection
    try:
        if warm:
            con.execute(UPDATE, (0, 1))
            del writes[:]
        result = con.execute(UPDATE, (10, 1), stream=True)
        assert writes == [1]
        assert result.fetchall() == [(1,)]
        assert con.execute("SELECT a FROM t ORDER BY a").fetchall() \
            == [(2,), (3,), (11,)]
    finally:
        route.close()


def _reachable(root):
    """Every object a cached plan reaches, short of table storage."""
    from repro.catalog.entry import TableEntry

    seen, stack = set(), [root]
    while stack:
        node = stack.pop()
        if id(node) in seen or isinstance(node, (TableEntry, type)) \
                or callable(node) and not hasattr(node, "__dict__"):
            continue
        seen.add(id(node))
        yield node
        if isinstance(node, dict):
            stack.extend(node.keys())
            stack.extend(node.values())
        elif isinstance(node, (list, tuple, set, frozenset)):
            stack.extend(node)
        elif not isinstance(node, (str, bytes, int, float, np.ndarray)):
            stack.extend(vars(node).values() if hasattr(node, "__dict__")
                         else ())
            for cls in type(node).__mro__:
                for slot in getattr(cls, "__slots__", ()):
                    if hasattr(node, slot):
                        stack.append(getattr(node, slot))


def test_a_cached_plan_holds_no_parameter_values():
    from repro.types import Vector

    con = repro.connect()
    con.execute("CREATE TABLE w (a BIGINT, s VARCHAR)")
    con.executemany("INSERT INTO w VALUES (?, ?)",
                    [(918273646, "needle-two"), (918273647, "needle-three")])
    con.execute("INSERT INTO w VALUES (?, ?)", (918273645, "needle-one"))
    con.execute("UPDATE w SET s = ? WHERE a = ?", ("needle-four", 918273646))
    con.executemany("DELETE FROM w WHERE a = ? OR s = ?",
                    [(918273647, "needle-five"), (1, "needle-six")])
    con.execute("SELECT a FROM w WHERE s = ?", ("needle-seven",))
    entries = con.database.plan_cache._entries
    assert len(entries) == 4  # executemany shares the INSERT plan
    assert con.execute("SELECT a, s FROM w ORDER BY a").fetchall() \
        == [(918273645, "needle-one"), (918273646, "needle-four")]
    for (sql, _), entry in entries.items():
        for node in _reachable(entry):
            assert not isinstance(node, Vector), sql
            if isinstance(node, np.ndarray) and node.dtype != object:
                assert not np.isin(node, [918273645, 918273646,
                                          918273647]).any(), sql
            elif isinstance(node, (int, str)) and not isinstance(node, bool):
                assert node not in (918273645, 918273646, 918273647) \
                    and not str(node).startswith("needle"), sql
    con.close()


@pytest.mark.parametrize("many", [False, True], ids=["execute", "many"])
def test_a_ddl_between_lookup_and_begin_replans(monkeypatch, many):
    """A DROP + CREATE that commits after the plan-cache lookup but before
    the statement's transaction begins: the hit is stale for that snapshot,
    so the UPDATE binds afresh instead of writing the dropped table."""
    from repro.transaction.manager import TransactionManager

    con = repro.connect()
    other = con.duplicate()
    con.execute("CREATE TABLE u (a INTEGER, b INTEGER)")
    con.execute("INSERT INTO u VALUES (1, 10)")
    con.execute(CACHED_UPDATE, (1, 1))                     # fill
    original = TransactionManager.begin
    raced = []

    def begin(self):
        if not raced:
            raced.append(True)
            other.execute("DROP TABLE u")
            other.execute("CREATE TABLE u (b INTEGER, a INTEGER)")
            other.execute("INSERT INTO u VALUES (100, 1)")
        return original(self)

    monkeypatch.setattr(TransactionManager, "begin", begin)
    hits = con.database.plan_cache.stats()["hits"]
    run = con.executemany if many else con.execute
    assert run(CACHED_UPDATE, [(5, 1)] if many else (5, 1)).rowcount == 1
    assert raced and con.database.plan_cache.stats()["hits"] == hits + 1
    assert con.execute("SELECT a, b FROM u").fetchall() == [(1, 105)]
    con.close()
