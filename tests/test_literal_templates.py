"""Literal lifting: an ad-hoc single-table SELECT runs as its ``?`` template.

A literal text that misses the plan cache is lexed once; the constants of its
WHERE comparisons, BETWEEN bounds and IN lists become the parameters of the
template text (see ``repro.sql.template``), which keys the plan cache.  The
property test holds the answers to those of the uncached engine; the fixed
cases pin what is never lifted, how the two caches key a lifted text, and that
the statement is still the raw text to everything that reports it.
"""

import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.errors import BinderError, ConversionError, ParserError
from repro.planner.binder import Binder
from repro.sql import tokenize
from repro.sql.template import lift_literals

ROWS = [
    # k, i, b, d, s
    (0, 1, 10, 0.5, "red"),
    (1, None, 20, -1.5, "blue"),
    (2, 3, None, 2.0, None),
    (3, -4, -40, None, "red"),
    (4, 5, 50, 5.5, "green"),
    (5, None, None, None, None),
    (6, 0, 0, 0.0, "blue"),
    (7, 7, 70, 7.25, "it's"),
    (8, -2, None, -2.0, "red"),
    (9, None, 90, 9.0, "green"),
]


def _load(con):
    con.execute("CREATE TABLE t (k INTEGER, i INTEGER, b BIGINT, d DOUBLE, "
                "s VARCHAR)")
    con.executemany("INSERT INTO t VALUES (?, ?, ?, ?, ?)", ROWS)
    return con


@pytest.fixture
def tcon(con):
    return _load(con)


@pytest.fixture(scope="module")
def pair():
    """The same table with the plan cache off (constants bound) and on."""
    uncached = _load(repro.connect(config={"plan_cache_entries": 0}))
    cached = _load(repro.connect())
    yield uncached, cached
    uncached.close()
    cached.close()


# -- the property -----------------------------------------------------------

def _sql_number(value):
    return repr(value)


numbers = st.one_of(st.integers(-60, 100), st.floats(-60, 100).map(
    lambda value: round(value, 2)))
strings = st.sampled_from(["red", "blue", "green", "it's", "", "zzz"])
operators = st.sampled_from(["=", "==", "<>", "!=", "<", "<=", ">", ">="])


@st.composite
def predicates(draw):
    column = draw(st.sampled_from(["i", "b", "d", "s"]))
    literal = strings.map(lambda text: "'" + text.replace("'", "''") + "'") \
        if column == "s" else numbers.map(_sql_number)
    kind = draw(st.sampled_from(["compare", "between", "in"]))
    negated = draw(st.booleans())
    if kind == "compare":
        return f"{column} {draw(operators)} {draw(literal)}"
    if kind == "between":
        return (f"{column} {'NOT ' if negated else ''}BETWEEN "
                f"{draw(literal)} AND {draw(literal)}")
    items = draw(st.lists(literal, min_size=1, max_size=4))
    return f"{column} {'NOT ' if negated else ''}IN ({', '.join(items)})"


@st.composite
def statements(draw):
    where = draw(predicates())
    for _ in range(draw(st.integers(0, 2))):
        where = f"{where} {draw(st.sampled_from(['AND', 'OR']))} " \
                f"{draw(predicates())}"
    shape = draw(st.sampled_from([
        "SELECT k, i, b, d, s FROM t WHERE {} ORDER BY k",
        "SELECT count(*) AS n, sum(d), min(s) FROM t WHERE {}",
        "SELECT s, count(*) FROM t WHERE {} GROUP BY s ORDER BY s",
    ]))
    return shape.format(where)


@settings(deadline=None, max_examples=150)
@given(sql=statements())
def test_lifted_statement_answers_like_its_literal_text(pair, sql):
    uncached, cached = pair
    expected = uncached.execute(sql)
    got = cached.execute(sql)
    assert got.columns == expected.columns
    assert got.fetchall() == expected.fetchall()


def test_lifting_shares_one_plan_across_literals(tcon):
    plans = tcon.database.plan_cache
    before = plans.stats()
    for low in (1, 2, 3, -4):
        tcon.execute(f"SELECT count(*) FROM t WHERE i > {low}").fetchall()
    after = plans.stats()
    assert after["entries"] - before["entries"] == 1
    assert (after["misses"] - before["misses"],
            after["hits"] - before["hits"]) == (1, 3)


def test_template_text_shares_the_entry_with_qmark_clients(tcon):
    tcon.execute("SELECT count(*) FROM t WHERE i > 1").fetchall()
    before = tcon.database.plan_cache.stats()
    assert tcon.execute("SELECT count(*) FROM t WHERE i > ?",
                        (3,)).fetchall() == [(2,)]
    after = tcon.database.plan_cache.stats()
    assert after["hits"] - before["hits"] == 1
    assert after["entries"] == before["entries"]


def test_int_and_float_literals_bind_separate_plans(tcon):
    before = tcon.database.plan_cache.stats()
    assert tcon.execute("SELECT count(*) FROM t WHERE d > 2").fetchall() \
        == [(3,)]
    assert tcon.execute("SELECT count(*) FROM t WHERE d > 2.0").fetchall() \
        == [(3,)]
    after = tcon.database.plan_cache.stats()
    assert after["entries"] - before["entries"] == 2


# -- what is never lifted ----------------------------------------------------

NEVER_LIFTED = [
    ("SELECT k FROM t ORDER BY k LIMIT {}", (5, 6)),
    ("SELECT k, i FROM t ORDER BY {}", (1, 2)),
    ("SELECT i, i AS j FROM t GROUP BY {}", (1, 2)),
    ("SELECT k FROM t WHERE CAST('2020-01-0{}' AS DATE) IS NOT NULL", (1, 2)),
    ("SELECT k FROM t WHERE abs(i) > abs({})", (1, 2)),
    ("SELECT k FROM t WHERE i > {} + 1", (1, 2)),
    ("SELECT k FROM t WHERE {} = 0", (1, 0)),
    ("SELECT k, {} FROM t", (1, 2)),
    ("SELECT t.k FROM t JOIN t AS u ON t.k = u.k WHERE u.i > {}", (1, 2)),
    ("SELECT t.k FROM t, t AS u WHERE t.k = u.k AND u.i > {}", (1, 2)),
    ("SELECT k FROM t WHERE i > (SELECT min(i) FROM t WHERE b > {})", (1, 2)),
    ("SELECT k FROM t WHERE i IN (SELECT i FROM t WHERE b > {})", (1, 2)),
]


@pytest.mark.parametrize("shape,literals", NEVER_LIFTED,
                         ids=[shape for shape, _ in NEVER_LIFTED])
def test_never_lifted(tcon, shape, literals):
    # Two texts that differ only in the literal: lifted, they would share
    # one entry; kept, each text is its own.
    plans = tcon.database.plan_cache
    before = plans.stats()
    for literal in literals:
        text = shape.format(literal)
        assert lift_literals(text, tokenize(text)) is None
        tcon.execute(text).fetchall()
    assert plans.stats()["entries"] - before["entries"] == 2


def test_typed_literal_is_not_lifted(tcon):
    # The grammar has no typed literals: the text fails as it always did.
    text = "SELECT k FROM t WHERE k > 1 AND DATE '2020-01-01' IS NOT NULL"
    template = lift_literals(text, tokenize(text))
    assert template.values == (1,) and "DATE '2020-01-01'" in template.text
    with pytest.raises(ParserError):
        tcon.execute(text)


def test_text_with_markers_is_not_lifted(tcon):
    plans = tcon.database.plan_cache
    before = plans.stats()
    for literal in (1, 2):
        tcon.execute(f"SELECT k FROM t WHERE i > ? AND b > {literal}",
                     (0,)).fetchall()
    assert plans.stats()["entries"] - before["entries"] == 2


def test_view_in_from_is_not_lifted(tcon):
    tcon.execute("CREATE VIEW v AS SELECT t.k, u.i FROM t JOIN t AS u "
                 "ON t.k = u.k")
    plans = tcon.database.plan_cache
    before = plans.stats()
    assert tcon.execute("SELECT k FROM v WHERE i > 4 ORDER BY k").fetchall() \
        == [(4,), (7,)]
    assert tcon.execute("SELECT k FROM v WHERE i > 5 ORDER BY k").fetchall() \
        == [(7,)]
    assert plans.stats()["entries"] - before["entries"] == 2


def test_join_keeps_its_constant_bound_plan(tcon):
    sql = "SELECT t.k FROM t JOIN t AS u ON t.k = u.k WHERE u.i > 3"
    explained = "\n".join(row[0] for row in tcon.execute(
        "EXPLAIN " + sql).fetchall())
    logical = explained.split("-- physical plan --")[0]
    assert tcon.execute(sql).fetchall() == [(4,), (7,)]
    database = tcon.database
    entry = database.plan_cache.lookup(
        (sql, ()), database.transaction_manager.catalog_version)
    assert entry is not None  # keyed with no parameter types: no slots
    assert "-- logical plan --\n" + entry.plan.explain() + "\n" == logical


# -- how the caches and the log see a lifted text ----------------------------

def test_same_template_never_shares_a_result(tcon):
    results = tcon.database.result_cache
    before = results.stats()
    assert tcon.execute("SELECT k FROM t WHERE i > 4 ORDER BY k").fetchall() \
        == [(4,), (7,)]
    assert tcon.execute("SELECT k FROM t WHERE i > 5 ORDER BY k").fetchall() \
        == [(7,)]
    assert tcon.execute("SELECT k FROM t WHERE i > 4 ORDER BY k").fetchall() \
        == [(4,), (7,)]
    after = results.stats()
    assert after["entries"] - before["entries"] == 2
    assert after["hits"] - before["hits"] == 1


def test_template_miss_binds_slots_and_is_cached(tcon, monkeypatch):
    binders = []
    original = Binder.bind_statement

    def spy(self, statement):
        binders.append(self)
        return original(self, statement)

    monkeypatch.setattr(Binder, "bind_statement", spy)
    tcon.execute("SELECT k FROM t WHERE i BETWEEN 1 AND 5 "
                 "AND s IN ('red', 'green')").fetchall()
    tcon.execute("SELECT k FROM t WHERE i BETWEEN 0 AND 9 "
                 "AND s IN ('blue', 'red')").fetchall()
    assert len(binders) == 1
    assert binders[0].parameterize and not binders[0].value_dependent


def test_statement_log_keeps_the_raw_text(tcon):
    texts = ["SELECT k FROM t WHERE i > 4", "SELECT k FROM t WHERE i > -2"]
    for text in texts:
        tcon.execute(text).fetchall()
    logged = [row[0] for row in tcon.execute(
        "SELECT sql FROM repro_statement_log()").fetchall()]
    assert logged[-2:] == texts


def test_too_few_parameters_still_raises_the_binder_error(tcon):
    for parameters in (None, ()):
        with pytest.raises(BinderError, match=r"expects at least 1 "
                                              r"parameter\(s\), got 0"):
            tcon.execute("SELECT k FROM t WHERE i > ? AND b > 5", parameters)


def test_out_of_range_literal_still_fails_like_its_text(tcon):
    with pytest.raises(ConversionError):
        tcon.execute("SELECT k FROM t WHERE b > 99999999999999999999")
    # -2147483648 types as INTEGER, its literal 2147483648 as BIGINT: kept.
    text = "SELECT k FROM t WHERE i > -2147483648 ORDER BY k"
    assert lift_literals(text, tokenize(text)) is None
    assert len(tcon.execute(text).fetchall()) == 7


# -- accounting --------------------------------------------------------------

def test_one_outcome_per_statement():
    server = repro.serve()
    try:
        _load(server.database.connect())
        plans = server.database.plan_cache
        before = plans.stats()
        texts = [
            "SELECT count(*) FROM t WHERE i > 1",      # template miss
            "SELECT count(*) FROM t WHERE i > 2",      # template hit
            "SELECT count(*) FROM t WHERE i > 2",      # template hit
            "SELECT count(*) FROM t",                  # raw miss, no literal
            "SELECT count(*) FROM t",                  # raw hit
            "SELECT count(*) FROM t WHERE 1 = 0",      # raw miss, kept
        ]
        with server.session() as session:
            for text in texts:
                session.execute(text).fetchall()
            session.execute("SELECT count(*) FROM t WHERE i > ?", (3,))
            serving = dict(session.execute(
                "SELECT name, value FROM repro_serving()").fetchall())
        after = plans.stats()
        hits = after["hits"] - before["hits"]
        misses = after["misses"] - before["misses"]
        # Seven SELECTs, then repro_serving()'s own (a miss it counts).
        assert (hits, misses) == (4, 4)
        assert serving["plan_cache.hits"] == after["hits"]
        assert serving["plan_cache.misses"] == after["misses"]
    finally:
        server.close()


@pytest.mark.parametrize("prefix", ["-- note\n", "/* c */ ", " /* a */\n-- b\n"])
def test_select_after_leading_comments_is_cached(tcon, prefix):
    plans = tcon.database.plan_cache
    before = plans.stats()
    for _ in range(3):
        assert tcon.execute(prefix + "SELECT count(*) FROM t").fetchall() \
            == [(10,)]
    after = plans.stats()
    assert after["entries"] - before["entries"] == 1
    assert (after["misses"] - before["misses"],
            after["hits"] - before["hits"]) == (1, 2)


def test_concurrent_literal_clients_share_one_plan_and_count_each_once(tcon):
    """Threads sending literal texts of one template through the shared
    caches: every answer is right, one plan serves them, and every
    statement counts exactly one hit or miss."""
    expected = {low: sum(1 for row in ROWS if row[1] is not None
                         and row[1] > low) for low in range(-5, 8)}
    plans = tcon.database.plan_cache
    before = plans.stats()
    errors = []
    statements = 40

    def client(offset):
        connection = tcon.duplicate()
        try:
            for step in range(statements):
                low = (offset + step) % 13 - 5
                got = connection.execute(
                    f"SELECT count(*) FROM t WHERE i > {low}").fetchall()
                if got != [(expected[low],)]:
                    errors.append((low, got))
        except Exception as error:  # reported below, with the thread's args
            errors.append((offset, repr(error)))

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=client, args=(offset,))
                   for offset in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    after = plans.stats()
    assert after["hits"] + after["misses"] \
        - before["hits"] - before["misses"] == 6 * statements
    assert after["entries"] - before["entries"] == 1
