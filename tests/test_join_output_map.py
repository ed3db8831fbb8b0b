"""The hash-join output path: unique-key probing and projection maps.

* ``BuildIndex.match`` on a build side whose keys are unique and whose
  code space fits the dense table gathers one build row per probe row
  instead of expanding match ranges; its pairs (values and order) must
  equal the general expansion's, which a brute-force nested loop spells out
  here.  A single duplicate key or a wide code space falls back.
* A column-only projection over a join becomes the join's output map; the
  join then gathers just those columns.  Inner, left, right and full joins,
  mapped and with a residual, serial and parallel, must return the same
  multiset as stdlib ``sqlite3``.
"""

import sqlite3
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.execution import keys
from repro.execution.keys import BuildIndex
from repro.types import BIGINT, Vector

_settings = settings(max_examples=80, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])

# Narrow values take the direct value->code map, wide ones binary search.
_NARROW = st.integers(0, 6)
_WIDE = st.sampled_from([-(10 ** 15), -7, 0, 3 * 10 ** 12, 10 ** 15])


def _columns(rows, width):
    return [Vector.from_values([row[c] for row in rows], BIGINT)
            for c in range(width)]


def _brute_force(probe_rows, build_rows):
    """Every (probe, build) pair with equal, NULL-free keys, probe-major."""
    pairs = [(p, b) for p, probe in enumerate(probe_rows)
             for b, build in enumerate(build_rows)
             if None not in probe and probe == build]
    return (np.array([p for p, _ in pairs], dtype=np.int64),
            np.array([b for _, b in pairs], dtype=np.int64))


def _unique_keys(rows):
    """``rows`` without a second row for any NULL-free key."""
    seen, out = set(), []
    for row in rows:
        if None in row or row not in seen:
            out.append(row)
            seen.add(row)
    return out


@st.composite
def _match_case(draw):
    width = draw(st.integers(1, 2))
    value = st.one_of(st.none(), _NARROW) if draw(st.booleans()) \
        else st.one_of(st.none(), _WIDE)
    row = st.tuples(*[value] * width)
    build = _unique_keys(draw(st.lists(row, max_size=30)))
    probe = draw(st.lists(row, max_size=30))
    return width, build, probe, draw(st.booleans())


class TestUniqueKeyMatch:
    @_settings
    @given(_match_case())
    def test_equals_general_expansion(self, case):
        width, build, probe, sparse = case
        # A zero dense-table limit sends multi-column code spaces to the
        # binary-search path.
        with mock.patch.object(keys, "_DENSE_TABLE_LIMIT",
                               0 if sparse else keys._DENSE_TABLE_LIMIT):
            index = BuildIndex(_columns(build, width))
        assert index.unique
        got = index.match(_columns(probe, width))
        want = _brute_force(probe, build)
        assert got[0].dtype == got[1].dtype == np.int64
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])

    @_settings
    @given(_match_case(), st.data())
    def test_one_duplicate_falls_back(self, case, data):
        width, build, probe, _ = case
        keyed = [row for row in build if None not in row]
        if not keyed:
            return
        build = build + [data.draw(st.sampled_from(keyed))]
        index = BuildIndex(_columns(build, width))
        assert not index.unique
        got = index.match(_columns(probe, width))
        want = _brute_force(probe, build)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])

    @pytest.mark.parametrize("sparse", [False, True])
    def test_both_code_paths_are_taken(self, sparse):
        # Six keys on a diagonal: 36 combined codes for 6 build rows.
        build = [(i, 10 ** 12 + i) for i in range(6)]
        limit = 0 if sparse else keys._DENSE_TABLE_LIMIT
        with mock.patch.object(keys, "_DENSE_TABLE_LIMIT", limit):
            index = BuildIndex(_columns(build, 2))
        assert index.unique
        assert (index._code_rows is None) == sparse
        probe = [(4, 10 ** 12 + 4), (9, 10 ** 12), (None, 10 ** 12),
                 (0, 10 ** 12), (4, 10 ** 12 + 4), (4, 10 ** 12 + 5)]
        got = index.match(_columns(probe, 2))
        assert got[0].tolist() == [0, 3, 4]
        assert got[1].tolist() == [4, 0, 4]

    def test_empty_sides(self):
        empty = BuildIndex(_columns([], 1))
        assert empty.unique
        positions, rows = empty.match(_columns([(1,), (None,)], 1))
        assert positions.size == rows.size == 0
        index = BuildIndex(_columns([(1,), (2,)], 1))
        positions, rows = index.match(_columns([], 1))
        assert positions.size == rows.size == 0


# -- SQL against sqlite3 ------------------------------------------------------

_LEFT_ROWS = 5000
_RIGHT_ROWS = 3000


def _tables():
    """A NULL-heavy left table and two right tables over the same keys:
    ``u`` has at most one row per key, ``d`` has many."""
    rng = np.random.default_rng(20261018)

    def nulled(values, share):
        return [None if drop else value.item() for value, drop
                in zip(values, rng.random(len(values)) < share)]

    left = list(zip(nulled(rng.integers(0, 600, _LEFT_ROWS), 0.2),
                    nulled(rng.integers(0, 3, _LEFT_ROWS), 0.2),
                    nulled(rng.choice(np.array(["a", "b", "c", "dd"]),
                                      _LEFT_ROWS), 0.3),
                    nulled(rng.integers(0, 400, _LEFT_ROWS) / 4.0, 0.3)))
    keys_u = rng.permutation(800)[:_RIGHT_ROWS // 4]
    unique = list(zip(nulled(keys_u, 0.1),
                      nulled(rng.integers(0, 3, len(keys_u)), 0.2),
                      nulled(rng.choice(np.array(["x", "y"]), len(keys_u)),
                             0.3),
                      nulled(rng.integers(0, 400, len(keys_u)) / 4.0, 0.3)))
    duplicate = list(zip(nulled(rng.integers(0, 800, _RIGHT_ROWS), 0.2),
                         nulled(rng.integers(0, 3, _RIGHT_ROWS), 0.2),
                         nulled(rng.choice(np.array(["x", "y"]), _RIGHT_ROWS),
                                0.3),
                         nulled(rng.integers(0, 400, _RIGHT_ROWS) / 4.0, 0.3)))
    return {"l": left, "u": unique, "d": duplicate}


_SCHEMA = "(k INTEGER, k2 INTEGER, s VARCHAR, x DOUBLE)"


@pytest.fixture(scope="module")
def oracle():
    tables = _tables()
    lite = sqlite3.connect(":memory:")
    for name, rows in tables.items():
        lite.execute(f"CREATE TABLE {name} {_SCHEMA}")
        lite.executemany(f"INSERT INTO {name} VALUES (?, ?, ?, ?)", rows)
        lite.execute(f"CREATE INDEX {name}_keys ON {name} (k, k2)")
    yield tables, lite
    lite.close()


@pytest.fixture(scope="module", params=[1, 4], ids=["threads1", "threads4"])
def engine(request, oracle):
    tables, _ = oracle
    con = repro.connect(config={"threads": request.param,
                                "morsel_size": 2048})
    for name, rows in tables.items():
        con.execute(f"CREATE TABLE {name} {_SCHEMA}")
        con.executemany(f"INSERT INTO {name} VALUES (?, ?, ?, ?)", rows)
    yield con
    con.close()


_SHAPES = {
    # A column-only projection: the join carries an output map.
    "mapped": ("SELECT r.x, l.s, r.k, l.k FROM l {join} JOIN {right} r "
               "ON l.k = r.k", True),
    "mapped_two_keys": ("SELECT l.x, r.s FROM l {join} JOIN {right} r "
                        "ON l.k = r.k AND l.k2 = r.k2", True),
    # The residual reads the full left ++ right rows, whatever the map.
    "residual": ("SELECT l.s, r.x, r.k2 FROM l {join} JOIN {right} r "
                 "ON l.k = r.k AND l.x < r.x", True),
    "residual_star": ("SELECT * FROM l {join} JOIN {right} r "
                      "ON l.k = r.k AND l.x < r.x", False),
}


@pytest.mark.parametrize("join", ["INNER", "LEFT", "RIGHT", "FULL"])
@pytest.mark.parametrize("right", ["u", "d"])
@pytest.mark.parametrize("shape", sorted(_SHAPES))
def test_join_matches_sqlite(engine, oracle, join, right, shape):
    _, lite = oracle
    template, mapped = _SHAPES[shape]
    sql = template.format(join=join, right=right)
    plan = "\n".join(row[0] for row in engine.execute("EXPLAIN " + sql)
                     .fetchall())
    assert ("out=" in plan) == mapped, plan
    got = Counter(engine.execute(sql).fetchall())
    want = Counter(lite.execute(sql).fetchall())
    assert got == want
    assert sum(want.values()) > 500


def test_explain_shows_the_map(engine):
    plan = "\n".join(row[0] for row in engine.execute(
        "EXPLAIN SELECT l.s, u.x FROM l JOIN u ON l.k = u.k").fetchall())
    physical = plan.split("-- physical plan --")[1]
    # Pruned scans read k, s and k, x: two of the four joined columns.
    assert "HASH_JOIN INNER eq=1 out=2/4" in physical
    assert "PROJECT" not in physical
