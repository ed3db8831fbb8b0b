"""``transfer_bulk``: moving data between the engine and the host process.

One closed-loop client over an in-memory 200k-row x 5-column table (BIGINT
key, DOUBLE, INTEGER, low-cardinality VARCHAR, DOUBLE with 10 % NULL).  An op
is one *round trip* through every hand-over path, bulk beside value-at-a-time:

* export: the full table via ``fetch_numpy()``; the same streamed via
  ``execute(stream=True)`` + ``fetch_chunk()``; a 6.5k-row window via
  ``fetchall()``; a 6.5k-row window via a cursor's ``fetchmany(1000)``;
* import: ``append_numpy`` of 75k rows into a fresh scratch table;
  ``executemany`` of 100 row tuples into a sink table.

Every export is compared with the source arrays, every import with a
row-count / sum query, outside the timed region.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

import repro
from spans import Tracer
from workload import Digest, RunResult, Workload, closed_loop

TABLE_ROWS = 200_000
WINDOW_ROWS = 6_500      # rows handed over by each value-at-a-time export
APPEND_ROWS = 75_000
TUPLE_ROWS = 100
KEY_BASE = 10_000_000_000  # keys do not fit 32 bits
COLUMNS = ("a", "b", "c", "s", "d")
DDL = "(a BIGINT, b DOUBLE, c INTEGER, s VARCHAR, d DOUBLE)"
SELECT = "SELECT a, b, c, s, d FROM src"
WINDOW = SELECT + " WHERE a >= ? AND a < ?"


class TransferBulk(Workload):
    name = "transfer_bulk"
    nominal_ops = 100
    rows_per_op = (f"{2 * TABLE_ROWS:,} rows out in bulk, "
                   f"{2 * WINDOW_ROWS:,} out row-wise, {APPEND_ROWS:,} in "
                   f"in bulk, {TUPLE_ROWS} in row-wise")

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 3])
        rows = self.rows(TABLE_ROWS)
        self.window = max(16, int(WINDOW_ROWS * self.scale))
        self.append_rows = max(32, int(APPEND_ROWS * self.scale))
        self.tuple_rows = max(4, int(TUPLE_ROWS * min(1.0, self.scale * 4)))
        words = np.array([f"w{i:02d}" for i in range(16)], dtype=object)
        self.source = {
            "a": KEY_BASE + rng.permutation(rows).astype(np.int64),
            "b": rng.normal(size=rows),
            "c": rng.integers(0, 1000, rows).astype(np.int32),
            "s": words[rng.integers(0, len(words), rows)],
            "d": rng.normal(size=rows),
        }
        self.valid_d = rng.random(rows) >= 0.1
        self.row_bytes = 8 + 8 + 4 + 3 + 8
        #: Per op: start of the two export windows, of the appended slice,
        #: and of the executemany slice.
        self.ops = [(int(rng.integers(0, rows - self.window)),
                     int(rng.integers(0, rows - self.window)),
                     int(rng.integers(0, rows - self.append_rows)),
                     int(rng.integers(0, rows - self.tuple_rows)))
                    for _ in range(self.total_ops)]
        digest = Digest(self.name, self.seed, self.total_ops)
        digest.add(self.source)
        digest.add(self.valid_d)
        digest.add(self.ops)
        self.digest = digest.hexdigest()
        self.by_key = np.argsort(self.source["a"])  # key order -> row number

        self.con = repro.connect()
        for table in ("src", "rowsink"):
            self.con.execute(f"CREATE TABLE {table} {DDL}")
        with self.con.appender("src") as appender:
            appender.append_numpy(self.source, {"d": self.valid_d})
        self.sink_rows = 0
        self.sink_sum = 0

    def _tuples(self, start: int, count: int) -> List[Tuple[Any, ...]]:
        """Source rows ``start .. start+count-1`` as Python tuples."""
        picked = slice(start, start + count)
        return [(a, b, c, s, d if ok else None) for a, b, c, s, d, ok in zip(
            *(self.source[name][picked].tolist() for name in COLUMNS),
            self.valid_d[picked].tolist())]

    # -- the op -----------------------------------------------------------
    def _round_trip(self, index: int) -> Dict[str, Any]:
        con = self.con
        fetch_start, cursor_start, append_start, tuple_start = self.ops[index]
        clock = time.perf_counter
        out: Dict[str, Any] = {}
        t0 = clock()
        out["numpy"] = con.execute(SELECT).fetch_numpy()
        streamed = con.execute(SELECT, stream=True)
        chunks = []
        while True:
            chunk = streamed.fetch_chunk()
            if chunk is None:
                break
            chunks.append(chunk)
        out["chunks"] = chunks
        t1 = clock()
        low = KEY_BASE + fetch_start
        out["fetchall"] = con.execute(
            WINDOW, (low, low + self.window)).fetchall()
        low = KEY_BASE + cursor_start
        cursor = con.cursor()
        cursor.execute(WINDOW, (low, low + self.window))
        fetched: List[Tuple[Any, ...]] = []
        while True:
            batch = cursor.fetchmany(1000)
            if not batch:
                break
            fetched.extend(batch)
        cursor.close()
        out["fetchmany"] = fetched
        t2 = clock()
        con.execute(f"CREATE TABLE scratch {DDL}")
        picked = slice(append_start, append_start + self.append_rows)
        with con.appender("scratch") as appender:
            appender.append_numpy(
                {name: self.source[name][picked] for name in COLUMNS},
                {"d": self.valid_d[picked]})
        t3 = clock()
        con.executemany("INSERT INTO rowsink VALUES (?, ?, ?, ?, ?)",
                        self.tuples[index])
        t4 = clock()
        out["seconds"] = (t1 - t0, t2 - t1, t3 - t2, t4 - t3)
        return out

    def _verify(self, index: int, out: Dict[str, Any]) -> Optional[str]:
        fetch_start, cursor_start, append_start, tuple_start = self.ops[index]
        source, valid = self.source, self.valid_d
        problem = self._check_columns("fetch_numpy", {
            name: np.ma.getdata(out["numpy"][name]) for name in COLUMNS},
            ~np.ma.getmaskarray(out["numpy"]["d"]))
        if problem is None:
            chunks = out["chunks"]
            problem = self._check_columns("fetch_chunk", {
                name: np.concatenate([chunk.columns[position].data
                                      for chunk in chunks])
                for position, name in enumerate(COLUMNS)},
                np.concatenate([chunk.columns[4].validity
                                for chunk in chunks]))
        for label, start in (("fetchall", fetch_start),
                             ("fetchmany", cursor_start)):
            if problem is None:
                rows = self.by_key[start:start + self.window]
                want = [(a, b, c, s, d if ok else None)
                        for a, b, c, s, d, ok in zip(
                            *(source[name][rows].tolist() for name in COLUMNS),
                            valid[rows].tolist())]
                if sorted(out[label], key=lambda row: row[0]) != want:
                    problem = f"{label} window at {start} differs from source"
        picked = slice(append_start, append_start + self.append_rows)
        if problem is None:
            got = self.con.execute(
                "SELECT count(*), sum(a), count(d), sum(c) FROM scratch"
            ).fetchall()[0]
            want_row = (self.append_rows, int(source["a"][picked].sum()),
                        int(valid[picked].sum()), int(source["c"][picked].sum()))
            if tuple(got) != want_row:
                problem = f"append_numpy: scratch holds {got}, want {want_row}"
        self.con.execute("DROP TABLE scratch")
        self.sink_rows += self.tuple_rows
        self.sink_sum += sum(row[0] for row in self.tuples[index])
        if problem is None:
            got = self.con.execute(
                "SELECT count(*), sum(a) FROM rowsink").fetchall()[0]
            if tuple(got) != (self.sink_rows, self.sink_sum):
                problem = (f"executemany: rowsink holds {got}, want "
                           f"{(self.sink_rows, self.sink_sum)}")
        if problem is None:
            for section, seconds in zip(
                    ("export_numpy_s", "export_rows_s", "import_numpy_s",
                     "import_rows_s"), out["seconds"]):
                self._result.count(section, seconds)
        return problem

    def _check_columns(self, label: str, got: Dict[str, np.ndarray],
                       got_valid: np.ndarray) -> Optional[str]:
        """Exported columns equal the source, in source order or any other
        (the key column says which row is which)."""
        source, valid = self.source, self.valid_d
        if len(got["a"]) != len(source["a"]):
            return f"{label}: {len(got['a'])} rows, want {len(source['a'])}"
        order = None if np.array_equal(got["a"], source["a"]) \
            else np.argsort(got["a"])[np.argsort(self.by_key)]
        for name in COLUMNS:
            column = got[name] if order is None else got[name][order]
            if name == "d":
                column_valid = got_valid if order is None else got_valid[order]
                same = np.array_equal(column_valid, valid) \
                    and np.array_equal(column[valid], source["d"][valid])
            else:
                same = np.array_equal(column, source[name])
            if not same:
                return f"{label}: column {name} differs from source"
        return None

    def run(self, first: int, count: int, tracer: Optional[Tracer] = None,
            clients: Optional[int] = None) -> RunResult:
        result = self._result = RunResult()
        # Row tuples for executemany are made here, outside the timed ops.
        self.tuples = {index: self._tuples(self.ops[index][3], self.tuple_rows)
                       for index in range(first, first + count)}
        closed_loop(result, first, count, self._round_trip, self._verify,
                    tracer)
        good = len(result.latencies_ms)
        result.count("export_numpy_rows", 2.0 * len(self.source["a"]) * good)
        result.count("export_rows_rows", 2.0 * self.window * good)
        result.count("import_numpy_rows", float(self.append_rows) * good)
        result.count("import_rows_rows", float(self.tuple_rows) * good)
        result.count("bytes", self.row_bytes * sum(
            result.counts[key] for key in (
                "export_numpy_rows", "export_rows_rows", "import_numpy_rows",
                "import_rows_rows")))
        result.count("write_attempts", (1.0 + self.tuple_rows) * count)
        return result

    def handle(self) -> Any:
        return self.con

    def close(self) -> None:
        self.con.close()
