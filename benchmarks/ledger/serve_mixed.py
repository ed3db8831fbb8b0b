"""``serve_mixed``: short served sessions, reads beside writes.

``repro.serve()`` with 2 closed-loop client threads (= ``nproc`` of the
sandbox; never more).  Each client opens a session, runs 4 statements, closes
it, and goes on to its next session.  An op is one *statement*.  The table
starts at 2,000 rows and grows by the inserts.

Mix: 80 % reads -- of which 70 % are five repeated parameterized templates
over a small parameter domain (plan cache hits; result cache hits only until
the next write), 25 % literal SQL texts never seen before (plan cache misses
and evictions) and 5 % a ``LIMIT ?`` template that takes the engine's uncached
path -- and 20 % writes: single-row ``INSERT`` (50 %), 10-row ``executemany``
(10 %), ``UPDATE ... WHERE category = ?`` (40 %).  A ``TransactionConflict``
is retried up to 5 times with back-off and counted.

Oracles: every read has the shape its template promises; at the end the table
holds exactly the seed rows plus the acknowledged inserts, and every read
template agrees with NumPy over the final table contents.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

import repro
from spans import Tracer
from workload import Digest, RunResult, Workload, close_enough

SEED_ROWS = 2_000
CATEGORIES = 10
STATEMENTS_PER_SESSION = 4
CLIENTS = 2
MAX_ATTEMPTS = 5
FIRST_INSERTED_ID = 1_000_000_000  # ids are handed out by the generator


def _by_category(category: np.ndarray, keep: np.ndarray) -> List[int]:
    return [code for code in range(CATEGORIES)
            if (keep & (category == code)).any()]


def _groups_above(category, amount, threshold):
    keep = amount > threshold
    return [(code, int((keep & (category == code)).sum()),
             float(amount[keep & (category == code)].sum()))
            for code in _by_category(category, keep)]


def _count_in(category, amount, code):
    return [(int((category == code).sum()),)]


def _stats_in(category, amount, code):
    picked = amount[category == code]
    if not len(picked):
        return [(None, None, None)]
    return [(float(picked.mean()), float(picked.min()), float(picked.max()))]


def _average_between(category, amount, low, high):
    keep = (amount >= low) & (amount <= high)
    return [(code, float(amount[keep & (category == code)].mean()))
            for code in _by_category(category, keep)]


def _count_below_outside(category, amount, threshold, code):
    return [(int(((amount < threshold) & (category != code)).sum()),)]


#: (sql, parameter maker, least rows, most rows, NumPy reference over the
#: table's category and amount columns)
TEMPLATES = (
    ("SELECT category, count(*), sum(amount) FROM events WHERE amount > ? "
     "GROUP BY category ORDER BY category",
     lambda rng: (float(rng.randint(0, 50)),), 1, CATEGORIES, _groups_above),
    ("SELECT count(*) FROM events WHERE category = ?",
     lambda rng: (rng.randrange(CATEGORIES),), 1, 1, _count_in),
    ("SELECT avg(amount), min(amount), max(amount) FROM events "
     "WHERE category = :cat",
     lambda rng: {"cat": rng.randrange(CATEGORIES)}, 1, 1, _stats_in),
    ("SELECT category, avg(amount) FROM events WHERE amount BETWEEN ? AND ? "
     "GROUP BY category ORDER BY category",
     lambda rng: (float(rng.randint(0, 20)), float(rng.randint(60, 100))),
     1, CATEGORIES, _average_between),
    ("SELECT count(*) FROM events WHERE amount < ? AND category <> ?",
     lambda rng: (float(rng.randint(10, 90)), rng.randrange(CATEGORIES)),
     1, 1, _count_below_outside),
)
TOP_N = ("SELECT id, amount FROM events WHERE category = ? "
         "ORDER BY amount DESC, id LIMIT ?")
INSERT = "INSERT INTO events VALUES (?, ?, ?)"
UPDATE = "UPDATE events SET amount = amount + ? WHERE category = ?"

Op = Tuple[str, str, Any, int, int]  # kind, sql, parameters, least, most


class ServeMixed(Workload):
    name = "serve_mixed"
    tail = 99.0
    clients = CLIENTS
    granule = STATEMENTS_PER_SESSION
    nominal_ops = 24_000
    rows_per_op = ("1 statement over a 2,000-row table growing by ~0.3 "
                   "rows per op; 1-10 result rows")

    # -- inputs -----------------------------------------------------------
    def _session_ops(self, rng: random.Random, next_id: List[int],
                     session: int) -> List[Op]:
        ops: List[Op] = []
        for position in range(STATEMENTS_PER_SESSION):
            draw = rng.random()
            if draw < 0.80:
                kind = rng.random()
                if kind < 0.70:
                    sql, make, least, most, _ = rng.choice(TEMPLATES)
                    ops.append(("read", sql, make(rng), least, most))
                elif kind < 0.95:
                    # The negative literal makes the text unique for ever.
                    unique = session * STATEMENTS_PER_SESSION + position + 1
                    ops.append(("read",
                                "SELECT count(*), sum(amount) FROM events "
                                f"WHERE amount > {rng.randint(0, 9000) / 100} "
                                f"AND id <> {-unique}", None, 1, 1))
                else:
                    limit = rng.randint(1, 10)
                    ops.append(("read", TOP_N,
                                (rng.randrange(CATEGORIES), limit), 0, limit))
                continue
            kind = rng.random()
            count = 1 if kind < 0.50 else 10 if kind < 0.60 else 0
            if count:
                rows = [(next_id[0] + offset, rng.randrange(CATEGORIES),
                         float(rng.randint(0, 100)))
                        for offset in range(count)]
                next_id[0] += count
                if count == 1:
                    ops.append(("insert", INSERT, rows[0], 1, 1))
                else:
                    ops.append(("many", INSERT, rows, count, count))
            else:
                ops.append(("update", UPDATE,
                            (1.0, rng.randrange(CATEGORIES)), 0, 0))
        return ops

    def setup(self) -> None:
        rng = random.Random(self.seed * 1000 + 17)
        self.seed_rows = self.rows(SEED_ROWS)
        seed_table = {
            "id": np.arange(self.seed_rows, dtype=np.int64),
            "category": np.array([rng.randrange(CATEGORIES)
                                  for _ in range(self.seed_rows)],
                                 dtype=np.int32),
            "amount": np.array([float(rng.randint(0, 100))
                                for _ in range(self.seed_rows)]),
        }
        next_id = [FIRST_INSERTED_ID]
        self.sessions = [
            self._session_ops(rng, next_id, session)
            for session in range(self.total_ops // STATEMENTS_PER_SESSION)]
        digest = Digest(self.name, self.seed, self.total_ops)
        digest.add(seed_table)
        digest.add(self.sessions)
        self.digest = digest.hexdigest()
        self.acknowledged_ids: List[int] = []

        self.server = repro.serve()
        with self.server.session("setup") as session:
            session.execute("CREATE TABLE events (id BIGINT, category INTEGER, "
                            "amount DOUBLE)")
            with session.connection.appender("events") as appender:
                appender.append_numpy(seed_table)

    # -- the op -----------------------------------------------------------
    @staticmethod
    def _statement(session: Any, op: Op, tally: Dict[str, int]
                   ) -> Optional[str]:
        """Run one statement; a message if it failed, None if it is good."""
        kind, sql, parameters, least, most = op
        for attempt in range(MAX_ATTEMPTS):
            try:
                if kind == "many":
                    tally["write_attempts"] += 1
                    result = session.executemany(sql, parameters)
                    result.close()
                    return None
                if kind != "read":
                    tally["write_attempts"] += 1
                rows = session.execute(sql, parameters).fetchall()
                if kind == "read" and not least <= len(rows) <= most:
                    return (f"{sql!r} returned {len(rows)} rows, want "
                            f"{least}..{most}")
                return None
            except repro.TransactionConflict:
                # First-updater-wins MVCC: the later writer backs off and
                # retries, like a real client.
                tally["conflicts"] += 1
                time.sleep(0.001 * (attempt + 1))
            except repro.Error as error:
                return f"{sql!r}: {type(error).__name__}: {error}"
        return f"{sql!r}: TransactionConflict, {MAX_ATTEMPTS} attempts exhausted"

    def _client(self, sessions: List[int], tracer: Optional[Tracer],
                barrier: threading.Barrier, out: Dict[str, Any]) -> None:
        clock = time.perf_counter
        latencies: List[float] = out["latencies"]
        tally: Dict[str, int] = out["tally"]
        barrier.wait()
        out["started"] = clock()
        for number in sessions:
            root = tracer.begin("session", op_id=number) \
                if tracer is not None else None
            session = self.server.session(f"s{number}")
            try:
                for op in self.sessions[number]:
                    span = tracer.begin("op") if tracer is not None else None
                    started = clock()
                    problem = self._statement(session, op, tally)
                    elapsed = clock() - started
                    if span is not None:
                        tracer.finish(span)
                    if problem is None:
                        latencies.append(elapsed * 1000.0)
                        if op[0] == "insert":
                            out["ids"].append(op[2][0])
                        elif op[0] == "many":
                            out["ids"].extend(row[0] for row in op[2])
                    else:
                        out["failures"].append(f"session {number}: {problem}")
            finally:
                session.close()
                if root is not None:
                    tracer.finish(root)
        out["ended"] = clock()

    def run(self, first: int, count: int, tracer: Optional[Tracer] = None,
            clients: Optional[int] = None) -> RunResult:
        clients = clients or CLIENTS
        sessions = range(first // STATEMENTS_PER_SESSION,
                         (first + count) // STATEMENTS_PER_SESSION)
        outs = [{"latencies": [], "failures": [], "ids": [],
                 "tally": {"conflicts": 0, "write_attempts": 0}}
                for _ in range(clients)]
        barrier = threading.Barrier(clients)
        threads = [threading.Thread(
            target=self._client,
            args=(list(sessions[client::clients]), tracer, barrier,
                  outs[client]))
            for client in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        result = RunResult()
        result.attempted = len(sessions) * STATEMENTS_PER_SESSION
        for out in outs:
            result.latencies_ms.extend(out["latencies"])
            for message in out["failures"]:
                result.fail(message)
            self.acknowledged_ids.extend(out["ids"])
            result.count("conflicts", out["tally"]["conflicts"])
            result.count("write_attempts", out["tally"]["write_attempts"])
        result.busy_s = max(out["ended"] for out in outs) \
            - min(out["started"] for out in outs)
        result.count("statements", float(result.attempted))
        result.count("sessions", float(len(sessions)))
        return result

    # -- final state ------------------------------------------------------
    def finish(self, result: RunResult) -> Dict[str, float]:
        result.attempted += 1
        with self.server.session("oracle") as session:
            table = session.execute(
                "SELECT id, category, amount FROM events").fetch_numpy()
            ids = np.sort(np.asarray(table["id"]))
            want = np.sort(np.concatenate([
                np.arange(self.seed_rows, dtype=np.int64),
                np.asarray(self.acknowledged_ids, dtype=np.int64)]))
            if not np.array_equal(ids, want):
                result.fail(f"events holds {len(ids)} rows, want the "
                            f"{self.seed_rows} seed rows + "
                            f"{len(self.acknowledged_ids)} acknowledged "
                            "inserts, by id")
                return {}
            rng = random.Random(self.seed)
            category = np.asarray(table["category"])
            amount = np.asarray(table["amount"])
            for sql, make, _, _, reference in TEMPLATES:
                parameters = make(rng)
                got = session.execute(sql, parameters).fetchall()
                values = tuple(parameters.values()) \
                    if isinstance(parameters, dict) else parameters
                want_rows = reference(category, amount, *values)
                if len(got) != len(want_rows) or not all(
                        all(map(close_enough, got_row, want_row))
                        for got_row, want_row in zip(got, want_rows)):
                    result.fail(f"{sql!r} {parameters}: got {got[:3]}, "
                                f"NumPy says {want_rows[:3]}")
                    break
        return {}

    def handle(self) -> Any:
        return self.server

    def close(self) -> None:
        self.server.close()
