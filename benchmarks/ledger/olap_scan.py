"""``olap_scan``: dashboard refreshes over TPC-H-shaped in-memory tables.

One closed-loop client.  An op is one *refresh*: four parameterized query
templates (Q1 scan + 8 aggregates, Q6 selective multi-predicate filter, Q3
three-way join + top-N, QW join + window rank).  The SQL texts never change,
so the plan cache always hits after the first refresh; every template's
parameters are drawn from a domain of >= 1000 values, so the 128-entry result
cache almost never does.  NumPy reference answers are checked on the first
and every tenth refresh.
"""

from __future__ import annotations

import datetime
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

import repro
from spans import Tracer
from workload import Digest, RunResult, Workload, close_enough, closed_loop

LINEITEM_ROWS = 250_000
ORDERS_ROWS = LINEITEM_ROWS // 4
CUSTOMER_ROWS = ORDERS_ROWS // 10
CHECK_EVERY = 10

SEGMENTS = ("AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY")
FLAGS = ("A", "N", "R")
STATUSES = ("F", "O")
EPOCH = datetime.date(1970, 1, 1)
BASE_DAY = 9131  # 1995-01-01
SHIP_SPAN = 400  # l_shipdate in BASE_DAY +- SHIP_SPAN
ORDER_SPAN = 365

Q1 = """SELECT l_returnflag, l_linestatus,
       sum(l_quantity), sum(l_extendedprice),
       sum(l_extendedprice * (1 - l_discount)),
       sum(l_extendedprice * (1 - l_discount) * (1 + l_tax)),
       avg(l_quantity), avg(l_extendedprice), avg(l_discount), count(*)
FROM lineitem
WHERE l_shipdate >= ? AND l_shipdate <= ?
GROUP BY l_returnflag, l_linestatus
ORDER BY l_returnflag, l_linestatus"""

Q6 = """SELECT sum(l_extendedprice * l_discount)
FROM lineitem
WHERE l_shipdate >= ? AND l_shipdate < ?
  AND l_discount BETWEEN ? AND ? AND l_quantity < ?"""

Q3 = """SELECT l_orderkey, sum(l_extendedprice * (1 - l_discount)) AS revenue,
       o_orderdate
FROM customer
JOIN orders ON c_custkey = o_custkey
JOIN lineitem ON l_orderkey = o_orderkey
WHERE c_mktsegment = ? AND o_orderdate < ? AND l_shipdate > ?
GROUP BY l_orderkey, o_orderdate
ORDER BY revenue DESC, l_orderkey
LIMIT 10"""

QW = """SELECT c_mktsegment, o_orderdate, revenue,
       rank() OVER (PARTITION BY c_mktsegment ORDER BY revenue DESC) AS r
FROM (
    SELECT c_mktsegment, o_orderdate,
           sum(l_extendedprice * (1 - l_discount)) AS revenue
    FROM customer
    JOIN orders ON c_custkey = o_custkey
    JOIN lineitem ON l_orderkey = o_orderkey
    WHERE l_shipdate > ? AND o_orderdate >= ?
    GROUP BY c_mktsegment, o_orderdate
) daily
ORDER BY c_mktsegment, r, o_orderdate
LIMIT 20"""

TEMPLATES = (("Q1", Q1), ("Q6", Q6), ("Q3", Q3), ("QW", QW))


def _date(day: int) -> datetime.date:
    return EPOCH + datetime.timedelta(days=int(day))


def _day(value: datetime.date) -> int:
    return (value - EPOCH).days


class OlapScan(Workload):
    name = "olap_scan"
    nominal_ops = 100
    rows_per_op = (f"4 queries over lineitem {LINEITEM_ROWS:,} / orders "
                   f"{ORDERS_ROWS:,} / customer {CUSTOMER_ROWS:,} rows; "
                   "6 + 1 + 10 + 20 result rows")

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 1])
        lines = self.rows(LINEITEM_ROWS)
        orders = max(16, lines // 4)
        customers = max(8, orders // 10)
        self.customer = {
            "c_custkey": np.arange(customers, dtype=np.int32),
            "c_mktsegment": rng.integers(0, len(SEGMENTS), customers),
        }
        self.orders = {
            "o_orderkey": np.arange(orders, dtype=np.int32),
            "o_custkey": rng.integers(0, customers, orders).astype(np.int32),
            "o_orderdate": (BASE_DAY + rng.integers(-ORDER_SPAN, ORDER_SPAN,
                                                    orders)).astype(np.int32),
        }
        self.lineitem = {
            "l_orderkey": rng.integers(0, orders, lines).astype(np.int32),
            "l_quantity": rng.integers(1, 51, lines).astype(np.float64),
            "l_extendedprice": rng.uniform(900.0, 105_000.0, lines).round(2),
            "l_discount": rng.integers(0, 11, lines) / 100.0,
            "l_tax": rng.integers(0, 9, lines) / 100.0,
            "l_returnflag": rng.integers(0, len(FLAGS), lines),
            "l_linestatus": rng.integers(0, len(STATUSES), lines),
            "l_shipdate": (BASE_DAY + rng.integers(-SHIP_SPAN, SHIP_SPAN,
                                                   lines)).astype(np.int32),
        }
        self.ops = [self._refresh(rng) for _ in range(self.total_ops)]
        digest = Digest(self.name, self.seed, self.total_ops)
        for table in (self.customer, self.orders, self.lineitem):
            digest.add(table)
        digest.add(self.ops)
        self.digest = digest.hexdigest()

        self.con = repro.connect()
        self.con.execute("CREATE TABLE customer (c_custkey INTEGER NOT NULL, "
                         "c_mktsegment VARCHAR)")
        self.con.execute("CREATE TABLE orders (o_orderkey INTEGER NOT NULL, "
                         "o_custkey INTEGER, o_orderdate DATE)")
        self.con.execute(
            "CREATE TABLE lineitem (l_orderkey INTEGER NOT NULL, "
            "l_quantity DOUBLE, l_extendedprice DOUBLE, l_discount DOUBLE, "
            "l_tax DOUBLE, l_returnflag VARCHAR, l_linestatus VARCHAR, "
            "l_shipdate DATE)")
        names = {"c_mktsegment": SEGMENTS, "l_returnflag": FLAGS,
                 "l_linestatus": STATUSES}
        for table, columns in (("customer", self.customer),
                               ("orders", self.orders),
                               ("lineitem", self.lineitem)):
            with self.con.appender(table) as appender:
                appender.append_numpy({
                    column: np.array(names[column], dtype=object)[values]
                    if column in names else values
                    for column, values in columns.items()})

    @staticmethod
    def _refresh(rng: np.random.Generator) -> Tuple[Tuple[Any, ...], ...]:
        """Parameters of one refresh; each template's domain has >= 1000
        values and a narrow selectivity band, so op latency stays unimodal."""
        ship_low, ship_high = BASE_DAY - SHIP_SPAN, BASE_DAY + SHIP_SPAN
        q1 = (_date(ship_low + rng.integers(0, 60)),
              _date(ship_high - 30 - rng.integers(0, 50)))
        start = BASE_DAY - 180 + int(rng.integers(0, 180))
        discount = int(rng.integers(2, 9))
        q6 = (_date(start), _date(start + 365), (discount - 1) / 100.0,
              (discount + 1) / 100.0, float(rng.integers(24, 26)))
        q3 = (SEGMENTS[rng.integers(0, len(SEGMENTS))],
              _date(BASE_DAY + 40 + rng.integers(0, 60)),
              _date(BASE_DAY + 40 + rng.integers(0, 60)))
        qw = (_date(ship_low + 60 + rng.integers(0, 60)),
              _date(BASE_DAY - ORDER_SPAN + rng.integers(0, 40)))
        return q1, q6, q3, qw

    # -- the op -----------------------------------------------------------
    def _do_refresh(self, index: int) -> List[List[Tuple[Any, ...]]]:
        execute = self.con.execute
        return [execute(sql, parameters).fetchall()
                for (_, sql), parameters in zip(TEMPLATES, self.ops[index])]

    def _verify(self, index: int, answers: List[List[Tuple[Any, ...]]]
                ) -> Optional[str]:
        if (index - self._first) % CHECK_EVERY:
            return None
        references = (self.reference_q1, self.reference_q6,
                      self.reference_q3, self.reference_qw)
        for (name, _), reference, parameters, rows in zip(
                TEMPLATES, references, self.ops[index], answers):
            want = reference(*parameters)
            if len(rows) != len(want) or not all(
                    len(got_row) == len(want_row)
                    and all(map(close_enough, got_row, want_row))
                    for got_row, want_row in zip(rows, want)):
                return (f"{name}{parameters} differs from the NumPy "
                        f"reference: got {rows[:2]}, want {want[:2]}")
        return None

    def run(self, first: int, count: int, tracer: Optional[Tracer] = None,
            clients: Optional[int] = None) -> RunResult:
        result = RunResult()
        self._first = first
        closed_loop(result, first, count, self._do_refresh, self._verify,
                    tracer)
        result.count("statements", 4.0 * count)
        return result

    def handle(self) -> Any:
        return self.con

    def close(self) -> None:
        self.con.close()

    # -- NumPy reference answers -------------------------------------------
    def _revenue(self) -> np.ndarray:
        line = self.lineitem
        return line["l_extendedprice"] * (1 - line["l_discount"])

    def reference_q1(self, low: datetime.date, high: datetime.date
                     ) -> List[Tuple[Any, ...]]:
        line = self.lineitem
        keep = (line["l_shipdate"] >= _day(low)) \
            & (line["l_shipdate"] <= _day(high))
        group = (line["l_returnflag"] * len(STATUSES)
                 + line["l_linestatus"])[keep]
        groups = len(FLAGS) * len(STATUSES)

        def total(values: np.ndarray) -> np.ndarray:
            return np.bincount(group, weights=values[keep], minlength=groups)

        count = np.bincount(group, minlength=groups)
        quantity = total(line["l_quantity"])
        price = total(line["l_extendedprice"])
        discounted = total(self._revenue())
        charged = total(self._revenue() * (1 + line["l_tax"]))
        discount = total(line["l_discount"])
        rows = []
        for code in range(groups):
            if count[code]:
                n = int(count[code])
                rows.append((FLAGS[code // len(STATUSES)],
                             STATUSES[code % len(STATUSES)],
                             float(quantity[code]), float(price[code]),
                             float(discounted[code]), float(charged[code]),
                             float(quantity[code] / n), float(price[code] / n),
                             float(discount[code] / n), n))
        return rows

    def reference_q6(self, low: datetime.date, high: datetime.date,
                     discount_low: float, discount_high: float,
                     quantity: float) -> List[Tuple[Any, ...]]:
        line = self.lineitem
        keep = ((line["l_shipdate"] >= _day(low))
                & (line["l_shipdate"] < _day(high))
                & (line["l_discount"] >= discount_low)
                & (line["l_discount"] <= discount_high)
                & (line["l_quantity"] < quantity))
        if not keep.any():
            return [(None,)]
        return [(float((line["l_extendedprice"] * line["l_discount"])[keep]
                       .sum()),)]

    def _joined(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per lineitem row: its order's date and its customer's segment
        (o_orderkey and c_custkey are 0..n-1, so the joins are lookups)."""
        order_date = self.orders["o_orderdate"][self.lineitem["l_orderkey"]]
        segment = self.customer["c_mktsegment"][
            self.orders["o_custkey"][self.lineitem["l_orderkey"]]]
        return order_date, segment

    def reference_q3(self, segment: str, order_before: datetime.date,
                     ship_after: datetime.date) -> List[Tuple[Any, ...]]:
        line = self.lineitem
        order_date, line_segment = self._joined()
        keep = ((line_segment == SEGMENTS.index(segment))
                & (order_date < _day(order_before))
                & (line["l_shipdate"] > _day(ship_after)))
        keys = line["l_orderkey"][keep]
        orders = len(self.orders["o_orderkey"])
        revenue = np.bincount(keys, weights=self._revenue()[keep],
                              minlength=orders)
        present = np.flatnonzero(np.bincount(keys, minlength=orders))
        top = present[np.lexsort((present, -revenue[present]))][:10]
        return [(int(key), float(revenue[key]),
                 _date(self.orders["o_orderdate"][key])) for key in top]

    def reference_qw(self, ship_after: datetime.date,
                     order_from: datetime.date) -> List[Tuple[Any, ...]]:
        line = self.lineitem
        order_date, line_segment = self._joined()
        keep = (line["l_shipdate"] > _day(ship_after)) \
            & (order_date >= _day(order_from))
        first_day = BASE_DAY - ORDER_SPAN
        days = 2 * ORDER_SPAN
        cell = (line_segment * days + (order_date - first_day))[keep]
        cells = len(SEGMENTS) * days
        revenue = np.bincount(cell, weights=self._revenue()[keep],
                              minlength=cells)
        present = np.bincount(cell, minlength=cells) > 0
        rows: List[Tuple[Any, ...]] = []
        for code, segment in enumerate(SEGMENTS):  # already alphabetical
            cell_ids = np.flatnonzero(present[code * days:(code + 1) * days])
            amounts = revenue[code * days + cell_ids]
            for position in np.lexsort((cell_ids, -amounts)):
                rank = 1 + int((amounts > amounts[position]).sum())
                rows.append((segment, _date(first_day + cell_ids[position]),
                             float(amounts[position]), rank))
                if len(rows) == 20:
                    return rows
        return rows
