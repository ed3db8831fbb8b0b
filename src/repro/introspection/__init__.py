"""In-band introspection: the engine's state, queryable from the engine.

The cooperation pillar (paper §4/§5) puts the database *inside* the host
process; there is no server console, so the inspection interface must be
the same one the application already speaks -- SQL.  This package surfaces
engine internals three ways:

* **system table functions** (:mod:`.registry`, :mod:`.providers`) --
  zero-argument table functions usable in any FROM clause::

      SELECT name, value FROM repro_metrics() WHERE name LIKE 'repro_wal%'
      SELECT t.name, count(*) FROM repro_tables() t
      JOIN repro_columns() c ON t.name = c.table_name GROUP BY t.name

  They bind like ``read_csv`` does, lower to a generator-backed
  introspection scan yielding standard 2048-value vectors, and therefore
  compose with WHERE/JOIN/ORDER BY/aggregates like any other relation.
  Providers snapshot engine state copy-then-release under the declared
  lock hierarchy (quacklint QLO003 enforces the discipline).

* a **flight recorder** (:mod:`.flight`) -- the statement log's newest
  records plus the database's non-zero metrics, dumped as ``repro_flight_<pid>.json`` on
  unhandled engine faults and on ``PRAGMA flight_dump``.

Per-operator self time is a query, not a daemon: with tracing on, a
self-join of ``repro_traces()`` on ``parent_id = span_id`` subtracts each
span's children from its own ``wall_ms`` (see README).
"""

from __future__ import annotations

from .flight import is_engine_fault
from .providers import register_builtin_functions
from .registry import (
    SystemTableFunction,
    function_names,
    functions,
    lookup,
    register,
    unregister,
)

__all__ = [
    "SystemTableFunction",
    "register",
    "unregister",
    "lookup",
    "function_names",
    "functions",
    "register_builtin_functions",
    "is_engine_fault",
]

register_builtin_functions()
