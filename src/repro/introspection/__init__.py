"""In-band introspection: the engine's state, queryable from the engine.

The cooperation pillar (paper §4/§5) puts the database *inside* the host
process; there is no server console, so the inspection interface must be
the same one the application already speaks -- SQL.  This package surfaces
engine internals as **system table functions** (:mod:`.registry`,
:mod:`.providers`): zero-argument table functions usable in any FROM
clause::

    SELECT name, value FROM repro_metrics() WHERE name LIKE 'repro_wal%'
    SELECT t.name, count(*) FROM repro_tables() t
    JOIN repro_columns() c ON t.name = c.table_name GROUP BY t.name

They bind like ``read_csv`` does, lower to a generator-backed
introspection scan yielding standard 2048-value vectors, and therefore
compose with WHERE/JOIN/ORDER BY/aggregates like any other relation.
Providers snapshot engine state copy-then-release under the declared lock
hierarchy (quacklint QLO003 enforces the discipline).

The package writes no file.  When an engine fault escapes, the exception
reaches the host, and the failing statement is already a
``repro_statement_log()`` row with its ``error`` type: the post-mortem is
a query too.

Per-operator self time is a query, not a daemon: with tracing on, a
self-join of ``repro_traces()`` on ``parent_id = span_id`` subtracts each
span's children from its own ``wall_ms`` (see README).
"""

from __future__ import annotations

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
]

register_builtin_functions()
