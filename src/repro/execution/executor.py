"""Statement executor: runs bound statements against the database.

SELECTs lower to physical plans and stream chunks; DML statements drive the
transactional storage layer in bulk (whole chunks of inserts, updates, and
deletes at a time -- the paper's §2 requirement that ETL writes get bulk
granularity, not per-row OLTP treatment) and emit logical WAL records.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

from ..catalog.entry import TableEntry, ViewEntry
from ..errors import (
    BinderError,
    CatalogError,
    ConstraintError,
    InternalError,
    InvalidInputError,
)
from ..optimizer import optimize
from ..planner import bound_statements as bound
from ..storage.table_data import TableData
from ..storage.wal import WALRecord
from ..types import (
    BIGINT,
    DataChunk,
    LogicalType,
    VARCHAR,
    Vector,
    cast_scalar,
    cast_vector,
)
from .physical import ExecutionContext
from .physical_planner import create_physical_plan

__all__ = ["Executor", "StatementResult"]

#: Options that only database-owned components read: the shared plan and
#: result caches, admission control, and the storage and buffer managers.
#: A PRAGMA on one changes the database config from any
#: connection; a session's private copy alone would read back the new value
#: while the component kept the old one.
_DATABASE_OPTIONS = frozenset({
    "plan_cache_entries", "result_cache_entries", "result_cache_max_rows",
    "max_concurrent_queries", "admission_timeout_ms", "wal_autocheckpoint",
    "checkpoint_on_close", "buffer_memtest"})


class StatementResult:
    """What one executed statement produced.

    Either a streaming chunk source (SELECT-like) or a completed effect
    with a row count (DML/DDL).  ``chunks`` is a generator for streaming
    results; the client layer decides whether to materialize it.
    """

    def __init__(self, names: List[str], types: List[LogicalType],
                 chunks: Optional[Iterator[DataChunk]] = None,
                 rowcount: int = -1) -> None:
        self.names = names
        self.types = types
        self.chunks = chunks if chunks is not None else iter(())
        self.rowcount = rowcount

    @classmethod
    def count_result(cls, count: int) -> "StatementResult":
        chunk = DataChunk([Vector.from_values([count], BIGINT)])
        return cls(["Count"], [BIGINT], iter([chunk]), rowcount=count)

    @classmethod
    def empty(cls) -> "StatementResult":
        return cls([], [], iter(()), rowcount=0)

    @classmethod
    def text_result(cls, name: str, lines: List[str]) -> "StatementResult":
        chunk = DataChunk([Vector.from_values(lines, VARCHAR)])
        return cls([name], [VARCHAR], iter([chunk]), rowcount=len(lines))


class Executor:
    """Executes bound statements within one transaction context."""

    def __init__(self, database, transaction, on_context=None, config=None,
                 parameters=None, parameter_rows=None, record=None) -> None:
        self.database = database
        self.transaction = transaction
        #: Callback invoked with each fresh ExecutionContext -- the client
        #: layer hooks in here to support query interruption.
        self.on_context = on_context
        #: Effective configuration: the database's config unless a server
        #: session supplies its own copy (session PRAGMAs, admission quotas).
        self.config = config if config is not None else database.config
        #: Late-bound values for BoundParameterRef slots (plan-cache path),
        #: or -- with ``parameter_rows`` -- executemany's parameter columns.
        self.parameters = parameters
        self.parameter_rows = parameter_rows
        #: The running statement's StatementRecord (None records nothing):
        #: the optimizer's decisions and quackplan's checks land on it.
        self.record = record

    def _context(self) -> ExecutionContext:
        context = ExecutionContext(self.transaction, self.database,
                                   parameters=self.parameters,
                                   config=self.config,
                                   parameter_rows=self.parameter_rows,
                                   record=self.record)
        if self.on_context is not None:
            self.on_context(context)
        return context

    # -- dispatch -----------------------------------------------------------
    def execute(self, statement: bound.BoundStatement) -> StatementResult:
        """Run a statement that is not a SELECT; INSERT, UPDATE and DELETE
        come prepared (:meth:`prepare_select`)."""
        if isinstance(statement, bound.BoundInsert):
            return self.execute_insert(statement)
        if isinstance(statement, bound.BoundUpdate):
            return self.execute_update(statement)
        if isinstance(statement, bound.BoundDelete):
            return self.execute_delete(statement)
        if isinstance(statement, bound.BoundCreateTable):
            return self.execute_create_table(statement)
        if isinstance(statement, bound.BoundCreateView):
            return self.execute_create_view(statement)
        if isinstance(statement, bound.BoundDrop):
            return self.execute_drop(statement)
        if isinstance(statement, bound.BoundCopyFrom):
            return self.execute_copy_from(statement)
        if isinstance(statement, bound.BoundCopyTo):
            return self.execute_copy_to(statement)
        if isinstance(statement, bound.BoundPragma):
            return self.execute_pragma(statement)
        if isinstance(statement, bound.BoundExplain):
            return self.execute_explain(statement)
        raise InternalError(
            f"Executor cannot run {type(statement).__name__} "
            "(transaction control is handled by the connection)"
        )

    # -- prepare / SELECT ------------------------------------------------------
    def prepare_select(self, statement: bound.BoundStatement):
        """Optimize a bound statement's plan once: a SELECT into the logical
        plan :meth:`run_plan` runs, INSERT, UPDATE, DELETE and COPY TO into
        themselves over their optimized source, which :meth:`execute` runs.

        The result is read-only from here on: the plan cache shares it
        across concurrent executions, each lowering its own physical tree.
        """
        if isinstance(statement, bound.BoundSelect):
            return optimize(statement.plan, self.database, self.record)
        statement.source = optimize(statement.source, self.database,
                                    self.record)
        return statement

    def run_plan(self, plan) -> StatementResult:
        """Lower an optimized logical plan and stream its chunks."""
        context = self._context()
        physical = create_physical_plan(plan, context)
        return StatementResult(plan.names, plan.types, physical.run())

    # -- INSERT -----------------------------------------------------------------
    def _check_not_null(self, table: TableEntry, chunk: DataChunk,
                        column_indices: Optional[List[int]] = None) -> None:
        indices = column_indices if column_indices is not None \
            else range(len(table.columns))
        for vector, index in zip(chunk.columns, indices):
            column = table.columns[index]
            if not column.nullable and not vector.all_valid():
                raise ConstraintError(
                    f"NOT NULL constraint violated: column "
                    f"{column.name!r} of table {table.name!r}"
                )

    def _run_source(self, source) -> Iterator[DataChunk]:
        """Lower and run a prepared statement's optimized source plan."""
        return create_physical_plan(source, self._context()).run()

    def execute_insert(self, statement: bound.BoundInsert) -> StatementResult:
        table = statement.table
        wal_enabled = self.database.storage.wal.enabled
        inserted = 0
        for chunk in self._run_source(statement.source):
            if chunk.size == 0:
                continue
            # Align physical representations exactly with storage.
            aligned = DataChunk([
                cast_vector(vector, column.dtype)
                for vector, column in zip(chunk.columns, table.columns)
            ])
            self._check_not_null(table, aligned)
            table.data.append_chunk(self.transaction, aligned)
            if wal_enabled:
                self.transaction.wal_records.append(
                    WALRecord.insert_chunk(table.name, aligned))
            inserted += aligned.size
        return StatementResult.count_result(inserted)

    # -- UPDATE / DELETE ----------------------------------------------------------
    # Both run a source plan whose first column is the row id of each target
    # row (a scan of ``ROW_ID_COLUMN``), so they find their rows exactly as
    # a SELECT would: zone maps, column pruning.  The scan runs in place at
    # every ``threads`` value, and rows are only ever written after the
    # chunk that read them was produced, so no row is read after this
    # statement wrote it, and no queued chunk views a column it writes.
    def execute_update(self, statement: bound.BoundUpdate) -> StatementResult:
        table = statement.table
        indices = statement.column_indices
        wal_enabled = self.database.storage.wal.enabled
        updated = 0
        for chunk in self._run_source(statement.source):
            row_ids = chunk.columns[0].data
            cast = [cast_vector(vector, table.columns[index].dtype)
                    for vector, index in zip(chunk.columns[1:], indices)]
            # A bare column in the SET list is a read-only view of storage:
            # copied, and the chunk dropped, so writing that column (a swap,
            # ``SET old = cur, cur = ...``) does not copy all of it.
            values = DataChunk([vector if vector.validity.flags.writeable
                                else vector.copy() for vector in cast])
            del chunk, cast
            self._check_not_null(table, values, indices)
            count = table.data.update_rows(self.transaction, row_ids,
                                           indices, values)
            if wal_enabled and count:
                self.transaction.wal_records.append(WALRecord.update_rows(
                    table.name, indices, row_ids, values))
            updated += count
        return StatementResult.count_result(updated)

    def execute_delete(self, statement: bound.BoundDelete) -> StatementResult:
        table = statement.table
        wal_enabled = self.database.storage.wal.enabled
        deleted = 0
        for chunk in self._run_source(statement.source):
            row_ids = chunk.columns[0].data
            count = table.data.delete_rows(self.transaction, row_ids)
            if wal_enabled and count:
                self.transaction.wal_records.append(
                    WALRecord.delete_rows(table.name, row_ids))
            deleted += count
        return StatementResult.count_result(deleted)

    # -- DDL ----------------------------------------------------------------------
    def execute_create_table(self, statement: bound.BoundCreateTable) -> StatementResult:
        data = TableData([column.dtype for column in statement.columns])
        entry = TableEntry(statement.name, statement.columns, data,
                           self.transaction.transaction_id)
        created = self.database.catalog.create_entry(
            entry, self.transaction, if_not_exists=statement.if_not_exists)
        if not created:
            return StatementResult.empty()
        if self.database.storage.wal.enabled:
            columns = [
                (column.name, str(column.dtype), column.nullable,
                 None if column.default is None
                 else cast_scalar(column.default, VARCHAR))
                for column in statement.columns
            ]
            self.transaction.wal_records.append(
                WALRecord.create_table(statement.name, columns))
        inserted = 0
        if statement.source is not None:
            inserted = self.execute_insert(self.prepare_select(
                bound.BoundInsert(entry, statement.source))).rowcount
        return StatementResult.count_result(inserted)

    def execute_create_view(self, statement: bound.BoundCreateView) -> StatementResult:
        entry = ViewEntry(statement.name, statement.sql, statement.query,
                          self.transaction.transaction_id)
        self.database.catalog.create_entry(entry, self.transaction,
                                           or_replace=statement.or_replace)
        if self.database.storage.wal.enabled:
            self.transaction.wal_records.append(
                WALRecord.create_view(statement.name, statement.sql))
        return StatementResult.empty()

    def execute_drop(self, statement: bound.BoundDrop) -> StatementResult:
        dropped = self.database.catalog.drop_entry(
            statement.name, self.transaction, if_exists=statement.if_exists,
            expected_type=statement.kind)
        if dropped and self.database.storage.wal.enabled:
            record = WALRecord.drop_table(statement.name) \
                if statement.kind == "table" else WALRecord.drop_view(statement.name)
            self.transaction.wal_records.append(record)
        return StatementResult.empty()

    # -- COPY ---------------------------------------------------------------------
    def execute_copy_from(self, statement: bound.BoundCopyFrom) -> StatementResult:
        from ..etl.csv_reader import read_csv_chunks, sniff_csv

        table = statement.table
        options = dict(statement.options)
        delimiter = options.get("delimiter")
        header = options.get("header")
        sniffed = sniff_csv(statement.path, delimiter=delimiter, header=header)
        delimiter = delimiter or sniffed.delimiter
        header = sniffed.has_header if header is None else header
        if not sniffed.types:
            # Empty file: nothing to load, but not an error (a header-only
            # file likewise loads zero rows).
            return StatementResult.count_result(0)
        if len(sniffed.types) != len(table.columns):
            raise InvalidInputError(
                f"CSV file has {len(sniffed.types)} columns, table "
                f"{table.name!r} has {len(table.columns)}"
            )
        wal_enabled = self.database.storage.wal.enabled
        loaded = 0
        for chunk in read_csv_chunks(statement.path, table.column_types,
                                     delimiter=delimiter, header=header):
            self._check_not_null(table, chunk)
            table.data.append_chunk(self.transaction, chunk)
            if wal_enabled:
                self.transaction.wal_records.append(
                    WALRecord.insert_chunk(table.name, chunk))
            loaded += chunk.size
        return StatementResult.count_result(loaded)

    def execute_copy_to(self, statement: bound.BoundCopyTo) -> StatementResult:
        from ..etl.csv_writer import write_csv

        names = statement.source.names
        options = statement.options
        source = self._run_source(self.prepare_select(statement).source)
        written = write_csv(statement.path, source,
                            names, delimiter=options.get("delimiter", ","),
                            header=options.get("header", True))
        return StatementResult.count_result(written)

    # -- PRAGMA / EXPLAIN --------------------------------------------------------
    def execute_pragma(self, statement: bound.BoundPragma) -> StatementResult:
        name = statement.name.lower()
        database = self.database
        if name == "database_size":
            size = 0
            if database.storage.block_file is not None:
                import os

                size = os.path.getsize(database.storage.block_file.path)
            return StatementResult(
                ["database_size"], [BIGINT],
                iter([DataChunk([Vector.from_values([size], BIGINT)])]), 1)
        if name == "memory_usage":
            return StatementResult(
                ["memory_usage"], [BIGINT],
                iter([DataChunk([Vector.from_values([database.memory_usage()],
                                                    BIGINT)])]), 1)
        if name == "wal_size":
            return StatementResult(
                ["wal_size"], [BIGINT],
                iter([DataChunk([Vector.from_values([database.storage.wal.size()],
                                                    BIGINT)])]), 1)
        if name == "table_info":
            table = database.catalog.get_table(str(statement.value),
                                               self.transaction)
            lines = [f"{column.name} {column.dtype}"
                     + ("" if column.nullable else " NOT NULL")
                     for column in table.columns]
            return StatementResult.text_result("table_info", lines)
        if name == "show_tables":
            names = [table.name for table in
                     database.catalog.tables(self.transaction)]
            return StatementResult.text_result("name", names)
        if name == "memtest":
            # Periodic scrub of all live buffers (paper §6: "periodically to
            # detect new errors").  Returns one line per failing buffer.
            failing = database.buffer_manager.retest_buffers()
            lines = [f"buffers failing: {len(failing)}"]
            for report in failing:
                lines.append(f"  {report!r}")
            return StatementResult.text_result("memtest", lines)
        if name in _DATABASE_OPTIONS and statement.value is not None:
            # Route the option to the *database* config whatever config this
            # executor runs on.
            database.config.set_option(name, statement.value)
            if self.config is not database.config:
                self.config.set_option(name, statement.value)
            return StatementResult.empty()
        if statement.value is None:
            value = self.config.get_option(name)
            return StatementResult.text_result(name, [str(value)])
        # A session-scoped config (server sessions, pooled connections)
        # takes the PRAGMA locally.
        self.config.set_option(name, statement.value)
        return StatementResult.empty()

    def execute_explain(self, statement: bound.BoundExplain) -> StatementResult:
        inner = statement.inner
        if isinstance(inner, bound.BoundSelect):
            plan = optimize(inner.plan, self.database, self.record)
            context = self._context()
            physical = create_physical_plan(plan, context)
            text = ("-- logical plan --\n" + plan.explain()
                    + "\n-- physical plan --\n" + physical.explain())
            if statement.analyze:
                # EXPLAIN ANALYZE: run the plan under a forced tracer and
                # report per-operator spans plus engine statistics.  An
                # untraced statement gets a private tracer, so ANALYZE
                # profiles without leaving spans in the database's ring.
                import time

                from ..observability.render import render_span_tree
                from ..observability.trace import Tracer

                tracer = context.tracer if context.tracer is not None \
                    else Tracer()
                context.tracer = tracer
                root = tracer.start_query("explain analyze")
                wall = time.perf_counter_ns()
                cpu = time.thread_time_ns()
                rows = 0
                try:
                    for chunk in physical.run():
                        rows += chunk.size
                finally:
                    tracer.finish_query(root,
                                        time.perf_counter_ns() - wall,
                                        time.thread_time_ns() - cpu)
                text += "\n-- execution statistics --"
                text += f"\nresult rows: {rows}"
                text += f"\nelapsed: {root.wall_ms:.2f} ms"
                for name in sorted(context.stats):
                    text += f"\n{name}: {context.stats[name]}"
                profile = render_span_tree(tracer.trace(root.trace_id),
                                           root)
                text += "\n-- operator profile (quacktrace) --"
                for line in profile:
                    text += "\n" + line
            return StatementResult.text_result("explain", text.split("\n"))
        return StatementResult.text_result(
            "explain", [f"{type(inner).__name__} (no plan)"])
