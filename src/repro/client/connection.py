"""Connections: the embedded client API.

A connection owns a transaction context over a shared
:class:`~repro.database.Database`.  Statements run in autocommit mode unless
``BEGIN`` opened an explicit transaction.  Because database and application
share one address space, query results are handed over as chunks of the
engine's internal representation (see :mod:`~repro.client.result`) -- the
transfer-efficiency design of paper §5/§6.
"""

from __future__ import annotations

import re
import time
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..config import DatabaseConfig
from ..database import Database
from ..observability.accounting import StatementRecord
from ..observability.metrics import render_text, snapshot
from ..sanitizer import SanRLock
from ..errors import ClosedHandleError
from ..errors import InvalidInputError, TransactionContextError
from ..execution.executor import Executor, StatementResult
from ..planner.binder import Binder
from ..planner import bound_statements as bound
from ..server.cache import CachedPlan, CachedResult, plan_result_cacheable
from ..sql import ast, parse, tokenize
from ..sql.lexer import Token
from ..sql.template import Template, lift_literals
from ..types import DataChunk
from .params import (
    batch_runs,
    normalize_parameters,
    parameter_batches,
    same_values,
    type_fingerprint,
    value_fingerprint,
)
from .result import QueryResult

if TYPE_CHECKING:
    from ..execution.physical import ExecutionContext
    from ..observability.trace import Span
    from ..transaction.transaction import Transaction
    from .appender import Appender
    from .cursor import Cursor
    from .prepared import PreparedStatement

__all__ = ["Connection", "connect"]

#: Whitespace and comments ahead of a statement's first keyword.
_LEADING = re.compile(r"(?:\s+|--[^\n]*(?:\n|$)|/\*.*?\*/)*", re.S)
#: Statements with a plan the plan cache may hold, and how their text begins.
_QUERIES = (ast.SelectStatement, ast.SetOpStatement)
_PLANNED = _QUERIES + (ast.InsertStatement, ast.UpdateStatement,
                       ast.DeleteStatement)
_CACHED_HEADS = ("SELECT", "WITH", "(", "INSERT", "UPDATE", "DELETE")


def connect(database: str = ":memory:",
            config: Union[DatabaseConfig, Dict[str, Any], None] = None,
            ) -> "Connection":
    """Open a database file (or an in-memory database) and connect to it.

    The returned connection owns the database: closing it (or using it as a
    context manager) closes the database, checkpointing if configured.
    """
    if isinstance(config, dict) or config is None:
        config = DatabaseConfig.from_dict(config)
    instance = Database(database, config)
    return Connection(instance, owns_database=True)


class Connection:
    """One client connection: a transaction context plus the execute API."""

    def __init__(self, database: Database, owns_database: bool = False,
                 config: Optional[DatabaseConfig] = None) -> None:
        self._database = database
        self._owns_database = owns_database
        #: Effective session config.  Plain connections share the database's
        #: config (PRAGMAs apply instance-wide, the embedded behaviour);
        #: pooled and served connections receive a private copy so session
        #: PRAGMAs cannot leak across clients.
        self._config = config if config is not None else database.config
        # Explicit transaction, if BEGIN was issued.
        self._transaction: Optional["Transaction"] = None
        # Execution context of the in-flight query, for interrupt().
        self._active_context: Optional["ExecutionContext"] = None
        # -- per-statement resource accounting ------------------------------
        # Serving session this connection belongs to (0 = direct embedded
        # connection); set by the owning Session before any statement.
        self._session_id = 0
        # Statements observed on this connection, the `statement_seq` half
        # of the accounting attribution key.
        self._statement_seq = 0
        # Buffer-manager counters at the previous statement boundary; the
        # next statement's hits/misses are deltas against these.
        buffers = database.buffer_manager
        self._buffer_baseline = (buffers.cache_hits, buffers.cache_misses)
        # Receives every finished statement's resource bill; set by the
        # serving Session that owns this connection, which folds the bills
        # into its stats.
        self._bill_sink: Optional[Callable[[StatementRecord], None]] = None
        self._closed = False
        # Outermost lock of the declared hierarchy: held while the engine
        # takes the checkpoint, transaction-manager, catalog, table, and
        # buffer locks -- never acquired while any of those is held.
        self._lock = SanRLock("connection")

    @property
    def session_config(self) -> DatabaseConfig:
        """The config this connection's statements run under (see __init__)."""
        return self._config

    # -- properties ---------------------------------------------------------
    @property
    def database(self) -> Database:
        return self._database

    @property
    def in_transaction(self) -> bool:
        return self._transaction is not None

    def _check_open(self) -> None:
        if self._closed:
            # ClosedHandleError subclasses both InterfaceError (PEP 249
            # client misuse) and ConnectionError (the historical type).
            raise ClosedHandleError("Connection has been closed")
        self._database.check_open()

    # -- lifecycle -------------------------------------------------------------
    def close(self) -> None:
        if self._closed:
            return
        with self._lock:
            if self._transaction is not None:
                self._database.transaction_manager.rollback(self._transaction)
                self._transaction = None
            self._closed = True
            if self._owns_database:
                self._database.close()

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def duplicate(self) -> "Connection":
        """Another connection to the same database (for concurrent use)."""
        self._check_open()
        return Connection(self._database)

    # -- transaction control ------------------------------------------------------
    def begin(self) -> None:
        self._check_open()
        with self._lock:
            if self._transaction is not None:
                raise TransactionContextError("Transaction already in progress")
            self._transaction = self._database.transaction_manager.begin()

    def commit(self) -> None:
        self._check_open()
        with self._lock:
            if self._transaction is None:
                raise TransactionContextError("No transaction in progress")
            transaction, self._transaction = self._transaction, None
            self._database.transaction_manager.commit(transaction)
        self._database.maybe_auto_checkpoint()

    def rollback(self) -> None:
        self._check_open()
        with self._lock:
            if self._transaction is None:
                raise TransactionContextError("No transaction in progress")
            transaction, self._transaction = self._transaction, None
            self._database.transaction_manager.rollback(transaction)

    # -- execution ---------------------------------------------------------------
    def execute(self, sql: str, parameters: Any = None,
                stream: bool = False) -> QueryResult:
        """Parse and run SQL (possibly multiple ``;``-separated statements).

        ``parameters`` binds ``?`` markers from a sequence or ``:name``
        markers from a mapping (the two styles cannot be mixed in one
        statement).  Returns the result of the last statement.  With
        ``stream=True`` the final result is *lazy*: chunks are computed as
        the client polls them (the client becomes the plan's root operator)
        and, in autocommit mode, the transaction commits when the result is
        exhausted/closed.

        Autocommit queries and DML ride the shared plan cache, eager queries
        the result cache too (:mod:`repro.server.cache`).  DML has written
        when this returns, streamed or not.
        """
        return self._execute(sql, None, parameters, stream)

    def _execute(self, sql: str, statements: Optional[List[ast.Statement]],
                 parameters: Any, stream: bool) -> QueryResult:
        """Resolve each statement of ``sql`` to a plan and run it.

        The single entry of the statement pipeline.  ``statements`` is the
        AST a :class:`PreparedStatement` retained; ``None`` means parse --
        which a plan-cache hit skips along with bind and optimize.  A
        literal SELECT whose text misses is lexed once and probed again as
        its ``?`` template (:func:`~repro.sql.template.lift_literals`); from
        then on it is that ``?`` statement with the lifted values as its
        parameters, except to the statement log and the tracer, which see
        the text as sent.
        """
        self._check_open()
        parameters = normalize_parameters(parameters)
        with self._lock:
            cache_key = self._plan_cache_key(sql, parameters)
            tokens = None
            if cache_key is not None:
                plans = self._database.plan_cache
                catalog_version = \
                    self._database.transaction_manager.catalog_version
                # A literal text probes again under its template, and the
                # statement's one hit or miss is counted there.
                liftable = statements is None and not parameters
                entry = plans.lookup(cache_key, catalog_version,
                                     final=not liftable)
                if entry is None and liftable:
                    tokens, template = self._lift(sql)
                    if template is not None:
                        parameters = template.values
                        cache_key = (template.text,
                                     type_fingerprint(parameters))
                        tokens = template.tokens
                        entry = plans.lookup(cache_key, catalog_version)
                if entry is not None:
                    return self._run_statement(sql, entry.statement, entry,
                                               parameters, stream, cache_key)
            if statements is None:
                statements = parse(sql, tokens)
            if not statements:
                raise InvalidInputError("No statement to execute")
            if len(statements) > 1 or not isinstance(statements[0], _PLANNED):
                cache_key = None
            result: Optional[QueryResult] = None
            for index, statement in enumerate(statements):
                if result is not None:
                    result.close()
                is_last = index == len(statements) - 1
                result = self._run_statement(sql, statement, None, parameters,
                                             stream and is_last, cache_key)
            assert result is not None
            return result

    def _lift(self, sql: str) -> Tuple[List[Token], Optional[Template]]:
        """``sql``'s tokens and its literal template, if it has one.

        No template when nothing qualifies or the FROM name is a view,
        whose joins must not be planned on ``?`` estimates.  Then this
        counts the miss the raw-text probe left uncounted.
        """
        template = None
        try:
            tokens = tokenize(sql)
            template = lift_literals(sql, tokens)
            if template is not None \
                    and self._database.catalog.names_view(template.table):
                template = None
        finally:
            if template is None:
                self._database.plan_cache.count_miss()
        return tokens, template

    def _plan_cache_key(self, sql: str, parameters: Any) -> Optional[Any]:
        """Plan-cache key of ``sql``, or None when it must not be cached.

        Only autocommit statements are eligible: inside an explicit
        transaction the session's snapshot may predate (or outpace) the
        version counters the caches key on.
        """
        if self._transaction is not None \
                or self._database.plan_cache.capacity <= 0:
            return None
        # Cheap statement-kind sniff: only queries and DML are ever cached
        # (the parsed AST is checked before a fill), so skip the lookup --
        # and the miss it would count -- for other text.  Leading comments
        # do not make a statement anything else.
        head = sql[_LEADING.match(sql).end():][:7].upper()
        if not head.startswith(_CACHED_HEADS):
            return None
        tfp = type_fingerprint(parameters)
        return None if tfp is None else (sql.strip(), tfp)

    def executemany(self, sql: str,
                    parameter_sets: Iterable[Any]) -> QueryResult:
        """Run one statement over many parameter tuples (or mappings).

        The call is *one* statement: one transaction, one
        ``repro_statement_log()`` row, and a result holding one ``Count``
        row with the total rows affected (also its ``rowcount``).  In
        autocommit a failing set leaves nothing behind.  Each run of sets
        whose parameter types agree resolves one plan, as :meth:`execute`
        does, and runs it per set or, for an ``INSERT ... VALUES`` of one
        row, once over the run (:mod:`repro.client.params`).  No sets at
        all parses the statement and runs nothing (``rowcount == 0``).
        """
        return self._executemany(sql, None, parameter_sets)

    def _executemany(self, sql: str,
                     statements: Optional[List[ast.Statement]],
                     parameter_sets: Iterable[Any]) -> QueryResult:
        """Every route's ``executemany`` (``statements`` as in _execute)."""
        self._check_open()
        sets = [parameters if parameters is not None else ()
                for parameters in map(normalize_parameters, parameter_sets)]
        with self._lock:
            # Resolve each run of same-typed sets; only a miss needs parse.
            version = self._database.transaction_manager.catalog_version
            batches = []
            for sample, run in parameter_batches(sets):
                key = self._plan_cache_key(sql, sample)
                entry = key and self._database.plan_cache.lookup(key, version)
                statements = statements or entry and [entry.statement]
                batches.append((sample, key, entry, run))
            if statements is None:
                statements = parse(sql)
            if len(statements) != 1 or isinstance(
                    statements[0], (ast.TransactionStatement,
                                    ast.CheckpointStatement)):
                raise InvalidInputError(
                    "executemany() takes exactly one statement that can "
                    "take parameters")
            if not sets:
                return QueryResult([], [], iter(()), 0)
            return self._run_statement(sql, statements[0], None, None, False,
                                       None, batches=batches)

    def prepare(self, sql: str) -> "PreparedStatement":
        """Parse a single statement once for repeated parameterized runs."""
        self._check_open()
        from .prepared import PreparedStatement

        return PreparedStatement(self, sql)

    def _make_executor(self, transaction: "Transaction",
                       record: StatementRecord, parameters: Any = None,
                       parameter_rows: Optional[int] = None) -> Executor:
        return Executor(
            self._database, transaction,
            on_context=lambda context: setattr(
                self, "_active_context", context),
            config=self._config,
            parameters=parameters if parameters is not None else (),
            parameter_rows=parameter_rows, record=record)

    def _run_statement(self, sql_text: str,
                       statement: ast.Statement, hit: Optional[CachedPlan],
                       parameters: Any, stream: bool,
                       cache_key: Optional[Any],
                       batches: Optional[List[Any]] = None,
                       ) -> QueryResult:
        """Run one statement through the skeleton every statement shares
        (connection lock held).

        begin -> trace -> bind -> optimize -> run -> drain or stream ->
        commit or roll back -> observe.  ``hit`` is a plan-cache hit for
        ``statement``; ``cache_key`` marks a cache-eligible autocommit query
        or DML statement (only a query's result is ever cached).
        ``batches`` makes it an ``executemany``: one ``(sample, key, hit or
        None, run)`` per run of same-typed sets, each bound at most once,
        inside the one begin ... observe.
        """
        # Transaction control never runs inside the executor.
        if isinstance(statement, ast.TransactionStatement):
            if statement.action == "begin":
                self.begin()
            elif statement.action == "commit":
                self.commit()
            else:
                self.rollback()
            return QueryResult([], [], iter(()), 0)
        if isinstance(statement, ast.CheckpointStatement):
            if self._transaction is not None:
                raise TransactionContextError(
                    "CHECKPOINT cannot run inside an explicit transaction"
                )
            self._database.checkpoint(force=True)
            return QueryResult([], [], iter(()), 0)

        database = self._database
        manager = database.transaction_manager
        results = database.result_cache
        autocommit = self._transaction is None
        # Traced or not is this statement's own config's call: a served
        # session's PRAGMA scopes it to the session, a plain connection's
        # to the whole database.  Decided once, here: the executor's
        # context follows record.trace_id.
        tracer = database.tracer if self._config.trace_enabled else None
        query_span = tracer.start_query(sql_text) \
            if tracer is not None else None
        wall = time.perf_counter_ns()
        cpu = time.thread_time_ns()
        # The statement's one record: optimizer decisions and plan checks
        # land on it while it runs; observe fills in the bill and logs it.
        record = StatementRecord(self._session_id, 0, sql_text)
        if query_span is not None:
            record.trace_id = query_span.trace_id
        # A new statement: interrupt() has no target until its executor
        # publishes a context, and the bill must not re-read the previous
        # statement's scan counters.
        self._active_context = None
        #: executemany: rows scanned by the sets run before the current
        #: one, and their highest memory peak.
        billed = [0, 0]
        transaction: Optional["Transaction"] = None
        executing = False

        def end(rows: int = 0, vectors: int = 0,
                error: Optional[BaseException] = None) -> None:
            """The one commit-or-rollback decision, then observe.  A
            streaming result calls this later, from the client's thread."""
            with self._lock:
                try:
                    if (error is None and autocommit
                            and transaction is not None
                            and transaction.is_active):
                        manager.commit(transaction)
                        database.maybe_auto_checkpoint()
                except Exception as commit_error:
                    error = commit_error
                    raise
                finally:
                    # Binding performs no writes, so a bind error leaves an
                    # explicit transaction usable; once execution began it
                    # may have written, and without savepoints the whole
                    # transaction must abort -- eager or streaming alike.
                    if error is not None and transaction is not None \
                            and (autocommit or executing):
                        if transaction.is_active:
                            manager.rollback(transaction)
                        if not autocommit:
                            self._transaction = None
                    self._observe_statement(
                        record, query_span, time.perf_counter_ns() - wall,
                        time.thread_time_ns() - cpu, rows, vectors, error,
                        *billed)

        # Result cache, before: an eager cache-eligible query may be
        # answered without a transaction.  DML never is: it writes each time.
        query = isinstance(statement, _QUERIES)
        vfp = value_fingerprint(parameters) if cache_key is not None \
            and query and not stream and results.capacity > 0 else None
        try:
            answer = None if vfp is None else results.lookup(
                (cache_key[0], vfp, manager.data_version))
            if answer is not None:
                outcome = StatementResult(answer.names, answer.types,
                                          iter(answer.chunks), answer.rowcount)
            else:
                # Captured BEFORE beginning: a DDL commit racing in between
                # marks a fresh plan stale (conservative), never the reverse.
                catalog_version = manager.catalog_version
                transaction = self._transaction or manager.begin()
                # A hit is stale if a DDL committed since its lookup: the
                # snapshot may no longer see the tables its plan names.
                live = manager.catalog_version
                if hit is not None and hit.catalog_version != live:
                    hit = None
                if batches is not None:
                    affected = 0
                    for sample, key, entry, run in batches:
                        plan, reusable = (entry.plan, True) \
                            if entry and entry.catalog_version == live \
                            else self._bind(statement, record, transaction,
                                            sample, key, catalog_version)
                        bound_with = sample
                        for parameters, rows in batch_runs(statement, run):
                            # A value-dependent plan holds the values it
                            # was bound with.
                            if not (reusable or same_values(parameters,
                                                            bound_with)):
                                plan, _ = self._bind(
                                    statement, record, transaction,
                                    parameters, None, catalog_version)
                                bound_with = parameters
                            executing = True
                            outcome = self._run(plan, self._make_executor(
                                transaction, record, parameters, rows))
                            for _ in outcome.chunks:  # rows are not kept
                                pass
                            affected += max(outcome.rowcount, 0)
                            scanned, peak = self._take_context_bill()
                            billed[0] += scanned
                            if peak > billed[1]:
                                billed[1] = peak
                    outcome = StatementResult.count_result(affected)
                else:
                    plan = hit.plan if hit else self._bind(
                        statement, record, transaction, parameters,
                        cache_key, catalog_version)[0]
                    executing = True
                    outcome = self._run(plan, self._make_executor(
                        transaction, record, parameters))
                if stream:
                    # The root span must not stay on this thread's stack
                    # while the client holds the lazy result (the next
                    # statement would nest under it); end() closes it.
                    if query_span is not None:
                        tracer.pop(query_span)
                    return self._streaming_result(outcome, end)
            chunks = [chunk for chunk in outcome.chunks if chunk.size]
        except Exception as statement_error:
            end(error=statement_error)
            raise
        end(sum(chunk.size for chunk in chunks),
            sum(chunk.column_count for chunk in chunks))
        # Result cache, after.
        if vfp is not None and transaction is not None \
                and plan_result_cacheable(plan):
            results.store((cache_key[0], vfp, transaction.start_data_version),
                          CachedResult(outcome.names, outcome.types,
                                       tuple(chunks), outcome.rowcount))
        return QueryResult(outcome.names, outcome.types, iter(chunks),
                           outcome.rowcount)

    def _bind(self, statement: ast.Statement, record: StatementRecord,
              transaction: "Transaction", parameters: Any,
              cache_key: Optional[Any], catalog_version: int
              ) -> Tuple[Any, bool]:
        """Bind a statement -- once -- and return ``(plan, reusable)``.

        A query or DML statement is bound with parameter slots and optimized
        (``Executor.prepare_select``) into a plan for any values of these
        types, stored under ``cache_key`` -- unless the binder read a value
        (``LIMIT ?``).  Any other statement binds its values inline.
        """
        planned = isinstance(statement, _PLANNED)
        binder = Binder(self._database.catalog, transaction, parameters,
                        parameterize=planned)
        plan = binder.bind_statement(statement)
        if not planned:
            return plan, False
        plan = self._make_executor(transaction, record).prepare_select(plan)
        reusable = not binder.value_dependent
        if reusable and cache_key is not None:
            self._database.plan_cache.store(
                cache_key, CachedPlan(plan, statement, catalog_version))
        return plan, reusable

    @staticmethod
    def _run(plan: Any, executor: Executor) -> StatementResult:
        """Run what :meth:`_bind` returned (a query plan streams)."""
        if isinstance(plan, bound.BoundStatement):
            return executor.execute(plan)
        return executor.run_plan(plan)

    def interrupt(self) -> None:
        """Request cancellation of in-flight query execution.

        Operators check the flag between chunks; the interrupted query
        raises :class:`~repro.errors.InterruptError` at its next chunk
        boundary (cooperative cancellation -- the engine never blocks the
        host application, paper §4).
        """
        context = self._active_context
        if context is not None:
            context.interrupted = True

    def _streaming_result(self, outcome: StatementResult,
                          end: Callable[..., None]) -> QueryResult:
        """A lazy result that ends its statement when exhausted or closed."""
        progress = {"done": False, "rows": 0, "vectors": 0}

        def finish(error: Optional[BaseException] = None) -> None:
            if not progress["done"]:
                progress["done"] = True
                end(progress["rows"], progress["vectors"], error)

        def guarded_chunks() -> Iterator[DataChunk]:
            try:
                for chunk in outcome.chunks:
                    progress["rows"] += chunk.size
                    progress["vectors"] += chunk.column_count
                    yield chunk
            except Exception as stream_error:
                finish(stream_error)
                raise

        return QueryResult(outcome.names, outcome.types, guarded_chunks(),
                           outcome.rowcount, on_close=finish)

    # -- observability ------------------------------------------------------
    def _observe_statement(self, record: StatementRecord,
                           query_span: Optional["Span"], wall_ns: int,
                           cpu_ns: int, rows: int, vectors: int,
                           error: Optional[BaseException],
                           scanned_before: int = 0, peak_before: int = 0
                           ) -> None:
        """The one after-statement hook: span, record, bill.

        Every finished statement -- success or error, cached or not --
        passes here exactly once: its :class:`StatementRecord`, created
        when it began, gets the bill and is stored once in the database's
        statement log, which also counts it into the statement metrics.
        """
        database = self._database
        if query_span is not None:
            database.tracer.finish_query(query_span, wall_ns, cpu_ns)
        seq = self._statement_seq + 1
        self._statement_seq = seq
        # Per-statement resource bill.  Buffer traffic is a delta against
        # the previous statement boundary on this connection (an estimate:
        # connections share the block cache); peak memory is exact.
        buffers = database.buffer_manager
        hits, misses = buffers.cache_hits, buffers.cache_misses
        base_hits, base_misses = self._buffer_baseline
        self._buffer_baseline = (hits, misses)
        # An executemany statement billed its earlier sets already: it
        # scanned what they all scanned and peaked at the highest peak.
        rows_scanned, memory_bytes = self._take_context_bill()
        rows_scanned += scanned_before
        if peak_before > memory_bytes:
            memory_bytes = peak_before
        record.statement_seq = seq
        record.timestamp = time.time()
        record.wall_ms = wall_ns / 1e6
        record.cpu_ms = cpu_ns / 1e6
        record.rows_out = rows
        record.rows_scanned = rows_scanned
        record.vectors = vectors
        record.buffer_hits = max(0, hits - base_hits)
        record.buffer_misses = max(0, misses - base_misses)
        record.memory_bytes = memory_bytes
        if error is not None:
            record.error = type(error).__name__
            record.message = str(error)
        database.statement_log.record(record)
        if self._bill_sink is not None:
            self._bill_sink(record)

    def _take_context_bill(self) -> Tuple[int, int]:
        """``(rows_scanned, peak memory bytes)`` of the active context,
        which stops being interrupt()'s target.  Reading the stats lock-free
        after the run is the executor's own post-run idiom."""
        context, self._active_context = self._active_context, None
        if context is None:
            return 0, 0
        memory = context.buffer_manager
        return (context.stats.get("rows_scanned", 0),
                memory.peak_bytes if memory is not None else 0)

    def metrics(self) -> Dict[str, Any]:
        """Snapshot of this database's engine metrics (plain dict)."""
        self._check_open()
        return snapshot(self._database.metrics())

    def metrics_text(self) -> str:
        """This database's engine metrics in Prometheus exposition format."""
        self._check_open()
        return render_text(self._database.metrics())

    # -- convenience -------------------------------------------------------------
    def query_value(self, sql: str, parameters: Optional[Sequence[Any]] = None) -> Any:
        """Run a query and return the first value of the first row."""
        return self.execute(sql, parameters).fetchvalue()

    def table_names(self) -> List[str]:
        """Names of all tables visible right now."""
        self._check_open()
        with self._lock:
            transaction = self._transaction \
                or self._database.transaction_manager.begin()
            try:
                return [table.name for table
                        in self._database.catalog.tables(transaction)]
            finally:
                if transaction is not self._transaction:
                    self._database.transaction_manager.rollback(transaction)

    def appender(self, table_name: str) -> "Appender":
        """A bulk :class:`~repro.client.appender.Appender` for a table."""
        from .appender import Appender

        return Appender(self, table_name)

    def cursor(self) -> "Cursor":
        """A value-at-a-time cursor (the ODBC/JDBC-style baseline API)."""
        self._check_open()
        from .cursor import Cursor

        return Cursor(self)

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return f"Connection({self._database!r}, {state})"
