"""Join operators: hash join, external merge join, nested-loop join.

The pair the paper's cooperation section (§6) trades off:

*"a hash join can be transparently replaced with an out-of-core merge join.
The hash join uses a large amount of main memory to store the hash table,
but few CPU cycles ... The merge join requires fewer main memory resources
to run, but O(n log n) CPU cycles as well as disk IO."*

:class:`PhysicalHashJoin` materializes its build side (through a
compressible :class:`~repro.execution.intermediates.ChunkBuffer`) and probes
it fully vectorized.  :class:`PhysicalMergeJoin` externally sorts both
inputs and streams a windowed sorted merge, keeping only the active key
window resident.  The physical planner -- or the reactive controller at
run time -- picks between them based on memory pressure.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

import numpy as np

from ..errors import InternalError
from ..planner.expressions import BoundExpression
from ..planner.logical import JoinCondition
from ..types import DataChunk, Vector
from .expression_executor import ExpressionExecutor
from .intermediates import ChunkBuffer
from .keys import BuildIndex, expand_ranges
from .physical import ExecutionContext, PhysicalOperator
from .sort import ExternalSorter, SortKey

__all__ = ["PhysicalHashJoin", "PhysicalMergeJoin", "PhysicalNestedLoopJoin"]


#: Probe-side batch size: the per-batch interpretation overhead of probing
#: (binary searches, slicing, chunk assembly) is amortized over many more
#: rows than one standard vector, without materializing the probe side.
_PROBE_BATCH_ROWS = 65536


def _batched(chunks, batch_rows: int = _PROBE_BATCH_ROWS):
    """Coalesce a chunk stream into batches of roughly ``batch_rows``."""
    pending: List[DataChunk] = []
    pending_rows = 0
    for chunk in chunks:
        if chunk.size == 0:
            continue
        pending.append(chunk)
        pending_rows += chunk.size
        if pending_rows >= batch_rows:
            yield pending[0] if len(pending) == 1 \
                else DataChunk.concat_many(pending)
            pending = []
            pending_rows = 0
    if pending:
        yield pending[0] if len(pending) == 1 else DataChunk.concat_many(pending)


class _JoinBase(PhysicalOperator):
    """Shared bookkeeping for binary joins.

    A join emits the columns ``output_map`` names: positions into ``left ++
    right``, the identity unless the physical planner folded a column-only
    projection into the join (DuckDB's projection map).  Every output value
    is gathered once, and only when a parent reads it.
    """

    def __init__(self, context: ExecutionContext, left: PhysicalOperator,
                 right: PhysicalOperator, join_type: str,
                 conditions: List[JoinCondition],
                 residual: Optional[BoundExpression]) -> None:
        types = list(left.types) + list(right.types)
        names = list(left.names) + list(right.names)
        super().__init__(context, [left, right], types, names)
        self.join_type = join_type
        self.conditions = conditions
        self.residual = residual
        self.output_map = list(range(len(types)))
        self._executor = ExpressionExecutor(context)

    @property
    def left(self) -> PhysicalOperator:
        return self.children[0]

    @property
    def right(self) -> PhysicalOperator:
        return self.children[1]

    def project(self, positions: List[int], names: List[str]) -> None:
        """Emit only output columns ``positions``, named ``names``."""
        self.output_map = [self.output_map[position] for position in positions]
        self.types = [self.types[position] for position in positions]
        self.names = list(names)

    def _probe_output(self, probe: DataChunk, probe_rows: np.ndarray,
                      build: Optional[DataChunk], build_rows: np.ndarray,
                      build_matched: Optional[np.ndarray]
                      ) -> Iterator[DataChunk]:
        """Output of one probe chunk's match pairs: the pairs the residual
        keeps (marked in ``build_matched``), then -- left and full joins --
        the probe rows no pair kept, NULL-extended."""
        if self.residual is not None and probe_rows.size:
            combined = DataChunk(probe.slice(probe_rows).columns
                                 + build.slice(build_rows).columns)
            mask = self._executor.execute_filter(self.residual, combined)
            probe_rows, build_rows = probe_rows[mask], build_rows[mask]
        if build_matched is not None:
            build_matched[build_rows] = True
        yield from self._emit(probe, probe_rows, build, build_rows)
        if self.join_type in ("left", "full"):
            matched = np.zeros(probe.size, dtype=np.bool_)
            matched[probe_rows] = True
            yield from self._emit(probe, np.flatnonzero(~matched), None, None)

    def _emit(self, left: Optional[DataChunk], left_rows: Optional[np.ndarray],
              right: Optional[DataChunk], right_rows: Optional[np.ndarray]
              ) -> Iterator[DataChunk]:
        """Rows ``left[left_rows] ++ right[right_rows]`` through the output
        map, as one chunk (none when there are no rows); a ``None`` side is
        all NULL (outer joins)."""
        count = len(left_rows) if left is not None else len(right_rows)
        if not count:
            return
        width = len(self.left.types)
        columns = []
        for position, dtype in zip(self.output_map, self.types):
            if position < width:
                source, rows = left, left_rows
            else:
                source, rows, position = right, right_rows, position - width
            columns.append(Vector.empty(dtype, count) if source is None
                           else source.columns[position].slice(rows))
        yield DataChunk(columns)

    def _explain_map(self) -> str:
        """`` out=<mapped>/<left + right>`` unless the map is the identity."""
        width = len(self.left.types) + len(self.right.types)
        return "" if self.output_map == list(range(width)) \
            else f" out={len(self.output_map)}/{width}"


class PhysicalHashJoin(_JoinBase):
    """Equi-join with a materialized (RAM-resident) build side.

    The build side is the right child.  Build keys are factorized into a
    code index; each probe batch is matched with one gather on a unique
    build side with a dense code space, a vectorized expansion otherwise --
    no per-row Python.
    """

    def execute(self) -> Iterator[DataChunk]:
        context = self.context
        # Build phase: materialize the right side through a ChunkBuffer so
        # the reactive controller can compress it under memory pressure.
        with ChunkBuffer(self.right.types, context, "hash join build") as buffer:
            for chunk in self.right.run():
                context.check_interrupted()
                buffer.append(chunk)
            build = buffer.materialize()
        context.bump_stat("join_build_rows", build.size)

        build_keys = [self._executor.execute(condition.right, build)
                      for condition in self.conditions]
        index = BuildIndex(build_keys) if build.size else None
        build_matched = np.zeros(build.size, dtype=np.bool_) \
            if self.join_type in ("right", "full") else None

        for probe in _batched(self.left.run()):
            context.check_interrupted()
            if index is None:
                probe_rows = build_rows = np.zeros(0, dtype=np.int64)
            else:
                probe_rows, build_rows = index.match(
                    [self._executor.execute(condition.left, probe)
                     for condition in self.conditions])
            yield from self._probe_output(probe, probe_rows, build,
                                          build_rows, build_matched)

        if build_matched is not None:
            yield from self._emit(None, None, build,
                                  np.flatnonzero(~build_matched))

    def _explain_line(self) -> str:
        return (f"HASH_JOIN {self.join_type.upper()} "
                f"eq={len(self.conditions)}{self._explain_map()}")


class PhysicalMergeJoin(_JoinBase):
    """Out-of-core sort-merge join on a single equi-key.

    Both inputs are externally sorted on the key; the merge keeps only a
    window of right rows whose key is still joinable, so resident memory is
    O(duplicates + chunk), not O(input) -- the low-RAM/high-CPU end of the
    paper's trade-off.  Supports inner and left joins without residuals on
    the probe side semantics (the planner enforces eligibility).
    """

    def __init__(self, context, left, right, join_type, conditions, residual):
        super().__init__(context, left, right, join_type, conditions, residual)
        if len(conditions) != 1:
            raise InternalError("Merge join requires exactly one equi-condition")
        if join_type not in ("inner", "left"):
            raise InternalError(f"Merge join does not support {join_type} joins")

    def _sorted_side(self, child: PhysicalOperator, key_expr: BoundExpression):
        """Externally sort a child by its key; yields (chunk, key_vector)."""
        # The key is appended as an extra column so it sorts with the data.
        types = list(child.types) + [key_expr.return_type]
        sorter = ExternalSorter(
            types,
            [SortKey(len(child.types), ascending=True, nulls_first=False)],
            self.context,
        )
        for chunk in child.run():
            self.context.check_interrupted()
            key = self._executor.execute(key_expr, chunk)
            sorter.append(DataChunk(list(chunk.columns) + [key]))
        for chunk in sorter.sorted_chunks():
            key = chunk.columns[-1]
            yield DataChunk(chunk.columns[:-1]), key

    def execute(self) -> Iterator[DataChunk]:
        condition = self.conditions[0]
        left_stream = self._sorted_side(self.left, condition.left)
        right_stream = iter(self._sorted_side(self.right, condition.right))

        right_window: Optional[DataChunk] = None
        right_window_keys: Optional[Vector] = None
        right_exhausted = False
        pending_right: Optional[Tuple[DataChunk, Vector]] = None

        def pull_right():
            nonlocal pending_right, right_exhausted
            if pending_right is not None:
                out = pending_right
                pending_right = None
                return out
            try:
                return next(right_stream)
            except StopIteration:
                right_exhausted = True
                return None

        for left_chunk, left_keys in left_stream:
            if left_chunk.size == 0:
                continue
            left_valid = left_keys.validity
            # NULL keys sort last (nulls_first=False) and never match.
            lo_key = None
            hi_key = None
            valid_positions = np.flatnonzero(left_valid)
            if valid_positions.size:
                lo_key = left_keys.data[valid_positions[0]]
                hi_key = left_keys.data[valid_positions[-1]]

            # Advance the right window: drop rows below lo_key, pull rows <= hi_key.
            if hi_key is not None:
                while not right_exhausted:
                    item = pull_right()
                    if item is None:
                        break
                    chunk, keys = item
                    if chunk.size == 0:
                        continue
                    first_valid = np.flatnonzero(keys.validity)
                    if first_valid.size == 0:
                        continue  # all-NULL keys never match
                    if keys.data[first_valid[0]] > hi_key:
                        pending_right = item
                        break
                    # Keep only valid-key rows in the window.
                    kept = chunk.slice(keys.validity)
                    kept_keys = keys.slice(keys.validity)
                    if right_window is None:
                        right_window, right_window_keys = kept, kept_keys
                    else:
                        right_window = DataChunk.concat_many([right_window, kept])
                        right_window_keys = right_window_keys.concat(kept_keys)
                    last = right_window_keys.data[len(right_window_keys) - 1]
                    if last > hi_key:
                        break
            if right_window is not None and lo_key is not None:
                # Trim rows strictly below the left chunk's smallest key.
                cut = int(np.searchsorted(right_window_keys.data, lo_key, side="left"))
                if cut > 0:
                    right_window = right_window.slice(slice(cut, None))
                    right_window_keys = right_window_keys.slice(slice(cut, None))

            # Match the left chunk against the window (both sorted).
            left_rows = window_rows = np.zeros(0, dtype=np.int64)
            if right_window is not None and right_window.size and hi_key is not None:
                window_keys = right_window_keys.data
                lo = np.searchsorted(window_keys, left_keys.data, side="left")
                hi = np.searchsorted(window_keys, left_keys.data, side="right")
                counts = hi - lo
                counts[~left_valid] = 0
                left_rows, window_rows = expand_ranges(lo, counts)
            yield from self._probe_output(left_chunk, left_rows, right_window,
                                          window_rows, None)

    def _explain_line(self) -> str:
        return f"MERGE_JOIN {self.join_type.upper()}{self._explain_map()}"


class PhysicalNestedLoopJoin(_JoinBase):
    """Block nested-loop join: cross products and non-equi conditions.

    The right side is materialized; each (left chunk x right chunk) block is
    expanded into every pair and filtered by the predicate -- still
    vectorized per block, quadratic overall.
    """

    def execute(self) -> Iterator[DataChunk]:
        context = self.context
        with ChunkBuffer(self.right.types, context, "nl join build") as buffer:
            for chunk in self.right.run():
                context.check_interrupted()
                buffer.append(chunk)
            build = buffer.materialize()

        build_matched = np.zeros(build.size, dtype=np.bool_) \
            if self.join_type in ("right", "full") else None

        for probe in self.left.run():
            context.check_interrupted()
            # Every probe row pairs with every build row.
            probe_rows, build_rows = expand_ranges(
                np.zeros(probe.size, dtype=np.int64),
                np.full(probe.size, build.size, dtype=np.int64))
            yield from self._probe_output(probe, probe_rows, build,
                                          build_rows, build_matched)

        if build_matched is not None:
            yield from self._emit(None, None, build,
                                  np.flatnonzero(~build_matched))

    def _explain_line(self) -> str:
        kind = "CROSS" if self.residual is None else "NL"
        return f"{kind}_JOIN {self.join_type.upper()}{self._explain_map()}"
