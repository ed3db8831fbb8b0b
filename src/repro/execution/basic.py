"""Streaming operators: filter, projection, limit."""

from __future__ import annotations

from typing import Iterator, List, Optional

from ..planner.expressions import BoundExpression
from ..types import DataChunk
from .expression_executor import ExpressionExecutor
from .physical import ExecutionContext, PhysicalOperator

__all__ = ["PhysicalFilter", "PhysicalProjection", "PhysicalLimit"]


class PhysicalFilter(PhysicalOperator):
    def __init__(self, context: ExecutionContext, child: PhysicalOperator,
                 predicate: BoundExpression) -> None:
        super().__init__(context, [child], child.types, child.names)
        self.predicate = predicate

    def execute(self) -> Iterator[DataChunk]:
        executor = ExpressionExecutor(self.context)
        for chunk in self.children[0].run():
            self.context.check_interrupted()
            mask = executor.execute_filter(self.predicate, chunk)
            if mask.all():
                yield chunk
            elif mask.any():
                yield chunk.slice(mask)

    def _explain_line(self) -> str:
        return f"FILTER {self.predicate!r}"


class PhysicalProjection(PhysicalOperator):
    def __init__(self, context: ExecutionContext, child: PhysicalOperator,
                 expressions: List[BoundExpression], names: List[str]) -> None:
        super().__init__(context, [child],
                         [expression.return_type for expression in expressions],
                         names)
        self.expressions = expressions

    def execute(self) -> Iterator[DataChunk]:
        executor = ExpressionExecutor(self.context)
        for chunk in self.children[0].run():
            self.context.check_interrupted()
            # Neither chunk is held while suspended: an UPDATE writes the
            # rows their storage views show (ColumnData._unshare would copy).
            handoff = [DataChunk([executor.execute(expression, chunk)
                                  for expression in self.expressions])]
            del chunk
            yield handoff.pop()

    def _explain_line(self) -> str:
        return f"PROJECT [{', '.join(self.names)}]"


class PhysicalLimit(PhysicalOperator):
    def __init__(self, context: ExecutionContext, child: PhysicalOperator,
                 limit: Optional[int], offset: int) -> None:
        super().__init__(context, [child], child.types, child.names)
        self.limit = limit
        self.offset = offset

    def execute(self) -> Iterator[DataChunk]:
        to_skip = self.offset
        remaining = self.limit
        for chunk in self.children[0].run():
            self.context.check_interrupted()
            if to_skip:
                if chunk.size <= to_skip:
                    to_skip -= chunk.size
                    continue
                chunk = chunk.slice(slice(to_skip, None))
                to_skip = 0
            if remaining is None:
                yield chunk
                continue
            if remaining <= 0:
                return
            if chunk.size > remaining:
                chunk = chunk.slice(slice(0, remaining))
            remaining -= chunk.size
            if chunk.size:
                # A copy: the chunk may view a whole aggregate or join
                # result (``DataChunk.split``), which the few rows a LIMIT
                # keeps must not hold alive.
                yield chunk.copy()
            if remaining <= 0:
                return

    def _explain_line(self) -> str:
        return f"LIMIT {self.limit} OFFSET {self.offset}"
