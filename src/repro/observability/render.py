"""Render captured traces as human-readable operator trees.

``EXPLAIN ANALYZE`` formats its profile here: a span tree becomes an indented operator profile with wall/CPU time, rows
in/out, throughput, and -- for parallel pipelines -- per-worker morsel
counts and the skew between the busiest and laziest worker.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .trace import Span

__all__ = ["render_span_tree", "worker_summary"]


def _children_index(spans: Sequence[Span]) -> Dict[int, List[Span]]:
    children: Dict[int, List[Span]] = {}
    for span in spans:
        children.setdefault(span.parent_id, []).append(span)
    for bucket in children.values():
        bucket.sort(key=lambda span: span.span_id)
    return children


def _roots(spans: Sequence[Span]) -> List[Span]:
    ids = {span.span_id for span in spans}
    return [span for span in spans
            if span.parent_id == 0 or span.parent_id not in ids]


def worker_summary(spans: Sequence[Span]) -> List[Tuple[int, int, int]]:
    """Per-worker ``(worker index, morsel count, rows)`` from morsel spans.

    Workers are numbered in first-use order (stable across runs of the same
    plan shape, unlike raw thread idents).
    """
    order: Dict[int, int] = {}
    morsels: Dict[int, int] = {}
    rows: Dict[int, int] = {}
    for span in spans:
        if span.kind != "morsel":
            continue
        ident = span.thread_ident
        index = order.setdefault(ident, len(order))
        morsels[index] = morsels.get(index, 0) + 1
        rows[index] = rows.get(index, 0) + span.rows
    return [(index, morsels[index], rows[index]) for index in sorted(morsels)]


def _format_span(span: Span, rows_in: int) -> str:
    parts = [span.name]
    parts.append(f"wall={span.wall_ms:.3f}ms")
    parts.append(f"cpu={span.cpu_ms:.3f}ms")
    if span.kind in ("operator", "morsel"):
        parts.append(f"rows_in={rows_in}")
        parts.append(f"rows_out={span.rows}")
        # Estimated next to actual: the at-a-glance check of whether the
        # optimizer's statistics matched reality for this operator.
        if "est_rows" in span.attrs:
            parts.append(f"est_rows={span.attrs['est_rows']}")
        parts.append(f"chunks={span.chunks}")
        if span.bytes_processed:
            parts.append(f"bytes={span.bytes_processed}")
    elif span.rows:
        parts.append(f"rows={span.rows}")
    for key, value in sorted(span.attrs.items()):
        if key == "est_rows":
            continue
        parts.append(f"{key}={value}")
    return "  ".join(parts)


def render_span_tree(spans: Sequence[Span],
                     root: Optional[Span] = None,
                     indent: int = 0) -> List[str]:
    """Indented lines for the span tree rooted at ``root`` (or all roots)."""
    children = _children_index(spans)
    lines: List[str] = []

    def visit(span: Span, depth: int) -> None:
        kids = children.get(span.span_id, [])
        rows_in = sum(kid.rows for kid in kids
                      if kid.kind in ("operator", "morsel"))
        lines.append("  " * depth + _format_span(span, rows_in))
        morsel_kids = [kid for kid in kids if kid.kind == "morsel"]
        if morsel_kids:
            for index, count, rows in worker_summary(morsel_kids):
                lines.append("  " * (depth + 1)
                             + f"worker {index}: morsels={count} rows={rows}")
            rows_per_worker = [rows for _, _, rows in
                               worker_summary(morsel_kids)]
            if len(rows_per_worker) > 1 and max(rows_per_worker):
                skew = (max(rows_per_worker) - min(rows_per_worker)) \
                    / max(rows_per_worker)
                lines.append("  " * (depth + 1) + f"worker skew: {skew:.2f}")
        for kid in kids:
            if kid.kind != "morsel":
                visit(kid, depth + 1)

    if root is not None:
        visit(root, indent)
    else:
        for top in _roots(spans):
            visit(top, indent)
    return lines

