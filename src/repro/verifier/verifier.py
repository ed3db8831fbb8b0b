"""quackplan orchestration: sessions and loud failure.

:class:`PlanVerifier` is the engine-facing object (one per
:class:`~repro.database.Database`, consulted only when
``config.verify_plans`` is on -- the disabled cost is one attribute test in
the optimizer).  The optimizer opens a :class:`VerificationSession` per
statement and runs every rewrite pass through it; the physical planner
reports each root lowering, subquery lowerings mid-execution included.
Every stage's outcome is appended to the running statement's own
:class:`~repro.observability.accounting.StatementRecord` -- the store
behind the ``repro_plan_checks()`` system table -- and any violation raises
:class:`~repro.errors.PlanVerificationError` carrying the offending pass
name and before/after plan snippets.

Thread safety: the verifier holds no state.  A record belongs to one
statement, whose stages all run on the thread driving it, so the appends
need no lock; the record is published to other threads only when the
statement log takes it at the statement's end.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from ..errors import PlanVerificationError
from ..planner.logical import LogicalOperator, reads_system_table
from . import invariants
from .invariants import PlanViolation

__all__ = [
    "PlanVerifier",
    "VerificationSession",
    "active_verifier",
]

#: Cap on plan-snippet length inside one recorded check (plans can be big;
#: the exception carries the full text, the table carries the gist).
_SNIPPET_CHARS = 400

#: One recorded check: ``(stage, invariant, status, operator, detail)``.
Check = Tuple[str, str, str, str, str]


def _snippet(text: str) -> str:
    flat = " / ".join(part.strip() for part in text.splitlines())
    if len(flat) > _SNIPPET_CHARS:
        flat = flat[:_SNIPPET_CHARS - 3] + "..."
    return flat


def active_verifier(database) -> Optional["PlanVerifier"]:
    """The database's verifier when plan verification is enabled, else None.

    This is the whole disabled-mode cost: two attribute reads per optimize
    call and per root lowering.
    """
    if database is None:
        return None
    config = getattr(database, "config", None)
    if config is None or not getattr(config, "verify_plans", False):
        return None
    return database.plan_verifier


def _checks_of(record, plan: LogicalOperator) -> Optional[List[Check]]:
    """The statement record's check list, or None when ``plan``'s checks
    are not recorded (no record, or a statement reading a system table)."""
    if record is None or reads_system_table(plan):
        return None
    if record.plan_checks is None:
        record.plan_checks = []
    return record.plan_checks


def _finish_stage(stage: str, violations: List[PlanViolation], before: str,
                  after: str, checks: Optional[List[Check]]) -> None:
    if checks is not None:
        if not violations:
            checks.append((stage, "all", "ok", "", ""))
        for violation in violations:
            checks.append((
                stage, violation.invariant, "violation", violation.operator,
                f"{violation.message} | before: {_snippet(before)} | "
                f"after: {_snippet(after)}"))
    if violations:
        first = violations[0]
        raise PlanVerificationError(
            f"quackplan: {len(violations)} plan invariant violation(s) "
            f"after {stage!r}: [{first.invariant}] {first.operator}: "
            f"{first.message}\n"
            f"-- plan before {stage} --\n{before}\n"
            f"-- plan after {stage} --\n{after}")


class PlanVerifier:
    """Static plan checks after every optimizer pass and at lowering."""

    def begin(self, plan: LogicalOperator,
              record) -> "VerificationSession":
        """Start verifying one statement; checks the binder's output too.
        ``record`` is the statement's record (None records nothing)."""
        checks = _checks_of(record, plan)
        text = plan.explain()
        _finish_stage("binder", invariants.check_logical(plan), text, text,
                      checks)
        return VerificationSession(checks)

    def check_lowering(self, logical: LogicalOperator, physical,
                       record) -> None:
        """Verify one root logical->physical translation; ``record`` as in
        :meth:`begin`."""
        _finish_stage("lowering", invariants.check_lowering(logical, physical),
                      logical.explain(), physical.explain(),
                      _checks_of(record, logical))


class VerificationSession:
    """Per-statement driver: wraps each optimizer pass with checks."""

    def __init__(self, checks: Optional[List[Check]]) -> None:
        self._checks = checks

    def run_pass(self, name: str,
                 fn: Callable[[LogicalOperator], LogicalOperator],
                 plan: LogicalOperator) -> LogicalOperator:
        """Run one rewrite pass and verify what it produced.

        Passes mutate plans in place, so the before-snapshot (explain text,
        schema signature, output bound) is captured eagerly."""
        before_text = plan.explain()
        before_signature = invariants.schema_signature(plan)
        before_bound = invariants.output_bound(plan)
        result = fn(plan)
        violations = invariants.check_logical(result)
        violations.extend(
            invariants.check_schema_preserved(before_signature, result))
        after_bound = invariants.output_bound(result)
        if before_bound is not None \
                and (after_bound is None or after_bound > before_bound):
            violations.append(PlanViolation(
                "limit_monotonic", type(result).__name__,
                f"pass raised the plan's output bound from "
                f"{before_bound:g} to "
                f"{'unbounded' if after_bound is None else format(after_bound, 'g')}"
                f" rows -- ancestors may now see more rows than the "
                f"original LIMIT allowed"))
        _finish_stage(name, violations, before_text, result.explain(),
                      self._checks)
        return result

    def check_annotated(self, plan: LogicalOperator) -> None:
        """Cardinality sanity after ``cost.annotate`` stamped the tree."""
        text = plan.explain()
        _finish_stage("annotate", invariants.check_cardinality(plan),
                      text, text, self._checks)
