"""quackplan: static plan verification for optimizer rewrites.

PR 6 made the optimizer cost-based -- join reordering, limit pushdown, and
scan hints rewrite plans aggressively, and a bad rewrite produces silently
wrong answers, not errors.  quackplan closes that gap: a static analysis
pass over logical and physical plan trees that runs after every optimizer
pass and at logical->physical translation, checking column-binding
integrity, schema/type preservation, limit soundness, ordering propagation
into Sort/Top-N, and cardinality sanity (see
:mod:`repro.verifier.invariants` for the full invariant list).

Off by default with near-zero overhead; ``REPRO_VERIFY_PLANS=1`` (or
``PRAGMA verify_plans = 1``) turns it on, in which case every stage's
outcome is recorded on the statement's own record (read back through the
``repro_plan_checks()`` system table) and any violation is raised as
:class:`~repro.errors.PlanVerificationError` with the offending pass named
and before/after plan snippets attached.
"""

from .invariants import PlanViolation
from .verifier import PlanVerifier, VerificationSession, active_verifier

__all__ = [
    "PlanVerifier",
    "PlanViolation",
    "VerificationSession",
    "active_verifier",
]
