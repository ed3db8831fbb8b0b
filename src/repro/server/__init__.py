"""The serving front end: sessions, caches, admission control.

This package multiplexes many client sessions onto one embedded
:class:`~repro.database.Database` (see :class:`QueryServer`).  Import
discipline: :mod:`repro.database` instantiates the caches, the admission
controller, and the session registry at construction time, so nothing in
this package may import ``repro.database`` or ``repro.client`` at module
level -- those imports are deferred into the methods that need them.
"""

from .admission import AdmissionController, AdmissionTicket
from .cache import (CachedPlan, CachedResult, PlanCache, ResultCache,
                    plan_result_cacheable)
from .session import Session, SessionRegistry
from .server import QueryServer

__all__ = [
    "AdmissionController",
    "AdmissionTicket",
    "CachedPlan",
    "CachedResult",
    "PlanCache",
    "ResultCache",
    "plan_result_cacheable",
    "QueryServer",
    "Session",
    "SessionRegistry",
]
