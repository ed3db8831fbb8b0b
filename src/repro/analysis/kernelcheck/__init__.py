"""Kernel contracts checked at test time.

Every scalar function, aggregate, and builtin expression operator is a
hot-path contract: its dtype, NULL semantics and input immutability decide
the correctness of the vectorized interpreter.  Scalar functions declare
their NULL contract where they are registered (``functions/scalar.py``);
operators declare theirs in :data:`conformance.CUSTOM_NULL_OPERATORS`;
aggregates skip NULLs.  :mod:`conformance` fuzzes every registered kernel
with NULL-heavy, empty and extreme vectors and reports each contract it
breaks.  The file-local view of the same contracts is quacklint's QLK/QLV
rules (:mod:`repro.analysis.rules.kernels`), checked at lint time.
"""

from __future__ import annotations

from .conformance import (
    ConformanceIssue,
    KernelContract,
    kernel_contracts,
    run_conformance,
)

__all__ = [
    "ConformanceIssue",
    "KernelContract",
    "kernel_contracts",
    "run_conformance",
]
