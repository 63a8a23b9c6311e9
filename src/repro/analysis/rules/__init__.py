"""The domain lint rules: RA001 … RA003, RA008, RA009, RA202 and RA204.

Every rule carries an ID, a fix hint, and a scope; ``docs/analysis.md``
documents each one with its rationale and an example.  Suppress a
finding per line with ``# repro: noqa`` (all rules) or
``# repro: noqa: RA001,RA003`` (specific rules) — an unknown ID in a
pragma, a retired rule's included, is itself a finding (RA010).
"""

from __future__ import annotations

from .base import LintContext, Rule, Violation, in_hot_path
from .boundaries import OutcomeContractRule
from .concurrency import BlockingCallRule, UnboundedStreamRule
from .performance import FrontOfListRule, SortInLoopRule
from .service import ActorBoundaryRule
from .time_arith import FloatTimeModuloRule

__all__ = [
    "ALL_RULES",
    "LintContext",
    "Rule",
    "Violation",
    "in_hot_path",
]

#: registry, in ID order; the lint runner applies every applicable rule
ALL_RULES: tuple[Rule, ...] = (
    FrontOfListRule(),
    SortInLoopRule(),
    FloatTimeModuloRule(),
    OutcomeContractRule(),
    ActorBoundaryRule(),
    BlockingCallRule(),
    UnboundedStreamRule(),
)
