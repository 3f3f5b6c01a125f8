"""Temporal fair division of indivisible goods.

Goods arrive over rounds; fairness (envy up to one or any good, scaled
envy, maximin shares) must hold at every prefix, not just at the end.
The package provides exact checkers, the known allocation algorithms for
structured valuation classes, exhaustive existence search, a delay-buffer
scheduling extension, seeded instance generators, and a command line tool.
"""

from .errors import (
    BufferViolation,
    PreconditionError,
    SearchCapExceeded,
    ShareCapExceeded,
    SolverFailure,
    TempfairError,
    ValidationError,
)
from .fairness import (
    Concept,
    Verdict,
    check_temporal,
    is_alpha_efx,
    is_ef1,
    is_efx,
    is_mms,
    mms_share,
)
from .model import (
    Good,
    SettingClass,
    TemporalAllocation,
    TemporalInstance,
    allocation_from_json,
    allocation_to_json,
    classify,
    good_key,
    instance_from_json,
    instance_to_json,
    prefix,
    validate,
)
from .generators import generate
from .search import SearchOutcome, search
from .solvers import SOLVERS, SolverEntry
from .verification import FixtureReport, verify_counterexamples

__all__ = [
    "BufferViolation",
    "Concept",
    "FixtureReport",
    "Good",
    "PreconditionError",
    "SOLVERS",
    "SearchCapExceeded",
    "SearchOutcome",
    "SettingClass",
    "ShareCapExceeded",
    "SolverEntry",
    "SolverFailure",
    "TempfairError",
    "TemporalAllocation",
    "TemporalInstance",
    "ValidationError",
    "Verdict",
    "allocation_from_json",
    "allocation_to_json",
    "check_temporal",
    "classify",
    "generate",
    "good_key",
    "instance_from_json",
    "instance_to_json",
    "is_alpha_efx",
    "is_ef1",
    "is_efx",
    "is_mms",
    "mms_share",
    "prefix",
    "search",
    "validate",
    "verify_counterexamples",
]
