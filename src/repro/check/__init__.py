"""Static verification subsystem: checkers, diagnostics, AST lint.

Layering note: this package sits *both below and above* the rest of
``repro``.  The diagnostics core and the shared tolerance constants
(:mod:`repro.check.tolerances`, :mod:`repro.check.diagnostics`) are
imported by ``repro.ctg``/``repro.scheduling``/``repro.sim`` and must
stay dependency-free; the checkers (:mod:`repro.check.api` and
friends) import those packages back.  To keep the circle open, this
``__init__`` imports only the bottom layer eagerly and resolves the
checker API lazily via module ``__getattr__`` (PEP 562) — so
``from repro.check.tolerances import TIME_EPS`` inside
``repro.scheduling.schedule`` never re-enters the scheduling package.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .diagnostics import (
    CODE_REGISTRY,
    CODE_TABLE,
    CheckReport,
    CodeInfo,
    Diagnostic,
    Severity,
    code_info,
)
from .tolerances import EXACT_EPS, PROB_EPS, SPEED_EPS, TIME_EPS

if TYPE_CHECKING:  # pragma: no cover - static-analysis aid only
    from .api import CheckError, assert_clean, check_instance, verify_schedule
    from .cache_checks import check_pathcache
    from .ctg_checks import check_ctg, check_probability_table
    from .fault_checks import check_fault_plan
    from .feasibility import check_scenario_feasibility, scenario_finish_time
    from .platform_checks import check_frequency_tables, check_platform
    from .schedule_checks import check_schedule

#: Lazily resolved names → owning submodule (PEP 562).
_LAZY = {
    "CheckError": "api",
    "assert_clean": "api",
    "check_instance": "api",
    "verify_schedule": "api",
    "check_ctg": "ctg_checks",
    "check_probability_table": "ctg_checks",
    "check_frequency_tables": "platform_checks",
    "check_platform": "platform_checks",
    "check_schedule": "schedule_checks",
    "check_scenario_feasibility": "feasibility",
    "scenario_finish_time": "feasibility",
    "check_pathcache": "cache_checks",
    "check_fault_plan": "fault_checks",
}

__all__ = [
    "CODE_REGISTRY",
    "CODE_TABLE",
    "CheckReport",
    "CodeInfo",
    "Diagnostic",
    "Severity",
    "code_info",
    "EXACT_EPS",
    "PROB_EPS",
    "SPEED_EPS",
    "TIME_EPS",
    *sorted(_LAZY),
]


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value  # cache for subsequent lookups
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
