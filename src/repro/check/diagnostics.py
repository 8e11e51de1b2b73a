"""Diagnostics core of the static verification subsystem.

Every checker in :mod:`repro.check` reports findings as
:class:`Diagnostic` records carrying a **stable error code** (``CTG012``,
``SCHED031``, ...), a severity and a human-readable message.  Codes are
declared once, centrally, in :data:`CODE_TABLE` below — the reference
documentation (``docs/diagnostics.md``) mirrors this table one entry per
code, and a test asserts the two never drift apart.

Design rules for codes:

* a code never changes meaning once shipped — new findings get new
  codes, retired checks leave their code reserved (the retired
  source-flow decades ``DET2xx``, ``NUM3xx`` and ``ENG4xx`` stay
  unused);
* the prefix names the layer that owns the invariant (``CTG`` graph
  structure, ``PLAT`` platform spec, ``SCHED`` schedule soundness and
  feasibility, ``LINK`` communication bookings, ``CACHE`` path-cache
  consistency, ``AST`` repository source lint, ``FAULT`` fault-plan
  validity);
* the numeric part groups related checks in decades (e.g. ``SCHED02x``
  are placement-exclusivity checks, ``SCHED03x`` deadline feasibility).

:class:`CheckReport` aggregates diagnostics across checkers and renders
them as text (one line per finding) or JSON (stable schema for CI and
tooling).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple


class Severity(IntEnum):
    """Finding severity; orderable so reports can sort worst-first."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    @property
    def label(self) -> str:
        """Lower-case render used in text output."""
        return self.name.lower()


@dataclass(frozen=True)
class CodeInfo:
    """Registry entry describing one diagnostic code."""

    code: str
    title: str
    severity: Severity


#: Central declaration of every diagnostic code the subsystem can emit.
#: ``docs/diagnostics.md`` documents each entry; keep the two in sync
#: (``tests/test_diagnostics.py`` enforces it).
CODE_TABLE: Tuple[CodeInfo, ...] = (
    # -- conditional task graph ----------------------------------------
    CodeInfo("CTG001", "graph contains a cycle", Severity.ERROR),
    CodeInfo("CTG002", "conditional edge guarded by a foreign branch", Severity.ERROR),
    CodeInfo("CTG003", "negative communication volume", Severity.ERROR),
    CodeInfo("CTG004", "branch fork with fewer than 2 outcomes", Severity.ERROR),
    CodeInfo("CTG005", "invalid deadline", Severity.ERROR),
    CodeInfo("CTG006", "no deadline set", Severity.WARNING),
    CodeInfo("CTG010", "unsatisfiable activation condition", Severity.ERROR),
    CodeInfo("CTG011", "scenario enumeration failed", Severity.ERROR),
    CodeInfo("CTG012", "branch probabilities do not sum to 1", Severity.ERROR),
    CodeInfo("CTG013", "probability label is not a declared outcome", Severity.ERROR),
    CodeInfo("CTG014", "probability outside [0, 1]", Severity.ERROR),
    CodeInfo("CTG015", "branch without a default distribution", Severity.WARNING),
    # -- platform -------------------------------------------------------
    CodeInfo("PLAT001", "task has no profile on any PE", Severity.ERROR),
    CodeInfo("PLAT002", "missing link between communicating PEs", Severity.ERROR),
    CodeInfo("PLAT003", "assigned speed outside the PE envelope", Severity.ERROR),
    CodeInfo("PLAT004", "assigned speed off the discrete level set", Severity.ERROR),
    CodeInfo("PLAT005", "empty discrete frequency table", Severity.ERROR),
    CodeInfo("PLAT006", "frequency table unsorted or with duplicate levels", Severity.ERROR),
    CodeInfo("PLAT007", "frequency level outside the PE envelope", Severity.ERROR),
    # -- schedule structure and feasibility -----------------------------
    CodeInfo("SCHED001", "task not placed", Severity.ERROR),
    CodeInfo("SCHED002", "task placed on an unsupported PE", Severity.ERROR),
    CodeInfo("SCHED010", "placement order violates precedence", Severity.ERROR),
    CodeInfo("SCHED020", "PE time-slot overlap between non-exclusive tasks", Severity.ERROR),
    CodeInfo("SCHED021", "same-PE non-exclusive pair not serialised", Severity.ERROR),
    CodeInfo("SCHED030", "worst-case makespan exceeds the deadline", Severity.ERROR),
    CodeInfo("SCHED031", "scenario misses the deadline", Severity.ERROR),
    # -- communication bookings -----------------------------------------
    CodeInfo("LINK001", "booking on a non-existent link", Severity.ERROR),
    CodeInfo("LINK002", "booking endpoints disagree with the mapping", Severity.ERROR),
    CodeInfo("LINK003", "booked duration disagrees with link bandwidth", Severity.WARNING),
    CodeInfo("LINK005", "overlapping bookings on one link", Severity.ERROR),
    # -- path-analytics cache -------------------------------------------
    CodeInfo("CACHE001", "cached path structure disagrees with the schedule", Severity.ERROR),
    CodeInfo("CACHE002", "cached scenario set disagrees with the analysis", Severity.ERROR),
    # -- repository AST lint --------------------------------------------
    CodeInfo("AST101", "mutable default argument", Severity.ERROR),
    CodeInfo("AST102", "blind exception handler", Severity.ERROR),
    CodeInfo("AST103", "float equality comparison", Severity.ERROR),
    CodeInfo("AST104", "private tolerance constant", Severity.ERROR),
    # -- fault plans -----------------------------------------------------
    CodeInfo("FAULT001", "unknown injector kind", Severity.ERROR),
    CodeInfo("FAULT002", "firing rate outside [0, 1]", Severity.ERROR),
    CodeInfo("FAULT003", "magnitude out of range for the injector kind", Severity.ERROR),
    CodeInfo("FAULT004", "empty or negative activation window", Severity.ERROR),
    CodeInfo("FAULT005", "injector target does not resolve", Severity.ERROR),
    CodeInfo("FAULT006", "fault plan declares no injectors", Severity.WARNING),
)

#: Code → registry entry, derived from :data:`CODE_TABLE`.
CODE_REGISTRY: Dict[str, CodeInfo] = {info.code: info for info in CODE_TABLE}
if len(CODE_REGISTRY) != len(CODE_TABLE):  # pragma: no cover - declaration bug
    raise RuntimeError("duplicate diagnostic code in CODE_TABLE")


def code_info(code: str) -> CodeInfo:
    """Registry entry of a code; raises ``KeyError`` for unknown codes."""
    return CODE_REGISTRY[code]


@dataclass(frozen=True)
class Diagnostic:
    """One finding of one checker.

    Attributes
    ----------
    code:
        Stable error code from :data:`CODE_REGISTRY`.
    message:
        Human-readable description with the concrete names/numbers.
    subject:
        The entity the finding is about (task, PE, scenario, or a
        ``file:line:col`` source location) — machine-consumable, used
        for grouping in reports.
    severity:
        Defaults to the code's registered severity.
    symbol:
        Optional stable symbol the finding anchors to (e.g. the
        qualified name of a function, ``repro.io:canonical_json``),
        which survives the line-number drift of unrelated edits.  No
        built-in checker sets it; it is kept in the JSON schema.
    """

    code: str
    message: str
    subject: str = ""
    severity: Optional[Severity] = None
    symbol: str = ""

    def __post_init__(self) -> None:
        if self.code not in CODE_REGISTRY:
            raise ValueError(f"unregistered diagnostic code {self.code!r}")
        if self.severity is None:
            object.__setattr__(self, "severity", CODE_REGISTRY[self.code].severity)

    def __str__(self) -> str:
        where = f" [{self.subject}]" if self.subject else ""
        return f"{self.severity.label} {self.code}{where}: {self.message}"

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation (stable keys)."""
        return {
            "code": self.code,
            "severity": self.severity.label,
            "subject": self.subject,
            "symbol": self.symbol,
            "message": self.message,
        }


@dataclass
class CheckReport:
    """Aggregated findings of one verification run."""

    diagnostics: List[Diagnostic] = field(default_factory=list)
    #: optional labels of the checkers that ran (for the report header)
    checks_run: List[str] = field(default_factory=list)

    def add(self, diagnostic: Diagnostic) -> None:
        """Append one finding."""
        self.diagnostics.append(diagnostic)

    def extend(self, diagnostics: Iterable[Diagnostic]) -> None:
        """Append findings from one checker."""
        self.diagnostics.extend(diagnostics)

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)

    # -- queries ---------------------------------------------------------
    @property
    def errors(self) -> List[Diagnostic]:
        """Error-severity findings."""
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    @property
    def warnings(self) -> List[Diagnostic]:
        """Warning-severity findings."""
        return [d for d in self.diagnostics if d.severity is Severity.WARNING]

    @property
    def ok(self) -> bool:
        """Whether no error-severity finding was recorded."""
        return not self.errors

    def codes(self) -> List[str]:
        """Distinct codes present, sorted."""
        return sorted({d.code for d in self.diagnostics})

    def has(self, code: str) -> bool:
        """Whether any finding carries ``code``."""
        return any(d.code == code for d in self.diagnostics)

    def by_code(self, code: str) -> List[Diagnostic]:
        """All findings carrying ``code``."""
        return [d for d in self.diagnostics if d.code == code]

    # -- rendering -------------------------------------------------------
    def render_text(self, header: str = "") -> str:
        """One line per finding, worst severity first, plus a summary."""
        lines: List[str] = []
        if header:
            lines.append(header)
        ordered = sorted(
            self.diagnostics, key=lambda d: (-int(d.severity), d.code, d.subject)
        )
        lines.extend(str(d) for d in ordered)
        lines.append(self.summary())
        return "\n".join(lines)

    def summary(self) -> str:
        """One-line verdict, e.g. ``check failed: 2 errors, 1 warning``."""
        n_err, n_warn = len(self.errors), len(self.warnings)
        verdict = "check passed" if self.ok else "check FAILED"
        parts = [f"{n_err} error{'s' if n_err != 1 else ''}"]
        if n_warn:
            parts.append(f"{n_warn} warning{'s' if n_warn != 1 else ''}")
        return f"{verdict}: {', '.join(parts)}"

    def to_json(self, indent: Optional[int] = 2) -> str:
        """Stable JSON rendering for CI and tooling."""
        payload = {
            "ok": self.ok,
            "errors": len(self.errors),
            "warnings": len(self.warnings),
            "checks_run": list(self.checks_run),
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }
        return json.dumps(payload, indent=indent, sort_keys=True)
