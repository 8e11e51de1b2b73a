"""Repository-wide static analysis: AST lint + flow rules + baseline.

This is the engine behind ``repro check --repo``: it runs the per-node
AST lint (:mod:`repro.check.astlint`) over the lint paths and the
call-graph-aware flow rules (:mod:`repro.check.flow`) over the package
sources, then filters the combined findings through the committed
waiver baseline (:mod:`repro.check.baseline`).  The result renders as
text, JSON or SARIF (:mod:`repro.check.sarif`) and gates CI: any
unwaived error-severity finding fails the job.

The package sources are parsed once; the call graph and the flow rules
both read those parsed modules.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from . import astlint
from .baseline import (
    DEFAULT_BASELINE_NAME,
    Waiver,
    apply_baseline,
    load_baseline,
)
from .callgraph import CallGraph, build_callgraph, parse_modules
from .diagnostics import CheckReport, Diagnostic, Severity
from .flow import analyze_modules

#: Package subtree the flow rules analyse, relative to the repo root.
DEFAULT_FLOW_ROOT = "src/repro"
#: Source root imports resolve against (``src/repro/io.py`` → ``repro.io``).
DEFAULT_SRC_ROOT = "src"
#: Paths the AST lint walks, relative to the repo root.
DEFAULT_LINT_PATHS = ("src", "tests")


@dataclass
class RepoAnalysis:
    """Outcome of one repository analysis run."""

    report: CheckReport
    #: findings waived by the committed baseline (kept for reporting)
    waived: List[Diagnostic] = field(default_factory=list)
    #: baseline entries that matched nothing (stale — should be removed)
    unused_waivers: List[Waiver] = field(default_factory=list)
    graph: Optional[CallGraph] = None
    #: every finding before baseline filtering (for --update-baseline)
    all_diagnostics: List[Diagnostic] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Gate verdict: no unwaived error-severity finding."""
        return self.report.ok


def _relativize(diagnostic: Diagnostic, root: Path) -> Diagnostic:
    """Rewrite a ``path:line:col`` subject relative to the repo root."""
    parts = diagnostic.subject.rsplit(":", 2)
    if len(parts) != 3 or not parts[1].isdigit():
        return diagnostic
    prefix = str(root)
    if not prefix.endswith(os.sep):
        prefix += os.sep
    if not parts[0].startswith(prefix):
        return diagnostic
    relative = parts[0][len(prefix):]
    return replace(
        diagnostic, subject=f"{relative}:{parts[1]}:{parts[2]}"
    )


def analyze_repo(
    root: Path,
    *,
    flow_root: str = DEFAULT_FLOW_ROOT,
    src_root: str = DEFAULT_SRC_ROOT,
    lint_paths: Sequence[str] = DEFAULT_LINT_PATHS,
    baseline_path: Optional[Path] = None,
) -> RepoAnalysis:
    """Run the full static-analysis stack over a repository checkout."""
    root = Path(root)
    diagnostics: List[Diagnostic] = []

    lint_targets = [root / p for p in lint_paths if (root / p).exists()]
    if lint_targets:
        diagnostics.extend(astlint.lint_paths(lint_targets))

    graph: Optional[CallGraph] = None
    flow_dir = root / flow_root
    if flow_dir.exists():
        modules = parse_modules(sorted(flow_dir.rglob("*.py")), root / src_root)
        graph = build_callgraph(modules)
        diagnostics.extend(analyze_modules(modules, graph))

    # subjects become root-relative so baselines, SARIF URIs and CI
    # annotations are portable across checkouts
    diagnostics = [_relativize(d, root) for d in diagnostics]
    diagnostics.sort(
        key=lambda d: (d.subject, d.code, d.message)
    )

    if baseline_path is None:
        baseline_path = root / DEFAULT_BASELINE_NAME
    waivers = load_baseline(baseline_path)
    unwaived, waived, unused = apply_baseline(diagnostics, waivers)

    report = CheckReport(checks_run=["astlint", "flow"])
    report.extend(unwaived)
    return RepoAnalysis(
        report=report,
        waived=waived,
        unused_waivers=unused,
        graph=graph,
        all_diagnostics=diagnostics,
    )
