"""Repository AST lint — rules distilled from this project's own bugs.

PR 1 fixed three latent-bug families that ordinary review had let
through: a shared mutable dataclass default (``AdaptiveConfig()`` leaked
window state between controllers), a silent ``except Exception: pass``
(swallowed real cycle errors in the modal DVFS clone), and exact float
comparisons on derived times.  This linter turns each family into a
machine-checked rule so none of them regresses:

``AST101`` — **mutable default argument / shared dataclass default.**
    A function parameter default that is a mutable literal (list, dict,
    set, comprehension) or a constructor call is evaluated *once* and
    shared across calls.  The same applies to a ``@dataclass`` field
    default that is a constructor call or ``field(default=<mutable>)``
    — use ``field(default_factory=...)``.  Calls to known-immutable
    builtins (``tuple``, ``frozenset``, ``object`` sentinels, ...) are
    allowed.

``AST102`` — **blind exception handler.**
    A bare ``except:`` anywhere, or an ``except Exception:`` /
    ``except BaseException:`` whose body only ``pass``es — both hide
    unrelated failures (the modal-DVFS bug).  Handling ``Exception``
    and *doing something* (log, count, re-raise) is fine; swallowing it
    is not.

``AST103`` — **float equality.**
    ``==`` / ``!=`` against a float literal compares derived times,
    energies or speeds for bit-exactness; use a tolerance from
    :mod:`repro.check.tolerances` or an inequality.  Test files and
    benchmarks are exempt — asserting an exactly-constructed value is
    the point of a unit test.

``AST104`` — **private tolerance constant.**
    A module-level assignment to an uppercase name ending in ``_TOL``
    or ``_EPS`` outside ``repro/check/tolerances.py`` re-grows exactly
    the scattered-epsilon drift the PR-2 unification removed (the
    stretching stage's ``_CERTAIN_TOL`` slipped through it and went
    stale against the shared module).  Import the constant from
    :mod:`repro.check.tolerances` instead — and if no shared constant
    fits, add one there so every layer sees the same value.

Suppression: append ``# lint: ignore[AST103]`` (or a bare
``# lint: ignore``) to the offending line when a finding is a
deliberate exception; the comment documents the waiver in place.

Run as ``python -m repro.check.astlint src tests`` (exit code 1 when
any finding survives suppression); the CI lint job does exactly that.
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .diagnostics import CheckReport, Diagnostic

#: Call targets allowed as parameter/field defaults: immutable results
#: (or the conventional ``object()`` identity sentinel).
_IMMUTABLE_CALLS: Set[str] = {
    "tuple",
    "frozenset",
    "int",
    "float",
    "bool",
    "str",
    "bytes",
    "complex",
    "object",
    "Decimal",
    "Fraction",
    "Path",
}

#: Directory names whose files are exempt from the float-equality rule.
_FLOAT_EQ_EXEMPT_DIRS: Set[str] = {"tests", "benchmarks"}


def _is_tolerance_name(name: str) -> bool:
    """Whether a binding name looks like a private tolerance constant."""
    bare = name.lstrip("_")
    if not bare or not bare.isupper():
        return False
    return bare in ("TOL", "EPS") or bare.endswith(("_TOL", "_EPS"))

_SUPPRESS_RE = re.compile(r"#\s*lint:\s*ignore(?:\[(?P<codes>[A-Z0-9,\s]+)\])?")


def suppression_table(source: str) -> Dict[int, Optional[Set[str]]]:
    """Line → suppressed codes (``None`` = every code) from comments.

    A ``# lint: ignore`` comment suppresses every code on its line; the
    bracketed form names one or more comma-separated codes
    (``# lint: ignore[AST101,AST103]``).
    """
    table: Dict[int, Optional[Set[str]]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(line)
        if match is None:
            continue
        codes = match.group("codes")
        if codes is None:
            table[lineno] = None
        else:
            table[lineno] = {c.strip() for c in codes.split(",") if c.strip()}
    return table


def _call_name(node: ast.Call) -> Optional[str]:
    """Trailing identifier of a call target (``a.b.C()`` → ``"C"``)."""
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _mutable_default(node: ast.expr) -> Optional[str]:
    """Why a default expression is shared-mutable, or ``None`` if safe."""
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return "a mutable literal"
    if isinstance(node, ast.Call):
        name = _call_name(node)
        if name is None or name not in _IMMUTABLE_CALLS:
            rendered = name or "<expression>"
            return f"a call to {rendered}() evaluated once at definition time"
    return None


def _is_dataclass_decorated(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
        if isinstance(target, ast.Attribute) and target.attr == "dataclass":
            return True
    return False


def _exception_names(handler_type: Optional[ast.expr]) -> List[str]:
    if handler_type is None:
        return []
    nodes: Iterable[ast.expr]
    nodes = handler_type.elts if isinstance(handler_type, ast.Tuple) else [handler_type]
    names = []
    for node in nodes:
        if isinstance(node, ast.Name):
            names.append(node.id)
        elif isinstance(node, ast.Attribute):
            names.append(node.attr)
    return names


def _body_is_silent(body: Sequence[ast.stmt]) -> bool:
    """Whether a handler body does nothing but swallow."""
    return all(
        isinstance(stmt, ast.Pass)
        or (
            isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Constant)
            and stmt.value.value is Ellipsis
        )
        for stmt in body
    )


class _Linter(ast.NodeVisitor):
    """Single-file rule visitor; findings accumulate on ``self.found``."""

    def __init__(
        self, filename: str, float_eq_exempt: bool, tolerance_home: bool = False
    ) -> None:
        self.filename = filename
        self.float_eq_exempt = float_eq_exempt
        self.tolerance_home = tolerance_home
        self._scope_depth = 0  # 0 = module level; AST104 only fires there
        self.found: List[Tuple[str, int, int, str]] = []  # (code, line, col, message)

    # -- AST101: function defaults --------------------------------------
    def _check_defaults(self, node) -> None:
        args = node.args
        for default in [*args.defaults, *args.kw_defaults]:
            if default is None:
                continue
            reason = _mutable_default(default)
            if reason is not None:
                self.found.append(
                    (
                        "AST101",
                        default.lineno,
                        default.col_offset + 1,
                        f"default of an argument of {getattr(node, 'name', '<lambda>')!r} "
                        f"is {reason}; use None + in-body construction or "
                        "field(default_factory=...)",
                    )
                )

    def _visit_scope(self, node) -> None:
        self._scope_depth += 1
        try:
            self.generic_visit(node)
        finally:
            self._scope_depth -= 1

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node)
        self._visit_scope(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_defaults(node)
        self._visit_scope(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._check_defaults(node)
        self._visit_scope(node)

    # -- AST101: dataclass field defaults --------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if _is_dataclass_decorated(node):
            for stmt in node.body:
                if not isinstance(stmt, ast.AnnAssign) or stmt.value is None:
                    continue
                value = stmt.value
                if isinstance(value, ast.Call) and _call_name(value) == "field":
                    for keyword in value.keywords:
                        if keyword.arg != "default":
                            continue
                        reason = _mutable_default(keyword.value)
                        if reason is not None:
                            self.found.append(
                                (
                                    "AST101",
                                    keyword.value.lineno,
                                    keyword.value.col_offset + 1,
                                    f"field(default=...) in dataclass "
                                    f"{node.name!r} is {reason}; use "
                                    "default_factory",
                                )
                            )
                else:
                    reason = _mutable_default(value)
                    if reason is not None:
                        self.found.append(
                            (
                                "AST101",
                                value.lineno,
                                value.col_offset + 1,
                                f"dataclass {node.name!r} field default is "
                                f"{reason} shared by every instance; use "
                                "field(default_factory=...)",
                            )
                        )
        self._visit_scope(node)

    # -- AST104: private tolerance constants ------------------------------
    def _check_tolerance_binding(self, target: ast.expr) -> None:
        if self._scope_depth > 0 or self.tolerance_home:
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._check_tolerance_binding(element)
            return
        if isinstance(target, ast.Name) and _is_tolerance_name(target.id):
            self.found.append(
                (
                    "AST104",
                    target.lineno,
                    target.col_offset + 1,
                    f"module-level tolerance constant {target.id!r} outside "
                    "repro.check.tolerances; import the shared value (or add "
                    "one there) so comparison epsilons cannot drift apart",
                )
            )

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_tolerance_binding(target)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._check_tolerance_binding(node.target)
        self.generic_visit(node)

    # -- AST102: blind except --------------------------------------------
    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self.found.append(
                (
                    "AST102",
                    node.lineno,
                    node.col_offset + 1,
                    "bare 'except:' catches SystemExit/KeyboardInterrupt too; "
                    "name the exceptions this handler is for",
                )
            )
        else:
            names = _exception_names(node.type)
            if (
                any(n in ("Exception", "BaseException") for n in names)
                and _body_is_silent(node.body)
            ):
                self.found.append(
                    (
                        "AST102",
                        node.lineno,
                        node.col_offset + 1,
                        f"'except {'/'.join(names)}: pass' silently swallows "
                        "every failure; narrow the exception type or handle it",
                    )
                )
        self.generic_visit(node)

    # -- AST103: float equality ------------------------------------------
    def visit_Compare(self, node: ast.Compare) -> None:
        if not self.float_eq_exempt and any(
            isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops
        ):
            operands = [node.left, *node.comparators]
            if any(
                isinstance(operand, ast.Constant) and isinstance(operand.value, float)
                for operand in operands
            ):
                self.found.append(
                    (
                        "AST103",
                        node.lineno,
                        node.col_offset + 1,
                        "'==' / '!=' against a float literal; compare with a "
                        "tolerance from repro.check.tolerances instead",
                    )
                )
        self.generic_visit(node)


def _float_eq_exempt(path: Path) -> bool:
    parts = set(path.parts[:-1])
    name = path.name
    return (
        bool(parts & _FLOAT_EQ_EXEMPT_DIRS)
        or name.startswith("test_")
        or name == "conftest.py"
    )


def _is_tolerance_home(path: Path) -> bool:
    """Whether a path is the shared tolerances module itself."""
    return path.name == "tolerances.py" and "check" in path.parts


def lint_source(
    source: str,
    filename: str = "<string>",
    float_eq_exempt: bool = False,
    tolerance_home: bool = False,
) -> List[Diagnostic]:
    """Lint one source string; returns surviving findings."""
    tree = ast.parse(source, filename=filename)
    linter = _Linter(filename, float_eq_exempt, tolerance_home)
    linter.visit(tree)
    waivers = suppression_table(source)
    diagnostics = []
    for code, lineno, col, message in sorted(
        linter.found, key=lambda f: (f[1], f[2], f[0])
    ):
        if lineno in waivers and (waivers[lineno] is None or code in waivers[lineno]):
            continue
        diagnostics.append(
            Diagnostic(code, message, subject=f"{filename}:{lineno}:{col}")
        )
    return diagnostics


def lint_paths(paths: Sequence[Path]) -> CheckReport:
    """Lint every ``*.py`` file under the given files/directories."""
    report = CheckReport(checks_run=["astlint"])
    files: List[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        else:
            files.append(path)
    for file in files:
        source = file.read_text(encoding="utf-8")
        report.extend(
            lint_source(
                source,
                filename=str(file),
                float_eq_exempt=_float_eq_exempt(file),
                tolerance_home=_is_tolerance_home(file),
            )
        )
    return report


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro.check.astlint",
        description="repo-specific AST lint (AST101 mutable defaults, "
        "AST102 blind except, AST103 float equality, AST104 private "
        "tolerance constants)",
    )
    parser.add_argument("paths", nargs="+", type=Path, metavar="PATH")
    parser.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    args = parser.parse_args(argv)
    missing = [p for p in args.paths if not p.exists()]
    if missing:
        print(f"no such path: {', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    report = lint_paths(args.paths)
    if args.json:
        print(report.to_json())
    else:
        for diagnostic in report:
            print(diagnostic)
        print(report.summary())
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
