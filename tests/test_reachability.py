"""Every module under ``src/repro`` is on the pipeline, or it goes.

A static walk of the import graph (module-level imports and imports
inside functions alike) from the two entry points, ``repro.cli`` and
``repro.__main__``, must reach every module of the package.  The only
exceptions are the analysis-only modules listed in
:data:`ANALYSIS_ONLY`, which tests and benchmarks still call directly;
the list can only shrink: a listed module that becomes reachable fails
the test too, so it has to leave the list.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"

ENTRY_POINTS = ("repro.cli", "repro.__main__")

#: Reachable only from tests and benchmarks, awaiting their place in a
#: results registry.
ANALYSIS_ONLY = frozenset({
    "repro.core.blocking",
    "repro.core.iocs",
    "repro.core.metrics",
    "repro.core.plotting",
    "repro.core.related_work",
    "repro.core.sessions",
})


def package_modules() -> dict[str, Path]:
    """Dotted name -> source path of every module in the package."""
    modules = {}
    for path in PACKAGE_ROOT.rglob("*.py"):
        parts = path.relative_to(PACKAGE_ROOT.parent).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


def imported_names(path: Path) -> set[str]:
    """Every dotted name an ``import`` statement anywhere in ``path``
    may refer to (``from a import b`` yields both ``a`` and ``a.b``).

    The package uses absolute imports only; a relative one would leave
    its target unreachable here, failing the test rather than hiding a
    module."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}"
                         for alias in node.names)
    return names


def reachable_modules() -> set[str]:
    modules = package_modules()
    seen: set[str] = set()
    pending = list(ENTRY_POINTS)
    while pending:
        name = pending.pop()
        # Importing a submodule runs every enclosing package first.
        parts = name.split(".")
        for depth in range(1, len(parts) + 1):
            prefix = ".".join(parts[:depth])
            if prefix in modules and prefix not in seen:
                seen.add(prefix)
                pending.extend(imported_names(modules[prefix]))
    return seen


def test_every_module_is_reachable_from_the_cli():
    modules = set(package_modules())
    unreachable = modules - reachable_modules()
    assert sorted(unreachable - ANALYSIS_ONLY) == [], (
        "modules no entry point imports: delete them, or wire them "
        "into the pipeline")
    assert sorted(ANALYSIS_ONLY - unreachable) == [], (
        "allowlisted modules that are now reachable (or gone): drop "
        "them from ANALYSIS_ONLY")
