"""Parsing substrate for the static analyzer: module and project contexts.

``repro.lint`` never imports the code it checks -- every rule works on the
:mod:`ast` of the source files, so linting a broken or half-edited tree is
safe and the tests can analyse a *copy* of the package without fighting
``sys.modules``.  This module owns the two context objects
the rules consume:

* :class:`ModuleContext` -- one parsed source file: dotted module name,
  repo-relative path, source text/lines, AST, and the flattened import table
  (:class:`ImportBinding` records, with ``TYPE_CHECKING``-guarded imports
  marked so name resolution can skip them -- they never execute).
* :class:`ProjectContext` -- the whole package tree keyed by dotted name,
  built either from the filesystem (:func:`load_project`) or from in-memory
  sources (:func:`project_from_sources`, used heavily by the test fixtures).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Mapping

__all__ = [
    "ImportBinding",
    "ModuleContext",
    "ProjectContext",
    "load_project",
    "project_from_sources",
    "dotted_name",
    "walk_with_symbol",
]


@dataclass(frozen=True)
class ImportBinding:
    """One name bound by an ``import`` statement.

    ``import a.b.c`` binds ``a`` but depends on ``a.b.c`` (``attr`` is
    ``None``); ``from a.b import c as x`` binds ``x`` with ``module='a.b'``
    and ``attr='c'``.  ``type_checking`` marks bindings inside an
    ``if TYPE_CHECKING:`` block: they are visible to annotations only and
    never execute, so call-target resolution ignores them.
    """

    local: str
    module: str
    attr: str | None
    type_checking: bool = False


@dataclass
class ModuleContext:
    """One parsed source file plus the lookup tables the rules share."""

    name: str
    relpath: str
    source: str
    tree: ast.Module
    is_package: bool = False
    lines: list[str] = field(default_factory=list)
    imports: list[ImportBinding] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.lines:
            self.lines = self.source.splitlines()
        if not self.imports:
            self.imports = _collect_imports(self.tree, self.name, self.is_package)

    def alias_map(self) -> dict[str, str]:
        """Local name -> dotted module for plain ``import X [as y]`` bindings."""
        return {
            binding.local: binding.module
            for binding in self.imports
            if binding.attr is None and not binding.type_checking
        }

    def from_import_map(self) -> dict[str, ImportBinding]:
        """Local name -> binding for ``from X import y`` bindings."""
        return {
            binding.local: binding
            for binding in self.imports
            if binding.attr is not None and not binding.type_checking
        }


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a ``Name``/``Attribute`` chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _is_type_checking_test(test: ast.expr) -> bool:
    name = dotted_name(test)
    return name in ("TYPE_CHECKING", "typing.TYPE_CHECKING")


def _collect_imports(
    tree: ast.Module, module_name: str, is_package: bool
) -> list[ImportBinding]:
    """Flatten every import statement (module-level, nested, function-local).

    ``TYPE_CHECKING`` blocks are flagged instead of dropped so callers can
    decide (call-target resolution skips them).
    """
    package = module_name if is_package else module_name.rpartition(".")[0]
    bindings: list[ImportBinding] = []

    def visit(node: ast.AST, type_checking: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.If) and _is_type_checking_test(child.test):
                for sub in child.body:
                    visit_stmt(sub, True)
                for sub in child.orelse:
                    visit_stmt(sub, type_checking)
                continue
            visit_stmt(child, type_checking)

    def visit_stmt(child: ast.AST, type_checking: bool) -> None:
        if isinstance(child, ast.Import):
            for alias in child.names:
                local = alias.asname or alias.name.partition(".")[0]
                bindings.append(
                    ImportBinding(local, alias.name, None, type_checking)
                )
        elif isinstance(child, ast.ImportFrom):
            base = child.module or ""
            if child.level:
                # Relative import: climb from the defining package.
                anchor = package.split(".") if package else []
                anchor = anchor[: len(anchor) - (child.level - 1)]
                base = ".".join(anchor + ([child.module] if child.module else []))
            for alias in child.names:
                if alias.name == "*":
                    continue
                bindings.append(
                    ImportBinding(alias.asname or alias.name, base, alias.name, type_checking)
                )
        visit(child, type_checking)

    visit(tree, False)
    return bindings


def walk_with_symbol(tree: ast.Module) -> Iterator[tuple[ast.AST, str]]:
    """Yield ``(node, enclosing_function_name)`` pairs, depth first.

    The symbol is the nearest enclosing function (qualified by ``.`` for
    nesting, class names included), or ``""`` at module level -- it feeds the
    reports.
    """

    def visit(node: ast.AST, symbol: str) -> Iterator[tuple[ast.AST, str]]:
        for child in ast.iter_child_nodes(node):
            child_symbol = symbol
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                child_symbol = f"{symbol}.{child.name}" if symbol else child.name
            yield child, child_symbol
            yield from visit(child, child_symbol)

    yield from visit(tree, "")


@dataclass
class ProjectContext:
    """Every module of one package tree, keyed by dotted module name."""

    modules: dict[str, ModuleContext]


def _module_name_for(path: Path, package_dir: Path, package: str) -> str:
    relative = path.relative_to(package_dir)
    parts = list(relative.parts)
    if parts[-1] == "__init__.py":
        parts = parts[:-1]
    else:
        parts[-1] = parts[-1][: -len(".py")]
    return ".".join([package, *parts])


def load_project(package_dir: Path, package: str = "repro") -> ProjectContext:
    """Parse every ``*.py`` under *package_dir* into a :class:`ProjectContext`.

    *package_dir* is the directory of the package itself (``.../src/repro``);
    paths in findings are reported relative to its grandparent (the repo
    root for the standard ``src`` layout) when possible.
    """
    package_dir = Path(package_dir).resolve()
    report_base = package_dir.parent.parent
    modules: dict[str, ModuleContext] = {}
    for path in sorted(package_dir.rglob("*.py")):
        name = _module_name_for(path, package_dir, package)
        source = path.read_text()
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:  # pragma: no cover - the tree always parses
            raise SyntaxError(f"cannot lint {path}: {exc}") from exc
        try:
            relpath = path.relative_to(report_base).as_posix()
        except ValueError:  # pragma: no cover - package outside a src layout
            relpath = path.as_posix()
        modules[name] = ModuleContext(
            name=name,
            relpath=relpath,
            source=source,
            tree=tree,
            is_package=path.name == "__init__.py",
        )
    return ProjectContext(modules=modules)


def project_from_sources(sources: Mapping[str, str]) -> ProjectContext:
    """Build a :class:`ProjectContext` from in-memory ``{name: source}`` pairs.

    Used by the lint test fixtures: a dotted name is treated as a package
    when any other supplied name nests under it.
    """
    names = set(sources)
    modules: dict[str, ModuleContext] = {}
    for name, source in sources.items():
        is_package = any(other.startswith(name + ".") for other in names)
        relpath = name.replace(".", "/") + ("/__init__.py" if is_package else ".py")
        modules[name] = ModuleContext(
            name=name,
            relpath=relpath,
            source=source,
            tree=ast.parse(source),
            is_package=is_package,
        )
    return ProjectContext(modules=modules)
