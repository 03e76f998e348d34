"""repro.lint: determinism static analysis (``kecss lint``).

Every guarantee this reproduction makes -- bit-identical kernel/oracle
parity, replay-safe caches, identical aggregates across execution backends
-- is a determinism invariant.  The runtime checks (the differential sweeps
against ``tests/oracles.py``, ``kecss bench --against``) only cover the
seeds actually swept; the DET001-DET004 rules in :data:`RULES` check the
*sources* of nondeterminism statically, before execution.  The analyzer is
AST-only: it never imports what it checks, so linting a broken tree or a
copy of the package is safe.  An inline ``# repro: disable=CODE[,CODE...]``
comment, ideally followed by a justification (``-- reason``), silences its
own line.  See ``docs/lint.md`` for the rule catalogue and workflows.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterator

__all__ = [
    "Finding",
    "RULES",
    "lint",
    "lint_source",
    "suppressed_codes",
    "render_text",
    "render_json",
]

#: ``# repro: disable=DET001,DET004 -- optional justification``
_SUPPRESSION = re.compile(r"#\s*repro:\s*disable=([A-Z0-9_,\s]+)")

#: ``random``-module attributes that are fine to touch: constructing a
#: seeded (or explicitly OS-backed) generator is the threaded-``rng``
#: pattern this rule wants, not a violation of it.
_RANDOM_ALLOWED = frozenset({"Random", "SystemRandom"})

#: ``numpy.random`` attributes that construct seedable generators.
_NUMPY_RANDOM_ALLOWED = frozenset(
    {"default_rng", "Generator", "SeedSequence", "RandomState", "PCG64", "Philox"}
)

#: Wall-clock / entropy / identity calls that make a trial unreplayable.
_NONDETERMINISTIC_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.clock_gettime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.date.today",
        "uuid.uuid1",
        "uuid.uuid4",
        "os.urandom",
        "os.getrandom",
        "os.getpid",
    }
)

#: Inexact ``math`` functions: their results are correctly-rounded floats,
#: not exact integers/Fractions.
_INEXACT_MATH = frozenset(
    {
        "math.log",
        "math.log2",
        "math.log10",
        "math.log1p",
        "math.sqrt",
        "math.exp",
        "math.expm1",
        "math.pow",
    }
)

#: Modules whose scoring/accumulation paths are documented exact
#: (``Fraction``/int arithmetic; see the module docstrings): the TAP
#: cost-effectiveness pipeline and the 3-ECSS/k-ECSS scoring kernels.
#: DET004 flags any float that creeps into them.
EXACT_MODULES = frozenset(
    {
        "repro.core.fastaug",
        "repro.core.three_ecss",
        "repro.tap.distributed",
        "repro.tap.fastcover",
        "repro.tap.greedy",
    }
)


@dataclass
class Finding:
    """One rule violation at one source location."""

    code: str
    path: str
    line: int
    col: int
    message: str
    symbol: str = ""


@dataclass(frozen=True)
class ModuleContext:
    """One parsed source file and its import table (:func:`_import_targets`)."""

    name: str
    relpath: str
    tree: ast.Module
    imports: dict[str, str]


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


def _import_targets(
    tree: ast.Module, module_name: str, is_package: bool
) -> dict[str, str]:
    """Local name -> dotted target for every import (module-level, nested,
    function-local).

    ``import a.b.c`` binds ``a`` to ``a`` (the name it binds is the top
    package, so ``a.b.c.f`` resolves as written); ``import a.b as x`` binds
    ``x`` to ``a.b``; ``from a.b import c as x`` binds ``x`` to ``a.b.c``, and a
    relative ``from`` climbs from the defining package.  A plain ``import``
    wins over a ``from`` import of the same local name.  The body of an
    ``if TYPE_CHECKING:`` block never executes, so it binds nothing.
    """
    package = module_name if is_package else module_name.rpartition(".")[0]
    modules: dict[str, str] = {}
    attrs: dict[str, str] = {}

    def record(stmt: ast.AST) -> None:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                top = alias.name.partition(".")[0]
                modules[alias.asname or top] = alias.name if alias.asname else top
        elif isinstance(stmt, ast.ImportFrom):
            base = stmt.module or ""
            if stmt.level:
                # Relative import: climb from the defining package.
                anchor = package.split(".") if package else []
                anchor = anchor[: len(anchor) - (stmt.level - 1)]
                base = ".".join(anchor + ([stmt.module] if stmt.module else []))
            for alias in stmt.names:
                if alias.name != "*":
                    target = f"{base}.{alias.name}" if base else alias.name
                    attrs[alias.asname or alias.name] = target

    def visit(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.If) and dotted_name(child.test) in (
                "TYPE_CHECKING", "typing.TYPE_CHECKING",
            ):
                stmts = child.orelse
            else:
                stmts = [child]
            for stmt in stmts:
                record(stmt)
                visit(stmt)

    visit(tree)
    return {**attrs, **modules}


def walk_with_symbol(
    node: ast.AST, symbol: str = ""
) -> Iterator[tuple[ast.AST, str]]:
    """Yield ``(node, enclosing_function_name)`` pairs below *node*, depth
    first.

    The symbol is the nearest enclosing function (qualified by ``.`` for
    nesting, class names included), or ``""`` at module level -- it feeds the
    reports.
    """
    for child in ast.iter_child_nodes(node):
        child_symbol = symbol
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            child_symbol = f"{symbol}.{child.name}" if symbol else child.name
        yield child, child_symbol
        yield from walk_with_symbol(child, child_symbol)


def _qualified(func: ast.expr, ctx: ModuleContext) -> str | None:
    """Resolve a call target to a fully-qualified dotted name.

    ``np.random.seed`` resolves through the import table to
    ``numpy.random.seed``; ``shuffle`` bound by ``from random import
    shuffle`` resolves to ``random.shuffle``.  Unresolvable heads come back
    verbatim (attribute chains on local variables match no pattern).
    """
    name = dotted_name(func)
    if name is None:
        return None
    head, _, rest = name.partition(".")
    if head not in ctx.imports:
        return name
    base = ctx.imports[head]
    return f"{base}.{rest}" if rest else base


def det001_global_random(ctx: ModuleContext) -> Iterator[Finding]:
    """Global ``random``/``numpy.random`` calls draw from interpreter-wide
    state: results then depend on import order, on other trials sharing the
    process, and on the execution backend.  Thread a seeded
    ``random.Random`` (the repo-wide ``rng`` argument convention) instead,
    so serial, threaded and multi-process sweeps stay bit-identical."""
    for node, symbol in walk_with_symbol(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        qualified = _qualified(node.func, ctx)
        if qualified is None:
            continue
        prefix, _, attr = qualified.rpartition(".")
        if prefix == "random" and attr not in _RANDOM_ALLOWED:
            yield Finding(
                "DET001", ctx.relpath, node.lineno, node.col_offset,
                f"call to global RNG 'random.{attr}'; thread a seeded "
                f"random.Random through an 'rng' argument instead",
                symbol,
            )
        elif prefix == "numpy.random" and attr not in _NUMPY_RANDOM_ALLOWED:
            yield Finding(
                "DET001", ctx.relpath, node.lineno, node.col_offset,
                f"call to global RNG 'numpy.random.{attr}'; use a seeded "
                f"numpy.random.Generator (default_rng) instead",
                symbol,
            )


def _is_set_expression(node: ast.expr) -> bool:
    """Syntactically certain to produce an unordered ``set``/``frozenset``."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
    ):
        return _is_set_expression(node.left) or _is_set_expression(node.right)
    return False


#: Callables that materialise their argument's iteration order.
_ORDER_SENSITIVE_CONSUMERS = frozenset({"list", "tuple", "enumerate", "iter"})


def det002_set_iteration_order(ctx: ModuleContext) -> Iterator[Finding]:
    """Iterating a ``set`` materialises an order that depends on hash seeds
    and insertion history, not on the data -- any list, RNG draw or
    augmentation sequence built from it differs across processes (and
    ``PYTHONHASHSEED`` values) while every runtime check still passes on the
    machine that ran it.  Wrap the set in ``sorted(...)`` before it feeds
    ordering-sensitive output.  Membership tests and set-to-set algebra are
    order-insensitive and not flagged."""

    def finding(node: ast.expr, symbol: str, context: str) -> Finding:
        return Finding(
            "DET002", ctx.relpath, node.lineno, node.col_offset,
            f"iteration over an unordered set {context}; wrap it in sorted(...) "
            f"so downstream ordering is deterministic",
            symbol,
        )

    for node, symbol in walk_with_symbol(ctx.tree):
        if isinstance(node, ast.For) and _is_set_expression(node.iter):
            yield finding(node.iter, symbol, "in a for loop")
        elif isinstance(node, (ast.ListComp, ast.GeneratorExp)):
            # Set/dict comprehensions over a set rebuild an unordered value;
            # list comprehensions and generators materialise the order.
            for generator in node.generators:
                if _is_set_expression(generator.iter):
                    yield finding(generator.iter, symbol, "in a comprehension")
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in _ORDER_SENSITIVE_CONSUMERS
            and node.args
            and _is_set_expression(node.args[0])
        ):
            yield finding(node.args[0], symbol, f"passed to {node.func.id}(...)")


def det003_trial_wall_clock(ctx: ModuleContext) -> Iterator[Finding]:
    """A registered trial function is the unit of caching and replay: its
    metrics must be a pure function of ``(config, seed)``.  Wall-clock
    reads, ``uuid`` generation, OS entropy and process identity all break
    replay -- a cached result would disagree with a recomputation.  Timing
    belongs to the engine (which records durations outside the cached
    payload), not to the trial."""
    for stmt in ctx.tree.body:
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        # ``@register_trial(...)``, bare or attribute-qualified.
        if not any(
            isinstance(decorator, ast.Call)
            and (dotted_name(decorator.func) or "").split(".")[-1] == "register_trial"
            for decorator in stmt.decorator_list
        ):
            continue
        for node in ast.walk(stmt):
            if not isinstance(node, ast.Call):
                continue
            qualified = _qualified(node.func, ctx)
            if qualified is None:
                continue
            if qualified in _NONDETERMINISTIC_CALLS or qualified.startswith(
                "secrets."
            ):
                yield Finding(
                    "DET003", ctx.relpath, node.lineno, node.col_offset,
                    f"'{qualified}' inside registered trial function "
                    f"'{stmt.name}': trial metrics must be a pure function "
                    f"of (config, seed) to be cacheable and replayable",
                    stmt.name,
                )


def det004_float_in_exact_path(ctx: ModuleContext) -> Iterator[Finding]:
    """The TAP/3-ECSS/k-ECSS scoring pipeline is documented exact: integer
    weights and ``Fraction`` cost-effectiveness values, compared without
    rounding, are what make the kernel-vs-oracle parity *bit*-identical.  A
    float that creeps into these modules rounds at 53 bits, and two
    mathematically equal scores can compare unequal (or ties break
    differently) depending on accumulation order.  Keep floats out of the
    modules listed in ``EXACT_MODULES``; genuinely derived float reporting
    must be suppressed inline with a justification."""
    if ctx.name not in EXACT_MODULES:
        return
    for node, symbol in walk_with_symbol(ctx.tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "float"
        ):
            yield Finding(
                "DET004", ctx.relpath, node.lineno, node.col_offset,
                "float() conversion in a documented-exact module; keep "
                "scoring in int/Fraction arithmetic",
                symbol,
            )
        elif isinstance(node, ast.Constant) and type(node.value) is float:
            yield Finding(
                "DET004", ctx.relpath, node.lineno, node.col_offset,
                f"float literal {node.value!r} in a documented-exact module; "
                f"use int/Fraction arithmetic",
                symbol,
            )
        elif isinstance(node, ast.Call):
            qualified = _qualified(node.func, ctx)
            if qualified in _INEXACT_MATH:
                yield Finding(
                    "DET004", ctx.relpath, node.lineno, node.col_offset,
                    f"inexact '{qualified}' in a documented-exact module; "
                    f"results are 53-bit floats, not exact values",
                    symbol,
                )


#: Every rule, in code order: ``(code, title, check)``.  A check is called
#: once per module and sees only that file.
RULES = (
    ("DET001", "global RNG state", det001_global_random),
    ("DET002", "unordered set iteration", det002_set_iteration_order),
    ("DET003", "nondeterminism inside trial functions", det003_trial_wall_clock),
    ("DET004", "float arithmetic in exact paths", det004_float_in_exact_path),
)


def suppressed_codes(line: str) -> frozenset[str]:
    """The rule codes an inline comment on *line* suppresses."""
    match = _SUPPRESSION.search(line)
    if match is None:
        return frozenset()
    return frozenset(
        code.strip() for code in match.group(1).split(",") if code.strip()
    )


def _position(finding: Finding) -> tuple:
    return (finding.path, finding.line, finding.col, finding.code)


def lint_source(
    source: str, name: str, relpath: str, is_package: bool = False
) -> list[Finding]:
    """Every rule's findings on one source file, in report order.

    *name* is the dotted module name (``__init__.py`` files carry their
    package's name and set *is_package*); *relpath* is the path the
    findings report.  Findings on a line whose inline comment disables
    their code are dropped.
    """
    tree = ast.parse(source, filename=relpath)
    ctx = ModuleContext(name, relpath, tree, _import_targets(tree, name, is_package))
    lines = source.splitlines()
    findings = [
        finding
        for _, _, check in RULES
        for finding in check(ctx)
        if finding.code not in suppressed_codes(
            lines[finding.line - 1] if 0 < finding.line <= len(lines) else ""
        )
    ]
    return sorted(findings, key=_position)


def lint(package_dir: Path) -> list[Finding]:
    """Lint every ``*.py`` under the package directory *package_dir*.

    Modules are named after ``package_dir.name`` (``.../src/repro`` holds
    ``repro``); paths in findings are relative to the grandparent of
    *package_dir* (the repo root for the standard ``src`` layout).
    """
    package_dir = Path(package_dir).resolve()
    report_base = package_dir.parent.parent
    findings: list[Finding] = []
    for path in sorted(package_dir.rglob("*.py")):
        parts = path.relative_to(package_dir).with_suffix("").parts
        is_package = path.name == "__init__.py"
        name = ".".join((package_dir.name, *parts[: -1 if is_package else None]))
        relpath = path.relative_to(report_base).as_posix()
        findings += lint_source(path.read_text(), name, relpath, is_package)
    return sorted(findings, key=_position)


def _summary(findings: list[Finding]) -> dict:
    per_rule: dict[str, int] = {}
    for finding in findings:
        per_rule[finding.code] = per_rule.get(finding.code, 0) + 1
    return {"total": len(findings), "rules": dict(sorted(per_rule.items()))}


def render_text(findings: list[Finding]) -> str:
    """The human report: one line per finding (in :func:`lint` order) plus
    a summary."""
    lines: list[str] = []
    for finding in findings:
        suffix = f" [{finding.symbol}]" if finding.symbol else ""
        lines.append(
            f"{finding.path}:{finding.line}:{finding.col}: "
            f"{finding.code} {finding.message}{suffix}"
        )
    summary = _summary(findings)
    if summary["total"] == 0:
        lines.append("kecss lint: no findings")
    else:
        per_rule = ", ".join(
            f"{code}:{count}" for code, count in summary["rules"].items()
        )
        lines.append(
            f"kecss lint: {summary['total']} finding"
            f"{'' if summary['total'] == 1 else 's'} [{per_rule}]"
        )
    return "\n".join(lines)


def render_json(findings: list[Finding]) -> str:
    """The machine report consumed by the CI gate."""
    payload = {
        "findings": [asdict(finding) for finding in findings],
        "summary": _summary(findings),
        "rules": {code: {"title": title} for code, title, _ in RULES},
    }
    return json.dumps(payload, indent=2, sort_keys=True)
