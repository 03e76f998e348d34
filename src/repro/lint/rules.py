"""The shipped rule family: determinism (DET001-DET004).

Every guarantee the reproduction makes -- bit-identical kernel/oracle parity,
replay-safe caches, identical aggregates across execution backends -- is a
determinism invariant.  The runtime checks (the differential sweeps against
``tests/oracles.py``, ``kecss bench --against``) only cover the seeds
actually swept; these rules check the *sources* of nondeterminism
statically, before execution:

* DET001 -- global ``random`` / ``numpy.random`` module state instead of a
  threaded, seeded generator;
* DET002 -- iteration over an unordered ``set`` feeding ordering-sensitive
  output without an intervening ``sorted()``;
* DET003 -- wall-clock, ``uuid`` or OS-entropy calls inside registered trial
  functions;
* DET004 -- float arithmetic in modules whose scoring paths are documented
  exact (``Fraction``/int).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.registry import register_rule
from repro.lint.report import Finding
from repro.lint.walker import ModuleContext, dotted_name, walk_with_symbol

__all__ = ["EXACT_MODULES"]

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


def _qualified(func: ast.expr, ctx: ModuleContext) -> str | None:
    """Resolve a call target to a fully-qualified dotted name.

    ``np.random.seed`` resolves through the alias map to
    ``numpy.random.seed``; ``shuffle`` bound by ``from random import
    shuffle`` resolves to ``random.shuffle``.  Unresolvable heads come back
    verbatim (attribute chains on local variables match no pattern).
    """
    name = dotted_name(func)
    if name is None:
        return None
    head, _, rest = name.partition(".")
    aliases = ctx.alias_map()
    from_imports = ctx.from_import_map()
    if head in aliases:
        base = aliases[head]
    elif head in from_imports:
        binding = from_imports[head]
        base = f"{binding.module}.{binding.attr}" if binding.module else binding.attr
    else:
        return name
    return f"{base}.{rest}" if rest else base


def is_register_trial_decorator(decorator: ast.expr) -> bool:
    """True for ``@register_trial(...)`` (bare or attribute-qualified)."""
    if not isinstance(decorator, ast.Call):
        return False
    name = dotted_name(decorator.func)
    return name is not None and name.split(".")[-1] == "register_trial"


@register_rule("DET001", "global RNG state")
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


@register_rule("DET002", "unordered set iteration")
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


@register_rule("DET003", "nondeterminism inside trial functions")
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
        if not any(
            is_register_trial_decorator(decorator)
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


@register_rule("DET004", "float arithmetic in exact paths")
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
