"""The static pass of ``repro check``: every source rule over one parse.

The simulator's headline numbers are only trustworthy while a handful of
code-level invariants hold everywhere: time comes from the simulated clock
(never the wall clock), randomness flows through explicitly seeded
``np.random.Generator`` objects (never hidden global state), simulated
times are compared with tolerances (never float ``==``), engine DAG tasks
are priced through the shared ``op_task``/``transfer_task`` constructors
(so every duration carries a decomposable :class:`TaskCost`), tracing is
opt-in and zero-cost (``tracer=None`` defaults), nothing that feeds a
scheduling decision iterates an unordered set, and arithmetic on
:mod:`repro.units` quantities is dimensionally consistent.  Scattered
per-feature tests cannot enforce discipline like that; a static pass can.

``lint_paths`` parses the file set once into a
:class:`~repro.check.callgraph.ProjectIndex` and a
:class:`~repro.check.callgraph.CallGraph`, then runs the rule table
(:data:`RULES`) in three groups:

* the per-file rules below, over every parsed file;
* the dimension pass (:mod:`repro.check.dimensions`, ``dim-*``);
* the seed-provenance pass (:mod:`repro.check.provenance`), which owns
  every RNG rule (``stdlib-random``, ``np-legacy-random``, ``rng-*``).

A violation can be suppressed at its line with an inline comment::

    res[dep].end == tr.start  # repro-lint: disable=float-time-eq -- exact by construction

Everything after ``--`` is a free-form justification.  Suppressions that
name an unknown rule are themselves reported (rule ``bad-suppression``),
so typos cannot silently disable a check.  Run via ``repro check --only
lint`` (see docs/static_analysis.md for the rule catalogue).
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from pathlib import Path
from typing import Iterable, Sequence

from repro.check.callgraph import CallGraph, ProjectIndex, dotted_name
from repro.check.dimensions import check_dimensions
from repro.check.provenance import check_provenance
from repro.check.report import CheckViolation, ToolReport

__all__ = [
    "RULES",
    "lint_source",
    "lint_paths",
    "iter_python_files",
    "selected_rules",
]

# Rule id -> one-line description.  docs/static_analysis.md carries the
# full rationale, examples, and suppression guidance for each.
RULES: dict[str, str] = {
    # Per-file rules (this module).
    "wall-clock": "wall-clock time source; simulation code must use the simulated clock",
    "float-time-eq": "float ==/!= on simulated times or durations; compare with a tolerance",
    "inline-sim-task": "SimTask constructed inline; price tasks via op_task/transfer_task",
    "tracer-default": "tracer parameters must default to None (NullTracer-compatible)",
    "mutable-default": "mutable default argument",
    "unstable-iteration": "iteration over an unordered set; use sorted() or dict.fromkeys()",
    # Dimension pass (repro.check.dimensions).
    "dim-add-mix": "addition/subtraction/min/max over mismatched physical dimensions",
    "dim-product": "product or quotient lands outside the recognized dimension table",
    "dim-return": "returned expression's dimension contradicts the declared return dimension",
    "dim-arg": "argument's dimension contradicts the parameter's declared dimension",
    # Seed-provenance pass (repro.check.provenance).
    "stdlib-random": "stdlib `random` module; use an explicitly seeded np.random.Generator",
    "np-legacy-random": "legacy np.random module-level call; use np.random.default_rng(seed)",
    "rng-ambient": "random Generator created at module scope (ambient global state)",
    "rng-unseeded": "random Generator created without a seed",
    "rng-untracked-seed": "Generator seed has no provable provenance from an explicit seed",
    # Meta rules.
    "bad-suppression": "suppression comment names an unknown rule",
    "parse-error": "file does not parse",
}

# Rules that cannot be selected or suppressed away — they guard the pass
# itself rather than the analyzed code.
_META_RULES = ("bad-suppression", "parse-error")

_SUPPRESS_RE = re.compile(r"#\s*repro-lint:\s*disable=([A-Za-z0-9_\-, ]+)")

_WALL_CLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.process_time_ns",
    "time.sleep",
}
# Suffix-matched so `datetime.datetime.now`, `datetime.now` (after
# `from datetime import datetime`) and `date.today` all hit.
_WALL_CLOCK_SUFFIXES = (
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "date.today",
)

# Identifier fragments that mark a value as simulated time / duration.
# Identifiers are split on underscores; any matching fragment counts.
_TIME_WORDS = {
    "time",
    "times",
    "duration",
    "durations",
    "makespan",
    "deadline",
    "latency",
    "ttft",
    "tbt",
    "start",
    "end",
    "now",
    "horizon",
    "elapsed",
    "arrival",
    "t0",
    "t1",
}

_MUTABLE_CALLS = {"list", "dict", "set", "bytearray"}


def _is_timelike(node: ast.AST) -> bool:
    if isinstance(node, ast.Name):
        ident = node.id
    elif isinstance(node, ast.Attribute):
        ident = node.attr
    else:
        return False
    return any(part in _TIME_WORDS for part in ident.lower().split("_"))


def _is_zero_literal(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, (int, float))
        and not isinstance(node.value, bool)
        and node.value == 0
    )


def _is_non_numeric_literal(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and (
        node.value is None or isinstance(node.value, (str, bytes, bool))
    )


class _RuleVisitor(ast.NodeVisitor):
    """Per-file rules: one AST walk emitting raw (unsuppressed) violations."""

    def __init__(self, path: str) -> None:
        self.path = path
        self.violations: list[CheckViolation] = []
        # The telemetry package may take required tracer arguments — its
        # whole purpose is tracing; everywhere else tracing must be opt-in.
        self._tracer_exempt = "telemetry" in Path(path).parts

    def _emit(self, rule: str, node: ast.AST, message: str) -> None:
        self.violations.append(
            CheckViolation(
                tool="lint",
                rule=rule,
                message=message,
                path=self.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
            )
        )

    # ---- calls ---------------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        chain = dotted_name(node.func)
        if chain is not None:
            self._check_wall_clock(node, chain)
        func = node.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else None
        )
        if name == "SimTask":
            self._emit(
                "inline-sim-task",
                node,
                "SimTask constructed inline — price tasks via op_task/"
                "transfer_task so durations carry a decomposable TaskCost",
            )
        self.generic_visit(node)

    def _check_wall_clock(self, node: ast.Call, chain: str) -> None:
        hit = chain in _WALL_CLOCK_CALLS or any(
            chain == s or chain.endswith("." + s) for s in _WALL_CLOCK_SUFFIXES
        )
        if hit:
            self._emit(
                "wall-clock",
                node,
                f"`{chain}()` reads the wall clock; simulation code must "
                "derive time from the simulated clock",
            )

    # ---- comparisons ---------------------------------------------------------

    def visit_Compare(self, node: ast.Compare) -> None:
        if any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            operands = [node.left, *node.comparators]
            skip = any(
                _is_zero_literal(o) or _is_non_numeric_literal(o) for o in operands
            )
            if not skip and any(_is_timelike(o) for o in operands):
                named = next(o for o in operands if _is_timelike(o))
                ident = named.id if isinstance(named, ast.Name) else named.attr
                self._emit(
                    "float-time-eq",
                    node,
                    f"exact ==/!= on simulated time `{ident}`; float "
                    "schedule arithmetic needs a tolerance (or a justified "
                    "suppression where bit-exactness is the contract)",
                )
        self.generic_visit(node)

    # ---- function definitions ------------------------------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_function(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_function(node)
        self.generic_visit(node)

    def _check_function(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        args = node.args
        # Positional/keyword defaults align right-to-left.
        pos_args = args.posonlyargs + args.args
        defaults: list[tuple[ast.arg, ast.AST | None]] = []
        pad = len(pos_args) - len(args.defaults)
        for i, arg in enumerate(pos_args):
            defaults.append((arg, args.defaults[i - pad] if i >= pad else None))
        defaults.extend(zip(args.kwonlyargs, args.kw_defaults))

        for arg, default in defaults:
            if default is not None and self._is_mutable_default(default):
                self._emit(
                    "mutable-default",
                    default,
                    f"mutable default for parameter `{arg.arg}` is shared "
                    "across calls; default to None and construct inside",
                )
            if arg.arg == "tracer" and not self._tracer_exempt:
                if default is None:
                    self._emit(
                        "tracer-default",
                        arg,
                        f"`{node.name}` requires a tracer argument; tracing "
                        "must be opt-in (default tracer=None) so untraced "
                        "runs stay zero-cost",
                    )
                elif not self._is_null_tracer_default(default):
                    self._emit(
                        "tracer-default",
                        default,
                        f"`{node.name}` defaults its tracer to a recording "
                        "value; default must be None or NullTracer()",
                    )

    @staticmethod
    def _is_mutable_default(node: ast.AST) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                             ast.DictComp, ast.SetComp)):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in _MUTABLE_CALLS
        )

    @staticmethod
    def _is_null_tracer_default(node: ast.AST) -> bool:
        if isinstance(node, ast.Constant) and node.value is None:
            return True
        if isinstance(node, ast.Call):
            name = dotted_name(node.func)
            return name is not None and name.split(".")[-1] == "NullTracer"
        return False

    # ---- iteration order -----------------------------------------------------

    def visit_For(self, node: ast.For) -> None:
        self._check_iterable(node.iter)
        self.generic_visit(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._check_iterable(node.iter)
        self.generic_visit(node)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._check_comprehension(node)

    def visit_SetComp(self, node: ast.SetComp) -> None:
        self._check_comprehension(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._check_comprehension(node)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self._check_comprehension(node)

    def _check_comprehension(self, node) -> None:
        for gen in node.generators:
            self._check_iterable(gen.iter)
        self.generic_visit(node)

    def _check_iterable(self, node: ast.AST) -> None:
        unordered = isinstance(node, (ast.Set, ast.SetComp)) or (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset")
        )
        if unordered:
            self._emit(
                "unstable-iteration",
                node,
                "iterating an unordered set; order-stabilize with sorted() "
                "or dict.fromkeys() before it can feed a scheduler decision",
            )


def _collect_suppressions(source: str) -> dict[int, list[str]]:
    """Map line number -> rule names suppressed by an inline comment."""
    suppressed: dict[int, list[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = _SUPPRESS_RE.search(tok.string)
            if match is None:
                continue
            names = match.group(1).split("--")[0]
            rules = [n.strip() for n in names.split(",") if n.strip()]
            suppressed.setdefault(tok.start[0], []).extend(rules)
    except tokenize.TokenizeError:
        pass  # the AST parse reports the file as broken
    return suppressed


def iter_python_files(paths: Sequence[str | Path]) -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    files: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.is_file():
            files.append(path)
        else:
            raise FileNotFoundError(f"no such file or directory: {path}")
    return files


def selected_rules(rules: Iterable[str] | None = None) -> set[str]:
    """The rule ids ``rules`` selects (default: all).

    Raises:
        ValueError: On a name that is not in :data:`RULES`.
    """
    if rules is None:
        return set(RULES)
    selected = set(rules)
    unknown = selected - set(RULES)
    if unknown:
        raise ValueError(f"unknown lint rules: {sorted(unknown)}")
    return selected


def _analyze(index: ProjectIndex, rules: Iterable[str] | None) -> ToolReport:
    """Run every selected rule over a parsed file set; apply suppressions."""
    enabled = selected_rules(rules)
    graph = CallGraph.build(index)
    found: list[CheckViolation] = []
    # Per-file rules walk every parsed file: ``index.modules`` keeps one
    # file per module name.
    for module in index.parsed:
        visitor = _RuleVisitor(module.path)
        visitor.visit(module.tree)
        found += visitor.violations
    found += check_dimensions(index, graph) + check_provenance(index, graph)

    violations = [
        CheckViolation(
            tool="lint",
            rule="parse-error",
            message=message,
            path=path,
            line=line,
            col=0,
        )
        for path, line, message in index.parse_errors
    ]
    suppressions = {m.path: _collect_suppressions(m.source) for m in index.parsed}
    violations += [
        v
        for v in found
        if v.rule in enabled and v.rule not in suppressions[v.path].get(v.line, [])
    ]
    suppressible = sorted(set(RULES) - set(_META_RULES))
    for path, by_line in suppressions.items():
        for line, names in by_line.items():
            violations += [
                CheckViolation(
                    tool="lint",
                    rule="bad-suppression",
                    message=f"suppression names unknown rule {name!r}; "
                    f"known rules: {', '.join(suppressible)}",
                    path=path,
                    line=line,
                    col=0,
                )
                for name in names
                if name not in suppressible
            ]
    violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    return ToolReport(
        tool="lint",
        ok=not violations,
        violations=violations,
        stats={
            "n_files": len(index.parsed) + len(index.parse_errors),
            "n_functions": len(index.functions),
            "n_call_edges": len(graph.edges),
            # Call sites of the blessed task constructors.
            "n_task_sites": sum(
                site.callee.endswith((":op_task", ":transfer_task"))
                for site in graph.edges
            ),
        },
    )


def lint_source(
    source: str, path: str = "<string>", rules: Iterable[str] | None = None
) -> list[CheckViolation]:
    """Run every rule over one module's source; returns the violations kept.

    The snippet is analyzed as a one-file project.  ``rules`` selects a
    subset of :data:`RULES` (default: all; unknown names raise
    ``ValueError``); ``parse-error`` and ``bad-suppression`` always run.
    Suppression comments apply to the line each violation anchors on.
    """
    index = ProjectIndex()
    index.add(path, source)
    return _analyze(index, rules).violations


def lint_paths(
    paths: Sequence[str | Path], rules: Iterable[str] | None = None
) -> ToolReport:
    """Run every rule over files/directories as one project.

    Returns the ``lint`` tool report; its stats count the files,
    functions, resolved call edges and task-constructor sites analyzed.
    """
    return _analyze(ProjectIndex.build(iter_python_files(paths)), rules)
