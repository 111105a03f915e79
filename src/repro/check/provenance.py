"""Seed provenance: every random draw must trace to an explicit seed.

Bit-identical replay — the property every bench baseline, chaos
scenario, and the upcoming vectorized event loop depend on — holds only
if every random draw comes from a ``numpy.random.Generator`` that derives
from an explicit seed.  This pass resolves each call chain through its
module's import table (so ``import numpy.random as nr`` and ``from numpy
import random`` are seen for what they are) and proves the seed of each
Generator by chasing its expression backwards through the project call
graph:

* ``stdlib-random`` — an import of the stdlib ``random`` module, or a
  call into it: hidden global state.
* ``np-legacy-random`` — a call into numpy's legacy module-level RNG
  (``numpy.random.seed``, ``numpy.random.rand``, ...), which mutates
  global state.
* ``rng-ambient`` — a Generator created at module scope is ambient
  global state: import order becomes part of the replay contract.
* ``rng-unseeded`` — a creation site whose seed argument is missing or
  literally ``None`` draws OS entropy.
* ``rng-untracked-seed`` — the seed expression could not be proven to
  derive from an explicit seed parameter, a seed-named config field, a
  literal, or another tracked Generator.

The first two rules need only the import table, so they run over every
parsed file; the Generator rules run over the indexed modules.

An expression is *deterministic* if it is a literal; arithmetic over
deterministic parts; a name or attribute whose identifier is seed-ish
(contains ``seed``, e.g. ``seed``, ``SEED``, ``fault_seed``,
``self.config.seed``); a ``SeedSequence``/bit-generator built from
deterministic parts; a ``spawn``/``integers`` draw from a tracked
source; a local bound to a deterministic expression; a parameter that
is seed-named or ``Generator``-annotated (the provenance obligation
moves to the caller); or a plain parameter whose *every* call-site
argument is itself deterministic — the interprocedural step that catches
seeds laundered through helpers the graph cannot vouch for.
"""

from __future__ import annotations

import ast

from repro.check.callgraph import (
    CallGraph,
    ClassInfo,
    FunctionInfo,
    ModuleInfo,
    ProjectIndex,
    bind_args,
    dotted_name,
)
from repro.check.report import CheckViolation

__all__ = ["check_provenance"]

# Fully-qualified callables that construct a Generator (or the bit
# generators one wraps).  SeedSequence is handled as a *seed source*.
_GENERATOR_MAKERS = {
    "numpy.random.default_rng",
    "numpy.random.Generator",
    "numpy.random.PCG64",
    "numpy.random.PCG64DXSM",
    "numpy.random.Philox",
    "numpy.random.MT19937",
    "numpy.random.SFC64",
}
# Calls that are as deterministic as their arguments: a SeedSequence, or
# a bit generator wrapped into a Generator (the inner creation site is
# itself checked).
_SEED_SOURCES = {"numpy.random.SeedSequence"} | _GENERATOR_MAKERS
# The seeded Generator API.  Every other call on numpy.random is the
# legacy global-state surface.
_SEEDED_API = _SEED_SOURCES | {"numpy.random.BitGenerator"}
_GENERATOR_ANNOTATIONS = {"Generator", "SeedSequence", "BitGenerator"}
_DERIVING_METHODS = {"integers", "spawn", "choice", "random", "bit_generator"}
_DETERMINISTIC_BUILTINS = {"int", "abs", "sum", "tuple", "list", "sorted"}

_MAX_DEPTH = 8


def _is_seedish(identifier: str) -> bool:
    return "seed" in identifier.lower()


def _qualify(module: ModuleInfo, chain: str) -> str:
    head, _, rest = chain.partition(".")
    target = module.imports.get(head)
    if target is None:
        return chain
    return target + ("." + rest if rest else "")


def _local_bindings(func: FunctionInfo) -> dict[str, ast.expr]:
    """name -> last simple assignment expression in the function body."""
    bindings: dict[str, ast.expr] = {}
    for node in ast.walk(func.node):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    bindings[target.id] = node.value
        elif isinstance(node, ast.AnnAssign):
            if isinstance(node.target, ast.Name) and node.value is not None:
                bindings[node.target.id] = node.value
    return bindings


class _ProvenanceChecker:
    def __init__(self, index: ProjectIndex, graph: CallGraph):
        self.index = index
        self.graph = graph
        self.violations: list[CheckViolation] = []
        self._local_cache: dict[str, dict[str, ast.expr]] = {}

    # -- entry --------------------------------------------------------
    def run(self) -> list[CheckViolation]:
        for module in self.index.parsed:
            self._check_global_rng(module)
        for module in self.index.modules.values():
            self._walk_module(module)
        return self.violations

    # -- global-state RNG ---------------------------------------------
    def _check_global_rng(self, module: ModuleInfo) -> None:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                imported = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported = [node.module or ""]
            else:
                imported = []
            if any(name.split(".")[0] == "random" for name in imported):
                self.violations.append(
                    self._violation(
                        "stdlib-random",
                        module,
                        node,
                        "import of the stdlib `random` module (global hidden "
                        "state); use a seeded np.random.Generator",
                    )
                )
            chain = dotted_name(node.func) if isinstance(node, ast.Call) else None
            if chain is None:
                continue
            qualified = _qualify(module, chain)
            if qualified.startswith("random."):
                self.violations.append(
                    self._violation(
                        "stdlib-random",
                        module,
                        node,
                        f"`{chain}()` uses the stdlib global RNG; use a seeded "
                        "np.random.Generator",
                    )
                )
            if (
                qualified.startswith("numpy.random.")
                and qualified.count(".") == 2
                and qualified not in _SEEDED_API
            ):
                self.violations.append(
                    self._violation(
                        "np-legacy-random",
                        module,
                        node,
                        f"`{chain}()` mutates numpy's global RNG state; use "
                        "np.random.default_rng(seed)",
                    )
                )

    def _walk_module(self, module: ModuleInfo) -> None:
        # Recursive walk tracking the enclosing function, mirroring the
        # qualname scheme the index used.
        self._walk_body(module, module.tree.body, None, None, depth=0)

    def _walk_body(
        self,
        module: ModuleInfo,
        body: list[ast.stmt],
        func: FunctionInfo | None,
        cls: ClassInfo | None,
        depth: int,
    ) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = self._function_for(module, stmt, func, cls, depth)
                self._walk_body(
                    module, stmt.body, inner or func, cls, depth + 1
                )
                continue
            if isinstance(stmt, ast.ClassDef):
                inner_cls = module.classes.get(stmt.name) if depth == 0 else None
                self._walk_body(module, stmt.body, func, inner_cls, depth)
                continue
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call):
                    self._check_call(module, node, func)

    def _function_for(
        self,
        module: ModuleInfo,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        enclosing: FunctionInfo | None,
        cls: ClassInfo | None,
        depth: int,
    ) -> FunctionInfo | None:
        if enclosing is None and depth == 0:
            tail = f"{cls.name}.{node.name}" if cls else node.name
        else:
            tail = f"<locals>.{node.name}@{node.lineno}"
        return self.index.functions.get(f"{module.name}:{tail}")

    # -- creation sites -----------------------------------------------
    def _check_call(
        self, module: ModuleInfo, node: ast.Call, func: FunctionInfo | None
    ) -> None:
        chain = dotted_name(node.func)
        if chain is None:
            return
        qualified = _qualify(module, chain)
        if qualified not in _GENERATOR_MAKERS:
            return
        where = f"{module.name}" + (f":{func.name}" if func else " (module scope)")
        if func is None:
            self.violations.append(
                self._violation(
                    "rng-ambient",
                    module,
                    node,
                    f"Generator created at module scope in {module.name}; "
                    "ambient RNG state makes import order part of the "
                    "replay contract — create it inside the consumer with "
                    "an explicit seed",
                )
            )
        seed = self._seed_argument(node)
        if seed is None or (
            isinstance(seed, ast.Constant) and seed.value is None
        ):
            self.violations.append(
                self._violation(
                    "rng-unseeded",
                    module,
                    node,
                    f"Generator created without a seed in {where}; this "
                    "draws OS entropy and cannot replay",
                )
            )
            return
        if func is None:
            return  # already reported as ambient; seed may still be fine
        ok, reason = self._deterministic(seed, module, func, set(), 0)
        if not ok:
            src = ast.unparse(seed)
            if len(src) > 60:
                src = src[:57] + "..."
            self.violations.append(
                self._violation(
                    "rng-untracked-seed",
                    module,
                    node,
                    f"seed expression '{src}' in {where} has no provable "
                    f"provenance from an explicit seed ({reason})",
                )
            )

    @staticmethod
    def _seed_argument(node: ast.Call) -> ast.expr | None:
        if node.args and not isinstance(node.args[0], ast.Starred):
            return node.args[0]
        for kw in node.keywords:
            if kw.arg == "seed":
                return kw.value
        return None

    def _violation(
        self, rule: str, module: ModuleInfo, node: ast.AST, message: str
    ) -> CheckViolation:
        return CheckViolation(
            tool="lint",
            rule=rule,
            path=module.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )

    # -- determinism proof --------------------------------------------
    def _deterministic(
        self,
        expr: ast.expr,
        module: ModuleInfo,
        func: FunctionInfo | None,
        visited: set[tuple[str, str]],
        depth: int,
    ) -> tuple[bool, str]:
        if depth > _MAX_DEPTH:
            return False, "proof depth exceeded"
        if isinstance(expr, ast.Constant):
            return True, "literal"
        if isinstance(expr, (ast.Tuple, ast.List)):
            for elt in expr.elts:
                ok, reason = self._deterministic(elt, module, func, visited, depth + 1)
                if not ok:
                    return False, reason
            return True, "literal sequence"
        if isinstance(expr, ast.Name):
            return self._deterministic_name(expr.id, module, func, visited, depth)
        if isinstance(expr, ast.Attribute):
            if _is_seedish(expr.attr):
                return True, f"seed-named field '{expr.attr}'"
            chain = dotted_name(expr)
            if chain is not None:
                head, _, rest = chain.partition(".")
                target_name = module.imports.get(head)
                if target_name is not None and rest and "." not in rest:
                    target = self.index.modules.get(target_name)
                    if target is not None and rest in target.constants:
                        return self._deterministic(
                            target.constants[rest], target, None, visited, depth + 1
                        )
            return False, f"attribute '{expr.attr}' is not seed-named"
        if isinstance(expr, ast.BinOp):
            for side in (expr.left, expr.right):
                ok, reason = self._deterministic(side, module, func, visited, depth + 1)
                if not ok:
                    return False, reason
            return True, "arithmetic over deterministic parts"
        if isinstance(expr, ast.UnaryOp):
            return self._deterministic(expr.operand, module, func, visited, depth + 1)
        if isinstance(expr, ast.Call):
            return self._deterministic_call(expr, module, func, visited, depth)
        if isinstance(expr, ast.IfExp):
            for side in (expr.body, expr.orelse):
                ok, reason = self._deterministic(side, module, func, visited, depth + 1)
                if not ok:
                    return False, reason
            return True, "both conditional branches deterministic"
        return False, f"unhandled expression {type(expr).__name__}"

    def _deterministic_name(
        self,
        name: str,
        module: ModuleInfo,
        func: FunctionInfo | None,
        visited: set[tuple[str, str]],
        depth: int,
    ) -> tuple[bool, str]:
        if _is_seedish(name):
            return True, f"seed-named value '{name}'"
        if func is not None:
            param = next((p for p in func.params if p.name == name), None)
            if param is not None:
                return self._deterministic_param(func, param.name, visited, depth)
            bindings = self._local_cache.setdefault(
                func.qualname, _local_bindings(func)
            )
            if name in bindings:
                return self._deterministic(
                    bindings[name], module, func, visited, depth + 1
                )
        if name in module.constants:
            return self._deterministic(
                module.constants[name], module, None, visited, depth + 1
            )
        return False, f"'{name}' has no visible deterministic binding"

    def _deterministic_param(
        self,
        func: FunctionInfo,
        param_name: str,
        visited: set[tuple[str, str]],
        depth: int,
    ) -> tuple[bool, str]:
        param = next(p for p in func.params if p.name == param_name)
        if _is_seedish(param_name):
            return True, f"explicit seed parameter '{param_name}'"
        if param.annotation in _GENERATOR_ANNOTATIONS:
            return True, f"parameter '{param_name}' is a tracked {param.annotation}"
        key = (func.qualname, param_name)
        if key in visited:
            return False, f"recursive provenance through '{param_name}'"
        visited.add(key)
        sites = self.graph.callers_of.get(func.qualname, [])
        if not sites:
            return False, (
                f"parameter '{param_name}' of {func.qualname} is not "
                "seed-named and has no resolvable call sites"
            )
        for site in sites:
            caller = (
                self.index.functions.get(site.caller) if site.caller else None
            )
            caller_module = self.index.modules[site.module]
            bound = bind_args(
                func,
                site.node,
                skip_self=func.cls is not None
                and isinstance(site.node.func, ast.Attribute),
            )
            arg = bound.get(param_name, param.default)
            if arg is None:
                return False, (
                    f"call site {site.module}:{site.node.lineno} leaves "
                    f"'{param_name}' unbound"
                )
            ok, reason = self._deterministic(
                arg, caller_module, caller, visited, depth + 1
            )
            if not ok:
                return False, (
                    f"call site {site.module}:{site.node.lineno} passes "
                    f"'{param_name}' = non-deterministic value ({reason})"
                )
        return True, f"all {len(sites)} call site(s) pass deterministic values"

    def _deterministic_call(
        self,
        expr: ast.Call,
        module: ModuleInfo,
        func: FunctionInfo | None,
        visited: set[tuple[str, str]],
        depth: int,
    ) -> tuple[bool, str]:
        chain = dotted_name(expr.func)
        if chain is not None:
            qualified = _qualify(module, chain)
            if qualified in _SEED_SOURCES:
                for arg in expr.args:
                    ok, reason = self._deterministic(
                        arg, module, func, visited, depth + 1
                    )
                    if not ok:
                        return False, reason
                return True, f"{chain}() over deterministic parts"
            if chain in _DETERMINISTIC_BUILTINS:
                for arg in expr.args:
                    ok, reason = self._deterministic(
                        arg, module, func, visited, depth + 1
                    )
                    if not ok:
                        return False, reason
                return True, f"{chain}() of deterministic parts"
        # Derivation from a tracked source: rng.integers(...), ss.spawn(n)
        if (
            isinstance(expr.func, ast.Attribute)
            and expr.func.attr in _DERIVING_METHODS
        ):
            ok, _ = self._deterministic(
                expr.func.value, module, func, visited, depth + 1
            )
            if ok:
                return True, f"derived via .{expr.func.attr}() from a tracked source"
            return False, (
                f"receiver of .{expr.func.attr}() is not a tracked "
                "seed/Generator"
            )
        # Project helper: deterministic iff every return it can take is.
        if func is not None:
            resolved = self.graph.resolve_call(
                expr,
                module,
                func,
                self.index.class_named(func.cls) if func.cls else None,
            )
            if isinstance(resolved, FunctionInfo):
                return self._deterministic_return(resolved, visited, depth)
        return False, (
            f"call to '{ast.unparse(expr.func)}' is not a tracked seed source"
        )

    def _deterministic_return(
        self,
        func: FunctionInfo,
        visited: set[tuple[str, str]],
        depth: int,
    ) -> tuple[bool, str]:
        key = (func.qualname, "<return>")
        if key in visited:
            return False, f"recursive provenance through {func.qualname}"
        visited.add(key)
        module = self.index.modules.get(func.module)
        if module is None:
            return False, f"{func.qualname} is outside the indexed tree"
        returns = [
            node
            for node in ast.walk(func.node)
            if isinstance(node, ast.Return) and node.value is not None
        ]
        if not returns:
            return False, f"{func.qualname} has no return value to trace"
        for ret in returns:
            ok, reason = self._deterministic(
                ret.value, module, func, visited, depth + 1
            )
            if not ok:
                return False, (
                    f"helper {func.qualname} returns a non-deterministic "
                    f"value ({reason})"
                )
        return True, f"helper {func.qualname} returns deterministic values"


def check_provenance(index: ProjectIndex, graph: CallGraph) -> list[CheckViolation]:
    """Run the seed-provenance pass over every module."""
    return _ProvenanceChecker(index, graph).run()
