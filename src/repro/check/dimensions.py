"""Interprocedural dimension inference over annotated signatures.

The hot-path modules annotate their signatures with the aliases in
:mod:`repro.units` (``Seconds``, ``Bytes``, ``Watts``, ...).  This pass
abstract-interprets every function body over a small value lattice:

* ``Dim(v)`` — a known dimension, as an exponent vector over
  :data:`repro.units.BASE_DIMENSIONS` (``Watts`` = ``J^1 s^-1``),
* ``NUM`` — a numeric literal (a wildcard: ``0.0`` is a valid Seconds
  *and* a valid scale factor),
* ``Obj(cls)`` — an instance of an indexed class, so attribute chains
  like ``machine.link.bandwidth`` resolve through field annotations,
* ``UNKNOWN`` — everything else.

and flags arithmetic that cannot be dimensionally consistent:

* ``dim-add-mix`` — ``+``/``-`` (or ``min``/``max``) over two *known*,
  different dimensions (seconds + bytes),
* ``dim-product`` — ``*``/``/``/``**`` whose result vector is not in
  :data:`repro.units.DIMENSIONS` (watts x watts), i.e. a quantity the
  simulator has no named use for,
* ``dim-return`` — a function declared ``-> Seconds`` returning an
  expression known to be some other dimension,
* ``dim-arg`` — a call passing a known dimension into a parameter that
  declares a different one (resolved through the project call graph,
  including methods and dataclass constructors).

``UNKNOWN`` is absorbing and literals are wildcards, so unannotated code
produces no noise: every diagnostic involves at least two *declared*
dimensions that contradict each other.
"""

from __future__ import annotations

import ast
from typing import Iterable

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
from repro.units import BASE_DIMENSIONS, DIMENSIONS

__all__ = ["check_dimensions", "DIM_VECTORS", "vector_name"]

_N_AXES = len(BASE_DIMENSIONS)
_AXIS = {axis: i for i, axis in enumerate(BASE_DIMENSIONS)}
_ZERO = (0,) * _N_AXES


def _vec(exponents: dict[str, int]) -> tuple[int, ...]:
    out = [0] * _N_AXES
    for axis, power in exponents.items():
        out[_AXIS[axis]] = power
    return tuple(out)


# Alias name -> exponent vector, and the recognized-vector reverse map.
DIM_VECTORS: dict[str, tuple[int, ...]] = {
    name: _vec(exp) for name, exp in DIMENSIONS.items()
}
_NAMED: dict[tuple[int, ...], str] = {}
for _name, _v in DIM_VECTORS.items():
    _NAMED.setdefault(_v, _name)


def vector_name(vec: tuple[int, ...]) -> str:
    """Human name of a vector: alias if recognized, else exponents."""
    if vec in _NAMED:
        return _NAMED[vec]
    parts = [
        f"{axis}^{power}"
        for axis, power in zip(BASE_DIMENSIONS, vec)
        if power != 0
    ]
    return "*".join(parts) if parts else "Ratio"


# -- abstract values ----------------------------------------------------

UNKNOWN = None


class _Num:
    """Numeric literal: a wildcard that adapts to any dimension."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "NUM"


NUM = _Num()


class _DimVal:
    __slots__ = ("vec",)

    def __init__(self, vec: tuple[int, ...]):
        self.vec = vec

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _DimVal) and other.vec == self.vec

    def __hash__(self) -> int:
        return hash(self.vec)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Dim({vector_name(self.vec)})"


class _ObjVal:
    __slots__ = ("cls",)

    def __init__(self, cls: ClassInfo):
        self.cls = cls

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _ObjVal) and other.cls is self.cls

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Obj({self.cls.name})"


class _FuncRef:
    __slots__ = ("info",)

    def __init__(self, info: FunctionInfo):
        self.info = info


class _ClsRef:
    __slots__ = ("info",)

    def __init__(self, info: ClassInfo):
        self.info = info


_PASSTHROUGH_BUILTINS = {"abs", "float", "round"}
_MINMAX_BUILTINS = {"min", "max"}


class _FunctionChecker:
    """Abstract interpretation of one function body."""

    def __init__(
        self,
        func: FunctionInfo,
        module: ModuleInfo,
        index: ProjectIndex,
        graph: CallGraph,
        violations: list[CheckViolation],
    ):
        self.func = func
        self.module = module
        self.index = index
        self.graph = graph
        self.violations = violations
        self.env: dict[str, object] = {}
        self._declared_return = self._annotation_value(func.returns)

    # -- helpers ------------------------------------------------------
    def _annotation_value(self, ann: str | None) -> object:
        if ann is None:
            return UNKNOWN
        if ann in DIM_VECTORS:
            return _DimVal(DIM_VECTORS[ann])
        cls = self.index.class_named(ann)
        if cls is not None:
            return _ObjVal(cls)
        return UNKNOWN

    def _report(self, rule: str, node: ast.AST, message: str) -> None:
        self.violations.append(
            CheckViolation(
                tool="lint",
                rule=rule,
                path=self.func.path,
                line=getattr(node, "lineno", self.func.lineno),
                col=getattr(node, "col_offset", 0),
                message=message,
            )
        )

    def _seed_env(self) -> None:
        params = self.func.params
        for i, param in enumerate(params):
            if i == 0 and self.func.cls is not None and param.name in ("self", "cls"):
                cls = self.index.class_named(self.func.cls)
                self.env[param.name] = _ObjVal(cls) if cls else UNKNOWN
                continue
            self.env[param.name] = self._annotation_value(param.annotation)

    # -- entry point --------------------------------------------------
    def run(self) -> None:
        self._seed_env()
        self._exec_block(self.func.node.body, self.env)

    # -- statements ---------------------------------------------------
    def _exec_block(self, stmts: Iterable[ast.stmt], env: dict[str, object]) -> None:
        for stmt in stmts:
            self._exec(stmt, env)

    def _merge(self, forks: list[dict[str, object]]) -> dict[str, object]:
        keys: set[str] = set()
        for fork in forks:
            keys |= set(fork)
        merged: dict[str, object] = {}
        for key in keys:
            values = [fork.get(key, UNKNOWN) for fork in forks]
            first = values[0]
            merged[key] = (
                first if all(v == first for v in values[1:]) else UNKNOWN
            )
        return merged

    def _exec(self, stmt: ast.stmt, env: dict[str, object]) -> None:
        if isinstance(stmt, ast.Expr):
            self._eval(stmt.value, env)
        elif isinstance(stmt, ast.Assign):
            value = self._eval(stmt.value, env)
            for target in stmt.targets:
                self._assign(target, value, env)
        elif isinstance(stmt, ast.AnnAssign):
            declared = (
                self._annotation_value(_ann_str(stmt.annotation))
                if stmt.annotation is not None
                else UNKNOWN
            )
            value = self._eval(stmt.value, env) if stmt.value is not None else UNKNOWN
            if isinstance(target := stmt.target, ast.Name):
                env[target.id] = value if value is not UNKNOWN else declared
        elif isinstance(stmt, ast.AugAssign):
            current = self._eval_target(stmt.target, env)
            value = self._eval(stmt.value, env)
            result = self._binop_value(stmt.op, current, value, stmt)
            self._assign(stmt.target, result, env)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                value = self._eval(stmt.value, env)
                self._check_return(value, stmt)
        elif isinstance(stmt, ast.If):
            self._eval(stmt.test, env)
            forks = [dict(env), dict(env)]
            self._exec_block(stmt.body, forks[0])
            self._exec_block(stmt.orelse, forks[1])
            merged = self._merge(forks)
            env.clear()
            env.update(merged)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._eval(stmt.iter, env)
            fork = dict(env)
            self._assign(stmt.target, UNKNOWN, fork)
            self._exec_block(stmt.body, fork)
            self._exec_block(stmt.orelse, fork)
            # Zero-iteration merge: names the loop may not have touched
            # keep their pre-loop value only if the body agrees.
            merged = self._merge([dict(env), fork])
            env.clear()
            env.update(merged)
        elif isinstance(stmt, ast.While):
            self._eval(stmt.test, env)
            fork = dict(env)
            self._exec_block(stmt.body, fork)
            self._exec_block(stmt.orelse, fork)
            merged = self._merge([dict(env), fork])
            env.clear()
            env.update(merged)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._eval(item.context_expr, env)
                if item.optional_vars is not None:
                    self._assign(item.optional_vars, UNKNOWN, env)
            self._exec_block(stmt.body, env)
        elif isinstance(stmt, ast.Try):
            forks = [dict(env)]
            self._exec_block(stmt.body, forks[0])
            for handler in stmt.handlers:
                fork = dict(env)
                if handler.name:
                    fork[handler.name] = UNKNOWN
                self._exec_block(handler.body, fork)
                forks.append(fork)
            merged = self._merge(forks)
            env.clear()
            env.update(merged)
            self._exec_block(stmt.orelse, env)
            self._exec_block(stmt.finalbody, env)
        elif isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self._eval(stmt.exc, env)
        elif isinstance(stmt, ast.Assert):
            self._eval(stmt.test, env)
            if stmt.msg is not None:
                self._eval(stmt.msg, env)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    env.pop(target.id, None)
        # Nested defs/classes are indexed and checked independently;
        # pass/break/continue/import/global carry no dimension flow.

    def _assign(self, target: ast.expr, value: object, env: dict[str, object]) -> None:
        if isinstance(target, ast.Name):
            env[target.id] = value
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._assign(elt, UNKNOWN, env)
        elif isinstance(target, ast.Starred):
            self._assign(target.value, UNKNOWN, env)
        elif isinstance(target, (ast.Attribute, ast.Subscript)):
            self._eval(target.value, env)

    def _eval_target(self, target: ast.expr, env: dict[str, object]) -> object:
        if isinstance(target, ast.Name):
            return env.get(target.id, UNKNOWN)
        if isinstance(target, ast.Attribute):
            return self._eval(target, env)
        return UNKNOWN

    def _check_return(self, value: object, node: ast.AST) -> None:
        declared = self._declared_return
        if not isinstance(declared, _DimVal) or not isinstance(value, _DimVal):
            return
        if value.vec != declared.vec:
            self._report(
                "dim-return",
                node,
                f"{self.func.qualname} declares -> "
                f"{vector_name(declared.vec)} but returns "
                f"{vector_name(value.vec)}",
            )

    # -- expressions --------------------------------------------------
    def _eval(self, node: ast.expr, env: dict[str, object]) -> object:
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool):
                return UNKNOWN
            if isinstance(node.value, (int, float)):
                return NUM
            return UNKNOWN
        if isinstance(node, ast.Name):
            return self._eval_name(node.id, env)
        if isinstance(node, ast.Attribute):
            return self._eval_attribute(node, env)
        if isinstance(node, ast.BinOp):
            left = self._eval(node.left, env)
            right = self._eval(node.right, env)
            return self._binop(node, left, right)
        if isinstance(node, ast.UnaryOp):
            value = self._eval(node.operand, env)
            if isinstance(node.op, (ast.UAdd, ast.USub)):
                return value
            return UNKNOWN
        if isinstance(node, ast.Call):
            return self._eval_call(node, env)
        if isinstance(node, ast.IfExp):
            self._eval(node.test, env)
            body = self._eval(node.body, env)
            orelse = self._eval(node.orelse, env)
            if body == orelse:
                return body
            if isinstance(body, _DimVal) and orelse is NUM:
                return body
            if isinstance(orelse, _DimVal) and body is NUM:
                return orelse
            return UNKNOWN
        if isinstance(node, ast.BoolOp):
            values = [self._eval(v, env) for v in node.values]
            dims = {v.vec for v in values if isinstance(v, _DimVal)}
            if len(dims) == 1 and all(
                isinstance(v, _DimVal) or v is NUM for v in values
            ):
                return _DimVal(next(iter(dims)))
            return UNKNOWN
        if isinstance(node, ast.Compare):
            self._eval(node.left, env)
            for comparator in node.comparators:
                self._eval(comparator, env)
            return UNKNOWN
        if isinstance(node, ast.NamedExpr):
            value = self._eval(node.value, env)
            self._assign(node.target, value, env)
            return value
        if isinstance(node, ast.Subscript):
            self._eval(node.value, env)
            self._eval(node.slice, env)
            return UNKNOWN
        if isinstance(node, ast.Starred):
            return self._eval(node.value, env)
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            for elt in node.elts:
                self._eval(elt, env)
            return UNKNOWN
        if isinstance(node, ast.Dict):
            for key in node.keys:
                if key is not None:
                    self._eval(key, env)
            for value in node.values:
                self._eval(value, env)
            return UNKNOWN
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            scope = dict(env)
            for gen in node.generators:
                self._eval(gen.iter, scope)
                self._assign(gen.target, UNKNOWN, scope)
                for cond in gen.ifs:
                    self._eval(cond, scope)
            if isinstance(node, ast.DictComp):
                self._eval(node.key, scope)
                self._eval(node.value, scope)
            else:
                self._eval(node.elt, scope)
            return UNKNOWN
        if isinstance(node, ast.JoinedStr):
            for value in node.values:
                if isinstance(value, ast.FormattedValue):
                    self._eval(value.value, env)
            return UNKNOWN
        if isinstance(node, (ast.Await, ast.YieldFrom)):
            return self._eval(node.value, env)  # type: ignore[arg-type]
        if isinstance(node, ast.Yield):
            if node.value is not None:
                value = self._eval(node.value, env)
                return UNKNOWN if value is None else UNKNOWN
            return UNKNOWN
        return UNKNOWN

    def _eval_name(self, name: str, env: dict[str, object]) -> object:
        if name in env:
            return env[name]
        resolved = self.index.resolve_name(self.module, name)
        if isinstance(resolved, FunctionInfo):
            return _FuncRef(resolved)
        if isinstance(resolved, ClassInfo):
            return _ClsRef(resolved)
        return self._module_constant_value(self.module, name, depth=0)

    def _module_constant_value(
        self, module: ModuleInfo, name: str, depth: int
    ) -> object:
        if depth > 4:
            return UNKNOWN
        ann = module.constant_annotations.get(name)
        if ann is not None:
            value = self._annotation_value(ann)
            if value is not UNKNOWN:
                return value
        expr = module.constants.get(name)
        if expr is None:
            return UNKNOWN
        return self._const_expr_value(module, expr, depth)

    def _const_expr_value(
        self, module: ModuleInfo, expr: ast.expr, depth: int
    ) -> object:
        """Dimension of a module-constant initializer (literals only)."""
        if isinstance(expr, ast.Constant) and isinstance(expr.value, (int, float)):
            if isinstance(expr.value, bool):
                return UNKNOWN
            return NUM
        if isinstance(expr, ast.BinOp) and isinstance(
            expr.op, (ast.Mult, ast.Pow, ast.Add, ast.Sub, ast.Div)
        ):
            left = self._const_expr_value(module, expr.left, depth + 1)
            right = self._const_expr_value(module, expr.right, depth + 1)
            if left is NUM and right is NUM:
                return NUM
            return UNKNOWN
        if isinstance(expr, ast.UnaryOp):
            return self._const_expr_value(module, expr.operand, depth + 1)
        if isinstance(expr, ast.Name):
            return self._module_constant_value(module, expr.id, depth + 1)
        return UNKNOWN

    def _eval_attribute(self, node: ast.Attribute, env: dict[str, object]) -> object:
        # Dotted module access first: np.inf, repro.units.Seconds, MOD.CONST
        chain = dotted_name(node)
        if chain is not None:
            head, _, rest = chain.partition(".")
            if head not in env and head in self.module.imports:
                qualified = self.module.imports[head] + ("." + rest if rest else "")
                mod_name, _, attr = qualified.rpartition(".")
                target = self.index.modules.get(mod_name)
                if target is not None:
                    resolved = self.index.resolve_qualified(qualified)
                    if isinstance(resolved, FunctionInfo):
                        return _FuncRef(resolved)
                    if isinstance(resolved, ClassInfo):
                        return _ClsRef(resolved)
                    return self._module_constant_value(target, attr, depth=0)
                return UNKNOWN
        base = self._eval(node.value, env)
        if isinstance(base, _ObjVal):
            ann = base.cls.attribute_annotation(node.attr)
            if ann is not None:
                return self._annotation_value(ann)
            method = base.cls.methods.get(node.attr)
            if method is not None and not method.is_property:
                return _BoundMethod(method, base)
            return UNKNOWN
        if isinstance(base, _ClsRef):
            method = base.info.methods.get(node.attr)
            if method is not None:
                return _FuncRef(method)
        return UNKNOWN

    # -- arithmetic ---------------------------------------------------
    def _binop(self, node: ast.BinOp, left: object, right: object) -> object:
        return self._binop_value(node.op, left, right, node)

    def _binop_value(
        self, op: ast.operator, left: object, right: object, node: ast.AST
    ) -> object:
        additive = isinstance(op, (ast.Add, ast.Sub))
        multiplicative = isinstance(op, (ast.Mult, ast.Div, ast.FloorDiv))
        if additive:
            if isinstance(left, _DimVal) and isinstance(right, _DimVal):
                if left.vec != right.vec:
                    self._report(
                        "dim-add-mix",
                        node,
                        f"cannot add/subtract {vector_name(left.vec)} and "
                        f"{vector_name(right.vec)}",
                    )
                    return UNKNOWN
                return left
            if isinstance(left, _DimVal) and right is NUM:
                return left
            if isinstance(right, _DimVal) and left is NUM:
                return right
            if left is NUM and right is NUM:
                return NUM
            return UNKNOWN
        if multiplicative:
            invert = not isinstance(op, ast.Mult)
            if isinstance(left, _DimVal) and isinstance(right, _DimVal):
                rvec = tuple(-x for x in right.vec) if invert else right.vec
                out = tuple(a + b for a, b in zip(left.vec, rvec))
                return self._product_result(out, left.vec, right.vec, invert, node)
            if isinstance(left, _DimVal) and right is NUM:
                return left
            if isinstance(right, _DimVal) and left is NUM:
                if invert:
                    out = tuple(-x for x in right.vec)
                    return self._product_result(
                        out, _ZERO, right.vec, invert, node
                    )
                return right
            if left is NUM and right is NUM:
                return NUM
            return UNKNOWN
        if isinstance(op, ast.Pow):
            if left is NUM and right is NUM:
                return NUM
            if isinstance(left, _DimVal) and isinstance(node, ast.BinOp):
                exponent = node.right
                if isinstance(exponent, ast.Constant) and isinstance(
                    exponent.value, int
                ):
                    out = tuple(x * exponent.value for x in left.vec)
                    return self._product_result(
                        out, left.vec, left.vec, False, node
                    )
            return UNKNOWN
        if isinstance(op, ast.Mod):
            if isinstance(left, _DimVal) and (
                isinstance(right, _DimVal) and right.vec == left.vec or right is NUM
            ):
                return left
            return UNKNOWN
        return UNKNOWN

    def _product_result(
        self,
        out: tuple[int, ...],
        left: tuple[int, ...],
        right: tuple[int, ...],
        invert: bool,
        node: ast.AST,
    ) -> object:
        if out in _NAMED:
            return _DimVal(out)
        symbol = "/" if invert else "*"
        self._report(
            "dim-product",
            node,
            f"{vector_name(left)} {symbol} {vector_name(right)} yields "
            f"{vector_name(out)}, which is not a recognized dimension",
        )
        return UNKNOWN

    # -- calls --------------------------------------------------------
    def _eval_call(self, node: ast.Call, env: dict[str, object]) -> object:
        # dataclasses.replace(obj, ...) keeps the object's type.
        chain = dotted_name(node.func)
        if chain is not None:
            resolved_chain = self._qualify(chain)
            if resolved_chain == "dataclasses.replace" and node.args:
                for kw in node.keywords:
                    self._eval(kw.value, env)
                return self._eval(node.args[0], env)

        callee = self._eval(node.func, env) if not isinstance(
            node.func, ast.Name
        ) else self._eval_name(node.func.id, env)

        # Builtins worth modelling.
        if isinstance(node.func, ast.Name) and node.func.id not in env:
            name = node.func.id
            if name in _MINMAX_BUILTINS:
                return self._minmax(node, env)
            if name in _PASSTHROUGH_BUILTINS and node.args:
                values = [self._eval(arg, env) for arg in node.args]
                for kw in node.keywords:
                    self._eval(kw.value, env)
                return values[0]
            if name == "len":
                for arg in node.args:
                    self._eval(arg, env)
                return NUM
            if name == "sum" and node.args:
                for arg in node.args:
                    self._eval(arg, env)
                return UNKNOWN

        # Evaluate all arguments exactly once, keeping values for checks.
        arg_values: dict[int, object] = {
            i: self._eval(arg, env) for i, arg in enumerate(node.args)
        }
        kw_values: dict[str, object] = {
            kw.arg: self._eval(kw.value, env)
            for kw in node.keywords
            if kw.arg is not None
        }
        for kw in node.keywords:
            if kw.arg is None:
                self._eval(kw.value, env)

        if isinstance(callee, _BoundMethod):
            self._check_args(
                callee.info, node, arg_values, kw_values, skip_self=True
            )
            return self._annotation_value(callee.info.returns)
        if isinstance(callee, _FuncRef):
            skip_self = callee.info.cls is not None and isinstance(
                node.func, ast.Attribute
            )
            self._check_args(
                callee.info, node, arg_values, kw_values, skip_self=skip_self
            )
            return self._annotation_value(callee.info.returns)
        if isinstance(callee, _ClsRef):
            self._check_ctor_args(callee.info, node, arg_values, kw_values)
            return _ObjVal(callee.info)
        return UNKNOWN

    def _qualify(self, chain: str) -> str:
        head, _, rest = chain.partition(".")
        if head in self.module.imports:
            qualified = self.module.imports[head]
            return qualified + ("." + rest if rest else "")
        return chain

    def _minmax(self, node: ast.Call, env: dict[str, object]) -> object:
        values = []
        for arg in node.args:
            if isinstance(arg, ast.Starred):
                self._eval(arg.value, env)
                return UNKNOWN
            values.append(self._eval(arg, env))
        for kw in node.keywords:
            self._eval(kw.value, env)
        dims = {v.vec for v in values if isinstance(v, _DimVal)}
        if len(dims) > 1:
            names = ", ".join(sorted(vector_name(d) for d in dims))
            self._report(
                "dim-add-mix", node, f"min/max over mixed dimensions: {names}"
            )
            return UNKNOWN
        if len(dims) == 1 and len(values) > 1:
            return _DimVal(next(iter(dims)))
        return UNKNOWN

    def _param_table(
        self, func: FunctionInfo, *, skip_self: bool
    ) -> tuple[list, dict[str, object]]:
        params = [p for p in func.params if p.kind in ("pos", "kwonly")]
        if skip_self and params and params[0].name in ("self", "cls"):
            params = params[1:]
        declared = {
            p.name: self._annotation_value(p.annotation) for p in params
        }
        return params, declared

    def _check_args(
        self,
        func: FunctionInfo,
        node: ast.Call,
        arg_values: dict[int, object],
        kw_values: dict[str, object],
        *,
        skip_self: bool,
    ) -> None:
        params, declared = self._param_table(func, skip_self=skip_self)
        positional = [p for p in params if p.kind == "pos"]
        for i, value in arg_values.items():
            if isinstance(node.args[i], ast.Starred):
                break
            if i >= len(positional):
                break
            self._check_one_arg(
                func, positional[i].name, declared, value, node.args[i]
            )
        for name, value in kw_values.items():
            if name in declared:
                kw_node = next(
                    (kw.value for kw in node.keywords if kw.arg == name), node
                )
                self._check_one_arg(func, name, declared, value, kw_node)

    def _check_one_arg(
        self,
        func: FunctionInfo,
        param: str,
        declared: dict[str, object],
        value: object,
        node: ast.AST,
    ) -> None:
        want = declared.get(param)
        if not isinstance(want, _DimVal) or not isinstance(value, _DimVal):
            return
        if want.vec != value.vec:
            self._report(
                "dim-arg",
                node,
                f"argument '{param}' to {func.qualname} is "
                f"{vector_name(value.vec)}, expected {vector_name(want.vec)}",
            )

    def _check_ctor_args(
        self,
        cls: ClassInfo,
        node: ast.Call,
        arg_values: dict[int, object],
        kw_values: dict[str, object],
    ) -> None:
        init = cls.methods.get("__init__")
        if init is not None:
            self._check_args(init, node, arg_values, kw_values, skip_self=True)
            return
        # Dataclass: field declaration order is the positional order.
        fields = list(cls.fields.items())
        declared = {
            name: self._annotation_value(ann) for name, ann in fields
        }
        for i, value in arg_values.items():
            if i >= len(fields) or isinstance(node.args[i], ast.Starred):
                break
            self._check_one_arg_cls(cls, fields[i][0], declared, value, node.args[i])
        for name, value in kw_values.items():
            if name in declared:
                kw_node = next(
                    (kw.value for kw in node.keywords if kw.arg == name), node
                )
                self._check_one_arg_cls(cls, name, declared, value, kw_node)

    def _check_one_arg_cls(
        self,
        cls: ClassInfo,
        field_name: str,
        declared: dict[str, object],
        value: object,
        node: ast.AST,
    ) -> None:
        want = declared.get(field_name)
        if not isinstance(want, _DimVal) or not isinstance(value, _DimVal):
            return
        if want.vec != value.vec:
            self._report(
                "dim-arg",
                node,
                f"field '{field_name}' of {cls.qualname} is "
                f"{vector_name(value.vec)}, expected {vector_name(want.vec)}",
            )


class _BoundMethod:
    __slots__ = ("info", "obj")

    def __init__(self, info: FunctionInfo, obj: _ObjVal):
        self.info = info
        self.obj = obj


def _ann_str(node: ast.expr) -> str | None:
    from repro.check.callgraph import annotation_name

    return annotation_name(node)


def check_dimensions(index: ProjectIndex, graph: CallGraph) -> list[CheckViolation]:
    """Run the dimension pass over every indexed function."""
    violations: list[CheckViolation] = []
    for func in index.functions.values():
        module = index.modules.get(func.module)
        if module is None:
            continue
        _FunctionChecker(func, module, index, graph, violations).run()
    return violations
