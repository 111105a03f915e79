"""AST-based project index and call graph for the static pass.

The whole-project rules of ``repro check --only lint`` need context a
single file does not give: which function a call site resolves to, what
dimensions a callee's signature declares, which class an attribute chain
lands on, and — for seed provenance — every call site of a given
function together with its argument bindings.  This module builds that
context once per run:

* :class:`ProjectIndex` parses every file, derives dotted module names
  (``src/repro/hardware/spec.py`` -> ``repro.hardware.spec``), and
  indexes functions (including methods, properties, and nested
  closures), classes with their annotated fields, module-level
  constants, and per-module import aliases.
* :class:`CallGraph` walks every function body (and module toplevel)
  resolving calls through import aliases, ``self``, known class
  constructors, and parameter/class types — including the blessed
  ``op_task`` / ``transfer_task`` constructor sites the engine layer
  prices tasks through.  Each resolved edge records the
  caller-qualname -> callee-qualname pair plus the :class:`ast.Call`
  node, so downstream passes can bind arguments to parameters
  (:func:`bind_args`) and chase provenance backwards through callers.

Resolution is deliberately conservative: anything ambiguous (duck-typed
receivers, ``**kwargs`` splats, higher-order dispatch) resolves to
nothing rather than to a guess, so the dimension and provenance passes
inherit a no-false-edges graph.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "ParamInfo",
    "FunctionInfo",
    "ClassInfo",
    "ModuleInfo",
    "CallSite",
    "ProjectIndex",
    "CallGraph",
    "bind_args",
    "annotation_name",
    "module_name_for",
]


def module_name_for(path: Path) -> str:
    """Dotted module name of a source path.

    Paths under a ``repro`` package root map to their real import path;
    anything else (test fixtures in tmp dirs) maps to its stem, which is
    enough to keep qualnames unique within a run.
    """
    parts = list(path.parts)
    name = path.stem
    if "repro" in parts:
        tail = parts[parts.index("repro") : -1] + ([] if name == "__init__" else [name])
        return ".".join(tail)
    return name


def annotation_name(node: ast.expr | None) -> str | None:
    """Trailing identifier of an annotation, unwrapped.

    ``Seconds`` -> ``"Seconds"``; ``units.Seconds`` -> ``"Seconds"``;
    ``"Seconds | None"`` / ``Optional[Seconds]`` / ``Final[Seconds]``
    all unwrap to ``"Seconds"``.  Container annotations
    (``dict[str, float]``, ``list[SimTask]``) return ``None`` — the
    analyzer does not track element dimensions.
    """
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        # X | None (either side) unwraps to X; X | Y stays opaque.
        left, right = node.left, node.right
        if isinstance(right, ast.Constant) and right.value is None:
            return annotation_name(left)
        if isinstance(left, ast.Constant) and left.value is None:
            return annotation_name(right)
        return None
    if isinstance(node, ast.Subscript):
        head = annotation_name(node.value)
        if head in ("Optional", "Final", "Annotated"):
            inner = node.slice
            if head == "Annotated" and isinstance(inner, ast.Tuple) and inner.elts:
                inner = inner.elts[0]
            return annotation_name(inner)
        return None
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def dotted_name(node: ast.expr) -> str | None:
    """``a.b.c`` attribute chain as a string, or None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


@dataclass(frozen=True)
class ParamInfo:
    """One formal parameter: name, unwrapped annotation, default node."""

    name: str
    annotation: str | None
    default: ast.expr | None
    kind: str  # "pos", "kwonly", "vararg", "kwarg"


@dataclass
class FunctionInfo:
    """One function/method/closure and its declared signature."""

    qualname: str  # "repro.hardware.spec:LinkSpec.transfer_time"
    module: str
    cls: str | None
    name: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    params: list[ParamInfo]
    returns: str | None
    is_property: bool
    path: str
    lineno: int

    @property
    def param_names(self) -> list[str]:
        return [p.name for p in self.params if p.kind in ("pos", "kwonly")]


@dataclass
class ClassInfo:
    """One class: annotated fields, methods, and property dimensions."""

    qualname: str
    module: str
    name: str
    node: ast.ClassDef
    fields: dict[str, str] = field(default_factory=dict)  # attr -> annotation
    methods: dict[str, FunctionInfo] = field(default_factory=dict)
    properties: dict[str, str] = field(default_factory=dict)  # name -> return ann
    bases: list[str] = field(default_factory=list)

    def attribute_annotation(self, attr: str) -> str | None:
        """Declared annotation of ``obj.attr`` (field or property)."""
        if attr in self.fields:
            return self.fields[attr]
        return self.properties.get(attr)


@dataclass
class ModuleInfo:
    """One parsed module with its local name bindings."""

    name: str
    path: str
    tree: ast.Module
    source: str
    imports: dict[str, str] = field(default_factory=dict)  # alias -> qualified
    functions: dict[str, FunctionInfo] = field(default_factory=dict)  # toplevel
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    constants: dict[str, ast.expr] = field(default_factory=dict)
    constant_annotations: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class CallSite:
    """One resolved call edge: caller context + the call node."""

    caller: str | None  # qualname, or None for module toplevel
    callee: str  # qualname
    node: ast.Call
    module: str  # caller's module name


_PROPERTY_DECORATORS = {"property", "cached_property"}


def _decorator_names(node: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    names: set[str] = set()
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = dotted_name(target)
        if name:
            names.add(name.split(".")[-1])
    return names


def _params_of(node: ast.FunctionDef | ast.AsyncFunctionDef) -> list[ParamInfo]:
    args = node.args
    params: list[ParamInfo] = []
    positional = list(args.posonlyargs) + list(args.args)
    defaults: list[ast.expr | None] = [None] * (
        len(positional) - len(args.defaults)
    ) + list(args.defaults)
    for arg, default in zip(positional, defaults):
        params.append(
            ParamInfo(arg.arg, annotation_name(arg.annotation), default, "pos")
        )
    if args.vararg:
        params.append(
            ParamInfo(
                args.vararg.arg, annotation_name(args.vararg.annotation), None, "vararg"
            )
        )
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        params.append(
            ParamInfo(arg.arg, annotation_name(arg.annotation), default, "kwonly")
        )
    if args.kwarg:
        params.append(
            ParamInfo(
                args.kwarg.arg, annotation_name(args.kwarg.annotation), None, "kwarg"
            )
        )
    return params


class _ModuleIndexer(ast.NodeVisitor):
    """Single-module walk filling a ModuleInfo and the function table."""

    def __init__(self, info: ModuleInfo, functions: dict[str, FunctionInfo]):
        self.info = info
        self.functions = functions
        self._class_stack: list[ClassInfo] = []
        self._func_depth = 0

    # -- imports ------------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.asname:
                self.info.imports[alias.asname] = alias.name
            else:  # `import a.b` binds `a` to package `a`
                head = alias.name.split(".")[0]
                self.info.imports[head] = head

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module is None or node.level:
            return  # relative imports are not used in this tree
        for alias in node.names:
            self.info.imports[alias.asname or alias.name] = (
                f"{node.module}.{alias.name}"
            )

    # -- module-level bindings ----------------------------------------
    def visit_Assign(self, node: ast.Assign) -> None:
        if not self._class_stack and self._func_depth == 0:
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self.info.constants[target.id] = node.value
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        ann = annotation_name(node.annotation)
        if isinstance(node.target, ast.Name):
            name = node.target.id
            if self._class_stack and self._func_depth == 0:
                if ann:
                    self._class_stack[-1].fields[name] = ann
            elif not self._class_stack and self._func_depth == 0:
                if node.value is not None:
                    self.info.constants[name] = node.value
                if ann:
                    self.info.constant_annotations[name] = ann
        self.generic_visit(node)

    # -- defs ---------------------------------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if self._func_depth:
            return  # classes defined inside functions: out of scope
        cls = ClassInfo(
            qualname=f"{self.info.name}:{node.name}",
            module=self.info.name,
            name=node.name,
            node=node,
            bases=[b for b in (dotted_name(base) for base in node.bases) if b],
        )
        self.info.classes[node.name] = cls
        self._class_stack.append(cls)
        self.generic_visit(node)
        self._class_stack.pop()

    def _visit_function(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        cls = self._class_stack[-1] if self._class_stack else None
        decorators = _decorator_names(node)
        if self._func_depth == 0:
            qual_tail = f"{cls.name}.{node.name}" if cls else node.name
        else:
            qual_tail = f"<locals>.{node.name}@{node.lineno}"
        info = FunctionInfo(
            qualname=f"{self.info.name}:{qual_tail}",
            module=self.info.name,
            cls=cls.name if cls and self._func_depth == 0 else None,
            name=node.name,
            node=node,
            params=_params_of(node),
            returns=annotation_name(node.returns),
            is_property=bool(decorators & _PROPERTY_DECORATORS),
            path=self.info.path,
            lineno=node.lineno,
        )
        self.functions[info.qualname] = info
        if cls is not None and self._func_depth == 0:
            if info.is_property and info.returns:
                cls.properties[node.name] = info.returns
            cls.methods[node.name] = info
        elif self._func_depth == 0:
            self.info.functions[node.name] = info
        self._func_depth += 1
        self.generic_visit(node)
        self._func_depth -= 1

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)


class ProjectIndex:
    """Parsed project: modules, functions, classes, constants.

    ``parsed`` holds every file that parsed, in input order.  ``modules``
    maps each dotted name to the last of them, so two same-named files
    outside a ``repro`` package leave one entry there; rules that need no
    cross-module context walk ``parsed``.
    """

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        self.parsed: list[ModuleInfo] = []
        self.functions: dict[str, FunctionInfo] = {}
        self.parse_errors: list[tuple[str, int, str]] = []  # path, line, msg

    @classmethod
    def build(cls, files: list[Path]) -> "ProjectIndex":
        index = cls()
        for path in files:
            try:
                source = path.read_text(encoding="utf-8")
            except OSError as exc:
                index.parse_errors.append((str(path), 1, str(exc)))
                continue
            index.add(str(path), source)
        return index

    def add(self, path: str, source: str) -> None:
        """Parse and index one module; a syntax error is recorded, not raised."""
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            self.parse_errors.append((path, exc.lineno or 1, f"syntax error: {exc.msg}"))
            return
        info = ModuleInfo(
            name=module_name_for(Path(path)), path=path, tree=tree, source=source
        )
        _ModuleIndexer(info, self.functions).visit(tree)
        self.modules[info.name] = info
        self.parsed.append(info)

    # -- lookups ------------------------------------------------------
    def class_named(self, name: str | None) -> ClassInfo | None:
        """Class by bare name (class names are unique in this tree)."""
        if name is None:
            return None
        for module in self.modules.values():
            if name in module.classes:
                return module.classes[name]
        return None

    def resolve_name(
        self, module: ModuleInfo, name: str
    ) -> FunctionInfo | ClassInfo | None:
        """What a bare ``Name`` refers to in ``module`` scope."""
        if name in module.functions:
            return module.functions[name]
        if name in module.classes:
            return module.classes[name]
        qualified = module.imports.get(name)
        if qualified is None:
            return None
        return self.resolve_qualified(qualified)

    def resolve_qualified(self, qualified: str) -> FunctionInfo | ClassInfo | None:
        """Resolve ``pkg.mod.attr`` against the indexed modules."""
        if qualified in self.modules:
            return None  # a module object, not a callable
        mod_name, _, attr = qualified.rpartition(".")
        target = self.modules.get(mod_name)
        if target is None:
            return None
        if attr in target.functions:
            return target.functions[attr]
        if attr in target.classes:
            return target.classes[attr]
        return None


class _CallCollector(ast.NodeVisitor):
    """Collect resolvable call edges from one module."""

    def __init__(self, graph: "CallGraph", module: ModuleInfo):
        self.graph = graph
        self.module = module
        self._func_stack: list[FunctionInfo | None] = []
        self._class_stack: list[ClassInfo] = []

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        cls = self.module.classes.get(node.name)
        if cls is None:
            self.generic_visit(node)
            return
        self._class_stack.append(cls)
        self.generic_visit(node)
        self._class_stack.pop()

    def _visit_function(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        if len(self._func_stack) == 0:
            if self._class_stack:
                qual = f"{self.module.name}:{self._class_stack[-1].name}.{node.name}"
            else:
                qual = f"{self.module.name}:{node.name}"
        else:
            qual = f"{self.module.name}:<locals>.{node.name}@{node.lineno}"
        info = self.graph.index.functions.get(qual)
        if info is None and self._func_stack:
            # Unindexed closure: attribute its calls to the enclosing def.
            info = self._func_stack[-1]
        self._func_stack.append(info)
        self.generic_visit(node)
        self._func_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    def visit_Call(self, node: ast.Call) -> None:
        callee = self.graph.resolve_call(
            node,
            self.module,
            self._func_stack[-1] if self._func_stack else None,
            self._class_stack[-1] if self._class_stack else None,
        )
        if callee is not None:
            caller = self._func_stack[-1] if self._func_stack else None
            self.graph.add_edge(
                CallSite(
                    caller=caller.qualname if caller else None,
                    callee=callee.qualname,
                    node=node,
                    module=self.module.name,
                )
            )
        self.generic_visit(node)


class CallGraph:
    """Resolved call edges over a :class:`ProjectIndex`."""

    def __init__(self, index: ProjectIndex):
        self.index = index
        self.edges: list[CallSite] = []
        self.callers_of: dict[str, list[CallSite]] = {}

    @classmethod
    def build(cls, index: ProjectIndex) -> "CallGraph":
        graph = cls(index)
        for module in index.modules.values():
            _CallCollector(graph, module).visit(module.tree)
        return graph

    def add_edge(self, site: CallSite) -> None:
        self.edges.append(site)
        self.callers_of.setdefault(site.callee, []).append(site)

    def resolve_call(
        self,
        node: ast.Call,
        module: ModuleInfo,
        func: FunctionInfo | None,
        cls: ClassInfo | None,
    ) -> FunctionInfo | ClassInfo | None:
        """Static resolution of a call's target, or None.

        Handles: bare names (local defs + import aliases, including the
        ``op_task`` / ``transfer_task`` constructor helpers), dotted
        module attributes, ``self.method()``, ``ClassName.method()``,
        and ``param.method()`` where the parameter's annotation names an
        indexed class.
        """
        callee = node.func
        if isinstance(callee, ast.Name):
            return self.index.resolve_name(module, callee.id)
        if not isinstance(callee, ast.Attribute):
            return None
        base = callee.value
        # module alias: np.x / repro.engine.base.op_task
        chain = dotted_name(base)
        if chain is not None:
            head = chain.split(".")[0]
            if head in module.imports:
                qualified = module.imports[head] + chain[len(head) :]
                target = self.index.modules.get(qualified)
                if target is not None:
                    if callee.attr in target.functions:
                        return target.functions[callee.attr]
                    if callee.attr in target.classes:
                        return target.classes[callee.attr]
                    return None
        if isinstance(base, ast.Name):
            receiver: ClassInfo | None = None
            if base.id == "self" and cls is not None:
                receiver = cls
            elif base.id in module.classes:
                receiver = module.classes[base.id]
            elif base.id in module.imports:
                resolved = self.index.resolve_qualified(module.imports[base.id])
                if isinstance(resolved, ClassInfo):
                    receiver = resolved
            elif func is not None:
                for param in func.params:
                    if param.name == base.id:
                        receiver = self.index.class_named(param.annotation)
                        break
            if receiver is not None:
                method = receiver.methods.get(callee.attr)
                if method is not None:
                    return method
        return None


def bind_args(
    func: FunctionInfo, call: ast.Call, *, skip_self: bool = False
) -> dict[str, ast.expr]:
    """Map a call's argument expressions onto ``func``'s parameters.

    Starred args and ``**kwargs`` splats abort the affected bindings
    (conservative: unbound parameters simply go unchecked).  ``skip_self``
    drops the leading parameter for bound-method calls.
    """
    params = [p for p in func.params if p.kind == "pos"]
    if skip_self and params:
        params = params[1:]
    bound: dict[str, ast.expr] = {}
    for i, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            break
        if i < len(params):
            bound[params[i].name] = arg
    names = {p.name for p in func.params}
    for kw in call.keywords:
        if kw.arg is not None and kw.arg in names:
            bound[kw.arg] = kw.value
    return bound
