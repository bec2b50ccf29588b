"""ConcSan: interprocedural concurrency and crash-consistency analysis.

Second-generation analysis core for ``repro.analysis``: where the
REP001–REP008 rules inspect one statement (or one file) at a time,
ConcSan builds a whole-program model — a module graph, a class registry
with per-attribute type/kind inference, and a cross-module call graph —
and runs three rule families over it:

- **REP009 (lock discipline)** — Eraser-style lockset inference.  For
  every class that owns a ``threading.Lock``/``RLock`` attribute, each
  method is scanned with the set of ``with self._lock:`` regions it is
  inside, entry locksets are propagated along the call graph (a private
  helper only ever called under the lock *is* lock-protected, even when
  the call crosses a module boundary), and any mutable attribute
  accessed both under its inferred guarding lock and outside it is
  flagged at the unguarded site.
- **REP010 (fork/spawn safety)** — flags process creation while a lock
  is held (the forked child inherits a copy of the locked lock; any
  waiter in the child deadlocks forever), bound-method ``Process``
  targets (which pickle/inherit the whole object, locks and fds
  included), and lock/socket/file/tracer/RNG-typed attributes passed
  across the spawn boundary in ``Process`` args (queues and events are
  designed to cross and stay exempt).
- **REP011 (crash consistency)** — extends REP007 from "use the atomic
  writers" to a torn-write story for every durable state file
  (journal, ``.breaker.json``, pidfiles, ``BENCH_*.json``): write sites
  in durable modules must go through ``repro.runstate.atomic``, and
  ``json.load``/``json.loads`` parse sites of durable state must sit
  under a ``try/except ValueError`` so a torn record reads as absent
  rather than crashing recovery.

All three register as project rules (they need the whole module list);
findings are ordinary :class:`~repro.analysis.findings.Finding` records
and respect ``repro:noqa`` suppression like every other rule.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .findings import Finding
from .rules import (
    RUNSTATE_PATH_FRAGMENT,
    ModuleContext,
    _finding,
    _open_write_mode,
)

# ----------------------------------------------------------------------
# Attribute kind inference
# ----------------------------------------------------------------------

LOCK_FACTORY_SUFFIXES = ("Lock", "RLock")
"""Constructor name suffixes that bind a mutual-exclusion lock."""

LOCK_FACTORY_NAMES = frozenset({"make_lock"})
"""Factory function names treated as returning a lock."""

SYNC_SAFE_SUFFIXES = (
    "Queue",
    "SimpleQueue",
    "JoinableQueue",
    "Event",
    "Condition",
    "Semaphore",
    "BoundedSemaphore",
    "Barrier",
)
"""Self-synchronizing primitives: safe to share between threads and
(for multiprocessing queues) designed to cross the spawn boundary."""

RISKY_SPAWN_KINDS = frozenset({"lock", "socket", "file", "tracer", "rng"})
"""Attribute kinds that must not be captured across fork/spawn."""

MUTATOR_METHODS = frozenset(
    {
        "add",
        "append",
        "appendleft",
        "clear",
        "discard",
        "extend",
        "insert",
        "pop",
        "popitem",
        "popleft",
        "remove",
        "setdefault",
        "update",
        "write",
    }
)
"""Container/file methods treated as in-place mutations of the
receiver for REP009's "is this attribute ever written" test."""

_MAX_ENTRY_VARIANTS = 8
"""Entry-lockset fan-out cap per method; beyond it the analysis
collapses to the conservative empty entry (may-be-unlocked)."""


def _attr_kind_of_call(qual: Optional[str]) -> Optional[str]:
    """Classify ``self.x = <call>()`` by the constructor's dotted name."""
    if qual is None:
        return None
    tail = qual.rsplit(".", 1)[-1]
    if tail in LOCK_FACTORY_NAMES or tail.endswith(LOCK_FACTORY_SUFFIXES):
        return "lock"
    if tail.endswith(SYNC_SAFE_SUFFIXES):
        return "sync"
    if qual.startswith("socket.") or tail == "socket":
        return "socket"
    if tail in ("open", "TemporaryFile", "NamedTemporaryFile"):
        return "file"
    if tail.endswith("Tracer"):
        return "tracer"
    if tail in ("Random", "RandomState", "default_rng", "Generator"):
        return "rng"
    return None


def _module_name(relpath: str) -> str:
    """Dotted module name from a lint-relative path."""
    name = relpath.replace("\\", "/")
    if name.endswith(".py"):
        name = name[:-3]
    parts = [p for p in name.split("/") if p not in ("", ".", "src")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


# ----------------------------------------------------------------------
# Project model
# ----------------------------------------------------------------------


@dataclass
class AttrAccess:
    """One ``self.<attr>`` touch inside a method body."""

    attr: str
    write: bool
    line: int
    col: int
    locks: frozenset[str]


@dataclass
class CallEdge:
    """One ``self.m()`` / ``self.attr.m()`` call with locks held."""

    target_attr: Optional[str]  # None: call on self
    method: str
    locks: frozenset[str]


@dataclass
class SpawnSite:
    """One process-creation point (fork boundary)."""

    desc: str
    line: int
    col: int
    locks: frozenset[str]


@dataclass
class MethodModel:
    """Scanned body of one method."""

    name: str
    node: ast.AST
    accesses: list[AttrAccess] = field(default_factory=list)
    calls: list[CallEdge] = field(default_factory=list)
    spawns: list[SpawnSite] = field(default_factory=list)
    escapes: bool = False
    entries: set[frozenset[str]] = field(default_factory=set)


@dataclass
class ClassModel:
    """One class: its locks, attribute kinds, and scanned methods."""

    key: str  # "<module>:<ClassName>"
    name: str
    module: str
    relpath: str
    node: ast.ClassDef
    lock_attrs: set[str] = field(default_factory=set)
    attr_kind: dict[str, str] = field(default_factory=dict)
    attr_class: dict[str, str] = field(default_factory=dict)  # attr -> key
    methods: dict[str, MethodModel] = field(default_factory=dict)

    def own_lock(self, lock_attr: str) -> str:
        return f"{self.key}.{lock_attr}"

    def own_locks(self, locks: Iterable[str]) -> frozenset[str]:
        prefix = f"{self.key}."
        return frozenset(
            lock for lock in sorted(locks) if lock.startswith(prefix)
        )


class ProjectModel:
    """Whole-program view: class registry + cross-module call graph."""

    def __init__(self, modules: list[ModuleContext]) -> None:
        self.contexts: dict[str, ModuleContext] = {}
        self.classes: dict[str, ClassModel] = {}
        self._by_name: dict[str, list[str]] = {}
        for ctx in modules:
            module = _module_name(ctx.relpath)
            self.contexts[module] = ctx
            for node in ctx.tree.body:
                if isinstance(node, ast.ClassDef):
                    key = f"{module}:{node.name}"
                    cls = ClassModel(
                        key=key,
                        name=node.name,
                        module=module,
                        relpath=ctx.relpath,
                        node=node,
                    )
                    self.classes[key] = cls
                    self._by_name.setdefault(node.name, []).append(key)
        for cls in self.classes.values():
            self._collect_attr_kinds(cls)
        for cls in self.classes.values():
            ctx = self.contexts[cls.module]
            for item in cls.node.body:
                if isinstance(
                    item, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    scanner = _MethodScanner(ctx, cls, self, item)
                    cls.methods[item.name] = scanner.scan()
        self._mark_escapes()
        self._propagate_entries()

    # -- construction ---------------------------------------------------

    def resolve_class(self, name: Optional[str]) -> Optional[str]:
        """Class key for a (possibly dotted) constructor name.

        Relative imports carry no alias entry, so resolution falls back
        to the bare class name when it is unambiguous project-wide.
        """
        if name is None:
            return None
        tail = name.rsplit(".", 1)[-1]
        keys = self._by_name.get(tail, [])
        if len(keys) == 1:
            return keys[0]
        return None

    def _collect_attr_kinds(self, cls: ClassModel) -> None:
        ctx = self.contexts[cls.module]
        for node in ast.walk(cls.node):
            if not isinstance(node, ast.Assign) or not isinstance(
                node.value, ast.Call
            ):
                continue
            qual = ctx.qualify(node.value.func)
            kind = _attr_kind_of_call(qual)
            target_cls = self.resolve_class(qual)
            for target in node.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    if kind == "lock":
                        cls.lock_attrs.add(target.attr)
                    if kind is not None:
                        cls.attr_kind[target.attr] = kind
                    elif target_cls is not None:
                        cls.attr_class[target.attr] = target_cls
                        cls.attr_kind.setdefault(target.attr, "object")

    def _mark_escapes(self) -> None:
        """A method referenced without being called (thread target,
        callback) can run with no locks held."""
        for cls in self.classes.values():
            for method in cls.methods.values():
                for ref in getattr(method, "_method_refs", ()):
                    target = cls.methods.get(ref)
                    if target is not None:
                        target.escapes = True

    def _propagate_entries(self) -> None:
        """Fixpoint entry-lockset propagation along the call graph."""
        methods: dict[tuple[str, str], MethodModel] = {}
        for cls in self.classes.values():
            for method in cls.methods.values():
                key = (cls.key, method.name)
                methods[key] = method
                external = (
                    not method.name.startswith("_")
                    or method.name.startswith("__")
                    or method.escapes
                )
                if external:
                    method.entries.add(frozenset())
        edges: list[tuple[tuple[str, str], tuple[str, str], frozenset]] = []
        for cls in self.classes.values():
            for method in cls.methods.values():
                for call in method.calls:
                    if call.target_attr is None:
                        callee_cls = cls.key
                    else:
                        callee_cls = cls.attr_class.get(call.target_attr)
                        if callee_cls is None:
                            continue
                    callee = self.classes.get(callee_cls)
                    if callee is None or call.method not in callee.methods:
                        continue
                    edges.append(
                        (
                            (cls.key, method.name),
                            (callee_cls, call.method),
                            call.locks,
                        )
                    )
        changed = True
        rounds = 0
        while changed and rounds < 50:
            changed = False
            rounds += 1
            for caller_key, callee_key, locks in edges:
                caller = methods[caller_key]
                callee = methods[callee_key]
                if not caller.entries:
                    # Not yet seeded (or unreachable): wait for a later
                    # round rather than injecting a spurious empty entry.
                    continue
                for entry in caller.entries:
                    effective = entry | locks
                    if effective not in callee.entries:
                        callee.entries.add(effective)
                        changed = True
                if len(callee.entries) > _MAX_ENTRY_VARIANTS:
                    if frozenset() not in callee.entries:
                        callee.entries.add(frozenset())
                        changed = True

    # -- queries --------------------------------------------------------

    @staticmethod
    def entry_floor(method: MethodModel) -> frozenset[str]:
        """Locks guaranteed held on *every* entry to ``method``."""
        if not method.entries:
            return frozenset()
        return frozenset.intersection(*method.entries)


class _MethodScanner:
    """One-pass lockset-aware scan of a method body."""

    def __init__(
        self,
        ctx: ModuleContext,
        cls: ClassModel,
        model: ProjectModel,
        node: ast.AST,
    ) -> None:
        self.ctx = ctx
        self.cls = cls
        self.model = model
        self.node = node
        self.method = MethodModel(name=node.name, node=node)
        self.method_names = {
            item.name
            for item in cls.node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        self.lock_aliases: dict[str, str] = {}  # local name -> lock attr
        self.proc_vars: set[str] = set()
        self.local_locks: set[str] = set()
        self._method_refs: set[str] = set()

    def scan(self) -> MethodModel:
        for stmt in self.node.body:
            self._visit(stmt, frozenset())
        self.method._method_refs = self._method_refs  # type: ignore[attr-defined]
        return self.method

    # -- helpers --------------------------------------------------------

    def _self_attr(self, node: ast.AST) -> Optional[str]:
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            return node.attr
        return None

    def _lock_in_expr(self, node: ast.AST) -> Optional[str]:
        """Lock token for a ``with`` context expression, if it is one."""
        attr = self._self_attr(node)
        if attr is not None and attr in self.cls.lock_attrs:
            return self.cls.own_lock(attr)
        if isinstance(node, ast.Name):
            aliased = self.lock_aliases.get(node.id)
            if aliased is not None:
                return self.cls.own_lock(aliased)
            if node.id in self.local_locks:
                return f"local:{node.id}"
        return None

    def _record_access(
        self,
        attr: str,
        node: ast.AST,
        locks: frozenset[str],
        write: bool,
    ) -> None:
        self.method.accesses.append(
            AttrAccess(
                attr=attr,
                write=write,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0) + 1,
                locks=locks,
            )
        )

    def _is_process_ctor(self, node: ast.AST) -> bool:
        if not isinstance(node, ast.Call):
            return False
        qual = self.ctx.qualify(node.func)
        tail = None
        if qual is not None:
            tail = qual.rsplit(".", 1)[-1]
        elif isinstance(node.func, ast.Attribute):
            tail = node.func.attr
        return tail == "Process"

    # -- recursive walk -------------------------------------------------

    def _visit(self, node: ast.AST, locks: frozenset[str]) -> None:
        if isinstance(node, ast.With):
            inner = locks
            for item in node.items:
                self._visit(item.context_expr, locks)
                token = self._lock_in_expr(item.context_expr)
                if token is not None:
                    inner = inner | {token}
            for stmt in node.body:
                self._visit(stmt, inner)
            return
        if isinstance(node, ast.Assign):
            self._visit(node.value, locks)
            # Local lock aliases and process-variable tracking.
            if len(node.targets) == 1 and isinstance(
                node.targets[0], ast.Name
            ):
                name = node.targets[0].id
                attr = self._self_attr(node.value)
                if attr is not None and attr in self.cls.lock_attrs:
                    self.lock_aliases[name] = attr
                if isinstance(node.value, ast.Call):
                    qual = self.ctx.qualify(node.value.func)
                    if _attr_kind_of_call(qual) == "lock":
                        self.local_locks.add(name)
                    if self._is_process_ctor(node.value):
                        self.proc_vars.add(name)
            for target in node.targets:
                self._visit_target(target, locks)
            return
        if isinstance(node, ast.AugAssign):
            self._visit(node.value, locks)
            self._visit_target(node.target, locks, always_write=True)
            return
        if isinstance(node, ast.Delete):
            for target in node.targets:
                self._visit_target(target, locks, always_write=True)
            return
        if isinstance(node, ast.Call):
            self._visit_call(node, locks)
            return
        if isinstance(node, ast.Attribute):
            attr = self._self_attr(node)
            if attr is not None:
                if attr in self.method_names:
                    self._method_refs.add(attr)
                else:
                    self._record_access(
                        attr, node, locks,
                        write=isinstance(node.ctx, (ast.Store, ast.Del)),
                    )
                return
            self._visit(node.value, locks)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            # Nested defs/lambdas run later (often on another thread):
            # scan them with no locks assumed held.
            body = node.body if isinstance(node.body, list) else [node.body]
            for stmt in body:
                self._visit(stmt, frozenset())
            return
        for child in ast.iter_child_nodes(node):
            self._visit(child, locks)

    def _visit_target(
        self,
        target: ast.AST,
        locks: frozenset[str],
        always_write: bool = False,
    ) -> None:
        attr = self._self_attr(target)
        if attr is not None:
            self._record_access(attr, target, locks, write=True)
            return
        if isinstance(target, ast.Subscript):
            # self.x[k] = v mutates the container bound to self.x.
            attr = self._self_attr(target.value)
            if attr is not None:
                self._record_access(attr, target.value, locks, write=True)
                self._visit(target.slice, locks)
                return
        if always_write and isinstance(target, ast.Attribute):
            self._visit(target.value, locks)
            return
        self._visit(target, locks)

    def _visit_call(self, node: ast.Call, locks: frozenset[str]) -> None:
        func = node.func
        handled_func = False
        self_attr = self._self_attr(func)
        if self_attr is not None:
            handled_func = True
            if self_attr in self.method_names:
                self.method.calls.append(
                    CallEdge(target_attr=None, method=self_attr, locks=locks)
                )
            else:
                # Calling a callback/config attribute is a read of it.
                self._record_access(self_attr, func, locks, write=False)
        elif isinstance(func, ast.Attribute):
            base_attr = self._self_attr(func.value)
            if base_attr is not None:
                handled_func = True
                mutates = func.attr in MUTATOR_METHODS
                self._record_access(
                    base_attr, func.value, locks, write=mutates
                )
                if base_attr in self.cls.attr_class:
                    self.method.calls.append(
                        CallEdge(
                            target_attr=base_attr,
                            method=func.attr,
                            locks=locks,
                        )
                    )
        self._detect_spawn(node, locks)
        if self._is_process_ctor(node):
            self._check_process_ctor(node, locks)
        if not handled_func:
            self._visit(func, locks)
        for arg in node.args:
            self._visit(arg, locks)
        for keyword in node.keywords:
            self._visit(keyword.value, locks)

    def _detect_spawn(self, node: ast.Call, locks: frozenset[str]) -> None:
        func = node.func
        qual = self.ctx.qualify(func)
        if qual in ("os.fork", "os.forkpty"):
            self.method.spawns.append(
                SpawnSite(
                    desc=f"{qual}()",
                    line=node.lineno,
                    col=node.col_offset + 1,
                    locks=locks,
                )
            )
            return
        if qual is not None and qual.startswith("subprocess."):
            tail = qual.rsplit(".", 1)[-1]
            if tail in ("Popen", "run", "call", "check_call", "check_output"):
                self.method.spawns.append(
                    SpawnSite(
                        desc=f"{qual}()",
                        line=node.lineno,
                        col=node.col_offset + 1,
                        locks=locks,
                    )
                )
                return
        if isinstance(func, ast.Attribute) and func.attr == "start":
            started = func.value
            is_proc = self._is_process_ctor(started) or (
                isinstance(started, ast.Name) and started.id in self.proc_vars
            )
            if is_proc:
                self.method.spawns.append(
                    SpawnSite(
                        desc="Process.start()",
                        line=node.lineno,
                        col=node.col_offset + 1,
                        locks=locks,
                    )
                )

    def _check_process_ctor(
        self, node: ast.Call, locks: frozenset[str]
    ) -> None:
        """Record capture hazards on a ``Process(...)`` construction."""
        captures: list[tuple[str, ast.AST]] = []
        for keyword in node.keywords:
            if keyword.arg == "target":
                attr = self._self_attr(keyword.value)
                if attr is not None and (
                    self.cls.lock_attrs
                    or any(
                        kind in RISKY_SPAWN_KINDS
                        for kind in self.cls.attr_kind.values()
                    )
                ):
                    captures.append(
                        (
                            f"bound method self.{attr} as target captures "
                            f"the whole {self.cls.name} (its locks and fds) "
                            "across the spawn boundary; use a module-level "
                            "function taking plain data",
                            keyword.value,
                        )
                    )
            if keyword.arg in ("args", "kwargs") or keyword.arg == "target":
                for sub in ast.walk(keyword.value):
                    attr = self._self_attr(sub)
                    if attr is None:
                        continue
                    kind = self.cls.attr_kind.get(attr)
                    if kind in RISKY_SPAWN_KINDS:
                        captures.append(
                            (
                                f"self.{attr} ({kind}) passed across the "
                                "fork/spawn boundary; the child gets a "
                                "duplicated, unsynchronized copy — pass "
                                "plain data or a multiprocessing queue",
                                sub,
                            )
                        )
        self.method.capture_hazards = getattr(  # type: ignore[attr-defined]
            self.method, "capture_hazards", []
        )
        for message, where in captures:
            self.method.capture_hazards.append(
                (message, where.lineno, where.col_offset + 1)
            )


# ----------------------------------------------------------------------
# REP009 — lock discipline
# ----------------------------------------------------------------------


def check_rep009(modules: list[ModuleContext]) -> list[Finding]:
    """Flag mixed locked/unlocked access to attributes of lock-owning
    classes (Eraser lockset inference over the interprocedural model)."""
    model = ProjectModel(modules)
    findings: list[Finding] = []
    for cls in model.classes.values():
        if not cls.lock_attrs:
            continue
        # attr -> (guaranteed-own-locks, access, method-name)
        per_attr: dict[str, list[tuple[frozenset[str], AttrAccess]]] = {}
        for method in cls.methods.values():
            if method.name == "__init__":
                continue
            floor = model.entry_floor(method)
            for access in method.accesses:
                if access.attr in cls.lock_attrs:
                    continue
                if cls.attr_kind.get(access.attr) == "sync":
                    continue
                guaranteed = cls.own_locks(floor | access.locks)
                per_attr.setdefault(access.attr, []).append(
                    (guaranteed, access)
                )
        for attr in sorted(per_attr):
            accesses = per_attr[attr]
            guarded = [a for g, a in accesses if g]
            unguarded = [a for g, a in accesses if not g]
            written = any(a.write for _, a in accesses)
            if not (guarded and unguarded and written):
                continue
            lock_tokens = sorted(
                {lock for g, _ in accesses for lock in g}
            )
            lock_name = lock_tokens[0].rsplit(".", 1)[-1]
            witness = min(a.line for a in guarded)
            for access in sorted(unguarded, key=lambda a: (a.line, a.col)):
                what = "written" if access.write else "read"
                findings.append(
                    Finding(
                        path=cls.relpath,
                        line=access.line,
                        col=access.col,
                        rule="REP009",
                        message=(
                            f"{cls.name}.{attr} is {what} without "
                            f"self.{lock_name} here but accessed under it "
                            f"at line {witness}; mixed lock discipline on "
                            "a mutable attribute is a data race — hold "
                            "the lock at every post-init access"
                        ),
                    )
                )
    return findings


# ----------------------------------------------------------------------
# REP010 — fork/spawn safety
# ----------------------------------------------------------------------


def check_rep010(modules: list[ModuleContext]) -> list[Finding]:
    """Flag process creation under a held lock and risky state captured
    across the fork/spawn boundary."""
    model = ProjectModel(modules)
    findings: list[Finding] = []
    for cls in model.classes.values():
        for method in cls.methods.values():
            floor = model.entry_floor(method)
            for spawn in method.spawns:
                held = sorted(floor | spawn.locks)
                if not held:
                    continue
                names = ", ".join(
                    token[len("local:"):]
                    if token.startswith("local:")
                    else f"self.{token.rsplit('.', 1)[-1]}"
                    for token in held
                )
                findings.append(
                    Finding(
                        path=cls.relpath,
                        line=spawn.line,
                        col=spawn.col,
                        rule="REP010",
                        message=(
                            f"{spawn.desc} while holding {names}: the "
                            "forked child inherits the held lock (any "
                            "acquire in the child deadlocks) and the "
                            "locked region's half-updated state; start "
                            "processes after releasing the lock"
                        ),
                    )
                )
            for message, line, col in getattr(
                method, "capture_hazards", []
            ):
                findings.append(
                    Finding(
                        path=cls.relpath,
                        line=line,
                        col=col,
                        rule="REP010",
                        message=message,
                    )
                )
    # Module-level functions: spawns under local locks.
    for module, ctx in model.contexts.items():
        for node in ctx.tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            shell = ClassModel(
                key=f"{module}:<module>",
                name="<module>",
                module=module,
                relpath=ctx.relpath,
                node=ast.ClassDef(
                    name="<module>", bases=[], keywords=[], body=[],
                    decorator_list=[],
                ),
            )
            scanner = _MethodScanner(ctx, shell, model, node)
            scanned = scanner.scan()
            for spawn in scanned.spawns:
                if not spawn.locks:
                    continue
                names = ", ".join(
                    token.replace("local:", "")
                    for token in sorted(spawn.locks)
                )
                findings.append(
                    Finding(
                        path=ctx.relpath,
                        line=spawn.line,
                        col=spawn.col,
                        rule="REP010",
                        message=(
                            f"{spawn.desc} while holding {names}: the "
                            "forked child inherits the held lock (any "
                            "acquire in the child deadlocks); start "
                            "processes after releasing the lock"
                        ),
                    )
                )
    return findings


# ----------------------------------------------------------------------
# REP011 — crash consistency (torn-write stories)
# ----------------------------------------------------------------------

DURABLE_STATE_HINTS = (
    "journal",
    "breaker",
    "pidfile",
    "bench",
    "result",
    "figure_id",
)
"""Name fragments marking durable state files (REP007's hints plus the
service-era state: ``.breaker.json``, pidfiles, ``BENCH_*.json``)."""

ATOMIC_WRITERS = frozenset({"atomic_write_text", "append_durable_line"})
"""The sanctioned torn-write-safe entry points in repro.runstate.atomic."""

_TOLERANT_EXC_NAMES = frozenset(
    {"ValueError", "JSONDecodeError", "Exception", "BaseException"}
)


def _module_stem_hint(relpath: str) -> Optional[str]:
    stem = relpath.replace("\\", "/").rsplit("/", 1)[-1].lower()
    for hint in DURABLE_STATE_HINTS:
        if hint in stem:
            return hint
    return None


def _durable_state_hint(node: ast.AST) -> Optional[str]:
    """Like REP007's hint scan, over the extended durable-state set."""
    for sub in ast.walk(node):
        text = None
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            text = sub.value
        elif isinstance(sub, ast.Name):
            text = sub.id
        elif isinstance(sub, ast.Attribute):
            text = sub.attr
        if text is None:
            continue
        lowered = text.lower()
        for hint in DURABLE_STATE_HINTS:
            if hint in lowered:
                return hint
    return None


def _calls_atomic_writer(ctx: ModuleContext) -> bool:
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Call):
            qual = ctx.qualify(node.func)
            if qual is not None and qual.rsplit(".", 1)[-1] in ATOMIC_WRITERS:
                return True
    return False


def _handler_tolerates_parse_errors(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True  # bare except
    types = (
        handler.type.elts
        if isinstance(handler.type, ast.Tuple)
        else [handler.type]
    )
    for node in types:
        name = None
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        if name in _TOLERANT_EXC_NAMES:
            return True
    return False


def check_rep011(modules: list[ModuleContext]) -> list[Finding]:
    """Torn-write stories for durable state files.

    A module is *durable-relevant* when its filename carries a durable
    hint (journal/breaker/pidfile/bench) or it calls the runstate atomic
    writers.  In relevant modules:

    - write sites (``open('w'/'a')``, ``json.dump``, ``write_text``)
      must go through ``repro.runstate.atomic`` — ``runstate/`` itself
      is the sanctioned implementation and exempt on the write side;
    - every ``json.load``/``json.loads`` must sit under a ``try``
      whose handlers catch ``ValueError`` (torn record == absent
      record), including inside ``runstate/``.
    """
    findings: list[Finding] = []
    for ctx in modules:
        relpath = ctx.relpath.replace("\\", "/")
        stem_hint = _module_stem_hint(relpath)
        relevant = stem_hint is not None or _calls_atomic_writer(ctx)
        if not relevant:
            continue
        in_runstate = RUNSTATE_PATH_FRAGMENT in relpath
        # Walk with an explicit stack so parse sites can see their
        # enclosing try handlers.
        def _walk(node: ast.AST, tolerant: bool) -> None:
            if isinstance(node, ast.Try):
                body_tolerant = tolerant or any(
                    _handler_tolerates_parse_errors(h) for h in node.handlers
                )
                for child in node.body:
                    _walk(child, body_tolerant)
                for child in (
                    node.handlers + node.orelse + node.finalbody
                ):
                    _walk(child, tolerant)
                return
            if isinstance(node, ast.Call):
                qual = ctx.qualify(node.func)
                if qual in ("json.load", "json.loads") and not tolerant:
                    findings.append(
                        _finding(
                            ctx, node, "REP011",
                            f"{qual}(...) parses durable state without "
                            "torn-record tolerance; a crash mid-write "
                            "leaves a torn tail that must read as "
                            "absent — wrap the parse in try/except "
                            "ValueError",
                        )
                    )
                if not in_runstate:
                    what = None
                    if qual == "open" and node.args:
                        mode = _open_write_mode(node)
                        hinted = (
                            _durable_state_hint(node.args[0]) is not None
                            or stem_hint is not None
                        )
                        if mode is not None and hinted:
                            what = f"open(..., {mode!r})"
                    elif qual == "json.dump" and (
                        _durable_state_hint(node) is not None
                        or stem_hint is not None
                    ):
                        what = "json.dump(...)"
                    elif (
                        isinstance(node.func, ast.Attribute)
                        and node.func.attr in ("write_text", "write_bytes")
                        and (
                            _durable_state_hint(node.func.value) is not None
                            or stem_hint is not None
                        )
                    ):
                        what = f".{node.func.attr}(...)"
                    if what is not None:
                        findings.append(
                            _finding(
                                ctx, node, "REP011",
                                f"{what} writes durable state without a "
                                "torn-write story; route it through "
                                "repro.runstate.atomic "
                                "(atomic_write_text / "
                                "append_durable_line) or document why "
                                "tearing is safe",
                            )
                        )
            for child in ast.iter_child_nodes(node):
                _walk(child, tolerant)

        _walk(ctx.tree, False)
    return findings


CONCSAN_RULES = {
    "REP009": check_rep009,
    "REP010": check_rep010,
    "REP011": check_rep011,
}
"""ConcSan project-rule registry, merged into PROJECT_RULES."""
