"""AST concurrency analysis for the service stack (TEA08x substrate).

The replay service promises "zero dropped or wrong answers" while
serving from an asyncio event loop backed by a worker-thread pool.
Two whole classes of regression break that promise without failing any
functional test on a fast machine: blocking calls that sneak onto the
event loop, and lock-discipline violations (awaiting while holding a
``threading.Lock``, acquiring locks against the documented order,
mutating a process-shared cache without its lock).

:class:`ConcurrencyAnalysis` parses one module and derives:

- **blocking facts** — calls that perform file I/O, sleeps, process
  spawns or store access (``open``, ``time.sleep``, ``os.stat``,
  ``x.store.anything()``, a curated set of known-blocking repro
  helpers);
- a **blocking closure** — same-module functions/methods that reach a
  blocking fact through direct calls (``foo()``, ``self.foo()``);
  function *references* (e.g. ``run_in_executor(pool, self.preload)``)
  deliberately do not propagate — handing a blocking function to the
  executor is the sanctioned pattern;
- **coroutine findings** — blocking facts (direct or via the closure)
  inside ``async def`` bodies;
- **lock findings** — ``await`` under a ``threading.Lock``,
  ``asyncio.Lock`` acquired with a plain ``with``, ``threading.Lock``
  acquired with ``async with``, and nested acquisitions violating
  :data:`LOCK_ORDER`;
- **shared-cache findings** — module-level ``*_CACHE`` dict literals
  mutated in a function body outside any ``with <lock>:`` block.

A line containing ``# audit: ok-blocking`` suppresses blocking
findings anchored on it (the escape hatch for sanctioned exceptions).
The analysis is heuristic by design — it must be cheap enough to run
on every commit — and is calibrated to be finding-free on the repo's
own service/cluster/store tree (a property the test suite pins).
"""

from __future__ import annotations

import ast

#: Dotted call prefixes that always block the calling thread.
BLOCKING_MODULE_CALLS = frozenset({
    "time.sleep",
    "os.listdir", "os.scandir", "os.stat", "os.unlink", "os.remove",
    "os.replace", "os.rename", "os.makedirs", "os.mkdir", "os.rmdir",
    "os.walk",
    "socket.create_connection", "socket.getaddrinfo", "socket.socket",
    "subprocess.run", "subprocess.call", "subprocess.check_call",
    "subprocess.check_output", "subprocess.Popen",
    "shutil.copy", "shutil.copyfile", "shutil.copytree", "shutil.rmtree",
    "shutil.move",
})

#: Bare builtins that block.
BLOCKING_BUILTINS = frozenset({"open", "input"})

#: Final attribute names known to block regardless of the receiver —
#: the repo's own I/O-heavy helpers (store access, snapshot mapping,
#: workload generation, atomic writes).
BLOCKING_KNOWN_NAMES = frozenset({
    "get_bytes", "put_bytes", "get_compiled", "map_compiled",
    "get_jit", "migrate", "put_minimized",
    "open_snapshot_mapping", "cached_mapping", "cached_compiled",
    "load_benchmark", "load_tea_binary", "dump_tea_binary",
    "atomic_write_bytes", "atomic_write_text", "atomic_write_json",
})

#: Receiver attribute names whose method calls hit the filesystem —
#: ``anything.store.method()`` goes through an ``AutomatonStore``.
BLOCKING_RECEIVERS = frozenset({"store"})

#: The documented lock-acquisition order (coarse to fine).  A lock may
#: be acquired while holding only locks that appear *earlier* here;
#: see docs/audit.md ("Lock discipline").
LOCK_ORDER = ("_PROCESS_LOCK", "_jit_lock", "_log_lock")

#: Suppression pragma: a line carrying this comment is exempt from
#: blocking-call findings.
PRAGMA = "audit: ok-blocking"


def _dotted_name(node):
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _blocking_reason(call):
    """Why this Call node blocks, or ``None``."""
    func = call.func
    if isinstance(func, ast.Name):
        if func.id in BLOCKING_BUILTINS:
            return "builtin %s()" % func.id
        return None
    if not isinstance(func, ast.Attribute):
        return None
    dotted = _dotted_name(func)
    if dotted is not None:
        for prefix in BLOCKING_MODULE_CALLS:
            if dotted == prefix or dotted.endswith("." + prefix):
                return "%s()" % prefix
    if func.attr in BLOCKING_KNOWN_NAMES:
        return "%s() (known-blocking helper)" % func.attr
    receiver = func.value
    if (isinstance(receiver, ast.Attribute)
            and receiver.attr in BLOCKING_RECEIVERS):
        return ".%s.%s() (store access hits the filesystem)" % (
            receiver.attr, func.attr)
    return None


class _FunctionInfo:
    """One function/method: its AST, kind, and derived facts."""

    __slots__ = ("qualname", "node", "is_async", "blocking",
                 "calls", "cls")

    def __init__(self, qualname, node, is_async, cls=None):
        self.qualname = qualname
        self.node = node
        self.is_async = is_async
        self.cls = cls
        #: [(lineno, reason)] — direct blocking facts in this body.
        self.blocking = []
        #: Bare names of same-module callables invoked directly.
        self.calls = set()


def _own_statements(node):
    """Walk a function body without descending into nested defs."""
    stack = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.Lambda)):
            continue
        yield child
        stack.extend(ast.iter_child_nodes(child))


class Finding:
    """One concurrency finding: a check id, message and source line."""

    __slots__ = ("check", "message", "lineno")

    def __init__(self, check, message, lineno):
        self.check = check
        self.message = message
        self.lineno = lineno

    def __repr__(self):
        return "<Finding %s L%s %r>" % (self.check, self.lineno,
                                        self.message)


class ConcurrencyAnalysis:
    """Parse one module and expose the TEA08x analyses.

    ``source`` is the module text, ``filename`` a display handle.
    Raises ``SyntaxError`` when the module does not parse (callers
    surface that as its own finding).
    """

    def __init__(self, source, filename="<module>"):
        self.filename = filename
        self.module = ast.parse(source, filename=filename)
        self._suppressed = frozenset(
            lineno for lineno, line in enumerate(source.splitlines(), 1)
            if PRAGMA in line
        )
        self.functions = {}
        self.lock_kinds = {}
        self._index_module()
        self._collect_lock_kinds()
        self._collect_facts()
        self._closure = self._blocking_closure()

    # -- indexing ------------------------------------------------------

    def _index_module(self):
        for node in self.module.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(node, cls=None)
            elif isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, (ast.FunctionDef,
                                           ast.AsyncFunctionDef)):
                        self._add_function(member, cls=node.name)

    def _add_function(self, node, cls):
        qualname = node.name if cls is None else "%s.%s" % (cls, node.name)
        info = _FunctionInfo(qualname, node,
                             isinstance(node, ast.AsyncFunctionDef),
                             cls=cls)
        # Same-name methods on different classes share the bare-name
        # call edge (self.foo() cannot be resolved without types); the
        # closure is a may-analysis, so over-approximating is correct.
        self.functions.setdefault(node.name, []).append(info)

    def _collect_lock_kinds(self):
        """Map lock variable names (bare or attribute) to their kind.

        Recognizes ``X = threading.Lock()`` / ``self.x = asyncio.Lock()``
        (also RLock) anywhere in the module.
        """
        for node in ast.walk(self.module):
            if not isinstance(node, ast.Assign):
                continue
            dotted = _dotted_name(node.value.func) if isinstance(
                node.value, ast.Call) else None
            if dotted in ("threading.Lock", "threading.RLock"):
                kind = "threading"
            elif dotted in ("asyncio.Lock",):
                kind = "asyncio"
            else:
                continue
            for target in node.targets:
                name = (target.id if isinstance(target, ast.Name)
                        else target.attr if isinstance(target, ast.Attribute)
                        else None)
                if name:
                    self.lock_kinds[name] = kind

    def _collect_facts(self):
        for infos in self.functions.values():
            for info in infos:
                for child in _own_statements(info.node):
                    if not isinstance(child, ast.Call):
                        continue
                    reason = _blocking_reason(child)
                    if reason and child.lineno not in self._suppressed:
                        info.blocking.append((child.lineno, reason))
                    callee = child.func
                    if isinstance(callee, ast.Name):
                        info.calls.add(callee.id)
                    elif (isinstance(callee, ast.Attribute)
                          and isinstance(callee.value, ast.Name)
                          and callee.value.id in ("self", "cls")):
                        info.calls.add(callee.attr)

    def _blocking_closure(self):
        """Bare names of functions that (transitively) block."""
        blocking = {
            name for name, infos in self.functions.items()
            if any(info.blocking for info in infos)
        }
        changed = True
        while changed:
            changed = False
            for name, infos in self.functions.items():
                if name in blocking:
                    continue
                for info in infos:
                    if info.calls & blocking:
                        blocking.add(name)
                        changed = True
                        break
        return blocking

    # -- TEA080: blocking calls reachable from coroutines --------------

    def coroutine_blocking_findings(self):
        findings = []
        for infos in self.functions.values():
            for info in infos:
                if not info.is_async:
                    continue
                for lineno, reason in info.blocking:
                    findings.append(Finding(
                        "blocking-call",
                        "coroutine %s calls blocking %s on the event "
                        "loop; hand it to run_in_executor"
                        % (info.qualname, reason), lineno))
                for callee in sorted(info.calls & self._closure):
                    if callee == info.node.name:
                        continue
                    findings.append(Finding(
                        "blocking-call",
                        "coroutine %s calls %s(), which reaches "
                        "blocking I/O; hand it to run_in_executor"
                        % (info.qualname, callee),
                        info.node.lineno))
        return findings

    # -- TEA081: lock discipline ---------------------------------------

    def _lock_name(self, node):
        """The lock variable a ``with`` item acquires, or ``None``."""
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        else:
            return None
        if name in self.lock_kinds or name in LOCK_ORDER:
            return name
        return None

    def lock_findings(self):
        findings = []
        for infos in self.functions.values():
            for info in infos:
                self._walk_locks(info, info.node, held=[],
                                 findings=findings)
        return findings

    def _walk_locks(self, info, node, held, findings):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
                continue
            acquired = []
            if isinstance(child, (ast.With, ast.AsyncWith)):
                is_async = isinstance(child, ast.AsyncWith)
                for item in child.items:
                    name = self._lock_name(item.context_expr)
                    if name is None:
                        continue
                    kind = self.lock_kinds.get(name, "threading")
                    if kind == "asyncio" and not is_async:
                        findings.append(Finding(
                            "lock-discipline",
                            "%s acquires asyncio lock %s with a plain "
                            "'with'; use 'async with'"
                            % (info.qualname, name), child.lineno))
                    if kind == "threading" and is_async:
                        findings.append(Finding(
                            "lock-discipline",
                            "%s acquires threading lock %s with "
                            "'async with'" % (info.qualname, name),
                            child.lineno))
                    for other in held:
                        if (name in LOCK_ORDER and other in LOCK_ORDER
                                and LOCK_ORDER.index(name)
                                <= LOCK_ORDER.index(other)):
                            findings.append(Finding(
                                "lock-discipline",
                                "%s acquires %s while holding %s — "
                                "violates the documented order %s"
                                % (info.qualname, name, other,
                                   " < ".join(LOCK_ORDER)),
                                child.lineno))
                    if kind == "threading":
                        acquired.append(name)
            elif isinstance(child, (ast.Await, ast.AsyncFor)):
                for name in held:
                    findings.append(Finding(
                        "lock-discipline",
                        "%s awaits while holding threading lock %s "
                        "(blocks the event loop for every thread)"
                        % (info.qualname, name),
                        getattr(child, "lineno", info.node.lineno)))
            self._walk_locks(info, child, held + acquired, findings)

    # -- TEA082: unguarded shared caches -------------------------------

    def _shared_caches(self):
        names = set()
        for node in self.module.body:
            if not isinstance(node, ast.Assign):
                continue
            if not isinstance(node.value, (ast.Dict, ast.DictComp)):
                continue
            for target in node.targets:
                if (isinstance(target, ast.Name)
                        and target.id.upper() == target.id
                        and target.id.endswith("_CACHE")):
                    names.add(target.id)
        return names

    def shared_cache_findings(self):
        caches = self._shared_caches()
        if not caches:
            return []
        findings = []
        for infos in self.functions.values():
            for info in infos:
                self._walk_caches(info, info.node, caches, guarded=False,
                                  findings=findings)
        return findings

    def _mutation(self, node, caches):
        """``(cache_name, what)`` when this node mutates a cache."""
        target = None
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for entry in targets:
                if (isinstance(entry, ast.Subscript)
                        and isinstance(entry.value, ast.Name)
                        and entry.value.id in caches):
                    target = (entry.value.id, "item assignment")
        elif isinstance(node, ast.Delete):
            for entry in node.targets:
                if (isinstance(entry, ast.Subscript)
                        and isinstance(entry.value, ast.Name)
                        and entry.value.id in caches):
                    target = (entry.value.id, "del")
        elif isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id in caches
                    and func.attr in ("clear", "pop", "popitem",
                                      "setdefault", "update")):
                target = (func.value.id, ".%s()" % func.attr)
        return target

    def _walk_caches(self, info, node, caches, guarded, findings):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
                continue
            now_guarded = guarded
            if isinstance(child, (ast.With, ast.AsyncWith)):
                if any(self._lock_name(item.context_expr)
                       for item in child.items):
                    now_guarded = True
            mutation = self._mutation(child, caches)
            if mutation and not guarded:
                cache, what = mutation
                findings.append(Finding(
                    "unguarded-cache",
                    "%s mutates module cache %s (%s) without holding "
                    "a lock" % (info.qualname, cache, what),
                    getattr(child, "lineno", info.node.lineno)))
            self._walk_caches(info, child, caches, now_guarded, findings)

    # -- everything ----------------------------------------------------

    def all_findings(self):
        """Every finding, ordered by line."""
        findings = (self.coroutine_blocking_findings()
                    + self.lock_findings()
                    + self.shared_cache_findings())
        return sorted(findings, key=lambda f: (f.lineno or 0, f.check))
