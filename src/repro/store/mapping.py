"""Shared read-only snapshot mappings (``mmap`` + zero-copy compile).

A :class:`SnapshotMapping` is an open, read-only ``mmap`` of a TEAB v2
snapshot plus the :class:`~repro.core.compiled.CompiledTea` lowered
zero-copy over it.  Because the compiled tables are int64 views into
the mapping, every process that maps the same snapshot file shares one
copy of the automaton in the page cache — the per-process resident
cost of "loading" a snapshot collapses to a few dict builds.  This is
how the replay service, the cluster workers and the parallel-harness
worker pools hold fleet-wide automata without pickling them around.

:func:`cached_compiled` adds the per-process discipline: one mapping
per (path, mtime, size), reused by every caller in the process (e.g.
all threads of a service worker, or each ``multiprocessing`` pool
worker after the first task touching the snapshot).

Closing is cooperative: ``mmap.close()`` refuses while int64 views are
still exported, so :meth:`SnapshotMapping.close` drops its own
references and leaves the final unmap to garbage collection when
replays still hold the compiled automaton — exactly the "retire the
old mapping when in-flight replays drain" behavior hot-reload needs.
"""

from __future__ import annotations

import mmap
import os
import threading

from repro.errors import SerializationError
from repro.store.binary import snapshot_version
from repro.store.binary_v2 import BINARY_VERSION_V2, compile_tea_binary_v2


class SnapshotMapping:
    """One read-only ``mmap`` of a TEAB v2 snapshot file."""

    __slots__ = ("path", "_mmap", "_compiled", "closed")

    def __init__(self, path: object) -> None:
        self.path = str(path)
        try:
            with open(self.path, "rb") as handle:
                self._mmap = mmap.mmap(
                    handle.fileno(), 0, access=mmap.ACCESS_READ
                )
        except (OSError, ValueError) as error:
            raise SerializationError(
                "cannot map %s: %s" % (self.path, error)
            ) from None
        self._compiled = None
        self.closed = False

    @property
    def data(self):
        """The raw mapped bytes (a buffer; index/slice like bytes)."""
        return self._mmap

    @property
    def size(self) -> int:
        return len(self._mmap)

    def compiled(self):
        """The zero-copy :class:`~repro.core.compiled.CompiledTea`.

        Built on first call (the bytes must already be gated — the
        store's verify-on-load does that); cached, so every caller
        shares one instance whose tables are views into the mapping.
        """
        if self._compiled is None:
            self._compiled = compile_tea_binary_v2(self._mmap, verify=False)
        return self._compiled

    def close(self) -> bool:
        """Release this mapping's own references; returns True when the
        underlying ``mmap`` actually closed.

        When compiled views are still exported elsewhere (an in-flight
        replay), the unmap is deferred to garbage collection — the
        mapping is marked closed either way and must not be reused.
        """
        self.closed = True
        self._compiled = None
        try:
            self._mmap.close()
        except BufferError:
            return False
        return True

    def __repr__(self) -> str:
        return "<SnapshotMapping %s (%d bytes%s)>" % (
            self.path, self.size, ", closed" if self.closed else "",
        )


def open_snapshot_mapping(path):
    """A :class:`SnapshotMapping` over ``path``, or ``None``.

    Returns ``None`` when the file is not a TEAB v2 snapshot (v1 files
    have no zero-copy layout — read and decode them instead).  Raises
    :class:`SerializationError` when the file cannot be read at all.
    """
    try:
        with open(path, "rb") as handle:
            head = handle.read(5)
    except OSError as error:
        raise SerializationError(
            "cannot read %s: %s" % (path, error)
        ) from None
    if snapshot_version(head) != BINARY_VERSION_V2:
        return None
    return SnapshotMapping(path)


#: Process-local mapping cache: (realpath, mtime_ns, size) -> mapping.
#: Guarded by ``_PROCESS_LOCK`` — service worker threads and the event
#: loop's executor all call :func:`cached_mapping` concurrently, and
#: the "open + gate exactly once" contract needs the whole check-open-
#: gate-insert sequence to be atomic (TEA082).  ``_PROCESS_LOCK`` is
#: the outermost lock in the documented acquisition order
#: (``_PROCESS_LOCK`` < ``_jit_lock`` < ``_log_lock``).
_PROCESS_CACHE = {}
_PROCESS_LOCK = threading.Lock()


def cached_mapping(path, gate=None):
    """The process-shared :class:`SnapshotMapping` for a v2 snapshot.

    The mapping is opened once per process per file version (keyed by
    path + mtime + size, so an atomically replaced snapshot gets a
    fresh mapping) and reused by every subsequent caller — worker pools
    fork or spawn, call this in the task body, and end up with all
    processes reading the same page-cache copy.  ``gate`` (if given) is
    called with the mapping exactly once, on first open; when it raises
    the mapping is closed and not cached — how the store runs its
    verify-on-load scan once per mapping instead of once per call.
    Raises :class:`SerializationError` for missing files or v1
    snapshots (no zero-copy layout to share).
    """
    real = os.path.realpath(path)
    try:
        stat = os.stat(real)
    except OSError as error:
        raise SerializationError(
            "cannot stat %s: %s" % (path, error)
        ) from None
    cache_key = (real, stat.st_mtime_ns, stat.st_size)
    with _PROCESS_LOCK:
        mapping = _PROCESS_CACHE.get(cache_key)
        if mapping is None:
            mapping = open_snapshot_mapping(real)
            if mapping is None:
                raise SerializationError(
                    "%s is not a TEAB v2 snapshot; only v2 has a "
                    "zero-copy layout (run 'repro tools store migrate')"
                    % path
                )
            if gate is not None:
                try:
                    gate(mapping)
                except BaseException:
                    mapping.close()
                    raise
            _PROCESS_CACHE[cache_key] = mapping
    return mapping


def cached_compiled(path):
    """The process-shared compiled automaton for a v2 snapshot file.

    Convenience over :func:`cached_mapping` — same cache, same
    errors — returning the zero-copy compiled automaton directly.
    """
    return cached_mapping(path).compiled()


def clear_mapping_cache() -> None:
    """Close and drop every cached mapping (tests; post-fork hygiene)."""
    with _PROCESS_LOCK:
        for mapping in _PROCESS_CACHE.values():
            mapping.close()
        _PROCESS_CACHE.clear()
