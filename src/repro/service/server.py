"""The TEA replay service: an asyncio JSON-over-TCP automaton server.

The paper's headline result is cross-system replay — traces recorded in
one world (StarDBT) driving execution observation in another (Pin).
This server is the "many futures" version of that hand-off: it preloads
binary automaton snapshots from an :class:`~repro.store.AutomatonStore`
once, then serves replay, coverage, automaton-walk and introspection
requests to any number of concurrent clients, none of which ever
re-runs Algorithm 1.

Concurrency model
-----------------
- one asyncio task per connection reads frames and spawns one task per
  request, so a single connection can pipeline requests (responses are
  matched by ``id``, written under a per-connection lock);
- CPU-bound replays run in a configurable thread worker pool via
  ``run_in_executor``; the preloaded program image, trace set and TEA
  are shared read-only across workers (each replay builds its own
  directory, local caches and stats);
- a replay answer is a pure function of (snapshot, config, engine,
  batch), so each distinct answer is computed once: the first request
  starts one compute task, identical requests — concurrent or later —
  await it through ``asyncio.shield`` (a waiter's timeout never cancels
  the shared compute), failures are never cached, and completed
  answers stay in a bounded LRU (:data:`REPLAY_MEMO_LIMIT`);
- each snapshot's program runs once: its
  :class:`~repro.cpu.log.ExecutionLog` is recorded on the first replay
  under a per-entry lock and shared by every later replay of that
  snapshot, under any config or engine;
- every request is bounded by ``request_timeout`` and every frame by
  ``max_payload`` — violations produce structured error replies
  (:mod:`repro.service.protocol` error codes), never a silent hangup;
- ``SIGTERM``/``shutdown`` drain gracefully: the listener closes, new
  requests are refused with ``shutting-down``, and every in-flight
  request completes and is answered before the process exits.

All traffic is metered through ``repro.obs`` (``service.*`` counters,
per-method latency timers) and exported via the ``stats`` RPC.
"""

import asyncio
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor

from repro import __version__
from repro.cfg.basic_block import BlockIndex
from repro.core import ReplayConfig
from repro.cpu.log import ExecutionLog
from repro.errors import ReproError, SerializationError, VerificationError
from repro.obs import Observability
from repro.pin import Pin, TeaReplayTool, run_native
from repro.service.protocol import (
    E_INTERNAL,
    E_INVALID,
    E_METHOD,
    E_PARAMS,
    E_PARSE,
    E_SHUTDOWN,
    E_SNAPSHOT,
    E_TIMEOUT,
    E_TOO_LARGE,
    MAX_PAYLOAD_DEFAULT,
    PayloadTooLarge,
    ProtocolError,
    encode_frame,
    error_reply,
    read_frame,
    result_reply,
)
from repro.store.binary import (
    compile_tea_binary,
    load_tea_binary,
    peek_tea_binary,
)
from repro.workloads import load_benchmark

#: Replay configuration names accepted by the ``replay``/``coverage``
#: RPCs (the Table 4 axes, same names as the tools CLI).
REPLAY_CONFIGS = {
    "global_local": ReplayConfig.global_local,
    "global_no_local": ReplayConfig.global_no_local,
    "no_global_local": ReplayConfig.no_global_local,
    "no_global_no_local": ReplayConfig.no_global_no_local,
}

#: Engines the ``replay``/``coverage`` RPCs accept.  The compiled
#: flat-table engine is the default: every preloaded snapshot carries a
#: ready :class:`~repro.core.compiled.CompiledTea` (lowered straight
#: from the snapshot bytes), the accounting is identical, and it is the
#: faster dispatch loop.  ``engine="object"`` keeps the TeaReplayer
#: object walk for differential checks; ``engine="jit"`` drives
#: per-automaton generated code (specialized lazily per config on first
#: request, shared read-only across workers thereafter) — identical
#: accounting again, faster still.  The default stays ``compiled``
#: until the JIT bench gate has soaked.
REPLAY_ENGINES = ("object", "compiled", "jit")
DEFAULT_ENGINE = "compiled"

#: Replay answers the memo keeps, completed or in flight.  ``batch``
#: comes from the client, so the key space is unbounded without it; the
#: least recently used completed answer goes first, an in-flight one
#: never, and an evicted key simply recomputes the same answer.
REPLAY_MEMO_LIMIT = 1024


class ServiceSetupError(ReproError):
    """The service could not preload its snapshots."""


class _BadParams(ReproError):
    """Internal: invalid params for an RPC (mapped to ``bad-params``)."""


class _UnknownSnapshot(ReproError):
    """Internal: no such snapshot (mapped to ``unknown-snapshot``)."""


class _InvalidSnapshot(ReproError):
    """Internal: snapshot failed verification (``invalid-automaton``)."""


class ServiceConfig:
    """Operational knobs for one :class:`TeaService` instance."""

    __slots__ = ("host", "port", "workers", "request_timeout",
                 "max_payload", "drain_timeout", "debug", "verify")

    def __init__(self, host="127.0.0.1", port=0, workers=4,
                 request_timeout=60.0, max_payload=MAX_PAYLOAD_DEFAULT,
                 drain_timeout=30.0, debug=False, verify=True):
        self.host = host
        self.port = port
        self.workers = max(1, int(workers))
        self.request_timeout = request_timeout
        self.max_payload = max_payload
        self.drain_timeout = drain_timeout
        #: Enables the ``sleep`` RPC (used by the timeout/drain tests).
        self.debug = debug
        #: Opt-out gate: statically verify every snapshot at preload;
        #: failing snapshots are quarantined (``invalid-automaton``
        #: RPC errors) instead of crashing startup.
        self.verify = bool(verify)


class SnapshotEntry:
    """One preloaded snapshot: program image + trace set + automaton.

    v2 snapshots additionally carry the read-only
    :class:`~repro.store.mapping.SnapshotMapping` their compiled tables
    view into (``mapping``); hot-reload retires an entry by flagging
    ``retired`` and closes the mapping once ``inflight`` — the number
    of replay computes and diffs currently using the entry, maintained
    on the event loop — drains to zero.
    """

    __slots__ = ("key", "meta", "label", "program", "block_index",
                 "trace_set", "tea", "compiled", "profile", "n_bytes",
                 "mapping", "inflight", "retired", "native_cycles",
                 "_log", "_log_lock", "_jit_codes", "_jit_lock")

    def __init__(self, key, meta, program, trace_set, tea, profile, n_bytes,
                 compiled=None, mapping=None):
        self.key = key
        self.meta = meta or {}
        self.label = self.meta.get("label") or self.meta.get("benchmark") or key
        self.program = program
        self.block_index = BlockIndex(program)
        self.trace_set = trace_set
        self.tea = tea
        self.compiled = compiled
        self.profile = profile
        self.n_bytes = n_bytes
        self.mapping = mapping
        self.inflight = 0
        self.retired = False
        #: Native-baseline cycles, set with the log by
        #: :meth:`execution_log`.
        self.native_cycles = None
        self._log = None
        self._log_lock = threading.Lock()
        # JIT codes are specialized per replay config, lazily, on the
        # worker threads — hence the lock (JitCode itself is immutable
        # and shared read-only once built).
        self._jit_codes = {}
        self._jit_lock = threading.Lock()

    def jit_for(self, config):
        """The (cached) specialized :class:`~repro.core.jit.JitCode`
        for this snapshot under ``config``."""
        from repro.core.jit import JitCode, jit_config_token

        token = jit_config_token(config)
        with self._jit_lock:
            code = self._jit_codes.get(token)
        if code is None:
            code = JitCode.from_compiled(self.compiled, config=config)
            with self._jit_lock:
                code = self._jit_codes.setdefault(token, code)
        return code

    def execution_log(self):
        """``(log, recorded)``: the program's shared
        :class:`~repro.cpu.log.ExecutionLog`, and whether this call
        recorded it.

        The first call runs the interpreter and derives
        :attr:`native_cycles` from the same log; the lock makes
        concurrent first replays share that one run.  Every replay of
        the snapshot, under any config or engine, consumes the log
        read-only.
        """
        with self._log_lock:
            if self._log is not None:
                return self._log, False
            log = ExecutionLog.record(self.program)
            self.native_cycles = run_native(self.program, log=log).cycles
            self._log = log
            return log, True

    def close(self):
        """Release a drained entry: its execution log and mapping."""
        self._log = None
        if self.mapping is not None:
            self.mapping.close()

    def describe(self):
        return {
            "key": self.key,
            "label": self.label,
            "benchmark": self.meta.get("benchmark"),
            "scale": self.meta.get("scale"),
            "kind": self.trace_set.kind,
            "traces": len(self.trace_set),
            "tbbs": self.trace_set.n_tbbs,
            "edges": self.trace_set.n_edges,
            "states": self.tea.n_states,
            "transitions": self.tea.n_transitions,
            "heads": self.tea.n_traces,
            "profile": self.profile is not None,
            "bytes": self.n_bytes,
            "meta": self.meta,
        }


def load_entry(key, data, verify=True, mapping=None):
    """Preload one snapshot's bytes into a :class:`SnapshotEntry`.

    The snapshot's meta must name the benchmark it was recorded from
    (``repro.service build`` records it) so the program image can be
    regenerated — the service equivalent of the paper's requirement
    that both systems agree on the program's address space.

    With ``verify=True`` the static snapshot rules run over the bytes
    first; damage raises :class:`~repro.errors.VerificationError` with
    the offending rule ids, which :meth:`TeaService.preload` turns
    into a quarantined entry rather than a startup crash.

    ``mapping`` (a :class:`~repro.store.mapping.SnapshotMapping` whose
    bytes ``data`` must be) makes the entry zero-copy: the compiled
    automaton's tables become views into the shared read-only ``mmap``
    instead of private decoded arrays, so N service workers mapping the
    same snapshot share one page-cache copy.
    """
    if verify:
        from repro.verify import verify_snapshot_bytes

        verify_snapshot_bytes(data, source=key, deep=False).raise_on_error()
    info = peek_tea_binary(data)
    meta = info["meta"] or {}
    benchmark = meta.get("benchmark")
    if not benchmark:
        raise ServiceSetupError(
            "snapshot %s has no 'benchmark' in its meta; rebuild it with "
            "'python -m repro.service build'" % key[:12]
        )
    scale = float(meta.get("scale", 1.0))
    program = load_benchmark(benchmark, scale=scale).program
    trace_set, tea, profile = load_tea_binary(data, BlockIndex(program))
    # Lower the snapshot's automaton tables into the compiled flat-table
    # layout once, up front; the successor dispatch dicts are built
    # eagerly so the worker pool shares them read-only from the start.
    if mapping is not None:
        compiled = mapping.compiled()
    else:
        compiled = compile_tea_binary(data, verify=False)
    compiled.successor_maps()
    return SnapshotEntry(key, meta, program, trace_set, tea, profile,
                         len(data), compiled=compiled, mapping=mapping)


class TeaService:
    """The replay server.  ``await start()``, then ``serve_forever()``.

    Parameters
    ----------
    store:
        The :class:`~repro.store.AutomatonStore` to preload (every
        snapshot in it is served).
    config:
        :class:`ServiceConfig`; defaults are fine for tests.
    obs:
        Optional shared :class:`~repro.obs.Observability`.
    """

    def __init__(self, store, config=None, obs=None):
        self.store = store
        self.config = config or ServiceConfig()
        self.obs = obs if obs is not None else Observability()
        self.entries = {}          # key -> SnapshotEntry
        self.invalid = {}          # key -> {"error": ..., "rules": [...]}
        self._aliases = {}         # label/benchmark -> key
        self._server = None
        self._pool = None
        self._inflight = set()
        self._draining = False
        self._drain_hooks = []     # callables run as the drain begins
        self._stopped = None       # asyncio.Event, created in start()
        self._started_at = None
        # (key, config, engine, batch) -> compute task, in LRU order;
        # event-loop-confined, so it needs no lock.
        self._replay_memo = OrderedDict()
        metrics = self.obs.metrics
        self._requests = metrics.counter("service.requests")
        self._ok = metrics.counter("service.ok")
        self._errors = metrics.counter("service.errors")
        self._bytes_in = metrics.counter("service.bytes_in")
        self._bytes_out = metrics.counter("service.bytes_out")
        self._connections = metrics.counter("service.connections")
        self._verify_ok = metrics.counter("service.verify_ok")
        self._verify_failed = metrics.counter("service.verify_failed")
        self._replay_computes = metrics.counter("service.replay.computes")
        self._replay_memo_hits = metrics.counter("service.replay.memo_hits")
        self._replay_coalesced = metrics.counter("service.replay.coalesced")
        self._executions = metrics.counter("service.executions")
        self._active = metrics.gauge("service.connections_active")
        self._active.set(0)
        self._methods = {
            "ping": self._rpc_ping,
            "snapshots": self._rpc_snapshots,
            "snapshot-info": self._rpc_snapshot_info,
            "replay": self._rpc_replay,
            "coverage": self._rpc_coverage,
            "diff": self._rpc_diff,
            "step-batch": self._rpc_step_batch,
            "stats": self._rpc_stats,
            "reload": self._rpc_reload,
            "shutdown": self._rpc_shutdown,
        }
        if self.config.debug:
            self._methods["sleep"] = self._rpc_sleep

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def preload(self):
        """Load every snapshot in the store (idempotent, synchronous).

        Snapshots that fail static verification (or cannot be decoded
        at all) are *quarantined* in :attr:`invalid` — the service
        still starts, and requests naming them get a structured
        ``invalid-automaton`` error instead of a crash.  A snapshot
        without benchmark meta remains a hard setup error: that is a
        deployment mistake, not data damage.
        """
        with self.obs.metrics.timer("service.preload"):
            for key in self.store.keys():
                if key in self.entries or key in self.invalid:
                    continue
                try:
                    entry = self._load_key(key)
                except VerificationError as error:
                    self._verify_failed.inc()
                    self.invalid[key] = {
                        "error": str(error),
                        "rules": error.rule_ids,
                    }
                    continue
                except SerializationError as error:
                    self._verify_failed.inc()
                    self.invalid[key] = {"error": str(error), "rules": []}
                    continue
                self._verify_ok.inc()
                self.entries[key] = entry
                self._aliases.setdefault(entry.label, key)
                benchmark = entry.meta.get("benchmark")
                if benchmark:
                    self._aliases.setdefault(benchmark, key)
        self._refresh_gauges()

    def _load_key(self, key):
        """Load one snapshot — zero-copy off a shared ``mmap`` for v2
        files, a private decoded copy for v1."""
        from repro.store.mapping import open_snapshot_mapping

        mapping = open_snapshot_mapping(self.store.path_for(key))
        try:
            data = (mapping.data if mapping is not None
                    else self.store.get_bytes(key))
            return load_entry(key, data, verify=self.config.verify,
                              mapping=mapping)
        except BaseException:
            if mapping is not None:
                mapping.close()
            raise

    def _refresh_gauges(self):
        self.obs.metrics.set_gauge("service.snapshots", len(self.entries))
        self.obs.metrics.set_gauge("service.snapshots_invalid",
                                   len(self.invalid))

    async def start(self):
        """Preload snapshots, bind the listener, spin up the pool."""
        if not len(self.store):
            raise ServiceSetupError(
                "store %s holds no snapshots; build one with "
                "'python -m repro.service build'" % self.store.root
            )
        # Loop-bound primitives are created here, inside the running
        # loop, so the service object itself can be built anywhere.
        # The pool exists before the preload so the store walk (file
        # I/O, mmap, verify-on-load) runs off the event loop — the
        # loop stays responsive while a large fleet loads (TEA080).
        self._stopped = asyncio.Event()
        self._pool = ThreadPoolExecutor(
            max_workers=self.config.workers, thread_name_prefix="tea-replay"
        )
        loop = asyncio.get_event_loop()
        await loop.run_in_executor(self._pool, self.preload)
        if not self.entries:
            raise ServiceSetupError(
                "all %d snapshot(s) in store %s failed verification"
                % (len(self.invalid), self.store.root)
            )
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.config.host,
            port=self.config.port,
        )
        self._started_at = time.monotonic()
        return self

    @property
    def address(self):
        """``(host, port)`` actually bound (resolves ``port=0``)."""
        sockets = self._server.sockets
        return sockets[0].getsockname()[:2]

    async def serve_forever(self):
        """Block until :meth:`stop` completes."""
        await self._stopped.wait()

    def initiate_shutdown(self):
        """Begin a graceful drain from the event loop (signal-safe)."""
        if not self._draining:
            asyncio.ensure_future(self.stop())

    def add_drain_hook(self, hook):
        """Register a callable to run when a drain begins.

        Hooks run synchronously, in registration order, right after the
        listener closes and before in-flight requests are awaited — a
        cluster worker uses one to deregister from its router so no new
        forwards race the drain.  Hook exceptions are swallowed: a
        failing deregistration must not block the drain.
        """
        self._drain_hooks.append(hook)

    async def stop(self):
        """Graceful drain: refuse new work, finish in-flight, close."""
        if self._server is None:
            return
        if self._draining:
            await self._stopped.wait()
            return
        self._draining = True
        self._server.close()
        await self._server.wait_closed()
        for hook in self._drain_hooks:
            try:
                hook()
            except Exception:  # noqa: BLE001 — never block the drain
                pass
        pending = [task for task in self._inflight if not task.done()]
        if pending:
            done, still_pending = await asyncio.wait(
                pending, timeout=self.config.drain_timeout
            )
            for task in still_pending:
                task.cancel()
        self._pool.shutdown(wait=False)
        for entry in self.entries.values():
            entry.close()
        self._stopped.set()

    # ------------------------------------------------------------------
    # hot-reload plumbing (all entry/memo mutation on the event loop)
    # ------------------------------------------------------------------

    def _retire(self, entry):
        """Take ``entry`` out of service; release it once it drains.

        The entry is already unreachable (popped from :attr:`entries`),
        so no new request can pick it up; requests that resolved it
        before the swap finish against the old tables and trigger
        :meth:`_finalize` from their own ``finally`` when the last one
        completes.
        """
        entry.retired = True
        if entry.inflight == 0:
            self._finalize(entry)

    def _finalize(self, entry):
        """Drop a drained retired entry's memoized answers, log and
        mapping.  Keys are content-addressed, so a reloaded key
        recomputes the same answers."""
        for memo_key in [key for key in self._replay_memo
                         if key[0] == entry.key]:
            del self._replay_memo[memo_key]
        entry.close()

    def _release(self, entry):
        """Count one in-flight request done (event-loop-confined)."""
        entry.inflight -= 1
        if entry.retired and entry.inflight == 0:
            self._finalize(entry)

    def _load_new_entries(self, known):
        """Worker-pool body of ``reload``: load unseen store keys.

        Also returns the full set of keys currently present in the
        store — the retire scan needs it, and computing it here keeps
        the store's directory walk off the event loop (TEA080).
        """
        added = []
        invalid = []
        present = set(self.store.keys())
        for key in sorted(present):
            if key in known:
                continue
            try:
                entry = self._load_key(key)
            except VerificationError as error:
                invalid.append((key, {"error": str(error),
                                      "rules": error.rule_ids}))
            except SerializationError as error:
                invalid.append((key, {"error": str(error), "rules": []}))
            else:
                added.append((key, entry))
        return added, invalid, present

    async def _rpc_reload(self, params):
        """Hot-swap: pick up store changes without dropping a request.

        New snapshots are loaded off the event loop (in the worker
        pool), then applied atomically on it: entries registered,
        label/benchmark aliases repointed latest-wins, and every entry
        that a new snapshot's ``meta["supersedes"]`` names — or whose
        backing file is gone from the store (e.g. after ``store gc``) —
        is retired.  Retired entries stay alive for their in-flight
        replays and are finalized (memo purge + mapping close) when the
        last one drains, so concurrent clients see zero dropped or
        wrong answers across the swap.
        """
        loop = asyncio.get_event_loop()
        known = set(self.entries) | set(self.invalid)
        added, invalid, present = await loop.run_in_executor(
            self._pool, self._load_new_entries, known
        )
        for _key, _entry in added:
            self._verify_ok.inc()
        for key, info in invalid:
            self._verify_failed.inc()
            self.invalid[key] = info
        superseded = set()
        for key, entry in added:
            self.entries[key] = entry
            self._aliases[entry.label] = key
            benchmark = entry.meta.get("benchmark")
            if benchmark:
                self._aliases[benchmark] = key
            names = entry.meta.get("supersedes")
            if isinstance(names, str):
                names = (names,)
            superseded.update(name for name in names or () if name != key)
        retired = sorted(
            key for key in self.entries
            if key in superseded or key not in present
        )
        for key in retired:
            self._retire(self.entries.pop(key))
        for key in list(self.invalid):
            if key not in present:
                del self.invalid[key]
        self._aliases = {
            alias: key for alias, key in self._aliases.items()
            if key in self.entries
        }
        self._refresh_gauges()
        return {
            "loaded": sorted(key for key, _entry in added),
            "retired": retired,
            "invalid": sorted(key for key, _info in invalid),
            "snapshots": len(self.entries),
        }

    # ------------------------------------------------------------------
    # connection / request plumbing
    # ------------------------------------------------------------------

    async def _handle_connection(self, reader, writer):
        self._connections.inc()
        self._active.value = (self._active.value or 0) + 1
        write_lock = asyncio.Lock()
        tasks = set()
        try:
            while True:
                try:
                    request = await read_frame(
                        reader, self.config.max_payload,
                        counter=self._bytes_in,
                    )
                except PayloadTooLarge as error:
                    await self._send(
                        writer, write_lock,
                        error_reply(None, E_TOO_LARGE, error),
                    )
                    self._errors.inc()
                    break
                except ProtocolError as error:
                    await self._send(
                        writer, write_lock,
                        error_reply(None, E_PARSE, error),
                    )
                    self._errors.inc()
                    break
                if request is None:
                    break
                task = asyncio.ensure_future(
                    self._serve_request(request, writer, write_lock)
                )
                tasks.add(task)
                self._inflight.add(task)
                task.add_done_callback(self._inflight.discard)
                task.add_done_callback(tasks.discard)
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            # Answer everything already accepted before closing — this
            # is what "no pending-request loss" means on drain.
            if tasks:
                await asyncio.gather(*list(tasks), return_exceptions=True)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._active.value = (self._active.value or 0) - 1

    async def _send(self, writer, lock, reply):
        data = encode_frame(reply)
        async with lock:
            writer.write(data)
            await writer.drain()
        self._bytes_out.inc(len(data))

    async def _serve_request(self, request, writer, write_lock):
        request_id = request.get("id")
        method = request.get("method")
        self._requests.inc()
        started = time.perf_counter()
        if self._draining:
            reply = error_reply(
                request_id, E_SHUTDOWN, "server is draining"
            )
        else:
            handler = self._methods.get(method)
            if handler is None:
                reply = error_reply(
                    request_id, E_METHOD, "unknown method %r" % method
                )
            else:
                reply = await self._invoke(handler, request, request_id)
        if reply.get("ok"):
            self._ok.inc()
        else:
            self._errors.inc()
        try:
            await self._send(writer, write_lock, reply)
        except (ConnectionError, OSError):
            pass
        if method in self._methods:
            # Manual latency accumulation: PhaseTimer's start/stop guard
            # rejects overlap, and requests of one method do overlap.
            timer = self.obs.metrics.timer("service.latency.%s" % method)
            timer.elapsed += time.perf_counter() - started
            timer.count += 1
            self.obs.metrics.counter("service.method.%s" % method).inc()

    async def _invoke(self, handler, request, request_id):
        params = request.get("params") or {}
        if not isinstance(params, dict):
            return error_reply(request_id, E_PARAMS,
                               "params must be an object")
        try:
            result = await asyncio.wait_for(
                handler(params), timeout=self.config.request_timeout
            )
            return result_reply(request_id, result)
        except asyncio.TimeoutError:
            return error_reply(
                request_id, E_TIMEOUT,
                "request exceeded %.1fs" % self.config.request_timeout,
            )
        except _BadParams as error:
            return error_reply(request_id, E_PARAMS, error)
        except _UnknownSnapshot as error:
            return error_reply(request_id, E_SNAPSHOT, error)
        except _InvalidSnapshot as error:
            return error_reply(request_id, E_INVALID, error)
        except asyncio.CancelledError:
            raise
        except Exception as error:  # noqa: BLE001 — structured reply
            return error_reply(
                request_id, E_INTERNAL,
                "%s: %s" % (type(error).__name__, error),
            )

    # ------------------------------------------------------------------
    # RPC methods
    # ------------------------------------------------------------------

    def _resolve(self, params):
        name = params.get("snapshot")
        if name is None:
            if len(self.entries) == 1:
                return next(iter(self.entries.values()))
            raise _BadParams(
                "'snapshot' is required when multiple snapshots are loaded"
            )
        key = self._aliases.get(name, name)
        entry = self.entries.get(key)
        if entry is None:
            quarantined = self.invalid.get(key)
            if quarantined is not None:
                raise _InvalidSnapshot(
                    "snapshot %r failed static verification (%s): %s"
                    % (name, ", ".join(quarantined["rules"]) or "decode",
                       quarantined["error"])
                )
            raise _UnknownSnapshot("no snapshot %r is loaded" % name)
        return entry

    async def _rpc_ping(self, params):
        return {"pong": True, "role": "worker", "version": __version__,
                "snapshots": len(self.entries)}

    async def _rpc_snapshots(self, params):
        result = {
            "snapshots": [
                self.entries[key].describe()
                for key in sorted(self.entries)
            ]
        }
        if self.invalid:
            result["invalid"] = [
                {"key": key, **self.invalid[key]}
                for key in sorted(self.invalid)
            ]
        return result

    async def _rpc_snapshot_info(self, params):
        return self._resolve(params).describe()

    def _replay_config(self, params):
        name = params.get("config", "global_local")
        factory = REPLAY_CONFIGS.get(name)
        if factory is None:
            raise _BadParams(
                "unknown replay config %r (expected one of %s)"
                % (name, ", ".join(sorted(REPLAY_CONFIGS)))
            )
        return name, factory

    def _replay_engine(self, params):
        engine = params.get("engine", DEFAULT_ENGINE)
        if engine not in REPLAY_ENGINES:
            raise _BadParams(
                "unknown replay engine %r (expected one of %s)"
                % (engine, ", ".join(REPLAY_ENGINES))
            )
        return engine

    async def _rpc_replay(self, params):
        """The replay answer for ``params``, computed once per distinct
        (snapshot, config, engine, batch).

        A miss starts one compute task and memoizes it; every identical
        request, concurrent or later, awaits that task through
        ``asyncio.shield``, so a waiter's ``request_timeout`` cancels
        only its own wait.  Every waiter gets the same answer object.
        """
        entry = self._resolve(params)
        name, factory = self._replay_config(params)
        engine = self._replay_engine(params)
        batch = params.get("batch")
        if batch is not None and (not isinstance(batch, int) or batch < 1):
            raise _BadParams("'batch' must be a positive integer")
        memo_key = (entry.key, name, engine, batch)
        task = self._replay_memo.get(memo_key)
        if task is None:
            self._replay_computes.inc()
            # Counted in flight from now, not from the task's first
            # step: a reload in between must not close the entry.
            entry.inflight += 1
            task = asyncio.ensure_future(self._compute_replay(
                memo_key, entry, name, factory(), engine, batch))
            task.add_done_callback(lambda _task: self._release(entry))
            self._replay_memo[memo_key] = task
            # The drain waits for it even after every waiter timed out.
            self._inflight.add(task)
            task.add_done_callback(self._inflight.discard)
        elif task.done():
            self._replay_memo_hits.inc()
            self._replay_memo.move_to_end(memo_key)
        else:
            self._replay_coalesced.inc()
        return await asyncio.shield(task)

    async def _compute_replay(self, memo_key, entry, name, config, engine,
                              batch):
        """Body of one memoized compute task.

        It settles its own memo slot in the loop step that finishes the
        task, so no request ever finds a finished failure there: a
        failure leaves the memo (it is never cached), a success moves to
        the LRU's young end.  A snapshot retired meanwhile purges the
        slot once the task is done.
        """
        task = asyncio.current_task()
        loop = asyncio.get_event_loop()
        try:
            result, recorded = await loop.run_in_executor(
                self._pool, self._replay_blocking, entry, config, batch,
                engine,
            )
        except BaseException:
            if self._replay_memo.get(memo_key) is task:
                del self._replay_memo[memo_key]
            raise
        if recorded:
            self._executions.inc()
        result["snapshot"] = entry.key
        result["config"] = name
        result["engine"] = engine
        if self._replay_memo.get(memo_key) is task:
            self._replay_memo.move_to_end(memo_key)
            self._evict_replay_answers()
        return result

    def _evict_replay_answers(self):
        """Drop least recently used completed answers over the limit."""
        memo = self._replay_memo
        for memo_key, task in list(memo.items()):
            if len(memo) <= REPLAY_MEMO_LIMIT:
                break
            if task.done():
                del memo[memo_key]

    async def _rpc_diff(self, params):
        """Structural diff between two loaded snapshots.

        ``snapshot`` (or its alias ``a``) names the left side — the
        usual single-snapshot default applies — and ``b`` the right
        side.  The router's consistent-hash affinity keys on
        ``snapshot``, so diffs pass through the cluster untouched and
        land on a worker holding the left snapshot.  With
        ``replay: true`` both sides are also replayed (honouring
        ``config`` / ``engine``) and the numeric deltas attached.
        """
        from repro.compare import diff_automata, replay_delta

        if "snapshot" not in params and "a" in params:
            params = dict(params, snapshot=params["a"])
        entry_a = self._resolve(params)
        name_b = params.get("b")
        if name_b is None:
            raise _BadParams("'b' (the snapshot to diff against) is required")
        entry_b = self._resolve({"snapshot": name_b})
        loop = asyncio.get_event_loop()
        entry_a.inflight += 1
        entry_b.inflight += 1
        try:
            diff = await loop.run_in_executor(
                self._pool, lambda: diff_automata(
                    entry_a.tea, entry_b.tea,
                    label_a=entry_a.label or entry_a.key,
                    label_b=entry_b.label or entry_b.key,
                    obs=self.obs,
                ),
            )
        finally:
            self._release(entry_a)
            self._release(entry_b)
        result = diff.to_json()
        result["snapshot_a"] = entry_a.key
        result["snapshot_b"] = entry_b.key
        if params.get("replay"):
            base = {
                key: params[key] for key in ("config", "engine", "batch")
                if key in params
            }
            report_a = await self._rpc_replay(
                dict(base, snapshot=entry_a.key)
            )
            report_b = await self._rpc_replay(
                dict(base, snapshot=entry_b.key)
            )
            result["replay"] = {
                "a": report_a,
                "b": report_b,
                "delta": replay_delta(report_a, report_b),
            }
        return result

    async def _rpc_coverage(self, params):
        """The coverage subset of the replay answer for ``params``
        (shares the replay's single-flight memo)."""
        answer = await self._rpc_replay(params)
        return {
            "snapshot": answer["snapshot"],
            "config": answer["config"],
            "engine": answer["engine"],
            "coverage_pin": answer["coverage_pin"],
            "coverage_dbt": answer["coverage_dbt"],
            "covered_pin": answer["stats"]["covered_pin"],
            "total_pin": answer["stats"]["total_pin"],
        }

    def _replay_blocking(self, entry, config, batch, engine):
        """Worker-pool body: one replay over the snapshot's shared log.

        Returns ``(answer, recorded)``; ``recorded`` is true when this
        replay ran the interpreter to record the log.
        """
        jit = entry.jit_for(config) if engine == "jit" else None
        tool = TeaReplayTool(
            trace_set=entry.trace_set, config=config,
            batch_size=batch, tea=entry.tea, engine=engine,
            compiled=(entry.compiled if engine in ("compiled", "jit")
                      else None),
            jit=jit,
        )
        log, recorded = entry.execution_log()
        result = Pin(entry.program, tool=tool).run(log)
        native = entry.native_cycles
        return {
            "coverage_pin": tool.stats.coverage(pin_counting=True),
            "coverage_dbt": tool.stats.coverage(pin_counting=False),
            "stats": tool.stats.as_dict(),
            "cycles": result.cycles,
            "megacycles": result.megacycles,
            "native_cycles": native,
            "slowdown": (result.cycles / native) if native else 0.0,
            "states": entry.tea.n_states,
            "transitions": entry.tea.n_transitions,
        }, recorded

    async def _rpc_step_batch(self, params):
        entry = self._resolve(params)
        labels = params.get("labels")
        if not isinstance(labels, list) or not labels:
            raise _BadParams("'labels' must be a non-empty list of PCs")
        try:
            pcs = [
                int(label, 16) if isinstance(label, str) else int(label)
                for label in labels
            ]
        except (TypeError, ValueError):
            raise _BadParams(
                "labels must be integers or hex strings"
            ) from None
        tea = entry.tea
        start = params.get("start", 0)
        if not isinstance(start, int) or not 0 <= start < tea.n_states:
            raise _BadParams("'start' must be a state id in [0, %d)"
                             % tea.n_states)
        return_states = bool(params.get("return_states", False))
        sids = []
        in_trace = 0
        enters = 0
        exits = 0
        current = tea.states[start]
        next_state = tea.next_state
        for pc in pcs:
            following = next_state(current, pc)
            if return_states:
                sids.append(following.sid)
            if following.tbb is not None:
                in_trace += 1
            if current.trace_id != following.trace_id:
                if following.tbb is not None:
                    enters += 1
                if current.tbb is not None:
                    exits += 1
            current = following
        result = {
            "snapshot": entry.key,
            "steps": len(pcs),
            "final": current.sid,
            "final_name": current.name,
            "in_trace": in_trace,
            "nte": len(pcs) - in_trace,
            "trace_enters": enters,
            "trace_exits": exits,
        }
        if return_states:
            result["states"] = sids
        return result

    async def _rpc_stats(self, params):
        snapshot = self.obs.snapshot()
        methods = {
            name.split("service.method.", 1)[1]: value
            for name, value in snapshot["metrics"]["counters"].items()
            if name.startswith("service.method.")
        }
        return {
            "uptime_seconds": (
                time.monotonic() - self._started_at
                if self._started_at is not None else 0.0
            ),
            "snapshots": len(self.entries),
            "draining": self._draining,
            "methods": methods,
            "metrics": snapshot["metrics"],
        }

    async def _rpc_shutdown(self, params):
        self.initiate_shutdown()
        return {"stopping": True}

    async def _rpc_sleep(self, params):
        seconds = float(params.get("seconds", 0.0))
        await asyncio.sleep(seconds)
        return {"slept": seconds}
