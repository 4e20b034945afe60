"""The concurrent replay service: protocol, RPCs, drain, stats.

These tests assert the ISSUE's service acceptance bar end to end over
real TCP (via :class:`ServiceThread`): >= 32 concurrent replay-family
requests all succeed with results identical to an in-process replay,
the latency metrics populate, and a graceful shutdown answers every
in-flight request before the listener dies.
"""

import asyncio
import socket
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core import build_tea
from repro.cpu.log import ExecutionLog
from repro.dbt import StarDBT
from repro.pin import Pin, TeaReplayTool, run_native
from repro.service import server as server_module
from repro.service.client import ServiceClient
from repro.service.protocol import (
    E_INTERNAL,
    E_METHOD,
    E_PARAMS,
    E_PARSE,
    E_SHUTDOWN,
    E_SNAPSHOT,
    E_TIMEOUT,
    E_TOO_LARGE,
    HEADER,
    ProtocolError,
    ServiceError,
    decode_payload,
    encode_frame,
    error_reply,
    read_frame_blocking,
    result_reply,
    write_frame_blocking,
)
from repro.service.server import (
    REPLAY_CONFIGS,
    ServiceSetupError,
    TeaService,
)
from repro.service.testing import ServiceThread, ephemeral_config
from repro.store import AutomatonStore
from repro.traces.recorder import RecorderLimits
from repro.workloads import load_benchmark

BENCHMARK = "164.gzip"
SCALE = 0.3


# ---------------------------------------------------------------------
# fixtures: one recorded benchmark, snapshotted into a store
# ---------------------------------------------------------------------

class _World:
    """The benchmark, its traces/TEA, and a store holding the snapshot."""

    def __init__(self, root):
        self.program = load_benchmark(BENCHMARK, scale=SCALE).program
        recorded = StarDBT(
            self.program, limits=RecorderLimits(hot_threshold=10)
        ).run()
        self.trace_set = recorded.trace_set
        self.tea = build_tea(self.trace_set)
        self.store = AutomatonStore(root)
        self.key = self.store.put(
            self.trace_set, tea=self.tea,
            meta={"benchmark": BENCHMARK, "scale": SCALE, "label": "world"},
        )


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    return _World(tmp_path_factory.mktemp("service") / "store")


@pytest.fixture(scope="module")
def shared_service(world):
    with ServiceThread(world.store) as service:
        yield service


# ---------------------------------------------------------------------
# protocol unit tests (no server)
# ---------------------------------------------------------------------

def test_frame_round_trip_over_socketpair():
    left, right = socket.socketpair()
    try:
        message = {"id": 7, "method": "ping", "params": {}}
        write_frame_blocking(left, message)
        assert read_frame_blocking(right) == message
    finally:
        left.close()
        right.close()


def test_frame_encoding_is_header_plus_json():
    frame = encode_frame({"a": 1})
    (length,) = HEADER.unpack(frame[:HEADER.size])
    assert length == len(frame) - HEADER.size
    assert decode_payload(frame[HEADER.size:]) == {"a": 1}


def test_decode_payload_rejects_non_objects():
    with pytest.raises(ProtocolError):
        decode_payload(b"[1, 2]")
    with pytest.raises(ProtocolError):
        decode_payload(b"{broken")


def test_reply_shapes():
    ok = result_reply(3, {"x": 1})
    assert ok == {"id": 3, "ok": True, "result": {"x": 1}}
    bad = error_reply(4, E_PARAMS, "nope")
    assert bad["ok"] is False
    assert bad["error"] == {"code": E_PARAMS, "message": "nope"}


def test_blocking_read_eof_and_truncation():
    left, right = socket.socketpair()
    try:
        left.close()
        assert read_frame_blocking(right) is None  # clean EOF
    finally:
        right.close()
    left, right = socket.socketpair()
    try:
        left.sendall(HEADER.pack(100) + b"short")
        left.close()
        with pytest.raises(ProtocolError):
            read_frame_blocking(right)
    finally:
        right.close()


# ---------------------------------------------------------------------
# basic RPCs over real TCP
# ---------------------------------------------------------------------

def test_ping_and_snapshots(shared_service, world):
    with shared_service.client() as client:
        pong = client.ping()
        assert pong["pong"] is True and pong["snapshots"] == 1
        listing = client.snapshots()
        assert [snap["key"] for snap in listing] == [world.key]
        info = client.snapshot_info("world")       # by label alias
        assert info["key"] == world.key
        assert info["states"] == world.tea.n_states
        assert info["benchmark"] == BENCHMARK


def test_replay_matches_in_process_replay(shared_service, world):
    # The service replays via the compiled engine by default, over flat
    # tables built straight from the snapshot bytes; drive the same
    # compiled automaton in-process so cycles match bit-for-bit.
    compiled = world.store.get_compiled(world.key)
    direct = TeaReplayTool(trace_set=world.trace_set, tea=world.tea,
                           engine="compiled", compiled=compiled)
    direct_result = Pin(world.program, tool=direct).run()

    with shared_service.client(timeout=120.0) as client:
        served = client.replay(snapshot=world.key)
    assert served["engine"] == "compiled"
    assert served["coverage_pin"] == direct.coverage
    assert served["stats"] == direct.stats.as_dict()
    assert served["cycles"] == direct_result.cycles
    assert served["states"] == world.tea.n_states
    assert served["slowdown"] > 1.0
    # The native baseline comes from the replay's own execution log.
    native = run_native(world.program).cycles
    assert served["native_cycles"] == native
    assert served["slowdown"] == direct_result.cycles / native

    # The object engine walks the TeaState graph instead; transition
    # accounting is identical, only float charge interleaving differs.
    with shared_service.client(timeout=120.0) as client:
        via_objects = client.replay(snapshot=world.key, engine="object")
    assert via_objects["engine"] == "object"
    assert via_objects["stats"] == served["stats"]
    assert via_objects["coverage_pin"] == served["coverage_pin"]

    with shared_service.client(timeout=120.0) as client:
        coverage = client.coverage(snapshot="world")
    assert coverage["coverage_pin"] == direct.coverage
    assert coverage["total_pin"] == direct.stats.total_pin


def test_step_batch_matches_local_simulation(shared_service, world):
    # Walk the automaton remotely along each trace's block starts and
    # check against a local tea.simulate over the same labels.
    trace = max(world.trace_set, key=lambda t: len(t.tbbs))
    labels = [tbb.block.start for tbb in trace]
    with shared_service.client() as client:
        result = client.step_batch(labels, return_states=True)
    local = list(world.tea.simulate(labels))
    assert result["states"] == [state.sid for state in local]
    assert result["final"] == local[-1].sid
    assert result["steps"] == len(labels)
    assert result["in_trace"] + result["nte"] == len(labels)
    assert result["in_trace"] == len(labels)  # a recorded trace path


def test_pipelined_requests_on_one_connection(shared_service):
    with shared_service.client() as client:
        results = client.call_many([
            ("ping", {}),
            ("snapshot-info", {}),
            ("step-batch", {"labels": [1, 2, 3]}),
            ("ping", {}),
        ])
    assert results[0]["pong"] is True
    assert results[2]["steps"] == 3
    assert results[3]["pong"] is True


def test_snapshot_param_optional_with_single_snapshot(shared_service, world):
    with shared_service.client() as client:
        assert client.snapshot_info()["key"] == world.key


# ---------------------------------------------------------------------
# structured errors
# ---------------------------------------------------------------------

def test_unknown_method(shared_service):
    with shared_service.client() as client:
        with pytest.raises(ServiceError) as excinfo:
            client.call("no-such-method")
    assert excinfo.value.code == E_METHOD


def test_unknown_snapshot(shared_service):
    with shared_service.client() as client:
        with pytest.raises(ServiceError) as excinfo:
            client.snapshot_info("missing")
    assert excinfo.value.code == E_SNAPSHOT


def test_bad_params(shared_service):
    with shared_service.client() as client:
        with pytest.raises(ServiceError) as excinfo:
            client.step_batch([])
        assert excinfo.value.code == E_PARAMS
        with pytest.raises(ServiceError) as excinfo:
            client.step_batch(["zz"])
        assert excinfo.value.code == E_PARAMS
        with pytest.raises(ServiceError) as excinfo:
            client.call("replay", config="warp-speed")
        assert excinfo.value.code == E_PARAMS
        with pytest.raises(ServiceError) as excinfo:
            client.call("replay", engine="llvm")
        assert excinfo.value.code == E_PARAMS
        with pytest.raises(ServiceError) as excinfo:
            client.call("step-batch", labels=[1], start=10 ** 6)
        assert excinfo.value.code == E_PARAMS


def test_parse_error_reply(shared_service):
    host, port = shared_service.address
    with socket.create_connection((host, port), timeout=10.0) as sock:
        sock.sendall(HEADER.pack(7) + b"notjson")
        reply = read_frame_blocking(sock)
    assert reply["ok"] is False
    assert reply["error"]["code"] == E_PARSE


def test_payload_too_large_reply(world):
    config = ephemeral_config(max_payload=256)
    with ServiceThread(world.store, config=config) as service:
        host, port = service.address
        with socket.create_connection((host, port), timeout=10.0) as sock:
            write_frame_blocking(
                sock,
                {"id": 1, "method": "step-batch",
                 "params": {"labels": list(range(500))}},
            )
            reply = read_frame_blocking(sock)
        assert reply["ok"] is False
        assert reply["error"]["code"] == E_TOO_LARGE


def test_request_timeout(world):
    config = ephemeral_config(request_timeout=0.2, debug=True)
    with ServiceThread(world.store, config=config) as service:
        with service.client() as client:
            with pytest.raises(ServiceError) as excinfo:
                client.call("sleep", seconds=5.0)
    assert excinfo.value.code == E_TIMEOUT


def test_debug_rpc_absent_by_default(shared_service):
    with shared_service.client() as client:
        with pytest.raises(ServiceError) as excinfo:
            client.call("sleep", seconds=0.0)
    assert excinfo.value.code == E_METHOD


# ---------------------------------------------------------------------
# setup failures
# ---------------------------------------------------------------------

def test_empty_store_refuses_to_start(tmp_path):
    with pytest.raises(ServiceSetupError):
        ServiceThread(AutomatonStore(tmp_path / "empty")).start()


def test_snapshot_without_benchmark_meta_refuses_to_start(
        tmp_path, nested_traces):
    store = AutomatonStore(tmp_path / "anon")
    store.put(nested_traces)  # no meta: the program can't be rebuilt
    with pytest.raises(ServiceSetupError):
        ServiceThread(store).start()


def test_service_preload_is_idempotent(world):
    service = TeaService(world.store)
    assert service.entries == {}
    service.preload()
    assert set(service.entries) == {world.key}
    entry = service.entries[world.key]
    service.preload()  # second pass must not rebuild anything
    assert service.entries[world.key] is entry


# ---------------------------------------------------------------------
# the acceptance bar: 32 concurrent clients + consistent stats
# ---------------------------------------------------------------------

def test_32_concurrent_clients_and_stats(world):
    n_clients = 32
    sent = {"replay": 0, "coverage": 0, "step-batch": 0, "snapshot-info": 0}

    def one_query(index):
        with ServiceClient(host, port, timeout=120.0) as client:
            kind = index % 4
            if kind == 0:
                result = client.replay(snapshot="world")
                return "replay", result["coverage_pin"]
            if kind == 1:
                result = client.coverage(snapshot="world")
                return "coverage", result["coverage_pin"]
            if kind == 2:
                result = client.step_batch([1, 2, 3, 4])
                assert result["steps"] == 4
                return "step-batch", None
            assert client.snapshot_info()["states"] == world.tea.n_states
            return "snapshot-info", None

    direct = TeaReplayTool(trace_set=world.trace_set, tea=world.tea)
    Pin(world.program, tool=direct).run()

    with ServiceThread(world.store) as service:
        host, port = service.address
        with ThreadPoolExecutor(max_workers=n_clients) as pool:
            outcomes = list(pool.map(one_query, range(n_clients)))
        assert len(outcomes) == n_clients
        coverages = set()
        for method, coverage in outcomes:
            sent[method] += 1
            if coverage is not None:
                coverages.add(coverage)
        # Every replay-family answer equals the in-process replay.
        assert coverages == {direct.coverage}

        with service.client() as client:
            stats = client.stats()

    assert stats["snapshots"] == 1
    assert stats["draining"] is False
    assert stats["uptime_seconds"] > 0.0
    # Per-method counters account for exactly what we sent.
    for method, count in sent.items():
        assert stats["methods"][method] == count
    counters = stats["metrics"]["counters"]
    # Every request was answered; the stats request itself is counted
    # on arrival but not yet answered when it takes the snapshot.
    answered = counters["service.ok"] + counters["service.errors"]
    assert counters["service.requests"] == answered + 1
    assert counters["service.requests"] == n_clients + 1
    assert counters["service.errors"] == 0
    assert counters["service.connections"] == n_clients + 1
    assert counters["service.bytes_in"] > 0
    assert counters["service.bytes_out"] > 0
    # Latency timers populated for every method exercised.
    timers = stats["metrics"]["timers"]
    for method, count in sent.items():
        timer = timers["service.latency.%s" % method]
        assert timer["count"] == count
        assert timer["seconds"] > 0.0
    assert timers["service.preload"]["count"] == 1


# ---------------------------------------------------------------------
# graceful shutdown: drain answers in-flight work, then refuses
# ---------------------------------------------------------------------

def test_graceful_drain_answers_in_flight_requests(world):
    config = ephemeral_config(debug=True)
    outcome = {}

    def long_request(service):
        with service.client(timeout=60.0) as client:
            outcome["sleep"] = client.call("sleep", seconds=1.0)

    with ServiceThread(world.store, config=config) as service:
        host, port = service.address
        worker = threading.Thread(target=long_request, args=(service,))
        worker.start()
        time.sleep(0.3)  # let the sleep request get in flight
        with service.client() as client:
            assert client.shutdown() == {"stopping": True}
        worker.join(timeout=30.0)
    # The in-flight request completed and was answered, not dropped.
    assert outcome["sleep"] == {"slept": 1.0}
    # After the drain the listener is gone.
    with pytest.raises(OSError):
        socket.create_connection((host, port), timeout=2.0).close()


def test_requests_during_drain_get_shutting_down(world):
    config = ephemeral_config(debug=True)
    with ServiceThread(world.store, config=config) as service:
        client = service.client(timeout=60.0)
        with client:
            # Pipeline: a slow request, then the shutdown, then another
            # request that lands while the drain is in progress.
            sleep_id = client._send_request("sleep", {"seconds": 0.8})
            stop_id = client._send_request("shutdown", {})
            time.sleep(0.3)
            late_id = client._send_request("ping", {})
            assert client._unwrap(client._receive(stop_id)) == \
                {"stopping": True}
            assert client._unwrap(client._receive(sleep_id)) == \
                {"slept": 0.8}
            late = client._receive(late_id)
            assert late["ok"] is False
            assert late["error"]["code"] == E_SHUTDOWN


# ---------------------------------------------------------------------
# single-flight memo and one execution per snapshot
# ---------------------------------------------------------------------

def _raw_reply(address, method, params):
    """Send one request (id 1) on its own connection; return the reply
    frame's payload bytes, undecoded."""
    with socket.create_connection(address, timeout=60.0) as sock:
        write_frame_blocking(
            sock, {"id": 1, "method": method, "params": params}
        )
        with sock.makefile("rb") as stream:
            (length,) = HEADER.unpack(stream.read(HEADER.size))
            return stream.read(length)


def _replay_counts(client):
    counters = client.stats()["metrics"]["counters"]
    return {
        name: counters.get("service." + name, 0)
        for name in ("replay.computes", "replay.memo_hits",
                     "replay.coalesced", "executions")
    }


def _counts(computes, memo_hits, coalesced, executions):
    return {"replay.computes": computes, "replay.memo_hits": memo_hits,
            "replay.coalesced": coalesced, "executions": executions}


def _wait_until(predicate, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.01)


def _hold_computes(monkeypatch, service):
    """Make every replay compute of ``service`` wait for the returned
    event before it runs."""
    release = threading.Event()
    real = service._replay_blocking

    def held(*args):
        assert release.wait(timeout=60.0)
        return real(*args)

    monkeypatch.setattr(service, "_replay_blocking", held)
    return release


def test_concurrent_identical_replays_share_one_compute(world, monkeypatch):
    params = {"snapshot": world.key, "config": "global_local"}
    with ServiceThread(world.store) as service:
        release = _hold_computes(monkeypatch, service.service)
        with ThreadPoolExecutor(max_workers=8) as pool:
            replies = [pool.submit(_raw_reply, service.address, "replay",
                                   params) for _ in range(8)]
            with service.client() as client:
                _wait_until(lambda: _replay_counts(client)[
                    "replay.coalesced"] == 7)
                release.set()
                frames = [reply.result(timeout=60.0) for reply in replies]
                counts = _replay_counts(client)
    assert counts == _counts(computes=1, memo_hits=0, coalesced=7,
                             executions=1)
    assert len(set(frames)) == 1
    assert decode_payload(frames[0])["ok"] is True


def test_repeat_replay_is_a_byte_identical_memo_hit(world):
    params = {"snapshot": world.key, "config": "no_global_local"}
    with ServiceThread(world.store) as service:
        first = _raw_reply(service.address, "replay", params)
        again = _raw_reply(service.address, "replay", params)
        with service.client() as client:
            counts = _replay_counts(client)
    assert again == first
    assert counts == _counts(computes=1, memo_hits=1, coalesced=0,
                             executions=1)


def test_one_execution_serves_every_config(world, monkeypatch):
    compiled = world.store.get_compiled(world.key)
    log = ExecutionLog.record(world.program)

    def replay(service, name):
        with service.client(timeout=120.0) as client:
            return client.replay(snapshot=world.key, config=name)

    # All four first replays start at once on the four workers (more
    # than the cores), with frequent thread switches: a lost update on
    # the shared log would show as a second execution.
    interval = sys.getswitchinterval()
    with ServiceThread(world.store) as service:
        release = _hold_computes(monkeypatch, service.service)
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                pending = {name: pool.submit(replay, service, name)
                           for name in REPLAY_CONFIGS}
                with service.client() as client:
                    _wait_until(lambda: _replay_counts(client)[
                        "replay.computes"] == 4)
                    release.set()
                    served = {name: future.result(timeout=120.0)
                              for name, future in pending.items()}
                    counts = _replay_counts(client)
        finally:
            sys.setswitchinterval(interval)
    assert counts == _counts(computes=4, memo_hits=0, coalesced=0,
                             executions=1)
    native = run_native(world.program).cycles
    for name, factory in REPLAY_CONFIGS.items():
        reference = TeaReplayTool(trace_set=world.trace_set, tea=world.tea,
                                  config=factory(), engine="object")
        Pin(world.program, tool=reference).run(log)
        direct = TeaReplayTool(trace_set=world.trace_set, tea=world.tea,
                               config=factory(), engine="compiled",
                               compiled=compiled)
        direct_result = Pin(world.program, tool=direct).run(log)
        answer = served[name]
        assert answer["stats"] == reference.stats.as_dict(), name
        assert answer["coverage_pin"] == reference.coverage, name
        assert answer["cycles"] == direct_result.cycles, name
        assert answer["native_cycles"] == native, name


def test_failed_compute_is_not_cached(world, monkeypatch):
    with ServiceThread(world.store) as service:
        real = service.service._replay_blocking
        calls = []

        def fails_once(*args):
            calls.append(args)
            if len(calls) == 1:
                raise RuntimeError("injected compute failure")
            return real(*args)

        monkeypatch.setattr(service.service, "_replay_blocking", fails_once)
        with service.client(timeout=120.0) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.replay(snapshot=world.key)
            assert excinfo.value.code == E_INTERNAL
            assert "injected" in str(excinfo.value)
            answer = client.replay(snapshot=world.key)
            counts = _replay_counts(client)
    assert answer["stats"]["blocks"] > 0
    assert len(calls) == 2
    assert counts == _counts(computes=2, memo_hits=0, coalesced=0,
                             executions=1)


def test_timed_out_waiter_does_not_cancel_the_shared_compute(
        world, monkeypatch, shared_service):
    params = {"snapshot": world.key, "config": "global_local"}
    expected = _raw_reply(shared_service.address, "replay", params)
    config = ephemeral_config(request_timeout=0.5, debug=True)
    with ServiceThread(world.store, config=config) as service:
        with service.client(timeout=60.0) as client:
            # Record the snapshot's log first, so the held compute below
            # is one quick replay once released.
            client.replay(snapshot=world.key, config="global_no_local")
            release = _hold_computes(monkeypatch, service.service)
            with pytest.raises(ServiceError) as excinfo:
                client.replay(**params)
            assert excinfo.value.code == E_TIMEOUT
            with ThreadPoolExecutor(max_workers=1) as pool:
                late = pool.submit(_raw_reply, service.address, "replay",
                                   params)
                _wait_until(lambda: _replay_counts(client)[
                    "replay.coalesced"] == 1)
                release.set()
                frame = late.result(timeout=60.0)
            counts = _replay_counts(client)
    assert frame == expected
    assert counts == _counts(computes=2, memo_hits=0, coalesced=1,
                             executions=1)


def test_batch_values_are_distinct_memo_keys(world):
    with ServiceThread(world.store) as service:
        with service.client(timeout=120.0) as client:
            unbatched = client.replay(snapshot=world.key)
            batched = client.replay(snapshot=world.key, batch=4)
            again = client.replay(snapshot=world.key, batch=4)
            counts = _replay_counts(client)
    assert batched == again
    assert batched["stats"] == unbatched["stats"]
    assert counts == _counts(computes=2, memo_hits=1, coalesced=0,
                             executions=1)


def test_reload_retiring_a_snapshot_drops_its_answers_and_log(
        world, tmp_path):
    store = AutomatonStore(tmp_path / "store")
    meta = {"benchmark": BENCHMARK, "scale": SCALE, "label": "world"}
    key = store.put(world.trace_set, tea=world.tea, meta=meta)
    with ServiceThread(store) as service:
        with service.client(timeout=120.0) as client:
            client.replay(snapshot=key)
            client.coverage(snapshot=key, config="global_no_local")
            server = service.service
            entry = server.entries[key]
            assert len(server._replay_memo) == 2
            assert entry.execution_log()[1] is False   # already recorded
            newer = store.put(world.trace_set, tea=world.tea,
                              meta=dict(meta, supersedes=key))
            reloaded = client.call("reload")
            assert reloaded["retired"] == [key]
            assert not any(memo_key[0] == key
                           for memo_key in server._replay_memo)
            assert entry._log is None
            answer = client.replay(snapshot="world")
    assert answer["snapshot"] == newer


def test_retire_waits_for_a_compute_that_has_not_started(world, tmp_path):
    store = AutomatonStore(tmp_path / "store")
    key = store.put(world.trace_set, tea=world.tea, meta={
        "benchmark": BENCHMARK, "scale": SCALE})
    with ServiceThread(store) as service:
        server = service.service
        entry = server.entries[key]

        async def replay_then_retire():
            waiter = asyncio.ensure_future(
                server._rpc_replay({"snapshot": key}))
            await asyncio.sleep(0)     # the compute task exists, not run
            server._retire(server.entries.pop(key))
            retired_inflight = entry.inflight
            return retired_inflight, await waiter

        inflight, answer = asyncio.run_coroutine_threadsafe(
            replay_then_retire(), service._loop).result(timeout=120.0)
    assert inflight == 1
    assert answer["stats"]["blocks"] > 0
    assert not server._replay_memo
    assert entry._log is None


def test_evicted_answer_recomputes_identically(world, monkeypatch):
    monkeypatch.setattr(server_module, "REPLAY_MEMO_LIMIT", 1)
    first_params = {"snapshot": world.key, "config": "global_local"}
    other_params = {"snapshot": world.key, "config": "no_global_no_local"}
    with ServiceThread(world.store) as service:
        first = _raw_reply(service.address, "replay", first_params)
        _raw_reply(service.address, "replay", other_params)
        assert len(service.service._replay_memo) == 1
        again = _raw_reply(service.address, "replay", first_params)
        with service.client() as client:
            counts = _replay_counts(client)
    assert again == first
    assert counts == _counts(computes=3, memo_hits=0, coalesced=0,
                             executions=1)
