"""Workload ``service-replay``: the serving path.

One ``repro.service serve --workers 2`` process serves a store of drawn
snapshots.  Two connections run in lockstep: for each (snapshot, config)
key in seeded order both send the same ``replay`` at once and wait for
both answers, while ``coverage`` / ``snapshot-info`` reads go out on the
first connection beside the computing replays.  The warm pass sends the
same sequence again to the same server.  A closed loop from one process:
two connections, no more worker threads than connections.
"""

import asyncio
import json
import time

from common import (
    CYCLES_RTOL,
    HOT_THRESHOLD,
    NULL_TRACER,
    Meter,
    Tracer,
    log,
    median,
    process_factor,
    report_trace,
    scale_for,
    tail,
    vmhwm_mb,
)
from server import Connection, ServerProcess

#: INT benchmarks whose compiled replays cost within ~10% of each other
#: per guest instruction.  Every one is served; the seed picks two of
#: the four configs per snapshot and the order of the keys.
POOL = ("164.gzip", "175.vpr", "181.mcf", "186.crafty", "197.parser",
        "252.eon", "254.gap", "255.vortex", "256.bzip2", "300.twolf")
CONFIGS = ("global_local", "global_no_local", "no_global_local",
           "no_global_no_local")
CONNECTIONS = 2
#: Pause before each read, so reads land while the replays compute
#: rather than racing the replay requests into the server.
READ_GAP_S = 0.01

SIZES = {
    # 45k instructions: one replay computes for ~70 ms, one RPC with
    # two in flight takes ~150 ms.  3 rounds x 20 keys x 2 connections
    # = 120 cold replays: the tail is their p91.7.
    "full": {"snapshots": len(POOL), "configs": 2, "instrs": 45_000,
             "rounds": 3, "reads_per_key": 3},
    "tiny": {"snapshots": 2, "configs": 2, "instrs": 8_000, "rounds": 2,
             "reads_per_key": 2},
}

GATES = ("answers_agree", "reference_replay", "reads")

#: Span names of the traced pass: one per request method, each span the
#: time the request was in flight.  Every layer runs in the server, so
#: these are the only layer calls the client sees.
RPC_SPANS = ("service.rpc.replay", "service.rpc.coverage",
             "service.rpc.snapshot-info")


def build_store(programs, store_dir):
    """Record, build and ``put`` one snapshot per program, as
    ``repro.service build`` does; returns ``{key: (name, scale)}``."""
    from repro.core import build_tea
    from repro.dbt import StarDBT
    from repro.store import AutomatonStore
    from repro.traces.recorder import RecorderLimits
    from repro.workloads import load_benchmark

    store = AutomatonStore(store_dir)
    keys = {}
    for name, scale in programs:
        program = load_benchmark(name, scale=scale).program
        trace_set = StarDBT(program, strategy="mret", limits=RecorderLimits(
            hot_threshold=HOT_THRESHOLD)).run().trace_set
        key = store.put(trace_set, tea=build_tea(trace_set), meta={
            "benchmark": name, "scale": scale, "strategy": "mret",
            "hot_threshold": HOT_THRESHOLD})
        keys[key] = (name, scale)
    return keys


def start(ctx, programs, index):
    """One full set-up: store, server, first ``ping``.  The in-process
    store build is normalized by the kernel probe, the server's start by
    the process probe."""
    store_dir = ctx.work / ("store%d" % index)
    build = Meter()
    keys = build_store(programs, store_dir)
    build.lap()
    serve = Meter(process_factor)
    server = ServerProcess(store_dir, ctx.work, workers=CONNECTIONS,
                           name="server%d" % index)
    try:
        server.wait_ready()
    except BaseException:
        server.stop()
        raise
    serve.lap()
    log("set-up %d: build %s, serve %s" % (index, build.describe(),
                                           serve.describe()))
    return build.total + serve.total, server, store_dir, keys


def make_plan(ctx, keys, configs, reads_per_key):
    """The seeded key sequence and the reads sent beside each key."""
    sequence = [(key, config) for key in sorted(keys)
                for config in ctx.rng.sample(CONFIGS, configs)]
    ctx.rng.shuffle(sequence)
    reads = []
    for index in range(len(sequence)):
        batch = []
        for slot in range(reads_per_key):
            if index and slot % 2 == 0:
                key, config = sequence[ctx.rng.randrange(index)]
                batch.append(("coverage", {"snapshot": key,
                                           "config": config}))
            else:
                key = ctx.rng.choice(sorted(keys))
                batch.append(("snapshot-info", {"snapshot": key}))
        reads.append(batch)
    return sequence, reads


async def _call(conn, method, params, tracer):
    """``conn.call`` recorded as a ``service.rpc.<method>`` span: the
    replays of a key are in flight together, so their spans overlap."""
    reply, seconds = await conn.call(method, params)
    end = time.perf_counter()
    tracer.interval("service.rpc." + method, end - seconds, end)
    return reply, seconds


async def _pass(ctx, connections, sequence, reads, tracer):
    """One pass; returns ``(meter, replays, read samples)`` where
    ``replays[i]`` holds one ``(reply, seconds)`` per connection.  The
    host speed is probed between keys, while nothing is in flight."""
    replays, read_samples = [], []
    meter = Meter()
    for (key, config), batch in zip(sequence, reads):
        key_reads = []
        params = {"snapshot": key, "config": config}
        pending = [asyncio.ensure_future(_call(conn, "replay", params,
                                               tracer))
                   for conn in connections]
        for method, read_params in batch:
            await asyncio.sleep(READ_GAP_S)
            reply, seconds = await _call(connections[0], method,
                                         read_params, tracer)
            ctx.op(reply.get("ok", False))
            key_reads.append((method, read_params, reply, seconds))
        answers = await asyncio.gather(*pending)
        factor = meter.lap()[1]
        for reply, _ in answers:
            ctx.op(reply.get("ok", False))
        replays.append([(reply, seconds / factor)
                        for reply, seconds in answers])
        # Reads stay in wall time: they wait out the server's interpreter
        # lock, whose switch interval is wall-clock time, not host speed.
        read_samples += key_reads
    return meter, replays, read_samples


async def _session(ctx, port, sequence, reads, tracers):
    """Open the connections, run one pass per tracer, close."""
    connections = [Connection() for _ in range(CONNECTIONS)]
    for conn in connections:
        await conn.open(port)
    try:
        return [await _pass(ctx, connections, sequence, reads, tracer)
                for tracer in tracers]
    finally:
        for conn in connections:
            await conn.close()


def _canonical(reply):
    return json.dumps(reply.get("result"), sort_keys=True)


def check_answers(ctx, sequence, passes):
    """Every answer for a key byte-identical across connections and
    passes."""
    differing = 0
    for index in range(len(sequence)):
        texts = {ctx.tamper("answers_agree", _canonical(reply))
                 if (number, conn) == (0, 0) else _canonical(reply)
                 for number, (_, replays, _) in enumerate(passes)
                 for conn, (reply, _) in enumerate(replays[index])}
        if len(texts) != 1:
            differing += 1
    ctx.gate("answers_agree", differing == 0,
             "%d keys got differing answers" % differing)


def check_reference(ctx, store_dir, keys, sequence, replays):
    """Stats, coverage and cycles equal an in-process ``step()`` replay
    (engine ``object``) of the same snapshot."""
    from repro.cfg.basic_block import BlockIndex
    from repro.pin import Pin, TeaReplayTool
    from repro.service.server import REPLAY_CONFIGS
    from repro.store import AutomatonStore
    from repro.workloads import load_benchmark

    store = AutomatonStore(store_dir)
    loaded = {}
    mismatched = []
    drift = 0.0
    for (key, config), answers in zip(sequence, replays):
        if key not in loaded:
            name, scale = keys[key]
            program = load_benchmark(name, scale=scale).program
            trace_set, tea, _ = store.load(key, BlockIndex(program))
            loaded[key] = (program, trace_set, tea)
        program, trace_set, tea = loaded[key]
        tool = TeaReplayTool(trace_set=trace_set, tea=tea, engine="object",
                             config=REPLAY_CONFIGS[config]())
        result = Pin(program, tool=tool).run()
        served = answers[0][0]["result"]
        cycles = ctx.tamper("reference_replay", served["cycles"])
        relative = abs(cycles - result.cycles) / result.cycles
        drift = max(drift, relative)
        if (served["stats"] != tool.stats.as_dict()
                or served["coverage_pin"] != tool.stats.coverage(True)
                or served["coverage_dbt"] != tool.stats.coverage(False)
                or relative > CYCLES_RTOL):
            mismatched.append("%s/%s" % (keys[key][0], config))
    log("largest relative cycles drift vs step(): %.3g" % drift)
    ctx.gate("reference_replay", not mismatched,
             "served replays differ from step(): %s" % ", ".join(mismatched))


def check_reads(ctx, sequence, passes):
    """``coverage`` reads agree with the replay answers of their key;
    ``snapshot-info`` names the snapshot asked for."""
    coverage = {}
    for key_config, answers in zip(sequence, passes[0][1]):
        coverage[key_config] = answers[0][0]["result"]["coverage_pin"]
    wrong = 0
    for _, _, samples in passes:
        for method, params, reply, _ in samples:
            result = reply.get("result") or {}
            if method == "coverage":
                ok = ctx.tamper("reads", result.get("coverage_pin")) == (
                    coverage[(params["snapshot"], params["config"])])
            else:
                ok = ctx.tamper("reads", result.get("key")) == (
                    params["snapshot"])
            wrong += 0 if ok else 1
    ctx.gate("reads", wrong == 0, "%d reads disagree" % wrong)


def _latencies(replays):
    return [seconds for answers in replays for _, seconds in answers]


def run(ctx):
    size = SIZES[ctx.size]
    names = ctx.rng.sample(POOL, size["snapshots"])
    programs = [(name, scale_for(name, size["instrs"])) for name in names]
    log("snapshots: %s" % ", ".join("%s@%s" % p for p in programs))

    if ctx.trace:
        import ladder

        _, server, store_dir, keys = start(ctx, programs, 0)
        sequence, reads = make_plan(ctx, keys, size["configs"],
                                    size["reads_per_key"])
        try:
            untraced = asyncio.run(_session(ctx, server.port, sequence,
                                            reads, [NULL_TRACER]))[0]
        finally:
            server.stop()
        server = ServerProcess(store_dir, ctx.work, workers=CONNECTIONS,
                               name="traced")
        tracer = Tracer()
        try:
            server.wait_ready()
            traced = asyncio.run(_session(ctx, server.port, sequence, reads,
                                          [tracer]))[0]
        finally:
            server.stop()
        report_trace(ctx, tracer, traced[0], untraced[0], "cold pass",
                     RPC_SPANS)
        ladder.measure_layers(ctx, programs)
        check_answers(ctx, sequence, [untraced, traced])
        check_reference(ctx, store_dir, keys, sequence, untraced[1])
        check_reads(ctx, sequence, [untraced, traced])
        return

    # Rounds of (set-up, cold pass, warm pass), each on a fresh store and
    # server: the host's speed wanders over seconds, and spreading the
    # passes over the run lets the medians ride it out.
    setups, rss, passes = [], [], []
    plan = None
    for index in range(size["rounds"]):
        seconds, server, store_dir, keys = start(ctx, programs, index)
        setups.append(seconds)
        try:
            if plan is None:
                plan = make_plan(ctx, keys, size["configs"],
                                 size["reads_per_key"])
                first_store, first_keys = store_dir, keys
            passes += asyncio.run(_session(ctx, server.port, plan[0],
                                           plan[1],
                                           [NULL_TRACER, NULL_TRACER]))
            rss.append(vmhwm_mb(server.pid))
            log("round %d: setup %.3f s, cold %s, warm %s"
                % (index, seconds, passes[-2][0].describe(),
                   passes[-1][0].describe()))
        finally:
            server.stop()
    sequence = plan[0]
    cold, warm = passes[0::2], passes[1::2]
    cold_ops = [s for _, replays, _ in cold for s in _latencies(replays)]
    warm_ops = [s for _, replays, _ in warm for s in _latencies(replays)]
    tail_value, percentile = tail(cold_ops)
    log("cold_tail_ms is p%.1f of %d cold replays"
        % (percentile, len(cold_ops)))
    read_ops = [sample[3] for _, _, samples in passes for sample in samples]
    ctx.metric("setup_s", median(setups), "s")
    ctx.metric("cold_pass_s", median([p[0].total for p in cold]), "s")
    ctx.metric("cold_p50_ms", median(cold_ops) * 1000.0, "ms")
    ctx.metric("cold_tail_ms", tail_value * 1000.0, "ms")
    ctx.metric("warm_pass_s", median([p[0].total for p in warm]), "s")
    ctx.metric("warm_p50_ms", median(warm_ops) * 1000.0, "ms")
    ctx.metric("read_p50_ms", median(read_ops) * 1000.0, "ms")
    ctx.metric("peak_rss_mb", median(rss), "MiB")

    check_answers(ctx, sequence, passes)
    check_reference(ctx, first_store, first_keys, sequence, cold[0][1])
    check_reads(ctx, sequence, passes)
