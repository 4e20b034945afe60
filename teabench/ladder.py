"""The layer ladder of the traced run.

Each drawn program runs through stacks that add one layer at a time:

    Executor.run(None)                      -> cpu.exec_s
    Executor.run(no-op callback)            -> + cpu.callback_s
    Executor.run(DynamicBlockBuilder.feed)  -> + cfg.builder_s
    Pin(tool=None).run()                    -> + pin.dispatch_s
    Pin(TeaReplayTool(engine)).run()        -> + pin.replay_tool_s.<engine>
    Pin(TeaRecordTool).run()                -> + core.record_tool_s

A layer's self time is the difference between adjacent rungs; each rung
is the better of two host-normalized runs (see ``common.Meter``).  Gate
``ladder`` checks the rungs' outputs against each other: both replay
engines and the bare kernel give the same stats, and the record tool
records the trace set StarDBT records.

Beside the ladder, the same programs feed the offline layers (build,
minimize, store, verify, diff, audit), one harness pass through a result
cache and a short session against a served store.  Every number comes
from timing calls into public functions from here; nothing inside
``src/repro`` is instrumented.  The service section, the import time and
the cache get/put spans are wall time.
"""

import gc
import statistics
import subprocess
import sys
import time
from collections import defaultdict

from common import CYCLES_RTOL, HOT_THRESHOLD, Meter, Tracer, child_env, log

ENGINES = ("object", "compiled")
STRATEGIES = ("mret", "ctt", "tt")

GATES = ("ladder",)


def _timed(function):
    """``(host-normalized seconds, result)`` of one call."""
    meter = Meter()
    result = function()
    return meter.lap()[0], result


def _rung(function):
    """The better of two :func:`_timed` runs: one rung of the ladder is
    a single run, so one slow moment of the host would flip the sign of
    a difference between rungs."""
    first, result = _timed(function)
    return min(first, _timed(function)[0]), result


def _wall(function):
    """``(wall seconds, result)``: for child processes and the service,
    whose server-side timers are wall time too."""
    started = time.perf_counter()
    result = function()
    return time.perf_counter() - started, result


def _noop(event):
    return None


def _ms(seconds):
    return seconds * 1000.0


def _packed_stream(program):
    """The program's block transitions, packed as the compiled replayer
    takes them."""
    from repro.pin import CallbackTool, Pin, pack_transitions

    transitions = []
    Pin(program, tool=CallbackTool(on_transition=transitions.append)).run()
    return pack_transitions(transitions)


def _trace_signature(trace_set):
    return sorted((trace.entry, [tbb.block.key for tbb in trace],
                   [tbb.successors for tbb in trace])
                  for trace in trace_set)


#: The ladder runs over the first few programs of a workload's draw.
LADDER_PROGRAMS = 4


def measure_layers(ctx, programs):
    """Run every section over the first ``LADDER_PROGRAMS`` of
    ``programs`` (``(name, scale)`` pairs) and record the per-layer
    metrics into ``ctx``."""
    programs = programs[:LADDER_PROGRAMS]
    recorded = _ladder(ctx, programs)
    _offline(ctx, recorded)
    _harness(ctx, programs[0])
    _service(ctx, recorded[:2])


def _ladder(ctx, programs):
    from repro.cfg.basic_block import BlockIndex
    from repro.cfg.builder import FLAVOR_STARDBT, DynamicBlockBuilder
    from repro.core import (
        CompiledReplayer,
        CompiledTea,
        ReplayConfig,
        build_tea,
    )
    from repro.cpu.executor import Executor
    from repro.dbt import StarDBT
    from repro.pin import Pin, TeaRecordTool, TeaReplayTool
    from repro.traces.recorder import RecorderLimits
    from repro.workloads import load_benchmark

    limits = RecorderLimits(hot_threshold=HOT_THRESHOLD)
    sums = defaultdict(float)
    instructions = 0
    recorded = []
    disagree = []
    for name, scale in programs:
        elapsed, workload = _timed(lambda: load_benchmark(name, scale=scale))
        sums["load"] += elapsed
        program = workload.program
        elapsed, native = _rung(lambda: Executor(program).run(None))
        sums["exec"] += elapsed
        instructions += native.instrs_pin
        sums["callback"] += _rung(lambda: Executor(program).run(_noop))[0]

        def builder_rung():
            builder = DynamicBlockBuilder(BlockIndex(program), program.entry,
                                          flavor=FLAVOR_STARDBT)
            Executor(program).run(builder.feed)

        sums["builder"] += _rung(builder_rung)[0]
        sums["pin"] += _rung(lambda: Pin(program).run())[0]
        trace_sets = {}
        for strategy in STRATEGIES:
            elapsed, result = _rung(lambda: StarDBT(
                program, strategy=strategy, limits=limits).run())
            sums["dbt." + strategy] += elapsed
            trace_sets[strategy] = result.trace_set
        mret = trace_sets["mret"]
        tea = build_tea(mret)
        compiled = CompiledTea.from_tea(tea)
        replays = {}
        for engine in ENGINES:
            def replay():
                tool = TeaReplayTool(
                    trace_set=mret, tea=tea, engine=engine,
                    compiled=compiled if engine == "compiled" else None)
                return tool, Pin(program, tool=tool).run()

            elapsed, (tool, result) = _rung(replay)
            sums["replay." + engine] += elapsed
            replays[engine] = (tool.stats.as_dict(), result.cycles)

        def record():
            tool = TeaRecordTool(strategy="mret", limits=limits)
            Pin(program, tool=tool).run()
            return tool.trace_set

        elapsed, online = _rung(record)
        sums["record"] += elapsed
        packed = _packed_stream(program)

        def kernel():
            replayer = CompiledReplayer(compiled,
                                        config=ReplayConfig.global_local())
            replayer.run(packed)
            return replayer

        elapsed, replayer = _rung(kernel)
        sums["kernel"] += elapsed
        stats = ctx.tamper("ladder", replays["object"][0])
        cycles = replays["object"][1]
        if (stats != replays["compiled"][0]
                or stats != replayer.stats.as_dict()
                or abs(replays["compiled"][1] - cycles) > CYCLES_RTOL * cycles
                or _trace_signature(online) != _trace_signature(mret)):
            disagree.append(name)
        recorded.append((name, scale, program, trace_sets))

    ctx.metric("workloads.load_s", sums["load"], "s")
    ctx.metric("cpu.exec_s", sums["exec"], "s")
    ctx.metric("cpu.ns_per_instr", sums["exec"] / instructions * 1e9, "ns")
    ctx.metric("cpu.callback_s", sums["callback"] - sums["exec"], "s")
    ctx.metric("cfg.builder_s", sums["builder"] - sums["callback"], "s")
    ctx.metric("pin.dispatch_s", sums["pin"] - sums["builder"], "s")
    for engine in ENGINES:
        ctx.metric("pin.replay_tool_s." + engine,
                   sums["replay." + engine] - sums["pin"], "s")
    ctx.metric("core.kernel_s", sums["kernel"], "s")
    ctx.metric("core.record_tool_s", sums["record"] - sums["pin"], "s")
    for strategy in STRATEGIES:
        ctx.metric("dbt.run_s." + strategy, sums["dbt." + strategy], "s")
    log("ladder: %d programs, %d guest instructions" % (len(programs),
                                                        instructions))
    ctx.gate("ladder", not disagree,
             "replay engines, kernel or record tool disagree on %s"
             % ", ".join(disagree))
    return recorded


def _offline(ctx, recorded):
    from repro.audit import AuditCache, audit_store
    from repro.cfg.basic_block import BlockIndex
    from repro.compare import diff_automata
    from repro.core import build_tea
    from repro.minimize import minimize_tea
    from repro.store import AutomatonStore
    from repro.verify import verify_snapshot_bytes

    store = AutomatonStore(ctx.work / "ladder_store")
    sums = defaultdict(float)
    put_ms, map_ms, load_ms, diff_ms, sizes, ratios = [], [], [], [], [], []
    previous = None
    for name, scale, program, trace_sets in recorded:
        for strategy, trace_set in trace_sets.items():
            elapsed, tea = _timed(lambda: build_tea(trace_set))
            sums["build"] += elapsed
            elapsed, result = _timed(lambda: minimize_tea(tea, mode="exact"))
            sums["minimize"] += elapsed
            ratios.append(result.states_after / result.states_before)
            meta = {"benchmark": name, "scale": scale, "strategy": strategy,
                    "hot_threshold": HOT_THRESHOLD}
            elapsed, key = _timed(lambda: store.put(
                trace_set, tea=result.tea, meta=meta))
            put_ms.append(_ms(elapsed))
            data = store.get_bytes(key)
            sizes.append(len(data))
            elapsed, _ = _timed(lambda: verify_snapshot_bytes(
                data, program=program, source=key))
            sums["verify"] += elapsed
            map_ms.append(_ms(_timed(lambda: store.map_compiled(key))[0]))
            load_ms.append(_ms(_timed(lambda: store.load(
                key, BlockIndex(program)))[0]))
            if previous is not None:
                diff_ms.append(_ms(_timed(
                    lambda: diff_automata(previous, result.tea))[0]))
            previous = result.tea
    cache = AuditCache(str(ctx.work / "ladder_audit"))
    cold_s, _ = _timed(lambda: audit_store(store.root, cache=cache))
    warm_s, warm = _timed(lambda: audit_store(store.root, cache=cache))

    ctx.metric("core.build_tea_s", sums["build"], "s")
    ctx.metric("minimize.s", sums["minimize"], "s")
    ctx.metric("minimize.state_ratio", statistics.mean(ratios), "ratio")
    ctx.metric("store.put_ms", statistics.median(put_ms), "ms")
    ctx.metric("store.bytes_per_snapshot", statistics.mean(sizes), "B")
    ctx.metric("store.map_ms", statistics.median(map_ms), "ms")
    ctx.metric("store.load_ms", statistics.median(load_ms), "ms")
    ctx.metric("verify.s", sums["verify"], "s")
    ctx.metric("audit.cold_s", cold_s, "s")
    ctx.metric("audit.warm_s", warm_s, "s")
    ctx.metric("audit.cache_hit_ratio",
               warm.stats["cache_hits"] / warm.stats["artifacts"], "ratio")
    ctx.metric("compare.diff_ms", statistics.median(diff_ms), "ms")


def _harness(ctx, program):
    from repro.cpu.executor import Executor
    from repro.harness import HarnessConfig, Runner
    from repro.harness.cache import ResultCache
    from repro.harness.runner import STAGES

    import harness_tables

    name, scale = program
    config = HarnessConfig(scale=scale, benchmarks=[name])
    cache_dir = str(ctx.work / "ladder_cache")
    tracer = Tracer()
    tracer.wrap(Executor, "run", "cpu.run")
    tracer.wrap(ResultCache, "get", "cache.get")
    tracer.wrap(ResultCache, "put", "cache.put")
    try:
        runner = Runner(config, cache=ResultCache(cache_dir))
        for stage in STAGES:
            runner.summary(name, stage)
        # Counted before rendering: Figure 3 runs a small program of
        # its own, which is not one of the benchmark's runs.
        exec_runs = sum(1 for span in tracer.spans if span[0] == "cpu.run")
        render_s, _ = _timed(lambda: harness_tables.render_all_output(runner))
        reread = Runner(config, cache=ResultCache(cache_dir))
        for stage in STAGES:
            reread.summary(name, stage)
    finally:
        tracer.unwrap_all()
    durations = defaultdict(list)
    for span_name, start, end, _ in tracer.spans:
        durations[span_name].append(end - start)
    counters = runner.metrics_snapshot()["metrics"]["counters"]
    ctx.metric("cpu.runs_per_benchmark", exec_runs, "count")
    ctx.metric("harness.stage_runs", counters["harness.stage_runs"], "count")
    # The re-read's gets are the last ones; the cold runner's were misses.
    ctx.metric("harness.cache_get_ms", _ms(statistics.median(
        durations["cache.get"][-len(STAGES):])), "ms")
    ctx.metric("harness.cache_put_ms",
               _ms(statistics.median(durations["cache.put"])), "ms")
    ctx.metric("harness.render_s", render_s, "s")
    imports = []
    for _ in range(3):
        elapsed, _ = _wall(lambda: subprocess.run(
            [sys.executable, "-c", "import repro.harness.__main__"],
            env=child_env(), check=True))
        imports.append(elapsed)
    ctx.metric("harness.import_s", statistics.median(imports), "s")


def _service(ctx, recorded):
    from repro.core import (
        CompiledReplayer,
        CompiledTea,
        ReplayConfig,
        build_tea,
    )
    from repro.pin import Pin, TeaReplayTool, run_native
    from repro.service.client import ServiceClient
    from repro.store import AutomatonStore

    # Imported here: the server module pulls in asyncio, which would
    # raise the peak RSS of the workloads that serve nothing.
    from server import ServerProcess

    store_dir = ctx.work / "ladder_service"
    store = AutomatonStore(store_dir)
    keys = []
    compute_ms, native_ms, kernel_ms, expected = {}, {}, {}, {}
    # The benchmark process holds its workload's whole heap, which made
    # every collection during these runs slow; frozen, the collector
    # scans only what the runs allocate, as in the server.
    gc.collect()
    gc.freeze()
    try:
        for name, scale, program, trace_sets in recorded:
            trace_set = trace_sets["mret"]
            tea = build_tea(trace_set)
            key = store.put(trace_set, tea=tea, meta={
                "benchmark": name, "scale": scale, "strategy": "mret",
                "hot_threshold": HOT_THRESHOLD})
            # In-process, what the server's replay does: a compiled replay
            # under Pin, plus a native run on a snapshot's first replay;
            # each the median of three wall-time runs.
            tools = [TeaReplayTool(trace_set=trace_set, tea=tea,
                                   engine="compiled") for _ in range(3)]
            compute_ms[key] = statistics.median(
                _ms(_wall(lambda: Pin(program, tool=tool).run())[0])
                for tool in tools)
            native_ms[key] = statistics.median(
                _ms(_wall(lambda: run_native(program))[0]) for _ in range(3))
            expected[key] = tools[0].stats.as_dict()
            packed = _packed_stream(program)
            replayer = CompiledReplayer(CompiledTea.from_tea(tea),
                                        config=ReplayConfig.global_local())
            kernel_ms[key] = _ms(_wall(lambda: replayer.run(packed))[0])
            keys.append(key)
    finally:
        gc.unfreeze()
    server = ServerProcess(store_dir, ctx.work, workers=1, name="ladder")
    rpc = defaultdict(list)
    computes = 0
    replays = 0
    wrong = 0
    try:
        server.wait_ready()
        with ServiceClient("127.0.0.1", server.port, timeout=120) as client:
            for key in keys:
                for _ in range(2):
                    elapsed, answer = _wall(
                        lambda: client.replay(snapshot=key))
                    rpc["replay"].append(_ms(elapsed))
                    replays += 1
                    if answer["stats"] != expected[key]:
                        wrong += 1
                    # Every replay that computes runs at least the
                    # compiled kernel over the transition stream; a memo
                    # hit is a round trip of well under that.
                    if _ms(elapsed) >= 0.5 * kernel_ms[key]:
                        computes += 1
                for method, call in (
                        ("coverage", lambda: client.coverage(snapshot=key)),
                        ("snapshot-info",
                         lambda: client.snapshot_info(snapshot=key))):
                    rpc[method].append(_ms(_wall(call)[0]))
            timers = client.stats()["metrics"]["timers"]
    finally:
        server.stop()
    ctx.gate("ladder", wrong == 0,
             "%d served replays differ from the in-process replay" % wrong)
    for method, samples in rpc.items():
        ctx.metric("service.rpc_ms." + method, statistics.median(samples),
                   "ms")
        timer = timers["service.latency.%s" % method]
        ctx.metric("service.server_ms." + method,
                   _ms(timer["seconds"] / timer["count"]), "ms")
    replay_timer = timers["service.latency.replay"]
    # Each key is replayed twice and its native run happens once.
    in_process_ms = sum(2 * compute_ms[key] + native_ms[key]
                        for key in keys) / replays
    ctx.metric("service.overhead_ms",
               _ms(replay_timer["seconds"] / replay_timer["count"])
               - in_process_ms, "ms")
    ctx.metric("service.computes_per_replay", computes / replays, "ratio")
    ctx.metric("service.memo_hits", replays - computes, "count")
