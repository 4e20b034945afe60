"""Workload ``snapshot-fleet``: the offline snapshot tooling.

Per trace set the chain is ``build_tea`` -> exact ``minimize_tea`` ->
``AutomatonStore.put`` -> verify -> ``map_compiled`` -> ``diff_automata``
against the program's previous set; the cold pass ends with a cold
``audit_store`` of the store.  The warm pass runs the same chain over the
same store, then a warm audit.  Reads (``map_compiled`` + ``load`` of
stored snapshots) interleave with the writes step by step.  No
interpreter runs in the timed part: StarDBT records the trace sets
during set-up.
"""

import gc
import json

from common import (
    HOT_THRESHOLD,
    NULL_TRACER,
    Meter,
    Tracer,
    log,
    median,
    peak_rss_mb,
    report_trace,
    scale_for,
    tail,
)

#: Every INT benchmark under every recording strategy: their automata
#: range from tens to a thousand states, and taking all of them keeps
#: the work independent of the seed.  The chain runs benchmark by
#: benchmark (mret, ctt, tt) and diffs each set against the program's
#: previous one, so the seed orders the benchmarks and changes no pair.
FLEET = ("164.gzip", "175.vpr", "176.gcc", "181.mcf", "186.crafty",
         "197.parser", "252.eon", "253.perlbmk", "254.gap", "255.vortex",
         "256.bzip2", "300.twolf")
STRATEGIES = ("mret", "ctt", "tt")

SIZES = {
    # 4 rounds x 36 chain steps = 144 cold steps: the tail is their p93.1,
    # the 11th slowest.  Three chain steps cost 100-150 ms and the next
    # ones 70-100 ms, so the tail falls among the twelve copies of the
    # three; with three rounds it sat on the edge between the two groups
    # and flipped between them from run to run.
    "full": {"benchmarks": len(FLEET), "instrs": 50_000, "rounds": 4,
             "reads_per_step": 2},
    "tiny": {"benchmarks": 4, "instrs": 5_000, "rounds": 2,
             "reads_per_step": 1},
}

GATES = ("load_back", "minimize_exact", "verify_clean", "audit_warm")


def record(programs):
    """StarDBT recording of every (benchmark, strategy) trace set;
    returns ``(meter, trace sets)``."""
    from repro.dbt import StarDBT
    from repro.traces.recorder import RecorderLimits

    limits = RecorderLimits(hot_threshold=HOT_THRESHOLD)
    meter = Meter()
    trace_sets = {}
    for name, (_, program) in programs.items():
        for strategy in STRATEGIES:
            trace_sets[(name, strategy)] = StarDBT(
                program, strategy=strategy, limits=limits).run().trace_set
            meter.lap()
    return meter, trace_sets


def chain_pass(ctx, store_root, audit_dir, programs, trace_sets, order,
               reads_per_step, tracer):
    """One pass of the chain plus the audit; returns a dict of results.

    After each step, ``map_compiled`` + ``load`` reads of the snapshots
    stored by the ``reads_per_step`` steps before it interleave with the
    writes, so every snapshot is read the same number of times whatever
    the order.
    """
    from repro.audit import AuditCache, audit_store
    from repro.cfg.basic_block import BlockIndex
    from repro.compare import diff_automata
    from repro.core import build_tea
    from repro.minimize import minimize_tea
    from repro.store import AutomatonStore
    from repro.verify import verify_snapshot_bytes

    store = AutomatonStore(store_root)
    steps, ops, reads, stored = [], [], [], []
    previous = {}
    # The cyclic collector is off while the pass is timed.  With it on,
    # full collections landed in whichever chain step crossed the
    # allocation threshold, which depends on the seed's order: single
    # steps doubled (50 -> 130 ms) and moved the tail by 25% from seed
    # to seed.  Garbage left by the pass is collected after it.
    gc.collect()
    gc.disable()
    try:
        meter = Meter()
        for name, strategy in order:
            scale, program = programs[name]
            trace_set = trace_sets[(name, strategy)]
            with tracer.span("core.build_tea"):
                tea = build_tea(trace_set)
            with tracer.span("minimize.minimize_tea"):
                result = minimize_tea(tea, mode="exact")
            with tracer.span("store.put"):
                key = store.put(trace_set, tea=result.tea, meta={
                    "benchmark": name, "scale": scale, "strategy": strategy,
                    "hot_threshold": HOT_THRESHOLD})
            with tracer.span("verify.verify_snapshot_bytes"):
                report = verify_snapshot_bytes(store.get_bytes(key),
                                               program=program, source=key)
            with tracer.span("store.map_compiled"):
                store.map_compiled(key)
            if name in previous:
                with tracer.span("compare.diff_automata"):
                    diff_automata(previous[name], result.tea)
            previous[name] = result.tea
            ops.append(meter.lap()[0])
            ctx.op()
            stored.append((key, name))
            steps.append((name, strategy, tea, result, key, report))
            for read_key, read_name in stored[-1 - reads_per_step:-1]:
                with tracer.span("store.read"):
                    store.map_compiled(read_key)
                    store.load(read_key, BlockIndex(programs[read_name][1]))
                reads.append(meter.lap()[0])
                ctx.op()
        with tracer.span("audit.audit_store"):
            audit = audit_store(store.root, cache=AuditCache(str(audit_dir)))
        meter.lap()
    finally:
        gc.enable()
    gc.collect()
    return {"meter": meter, "ops": ops, "reads": reads, "steps": steps,
            "audit": audit}


def check_load_back(ctx, store_root, programs, steps):
    """Each stored snapshot loads back equal to the built automaton."""
    from repro.cfg.basic_block import BlockIndex
    from repro.core import CompiledTea
    from repro.errors import SerializationError
    from repro.store import AutomatonStore, load_tea_binary

    store = AutomatonStore(store_root)
    bad = []
    for name, strategy, _, result, key, _ in steps:
        built = CompiledTea.from_tea(result.tea)
        data = ctx.tamper("load_back", store.get_bytes(key))
        try:
            _, loaded, _ = load_tea_binary(data,
                                           BlockIndex(programs[name][1]))
        except SerializationError:
            bad.append("%s/%s" % (name, strategy))
            continue
        if not (built.structurally_equal(CompiledTea.from_tea(loaded))
                and built.structurally_equal(store.map_compiled(key))):
            bad.append("%s/%s" % (name, strategy))
    ctx.gate("load_back", not bad, "differ after load: %s" % ", ".join(bad))


def check_minimize_exact(ctx, programs, trace_sets, steps):
    """Exact minimization leaves the replay stats and costs unchanged."""
    from repro.analysis.differential import check_minimization

    bad = []
    for name, strategy, tea, result, _, _ in steps:
        checker = check_minimization(programs[name][1],
                                     trace_sets[(name, strategy)], tea,
                                     result.tea)
        original = checker.original.stats.as_dict()
        minimized = ctx.tamper("minimize_exact",
                               checker.minimized.stats.as_dict())
        if not (checker.is_equivalent and original == minimized
                and checker.original.snapshot()["cost"]
                == checker.minimized.snapshot()["cost"]):
            bad.append("%s/%s" % (name, strategy))
    ctx.gate("minimize_exact", not bad,
             "minimized replay differs: %s" % ", ".join(bad))


def check_verify_clean(ctx, store_root, steps):
    """Verify reported no errors on any stored snapshot."""
    from repro.store import AutomatonStore
    from repro.verify import verify_snapshot_bytes

    reports = [step[5] for step in steps]
    first_key = steps[0][4]
    data = AutomatonStore(store_root).get_bytes(first_key)
    tampered = ctx.tamper("verify_clean", data)
    if tampered is not data:
        reports.append(verify_snapshot_bytes(tampered, source=first_key))
    bad = [report for report in reports if not report.ok()]
    ctx.gate("verify_clean", not bad, "%d snapshots have findings" % len(bad))


def check_all(ctx, store_root, programs, trace_sets, cold, warm):
    """Every gate, on a cold pass and the warm pass over its store."""
    check_load_back(ctx, store_root, programs, cold["steps"])
    check_minimize_exact(ctx, programs, trace_sets, cold["steps"])
    check_verify_clean(ctx, store_root, cold["steps"] + warm["steps"])
    check_audit(ctx, cold["audit"], warm["audit"])


def check_audit(ctx, cold, warm):
    """The warm audit equals the cold one, and came from the cache."""
    cold_text = json.dumps(cold.reports, sort_keys=True)
    warm_text = ctx.tamper("audit_warm", json.dumps(warm.reports,
                                                    sort_keys=True))
    ctx.gate("audit_warm",
             cold.ok() and cold_text == warm_text
             and warm.stats["cache_hits"] == warm.stats["artifacts"],
             "warm audit differs from cold (hits %d of %d)"
             % (warm.stats["cache_hits"], warm.stats["artifacts"]))


def run(ctx):
    from repro.workloads import load_benchmark

    size = SIZES[ctx.size]
    names = ctx.rng.sample(FLEET, size["benchmarks"])
    programs = {}
    for name in names:
        scale = scale_for(name, size["instrs"])
        programs[name] = (scale, load_benchmark(name, scale=scale).program)
    order = [(name, strategy) for name in names for strategy in STRATEGIES]

    def one_pass(label, tracer):
        return chain_pass(ctx, ctx.work / ("store_" + label),
                          ctx.work / ("audit_" + label), programs,
                          trace_sets, order, size["reads_per_step"],
                          tracer)

    if ctx.trace:
        import ladder

        trace_sets = record(programs)[1]
        untraced = one_pass("untraced", NULL_TRACER)
        tracer = Tracer()
        traced = one_pass("traced", tracer)
        # Every span of chain_pass wraps calls into one layer.
        report_trace(ctx, tracer, traced["meter"], untraced["meter"],
                     "cold pass", {span[0] for span in tracer.spans})
        ladder.measure_layers(ctx, [(name, programs[name][0])
                                    for name in names])
        check_all(ctx, ctx.work / "store_untraced", programs, trace_sets,
                  untraced, one_pass("untraced", NULL_TRACER))
        return

    # Rounds of (recording, cold pass, warm pass), each on a fresh store
    # and audit cache: the host's speed wanders over seconds, and
    # spreading the passes over the run lets the medians ride it out.
    # Round 0 is checked right away and every round's automata are
    # dropped before the next, so no round runs on a bigger heap.
    setups, cold_times, warm_times = [], [], []
    cold_ops, warm_ops, reads = [], [], []
    for index in range(size["rounds"]):
        setup, trace_sets = record(programs)
        setups.append(setup.total)
        label = "round%d" % index
        cold = one_pass(label, NULL_TRACER)
        warm = one_pass(label, NULL_TRACER)
        log("round %d: setup %s, cold %s, warm %s"
            % (index, setup.describe(), cold["meter"].describe(),
               warm["meter"].describe()))
        cold_times.append(cold["meter"].total)
        warm_times.append(warm["meter"].total)
        cold_ops += cold["ops"]
        warm_ops += warm["ops"]
        reads += cold["reads"] + warm["reads"]
        if index == 0:
            rss = peak_rss_mb()
            check_all(ctx, ctx.work / ("store_" + label), programs,
                      trace_sets, cold, warm)
        del cold, warm, trace_sets
        gc.collect()

    tail_value, percentile = tail(cold_ops)
    log("cold_tail_ms is p%.1f of %d chain steps"
        % (percentile, len(cold_ops)))
    ctx.metric("setup_s", median(setups), "s")
    ctx.metric("cold_pass_s", median(cold_times), "s")
    ctx.metric("cold_p50_ms", median(cold_ops) * 1000.0, "ms")
    ctx.metric("cold_tail_ms", tail_value * 1000.0, "ms")
    ctx.metric("warm_pass_s", median(warm_times), "s")
    ctx.metric("warm_p50_ms", median(warm_ops) * 1000.0, "ms")
    ctx.metric("read_p50_ms", median(reads) * 1000.0, "ms")
    ctx.metric("peak_rss_mb", rss, "MiB")
