"""Workload ``harness-tables``: what ``python -m repro.harness all`` users run.

Cold pass: every ``STAGES`` summary of every drawn benchmark through a
``Runner`` on an empty ``ResultCache``, then Tables 1-4, the figures and
the summary, rendered exactly as the CLI renders ``all``.  Warm pass:
fresh ``python -m repro.harness all`` processes regenerating the same
output from the filled cache.  Reads: ``ResultCache.get`` of every stored
stage summary.  The interpreter, Pin, the block builder, StarDBT and the
replay/record tools do the work; no service or store code runs.
"""

import json
import subprocess
import sys

from common import (
    NULL_TRACER,
    ROOT,
    Meter,
    Tracer,
    child_env,
    io_factor,
    log,
    median,
    peak_rss_mb,
    process_factor,
    report_trace,
    scale_for,
    tail,
)

#: FP and INT strata whose members cost within a few percent of each
#: other per guest instruction (all ten stages), so the draw moves the
#: programs, not the work.  176.gcc is the trace-exploding program;
#: 255.vortex, the other one, costs 1.5x less per instruction and would
#: make the total depend on the seed.
FP_POOL = ("168.wupwise", "173.applu", "177.mesa", "178.galgel",
           "187.facerec", "189.lucas", "301.apsi")
INT_POOL = ("164.gzip", "175.vpr", "181.mcf", "197.parser", "256.bzip2",
            "300.twolf")
EXPLODER = "176.gcc"

SIZES = {
    # 3 rounds x 5 programs x 10 stages = 150 cold ops; the tail is
    # their p93.3.
    "full": {"instrs": 50_000, "rounds": 3, "read_batches": 50},
    "tiny": {"instrs": 6_000, "rounds": 2, "read_batches": 6},
}

#: The pinned configuration of ``tests/golden/table*.json``.
GOLDEN_BENCHMARKS = ["171.swim", "164.gzip", "181.mcf", "176.gcc"]
GOLDEN_SCALE = 0.4
GOLDEN_THRESHOLD = 10

GATES = ("golden", "warm_tables", "cache_read")

#: ``ResultCache.get`` calls timed together: one get takes tens of
#: microseconds, too short to time alone against the host's jitter.
READ_BATCH = 10


def draw(ctx, instrs):
    rng = ctx.rng
    names = rng.sample(FP_POOL, 2) + rng.sample(INT_POOL, 2) + [EXPLODER]
    rng.shuffle(names)
    return [(name, scale_for(name, instrs)) for name in names]


def render_all_output(runner):
    """The text ``python -m repro.harness all`` prints (without the
    trailing newline)."""
    from repro.harness.figures import render_all
    from repro.harness.summary import build_summary
    from repro.harness.tables import TABLES

    sections = [TABLES[name](runner).render() for name in sorted(TABLES)]
    sections.append(render_all())
    sections.append(build_summary(runner).render(include_geomean=False))
    return "\n\n\n".join(sections)


_SETUP_SCRIPT = """
import sys
from repro.harness import HarnessConfig, Runner
from repro.harness.tables import TABLES
from repro.workloads import load_benchmark
for spec in sys.argv[1:]:
    name, scale = spec.split("@")
    load_benchmark(name, scale=float(scale))
"""


def measure_setup(programs):
    """Time of a fresh process that imports the harness and loads the
    drawn programs, normalized by the process probe; returns the meter."""
    specs = ["%s@%r" % (name, scale) for name, scale in programs]
    meter = Meter(process_factor)
    subprocess.run([sys.executable, "-c", _SETUP_SCRIPT] + specs,
                   env=child_env(), check=True)
    meter.lap()
    return meter


def cold_pass(ctx, programs, cache_dir, tracer):
    """Returns ``(meter, op samples, outputs, stored)``; ``stored`` holds
    ``(cache key, summary)`` for every stage run."""
    from repro.harness import HarnessConfig, Runner
    from repro.harness.cache import ResultCache, stage_key
    from repro.harness.runner import STAGES

    ops, outputs, stored = [], {}, []
    meter = Meter()
    for name, scale in programs:
        config = HarnessConfig(scale=scale, benchmarks=[name])
        runner = Runner(config, cache=ResultCache(cache_dir))
        for stage in STAGES:
            with tracer.span("harness.summary"):
                summary = runner.summary(name, stage)
            ops.append(meter.lap()[0])
            ctx.op()
            stored.append((stage_key(name, stage, config), summary))
        with tracer.span("harness.render"):
            outputs[name] = render_all_output(runner)
        meter.lap()
    return meter, ops, outputs, stored


def read_pass(ctx, cache_dir, stored, batches):
    """Batches of ``READ_BATCH`` ``ResultCache.get`` calls of seeded
    stored summaries, each batch its own host-probed lap; returns
    ``(meter, per-get samples, mismatches)``."""
    from repro.harness.cache import ResultCache

    cache = ResultCache(cache_dir)
    picks = [[ctx.rng.choice(stored) for _ in range(READ_BATCH)]
             for _ in range(batches)]
    samples, found = [], []
    meter = Meter(lambda: io_factor(ctx.work))
    for batch in picks:
        found.append([cache.get(key) for key, _ in batch])
        samples.append(meter.lap()[0] / READ_BATCH)
    mismatches = 0
    for batch, values in zip(picks, found):
        for (_, expected), value in zip(batch, values):
            ctx.op(value is not None)
            if ctx.tamper("cache_read", value) != expected:
                mismatches += 1
    return meter, samples, mismatches


def warm_pass(ctx, programs, cache_dir):
    """One fresh CLI process per benchmark over the filled cache; returns
    ``(meter, op samples, [(name, stdout, stage_runs)])``.  Normalized by
    the process probe: process start-up does not follow the kernel."""
    ops, answers = [], []
    metrics_path = ctx.work / "warm_metrics.json"
    meter = Meter(process_factor)
    for name, scale in programs:
        done = subprocess.run(
            [sys.executable, "-m", "repro.harness", "all",
             "--benchmarks", name, "--scale", repr(scale),
             "--cache-dir", str(cache_dir), "--quiet",
             "--metrics-out", str(metrics_path)],
            env=child_env(), capture_output=True, text=True)
        ops.append(meter.lap()[0])
        ctx.op(done.returncode == 0)
        if done.returncode != 0:
            log("warm rerun of %s failed: %s" % (name, done.stderr))
            continue
        counters = json.loads(metrics_path.read_text())["metrics"][
            "counters"]
        answers.append((name, done.stdout,
                        counters.get("harness.stage_runs", 0)))
    return meter, ops, answers


def check_golden(ctx):
    """Tables 1-4 at the pinned golden configuration, byte-identical to
    ``tests/golden/table*.json``."""
    from repro.harness import HarnessConfig, Runner
    from repro.harness.tables import TABLES

    golden_dir = ROOT / "tests" / "golden"
    runner = Runner(HarnessConfig(scale=GOLDEN_SCALE,
                                  hot_threshold=GOLDEN_THRESHOLD,
                                  benchmarks=GOLDEN_BENCHMARKS))
    drifted = []
    for name in sorted(TABLES):
        document = json.loads(json.dumps(TABLES[name](runner).to_dict(),
                                         sort_keys=True))
        text = json.dumps(document, indent=2, sort_keys=True) + "\n"
        path = golden_dir / ("%s.json" % name)
        if ctx.tamper("golden", text) != path.read_text():
            drifted.append(name)
    ctx.gate("golden", not drifted, "drifted: %s" % ", ".join(drifted))


def check_passes(ctx, outputs, answers, runs, mismatches):
    """Every warm CLI output equals the first cold pass's output and ran
    no stage, every later cold pass rendered the same output, and every
    cache read returned the cold pass's summary.  ``runs`` is the number
    of warm CLI processes started."""
    expected = outputs[0]
    bad = [name for name, stdout, stage_runs in answers
           if ctx.tamper("warm_tables", stdout) != expected[name] + "\n"
           or stage_runs != 0]
    bad += [name for round_outputs in outputs[1:]
            for name, text in round_outputs.items() if text != expected[name]]
    ctx.gate("warm_tables", not bad and len(answers) == runs,
             "warm output differs from cold (or recomputed) for %s"
             % ", ".join(sorted(set(bad))))
    ctx.gate("cache_read", mismatches == 0,
             "%d cached summaries differ from the cold pass" % mismatches)


def run(ctx):
    size = SIZES[ctx.size]
    programs = draw(ctx, size["instrs"])
    log("programs: %s" % ", ".join("%s@%s" % p for p in programs))

    if ctx.trace:
        from repro.cpu.executor import Executor
        from repro.dbt import StarDBT
        from repro.harness.cache import ResultCache
        from repro.pin import Pin

        import ladder

        untraced_dir = ctx.work / "cache_untraced"
        untraced = cold_pass(ctx, programs, untraced_dir, NULL_TRACER)
        # The layer calls.  ``harness.summary`` and ``harness.render``,
        # the spans cold_pass opens around its own ops, are not layers:
        # their self time is what the layers leave unattributed.
        layers = ((Executor, "run", "cpu.Executor.run"),
                  (Pin, "run", "pin.Pin.run"),
                  (StarDBT, "run", "dbt.StarDBT.run"),
                  (ResultCache, "get", "harness.ResultCache.get"),
                  (ResultCache, "put", "harness.ResultCache.put"))
        tracer = Tracer()
        for owner, attribute, name in layers:
            tracer.wrap(owner, attribute, name)
        try:
            traced = cold_pass(ctx, programs, ctx.work / "cache_traced",
                               tracer)
        finally:
            tracer.unwrap_all()
        report_trace(ctx, tracer, traced[0], untraced[0], "cold pass",
                     [name for _, _, name in layers])
        ladder.measure_layers(ctx, programs)
        check_golden(ctx)
        _, _, answers = warm_pass(ctx, programs, untraced_dir)
        mismatches = read_pass(ctx, untraced_dir, untraced[3],
                               size["read_batches"])[2]
        check_passes(ctx, [untraced[2], traced[2]], answers, len(programs),
                     mismatches)
        return

    # Rounds of (cold pass on an empty cache, warm pass, reads), each
    # on its own cache: the host's speed wanders over seconds, and
    # spreading the passes over the run lets the medians ride it out.
    cold_times, cold_ops, warm_times, warm_ops, read_ops = [], [], [], [], []
    outputs, answers, mismatches = [], [], 0
    setups = [measure_setup(programs).total]
    for index in range(size["rounds"]):
        cache_dir = ctx.work / ("cache%d" % index)
        meter, ops, round_outputs, stored = cold_pass(
            ctx, programs, cache_dir, NULL_TRACER)
        cold_times.append(meter.total)
        cold_ops += ops
        outputs.append(round_outputs)
        warm, ops, round_answers = warm_pass(ctx, programs, cache_dir)
        warm_times.append(warm.total)
        warm_ops += ops
        answers += round_answers
        read_meter, reads, wrong = read_pass(ctx, cache_dir, stored,
                                             size["read_batches"])
        read_ops += reads
        mismatches += wrong
        setup = measure_setup(programs)
        setups.append(setup.total)
        log("round %d: cold %s, warm %s, reads %s, setup %s"
            % (index, meter.describe(), warm.describe(),
               read_meter.describe(), setup.describe()))
    rss = peak_rss_mb()

    tail_value, percentile = tail(cold_ops)
    log("cold_tail_ms is p%.1f of %d cold ops" % (percentile, len(cold_ops)))
    ctx.metric("setup_s", median(setups), "s")
    ctx.metric("cold_pass_s", median(cold_times), "s")
    ctx.metric("cold_p50_ms", median(cold_ops) * 1000.0, "ms")
    ctx.metric("cold_tail_ms", tail_value * 1000.0, "ms")
    ctx.metric("warm_pass_s", median(warm_times), "s")
    ctx.metric("warm_p50_ms", median(warm_ops) * 1000.0, "ms")
    ctx.metric("read_p50_ms", median(read_ops) * 1000.0, "ms")
    ctx.metric("peak_rss_mb", rss, "MiB")

    check_golden(ctx)
    check_passes(ctx, outputs, answers, len(warm_ops), mismatches)
