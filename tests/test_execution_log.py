"""One execution log shared by every engine, bit-exact by construction.

Pin, StarDBT and the native baseline consume an
:class:`~repro.cpu.log.ExecutionLog` and make the same cost-model
charges in the same order as when each ran the interpreter itself, so a
log shared across many consumers must give exactly what a fresh log per
consumer gives — every float included, no tolerance.  The harness
records one log per benchmark and hands it to all ten stages.
"""

import gc
import json
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from repro.cpu import ExecutionLog, Executor
from repro.dbt import StarDBT
from repro.harness import HarnessConfig, Runner, STAGES
from repro.harness.__main__ import main as harness_main
from repro.harness.figures import render_all
from repro.harness.summary import build_summary
from repro.harness.tables import TABLES
from repro.isa import assemble
from repro.pin import Pin, TeaReplayTool, run_native
from repro.traces.recorder import RecorderLimits
from repro.workloads import load_benchmark
from tests.test_fuzz_pipeline import random_programs

#: Between them these cover every event kind the executor emits: REP
#: splits (177.mesa), indirect jumps (183.equake) and indirect calls
#: (254.gap), besides plain loops and calls.  Each fresh log pays the
#: interpreter's per-program decode, which is why the comparison does
#: not sweep all 26 benchmarks.
SUMMARY_BENCHMARKS = ["177.mesa", "183.equake", "254.gap", "181.mcf",
                      "175.vpr"]
BUDGET = 2_000_000

LOOP = """
main:
    mov ebx, 400
outer:
    mov ecx, 4
    mov esi, src
    mov edi, dst
    rep movsd
    dec ebx
    jnz outer
    hlt
.data
src: .word 1,2,3,4
dst: .zero 4
"""


def _counting_executor_runs(monkeypatch):
    calls = []
    real_run = Executor.run

    def run(self, on_event=None):
        calls.append(self.program)
        return real_run(self, on_event)

    monkeypatch.setattr(Executor, "run", run)
    return calls


@pytest.mark.parametrize("engine", ["object", "compiled"])
def test_shared_log_summaries_match_fresh_runners(engine):
    for name in SUMMARY_BENCHMARKS:
        config = HarnessConfig(scale=0.01, hot_threshold=5,
                               benchmarks=[name], engine=engine)
        shared = Runner(config)
        for stage in STAGES:
            assert (shared.summary(name, stage)
                    == Runner(config).summary(name, stage)), (name, stage)
        counters = shared.metrics_snapshot()["metrics"]["counters"]
        assert counters["harness.executions"] == 1


@given(random_programs(), st.sampled_from(["object", "compiled"]))
@settings(max_examples=15, deadline=None)
def test_shared_log_matches_fresh_log_per_engine(program, engine):
    log = ExecutionLog.record(program, BUDGET)
    limits = RecorderLimits(hot_threshold=5)

    def dbt(shared_log):
        return StarDBT(program, limits=limits,
                       max_instructions=BUDGET).run(shared_log)

    def replay(shared_log, trace_set):
        tool = TeaReplayTool(trace_set=trace_set, engine=engine)
        result = Pin(program, tool=tool,
                     max_instructions=BUDGET).run(shared_log)
        return result, tool.stats.as_dict()

    for shared, fresh in (
        (dbt(log), dbt(None)),
        (run_native(program, BUDGET, log=log), run_native(program, BUDGET)),
    ):
        assert shared.cycles == fresh.cycles
        assert shared.cost.breakdown == fresh.cost.breakdown
        assert shared.instrs_pin == fresh.instrs_pin
    trace_set = dbt(log).trace_set
    (shared, shared_stats), (fresh, fresh_stats) = (
        replay(log, trace_set), replay(None, trace_set))
    assert shared.cycles == fresh.cycles
    assert shared.cost.breakdown == fresh.cost.breakdown
    assert shared.blocks == fresh.blocks
    assert shared_stats == fresh_stats


@pytest.mark.parametrize("name", ["164.gzip", "183.equake"])
def test_run_native_without_a_log_records_none(monkeypatch, name):
    program = load_benchmark(name, scale=0.05).program
    logged = run_native(program, BUDGET,
                        log=ExecutionLog.record(program, BUDGET))

    def no_recording(*args, **kwargs):
        raise AssertionError("run_native recorded a log it did not need")

    monkeypatch.setattr(ExecutionLog, "record", no_recording)
    bare = run_native(program, BUDGET)
    assert bare.cycles == logged.cycles
    assert bare.cost.breakdown == logged.cost.breakdown
    assert ((bare.instrs_dbt, bare.instrs_pin, bare.blocks, bare.halted)
            == (logged.instrs_dbt, logged.instrs_pin, logged.blocks,
                logged.halted))


def test_benchmark_executes_once_and_its_log_is_released(monkeypatch):
    calls = _counting_executor_runs(monkeypatch)
    runner = Runner(HarnessConfig(scale=0.01, hot_threshold=5,
                                  benchmarks=["181.mcf", "175.vpr"]))
    runner.prefetch(benchmarks=["181.mcf"])
    assert len(calls) == 1
    first = weakref.ref(runner.execution_log("181.mcf"))
    assert len(calls) == 1
    runner.prefetch()
    gc.collect()
    assert first() is None
    assert len(calls) == 2
    snap = runner.metrics_snapshot()["metrics"]
    assert snap["counters"]["harness.executions"] == 2
    assert snap["timers"]["harness.execute"]["count"] == 2
    assert snap["counters"]["harness.stage_runs"] == 2 * len(STAGES)


def test_looping_log_interns_events_and_transitions():
    log = ExecutionLog.record(assemble(LOOP))
    assert len(log.events) == 800  # a REP split and a jnz per iteration
    assert len({id(event) for event in log.events}) <= 4
    blocks = [t for t in log.transitions if t is not None]
    assert len(blocks) == 400  # the splits merge into the loop block
    assert len({id(transition) for transition in blocks}) <= 3
    assert log.final.next_start is None
    assert repr(log.final).endswith("-> end>")
    assert log.result.instrs_pin > log.result.instrs_dbt


def test_log_of_another_program_or_budget_is_rejected():
    program = assemble(LOOP)
    log = ExecutionLog.record(program)
    other = assemble(LOOP)
    for consume in (
        lambda: Pin(other).run(log),
        lambda: StarDBT(other).run(log),
        lambda: run_native(other, log=log),
    ):
        with pytest.raises(ValueError, match="another program"):
            consume()
    with pytest.raises(ValueError, match="budget"):
        Pin(program, max_instructions=10_000).run(log)
    with pytest.raises(ValueError, match="budget"):
        run_native(program, max_instructions=10_000, log=log)


def test_serial_all_executes_once_per_benchmark(tmp_path, capsys):
    argv = ["all", "--benchmarks", "181.mcf,175.vpr", "--scale", "0.01",
            "--threshold", "5", "--no-cache", "--quiet",
            "--metrics-out", str(tmp_path / "m.json")]
    assert harness_main(argv) == 0
    output = capsys.readouterr().out
    counters = json.loads((tmp_path / "m.json").read_text())[
        "metrics"]["counters"]
    assert counters["harness.executions"] == 2
    assert counters["harness.stage_runs"] == 2 * len(STAGES)
    # Table by table, as before the benchmark-major prefetch.
    runner = Runner(HarnessConfig(scale=0.01, hot_threshold=5,
                                  benchmarks=["181.mcf", "175.vpr"]))
    sections = [TABLES[name](runner).render() for name in sorted(TABLES)]
    sections.append(render_all())
    sections.append(build_summary(runner).render(include_geomean=False))
    assert output == "\n\n\n".join(sections) + "\n"
