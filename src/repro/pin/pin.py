"""The MiniPin engine.

Walks a program's :class:`~repro.cpu.log.ExecutionLog` (recording one
when the caller has none) while (a) charging Pin's own overheads per the
cost model and (b) delivering StarDBT-flavour block transitions to the
attached pintool.  Engine overheads, per the cost-model docs:

- ``PIN_BLOCK_STUB`` per *Pin-flavour* dynamic block (splits at
  cpuid/REP), modelling code-cache block dispatch;
- ``PIN_TRANSLATION_PER_INSTR`` the first time each block is executed;
- ``PIN_INDIRECT_EXTRA`` per indirect jump/call/return edge.

Instruction totals are exposed under both counting semantics; coverage
figures computed by TEA tools use Pin counting (REP iterations counted),
which is what makes our Table 2/3 coverages differ slightly from the
DBT's — the Section 4.1 effect.
"""

from repro.cpu.events import EDGE_IND_CALL, EDGE_IND_JMP, EDGE_RET
from repro.cpu.executor import DEFAULT_MAX_INSTRUCTIONS
from repro.cpu.log import ExecutionLog
from repro.dbt.cost import CostModel, CostParameters

_INDIRECT_KINDS = (EDGE_IND_JMP, EDGE_IND_CALL, EDGE_RET)


class PinResult:
    """Outcome of a MiniPin run."""

    __slots__ = ("cost", "instrs_dbt", "instrs_pin", "blocks", "tool", "halted")

    def __init__(self, cost, instrs_dbt, instrs_pin, blocks, tool, halted):
        self.cost = cost
        self.instrs_dbt = instrs_dbt
        self.instrs_pin = instrs_pin
        self.blocks = blocks
        self.tool = tool
        self.halted = halted

    @property
    def cycles(self):
        return self.cost.cycles

    @property
    def megacycles(self):
        return self.cost.megacycles

    def slowdown(self, native_cycles=None):
        """Slowdown versus native execution of the same run."""
        baseline = (
            native_cycles
            if native_cycles is not None
            else self.instrs_pin * self.cost.params.NATIVE_INSTRUCTION
        )
        return self.cycles / baseline if baseline else 0.0

    def __repr__(self):
        return "<PinResult %.1f Mcycles, %d blocks>" % (
            self.megacycles,
            self.blocks,
        )


class Pin:
    """The engine: one instance per program run.

    ``obs`` (optional :class:`~repro.obs.Observability`) is shared with
    the executor and exposed to the attached pintool, so one registry
    holds the whole stack's metrics; engine totals are flushed into
    ``pin.*`` counters at the end of the run.
    """

    def __init__(self, program, tool=None, cost_params=None,
                 max_instructions=DEFAULT_MAX_INSTRUCTIONS, obs=None):
        self.program = program
        self.tool = tool
        self.cost = CostModel(cost_params or CostParameters())
        self.max_instructions = max_instructions
        self.obs = obs
        self._seen_block_ends = set()

    def run(self, log=None):
        """Execute under instrumentation; returns :class:`PinResult`.

        ``log`` is an :class:`~repro.cpu.log.ExecutionLog` of this
        program and budget; when omitted, one is recorded first.
        """
        obs = self.obs
        if obs is None:
            return self._run(log)
        with obs.metrics.timer("pin.run"):
            result = self._run(log)
        metrics = obs.metrics
        metrics.counter("pin.runs").inc()
        metrics.counter("pin.blocks").inc(result.blocks)
        metrics.counter("pin.translated_blocks").inc(
            len(self._seen_block_ends))
        metrics.counter("pin.instructions_dbt").inc(result.instrs_dbt)
        metrics.counter("pin.instructions_pin").inc(result.instrs_pin)
        return result

    def _run(self, log):
        log = ExecutionLog.resolve(log, self.program, self.max_instructions,
                                   obs=self.obs)
        cost = self.cost
        params = cost.params
        stub = params.PIN_BLOCK_STUB
        per_instr = params.PIN_TRANSLATION_PER_INSTR
        indirect_extra = params.PIN_INDIRECT_EXTRA
        charge = cost.charge
        charge_instructions = cost.charge_instructions
        tool = self.tool
        if tool is not None:
            tool.attach(self)
        indirects = 0
        seen_ends = self._seen_block_ends
        deliver = tool.on_transition if tool is not None else None

        # Engine-side costs are per Pin-flavour block: every event
        # (control transfer or splitter) ends one.
        for event, transition in zip(log.events, log.transitions):
            charge("pin_dispatch", stub)
            if event.pc not in seen_ends:
                seen_ends.add(event.pc)
                charge("pin_translation", per_instr * event.instrs_dbt)
            if event.kind in _INDIRECT_KINDS:
                indirects += 1
                charge("pin_indirect", indirect_extra)
            charge_instructions(event.instrs_pin)
            if transition is not None and deliver is not None:
                deliver(transition)

        charge_instructions(log.residual_pin)
        if deliver is not None:
            deliver(log.final)
        if tool is not None:
            tool.on_finish()
        if self.obs is not None:
            self.obs.metrics.counter("pin.indirect_edges").inc(indirects)
        result = log.result
        return PinResult(
            cost,
            result.instrs_dbt,
            result.instrs_pin,
            len(log.events) + 1,
            tool,
            result.halted,
        )


def run_native(program, max_instructions=DEFAULT_MAX_INSTRUCTIONS,
               cost_params=None, log=None):
    """Native baseline: the program alone, one cycle per instruction.

    Returns a :class:`PinResult`-shaped object so harness code can treat
    every configuration uniformly.  ``log`` is an optional
    :class:`~repro.cpu.log.ExecutionLog` of this program and budget.
    """
    result = ExecutionLog.resolve(log, program, max_instructions).result
    cost = CostModel(cost_params or CostParameters())
    cost.charge_instructions(result.instrs_pin)
    return PinResult(
        cost, result.instrs_dbt, result.instrs_pin, result.edges + 1, None,
        result.halted,
    )
