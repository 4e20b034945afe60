"""One recorded execution of a program, shared by every engine.

The SX86 interpreter is deterministic: a program and an instruction
budget fix its event stream.  Engines that only *observe* that stream —
MiniPin, the StarDBT runtime, the native baseline, the differential
checkers — therefore need not each re-run the interpreter.  This is the
record/replay split of the paper's Table 2 (StarDBT records, Pin
replays), taken down to the event stream itself.

:meth:`ExecutionLog.record` runs :class:`~repro.cpu.executor.Executor`
once and feeds every event through one StarDBT-flavour
:class:`~repro.cfg.builder.DynamicBlockBuilder`.  The log keeps:

- ``events``: every :class:`~repro.cpu.events.EdgeEvent`, in order;
- ``transitions``: a parallel list holding the
  :class:`~repro.cfg.builder.BlockTransition` each event completed, or
  ``None`` where the builder merged a split event into its block;
- ``final``: the trailing transition the builder flushed at halt;
- ``residual_pin``: Pin-counted instructions after the last event;
- ``result``: the :class:`~repro.cpu.executor.ExecutionResult`.

Identical events — same ``(pc, target, taken, kind, instrs_dbt,
instrs_pin)`` — share one object, and so do identical transitions (same
block start, same shared event, same counts).  A loop's log is then two
lists of references to a handful of objects, so holding one costs little
more than the lists themselves.  Consumers only read these objects.

A log is bound to the program object and budget it was recorded with.
Consumers take an optional log and go through
:meth:`ExecutionLog.resolve`, which records one when none is given and
raises ``ValueError`` for a log of another program or budget.
"""

from repro.cfg.basic_block import BlockIndex
from repro.cfg.builder import FLAVOR_STARDBT, DynamicBlockBuilder
from repro.cpu.executor import DEFAULT_MAX_INSTRUCTIONS, Executor


class ExecutionLog:
    """The interned event and block-transition stream of one run."""

    __slots__ = ("program", "max_instructions", "events", "transitions",
                 "final", "residual_pin", "result", "__weakref__")

    def __init__(self, program, max_instructions, events, transitions,
                 final, residual_pin, result):
        self.program = program
        self.max_instructions = max_instructions
        self.events = events
        self.transitions = transitions
        self.final = final
        self.residual_pin = residual_pin
        self.result = result

    @classmethod
    def record(cls, program, max_instructions=DEFAULT_MAX_INSTRUCTIONS,
               obs=None):
        """Run ``program`` once and log its events and transitions.

        ``obs`` is handed to the executor, whose ``exec.*`` metrics then
        count this one run.
        """
        builder = DynamicBlockBuilder(
            BlockIndex(program), program.entry, flavor=FLAVOR_STARDBT
        )
        feed = builder.feed
        events = []
        transitions = []
        add_event = events.append
        add_transition = transitions.append
        shared_events = {}
        shared_transitions = {}

        def on_event(event):
            key = (event.pc, event.target, event.taken, event.kind,
                   event.instrs_dbt, event.instrs_pin)
            shared = shared_events.get(key)
            if shared is None:
                shared = shared_events[key] = event
            add_event(shared)
            transition = feed(shared)
            if transition is not None:
                # The shared event fixes the block's end.
                key = (transition.block.start, shared,
                       transition.instrs_dbt, transition.instrs_pin)
                found = shared_transitions.get(key)
                if found is None:
                    shared_transitions[key] = transition
                else:
                    transition = found
            add_transition(transition)

        executor = Executor(program, max_instructions=max_instructions,
                            obs=obs)
        result = executor.run(on_event)
        residual_dbt = result.instrs_dbt - sum(
            event.instrs_dbt for event in events)
        residual_pin = result.instrs_pin - sum(
            event.instrs_pin for event in events)
        final = builder.flush(result.final_pc, residual_dbt, residual_pin)
        return cls(program, max_instructions, events, transitions, final,
                   residual_pin, result)

    @classmethod
    def resolve(cls, log, program, max_instructions, obs=None):
        """A fresh recording when ``log`` is ``None``; else ``log``,
        which must have been recorded for ``program`` under
        ``max_instructions`` (``ValueError`` otherwise)."""
        if log is None:
            return cls.record(program, max_instructions, obs=obs)
        if program is not log.program:
            raise ValueError("execution log was recorded for another program")
        if max_instructions != log.max_instructions:
            raise ValueError(
                "execution log was recorded with a budget of %d "
                "instructions, not %d" % (log.max_instructions,
                                          max_instructions)
            )
        return log

    def block_transitions(self):
        """Every StarDBT-flavour block transition in order, ``final``
        last."""
        for transition in self.transitions:
            if transition is not None:
                yield transition
        yield self.final

    def __repr__(self):
        return "<ExecutionLog %d events, %d instrs>" % (
            len(self.events), self.result.instrs_dbt)
