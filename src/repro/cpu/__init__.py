"""The SX86 interpreter.

Replaces the hardware + OS the paper ran on.  The executor runs a
:class:`~repro.isa.program.Program` and emits the *dynamic branch-edge
stream*: one event per control transfer (and per Pin-style block splitter),
carrying the two instruction counts the paper's Section 4.1 contrasts —
StarDBT counts a REP-prefixed instruction once, Pin counts every iteration.

Every higher layer (the DBT, MiniPin, trace recorders, the TEA replayer)
consumes this event stream rather than re-executing instructions, so all
engines observe the identical dynamic control flow.  An
:class:`ExecutionLog` records the stream once, with its StarDBT-flavour
block transitions, so several engines can share one execution.
"""

from repro.cpu.events import (
    EDGE_CALL,
    EDGE_COND,
    EDGE_IND_CALL,
    EDGE_IND_JMP,
    EDGE_JMP,
    EDGE_RET,
    EDGE_SPLIT,
    EdgeEvent,
)
from repro.cpu.executor import ExecutionResult, Executor, run_program
from repro.cpu.log import ExecutionLog
from repro.cpu.machine import Machine

__all__ = [
    "EdgeEvent",
    "EDGE_COND",
    "EDGE_JMP",
    "EDGE_CALL",
    "EDGE_RET",
    "EDGE_IND_JMP",
    "EDGE_IND_CALL",
    "EDGE_SPLIT",
    "ExecutionLog",
    "ExecutionResult",
    "Executor",
    "Machine",
    "run_program",
]
