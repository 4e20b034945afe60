"""Shared plumbing for the benchmark: paths, sizing, statistics, spans.

Nothing here imports ``repro`` at module level, so a checkout without
``src/repro`` reaches :func:`import_repro` and fails there, cleanly.
"""

import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for stores, caches and server files; removed after a run.
WORK_ROOT = ROOT / ".bench_work"
#: Span dumps of traced runs (kept after the run).
OUT_ROOT = ROOT / ".bench_out"

#: Guest instructions (Pin counting) each benchmark executes at scale
#: 1.0.  Inputs are sized by instruction count through this table, so a
#: seeded draw changes which programs run, not how much they execute.
INSTRS_AT_SCALE_1 = {
    "168.wupwise": 69526, "171.swim": 109832, "172.mgrid": 83345,
    "173.applu": 63841, "177.mesa": 80811, "178.galgel": 109671,
    "179.art": 67345, "183.equake": 49393, "187.facerec": 52376,
    "188.ammp": 73822, "189.lucas": 62126, "191.fma3d": 105616,
    "200.sixtrack": 131515, "301.apsi": 105905, "164.gzip": 275803,
    "175.vpr": 75387, "176.gcc": 332910, "181.mcf": 51942,
    "186.crafty": 203828, "197.parser": 115642, "252.eon": 62472,
    "253.perlbmk": 96412, "254.gap": 56170, "255.vortex": 211644,
    "256.bzip2": 614492, "300.twolf": 89637,
}

#: The default hot threshold of ``python -m repro.harness`` and
#: ``repro.service build``.
HOT_THRESHOLD = 30


#: Relative tolerance of total-cycles comparisons between the compiled
#: replay engine and ``step()`` (engine ``object``).  The compiled engine
#: charges costs in another float order; the totals differ in the last
#: bits (about 1e-13 relative).  Stats and coverage must match exactly.
CYCLES_RTOL = 1e-9


class MissingProgram(Exception):
    """The checkout has no ``src/repro`` to benchmark."""


def import_repro():
    """Put ``src`` on ``sys.path``; raise :class:`MissingProgram` when the
    package is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise MissingProgram("no src/repro package under %s" % ROOT)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env():
    """Environment for child Python processes: ``src`` on the path."""
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    return env


def scale_for(name, instrs):
    """The workload scale at which ``name`` runs about ``instrs``
    guest instructions."""
    return round(instrs / INSTRS_AT_SCALE_1[name], 4)


def log(message):
    print("[teabench] %s" % message, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------

def median(values):
    return statistics.median(values)


def tail(values):
    """``(value, percentile)`` of the highest nearest-rank percentile
    that still has at least ten samples above it."""
    ordered = sorted(values)
    rank = len(ordered) - 10
    if rank < 1:
        raise ValueError("a tail needs at least 11 samples, got %d"
                         % len(ordered))
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def peak_rss_mb():
    """Peak resident set of this process, MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def vmhwm_mb(pid):
    """Peak resident set (``VmHWM``) of process ``pid``, MiB."""
    with open("/proc/%d/status" % pid) as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise ValueError("no VmHWM for pid %d" % pid)


# ---------------------------------------------------------------------
# host speed
# ---------------------------------------------------------------------

#: The calibration kernel's run time on the reference host (2 cores,
#: Python 3.11.7).  End-to-end times are reported in reference-host
#: seconds: measured seconds x REFERENCE_KERNEL_S / (kernel time measured
#: right next to them).  The shared host this benchmark was built on
#: changes speed by up to 30% from one minute to the next; the kernel
#: slows down with it, so the ratio removes the drift (see README.md).
REFERENCE_KERNEL_S = 0.005
#: The same for the two other probes, scaled to the kernel's reference:
#: times of whole child processes follow a fresh interpreter's start,
#: and cache reads follow reading and decoding a small JSON file, better
#: than either follows the kernel.
REFERENCE_PROCESS_S = 0.075
REFERENCE_IO_S = 0.006

#: A fresh interpreter importing a fixed set of standard modules.
_PROCESS_PROBE = [sys.executable, "-c", "import argparse, decimal, "
                  "email.parser, fractions, json, statistics"]


def _kernel():
    """Fixed pure-Python work (dict, int and str operations) that no
    change to ``src/repro`` can make faster or slower."""
    table = {}
    total = 0
    for i in range(12_000):
        table[i & 511] = table.get((i * 7) & 511, 0) + i
        total += len(str(i))
    return total


def _start_process():
    subprocess.run(_PROCESS_PROBE, check=True)


#: A fixed JSON document of about the size of a cached stage summary.
_IO_PROBE_TEXT = json.dumps({"k%d" % i: [i, str(i), {"x": i * 0.5}]
                             for i in range(100)})


def _read_json(path):
    for _ in range(50):
        with open(path) as handle:
            json.loads(handle.read())


def _slowdown(work, reference):
    """The better of two runs of ``work`` over its reference time."""
    best = None
    for _ in range(2):
        started = time.perf_counter()
        work()
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return best / reference


def host_factor():
    """How many times slower than the reference host this host runs
    pure-Python work right now."""
    return _slowdown(_kernel, REFERENCE_KERNEL_S)


def process_factor():
    """The same for starting a Python process."""
    return _slowdown(_start_process, REFERENCE_PROCESS_S)


def io_factor(work):
    """The same for fifty reads and decodes of a small JSON file, which
    is written under ``work`` on first use."""
    path = work / "io_probe.json"
    if not path.exists():
        path.write_text(_IO_PROBE_TEXT)
    return _slowdown(lambda: _read_json(path), REFERENCE_IO_S)


class Meter:
    """A host-normalized stopwatch.

    Every :meth:`lap` probes the host speed (with ``probe``, one of the
    ``*_factor`` functions); a lap's wall time is divided by the mean of
    the probes on either side of it.  Probe time belongs to no lap.
    ``total`` sums the normalized laps, ``raw`` the measured ones;
    ``factors`` keeps every probe.
    """

    def __init__(self, probe=host_factor):
        self._probe = probe
        self.factors = [probe()]
        self._since = time.perf_counter()
        self.total = 0.0
        self.raw = 0.0

    def lap(self):
        """``(normalized seconds since the last lap, host factor)``."""
        elapsed = time.perf_counter() - self._since
        self.factors.append(self._probe())
        factor = (self.factors[-2] + self.factors[-1]) / 2.0
        self.total += elapsed / factor
        self.raw += elapsed
        self._since = time.perf_counter()
        return elapsed / factor, factor

    def describe(self):
        """Normalized and raw seconds and the range of host factors, for
        the log, where raw and normalized times can be compared."""
        return "%.3f s (raw %.3f s, host x%.2f-%.2f)" % (
            self.total, self.raw, min(self.factors), max(self.factors))


# ---------------------------------------------------------------------
# one run's context and result
# ---------------------------------------------------------------------

class Context:
    """Everything a workload needs: its seed, size, work directory and
    the fault to inject; it collects the metrics and op counts."""

    def __init__(self, workload, seed, size, trace, fault):
        self.workload = workload
        self.seed = seed
        self.size = size
        self.trace = trace
        self.fault = fault
        self.rng = random.Random("%s:%d" % (workload, seed))
        self.work = WORK_ROOT / ("%s-%d" % (workload, os.getpid()))
        self.metrics = {}
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def __enter__(self):
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        return self

    def __exit__(self, *exc):
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
        return False

    def metric(self, name, value, unit):
        self.metrics[name] = {"value": value, "unit": unit}

    def op(self, ok=True):
        """Count one attempted operation (and a failure when not ``ok``)."""
        self.attempted += 1
        if not ok:
            self.failed += 1

    def tamper(self, gate, value):
        """``value``, or a corrupted copy when ``--inject-fault`` names
        ``gate``: the gate then compares damaged data and must trip."""
        if self.fault != gate:
            return value
        if isinstance(value, str):
            return value + "#"
        if isinstance(value, bytes):
            return bytes([value[0] ^ 1]) + value[1:]
        if isinstance(value, (int, float)):
            return value + 1
        if isinstance(value, dict):
            return dict(value, injected_fault=True)
        raise TypeError("cannot tamper with %r" % type(value))

    def gate(self, name, ok, detail=""):
        """Record a correctness gate; a failing gate fails the run."""
        if ok:
            log("gate %s: ok" % name)
        else:
            log("gate %s: FAILED %s" % (name, detail))
            self.failures.append(name)

    @property
    def correct(self):
        return not self.failures and self.failed == 0

    def result(self):
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.metrics,
        }


# ---------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------

class _NullTracer:
    """Spans off: the passes of the untraced runs."""

    def span(self, name):
        return nullcontext()

    def interval(self, name, start, end):
        pass


NULL_TRACER = _NullTracer()


class Tracer:
    """In-memory spans ``[name, start, end, parent index]``, written out
    when the run ends.  Single-threaded: the benchmark's passes are."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []

    @contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def interval(self, name, start, end):
        """Record a span timed elsewhere, such as a request in flight
        beside others, which no stack of nested spans can hold."""
        self.spans.append([name, start, end, None])

    def wrap(self, owner, attribute, name):
        """Open span ``name`` around every call of ``owner.attribute``
        until :meth:`unwrap_all`."""
        original = getattr(owner, attribute)
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name):
                return original(*args, **kwargs)

        setattr(owner, attribute, traced)
        self._patched.append((owner, attribute, original))

    def unwrap_all(self):
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    def self_times(self):
        """name -> (calls, total seconds, self seconds)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        table = {}
        for index, (name, start, end, parent) in enumerate(self.spans):
            calls, total, own = table.get(name, (0, 0.0, 0.0))
            duration = end - start
            table[name] = (calls + 1, total + duration,
                           own + duration - child_time[index])
        return table

    def covered_seconds(self, names):
        """Seconds during which at least one span named in ``names`` was
        open: the union of their intervals, so nested and overlapping
        spans count once."""
        covered, reach = 0.0, None
        for start, end in sorted((start, end)
                                 for name, start, end, _ in self.spans
                                 if name in names):
            if reach is None or start > reach:
                covered += end - start
                reach = end
            elif end > reach:
                covered += end - reach
                reach = end
        return covered

    def dump(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            json.dump({"spans": self.spans}, handle)


def report_trace(ctx, tracer, traced, untraced, label, layers):
    """Record overhead and unattributed share from the two passes'
    meters; print the self-time table and write the spans out.

    ``layers`` names the spans that time a call into a layer of
    ``repro``; spans the workload opens around its own ops are left out,
    so the unattributed share is the time of the traced pass that no
    layer call covers.
    """
    ctx.metric("trace.overhead_s", traced.total - untraced.total, "s")
    unattributed = traced.raw - tracer.covered_seconds(set(layers))
    ctx.metric("trace.unattributed_share",
               max(unattributed, 0.0) / traced.raw, "ratio")
    log("traced %s: %s; untraced %s; unattributed %.3f s of raw"
        % (label, traced.describe(), untraced.describe(), unattributed))
    log("self times:")
    for name, (calls, total, own) in sorted(
            tracer.self_times().items(), key=lambda item: -item[1][2]):
        log("  %-28s %6d calls  total %8.3f s  self %8.3f s"
            % (name, calls, total, own))
    path = OUT_ROOT / ("trace-%s-seed%d.json" % (ctx.workload, ctx.seed))
    tracer.dump(path)
    log("spans written to %s" % path.relative_to(ROOT))
