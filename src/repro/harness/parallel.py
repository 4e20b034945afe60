"""The sharded parallel harness: per-benchmark fan-out over processes.

``python -m repro.harness all`` simulates ten stages per benchmark
(native, three DBT recordings, a bare-Pin run, an empty replay, three
replay configurations, an online recording), each fully independent of
every other benchmark's stages.  The serial :class:`Runner` walks them
one benchmark at a time; this module fans them across
``multiprocessing`` workers, one **shard per benchmark** — the natural
grain, since stages of one benchmark share heavy artifacts (every
replay wants the ``dbt:mret`` trace set) while stages of different
benchmarks share nothing.

Each worker builds a private serial :class:`Runner` (workloads are
generated from the spec's own deterministic seed, so every worker
reproduces bit-identical programs no matter the host or schedule),
executes the benchmark once into an execution log that all its stages
share, computes the requested stage *summaries*, and ships back
``(name, summaries, metrics snapshot)``.  The parent

- merges the per-worker registries into one via
  :meth:`~repro.obs.metrics.MetricsRegistry.merge` (order-independent:
  counters and timers add),
- stores the summaries for the table builders, and
- persists them to the shared :class:`~repro.harness.cache.ResultCache`
  (when one is attached), so the *next* run — serial or parallel —
  skips whatever did not change.

Because workers return plain floats computed by the very same code the
serial runner uses, and the table builders consume only those floats,
a parallel run renders tables **byte-identical** to the serial run's —
``tests/test_parallel_harness.py`` asserts exactly that, and the
golden-table tests pin the shapes.

Note the merged ``harness.<stage>`` phase timers sum *worker* seconds:
with N workers the total can approach N x wall-clock — that is CPU
time, which is the useful quantity when comparing against the serial
run's timers.
"""

import multiprocessing
import os

from repro.harness.cache import stage_key
from repro.harness.runner import (
    HarnessConfig,
    Runner,
    STAGES,
    SummaryProvider,
)
from repro.obs import Observability


def default_jobs():
    """A sensible worker count: the CPUs, capped at the shard count."""
    return max(1, min(os.cpu_count() or 1, len(STAGES)))


def _compute_shard(job):
    """Worker entry point: all requested stages of one benchmark.

    Module-level (not a closure) so it pickles under every
    multiprocessing start method.  Returns the benchmark name, its
    ``{stage: summary}`` dict, and the worker's metrics snapshot.
    """
    config, name, stages = job
    runner = Runner(config)
    summaries = {stage: runner.summary(name, stage) for stage in stages}
    return name, summaries, runner.metrics_snapshot()


class ParallelRunner(SummaryProvider):
    """Drop-in summary provider that shards benchmarks across processes.

    Parameters
    ----------
    config:
        The shared :class:`HarnessConfig` (also the cache-key input).
    jobs:
        Worker process count; ``1`` computes in-process (still through
        the same shard path, so behaviour is identical minus the pool).
    cache:
        Optional :class:`~repro.harness.cache.ResultCache`.  Stages
        found there are never dispatched; freshly computed summaries
        are persisted for future runs.
    progress:
        Optional ``fn(message)`` — shard dispatch/completion lines.
    obs:
        Optional :class:`~repro.obs.Observability`; worker registries
        are merged into it as shards complete.
    """

    def __init__(self, config=None, jobs=None, cache=None, progress=None,
                 obs=None):
        self.config = config or HarnessConfig()
        self.jobs = max(1, int(jobs)) if jobs else default_jobs()
        self.cache = cache
        self.progress = progress
        self.obs = obs if obs is not None else Observability()
        self.obs.metrics.counter("harness.executions")
        self._summaries = {}
        self._prefetched = False

    def _log(self, message):
        if self.progress is not None:
            self.progress(message)

    def metrics_snapshot(self):
        """JSON-able snapshot of the merged harness metrics."""
        return self.obs.snapshot()

    # ------------------------------------------------------------------

    def _serve_from_cache(self, name, stage):
        """Try memory then disk for one stage; returns the summary/None."""
        memo_key = (name, stage)
        found = self._summaries.get(memo_key)
        if found is not None:
            return found
        if self.cache is not None:
            found = self.cache.get(stage_key(name, stage, self.config))
            if found is not None:
                self.obs.metrics.counter("harness.cache_hits").inc()
                self._summaries[memo_key] = found
        return found

    def _absorb(self, name, summaries):
        """Store one shard's summaries and persist them to the cache."""
        for stage, value in summaries.items():
            self._summaries[(name, stage)] = value
            if self.cache is not None:
                self.cache.put(stage_key(name, stage, self.config), value)

    def prefetch(self, benchmarks=None, stages=None):
        """Materialise summaries for ``benchmarks`` x ``stages``.

        Consults the cache first; only benchmarks with at least one
        missing stage become shards, and each shard computes only its
        missing stages.  Returns ``self`` so calls chain.
        """
        names = list(benchmarks) if benchmarks else self.config.benchmarks
        wanted = list(stages) if stages else list(STAGES)
        pending = []
        for name in names:
            missing = [
                stage for stage in wanted
                if self._serve_from_cache(name, stage) is None
            ]
            if missing:
                pending.append((self.config, name, missing))
        if not pending:
            return self
        workers = min(self.jobs, len(pending))
        self._log("dispatching %d shard(s) across %d worker(s)"
                  % (len(pending), workers))
        if workers == 1:
            completions = map(_compute_shard, pending)
            for completion in completions:
                self._finish_shard(*completion)
        else:
            with multiprocessing.Pool(processes=workers) as pool:
                for completion in pool.imap_unordered(_compute_shard,
                                                      pending):
                    self._finish_shard(*completion)
        return self

    def _finish_shard(self, name, summaries, snapshot):
        self._absorb(name, summaries)
        self.obs.metrics.merge(snapshot)
        self._log("%s: shard complete (%d stage(s))" % (name, len(summaries)))

    # ------------------------------------------------------------------

    def summary(self, name, stage):
        """One stage summary; triggers a full prefetch on first miss.

        The full prefetch (rather than a single-stage one) keeps the
        pool busy: the first table build pulls every stage of every
        benchmark in one fan-out instead of faulting them in one at a
        time.
        """
        found = self._summaries.get((name, stage))
        if found is not None:
            return found
        if not self._prefetched:
            self._prefetched = True
            self.prefetch()
            found = self._summaries.get((name, stage))
            if found is not None:
                return found
        # A stage outside STAGES (or a benchmark outside the config):
        # compute just that shard.
        self.prefetch(benchmarks=[name], stages=[stage])
        return self._summaries[(name, stage)]
