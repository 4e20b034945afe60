"""Concurrency lint rules for the service stack (TEA080-TEA082).

Thin adapters over :class:`repro.audit.concurrency.ConcurrencyAnalysis`
— the analysis computes the findings, these rules attribute them to
stable ids so the audit CLI, SARIF output and baselines treat
concurrency defects like any other verification finding:

- TEA080 — a blocking call (file I/O, ``time.sleep``, store access)
  is reachable from an asyncio coroutine without ``run_in_executor``;
- TEA081 — lock discipline: awaiting under a ``threading.Lock``,
  acquiring an ``asyncio.Lock`` with a plain ``with``, or nesting
  locks against the documented order;
- TEA082 — a module-level ``*_CACHE`` dict is mutated outside a lock.

The rules run over the ``python_source`` subject facet (populated by
:func:`repro.verify.api.verify_python_source` and the audit
scheduler's source-tree walk).  A module that does not parse is
reported once, by TEA080.
"""

from repro.verify.engine import Rule, register

#: ConcurrencyAnalysis check id -> the rule that owns it.
_CHECK_OWNERS = {
    "blocking-call": "TEA080",
    "lock-discipline": "TEA081",
    "unguarded-cache": "TEA082",
}


def _analysis(subject):
    """Build the analysis, or ``(None, error)`` on a parse failure."""
    from repro.audit.concurrency import ConcurrencyAnalysis

    try:
        return ConcurrencyAnalysis(subject.python_source,
                                   filename=subject.source), None
    except SyntaxError as error:
        return None, error


class _ConcurrencyRule(Rule):
    family = "concurrency"
    requires = ("python_source",)

    def check(self, subject):
        analysis, error = _analysis(subject)
        if analysis is None:
            if self.rule_id == "TEA080":
                yield self.diag("module does not parse: %s" % error,
                                line=getattr(error, "lineno", None))
            return
        for finding in analysis.all_findings():
            if _CHECK_OWNERS.get(finding.check) != self.rule_id:
                continue
            yield self.diag(
                finding.message,
                location="L%s" % finding.lineno,
                line=finding.lineno,
            )


class AsyncBlockingCall(_ConcurrencyRule):
    rule_id = "TEA080"
    name = "async-blocking-call"
    description = (
        "A blocking call (file I/O, time.sleep, synchronous socket or "
        "store access) is reachable from an asyncio coroutine without "
        "run_in_executor — it stalls the event loop for every client."
    )
    paper = "ROADMAP (replay service: zero dropped answers under load)"


class LockDiscipline(_ConcurrencyRule):
    rule_id = "TEA081"
    name = "lock-discipline"
    description = (
        "Lock discipline violation: awaiting while holding a "
        "threading.Lock, acquiring an asyncio.Lock without 'async "
        "with', or nesting locks against the documented order "
        "(_PROCESS_LOCK < _jit_lock < _log_lock)."
    )
    paper = "docs/audit.md (lock discipline)"


class UnguardedSharedCache(_ConcurrencyRule):
    rule_id = "TEA082"
    name = "unguarded-shared-cache"
    description = (
        "A module-level *_CACHE dict is mutated outside a lock — "
        "racy when the module is used from threads (service worker "
        "pools, mapping cache)."
    )
    paper = "docs/store_v2.md (process-shared mapping cache)"


register(AsyncBlockingCall())
register(LockDiscipline())
register(UnguardedSharedCache())
