"""Unified resilience policies for the fleet.

One small toolbox shared by every layer that talks to something that can
fail — the serving client, the socket workers and the sweep scheduler:

* :class:`~repro.resilience.retry.RetryPolicy` — exponential backoff
  with **deterministic** jitter and a total deadline budget, plus the
  :func:`~repro.resilience.retry.call_with_retry` driver that honours
  server-suggested delays (``Retry-After``);
* :class:`~repro.resilience.journal.FrontierJournal` — the append-only
  completions log that lets a SIGKILLed sweep scheduler resume from
  where it died instead of from zero;
* :class:`~repro.resilience.quarantine.WorkerQuarantine` — tells a
  *poisoned cell* (same cell kills diverse workers → fail fast, already
  budgeted by the frontier's ``max_attempts``) from a *bad worker*
  (diverse cells fail on one worker → quarantine it).

Semantics are documented in ``docs/resilience.md``.
"""

from repro.resilience.journal import FrontierJournal
from repro.resilience.quarantine import WorkerQuarantine
from repro.resilience.retry import RetryBudgetExhausted, RetryPolicy, call_with_retry

__all__ = [
    "FrontierJournal",
    "RetryBudgetExhausted",
    "RetryPolicy",
    "WorkerQuarantine",
    "call_with_retry",
]
