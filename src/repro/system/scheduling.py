"""Pluggable ready-task scheduling policies.

The paper's testbench dispatches ready tasks to free cores in FIFO order
("the RTS reads them from the Nexus IO unit in FIFO order").  This module
makes that discipline one policy among several: the machine runtime asks
a :class:`SchedulerPolicy` which queued ready task a freed core should
run next, so dispatch order becomes a swappable experiment axis without
touching the event loop.

A policy only ever sees tasks that are *ready but waiting* — whenever a
core is idle, a newly ready task starts immediately (that is the
machine's contract, not the policy's).  Consequently the default FIFO
policy reproduces the paper's schedules exactly, and golden-trace
makespans are byte-identical.

A policy sees a task as its id plus the two keys the built-in policies
order by, its duration and its function name — never a descriptor — so
the replay kernel of :mod:`repro.sim.batch` drives the built-in
policies straight from a trace's columns (with task slots as ids).

Built-in policies (see :data:`POLICY_REGISTRY`):

``fifo``
    Dispatch in ready order — the paper's discipline and the default.
``sjf`` / ``ljf``
    Priority by task duration: shortest-first drains wide fan-outs of
    small tasks early; longest-first approximates critical-path-first
    for workloads whose long tasks gate the makespan.
``locality``
    Affinity-aware: a freed core prefers the oldest queued task whose
    function it last executed (warm instruction/data caches), falling
    back to FIFO order.  Models a locality-aware RTS on top of the
    hardware manager.
"""

from __future__ import annotations

import abc
from collections import deque
from heapq import heappop, heappush
from typing import Deque, Dict, List, Optional, Set, Tuple, Union

from repro.common.errors import ConfigurationError


class SchedulerPolicy(abc.ABC):
    """Decides which queued ready task a freed core runs next.

    The machine calls :meth:`enqueue` when a task becomes ready while no
    core is idle, and :meth:`select` when a core frees up and the queue
    is non-empty.  Policies are stateful per run; :meth:`reset` must
    return them to a pristine state (machines reset their policy at the
    start of every :meth:`~repro.system.machine.Machine.run`).
    """

    #: Canonical policy name (also the CLI spelling).
    name: str = "abstract"

    #: When true, the machine reports every task start via
    #: :meth:`on_start` (kept opt-in so the default FIFO hot path pays
    #: nothing for it).
    wants_start_events: bool = False

    @abc.abstractmethod
    def reset(self) -> None:
        """Forget all state so the same instance can run another trace."""

    @abc.abstractmethod
    def enqueue(self, task_id: int, duration_us: float, function: str, now: float) -> None:
        """A task (its body's duration and function) became ready while
        all cores were busy."""

    @abc.abstractmethod
    def select(self, core: int, now: float) -> Optional[int]:
        """Pick the queued task that freed ``core`` should run next.

        Only called when :meth:`__len__` reports pending tasks; returns
        the chosen task id (policies must eventually drain every enqueued
        task — starving one would deadlock the simulated machine).
        """

    @abc.abstractmethod
    def __len__(self) -> int:
        """Number of ready tasks currently queued."""

    def on_start(self, task_id: int, function: str, core: int, now: float) -> None:
        """A task of ``function`` started on ``core`` (only called if
        ``wants_start_events``)."""

    def describe(self) -> Dict[str, object]:
        """Serialisable identity of the policy (results metadata, cache keys)."""
        return {"kind": self.name}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"


class FifoPolicy(SchedulerPolicy):
    """Dispatch ready tasks in the order they were reported (the paper)."""

    name = "fifo"

    def __init__(self) -> None:
        self._queue: Deque[int] = deque()

    def reset(self) -> None:
        self._queue.clear()

    def enqueue(self, task_id: int, duration_us: float, function: str, now: float) -> None:
        self._queue.append(task_id)

    def select(self, core: int, now: float) -> Optional[int]:
        return self._queue.popleft() if self._queue else None

    def __len__(self) -> int:
        return len(self._queue)


class DurationPriorityPolicy(SchedulerPolicy):
    """Priority by task duration (shortest- or longest-first).

    Ties (equal durations) fall back to ready order, so the policy stays
    deterministic and degenerates to FIFO on constant-duration traces.
    """

    name = "sjf"

    def __init__(self, longest: bool = False) -> None:
        self.longest = longest
        if longest:
            self.name = "ljf"
        self._heap: List[Tuple[float, int, int]] = []
        self._seq = 0

    def reset(self) -> None:
        self._heap.clear()
        self._seq = 0

    def enqueue(self, task_id: int, duration_us: float, function: str, now: float) -> None:
        key = -duration_us if self.longest else duration_us
        heappush(self._heap, (key, self._seq, task_id))
        self._seq += 1

    def select(self, core: int, now: float) -> Optional[int]:
        return heappop(self._heap)[2] if self._heap else None

    def __len__(self) -> int:
        return len(self._heap)

    def describe(self) -> Dict[str, object]:
        return {"kind": "duration_priority", "order": "longest" if self.longest else "shortest"}


class LocalityPolicy(SchedulerPolicy):
    """Affinity-aware dispatch: prefer the function the core last ran.

    Each core remembers the function of the last task it executed; when
    it frees up it takes the *oldest* queued task of that function, and
    falls back to plain FIFO order when none is queued.  Queues are kept
    per function with lazy deletion, so both paths stay O(1) amortised.
    """

    name = "locality"
    wants_start_events = True

    def __init__(self) -> None:
        self._queue: Deque[int] = deque()
        self._by_function: Dict[str, Deque[int]] = {}
        self._taken: Set[int] = set()
        self._pending = 0
        self._last_function: Dict[int, str] = {}

    def reset(self) -> None:
        self._queue.clear()
        self._by_function.clear()
        self._taken.clear()
        self._pending = 0
        self._last_function.clear()

    def enqueue(self, task_id: int, duration_us: float, function: str, now: float) -> None:
        self._queue.append(task_id)
        bucket = self._by_function.get(function)
        if bucket is None:
            bucket = self._by_function[function] = deque()
        bucket.append(task_id)
        self._pending += 1

    def _pop_live(self, queue: Deque[int]) -> Optional[int]:
        taken = self._taken
        while queue:
            task_id = queue.popleft()
            if task_id in taken:
                taken.discard(task_id)  # consumed its lazy tombstone
                continue
            return task_id
        return None

    def select(self, core: int, now: float) -> Optional[int]:
        if self._pending == 0:
            return None
        chosen: Optional[int] = None
        function = self._last_function.get(core)
        if function is not None:
            bucket = self._by_function.get(function)
            if bucket is not None:
                chosen = self._pop_live(bucket)
        if chosen is None:
            chosen = self._pop_live(self._queue)
            if chosen is None:  # pragma: no cover - guarded by _pending
                return None
        # The task may still sit in the *other* queue; tombstone it there.
        self._taken.add(chosen)
        self._pending -= 1
        return chosen

    def on_start(self, task_id: int, function: str, core: int, now: float) -> None:
        self._last_function[core] = function

    def __len__(self) -> int:
        return self._pending


#: Canonical name -> zero-argument policy factory.
POLICY_REGISTRY = {
    "fifo": FifoPolicy,
    "sjf": lambda: DurationPriorityPolicy(longest=False),
    "ljf": lambda: DurationPriorityPolicy(longest=True),
    "locality": LocalityPolicy,
}

#: Accepted aliases (CLI convenience) -> canonical name.
_POLICY_ALIASES = {
    "fifo": "fifo",
    "default": "fifo",
    "sjf": "sjf",
    "shortest": "sjf",
    "shortest-first": "sjf",
    "ljf": "ljf",
    "longest": "ljf",
    "longest-first": "ljf",
    "locality": "locality",
    "affinity": "locality",
}

PolicyLike = Union[str, SchedulerPolicy]


def canonical_policy_name(policy: PolicyLike) -> str:
    """Normalise a policy spec to its canonical name."""
    if isinstance(policy, SchedulerPolicy):
        return policy.name
    canonical = _POLICY_ALIASES.get(policy.strip().lower())
    if canonical is None:
        raise ConfigurationError(
            f"unknown scheduler policy {policy!r}; expected one of "
            + ", ".join(sorted(POLICY_REGISTRY))
        )
    return canonical


def make_policy(policy: PolicyLike) -> SchedulerPolicy:
    """Build (or pass through) a :class:`SchedulerPolicy` instance."""
    if isinstance(policy, SchedulerPolicy):
        return policy
    return POLICY_REGISTRY[canonical_policy_name(policy)]()


def describe_policy(policy: PolicyLike) -> Dict[str, object]:
    """Canonical serialisable description (sweep cache keys hash this)."""
    return make_policy(policy).describe()


def list_policies() -> List[str]:
    """Canonical names of all built-in policies."""
    return sorted(POLICY_REGISTRY)
