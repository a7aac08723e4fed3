"""Request coalescing and batched dispatch for the serving layer.

Every HTTP request bottoms out in one or more
:class:`~repro.experiments.spec.RunPoint` grid cells, and the batcher is
the single funnel they all pass through:

1. **Cache** — a cell whose spec-hash key is already in the shared
   :class:`~repro.experiments.cache.ResultCache` is answered without
   touching the queue (the same content addressing the sweep runner and
   the distributed fabric use, so results are interchangeable between
   all three).
2. **Single-flight dedupe** — identical cells in flight share one
   simulation: the second..Nth identical request awaits the first one's
   future instead of enqueueing a duplicate.
3. **Admission** — genuinely new cells pass the bounded-queue
   :class:`~repro.serve.admission.AdmissionController` (all-or-nothing
   for multi-cell sweeps) or the request is rejected with a measured
   Retry-After.
4. **Block execution** — admitted cells are grouped into blocks of up
   to :data:`BLOCK_CELLS` and run on a thread-pool executor through
   :func:`repro.experiments.runner.execute_lane_block` (each cell's
   :meth:`Machine.run <repro.system.machine.Machine.run>` picks the fast
   kernel itself).

All bookkeeping runs on the server's event loop (no locks); only the
simulation blocks run on executor threads.
"""

from __future__ import annotations

import asyncio
import time
from collections import OrderedDict, deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.experiments.cache import ResultCache
from repro.experiments.runner import execute_lane_block
from repro.experiments.spec import RunPoint
from repro.serve.admission import AdmissionController, Saturated

__all__ = ["BLOCK_CELLS", "Batcher", "BatcherStats", "Saturated", "execute_block"]

#: Most cells one executor block runs; a burst smaller than this waits up
#: to ``batch_window`` to fill the block.
BLOCK_CELLS = 8

#: Result documents the in-memory memo keeps (least recently used beyond).
MEMO_ENTRIES = 4096


def execute_block(block: List[Tuple[int, RunPoint]]) -> List[Tuple[int, Dict[str, Any]]]:
    """Run one block of grid cells on this executor thread."""
    return execute_lane_block(block)


@dataclass
class BatcherStats:
    """Serving counters (reported by ``GET /v1/stats``)."""

    requests: int = 0
    cells: int = 0
    cache_hits: int = 0
    coalesced: int = 0
    executed: int = 0
    rejected: int = 0
    blocks: int = 0
    errors: int = 0
    started_at: float = field(default_factory=time.time)

    def to_json(self) -> Dict[str, Any]:
        return {
            "requests": self.requests,
            "cells": self.cells,
            "cache_hits": self.cache_hits,
            "coalesced": self.coalesced,
            "executed": self.executed,
            "rejected": self.rejected,
            "blocks": self.blocks,
            "errors": self.errors,
            "uptime_s": round(time.time() - self.started_at, 3),
        }


class _Pending:
    """One admitted cell waiting for (or running in) a block."""

    __slots__ = ("point", "key", "future")

    def __init__(self, point: RunPoint, key: Optional[str], future: asyncio.Future) -> None:
        self.point = point
        self.key = key
        self.future = future


class Batcher:
    """The cache → dedupe → admit → batch funnel (event-loop resident).

    Parameters
    ----------
    cache:
        Shared on-disk result store, or ``None``.  Independently of it,
        the batcher keeps a bounded in-memory memo of results by cache
        key, so repeated identical requests are warm even on a server
        without a cache directory.
    batch_window:
        Seconds the dispatcher waits for a partial block (fewer than
        :data:`BLOCK_CELLS` cells) to fill before
        running it anyway — the latency cost of coalescing (default 2 ms).
    max_pending:
        Bounded-queue depth handed to the :class:`AdmissionController`.
    executor_threads:
        Simulation threads.  Simulations are pure Python (GIL-bound), so
        this overlaps simulation with request I/O.
    chaos:
        Optional :class:`~repro.chaos.hooks.ServeChaos` (or a
        :class:`~repro.chaos.plan.FaultPlan` to wrap in one):
        deterministic injected engine failures per admitted request,
        for soak tests of the failure path.
    """

    def __init__(
        self,
        *,
        cache: Optional[ResultCache] = None,
        batch_window: float = 0.002,
        max_pending: int = 256,
        executor_threads: int = 2,
        chaos: Optional[Any] = None,
    ) -> None:
        self.cache = cache
        self.batch_window = batch_window
        self.admission = AdmissionController(max_pending)
        self.stats = BatcherStats()
        if chaos is not None and not hasattr(chaos, "maybe_fail"):
            from repro.chaos.hooks import ServeChaos

            chaos = ServeChaos(chaos)
        self.chaos = chaos
        self._executor = ThreadPoolExecutor(
            max_workers=executor_threads, thread_name_prefix="serve-sim")
        self._memo: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self._queue: deque[_Pending] = deque()
        self._inflight: Dict[str, asyncio.Future] = {}
        self._wakeup: Optional[asyncio.Event] = None
        self._dispatcher: Optional[asyncio.Task] = None
        self._block_tasks: set = set()
        self._closed = False

    # -- lifecycle ---------------------------------------------------------
    async def start(self) -> None:
        """Start the dispatcher on the running event loop."""
        self._wakeup = asyncio.Event()
        self._dispatcher = asyncio.create_task(
            self._dispatch_loop(), name="serve-batcher")

    async def close(self) -> None:
        """Stop dispatching; fail whatever is still queued."""
        self._closed = True
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
        while self._queue:
            pending = self._queue.popleft()
            if not pending.future.done():
                pending.future.set_exception(
                    ConnectionError("server shutting down"))
            self._forget(pending)
        if self._block_tasks:
            await asyncio.gather(*self._block_tasks, return_exceptions=True)
        self._executor.shutdown(wait=False, cancel_futures=True)

    # -- submission --------------------------------------------------------
    def lookup(self, point: RunPoint) -> Tuple[Optional[str], Optional[Dict[str, Any]]]:
        """Resolve a cell against memo + cache: ``(key, cached_document)``."""
        key = point.cache_key() if point.cacheable else None
        if key is None:
            return None, None
        document = self._memo.get(key)
        if document is not None:
            self._memo.move_to_end(key)
            return key, document
        if self.cache is not None:
            document = self.cache.get(key)
            if document is not None:
                self._remember(key, document)
            return key, document
        return key, None

    def _remember(self, key: str, document: Dict[str, Any]) -> None:
        self._memo[key] = document
        self._memo.move_to_end(key)
        while len(self._memo) > MEMO_ENTRIES:
            self._memo.popitem(last=False)

    def submit_many(self, points: List[RunPoint]) -> List["asyncio.Future[Dict[str, Any]]"]:
        """Admit a batch of cells atomically; return one awaitable each.

        Runs entirely synchronously on the event loop: cache lookups and
        dedupe first, then **one** all-or-nothing admission check for the
        genuinely new cells — a saturated queue rejects the whole request
        (:class:`Saturated`) without enqueueing half of it.  The returned
        futures resolve to result documents in the order of ``points``.
        """
        if self._closed:
            raise ConnectionError("server shutting down")
        loop = asyncio.get_running_loop()
        self.stats.requests += 1
        self.stats.cells += len(points)
        if self.chaos is not None:
            # Injected *before* admission so a failed request holds no
            # queue slots; it surfaces exactly like an engine bug (500).
            try:
                self.chaos.maybe_fail()
            except Exception:
                self.stats.errors += 1
                raise

        resolved: List[Tuple[RunPoint, Optional[str], Optional[Dict[str, Any]]]] = []
        fresh = 0
        seen_keys: Dict[str, int] = {}
        for point in points:
            key, cached = self.lookup(point)
            resolved.append((point, key, cached))
            if cached is None and (key is None or (
                    key not in self._inflight and key not in seen_keys)):
                fresh += 1
                if key is not None:
                    seen_keys[key] = fresh
        self.admission.try_acquire(fresh)  # raises Saturated; nothing queued

        futures: List[asyncio.Future] = []
        enqueued: Dict[str, asyncio.Future] = {}
        for point, key, cached in resolved:
            if cached is not None:
                self.stats.cache_hits += 1
                future = loop.create_future()
                future.set_result(cached)
                futures.append(future)
                continue
            if key is not None:
                shared = self._inflight.get(key) or enqueued.get(key)
                if shared is not None:
                    self.stats.coalesced += 1
                    futures.append(shared)
                    continue
            future = loop.create_future()
            if key is not None:
                self._inflight[key] = future
                enqueued[key] = future
            self._queue.append(_Pending(point, key, future))
            futures.append(future)
        if self._wakeup is not None:
            self._wakeup.set()
        return futures

    async def submit(self, point: RunPoint) -> Dict[str, Any]:
        """Admit one cell and await its result document."""
        [future] = self.submit_many([point])
        # shield: a client disconnecting must not cancel a simulation
        # other coalesced requests may be awaiting.
        return await asyncio.shield(future)

    # -- dispatch ----------------------------------------------------------
    async def _dispatch_loop(self) -> None:
        assert self._wakeup is not None
        while True:
            await self._wakeup.wait()
            self._wakeup.clear()
            while self._queue:
                if 0 < len(self._queue) < BLOCK_CELLS and self.batch_window > 0:
                    # Let a burst coalesce into a fuller block.
                    await asyncio.sleep(self.batch_window)
                block = [
                    self._queue.popleft()
                    for _ in range(min(BLOCK_CELLS, len(self._queue)))
                ]
                task = asyncio.create_task(self._run_block(block))
                self._block_tasks.add(task)
                task.add_done_callback(self._block_tasks.discard)

    async def _run_block(self, block: List[_Pending]) -> None:
        loop = asyncio.get_running_loop()
        indexed = list(enumerate(pending.point for pending in block))
        started = time.monotonic()
        try:
            pairs = await loop.run_in_executor(self._executor, execute_block, indexed)
        except Exception as exc:
            self.stats.errors += len(block)
            self.admission.release(len(block), time.monotonic() - started)
            for pending in block:
                self._forget(pending)
                if not pending.future.done():
                    pending.future.set_exception(exc)
            return
        self.stats.executed += len(block)
        self.stats.blocks += 1
        self.admission.release(len(block), time.monotonic() - started)
        documents = dict(pairs)
        for position, pending in enumerate(block):
            document = documents[position]
            if pending.key is not None:
                self._remember(pending.key, document)
                if self.cache is not None:
                    self.cache.put(pending.key, document)
            self._forget(pending)
            if not pending.future.done():
                pending.future.set_result(document)

    def _forget(self, pending: _Pending) -> None:
        if pending.key is not None and self._inflight.get(pending.key) is pending.future:
            del self._inflight[pending.key]
