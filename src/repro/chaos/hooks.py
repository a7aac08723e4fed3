"""Process-level fault hooks: worker crashes/stragglers/hangs, serve errors.

:class:`WorkerChaos` sits in the socket worker's execution loop and is
consulted once per cell *before* execution:

* **crash** — ``os._exit(137)``: the SIGKILL-equivalent.  No goodbye
  frame, no flushed buffers, no atexit; the scheduler learns of the
  death from the socket EOF or the heartbeat timeout and must requeue
  the worker's in-flight cells.
* **straggle** — sleep ×k before executing, making this worker the
  slow tail; speculative duplicate dispatch should re-issue its cells
  elsewhere (first result wins).
* **hang** — the nastiest failure: the worker goes *silent* without
  closing its socket (stops heartbeats, sends nothing, reads nothing).
  Only the scheduler's heartbeat timeout can detect this; once the
  scheduler gives up and closes the connection, the hook notices the
  EOF and exits so test runs never leak a wedged subprocess.

:class:`ServeChaos` is the serving-side hook: a deterministic engine
exception on the Kth admitted request, exercising the batcher's
failure path (shared fate of a batch, client retry).
"""

from __future__ import annotations

import os
import time
from typing import Callable, Dict, Optional

from repro.chaos.plan import FaultPlan
from repro.common.errors import SimulationError
from repro.distributed.protocol import FrameStream, ProtocolError


class WorkerChaos:
    """Per-cell fault hook for one socket worker process.

    ``scope`` must be unique per (worker identity, connection epoch) —
    the scheduler bumps the epoch on every respawn so a crashed worker's
    replacement draws a *fresh* fault stream instead of replaying the
    same crash forever.
    """

    def __init__(self, plan: FaultPlan, scope: str) -> None:
        self.plan = plan
        self.scope = scope
        self._cells = 0
        self.injected: Dict[str, int] = {}

    def before_cell(self, stream: Optional[FrameStream] = None,
                    on_hang: Optional[Callable[[], None]] = None) -> None:
        """Consult the plan before executing the next cell."""
        index = self._cells
        self._cells += 1
        fault = self.plan.decide_cell(self.scope, index)
        if fault is None:
            return
        self.injected[fault] = self.injected.get(fault, 0) + 1
        if fault == "crash":
            os._exit(137)
        elif fault == "straggle":
            time.sleep(self.plan.profile.straggle_s)
        elif fault == "hang":
            if on_hang is not None:
                on_hang()  # stop heartbeats: a hung process sends nothing
            self._hang_until_disconnected(stream)

    @staticmethod
    def _hang_until_disconnected(stream: Optional[FrameStream]) -> None:
        """Sit silent until the scheduler gives up on us, then die."""
        while True:
            if stream is not None:
                try:
                    stream.poll()
                except (OSError, ProtocolError):
                    os._exit(1)
                if stream.eof:
                    os._exit(1)
            time.sleep(0.05)


class ServeChaos:
    """Deterministic engine failures for the serving layer."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._requests = 0
        self.injected = 0

    def maybe_fail(self) -> None:
        """Raise a simulated engine failure when the plan says so.

        Called once per admitted request, before dispatch; the raised
        :class:`SimulationError` follows the exact path a real engine
        bug would take through the batcher and out to the client.
        """
        index = self._requests
        self._requests += 1
        if self.plan.decide_serve(index):
            self.injected += 1
            raise SimulationError(
                f"chaos: injected engine failure on request {index}")
