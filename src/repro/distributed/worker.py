"""The sweep worker: pull cells over a socket, run them, stream results.

A worker is a small pull-based loop around the existing engine:

1. connect to the scheduler, send ``hello``, receive the ``setup``
   frame (the pickled job table — once per worker, not per cell — plus
   the shared cache directory);
2. ask for work (``need_work``) and execute the assigned cells one at a
   time through :func:`repro.experiments.runner.execute_lane_block` —
   exactly like a local sweep, so results are byte-identical;
3. publish every finished cell into the shared content-addressed
   :class:`~repro.experiments.cache.ResultCache` (atomic writes — a
   worker killed mid-publish can never leave a truncated entry) and
   stream the result document back as a ``result`` frame;
4. between cells, drain control frames without blocking: ``revoke``
   (cells stolen for an idle worker — drop them), ``work`` (more
   cells), ``shutdown`` (clean exit).  A daemon thread sends
   ``heartbeat`` frames so the scheduler can tell a busy worker from a
   dead one.

Standalone entry point (for remote hosts)::

    python -m repro.distributed.worker --connect HOST:PORT [--worker-id ID]

The process exits 0 after a clean ``shutdown`` frame and non-zero when
the scheduler connection is lost.
"""

from __future__ import annotations

import argparse
import socket
import sys
import threading
import time
import traceback
from collections import deque
from typing import Deque, Dict, Optional, Sequence, Set, Tuple

from repro.common.errors import ReproError
from repro.distributed.protocol import FrameStream, ProtocolError, decode_payload
from repro.resilience.retry import RetryBudgetExhausted, RetryPolicy, call_with_retry

#: Default policy for establishing (and re-establishing) the scheduler
#: connection: bounded attempts, exponential backoff, deterministic
#: jitter keyed on the worker identity.
CONNECT_POLICY = RetryPolicy(max_attempts=5, base_delay=0.2, max_delay=2.0)


def run_worker(
    host: str,
    port: int,
    *,
    worker_id: Optional[str] = None,
    connect_policy: Optional[RetryPolicy] = None,
) -> int:
    """Serve one scheduler until it says ``shutdown``; return an exit code.

    The TCP connect is retried under ``connect_policy`` (default:
    :data:`CONNECT_POLICY`) so a worker launched moments before its
    scheduler binds — or pointed at one mid-restart — joins instead of
    dying; exhausting the policy raises
    :class:`~repro.resilience.retry.RetryBudgetExhausted`.
    """
    from repro.experiments import runner
    from repro.experiments.cache import ResultCache
    from repro.experiments.runner import install_workload_table, resolve_job

    policy = connect_policy or CONNECT_POLICY
    sock = call_with_retry(
        lambda: socket.create_connection((host, port)),
        policy,
        retry_on=(OSError,),
        key=f"connect:{worker_id or ''}",
        describe=f"connect to scheduler {host}:{port}",
    )
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    stream = FrameStream(sock)
    stop_heartbeat = threading.Event()
    try:
        stream.send({"type": "hello", "worker_id": worker_id})
        setup = stream.recv(timeout=120)
        if setup is None or setup.get("type") != "setup":
            raise ProtocolError(f"expected a setup frame, got {setup!r}")
        jobs, table = decode_payload(setup["jobs"])
        install_workload_table(table)
        jobs_by_cell: Dict[int, tuple] = {job[0]: job for job in jobs}
        cache = None
        cache_dir = setup.get("cache_dir")
        if cache_dir:
            try:
                cache = ResultCache(cache_dir)
            except OSError:
                cache = None  # no shared filesystem on this host

        chaos_hook = None
        if setup.get("chaos"):
            # Chaos wraps everything *after* the handshake (the plan
            # itself arrives in the setup frame); scopes carry the
            # connection epoch so a respawned worker draws fresh faults.
            from repro.chaos import (
                ChaosFrameStream,
                ChaosResultCache,
                FaultPlan,
                WorkerChaos,
            )

            plan = FaultPlan.from_doc(setup["chaos"])
            epoch = int(setup.get("chaos_epoch") or 0)
            me = str(setup.get("worker_id") or worker_id or "worker")
            stream = ChaosFrameStream.adopt(stream, plan, f"worker:{me}:e{epoch}")
            chaos_hook = WorkerChaos(plan, f"cells:{me}:e{epoch}")
            if cache is not None:
                cache = ChaosResultCache(cache_dir, plan, f"cache:{me}:e{epoch}")

        interval = float(setup.get("heartbeat_interval") or 1.0)

        def _heartbeat() -> None:
            while not stop_heartbeat.wait(interval):
                try:
                    stream.send({"type": "heartbeat"})
                except OSError:
                    return

        threading.Thread(target=_heartbeat, name="fabric-heartbeat",
                         daemon=True).start()

        # When idle, block at most this long before re-asking for work:
        # a dropped ``need_work`` or ``work`` frame must cost one resend
        # interval, not the whole sweep.
        idle_resend = max(1.0, interval)

        queue: Deque[int] = deque()
        revoked: Set[int] = set()
        awaiting_work = True
        stream.send({"type": "need_work"})
        while True:
            if queue:
                frame = stream.poll()
            else:
                try:
                    frame = stream.recv(timeout=idle_resend)
                except TimeoutError:
                    awaiting_work = True
                    stream.send({"type": "need_work"})
                    continue
            while frame is not None:
                kind = frame.get("type")
                if kind == "work":
                    awaiting_work = False
                    for cell in frame["cells"]:
                        # A cell revoked from us earlier can be legally
                        # re-dispatched to us after its thief died.
                        revoked.discard(cell)
                        queue.append(cell)
                elif kind == "revoke":
                    revoked.update(frame["cells"])
                    queue = deque(cell for cell in queue if cell not in revoked)
                elif kind == "shutdown":
                    try:
                        # Best effort: the scheduler may already have
                        # torn the connection down behind the frame.
                        stream.send({"type": "goodbye"})
                    except OSError:
                        pass
                    return 0
                else:
                    raise ProtocolError(f"unexpected frame from scheduler: {kind!r}")
                frame = stream.poll()
            if stream.eof:
                return 1  # scheduler vanished
            cell = None
            while queue:
                candidate = queue.popleft()
                if candidate not in revoked:
                    cell = candidate
                    break
                revoked.discard(candidate)
            if cell is not None:
                if chaos_hook is not None:
                    chaos_hook.before_cell(stream, on_hang=stop_heartbeat.set)
                index, point = resolve_job(jobs_by_cell[cell])
                try:
                    # Looked up per call so layer probes on the runner apply.
                    [(_, doc)] = runner.execute_lane_block([(index, point)])
                except ReproError as exc:
                    # A cell the engine cannot run would fail on every
                    # worker; tell the scheduler instead of letting the
                    # retry budget burn through the pool.
                    stream.send({
                        "type": "error",
                        "cells": [cell],
                        "message": f"{type(exc).__name__}: {exc}",
                        "traceback": traceback.format_exc(),
                    })
                    return 1
                if cache is not None and point.cacheable:
                    cache.put(point.cache_key(), doc)
                stream.send({"type": "result", "cell": index, "doc": doc})
            if not queue and not awaiting_work:
                awaiting_work = True
                stream.send({"type": "need_work"})
    except (OSError, TimeoutError, ProtocolError):
        return 1
    finally:
        stop_heartbeat.set()
        stream.close()


def _parse_endpoint(value: str) -> Tuple[str, int]:
    host, sep, port = value.rpartition(":")
    if not sep or not host:
        raise argparse.ArgumentTypeError(
            f"expected HOST:PORT, got {value!r}")
    try:
        return host, int(port)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad port in {value!r}") from exc


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-sweep-worker",
        description="Join a distributed sweep as a socket worker.",
    )
    parser.add_argument("--connect", type=_parse_endpoint, required=True,
                        metavar="HOST:PORT",
                        help="scheduler endpoint to pull grid cells from")
    parser.add_argument("--worker-id", default=None,
                        help="optional stable identity (shown in scheduler logs)")
    parser.add_argument("--reconnect-attempts", type=int, default=5,
                        help="bounded reconnect budget after a lost scheduler "
                             "connection (default: 5)")
    args = parser.parse_args(argv)
    host, port = args.connect
    policy = RetryPolicy(
        max_attempts=max(1, args.reconnect_attempts),
        base_delay=0.2, max_delay=2.0)
    key = args.worker_id or "worker"
    attempt = 0
    while True:
        try:
            code = run_worker(host, port, worker_id=args.worker_id,
                              connect_policy=policy)
        except RetryBudgetExhausted:
            return 1
        if code == 0:
            return 0
        # A lost connection mid-sweep: rejoin under the same identity
        # (the scheduler bumps our chaos epoch, so an injected crash is
        # not replayed) until the reconnect budget runs out.
        if attempt >= policy.max_attempts - 1:
            return 1
        time.sleep(policy.delay(attempt, key=key))
        attempt += 1


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
