"""Simulation-as-a-service: the asyncio HTTP/JSON serving layer.

The front door of the reproduction (the ROADMAP's "millions of users"
story): clients submit a trace — inline, as a chunked-JSONL upload, or by
registered workload name — plus a manager/topology/scheduler
configuration, and receive a makespan, a full schedule, or a whole sweep
report.  The layer is built from four pieces:

* :mod:`repro.serve.app` — the HTTP server itself (pure-stdlib asyncio,
  no third-party web framework), with chunked-JSONL streaming for large
  results;
* :mod:`repro.serve.batcher` — request coalescing: identical in-flight
  requests share one simulation (single-flight keyed by the same
  spec-hash cache key the sweep runner uses), distinct requests are
  grouped into blocks run on executor threads, and every finished cell
  is published to the shared :class:`~repro.experiments.cache.ResultCache`;
* :mod:`repro.serve.admission` — bounded-queue back-pressure: past
  saturation the server answers ``429`` with a measured ``Retry-After``
  instead of queueing without bound (the serving-side analogue of
  ``Machine.run_stream``'s ``max_in_flight`` window);
* :mod:`repro.serve.client` — a small synchronous client library used by
  the tests, the load generator and the CLI.

Start a server with ``python -m repro.serve`` (see
:mod:`repro.serve.cli`) or in-process via :func:`start_in_thread`.
Failure semantics are documented in ``docs/serving.md``.
"""

from repro.serve.admission import AdmissionController, Saturated
from repro.serve.app import Server, ServeConfig, start_in_thread
from repro.serve.batcher import Batcher, BatcherStats
from repro.serve.client import ServeClient, ServeError, ServeSaturated

__all__ = [
    "AdmissionController",
    "Batcher",
    "BatcherStats",
    "Saturated",
    "ServeClient",
    "ServeConfig",
    "ServeError",
    "ServeSaturated",
    "Server",
    "start_in_thread",
]
