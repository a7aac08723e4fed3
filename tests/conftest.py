"""Shared fixtures for the Nexus# reproduction test suite.

Also registers the hypothesis profiles: ``ci`` (derandomized fixed seed,
bounded examples, no deadline — what the CI workflow selects via
``HYPOTHESIS_PROFILE=ci`` so fuzz tests are reproducible across runs)
and ``thorough`` (for local deep fuzzing).  The default profile stays
untouched for interactive development.
"""

from __future__ import annotations

import gc
import os

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile(
    "thorough",
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

from repro.managers.ideal import IdealManager
from repro.managers.nanos import NanosManager
from repro.managers.software import VandierendonckManager
from repro.nexus.nexuspp import NexusPlusPlusManager
from repro.nexus.nexussharp import NexusSharpConfig, NexusSharpManager
from repro.trace.trace import TraceBuilder
from repro.workloads.synthetic import (
    generate_chain,
    generate_fork_join,
    generate_independent,
    generate_random_dag,
)


def pytest_collection_finish(session):
    """Keep the objects collection created out of later full collections.

    Importing every test module leaves ~100k long-lived objects, and a
    full collection over them pauses the process for 70-90 ms: longer
    than the 50 ms timed phases of the benchmark-harness self-tests, one
    of which then measures no operation at all.  Freezing them after
    collection leaves those collections only the objects tests create.
    """
    gc.collect()
    gc.freeze()


def make_all_managers():
    """Fresh instances of every manager model (used in parametrised tests)."""
    return [
        IdealManager(),
        NanosManager(),
        VandierendonckManager(),
        NexusPlusPlusManager(),
        NexusSharpManager(NexusSharpConfig(num_task_graphs=1, frequency_mhz=100.0)),
        NexusSharpManager(NexusSharpConfig(num_task_graphs=4, frequency_mhz=100.0)),
        NexusSharpManager(NexusSharpConfig(num_task_graphs=6)),
    ]


MANAGER_IDS = ["ideal", "nanos", "sw400", "nexus++", "nexus#1", "nexus#4", "nexus#6"]


@pytest.fixture
def free_port():
    """An OS-assigned free TCP port on loopback.

    Shared by every test that needs to bind a listening socket at a
    known port (serving, fabric schedulers with explicit binds), so
    parallel test runs (``pytest -n``) never collide on a hard-coded
    port: each call asks the kernel for a fresh ephemeral port.
    """
    import socket

    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


@pytest.fixture(params=list(range(len(MANAGER_IDS))), ids=MANAGER_IDS)
def any_manager(request):
    """Parametrised fixture yielding one fresh manager of each kind."""
    return make_all_managers()[request.param]


@pytest.fixture
def tiny_diamond_trace():
    """A 4-task diamond: A -> (B, C) -> D, via data dependencies."""
    builder = TraceBuilder("diamond")
    a = 0x1000
    b = 0x2000
    c = 0x3000
    d = 0x4000
    builder.add_task("A", duration_us=10.0, outputs=[a])
    builder.add_task("B", duration_us=10.0, inputs=[a], outputs=[b])
    builder.add_task("C", duration_us=10.0, inputs=[a], outputs=[c])
    builder.add_task("D", duration_us=10.0, inputs=[b, c], outputs=[d])
    builder.add_taskwait()
    return builder.build()


@pytest.fixture
def independent_trace():
    """Twenty independent 10 µs tasks."""
    return generate_independent(20, duration_us=10.0, seed=7)


@pytest.fixture
def chain_trace():
    """A 15-task serial chain."""
    return generate_chain(15, duration_us=5.0, seed=7)


@pytest.fixture
def fork_join_trace():
    """Three fork-join phases of width 8."""
    return generate_fork_join(3, 8, duration_us=5.0, seed=7)


@pytest.fixture
def random_dag_trace():
    """A moderately sized random DAG used by integration tests."""
    return generate_random_dag(120, max_predecessors=3, seed=11)
