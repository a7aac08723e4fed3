"""Golden regression test of the serialized trace bytes.

``expected_trace_digests.json`` pins, for every case of
:func:`golden_config.trace_byte_cases`, the sha256 of the bytes
``save_trace`` and ``write_trace_stream`` write and the trace's
``trace_digest`` (the identity of inline sweep workloads and uploaded
traces).  Every registered workload is covered at a small scale, dynamic
ones through their serial elaboration, plus a sparse-id trace, a
``taskwait on`` trace and a trace with parameter sizes.  A diff changes
the on-disk format or every content address built on it: regenerate via
``tests/golden/regenerate.py`` and justify it.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from golden_config import trace_byte_cases, trace_byte_digests

EXPECTED = json.loads((Path(__file__).parent / "expected_trace_digests.json")
                      .read_text(encoding="utf-8"))["traces"]


@pytest.fixture(scope="module")
def cases():
    return trace_byte_cases()


def test_digest_file_covers_every_case(cases):
    assert sorted(EXPECTED) == sorted(cases)


@pytest.mark.parametrize("key", sorted(EXPECTED))
def test_trace_bytes_exact(key, cases):
    assert trace_byte_digests(cases[key]) == EXPECTED[key]
