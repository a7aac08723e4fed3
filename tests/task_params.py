"""Test helper: build a :class:`~repro.trace.task.Parameter` tuple.

The library's generators never build parameter objects (they write flat
access columns); unit tests that construct a
:class:`~repro.trace.task.TaskDescriptor` by hand use this helper.  The
order — inputs, then inouts, then outputs — is the one
:func:`repro.trace.task.task_accesses` produces.
"""

from __future__ import annotations

from typing import Sequence

from repro.trace.task import DIRECTION_OF_FLAGS, Parameter, task_accesses


def make_params(
    inputs: Sequence[int] = (),
    outputs: Sequence[int] = (),
    inouts: Sequence[int] = (),
) -> tuple[Parameter, ...]:
    addresses, flags, _, _ = task_accesses(inputs, outputs, inouts)
    return tuple(Parameter(address=address, direction=DIRECTION_OF_FLAGS[flag])
                 for address, flag in zip(addresses, flags))
