"""Every manager's ``submit``/``finish`` return shape on a three-task trace.

``submit`` returns a plain tuple ``(accept_us, ready)`` and ``finish``
a plain tuple ``(ready, notify_done_us)``; ``ready`` is a tuple of plain
``(task_id, time_us)`` pairs, which is all the machine loops unpack.
"""

import pytest

from repro.managers.ideal import IdealManager
from repro.managers.nanos import NanosManager
from repro.managers.software import VandierendonckManager
from repro.nexus.nexuspp import NexusPlusPlusManager
from repro.nexus.nexussharp import NexusSharpManager
from repro.trace.task import TaskDescriptor

from task_params import make_params

MANAGERS = {
    "ideal": IdealManager,
    "nanos": NanosManager,
    "sw400": VandierendonckManager,
    "nexuspp": NexusPlusPlusManager,
    "nexussharp": NexusSharpManager,
}


def make_task(task_id, inputs=(), outputs=()):
    return TaskDescriptor(task_id=task_id, function="f",
                          params=make_params(inputs=inputs, outputs=outputs),
                          duration_us=1.0)


def ready_pairs(ready, earliest):
    """Check ``ready`` holds plain pairs no earlier than ``earliest``; return the ids."""
    assert type(ready) is tuple
    for pair in ready:
        assert type(pair) is tuple and len(pair) == 2
        task_id, time_us = pair
        assert type(task_id) is int and type(time_us) is float
        assert time_us >= earliest
    return [task_id for task_id, _ in ready]


@pytest.mark.parametrize("key", sorted(MANAGERS))
def test_submit_and_finish_return_ready_pairs(key):
    manager = MANAGERS[key]()
    # Task 0 writes A, task 1 reads A (waits on 0), task 2 writes B.
    submitted = []
    accept = 0.0
    for task in (make_task(0, outputs=[0x40]), make_task(1, inputs=[0x40]),
                 make_task(2, outputs=[0x80])):
        outcome = manager.submit(task, accept)
        assert type(outcome) is tuple
        accept_us, ready = outcome
        assert accept_us >= accept
        submitted.append(ready_pairs(ready, accept))
        accept = accept_us
    assert submitted == [[0], [], [2]]

    finished = []
    for task_id, time_us in ((0, 10.0), (2, 11.0), (1, 30.0)):
        outcome = manager.finish(task_id, time_us)
        assert type(outcome) is tuple
        ready, notify_done_us = outcome
        assert notify_done_us >= time_us
        finished.append(ready_pairs(ready, time_us))
    assert finished == [[1], [], []]
