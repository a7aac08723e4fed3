"""Task descriptors and parameters.

A task, in the OmpSs sense used by the paper, is a function invocation
whose in/out/inout parameters are memory addresses.  The task manager
never looks at the data behind an address — only at the address itself —
so the descriptor stores 48-bit integer addresses (the width transferred
over the PCIe-style link in the hardware prototype).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro.common.constants import ADDRESS_MASK
from repro.common.errors import TraceError


def check_duration(name: str, value: float) -> None:
    """Reject a time span that is negative, NaN or infinite.

    A non-finite duration would silently poison every simulated time
    downstream (``NaN`` compares false both ways), so it is a trace error.
    """
    if not 0.0 <= value < math.inf:
        raise TraceError(f"{name} must be finite and >= 0, got {value!r}")


class Direction(enum.Enum):
    """Access direction of a task parameter (the OmpSs pragma clauses).

    ``reads`` / ``writes`` are precomputed member attributes rather than
    properties: dependency resolution consults them once per parameter per
    task, which makes them one of the hottest lookups in the simulator.
    """

    IN = "in"
    OUT = "out"
    INOUT = "inout"

    #: True when the task reads the parameter (``in`` or ``inout``).
    reads: bool
    #: True when the task writes the parameter (``out`` or ``inout``).
    writes: bool

    @classmethod
    def parse(cls, value: "str | Direction") -> "Direction":
        """Accept either a :class:`Direction` or its string form."""
        if isinstance(value, Direction):
            return value
        try:
            return cls(value.lower())
        except (ValueError, AttributeError) as exc:
            raise TraceError(f"unknown parameter direction {value!r}") from exc


Direction.IN.reads = True
Direction.IN.writes = False
Direction.OUT.reads = False
Direction.OUT.writes = True
Direction.INOUT.reads = True
Direction.INOUT.writes = True


@dataclass(frozen=True)
class Parameter:
    """One entry of a task's input/output list.

    Attributes
    ----------
    address:
        48-bit memory address of the parameter's data.
    direction:
        Whether the task reads, writes or updates the data.
    size:
        Size of the region in bytes (informational; the hardware tracks
        whole addresses, not byte ranges).
    """

    address: int
    direction: Direction
    size: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.address, int) or self.address < 0:
            raise TraceError(f"parameter address must be a non-negative integer, got {self.address!r}")
        if self.address != self.address & ADDRESS_MASK:
            raise TraceError(f"parameter address {self.address:#x} does not fit in 48 bits")
        if self.size < 0:
            raise TraceError(f"parameter size must be >= 0, got {self.size}")
        # Normalise string directions passed by convenience callers.
        object.__setattr__(self, "direction", Direction.parse(self.direction))

    @property
    def is_input(self) -> bool:
        return self.direction.reads

    @property
    def is_output(self) -> bool:
        return self.direction.writes

    def replace_address(self, address: int) -> "Parameter":
        """Return a copy of the parameter bound to a different address."""
        return Parameter(address=address, direction=self.direction, size=self.size)


@dataclass(frozen=True)
class TaskDescriptor:
    """A single task instance as recorded in a trace.

    Attributes
    ----------
    task_id:
        Unique (per trace) non-negative identifier, assigned in submission
        order by :class:`repro.trace.trace.TraceBuilder`.
    function:
        Name of the task function (e.g. ``"decode_mb"``); the hardware
        stores it as a function pointer in the Function Pointers table.
    params:
        The task's input/output list, in declaration order.
    duration_us:
        Execution time of the task body in micro-seconds, as measured on
        the trace machine (or synthesised by a workload generator).
    creation_overhead_us:
        Time the master thread spends creating/marshalling the task
        before handing it to the task manager (0 for generated traces;
        exposed so real traces could include it).
    """

    task_id: int
    function: str
    params: tuple[Parameter, ...]
    duration_us: float
    creation_overhead_us: float = 0.0

    def __post_init__(self) -> None:
        if self.task_id < 0:
            raise TraceError(f"task_id must be >= 0, got {self.task_id}")
        if not self.function:
            raise TraceError("task function name must be non-empty")
        check_duration("duration_us", self.duration_us)
        check_duration("creation_overhead_us", self.creation_overhead_us)
        if not isinstance(self.params, tuple):
            object.__setattr__(self, "params", tuple(self.params))
        for param in self.params:
            if not isinstance(param, Parameter):
                raise TraceError(f"params must contain Parameter objects, got {param!r}")

    # -- convenience views -------------------------------------------------
    @property
    def num_params(self) -> int:
        """Number of entries in the input/output list."""
        return len(self.params)

    @property
    def input_addresses(self) -> tuple[int, ...]:
        """Addresses the task reads (``in`` and ``inout``)."""
        return tuple(p.address for p in self.params if p.direction.reads)

    @property
    def output_addresses(self) -> tuple[int, ...]:
        """Addresses the task writes (``out`` and ``inout``)."""
        return tuple(p.address for p in self.params if p.direction.writes)

    @property
    def addresses(self) -> tuple[int, ...]:
        """All parameter addresses in declaration order (with duplicates)."""
        return tuple(p.address for p in self.params)

    def with_duration(self, duration_us: float) -> "TaskDescriptor":
        """Return a copy with a different execution time."""
        return TaskDescriptor(
            task_id=self.task_id,
            function=self.function,
            params=self.params,
            duration_us=duration_us,
            creation_overhead_us=self.creation_overhead_us,
        )

    def with_id(self, task_id: int) -> "TaskDescriptor":
        """Return a copy with a different task id."""
        return TaskDescriptor(
            task_id=task_id,
            function=self.function,
            params=self.params,
            duration_us=self.duration_us,
            creation_overhead_us=self.creation_overhead_us,
        )


def make_params(
    inputs: Sequence[int] = (),
    outputs: Sequence[int] = (),
    inouts: Sequence[int] = (),
    size: int = 0,
) -> tuple[Parameter, ...]:
    """Convenience constructor for a parameter list.

    ``inputs``/``outputs``/``inouts`` are sequences of addresses; the
    returned tuple lists inputs first, then inouts, then outputs, which
    mirrors the order the OmpSs source-to-source compiler emits.
    """
    params: list[Parameter] = []
    for address in inputs:
        params.append(Parameter(address=address, direction=Direction.IN, size=size))
    for address in inouts:
        params.append(Parameter(address=address, direction=Direction.INOUT, size=size))
    for address in outputs:
        params.append(Parameter(address=address, direction=Direction.OUT, size=size))
    return tuple(params)
