"""Task descriptors and parameters.

A task, in the OmpSs sense used by the paper, is a function invocation
whose in/out/inout parameters are memory addresses.  The task manager
never looks at the data behind an address — only at the address itself —
so the descriptor stores 48-bit integer addresses (the width transferred
over the PCIe-style link in the hardware prototype).

A descriptor keeps its input/output list flat: one tuple of addresses
and one tuple of direction flags (:data:`FLAG_READS` /
:data:`FLAG_WRITES` bits, the same codes a trace's columns and the
compiled access program use).  :class:`Parameter` objects are only
built when a consumer reads :attr:`TaskDescriptor.params`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.common.constants import ADDRESS_MASK
from repro.common.errors import TraceError

#: Direction flags of one access: bit 0 = reads, bit 1 = writes.
FLAG_READS = 1
FLAG_WRITES = 2
FLAG_READWRITE = FLAG_READS | FLAG_WRITES


def check_duration(name: str, value: float) -> None:
    """Reject a time span that is negative, NaN or infinite.

    A non-finite duration would silently poison every simulated time
    downstream (``NaN`` compares false both ways), so it is a trace error.
    """
    if not 0.0 <= value < math.inf:
        raise TraceError(f"{name} must be finite and >= 0, got {value!r}")


def check_address(value: object, what: str = "parameter address") -> None:
    """Reject an address that is not a non-bool int within 48 bits."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise TraceError(f"{what} must be a non-negative integer, got {value!r}")
    if value > ADDRESS_MASK:
        raise TraceError(f"{what} {value:#x} does not fit in 48 bits")


def column_error(column: str, index: int, problem: str, value: object) -> TraceError:
    """The error for a bad value in ``column`` at task (or barrier) ``index``."""
    return TraceError(f"column {column!r}, task {index}: {problem}, got {value!r}")


def check_task(
    task_id: int,
    function: str,
    duration_us: float,
    creation_overhead_us: float,
    addresses: Sequence[int],
    sizes: Optional[Sequence[int]],
) -> None:
    """Validate one task's fields, naming the column and task on failure.

    The per-task twin of the column checks of
    :class:`~repro.trace.columns.TraceColumns` (same checks, same
    messages) for descriptors built one at a time.
    """
    if task_id < 0:
        raise column_error("task_id", task_id, "must be >= 0", task_id)
    if not function:
        raise column_error("function", task_id, "must be a non-empty name", function)
    if not 0.0 <= duration_us < math.inf:
        raise column_error("duration_us", task_id, "must be finite and >= 0", duration_us)
    if not 0.0 <= creation_overhead_us < math.inf:
        raise column_error("creation_overhead_us", task_id, "must be finite and >= 0",
                           creation_overhead_us)
    for address in addresses:
        if type(address) is not int or not 0 <= address <= ADDRESS_MASK:
            check_address(address, f"column 'addresses', task {task_id}: address")
    if sizes is not None:
        for size in sizes:
            if size < 0:
                raise column_error("sizes", task_id, "must be >= 0", size)


class Direction(enum.Enum):
    """Access direction of a task parameter (the OmpSs pragma clauses).

    ``reads`` / ``writes`` / ``flags`` are precomputed member attributes
    rather than properties: dependency resolution consults them once per
    parameter per task, which makes them one of the hottest lookups in the
    simulator.
    """

    IN = "in"
    OUT = "out"
    INOUT = "inout"

    #: True when the task reads the parameter (``in`` or ``inout``).
    reads: bool
    #: True when the task writes the parameter (``out`` or ``inout``).
    writes: bool
    #: The direction's flag bits (:data:`FLAG_READS` / :data:`FLAG_WRITES`).
    flags: int

    @classmethod
    def parse(cls, value: "str | Direction") -> "Direction":
        """Accept either a :class:`Direction` or its string form."""
        if isinstance(value, Direction):
            return value
        try:
            return cls(value.lower())
        except (ValueError, AttributeError) as exc:
            raise TraceError(f"unknown parameter direction {value!r}") from exc


Direction.IN.reads, Direction.IN.writes, Direction.IN.flags = True, False, FLAG_READS
Direction.OUT.reads, Direction.OUT.writes, Direction.OUT.flags = False, True, FLAG_WRITES
Direction.INOUT.reads, Direction.INOUT.writes, Direction.INOUT.flags = True, True, FLAG_READWRITE

#: Flag bits -> Direction (index 0 is no valid direction).
DIRECTION_OF_FLAGS = (None, Direction.IN, Direction.OUT, Direction.INOUT)


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
        check_address(self.address)
        if self.size < 0:
            raise TraceError(f"parameter size must be >= 0, got {self.size}")
        # Normalise string directions passed by convenience callers.
        object.__setattr__(self, "direction", Direction.parse(self.direction))


#: One task's flat input/output list: (addresses, flags, sizes or None).
Accesses = Tuple[Tuple[int, ...], Tuple[int, ...], Optional[Tuple[int, ...]]]


def params_accesses(params: Sequence[Parameter]) -> Accesses:
    """Flatten a :class:`Parameter` list (sizes are ``None`` when all 0)."""
    for param in params:
        if not isinstance(param, Parameter):
            raise TraceError(f"params must contain Parameter objects, got {param!r}")
    sizes = tuple(param.size for param in params)
    return (tuple(param.address for param in params),
            tuple(param.direction.flags for param in params),
            sizes if any(sizes) else None)


def task_accesses(
    inputs: Sequence[int] = (),
    outputs: Sequence[int] = (),
    inouts: Sequence[int] = (),
    params: Optional[Sequence[Parameter]] = None,
) -> Tuple[Tuple[int, ...], Tuple[int, ...], Optional[Tuple[int, ...]],
           Optional[Tuple[Parameter, ...]]]:
    """Normalise the task-construction keywords to a flat access list.

    The one argument form shared by :meth:`TraceBuilder.add_task
    <repro.trace.trace.TraceBuilder.add_task>`, :meth:`EventEmitter.task
    <repro.trace.stream.EventEmitter.task>` and
    :func:`~repro.trace.dynamic.task_request`: either ``params`` or the
    ``inputs`` / ``outputs`` / ``inouts`` address lists, never both.  The
    address lists come out inputs first, then inouts, then outputs, which
    mirrors the order the OmpSs source-to-source compiler emits.  Returns
    ``(addresses, flags, sizes, params)``: ``params`` is the given
    :class:`Parameter` tuple (``None`` for the address-list form).  The
    addresses are not range-checked here.

    >>> task_accesses(inputs=[1], outputs=[3], inouts=[2])[:3]
    ((1, 2, 3), (1, 3, 2), None)
    """
    if params is None:
        return ((*inputs, *inouts, *outputs),
                (FLAG_READS,) * len(inputs) + (FLAG_READWRITE,) * len(inouts)
                + (FLAG_WRITES,) * len(outputs),
                None, None)
    if inputs or outputs or inouts:
        raise TraceError("pass either params or inputs/outputs/inouts, not both")
    params = tuple(params)
    return params_accesses(params) + (params,)


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
        The task's input/output list, in declaration order (built from
        the flat ``addresses`` / ``flags`` / ``sizes`` on first read).
    duration_us:
        Execution time of the task body in micro-seconds, as measured on
        the trace machine (or synthesised by a workload generator).
    creation_overhead_us:
        Time the master thread spends creating/marshalling the task
        before handing it to the task manager (0 for generated traces;
        exposed so real traces could include it).
    addresses / flags / sizes:
        The flat input/output list: every parameter address in
        declaration order (with duplicates), its direction flags, and its
        sizes (``None`` when every size is 0).

    Descriptors are values: compare by content, never mutate.
    """

    __slots__ = ("task_id", "function", "duration_us", "creation_overhead_us",
                 "addresses", "flags", "sizes", "_params")

    def __init__(
        self,
        task_id: int,
        function: str,
        params: Sequence[Parameter],
        duration_us: float,
        creation_overhead_us: float = 0.0,
    ) -> None:
        params = tuple(params)
        addresses, flags, sizes = params_accesses(params)
        check_task(task_id, function, duration_us, creation_overhead_us, (), None)
        self.task_id = task_id
        self.function = function
        self.duration_us = duration_us
        self.creation_overhead_us = creation_overhead_us
        self.addresses = addresses
        self.flags = flags
        self.sizes = sizes
        self._params = params

    # -- value semantics ---------------------------------------------------
    def _key(self) -> tuple:
        return (self.task_id, self.function, self.addresses, self.flags, self.sizes,
                self.duration_us, self.creation_overhead_us)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __reduce__(self):
        return make_task, (self.task_id, self.function, self.addresses, self.flags,
                           self.sizes, self.duration_us, self.creation_overhead_us)

    def __repr__(self) -> str:
        return (f"TaskDescriptor(task_id={self.task_id!r}, function={self.function!r}, "
                f"params={self.params!r}, duration_us={self.duration_us!r}, "
                f"creation_overhead_us={self.creation_overhead_us!r})")

    # -- convenience views -------------------------------------------------
    @property
    def params(self) -> Tuple[Parameter, ...]:
        """The input/output list as :class:`Parameter` objects (cached)."""
        params = self._params
        if params is None:
            sizes = self.sizes or (0,) * len(self.addresses)
            params = tuple(
                Parameter(address=address, direction=DIRECTION_OF_FLAGS[flag], size=size)
                for address, flag, size in zip(self.addresses, self.flags, sizes)
            )
            self._params = params
        return params

    @property
    def num_params(self) -> int:
        """Number of entries in the input/output list."""
        return len(self.addresses)

    @property
    def output_addresses(self) -> tuple[int, ...]:
        """Addresses the task writes (``out`` and ``inout``)."""
        return tuple(a for a, flag in zip(self.addresses, self.flags) if flag & FLAG_WRITES)

    def with_id(self, task_id: int) -> "TaskDescriptor":
        """Return a copy with a different task id."""
        check_task(task_id, self.function, self.duration_us, self.creation_overhead_us, (), None)
        return make_task(task_id, self.function, self.addresses, self.flags, self.sizes,
                         self.duration_us, self.creation_overhead_us, self._params)


_new_object = object.__new__


def make_task(
    task_id: int,
    function: str,
    addresses: Tuple[int, ...],
    flags: Tuple[int, ...],
    sizes: Optional[Tuple[int, ...]],
    duration_us: float,
    creation_overhead_us: float,
    params: Optional[Tuple[Parameter, ...]] = None,
) -> TaskDescriptor:
    """Build a descriptor from fields that were already validated.

    No checks run: callers validate first (:func:`check_task` per task,
    or a trace's column validation once per column).  ``sizes`` must be
    ``None`` when every size is 0, and ``params`` (when given) must
    describe the same input/output list.
    """
    task = _new_object(TaskDescriptor)
    task.task_id = task_id
    task.function = function
    task.duration_us = duration_us
    task.creation_overhead_us = creation_overhead_us
    task.addresses = addresses
    task.flags = flags
    task.sizes = sizes
    task._params = params
    return task
