"""Recursive dynamic workloads: nested task parallelism at runtime.

These generators produce :class:`~repro.trace.dynamic.DynamicProgram`
objects — programs whose tasks spawn child tasks and join them with
``taskwait`` while the machine runs.  They model the classic recursive
OmpSs/Cilk benchmarks the static trace registry cannot express:

* :func:`fib_program` — binary recursion with a combine task per node
  (the canonical nested-parallelism microbenchmark);
* :func:`nqueens_program` — irregular fan-out: each node spawns one
  child per *valid* queen placement, so the tree shape is data-driven;
* :func:`recursive_sort_program` — merge sort over blocks: leaves sort
  their block in place, merges touch the representative addresses of
  both halves (deep RAW/WAW chains up the tree);
* :func:`strassen_program` — Strassen-style blocked recursion: seven
  recursive products per node, then add/pack combine tasks.

Determinism: the whole spawn tree — every :class:`~repro.trace.dynamic.
TaskRequest`, every address, every duration — is prebuilt when the
program factory runs, in deterministic depth-first order, from a seeded
RNG.  Task *bodies* only replay the prebuilt requests, so the program's
structure is identical regardless of how a run interleaves (the
determinism contract of :mod:`repro.trace.dynamic`), and replays are
exact.

Deadlock freedom: internal (control) tasks declare no parameters; data
addresses are only touched by leaves and by combine tasks that are
spawned *after* the ``taskwait`` joining their producers — so no task
ever waits on an address held by one of its ancestors (the contract in
:mod:`repro.trace.dynamic`).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.common.errors import ConfigurationError
from repro.common.rng import make_rng
from repro.common.validation import check_positive
from repro.trace.dynamic import Compute, DynamicProgram, Spawn, Taskwait, TaskRequest, task_request
from repro.workloads.addressing import AddressSpace


def _jitter(rng, base_us: float, amount: float = 0.2) -> float:
    """A deterministic duration around ``base_us`` (±``amount``·base)."""
    return float(base_us * (1.0 + amount * (rng.random() * 2.0 - 1.0)))


def _spawn_join_body(children: Tuple[TaskRequest, ...],
                     pre_us: float,
                     combine: Optional[TaskRequest] = None):
    """Body factory: compute, spawn children, join, spawn combine, join."""

    def body():
        yield Compute(pre_us)
        for child in children:
            yield Spawn(child)
        yield Taskwait()
        if combine is not None:
            yield Spawn(combine)
            yield Taskwait()

    return body


# ---------------------------------------------------------------------------
# fib
# ---------------------------------------------------------------------------

def fib_program(
    n: int = 12,
    *,
    seed: Optional[int] = None,
    scale: float = 1.0,
    leaf_us: float = 4.0,
    split_us: float = 1.0,
    combine_us: float = 2.0,
) -> DynamicProgram:
    """Recursive Fibonacci: ``fib(n)`` spawns ``fib(n-1)`` and ``fib(n-2)``.

    Each internal node joins its two recursive children, then spawns a
    combine task that reads both results and writes the node's own —
    RAW dependencies that climb the whole tree.

    >>> program = fib_program(5, seed=1)
    >>> program.elaborate().num_tasks == program.metadata["num_tasks"]
    True
    """
    if n < 0:
        raise ConfigurationError(f"n must be >= 0, got {n}")
    check_positive("scale", scale)
    rng = make_rng(seed, "fib", n)
    space = AddressSpace(seed=seed)
    count = 0

    def build(k: int) -> Tuple[TaskRequest, int]:
        nonlocal count
        count += 1
        result = space.alloc_one()
        if k < 2:
            return task_request(
                "fib_leaf", _jitter(rng, leaf_us * scale), outputs=[result]), result
        left, left_addr = build(k - 1)
        right, right_addr = build(k - 2)
        count += 1  # the combine task
        combine = task_request(
            "fib_combine", _jitter(rng, combine_us * scale),
            inputs=[left_addr, right_addr], outputs=[result])
        pre = _jitter(rng, split_us * scale)
        node = task_request(
            "fib", pre, body=_spawn_join_body((left, right), pre, combine))
        return node, result

    root, root_addr = build(n)

    def master():
        _ = yield Spawn(root)
        yield Taskwait()

    return DynamicProgram(
        f"fib-{n}", master,
        metadata={"workload": "fib", "n": n, "seed": seed, "scale": scale,
                  "num_tasks": count, "result_address": root_addr},
    )


# ---------------------------------------------------------------------------
# nqueens
# ---------------------------------------------------------------------------

def nqueens_program(
    n: int = 6,
    *,
    seed: Optional[int] = None,
    scale: float = 1.0,
    explore_us: float = 2.0,
    reduce_us: float = 1.0,
    leaf_us: float = 3.0,
) -> DynamicProgram:
    """N-queens solution counting with one task per partial placement.

    The fan-out of every node is the number of *valid* placements in the
    next row, so the spawn tree is irregular and data-driven — dead ends
    become cheap leaves, full placements become solution leaves.  Each
    internal node joins its children and spawns a reduce task summing
    their counts.

    >>> program = nqueens_program(4, seed=1)
    >>> program.metadata["num_solutions"]
    2
    """
    if n <= 0:
        raise ConfigurationError(f"n must be positive, got {n}")
    check_positive("scale", scale)
    rng = make_rng(seed, "nqueens", n)
    space = AddressSpace(seed=seed)
    count = 0
    solutions = 0

    def valid(placed: Tuple[int, ...], col: int) -> bool:
        row = len(placed)
        for prev_row, prev_col in enumerate(placed):
            if prev_col == col or abs(prev_col - col) == row - prev_row:
                return False
        return True

    def build(placed: Tuple[int, ...]) -> Tuple[TaskRequest, int]:
        nonlocal count, solutions
        count += 1
        result = space.alloc_one()
        row = len(placed)
        if row == n:
            solutions += 1
            return task_request(
                "nq_solution", _jitter(rng, leaf_us * scale), outputs=[result]), result
        children: List[TaskRequest] = []
        child_addrs: List[int] = []
        for col in range(n):
            if valid(placed, col):
                child, child_addr = build(placed + (col,))
                children.append(child)
                child_addrs.append(child_addr)
        if not children:
            return task_request(
                "nq_dead_end", _jitter(rng, 0.5 * leaf_us * scale), outputs=[result]), result
        count += 1  # the reduce task
        reduce = task_request(
            "nq_reduce",
            _jitter(rng, (reduce_us + 0.2 * len(children)) * scale),
            inputs=child_addrs, outputs=[result])
        pre = _jitter(rng, explore_us * scale)
        node = task_request(
            "nq_explore", pre, body=_spawn_join_body(tuple(children), pre, reduce))
        return node, result

    root, root_addr = build(())

    def master():
        _ = yield Spawn(root)
        yield Taskwait()

    return DynamicProgram(
        f"nqueens-{n}", master,
        metadata={"workload": "nqueens", "n": n, "seed": seed, "scale": scale,
                  "num_tasks": count, "num_solutions": solutions,
                  "result_address": root_addr},
    )


# ---------------------------------------------------------------------------
# recursive sort
# ---------------------------------------------------------------------------

def recursive_sort_program(
    num_blocks: int = 32,
    *,
    seed: Optional[int] = None,
    scale: float = 1.0,
    block_us: float = 6.0,
    merge_us_per_block: float = 1.5,
) -> DynamicProgram:
    """Parallel merge sort over ``num_blocks`` data blocks.

    Leaves sort their block in place (``inout``); each merge task updates
    the representative addresses of its two halves, so every level of the
    tree serialises against the level below through real WAW/RAW hazards
    on the block addresses — spawned only after the joining ``taskwait``.

    >>> recursive_sort_program(8, seed=1).metadata["num_tasks"]
    22
    """
    if num_blocks <= 0:
        raise ConfigurationError(f"num_blocks must be positive, got {num_blocks}")
    check_positive("scale", scale)
    rng = make_rng(seed, "recursive-sort", num_blocks)
    space = AddressSpace(seed=seed)
    blocks = space.alloc(num_blocks)
    count = 0

    def build(lo: int, hi: int) -> TaskRequest:
        nonlocal count
        count += 1
        if hi - lo == 1:
            return task_request(
                "sort_block", _jitter(rng, block_us * scale), inouts=[blocks[lo]])
        mid = (lo + hi) // 2
        left = build(lo, mid)
        right = build(mid, hi)
        count += 1  # the merge task
        merge = task_request(
            "merge", _jitter(rng, merge_us_per_block * (hi - lo) * scale),
            inouts=[blocks[lo], blocks[mid]])
        pre = _jitter(rng, 0.5 * scale)
        node = task_request(
            "sort_split", pre, body=_spawn_join_body((left, right), pre, merge))
        return node

    root = build(0, num_blocks)

    def master():
        _ = yield Spawn(root)
        yield Taskwait()

    return DynamicProgram(
        f"recursive-sort-{num_blocks}", master,
        metadata={"workload": "recursive-sort", "num_blocks": num_blocks,
                  "seed": seed, "scale": scale, "num_tasks": count},
    )


# ---------------------------------------------------------------------------
# strassen
# ---------------------------------------------------------------------------

def strassen_program(
    depth: int = 2,
    *,
    seed: Optional[int] = None,
    scale: float = 1.0,
    mul_us: float = 8.0,
    add_us: float = 2.0,
    pack_us: float = 1.0,
) -> DynamicProgram:
    """Strassen-style blocked matrix multiply: 7 recursive products per node.

    Every internal node spawns seven product children, joins them, then
    spawns four quadrant-add tasks (each reading a subset of the seven
    products) and finally a pack task collapsing the quadrants into the
    node's result address.

    >>> strassen_program(1, seed=1).metadata["num_tasks"]
    13
    """
    if depth <= 0:
        raise ConfigurationError(f"depth must be positive, got {depth}")
    check_positive("scale", scale)
    rng = make_rng(seed, "strassen", depth)
    space = AddressSpace(seed=seed)
    count = 0
    # Which of the 7 Strassen products feed each C quadrant.
    _QUADRANT_PRODUCTS = ((0, 3, 4, 6), (2, 4), (1, 3), (0, 1, 2, 5))

    def build(level: int) -> Tuple[TaskRequest, int]:
        nonlocal count
        count += 1
        result = space.alloc_one()
        if level == 0:
            return task_request(
                "strassen_mul", _jitter(rng, mul_us * scale), outputs=[result]), result
        products: List[TaskRequest] = []
        product_addrs: List[int] = []
        for _ in range(7):
            child, child_addr = build(level - 1)
            products.append(child)
            product_addrs.append(child_addr)
        quadrant_addrs = space.alloc(4)
        adds = tuple(
            task_request(
                "strassen_add", _jitter(rng, add_us * scale),
                inputs=[product_addrs[p] for p in _QUADRANT_PRODUCTS[q]],
                outputs=[quadrant_addrs[q]])
            for q in range(4)
        )
        count += 5  # four adds plus the pack task
        pack = task_request(
            "strassen_pack", _jitter(rng, pack_us * scale),
            inputs=list(quadrant_addrs), outputs=[result])
        pre = _jitter(rng, 0.5 * scale)

        def body(products=tuple(products), adds=adds, pack=pack, pre=pre):
            yield Compute(pre)
            for product in products:
                yield Spawn(product)
            yield Taskwait()
            for add in adds:
                yield Spawn(add)
            yield Taskwait()
            yield Spawn(pack)
            yield Taskwait()

        node = task_request("strassen_split", pre, body=body)
        return node, result

    root, root_addr = build(depth)

    def master():
        _ = yield Spawn(root)
        yield Taskwait()

    return DynamicProgram(
        f"strassen-{depth}", master,
        metadata={"workload": "strassen", "depth": depth, "seed": seed,
                  "scale": scale, "num_tasks": count, "result_address": root_addr},
    )
