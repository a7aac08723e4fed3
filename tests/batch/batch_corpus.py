"""The pinned kernel corpus: fixed-seed kernel-vs-scalar regression cases.

Each entry is a :class:`repro.workloads.fuzz.FuzzSpec` whose **serial
elaboration** (a static trace) replays deterministically without
hypothesis — the CI regression layer of the kernel differential suite
(mirroring ``tests/fuzz/fuzz_corpus.py`` for the dynamic runtime).
When the hypothesis-driven tests in ``test_batch_differential.py`` find
a failing configuration, pin it here (with a comment naming the bug) so
it is replayed forever.

The corpus spans the axes the kernel branches on:

* conflict-free wide fan-out (deps==0 fast path, inline submission) vs
  address-conflict storms (the per-address cursor state machine);
* in/out-heavy sibling sets (writer-after-readers activation chains);
* barrier-heavy masters (``taskwait`` resolution inside the done
  handler) and ``taskwait on`` masters (structural last-writer waits);
* near-zero durations (equal-timestamp completions, so the replicated
  heap tie-breaking carries the schedule).
"""

from __future__ import annotations

from repro.workloads.fuzz import FuzzSpec

BATCH_CORPUS: tuple[FuzzSpec, ...] = (
    # Flat and wide, conflict-free: maximal inline-submission traffic.
    FuzzSpec(seed=1101, max_depth=0, max_children=0, roots=14,
             conflict_density=0.0, master_barrier_probability=0.3),
    # Conflict-heavy siblings: long per-address waiter queues.
    FuzzSpec(seed=1202, max_depth=2, max_children=5, roots=3,
             conflict_density=0.9, inout_probability=0.6),
    # Barrier-heavy master mixing taskwait-on into the event stream.
    FuzzSpec(seed=1303, max_depth=2, max_children=3, roots=8,
             master_barrier_probability=0.9, conflict_density=0.5),
    # Near-zero durations: completions pile up at equal timestamps.
    FuzzSpec(seed=1404, max_depth=3, max_children=3, roots=4,
             duration_range_us=(0.0, 0.5), conflict_density=0.5),
    # Deep recursion elaborated serially: long dependency chains.
    FuzzSpec(seed=1505, max_depth=6, max_children=1, roots=2,
             recurse_probability=0.95, conflict_density=0.2),
    # Budget-capped runaway tree (max_tasks cut mid-construction).
    FuzzSpec(seed=1606, max_depth=5, max_children=5, roots=5,
             recurse_probability=0.9, max_tasks=120),
)
