"""The generators' output, pinned per template, scale and seed.

The event-twin test (``tests/trace/test_columnar_trace.py``) runs one
generator body into both sinks, so an edit to a generator body moves both
sides and passes; ``expected_trace_digests.json`` pins one seed per
workload.  This table pins ``trace_digest`` and the task count of the
templates the cell and sweep benchmarks generate, at their scales, for
three seeds each.  The values were computed before the generators' inner
loops moved from numpy indexing to Python lists and batched draws, and
are never recomputed: a generator edit must keep its RNG draw order and
its floating-point operations, and any drift fails here.
"""

from __future__ import annotations

import pytest

from repro.trace.serialization import trace_digest
from repro.workloads.registry import get_workload

#: (template, scale, seed) -> (num_tasks, trace_digest).
PINNED = {
    ("sparselu", 0.0225, 1): (1378, "3f070d0438d636dbcd1b6df6a3729bb57deb5e03c9053c2436204d63a33fed7f"),
    ("sparselu", 0.0225, 7): (1365, "b9f7fd92206eaa1d1b25013a496db171b646651a885d82a49bd50a74f4625ac3"),
    ("sparselu", 0.0225, 2015): (1353, "138d66887a5a3315d1903e5d0a28f006d2394a11ebd948b48399825e76d2902f"),
    ("h264dec-2x2-10f", 0.06, 1): (1350, "9e197b7583bf36d3467ffcb1d37a3fb38f7eebbf518f0543cf5422c44026aa7b"),
    ("h264dec-2x2-10f", 0.06, 7): (1350, "c2b02f5f5b09a0a3246a061cda7fee1608ba2bf5919ac4acf4ca6823f5309baa"),
    ("h264dec-2x2-10f", 0.06, 2015): (1350, "e7991e237c18684d7c4ca8f7711ea474ae3c1d73af287d453984dfaa60592377"),
    ("gaussian-250", 0.0525, 1): (1652, "b01c7b86387c507641ba043513705e86ed9cc509b480c4f56ac412f637ff7c5d"),
    ("gaussian-250", 0.0525, 7): (1652, "b01c7b86387c507641ba043513705e86ed9cc509b480c4f56ac412f637ff7c5d"),
    ("gaussian-250", 0.0525, 2015): (1652, "b01c7b86387c507641ba043513705e86ed9cc509b480c4f56ac412f637ff7c5d"),
    ("streamcluster", 0.00225, 1): (1604, "ef07a80429ebf073682ce98f895d9e270c89aaf21d13e3c2a91fe1fd1f99b6a2"),
    ("streamcluster", 0.00225, 7): (1604, "08160b717d0c73138ab825fb7d79056acec834197fa8949d2115e14e052fd8a1"),
    ("streamcluster", 0.00225, 2015): (1604, "81426f4f3cc66a43b5ea5b31f960e18da5c8b1c9f0fd0916cdb40db4ec43a7dd"),
    ("sparselu", 0.002, 1): (127, "bbb4c702f39f6314d934cb9bd00da00a9d666f47702d3d49b38488eeaa1c197f"),
    ("sparselu", 0.002, 7): (114, "8145b113b66d88f8a454df779e3712cc77b7b93a03530c1c3fdbe469280ec0e3"),
    ("sparselu", 0.002, 2015): (110, "e492d6e07f1c315e4ed5815c84c50e01b21a273bb44fb7acd0616e7830eb346a"),
    ("gaussian-250", 0.002, 1): (65, "02dced4bdc43179b9b708887eeacde21ef6ebf383a0480ca82045c1a89265b16"),
    ("gaussian-250", 0.002, 7): (65, "02dced4bdc43179b9b708887eeacde21ef6ebf383a0480ca82045c1a89265b16"),
    ("gaussian-250", 0.002, 2015): (65, "02dced4bdc43179b9b708887eeacde21ef6ebf383a0480ca82045c1a89265b16"),
}


@pytest.mark.parametrize("name, scale, seed", sorted(PINNED))
def test_generator_output_is_pinned(name, scale, seed):
    trace = get_workload(name, scale=scale, seed=seed)
    assert (trace.num_tasks, trace_digest(trace)) == PINNED[name, scale, seed]
