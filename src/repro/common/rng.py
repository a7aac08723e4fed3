"""Deterministic random-number helpers.

Every stochastic component of the reproduction (task-duration jitter in
the workload generators, synthetic DAG construction, address
randomisation) draws from a :class:`numpy.random.Generator` created
through this module, so a single integer seed reproduces a whole
experiment bit-for-bit.
"""

from __future__ import annotations

import hashlib
from typing import Optional, Union

import numpy as np

#: The library-wide default seed used when an experiment does not specify
#: one explicitly.  Chosen arbitrarily but fixed forever.
DEFAULT_SEED: int = 0x5EC5_0000 + 2015  # Nexus# was published in 2015.

SeedLike = Union[int, np.random.Generator, None]


def derive_seed(base_seed: int, *labels: Union[str, int]) -> int:
    """Derive a child seed from a base seed and a sequence of labels.

    The derivation is stable across processes and Python versions (it
    uses SHA-256 of the textual representation), so components that need
    independent random streams — e.g. the duration jitter of two
    different benchmarks — can each derive their own seed from the
    experiment seed without accidentally sharing a stream.
    """
    hasher = hashlib.sha256()
    hasher.update(str(int(base_seed)).encode("utf-8"))
    for label in labels:
        hasher.update(b"/")
        hasher.update(str(label).encode("utf-8"))
    return int.from_bytes(hasher.digest()[:8], "little")


def make_rng(seed: SeedLike = None, *labels: Union[str, int]) -> np.random.Generator:
    """Create a :class:`numpy.random.Generator` from a flexible seed spec.

    Parameters
    ----------
    seed:
        ``None`` (use :data:`DEFAULT_SEED`), an integer seed, or an
        existing generator (returned unchanged when no labels are given).
    labels:
        Optional labels mixed into the seed via :func:`derive_seed`, used
        to give sub-components independent streams.
    """
    if isinstance(seed, np.random.Generator):
        if not labels:
            return seed
        # Derive a child generator deterministically from the parent.
        child_seed = int(seed.integers(0, 2**63 - 1))
        return np.random.default_rng(derive_seed(child_seed, *labels))
    base = DEFAULT_SEED if seed is None else int(seed)
    if labels:
        base = derive_seed(base, *labels)
    return np.random.default_rng(base)


def resolve_seed(seed: Optional[int]) -> int:
    """Return the effective integer seed for ``seed`` (``None`` → default)."""
    return DEFAULT_SEED if seed is None else int(seed)
