"""Core topologies and the runtime core pool.

The paper's testbench models the worker side of the machine as a single
integer — the number of identical free cores.  This module makes the
worker side a first-class, swappable dimension:

* :class:`CoreTopology` — an immutable description of the cores a
  machine owns: one *speed factor* per core (1.0 = the paper's reference
  core; 0.5 executes every task twice as slowly).  Constructors cover the
  homogeneous case, big.LITTLE-style fast/slow sets, and fully custom
  speed vectors.
* :class:`TopologySpec` — a *shape* that builds a concrete topology for
  any core count (``"biglittle:0.5"`` means "half the cores are little
  cores at half speed" regardless of whether the sweep point has 4 or
  256 cores).  Specs are picklable, content-describable (for sweep cache
  keys) and parseable from compact CLI strings.
* :class:`CorePool` — the runtime allocator: tracks which concrete cores
  are idle, always hands out the fastest idle core (ties broken by the
  lowest core id, keeping schedules deterministic), and accumulates
  per-core busy time for the utilisation reports.

With the default homogeneous topology the pool degenerates to the
paper's ``idle_cores`` counter — same dispatch order, same timings — so
golden-trace makespans are unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Dict, List, Sequence, Tuple, Union

from repro.common.errors import ConfigurationError


@dataclass(frozen=True)
class CoreTopology:
    """An immutable set of worker cores with per-core speed factors.

    A task occupying a core with speed factor ``s`` for nominal time
    ``d`` (body plus worker overhead) actually holds it for ``d / s``
    simulated micro-seconds.
    """

    #: Speed factor of each core, indexed by core id.
    speed_factors: Tuple[float, ...]
    #: Descriptive label ("homogeneous", "big_little", "custom").
    kind: str = "homogeneous"

    def __post_init__(self) -> None:
        if not self.speed_factors:
            raise ConfigurationError("a topology needs at least one core")
        if not isinstance(self.speed_factors, tuple):
            object.__setattr__(self, "speed_factors", tuple(self.speed_factors))
        for core, speed in enumerate(self.speed_factors):
            if not speed > 0:
                raise ConfigurationError(
                    f"core {core}: speed factor must be positive, got {speed!r}"
                )

    # -- constructors -------------------------------------------------------
    @classmethod
    def homogeneous(cls, num_cores: int, speed: float = 1.0) -> "CoreTopology":
        """``num_cores`` identical cores (the paper's machine model)."""
        if num_cores <= 0:
            raise ConfigurationError(f"num_cores must be positive, got {num_cores}")
        return cls(speed_factors=(speed,) * num_cores, kind="homogeneous")

    @classmethod
    def big_little(
        cls,
        num_cores: int,
        *,
        big_fraction: float = 0.5,
        big_speed: float = 1.0,
        little_speed: float = 0.5,
    ) -> "CoreTopology":
        """A big.LITTLE-style split: fast cores first, then little cores."""
        if num_cores <= 0:
            raise ConfigurationError(f"num_cores must be positive, got {num_cores}")
        if not 0.0 < big_fraction <= 1.0:
            raise ConfigurationError(f"big_fraction must be in (0, 1], got {big_fraction}")
        num_big = max(1, int(num_cores * big_fraction + 1e-9))
        num_big = min(num_big, num_cores)
        speeds = (big_speed,) * num_big + (little_speed,) * (num_cores - num_big)
        return cls(speed_factors=speeds, kind="big_little")

    @classmethod
    def from_speeds(cls, speeds: Sequence[float]) -> "CoreTopology":
        """A fully custom per-core speed vector."""
        return cls(speed_factors=tuple(float(s) for s in speeds), kind="custom")

    # -- queries ------------------------------------------------------------
    @property
    def num_cores(self) -> int:
        return len(self.speed_factors)

    @property
    def is_uniform_unit_speed(self) -> bool:
        """True for the paper's reference machine: every core at speed 1.0."""
        return all(speed == 1.0 for speed in self.speed_factors)

    def describe(self) -> Dict[str, object]:
        """Serialisable identity (results metadata, cache keys)."""
        return {
            "kind": self.kind,
            "num_cores": self.num_cores,
            "speed_factors": list(self.speed_factors),
        }


@dataclass(frozen=True)
class TopologySpec:
    """A topology *shape*, applied to a concrete core count at run time.

    Stored on sweep grid points (which carry the core count as a separate
    axis), so one spec spans the whole ``core_counts`` axis.
    """

    kind: str = "homogeneous"
    #: Homogeneous: speed of every core.
    speed: float = 1.0
    #: big.LITTLE: fraction of big cores and the two speed levels.
    big_fraction: float = 0.5
    big_speed: float = 1.0
    little_speed: float = 0.5
    #: Custom: explicit per-core speeds (the core count must match).
    speeds: Tuple[float, ...] = ()

    def build(self, num_cores: int) -> CoreTopology:
        """Materialise the concrete topology for ``num_cores`` cores."""
        if self.kind == "homogeneous":
            return CoreTopology.homogeneous(num_cores, speed=self.speed)
        if self.kind == "big_little":
            return CoreTopology.big_little(
                num_cores,
                big_fraction=self.big_fraction,
                big_speed=self.big_speed,
                little_speed=self.little_speed,
            )
        if self.kind == "custom":
            if len(self.speeds) != num_cores:
                raise ConfigurationError(
                    f"custom topology lists {len(self.speeds)} core speeds but the "
                    f"machine has {num_cores} cores"
                )
            return CoreTopology.from_speeds(self.speeds)
        raise ConfigurationError(f"unknown topology kind {self.kind!r}")

    def describe(self) -> Dict[str, object]:
        """Canonical serialisable identity (cache keys hash this)."""
        if self.kind == "homogeneous":
            return {"kind": "homogeneous", "speed": self.speed}
        if self.kind == "big_little":
            return {
                "kind": "big_little",
                "big_fraction": self.big_fraction,
                "big_speed": self.big_speed,
                "little_speed": self.little_speed,
            }
        return {"kind": "custom", "speeds": list(self.speeds)}

    def canonical(self) -> str:
        """Round-trippable compact string form (used by sweep points)."""
        if self.kind == "homogeneous":
            if self.speed == 1.0:
                return "homogeneous"
            return f"homogeneous:{self.speed:g}"
        if self.kind == "big_little":
            return (
                f"biglittle:{self.big_fraction:g}:{self.little_speed:g}"
                + (f":{self.big_speed:g}" if self.big_speed != 1.0 else "")
            )
        return "speeds:" + ",".join(f"{s:g}" for s in self.speeds)

    @classmethod
    def parse(cls, text: str) -> "TopologySpec":
        """Parse a compact topology string.

        Recognised forms::

            homogeneous              # the default machine (speed 1.0)
            homogeneous:<speed>
            biglittle                # half big @1.0, half little @0.5
            biglittle:<little_speed>
            biglittle:<big_fraction>:<little_speed>[:<big_speed>]
            speeds:<s0>,<s1>,...     # explicit per-core speeds
        """
        token = text.strip().lower()
        try:
            if token in ("homogeneous", "homo", "flat"):
                return cls()
            if token.startswith("homogeneous:"):
                return cls(speed=float(token.split(":", 1)[1]))
            if token in ("biglittle", "big_little", "big.little"):
                return cls(kind="big_little")
            for prefix in ("biglittle:", "big_little:", "big.little:"):
                if token.startswith(prefix):
                    parts = token[len(prefix):].split(":")
                    if len(parts) == 1:
                        return cls(kind="big_little", little_speed=float(parts[0]))
                    if len(parts) == 2:
                        return cls(kind="big_little", big_fraction=float(parts[0]),
                                   little_speed=float(parts[1]))
                    if len(parts) == 3:
                        return cls(kind="big_little", big_fraction=float(parts[0]),
                                   little_speed=float(parts[1]), big_speed=float(parts[2]))
                    raise ValueError("too many ':' fields")
            if token.startswith("speeds:"):
                speeds = tuple(float(s) for s in token[len("speeds:"):].split(",") if s)
                if not speeds:
                    raise ValueError("empty speed list")
                return cls(kind="custom", speeds=speeds)
        except ValueError as exc:
            raise ConfigurationError(f"malformed topology spec {text!r}: {exc}") from exc
        raise ConfigurationError(
            f"unknown topology spec {text!r}; expected homogeneous[:speed], "
            "biglittle[:fraction][:little_speed][:big_speed] or speeds:<s0>,<s1>,..."
        )


TopologyLike = Union[str, TopologySpec, CoreTopology]


def resolve_topology(topology: TopologyLike, num_cores: int) -> CoreTopology:
    """Normalise any accepted topology form to a concrete :class:`CoreTopology`."""
    if isinstance(topology, CoreTopology):
        if topology.num_cores != num_cores:
            raise ConfigurationError(
                f"topology has {topology.num_cores} cores but the machine is "
                f"configured for {num_cores}"
            )
        return topology
    if isinstance(topology, TopologySpec):
        return topology.build(num_cores)
    if isinstance(topology, str):
        return TopologySpec.parse(topology).build(num_cores)
    raise ConfigurationError(f"cannot interpret {topology!r} as a topology")


def canonical_topology(topology: TopologyLike) -> str:
    """Canonical string form of a topology spec (sweep axis normalisation)."""
    if isinstance(topology, CoreTopology):
        raise ConfigurationError(
            "sweep axes take topology *shapes* (strings or TopologySpec), not a "
            "concrete CoreTopology bound to one core count"
        )
    if isinstance(topology, TopologySpec):
        return topology.canonical()
    return TopologySpec.parse(topology).canonical()


class CorePool:
    """Runtime allocator of the concrete cores of a :class:`CoreTopology`.

    The pool always hands out the *fastest* idle core (ties broken by the
    lowest core id), which is the deterministic generalisation of the
    paper's anonymous free-core counter: on a homogeneous topology the
    chosen core never affects timing, and on a heterogeneous one work
    gravitates to the fast cores first, exactly like a speed-aware RTS.
    """

    __slots__ = ("topology", "speeds", "busy_us", "idle_ranks", "order", "_rank_of")

    def __init__(self, topology: CoreTopology) -> None:
        self.topology = topology
        speeds = topology.speed_factors
        self.speeds = speeds
        num_cores = len(speeds)
        self.busy_us: List[float] = [0.0] * num_cores
        #: Dispatch order, core id by rank: fastest first, then lowest
        #: core id.  Ranks are what lives in the idle heap, so heap
        #: comparisons are plain ints.
        order = sorted(range(num_cores), key=lambda core: (-speeds[core], core))
        self.order = order
        rank_of = [0] * num_cores
        for rank, core in enumerate(order):
            rank_of[core] = rank
        self._rank_of = rank_of
        #: Min-heap of idle core ranks.  Public *read-only* view so the
        #: machine's hot loop can test emptiness without a method call;
        #: mutate only via :meth:`acquire` / :meth:`release`.
        self.idle_ranks: List[int] = list(range(num_cores))  # already a valid heap

    # -- queries ------------------------------------------------------------
    @property
    def num_cores(self) -> int:
        return len(self.speeds)

    @property
    def idle_count(self) -> int:
        return len(self.idle_ranks)

    # -- allocation ---------------------------------------------------------
    def acquire(self) -> int:
        """Claim and return the fastest idle core id."""
        if not self.idle_ranks:
            raise ConfigurationError("acquire() with no idle core")
        return self.order[heappop(self.idle_ranks)]

    def release(self, core: int) -> None:
        """Return ``core`` to the idle set."""
        heappush(self.idle_ranks, self._rank_of[core])

    def add_busy(self, core: int, duration_us: float) -> None:
        """Account ``duration_us`` of busy time to ``core``."""
        self.busy_us[core] += duration_us

    def reset(self) -> None:
        """All cores idle, busy counters cleared."""
        self.busy_us = [0.0] * len(self.speeds)
        self.idle_ranks = list(range(len(self.speeds)))
