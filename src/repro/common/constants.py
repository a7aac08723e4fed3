"""Hardware constants used across the Nexus#/Nexus++ models.

The numbers below come straight from the paper (Sections III, IV and
Table I) and from its predecessor publications describing Nexus++.  They
are collected here so that the rest of the code never hard-codes a magic
number.
"""

from __future__ import annotations

#: Width of a task-parameter memory address.  The paper transmits 48-bit
#: addresses over a PCIe-style link, two 32-bit packets per address
#: (Section IV-D).
ADDRESS_BITS: int = 48

#: Mask selecting the valid bits of a parameter address.
ADDRESS_MASK: int = (1 << ADDRESS_BITS) - 1

#: Number of address bits actually used by the distribution function.
#: "for a certain application, the memory addresses it touches differ
#: only in the lower 20 bits" (Section IV-B).
DISTRIBUTION_BITS: int = 20

#: Width of one XOR block in the distribution function (5 bits, enough to
#: address 32 task graphs).
DISTRIBUTION_BLOCK_BITS: int = 5

#: The paper states the hash supports "up to 32" task graphs.
MAX_TASK_GRAPHS: int = 32

#: Nexus# scalability experiments run the manager at a flat 100 MHz
#: (Figure 7a) unless the synthesis frequency of Table I is requested.
DEFAULT_FREQUENCY_MHZ: float = 100.0

#: Granularity of a macroblock in the H.264 workload (16x16 pixels).
H264_MACROBLOCK_PIXELS: int = 16

#: Full-HD frame geometry used by the h264dec traces (1920x1088 as in the
#: paper's Listing 1 discussion).
H264_FRAME_WIDTH: int = 1920
H264_FRAME_HEIGHT: int = 1088

#: Cache-line size assumed when synthesising parameter addresses.  Task
#: parameters in the generated traces are aligned to this many bytes so
#: that distinct objects never share an address.
CACHE_LINE_BYTES: int = 64

#: Default geometry of the set-associative task-graph table.  Nexus++ [7]
#: uses a cache-like structure; 256 sets x 8 ways is the configuration the
#: FPGA prototype synthesises (it fills the block RAMs reported in
#: Table I for the single-task-graph configuration).
DEFAULT_TABLE_SETS: int = 256
DEFAULT_TABLE_WAYS: int = 8

#: Default capacity of the kick-off list attached to every tracked
#: address (number of waiting-task slots before the "dummy entry"
#: chaining described with the Gaussian-elimination workload kicks in).
DEFAULT_KICKOFF_CAPACITY: int = 16

#: Worker-core throughput assumed for the Gaussian-elimination
#: micro-benchmark: "Each worker core is assumed to be able to do
#: 2 GFLOPS" (Section VI).
GAUSSIAN_CORE_GFLOPS: float = 2.0

#: Core counts evaluated in the paper's scalability plots.
PAPER_CORE_COUNTS: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256)

#: Core counts available to the software runtime (the test machine has 40
#: physical cores; the paper plots Nanos only up to 32).
NANOS_MAX_CORES: int = 32
