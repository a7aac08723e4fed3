"""h264dec: H.264 macroblock wavefront decoding workload (Starbench).

This is the paper's headline workload (Listing 1, Figure 7, Figure 8b):
decoding macroblocks of a Full-HD frame where each macroblock depends on
its *left* and *upper-right* neighbours, giving wavefront parallelism.
The decoder can group ``g x g`` macroblocks into one task; the finer the
grouping, the harder the workload is for the task manager (Table II:
4.6 µs average tasks for 1x1, 189.9 µs for 8x8).

Structure generated per frame of a 1920x1088 stream:

* a grid of ``ceil(120/g) x ceil(68/g)`` decode tasks with the Listing-1
  dependency pattern (``input(left, upright) inout(this)``) plus a read
  of the co-located block of the previous frame (motion-compensation
  reference), giving 2-4 input dependencies per task;
* frames are submitted back to back; before reusing a frame buffer the
  master executes ``taskwait on`` for the last block of the frame that
  previously occupied it.  Managers supporting the pragma (Nexus#) keep
  several frames in flight; managers that do not (Nexus++) degrade it to
  a full ``taskwait`` and lose the inter-frame overlap — the effect the
  paper highlights.

The paper's traces contain roughly 1.7x more tasks than pure macroblock
counts (the real decoder also spawns entropy-decode and deblocking
helper tasks); the substitution keeps the macroblock wavefront only and
is documented in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from repro.common.constants import H264_FRAME_HEIGHT, H264_FRAME_WIDTH, H264_MACROBLOCK_PIXELS
from repro.common.errors import ConfigurationError
from repro.common.rng import make_rng
from repro.common.validation import check_positive
from repro.trace.stream import TraceStream, materialize
from repro.trace.trace import Trace
from repro.workloads.addressing import AddressSpace

#: Average task durations per macroblock grouping (Table II).
PAPER_AVG_TASK_US = {1: 4.6, 2: 15.3, 4: 55.6, 8: 189.9}
#: Task counts reported in Table II (for reference / reporting only).
PAPER_NUM_TASKS = {1: 139961, 2: 35921, 4: 9333, 8: 2686}


@dataclass(frozen=True)
class H264Geometry:
    """Macroblock-grid geometry of the decoded stream."""

    frame_width: int = H264_FRAME_WIDTH
    frame_height: int = H264_FRAME_HEIGHT
    macroblock: int = H264_MACROBLOCK_PIXELS

    @property
    def mb_cols(self) -> int:
        return -(-self.frame_width // self.macroblock)

    @property
    def mb_rows(self) -> int:
        return -(-self.frame_height // self.macroblock)

    def task_grid(self, grouping: int) -> tuple[int, int]:
        """(rows, cols) of the task grid for ``grouping x grouping`` blocks."""
        return (-(-self.mb_rows // grouping), -(-self.mb_cols // grouping))


def stream_h264dec(
    grouping: int = 1,
    num_frames: int = 10,
    seed: Optional[int] = None,
    *,
    scale: float = 1.0,
    geometry: Optional[H264Geometry] = None,
    avg_task_us: Optional[float] = None,
    frame_buffers: int = 4,
    duration_cv: float = 0.30,
    inter_frame_dependency: bool = True,
) -> TraceStream:
    """Stream an h264dec trace (see :func:`generate_h264dec`).

    Live generator state is the O(frame_buffers x task-grid) address
    map — independent of ``num_frames``, so arbitrarily long streams
    decode with the footprint of the decoded-picture buffer, like a real
    decoder.
    """
    if grouping <= 0:
        raise ConfigurationError(f"grouping must be positive, got {grouping}")
    if num_frames <= 0:
        raise ConfigurationError(f"num_frames must be positive, got {num_frames}")
    if frame_buffers <= 0:
        raise ConfigurationError(f"frame_buffers must be positive, got {frame_buffers}")
    check_positive("scale", scale)
    if geometry is None:
        if scale != 1.0:
            factor = scale ** 0.5
            geometry = H264Geometry(
                frame_width=max(H264_MACROBLOCK_PIXELS, int(H264_FRAME_WIDTH * factor)),
                frame_height=max(H264_MACROBLOCK_PIXELS, int(H264_FRAME_HEIGHT * factor)),
            )
        else:
            geometry = H264Geometry()
    if avg_task_us is None:
        if grouping in PAPER_AVG_TASK_US:
            avg_task_us = PAPER_AVG_TASK_US[grouping]
        else:
            # Work scales with the number of macroblocks in a task.
            avg_task_us = PAPER_AVG_TASK_US[1] * grouping * grouping

    rows, cols = geometry.task_grid(grouping)
    name = f"h264dec-{grouping}x{grouping}-{num_frames}f"
    mean_task_us = avg_task_us

    def body(sink) -> Iterator[object]:
        rng = make_rng(seed, "h264dec", grouping)
        space = AddressSpace(seed=seed)

        # One address per task-grid block per frame buffer.  Buffers are
        # recycled every `frame_buffers` frames, exactly like a real
        # decoder's decoded-picture buffer.
        buffer_blocks = [space.alloc_grid(rows, cols).tolist() for _ in range(frame_buffers)]

        for frame in range(num_frames):
            buffer_index = frame % frame_buffers
            blocks = buffer_blocks[buffer_index]
            prev_blocks = buffer_blocks[(frame - 1) % frame_buffers] if frame > 0 else None
            if frame >= frame_buffers:
                # Wait for the frame that previously used this buffer to be
                # fully decoded (its bottom-right block is the last writer).
                yield sink.taskwait_on(blocks[rows - 1][cols - 1])
            jitter = rng.normal(1.0, duration_cv, size=(rows, cols)).clip(min=0.2).tolist()
            for r in range(rows):
                row = blocks[r]
                upper = blocks[r - 1] if r > 0 else None
                reference = (prev_blocks[r] if inter_frame_dependency and prev_blocks is not None
                             else None)
                jitter_row = jitter[r]
                for c in range(cols):
                    inputs = []
                    if c > 0:
                        inputs.append(row[c - 1])            # left neighbour
                    if upper is not None and c < cols - 1:
                        inputs.append(upper[c + 1])          # upper-right neighbour
                    if reference is not None:
                        inputs.append(reference[c])          # motion-compensation ref
                    yield sink.task(
                        "decode_mb",
                        duration_us=mean_task_us * jitter_row[c],
                        inputs=inputs,
                        inouts=[row[c]],
                    )
        yield sink.taskwait()

    return TraceStream.from_body(
        name,
        body,
        metadata={
            "suite": "Starbench",
            "grouping": grouping,
            "num_frames": num_frames,
            "task_grid_rows": rows,
            "task_grid_cols": cols,
            "avg_task_us": avg_task_us,
            "frame_buffers": frame_buffers,
            "scale": scale,
        },
    )


def generate_h264dec(
    grouping: int = 1,
    num_frames: int = 10,
    seed: Optional[int] = None,
    *,
    scale: float = 1.0,
    geometry: Optional[H264Geometry] = None,
    avg_task_us: Optional[float] = None,
    frame_buffers: int = 4,
    duration_cv: float = 0.30,
    inter_frame_dependency: bool = True,
) -> Trace:
    """Generate an h264dec trace.

    Parameters
    ----------
    grouping:
        Macroblocks per task edge (1, 2, 4 or 8 in the paper, any positive
        value accepted).
    num_frames:
        Number of Full-HD frames decoded (10 in the paper).
    seed:
        Seed for per-task duration jitter.
    scale:
        Shrinks the frame geometry for fast runs (scales both dimensions
        by ``sqrt(scale)``), keeping the wavefront shape.
    geometry:
        Explicit frame geometry (overrides ``scale``).
    avg_task_us:
        Mean decode time per task; defaults to the Table II value for the
        requested grouping (interpolated for other groupings).
    frame_buffers:
        Number of decoded-frame buffers; the master waits (``taskwait on``)
        for the frame that previously used a buffer before reusing it.
    duration_cv:
        Coefficient of variation of decode durations (content dependent).
    inter_frame_dependency:
        When true, each block additionally reads the co-located block of
        the previous frame (motion compensation reference).
    """
    return materialize(stream_h264dec(
        grouping, num_frames, seed,
        scale=scale, geometry=geometry, avg_task_us=avg_task_us,
        frame_buffers=frame_buffers, duration_cv=duration_cv,
        inter_frame_dependency=inter_frame_dependency))
