"""The in-order command queue: where commands get priced and executed.

``CommandQueue`` mirrors ``clCreateCommandQueue`` with profiling always
on.  Every enqueued command advances a simulated clock, appends a power
:class:`~repro.power.rails.Activity` segment to the queue's timeline,
executes the command's functional effect (NumPy copies or the kernel's
NumPy implementation), and returns an :class:`~repro.ocl.event.Event`
with profiling timestamps.

The timeline is the bridge to the measurement stack: the benchmark
runner converts it into a power trace and samples it with the simulated
Yokogawa meter.
"""

from __future__ import annotations

import numpy as np

from ..errors import (
    CLInvalidValue,
    CLInvalidWorkGroupSize,
    CLOutOfResources,
)
from ..mali.timing import GpuLaunchTiming, time_launch
from ..power.rails import Activity, ActivityKind
from .buffer import Buffer
from .context import Context
from .device import Device
from .driver import copy_seconds, driver_local_size, fill_seconds, map_seconds
from .enums import CommandStatus, CommandType, MapFlag
from .event import Event
from .kernel import Kernel


class CommandQueue:
    """In-order command queue with profiling."""

    def __init__(self, context: Context, device: Device | None = None):
        self.context = context
        self.device = device or context.device
        self._clock = 0.0
        self.timeline: list[Activity] = []
        self.events: list[Event] = []

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _record(self, command: CommandType, activity: Activity, info: dict) -> Event:
        start = self._clock
        self._clock += activity.duration_s
        self.timeline.append(activity)
        event = Event(
            command_type=command,
            queued_s=start,
            start_s=start,
            end_s=self._clock,
            status=CommandStatus.COMPLETE,
            info=info,
        )
        self.events.append(event)
        return event

    @property
    def elapsed_s(self) -> float:
        """Total simulated time consumed by this queue."""
        return self._clock

    def reset_timeline(self) -> None:
        """Drop accumulated activities (start of a timed region)."""
        self.timeline.clear()
        self.events.clear()
        self._clock = 0.0

    # ------------------------------------------------------------------
    # data commands
    # ------------------------------------------------------------------
    def enqueue_write_buffer(self, buffer: Buffer, src: np.ndarray | None = None) -> Event:
        """``clEnqueueWriteBuffer`` — explicit host→device copy."""
        if src is None:
            if buffer.host_array is None:
                raise CLInvalidValue("no source: pass src or use a USE_HOST_PTR buffer")
            src = buffer.host_array
        nbytes = buffer._write_from(src)
        duration = copy_seconds(nbytes)
        activity = Activity(
            kind=ActivityKind.HOST_COPY,
            duration_s=duration,
            active_cpu_cores=1,
            cpu_ipc=0.9,
            dram_bandwidth=2.0 * nbytes / duration,  # read + write streams
        )
        return self._record(CommandType.WRITE_BUFFER, activity, {"bytes": nbytes})

    def enqueue_read_buffer(self, buffer: Buffer, dst: np.ndarray | None = None) -> Event:
        """``clEnqueueReadBuffer`` — explicit device→host copy."""
        if dst is None:
            if buffer.host_array is None:
                raise CLInvalidValue("no destination: pass dst or use a USE_HOST_PTR buffer")
            dst = buffer.host_array
        nbytes = buffer._read_into(dst)
        duration = copy_seconds(nbytes)
        activity = Activity(
            kind=ActivityKind.HOST_COPY,
            duration_s=duration,
            active_cpu_cores=1,
            cpu_ipc=0.9,
            dram_bandwidth=2.0 * nbytes / duration,
        )
        return self._record(CommandType.READ_BUFFER, activity, {"bytes": nbytes})

    def enqueue_fill_buffer(self, buffer: Buffer, value=0) -> Event:
        """``clEnqueueFillBuffer`` — device-side memset.

        On the unified-memory Mali this is a GPU-side write stream at
        the store bandwidth; it is how kernels like the histogram zero
        their accumulators inside the timed region.
        """
        view = buffer.device_view()
        view[...] = value
        duration = fill_seconds(buffer.size, self.device.hardware.dram)
        activity = Activity(
            kind=ActivityKind.GPU_KERNEL,
            duration_s=duration,
            gpu_alu_utilization=0.02,
            gpu_ls_utilization=0.9,
            dram_bandwidth=buffer.size / duration,
        )
        return self._record(CommandType.FILL_BUFFER, activity, {"bytes": buffer.size})

    def enqueue_copy_buffer(self, src: Buffer, dst: Buffer) -> Event:
        """``clEnqueueCopyBuffer`` — device-side buffer copy."""
        if src.size != dst.size:
            raise CLInvalidValue(
                f"copy between buffers of different sizes ({src.size} vs {dst.size})"
            )
        np.copyto(dst.device_view().reshape(-1), src.device_view().reshape(-1))
        duration = fill_seconds(2 * src.size, self.device.hardware.dram)  # read + write streams
        activity = Activity(
            kind=ActivityKind.GPU_KERNEL,
            duration_s=duration,
            gpu_alu_utilization=0.02,
            gpu_ls_utilization=0.9,
            dram_bandwidth=2.0 * src.size / duration,
        )
        return self._record(CommandType.COPY_BUFFER, activity, {"bytes": src.size})

    def enqueue_map_buffer(self, buffer: Buffer, flags: MapFlag = MapFlag.READ | MapFlag.WRITE) -> tuple[np.ndarray, Event]:
        """``clEnqueueMapBuffer`` — returns the host-visible array.

        On ``ALLOC_HOST_PTR`` buffers this is the zero-copy fast path of
        Section III-A (cache maintenance only); on other buffers it
        degenerates to a full copy.
        """
        array = buffer._map()
        duration = map_seconds(buffer.size, buffer.zero_copy)
        dram_bw = (buffer.size / duration) if not buffer.zero_copy else 0.0
        activity = Activity(
            kind=ActivityKind.HOST_COPY,
            duration_s=duration,
            active_cpu_cores=1,
            cpu_ipc=0.5,
            dram_bandwidth=dram_bw,
        )
        event = self._record(
            CommandType.MAP_BUFFER, activity, {"bytes": buffer.size, "zero_copy": buffer.zero_copy}
        )
        return array, event

    def enqueue_unmap_mem_object(self, buffer: Buffer) -> Event:
        """``clEnqueueUnmapMemObject``."""
        buffer._unmap()
        duration = map_seconds(buffer.size, buffer.zero_copy)
        activity = Activity(
            kind=ActivityKind.HOST_COPY,
            duration_s=duration,
            active_cpu_cores=1,
            cpu_ipc=0.5,
            dram_bandwidth=(buffer.size / duration) if not buffer.zero_copy else 0.0,
        )
        return self._record(CommandType.UNMAP_MEM_OBJECT, activity, {"bytes": buffer.size})

    # ------------------------------------------------------------------
    # kernel launch
    # ------------------------------------------------------------------
    def enqueue_nd_range_kernel(
        self,
        kernel: Kernel,
        global_size: int,
        local_size: int | None = None,
    ) -> Event:
        """``clEnqueueNDRangeKernel`` on the simulated Mali-T604.

        ``local_size=None`` invokes the driver's (imperfect) heuristic,
        per Section III-A.  Raises ``CL_OUT_OF_RESOURCES`` for kernels
        whose register allocation failed at build time — the paper's
        double-precision nbody/2dcon failure mode.
        """
        if kernel.launch_error is not None:
            raise CLOutOfResources(
                f"kernel {kernel.name!r} cannot be scheduled: {kernel.launch_error}"
            ) from kernel.launch_error
        assert kernel.compiled is not None
        if global_size < 1:
            raise CLInvalidValue(f"global_size must be >= 1, got {global_size}")
        hw = self.device.hardware
        if local_size is None:
            local_size = driver_local_size(global_size, self.device.max_work_group_size)
        if local_size > self.device.max_work_group_size:
            raise CLInvalidWorkGroupSize(
                f"local size {local_size} > device max {self.device.max_work_group_size}"
            )
        if global_size % local_size != 0:
            raise CLInvalidWorkGroupSize(
                f"global size {global_size} not divisible by local size {local_size} "
                "(OpenCL 1.1 requirement)"
            )

        timing: GpuLaunchTiming = time_launch(
            compiled=kernel.compiled,
            n_items=global_size,
            local_size=local_size,
            traits=kernel.spec.traits,
            config=hw.mali,
            dram=hw.dram_model(),
            caches=hw.gpu_caches(),
        )

        # functional execution: device views of the buffer args
        args = [
            a.device_view() if isinstance(a, Buffer) else a
            for a in kernel.bound_args()
        ]
        kernel.spec.func(*args)

        activity = Activity(
            kind=ActivityKind.GPU_KERNEL,
            duration_s=timing.seconds,
            gpu_alu_utilization=timing.alu_utilization,
            gpu_ls_utilization=timing.ls_utilization,
            dram_bandwidth=timing.dram_bandwidth,
        )
        return self._record(
            CommandType.NDRANGE_KERNEL,
            activity,
            {
                "kernel": kernel.name,
                "global_size": global_size,
                "local_size": local_size,
                "timing": timing,
            },
        )

    def finish(self) -> None:
        """``clFinish`` — in-order synchronous queue: a no-op."""
