"""Shared host-code helpers and the timed-region steps of the GPU versions.

All benchmarks use the paper's recommended host-code pattern (§III-A):
``CL_MEM_ALLOC_HOST_PTR`` buffers with map/unmap staging, so that "both
the application processor and the Mali GPU access the data" through the
unified memory with no copies.  The memmap ablation bench exercises the
slower flag combinations explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..ocl.buffer import Buffer
from ..ocl.context import Context
from ..ocl.driver import launch_geometry
from ..ocl.enums import MapFlag, MemFlag
from ..ocl.program import KernelSpec
from ..ocl.queue import CommandQueue


def alloc_mapped(
    ctx: Context,
    queue: CommandQueue,
    data: np.ndarray | None = None,
    shape: tuple[int, ...] | int | None = None,
    dtype=None,
    flags: MemFlag = MemFlag.READ_WRITE,
) -> Buffer:
    """Create an ``ALLOC_HOST_PTR`` buffer, staging ``data`` via map."""
    flags = flags | MemFlag.ALLOC_HOST_PTR
    if data is not None:
        buf = Buffer(ctx, flags, hostbuf=data)
        view, _ = queue.enqueue_map_buffer(buf, MapFlag.WRITE)
        view[...] = data
        queue.enqueue_unmap_mem_object(buf)
    else:
        buf = Buffer(ctx, flags, shape=shape, dtype=dtype)
    return buf


def read_mapped(queue: CommandQueue, buf: Buffer) -> np.ndarray:
    """Map a buffer for reading and return a copy of its contents."""
    view, _ = queue.enqueue_map_buffer(buf, MapFlag.READ)
    out = np.array(view, copy=True)
    queue.enqueue_unmap_mem_object(buf)
    return out


@dataclass(frozen=True)
class KernelLaunch:
    """One kernel launch of the timed region.

    ``args`` name the launch's argument buffers (keys of
    ``gpu_buffers``) in parameter order.  The launch covers ``n``
    elements, ``ceil(n / elems_per_item)`` work-items once compiled, or
    with ``fixed_grid`` runs exactly ``n`` work-items.  ``local`` maps
    the tuned local size (``None``: the driver's pick) to this launch's.
    """

    spec: KernelSpec
    args: tuple[str, ...]
    n: int
    fixed_grid: bool = False
    local: Callable[[int | None], int | None] = lambda local_size: local_size

    def work_items(self, elems_per_item: int) -> int:
        """Work-items before the round-up to a local-size multiple."""
        if self.fixed_grid:
            return self.n
        return max(1, -(-self.n // elems_per_item))

    def geometry(
        self, elems_per_item: int, local_size: int | None, max_work_group_size: int
    ) -> tuple[int, int]:
        """``(global, local)`` sizes of this launch under a tuned local size."""
        return launch_geometry(
            self.work_items(elems_per_item), self.local(local_size), max_work_group_size
        )


@dataclass(frozen=True)
class DeviceFill:
    """A device-side zeroing of one buffer (``clEnqueueFillBuffer``)."""

    buffer: str
    nbytes: int


def kernel_launches(steps) -> list[KernelLaunch]:
    """The kernel steps of a declaration, in enqueue order.

    The first is the main kernel: the launch of ``kernel_ir(options)``.
    """
    return [s for s in steps if isinstance(s, KernelLaunch)]
