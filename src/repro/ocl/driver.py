"""Driver-stack behaviours: quirks, heuristics and transfer costs.

Three empirical behaviours of the 2013 ARM Mali driver stack matter to
the paper's results and are modelled here:

* **the FP64 compiler defect** — "a compiler issue that does not allow
  the correct termination of the compilation phase for the OpenCL
  kernel in double precision" (paper §V-A, amcd).  The defect triggers
  on kernels combining double-precision arithmetic with an inlined
  integer-RNG helper (the Metropolis acceptance pattern);
* **the unreliable NULL local-size heuristic** — "we noticed that,
  currently, the driver is not always capable of doing a good
  selection" (§III-A): the driver picks the largest power-of-two
  divisor of the global size up to 128, ignoring register pressure and
  work-group-count quantization;
* **host transfer costs** — memcpy bandwidth for enqueue read/write
  copies and cache-maintenance cost for map/unmap on the unified
  memory, driving the Section III-A host-code comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..compiler.options import CompileOptions
from ..errors import CompilerInternalError
from ..ir.analysis import walk_stmts
from ..ir.nodes import Call, Kernel

#: sustained CPU memcpy bandwidth for enqueue read/write copies, bytes/s
HOST_MEMCPY_BANDWIDTH = 2.2e9
#: fixed driver cost of any enqueue data command, seconds
TRANSFER_BASE_OVERHEAD_S = 12e-6
#: cache clean/invalidate bandwidth for map/unmap on unified memory
CACHE_MAINTENANCE_BANDWIDTH = 9.0e9
#: fixed cost of a map or unmap call, seconds
MAP_BASE_OVERHEAD_S = 6e-6
#: shortest device-side fill or copy, seconds
DEVICE_COMMAND_MIN_S = 2e-6

#: helper-function names the FP64 compiler defect trips over
_RNG_HELPER_NAMES = frozenset({"lcg_rand", "xorshift", "rand_lcg"})


@dataclass(frozen=True)
class Fp64RngCompilerBug:
    """The amcd double-precision compile failure, as a quirk-table entry."""

    def check(self, kernel: Kernel, options: CompileOptions) -> None:
        if not kernel.uses_fp64:
            return
        for stmt in walk_stmts(kernel.body):
            if isinstance(stmt, Call) and stmt.name in _RNG_HELPER_NAMES:
                raise CompilerInternalError(
                    f"internal error: compilation of kernel {kernel.name!r} did not "
                    "terminate (known driver defect: fp64 kernels with inlined "
                    f"integer RNG helper {stmt.name!r}; fixed in a future driver)"
                )


@dataclass(frozen=True)
class EmbeddedProfileNoFp64:
    """OpenCL *Embedded Profile* restriction: no ``cl_khr_fp64``.

    §II-B of the paper: most pre-T604 embedded GPUs shipped the Embedded
    Profile, whose relaxations include exactly the 64-bit support HPC
    needs — "devices that can be profitably used in a HPC scenario will
    still have to support the OpenCL Full Profile".  Building a kernel
    that touches fp64 on such a device fails outright.
    """

    def check(self, kernel: Kernel, options: CompileOptions) -> None:
        if kernel.uses_fp64:
            raise CompilerInternalError(
                f"kernel {kernel.name!r} uses double precision, but this device "
                "implements only the OpenCL Embedded Profile (no cl_khr_fp64); "
                "HPC workloads require a Full Profile device such as the Mali-T604"
            )


def default_quirks() -> tuple:
    """The quirk table of the simulated driver version."""
    return (Fp64RngCompilerBug(),)


def embedded_profile_quirks() -> tuple:
    """Quirk table of a pre-T604 Embedded Profile device."""
    return (EmbeddedProfileNoFp64(), Fp64RngCompilerBug())


def platform_quirks(platform) -> tuple:
    """The quirk table of ``platform`` (``None`` or a platform without
    its own table: the simulated driver version's defaults)."""
    quirks = getattr(platform, "driver_quirks", None)
    return quirks if quirks is not None else default_quirks()


def driver_local_size(global_size: int, max_work_group_size: int) -> int:
    """The driver's work-group size pick when ``local_work_size=NULL``.

    Real behaviour per the paper: frequently adequate, sometimes bad.
    The modelled heuristic takes the largest power-of-two divisor of the
    global size, capped at 128 — it never considers register pressure
    (so register-heavy kernels get quantized occupancy) nor the
    work-group count (so small launches land on fewer groups than
    cores).
    """
    if global_size < 1:
        raise ValueError("global_size must be >= 1")
    pick = 1
    while pick * 2 <= min(128, max_work_group_size) and global_size % (pick * 2) == 0:
        pick *= 2
    return pick


def launch_geometry(
    work_items: int, local_size: int | None, max_work_group_size: int
) -> tuple[int, int]:
    """``(global, local)`` sizes of an NDRange launch of ``work_items``.

    With an explicit local size the global size is rounded up to a
    multiple (kernels guard the tail); with ``None`` the driver picks a
    divisor of ``work_items`` itself (:func:`driver_local_size`).
    """
    if local_size is None:
        return work_items, driver_local_size(work_items, max_work_group_size)
    return -(-work_items // local_size) * local_size, local_size


def copy_seconds(nbytes: int) -> float:
    """Host-side time for an enqueue read/write copy of ``nbytes``."""
    return TRANSFER_BASE_OVERHEAD_S + nbytes / HOST_MEMCPY_BANDWIDTH


def map_seconds(nbytes: int, zero_copy: bool) -> float:
    """Host-side time for a map (or unmap) of ``nbytes``.

    Zero-copy (ALLOC_HOST_PTR) buffers pay only cache maintenance; a
    map of a non-host-allocated buffer degenerates to a full copy.
    """
    if zero_copy:
        return MAP_BASE_OVERHEAD_S + nbytes / CACHE_MAINTENANCE_BANDWIDTH
    return copy_seconds(nbytes)


def fill_seconds(nbytes: int, dram) -> float:
    """Device time to write ``nbytes`` (``clEnqueueFillBuffer``).

    On the unified-memory Mali a fill is a GPU-side write stream at the
    store bandwidth of the ``dram`` config.
    """
    return max(nbytes / (dram.gpu_cap * dram.efficiency.unit), DEVICE_COMMAND_MIN_S)
