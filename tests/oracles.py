"""Naive scalar oracles the test suites compare the library against.

Each model in ``repro`` has exactly one implementation in ``src/``: the
Mali launch model and the A15 Serial/OpenMP models are the config-axis
stacks (:class:`repro.mali.timing.GpuConfigStack`,
:class:`repro.cpu.pricing.CpuConfigStack`), and the Pareto frontier is
the O(n log n) :func:`repro.pareto.skyline`.  This module keeps one
deliberately naive reference per model — plain Python walks over the
instruction-mix dicts, no hoisting, no NumPy — as the independent
check those implementations must match bit for bit:

* Mali-T604: :func:`_time_launch_uncached` (with :func:`_arith_cycles`,
  :func:`_ls_cycles`, :func:`_access_width_efficiency` and
  :func:`_threads_per_core`);
* Cortex-A15: :func:`_time_serial_scalar` / :func:`_time_openmp_scalar`
  over :func:`_core_cycles`;
* Pareto: :func:`skyline_reference` and :func:`frontier_reference`, the
  O(n²) all-pairs scans;
* design space: :func:`facade_rows`, one config's rows priced through
  its own :class:`~repro.pricing.grid.PlatformPricing` facade — the
  per-config plumbing the stacked ``DesignSpace.rows`` must reproduce.
"""

from __future__ import annotations

import math

from repro.compiler.regalloc import fits_register_file, threads_for_scale
from repro.cpu.serial import CpuTiming
from repro.designspace import SpaceRows
from repro.errors import CLOutOfResources
from repro.ir.dtypes import DType, scalar_bits
from repro.ir.nodes import AccessPattern, MemSpace
from repro.mali.job_manager import distribute
from repro.mali.occupancy import derive_occupancy
from repro.mali.timing import GpuLaunchTiming
from repro.pareto import _is_feasible, point_key, strictly_dominates
from repro.power.rails import Activity, ActivityKind


# ---------------------------------------------------------------------------
# Mali-T604 launch model
# ---------------------------------------------------------------------------


def _threads_per_core(compiled: CompiledKernel, config: MaliConfig) -> int:
    """Register-limited resident threads of a kernel on one config.

    The baseline register file returns exactly the compile-time
    ``threads_per_core`` (the historical bitwise path); a scaled file
    recomputes the tier from the kernel's effective register demand, or
    raises ``CL_OUT_OF_RESOURCES`` when the kernel no longer fits — the
    launch-time failure mode design-space sweeps use to mark candidates
    infeasible on leaner SoC variants.
    """
    scale = config.register_file_scale
    if scale == 1.0:
        return compiled.registers.threads_per_core
    report = compiled.registers
    if not fits_register_file(report, scale):
        raise CLOutOfResources(
            f"kernel needs {report.registers_128} 128-bit registers, "
            f"exceeding the {scale}x-scaled register file"
        )
    return threads_for_scale(report, scale)


def _arith_cycles(mix: InstructionMix, config: MaliConfig, native_math: bool = False) -> float:
    cycles = 0.0
    for (op, base, width, accumulates), count in mix.arith.items():
        cycles += count * config.arith_issue_cost(
            op, base=base, width=width, scalar_bits=scalar_bits(base), native_math=native_math
        )
    cycles += mix.loop_headers * config.loop_header_cost
    cycles += mix.branches * config.branch_cost
    cycles += mix.calls * config.call_cost
    return cycles


def _ls_cycles(mix: InstructionMix, config: MaliConfig) -> float:
    cycles = 0.0
    for (kind, space, pattern, base, width, sequential, aligned), count in mix.mem.items():
        if space == MemSpace.PRIVATE:
            continue  # register-resident; spills are emitted as GLOBAL
        cost = config.ls_issue_cost(width, scalar_bits=scalar_bits(base))
        if width > 1 and not aligned:
            # sliding-window vloads at arbitrary element offsets cross
            # register boundaries: two LS issues each
            cost *= 2.0
        if space == MemSpace.CONSTANT:
            # __constant data comes through the constant cache / uniform
            # registers and barely touches the LS pipe; a broadcast from
            # plain __global memory still pays the full LS transaction
            cost *= config.uniform_load_cost_factor
        cycles += count * cost
    for (op, base, space), count in mix.atomics.items():
        if space == MemSpace.LOCAL:
            cycles += count * config.atomic_local_cycles
        else:
            cycles += count * config.atomic_cycles
    return cycles


def _access_width_efficiency(mix: InstructionMix, config: MaliConfig) -> float:
    """Bandwidth efficiency from the average global-access width.

    Midgard threads issue independent L2/DRAM transactions (no
    warp-level coalescing), so a stream of 32-bit scalar accesses
    sustains only ``scalar_access_dram_efficiency`` of the bandwidth a
    128-bit ``vload4`` stream reaches.  Interpolates linearly in the
    byte-weighted mean access width.
    """
    total_bytes = 0.0
    weighted_bits = 0.0
    for (kind, space, pattern, base, width, sequential, aligned), count in mix.mem.items():
        if space != MemSpace.GLOBAL:
            continue
        nbytes = count * DType(base, width).bytes
        total_bytes += nbytes
        if sequential:
            # a per-thread streaming walk consumes whole cache lines
            # regardless of the instruction width
            weighted_bits += nbytes * config.lane_bits
        else:
            weighted_bits += nbytes * min(width * scalar_bits(base), config.lane_bits)
    if total_bytes <= 0.0:
        return 1.0
    mean_bits = weighted_bits / total_bytes
    # 32-bit accesses -> the scalar floor; 128-bit accesses -> full rate
    frac = min(max((mean_bits - 32.0) / (config.lane_bits - 32.0), 0.0), 1.0)
    low = config.scalar_access_dram_efficiency
    return low + (1.0 - low) * frac


def _time_launch_uncached(
    compiled: CompiledKernel,
    n_items: int,
    local_size: int,
    traits: WorkloadTraits,
    config: MaliConfig,
    dram: DramModel,
    caches: CacheHierarchy,
    concurrent_agents: int = 1,
) -> GpuLaunchTiming:
    if n_items < 1:
        raise ValueError(f"n_items must be >= 1, got {n_items}")
    mix = compiled.mix
    totals = mix.scaled(float(n_items))

    occ = derive_occupancy(_threads_per_core(compiled, config), local_size)
    dist, imbalance = distribute(n_items, local_size, config, traits.imbalance_cv)

    clock = config.clock_hz
    n_cores = config.shader_cores

    native_math = compiled.options.native_math
    arith_cycles = _arith_cycles(totals, config, native_math) / (
        n_cores * config.arith_pipes_per_core
    )
    ls_cycles = _ls_cycles(totals, config) / (n_cores * config.ls_pipes_per_core)
    arith_s = arith_cycles / clock / occ.hiding
    ls_s = ls_cycles / clock / occ.hiding

    traffic = caches.dram_traffic(list(traits.streams))
    dram_bytes = sum(traffic.values())
    access_eff = _access_width_efficiency(totals, config)
    dram_s = (
        dram.transfer_seconds(
            "gpu", bytes_by_pattern=traffic, concurrent_agents=concurrent_agents
        )
        / occ.bandwidth_hiding
        / access_eff
        if dram_bytes > 0
        else 0.0
    )

    atomic_s = (
        totals.atomic_contention_weight * config.atomic_cycles
        # local atomics serialize only within one core: 1/n_cores weight
        + totals.atomic_contention_weight_local * config.atomic_local_cycles / n_cores
    ) / clock

    barrier_instances = totals.barriers / max(local_size, 1)
    barrier_s = barrier_instances * config.barrier_cycles / clock / n_cores

    components = {"arith": arith_s, "ls": ls_s, "dram": dram_s, "atomic": atomic_s}
    bottleneck = max(components, key=components.get)
    peak = components[bottleneck]
    leak = config.overlap_leak * (sum(components.values()) - peak)
    parallel_s = (peak + leak) * imbalance + barrier_s

    total = parallel_s + dist.schedule_seconds + config.launch_overhead_s

    return GpuLaunchTiming(
        seconds=total,
        arith_seconds=arith_s,
        ls_seconds=ls_s,
        dram_seconds=dram_s,
        atomic_seconds=atomic_s,
        barrier_seconds=barrier_s,
        schedule_seconds=dist.schedule_seconds,
        launch_overhead_seconds=config.launch_overhead_s,
        imbalance_factor=imbalance,
        occupancy=occ,
        distribution=dist,
        dram_bytes=dram_bytes,
        bottleneck=bottleneck,
    )


# ---------------------------------------------------------------------------
# Cortex-A15 Serial / OpenMP models
# ---------------------------------------------------------------------------


def _core_cycles(
    totals: InstructionMix,
    config: A15Config,
    caches: CacheHierarchy,
    traits: WorkloadTraits,
) -> tuple[float, float]:
    """(busy cycles on one core, instruction count) for the whole mix."""
    fp_cycles = 0.0
    int_cycles = 0.0
    accum_cycles = 0.0
    instructions = 0.0
    for (op, base, width, accumulates), count in totals.arith.items():
        if accumulates and base.startswith("f"):
            # loop-carried FP dependency: no -funsafe-math-optimizations
            # means GCC may not reassociate, so the chain advances one
            # element per VFP result latency.  The chain is its own
            # serialization resource: independent work (loads, index
            # arithmetic, loop headers) executes underneath it.
            per_lane = max(config.op_cycles[op], config.accum_latency(op))
            if base == "f64":
                per_lane *= config.fp64_cost_factor
            accum_cycles += count * per_lane * width
        else:
            cycles = count * config.arith_cycles(op, base, width)
            if base.startswith("f"):
                fp_cycles += cycles
            else:
                int_cycles += cycles
        instructions += count * width

    ls_count = 0.0
    irregular_ls = 0.0
    for (kind, space, pattern, base, width, sequential, aligned), count in totals.mem.items():
        if space == MemSpace.PRIVATE:
            continue
        ls_count += count * width  # scalar code: one instruction per lane
        if pattern in (AccessPattern.STRIDED, AccessPattern.GATHER, AccessPattern.ATOMIC):
            irregular_ls += count * width
    l1_hit = caches.l1_hit_fraction(list(traits.streams))
    ls_cycles = ls_count / config.ls_ops_per_cycle
    # L1-miss latency only exposes on irregular accesses: the A15's
    # prefetchers and OoO window hide it for unit-stride streams (their
    # cost is the DRAM-bandwidth roofline, charged separately)
    ls_cycles += irregular_ls * (1.0 - l1_hit) * config.l2_hit_penalty_cycles
    # irregular accesses that miss the L2 stall the pipeline for a DRAM
    # round trip the OoO window cannot hide (dependent-address chains:
    # the naive dmmm column walk is the canonical victim)
    irregular = [
        st for st in traits.streams
        if st.pattern in (AccessPattern.STRIDED, AccessPattern.GATHER, AccessPattern.ATOMIC)
    ]
    if irregular and irregular_ls > 0.0:
        requested = sum(st.requested_bytes for st in irregular)
        if requested > 0.0:
            traffic = caches.dram_traffic(list(traits.streams))
            irregular_dram = traffic.get(AccessPattern.STRIDED, 0.0) + traffic.get(
                AccessPattern.GATHER, 0.0
            ) + traffic.get(AccessPattern.ATOMIC, 0.0)
            miss_frac = min(irregular_dram / requested, 1.0)
            ls_cycles += irregular_ls * miss_frac * config.dram_miss_penalty_cycles
    instructions += ls_count

    branch_cycles = (
        totals.branches * config.mispredict_rate
        + totals.divergent_branches * (config.divergent_mispredict_rate - config.mispredict_rate)
    ) * config.mispredict_penalty
    loop_cycles = totals.loop_headers * config.loop_header_cycles
    call_cycles = totals.calls * config.call_cycles
    atomic_cycles = totals.atomic_ops() * config.atomic_cycles
    instructions += totals.branches + totals.loop_headers + totals.calls + totals.atomic_ops()

    # FP, integer, LS and the FP dependency chain overlap on an OoO
    # core: the busiest resource dominates; a fraction of the rest
    # leaks past the overlap; serialization costs (mispredicts, calls,
    # atomics) add.  Loop headers overlap like integer work when a
    # dependency chain dominates.
    busy = max(fp_cycles, int_cycles + loop_cycles, ls_cycles, accum_cycles)
    leak = 0.25 * (fp_cycles + int_cycles + loop_cycles + ls_cycles + accum_cycles - busy)
    cycles = busy + leak + branch_cycles + call_cycles + atomic_cycles
    return cycles, instructions


def _time_serial_scalar(
    mix: InstructionMix,
    n_elements: int,
    traits: WorkloadTraits,
    config: A15Config,
    dram: DramModel,
    caches: CacheHierarchy,
) -> CpuTiming:
    """Scalar reference implementation (property-tested against the shim)."""
    if n_elements < 1:
        raise ValueError(f"n_elements must be >= 1, got {n_elements}")
    totals = mix.scaled(float(n_elements))
    # the serial element loop itself
    totals.loop_headers += float(n_elements)

    cycles, instructions = _core_cycles(totals, config, caches, traits)
    compute_s = cycles / config.clock_hz

    traffic = caches.dram_traffic(list(traits.streams))
    dram_bytes = sum(traffic.values())
    dram_s = (
        dram.transfer_seconds("cpu1", bytes_by_pattern=traffic) if dram_bytes > 0 else 0.0
    )

    # The OoO window overlaps compute with outstanding misses; the
    # non-dominant component leaks past the overlap by (1 - mlp_overlap)
    total = max(compute_s, dram_s) + (1.0 - config.mlp_overlap) * min(compute_s, dram_s)
    stall = total - compute_s

    ipc = instructions / (total * config.clock_hz) if total > 0 else 0.0
    return CpuTiming(
        seconds=total,
        compute_seconds=compute_s,
        mem_stall_seconds=stall,
        dram_seconds=dram_s,
        overhead_seconds=0.0,
        dram_bytes=dram_bytes,
        active_cores=1,
        ipc=ipc,
    )


def _time_openmp_scalar(
    mix: InstructionMix,
    n_elements: int,
    traits: WorkloadTraits,
    config: A15Config,
    dram: DramModel,
    caches: CacheHierarchy,
) -> CpuTiming:
    """Scalar reference implementation (property-tested against the shim)."""
    if n_elements < 1:
        raise ValueError(f"n_elements must be >= 1, got {n_elements}")
    n_cores = config.cores
    totals = mix.scaled(float(n_elements))
    totals.loop_headers += float(n_elements)

    cycles, instructions = _core_cycles(totals, config, caches, traits)
    serial_cycles = cycles * traits.serial_fraction
    parallel_cycles = cycles - serial_cycles

    # imbalance between 2 cores: expected max of per-core sums; for n/2
    # chunks per core with per-chunk cv the max exceeds the mean by
    # cv * sqrt(2 ln cores / chunks)
    imbalance = 1.0
    if traits.imbalance_cv > 0.0:
        chunks_per_core = max(n_elements / n_cores, 1.0)
        imbalance = 1.0 + traits.imbalance_cv * math.sqrt(
            2.0 * math.log(max(n_cores, 2)) / chunks_per_core
        )
    # static scheduling over large arrays behaves like few big chunks:
    # raggedness concentrates less than per-element, so floor it
    imbalance = max(imbalance, 1.0 + 0.35 * traits.imbalance_cv / math.sqrt(n_cores))

    compute_s = (
        serial_cycles + parallel_cycles / n_cores * imbalance
    ) / config.clock_hz

    traffic = caches.dram_traffic(list(traits.streams))
    dram_bytes = sum(traffic.values())
    dram_s = (
        dram.transfer_seconds("cpu2", bytes_by_pattern=traffic) if dram_bytes > 0 else 0.0
    )

    total = max(compute_s, dram_s) + (1.0 - config.mlp_overlap) * min(compute_s, dram_s)
    stall = total - compute_s

    overhead = traits.launches * (
        config.omp_region_overhead_s + n_cores * config.omp_chunk_overhead_s
    )
    total += overhead

    ipc = instructions / (total * config.clock_hz * n_cores) if total > 0 else 0.0
    return CpuTiming(
        seconds=total,
        compute_seconds=compute_s,
        mem_stall_seconds=stall,
        dram_seconds=dram_s,
        overhead_seconds=overhead,
        dram_bytes=dram_bytes,
        active_cores=n_cores,
        ipc=ipc,
    )


# ---------------------------------------------------------------------------
# Pareto frontier and design-space rows
# ---------------------------------------------------------------------------


def skyline_reference(points, key=point_key) -> tuple:
    """The O(n²) all-pairs frontier — oracle for :func:`skyline`."""
    feasible = [p for p in points if _is_feasible(p)]
    keys = [key(p) for p in feasible]
    front = [
        p
        for p, kp in zip(feasible, keys)
        if not any(strictly_dominates(kq[0], kq[1], kp[0], kp[1]) for kq in keys)
    ]
    return tuple(sorted(front, key=key))


def frontier_reference(points) -> tuple[DesignPoint, ...]:
    """The O(n²) all-pairs frontier — oracle and benchmark baseline."""
    return skyline_reference(points, key=point_key)


def facade_rows(space, config) -> SpaceRows:
    """Row arrays of one config of ``space`` via its per-platform facade.

    The per-config plumbing reference for ``DesignSpace.rows``: the
    config's derived platform (``SoCConfig.platform()``) and its
    :class:`~repro.pricing.grid.PlatformPricing`, cells pre-filtered by
    the same register-file predicate the stack uses, each cell priced
    through its model's ``price_one`` and its power through the scalar
    ``BoardPowerModel.trace``.  Returns a single ``(1, cells)`` row.
    """
    import numpy as np

    platform = config.platform(space.base)
    pricing = platform.pricing_model()
    board = pricing.power_model
    rf_scale = platform.mali.register_file_scale

    cpu_rows = [pricing.cpu.price_one(cell) for cell in space.cpu_cells]
    feasible = [
        fits_register_file(cell.compiled.registers, rf_scale)
        for cell in space.gpu_cells
    ]
    width = len(space.gpu_cells)
    gpu_seconds = np.full(width, np.inf)
    gpu_iter = np.full(width, np.inf)
    gpu_watts = np.zeros(width)
    gpu_energy = np.full(width, np.inf)
    for i, cell in enumerate(space.gpu_cells):
        if not feasible[i]:
            continue
        t = pricing.gpu.price_one(cell)
        duration = t.seconds * cell.traits.launches
        trace = board.trace(
            [
                Activity(
                    kind=ActivityKind.GPU_KERNEL,
                    duration_s=duration,
                    gpu_alu_utilization=t.alu_utilization,
                    gpu_ls_utilization=t.ls_utilization,
                    dram_bandwidth=t.dram_bandwidth,
                )
            ]
        )
        gpu_seconds[i] = t.seconds
        gpu_iter[i] = duration
        gpu_watts[i] = trace.segments[0].watts
        gpu_energy[i] = trace.energy_j
    cpu_traces = [
        board.trace(
            [
                Activity(
                    kind=ActivityKind.CPU,
                    duration_s=r.seconds,
                    active_cpu_cores=r.active_cores,
                    cpu_ipc=r.ipc,
                    dram_bandwidth=r.dram_bandwidth,
                )
            ]
        )
        for r in cpu_rows
    ]
    return SpaceRows(
        gpu_feasible=np.asarray(feasible, dtype=bool)[None, :],
        gpu_seconds=gpu_seconds[None, :],
        gpu_iter_seconds=gpu_iter[None, :],
        gpu_watts=gpu_watts[None, :],
        gpu_energy=gpu_energy[None, :],
        cpu_seconds=np.asarray([r.seconds for r in cpu_rows])[None, :],
        cpu_watts=np.asarray([t.segments[0].watts for t in cpu_traces])[None, :],
        cpu_energy=np.asarray([t.energy_j for t in cpu_traces])[None, :],
    )
