"""Per-launch timing model for the Mali-T604.

``time_launch`` prices one ``clEnqueueNDRangeKernel`` of a compiled
kernel as a three-roofline model with explicit overheads:

* **arithmetic roofline** — issued vector micro-ops across
  4 cores × 2 arithmetic pipes, scaled by latency hiding (occupancy);
* **load/store roofline** — memory instructions through the per-core
  LS pipe (this is what vector loads relieve: one ``vload4`` is one LS
  issue where four scalar loads were four);
* **DRAM roofline** — bytes that miss the L2, at the pattern-dependent
  effective bandwidth of the shared DDR3L interface;

plus atomic serialization, barrier costs, Job-Manager work-group
scheduling, launch overhead, and an imbalance multiplier.  The largest
roofline is the bottleneck; a calibrated fraction of the other two
leaks past the overlap (threads cannot always cover both).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .. import perf
from ..compiler.pipeline import CompiledKernel
from ..compiler.regalloc import fits_register_file, threads_for_scale
from ..errors import CLOutOfResources
from ..ir.analysis import InstructionMix
from ..ir.dtypes import scalar_bits
from ..ir.nodes import AccessPattern, MemSpace
from ..memory.cache import CacheHierarchy
from ..memory.dram import DramModel
from ..workload import WorkloadTraits
from .config import MaliConfig
from .job_manager import Distribution, distribute
from .occupancy import (
    FULL_BANDWIDTH_THREADS,
    FULL_HIDING_THREADS,
    MIN_HIDING,
    Occupancy,
    derive_occupancy,
)


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


@dataclass(frozen=True)
class GpuLaunchTiming:
    """Timing breakdown of one kernel launch on the GPU."""

    seconds: float
    arith_seconds: float
    ls_seconds: float
    dram_seconds: float
    atomic_seconds: float
    barrier_seconds: float
    schedule_seconds: float
    launch_overhead_seconds: float
    imbalance_factor: float
    occupancy: Occupancy
    distribution: Distribution
    dram_bytes: float
    bottleneck: str

    @property
    def alu_utilization(self) -> float:
        """Fraction of the run the arithmetic pipes are busy (power input)."""
        return min(self.arith_seconds / self.seconds, 1.0) if self.seconds > 0 else 0.0

    @property
    def ls_utilization(self) -> float:
        return min(self.ls_seconds / self.seconds, 1.0) if self.seconds > 0 else 0.0

    @property
    def dram_bandwidth(self) -> float:
        """Average achieved DRAM bandwidth over the launch, bytes/s."""
        return self.dram_bytes / self.seconds if self.seconds > 0 else 0.0

    @property
    def clock_sensitivity(self) -> float:
        """Fraction of the launch that scales with the shader clock.

        The DVFS layer's frequency-response fit ``t(f) = a/f + b``
        splits a launch into a clock-scaled part and a clock-invariant
        floor; this is the launch's own estimate of the scaled share,
        from the two clock-independent terms the model knows about: the
        DRAM roofline (when it is the binding bottleneck — its seconds
        ride the memory clock, not the shader clock) and the constant
        launch overhead.  Compute-bound launches approach 1.0;
        streaming, bandwidth-bound launches fall toward 0.0.
        """
        if self.seconds <= 0:
            return 0.0
        invariant = self.launch_overhead_seconds
        if self.bottleneck == "dram":
            invariant += self.dram_seconds * self.imbalance_factor
        return min(max(1.0 - invariant / self.seconds, 0.0), 1.0)


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
        from ..ir.dtypes import DType

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


def time_launch(
    compiled: CompiledKernel,
    n_items: int,
    local_size: int,
    traits: WorkloadTraits,
    config: MaliConfig,
    dram: DramModel,
    caches: CacheHierarchy,
    concurrent_agents: int = 1,
) -> GpuLaunchTiming:
    """Price one NDRange launch of ``n_items`` work-items.

    Pure in all arguments (the mutable model objects are keyed by their
    frozen configs), so results are memoized content-addressed: the
    autotuner prices each distinct (kernel, options, local size) point
    once per process — and, with a persistent tier attached, once per
    campaign.  One-shot callers go through a throwaway
    :class:`LaunchPricer`; sweeps that price many ``(n_items,
    local_size)`` candidates of the same kernel should hold one pricer
    and amortize its vectorized tables.
    """
    return LaunchPricer(
        compiled, traits, config, dram, caches, concurrent_agents=concurrent_agents
    ).price(n_items, local_size)


class _HashedKey:
    """A memo-key part that caches its (expensive) structural hash.

    The ``gpu_timing`` memo keys embed deeply nested frozen dataclasses
    (compiled kernel, traits, configs); hashing them from scratch on
    every table lookup dominates the batched cold path.  This wrapper is
    transparent in equality and ``repr`` — keys assembled from wrapped
    parts occupy the same memo slots and produce the same persistent
    ``sha256(repr(key))`` digests as the historical raw tuples — but the
    hash is computed once, at pricer construction.
    """

    __slots__ = ("value", "_hash")

    def __init__(self, value) -> None:
        self.value = value
        self._hash = hash(value)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if isinstance(other, _HashedKey):
            return self.value == other.value
        return self.value == other

    def __repr__(self) -> str:
        return repr(self.value)

    def __reduce__(self):
        # str/bytes hashes are randomized per process: rebuild from the
        # value so an unpickled key part hashes correctly where it lands
        return (_HashedKey, (self.value,))


def _hashed_key_part(obj) -> _HashedKey:
    """``_HashedKey(content_key(obj))`` with a single structure walk.

    ``content_key`` returns hashable values untouched (after probing
    ``hash``), so wrapping the raw object directly skips that probe;
    the ``TypeError`` fallback covers unhashable values.
    """
    try:
        return _HashedKey(obj)
    except TypeError:
        return _HashedKey(perf.content_key(obj))


def _attached_key_part(obj) -> _HashedKey:
    """:func:`_hashed_key_part`, cached on the keyed object itself.

    Compiled kernels and traits are immutable once built and typically
    priced many times per campaign (every tuner candidate, every grid
    row); their structural content key is a pure derived constant, so it
    is computed once and attached to the instance.  Per-process only —
    :class:`CompiledKernel` strips derived attributes on pickle and
    :class:`_HashedKey` re-hashes on unpickle, so hash randomization
    never leaks a stale hash across worker processes.
    """
    part = obj.__dict__.get("_timing_key_part")
    if part is None:
        part = _hashed_key_part(obj)
        object.__setattr__(obj, "_timing_key_part", part)
    return part


#: distinct item counts below which the 2-D bulk slice pass costs more
#: in ufunc dispatch than it saves (both paths are bitwise-identical)
_BULK_THRESHOLD = 32


class _MixColumns:
    """Vectorized per-entry (count, cost) columns of one kernel's mix.

    Every column preserves the source dict's iteration order so
    sequential summation over the elementwise products reproduces the
    scalar accumulation loops of ``_arith_cycles`` / ``_ls_cycles`` /
    ``_access_width_efficiency`` bit for bit.  Columns are plain Python
    lists — small mixes price fastest through scalar loops — with NumPy
    views materialized on demand for the 2-D bulk pass (:meth:`arrays`).

    A pure derived constant of ``(compiled, config)``: built once and
    cached on the compiled kernel (:func:`_columns_for`), shared by
    every pricer of that kernel — batched grids and one-shot
    ``time_launch`` calls alike.
    """

    __slots__ = (
        "arith_counts",
        "arith_costs",
        "ls_counts",
        "ls_costs",
        "glb_counts",
        "glb_bytes",
        "glb_bits",
        "_arrays",
    )

    def __init__(self, compiled: CompiledKernel, config: MaliConfig) -> None:
        from ..ir.dtypes import DType

        mix = compiled.mix
        native_math = compiled.options.native_math
        arith_counts: list[float] = []
        arith_costs: list[float] = []
        for (op, base, width, accumulates), count in mix.arith.items():
            arith_counts.append(count)
            arith_costs.append(
                config.arith_issue_cost(
                    op,
                    base=base,
                    width=width,
                    scalar_bits=scalar_bits(base),
                    native_math=native_math,
                )
            )
        ls_counts: list[float] = []
        ls_costs: list[float] = []
        for (kind, space, pattern, base, width, sequential, aligned), count in mix.mem.items():
            if space == MemSpace.PRIVATE:
                continue
            cost = config.ls_issue_cost(width, scalar_bits=scalar_bits(base))
            if width > 1 and not aligned:
                cost *= 2.0
            if space == MemSpace.CONSTANT:
                cost *= config.uniform_load_cost_factor
            ls_counts.append(count)
            ls_costs.append(cost)
        for (op, base, space), count in mix.atomics.items():
            ls_counts.append(count)
            ls_costs.append(
                config.atomic_local_cycles
                if space == MemSpace.LOCAL
                else config.atomic_cycles
            )
        glb_counts: list[float] = []
        glb_bytes: list[float] = []
        glb_bits: list[float] = []
        for (kind, space, pattern, base, width, sequential, aligned), count in mix.mem.items():
            if space != MemSpace.GLOBAL:
                continue
            glb_counts.append(count)
            glb_bytes.append(float(DType(base, width).bytes))
            glb_bits.append(
                float(config.lane_bits)
                if sequential
                else float(min(width * scalar_bits(base), config.lane_bits))
            )
        self.arith_counts = arith_counts
        self.arith_costs = arith_costs
        self.ls_counts = ls_counts
        self.ls_costs = ls_costs
        self.glb_counts = glb_counts
        self.glb_bytes = glb_bytes
        self.glb_bits = glb_bits
        self._arrays: tuple | None = None

    def arrays(self) -> tuple:
        """float64 column views for the 2-D bulk pass, built on demand."""
        if self._arrays is None:
            import numpy as np

            self._arrays = tuple(
                np.asarray(col, dtype=np.float64)
                for col in (
                    self.arith_counts,
                    self.arith_costs,
                    self.ls_counts,
                    self.ls_costs,
                    self.glb_counts,
                    self.glb_bytes,
                    self.glb_bits,
                )
            )
        return self._arrays


def _columns_for(compiled: CompiledKernel, config: MaliConfig) -> _MixColumns:
    """The shared :class:`_MixColumns` of one (kernel, config) pair.

    Cached in the compiled kernel's instance dict, keyed by config
    identity (the identity check pins the config object, so a replaced
    calibration never aliases a stale entry).  Stripped on pickle along
    with the key token — see :meth:`CompiledKernel.__getstate__`.
    """
    cache = compiled.__dict__.get("_timing_columns")
    if cache is None:
        cache = {}
        object.__setattr__(compiled, "_timing_columns", cache)
    entry = cache.get(id(config))
    if entry is None or entry[0] is not config:
        entry = cache[id(config)] = (config, _MixColumns(compiled, config))
    return entry[1]


#: (l1 config, l2 config, dram config) -> {(streams, agents): (traffic
#: items, dram bytes, transfer seconds)}.  DRAM traffic and its base
#: transfer time are pure functions of the frozen configs and the
#: traits' stream tuple; grids repeat the same few stream mixes across
#: dozens of kernel groups, so the filtered traffic is derived once per
#: distinct mix per process.
_TRAFFIC_TABLES: dict[tuple, dict] = {}


def _traffic_tables(dram: DramModel, caches: CacheHierarchy) -> dict:
    key = (caches.l1.config, caches.l2.config, dram.config)
    found = _TRAFFIC_TABLES.get(key)
    if found is None:
        found = _TRAFFIC_TABLES[key] = {}
    return found


class _MixTables:
    """Candidate-independent pricing state of one kernel instance.

    The config-derived columns (shared per compiled kernel) plus the
    traits-derived DRAM traffic and base transfer time (shared per
    stream mix).  Built once per :class:`LaunchPricer`.
    """

    __slots__ = ("cols", "traffic", "dram_bytes", "transfer_s")

    def __init__(
        self,
        compiled: CompiledKernel,
        traits: WorkloadTraits,
        config: MaliConfig,
        dram: DramModel,
        caches: CacheHierarchy,
        concurrent_agents: int,
        traffic_tables: dict | None = None,
    ) -> None:
        self.cols = _columns_for(compiled, config)
        tables = traffic_tables if traffic_tables is not None else _traffic_tables(dram, caches)
        tkey = (traits.streams, concurrent_agents)
        entry = tables.get(tkey)
        if entry is None:
            traffic = caches.dram_traffic(list(traits.streams))
            dram_bytes = sum(traffic.values())
            transfer_s = (
                dram.transfer_seconds(
                    "gpu", bytes_by_pattern=traffic, concurrent_agents=concurrent_agents
                )
                if dram_bytes > 0
                else 0.0
            )
            entry = tables[tkey] = (tuple(traffic.items()), dram_bytes, transfer_s)
        items, self.dram_bytes, self.transfer_s = entry
        self.traffic = dict(items)


class LaunchPricer:
    """Batched launch pricing of one compiled kernel across candidates.

    The autotuner sweeps many ``(n_items, local_size)`` points of the
    same compiled kernel; the scalar path re-walks every
    :class:`~repro.ir.analysis.InstructionMix` dict and re-derives the
    DRAM traffic for each one.  A pricer hoists everything that does not
    depend on the candidate — the memo-key prefix, the per-entry
    (count, cost) columns, the cache-hierarchy traffic and its base
    transfer time — and prices each candidate with one vectorized pass
    plus a handful of scalar ops.  Cycle totals and the access-width
    efficiency depend on ``n_items`` only, so they are computed once per
    distinct item count (candidates sharing a rounded NDRange share the
    slice).

    Bitwise contract: elementwise numpy products over float64 columns
    are IEEE-identical to the scalar ``(count*n) * cost`` expressions,
    and every reduction is a sequential Python accumulation in source
    dict order — *not* ``np.sum``, whose pairwise summation reorders the
    additions — so ``price()`` returns exactly what the scalar reference
    ``_time_launch_uncached`` returns (asserted over the full grid in
    ``tests/unit/test_perf_persist.py``).  Both feed the same
    ``gpu_timing`` memo, so sweeps and one-shot calls share entries.
    """

    def __init__(
        self,
        compiled: CompiledKernel,
        traits: WorkloadTraits,
        config: MaliConfig,
        dram: DramModel,
        caches: CacheHierarchy,
        concurrent_agents: int = 1,
        fixed: tuple | None = None,
        traffic_tables: dict | None = None,
        occ_cache: dict | None = None,
    ) -> None:
        self.compiled = compiled
        self.traits = traits
        self.config = config
        self.dram = dram
        self.caches = caches
        self.concurrent_agents = concurrent_agents
        self._traffic_tables = traffic_tables
        self._tpc = _threads_per_core(compiled, config)
        # hoisted memo-key prefix: content_key of a tuple is the tuple of
        # element content_keys, so assembling per-candidate keys from the
        # fixed parts yields keys equal to time_launch's historical ones
        # (same memo slots, same disk digests).  ``fixed`` lets
        # :class:`GpuPricingModel` inject hash-cached parts, sharing the
        # platform-level ones across every kernel group of a grid;
        # wrapped and raw parts are equal and hash alike, so both forms
        # address the same memo slots.
        if fixed is None:
            fixed = (
                perf.content_key(compiled),
                perf.content_key(traits),
                perf.content_key(config),
                perf.content_key(dram.config),
                perf.content_key(caches.l1.config),
                perf.content_key(caches.l2.config),
            )
        self._fixed = fixed
        self._memo = perf.cache("gpu_timing")
        self._tables: _MixTables | None = None
        self._slices: dict[int, tuple[float, float, float]] = {}
        # (threads_per_core, local_size) -> (occupancy, hiding,
        # bandwidth_hiding); shareable across the pricers of a grid — a
        # few register tiers times a few local sizes cover every cell
        self._occs: dict[tuple[int, int], tuple[Occupancy, float, float]] = (
            occ_cache if occ_cache is not None else {}
        )

    def key(self, n_items: int, local_size: int) -> tuple:
        """The ``gpu_timing`` memo key for one candidate."""
        f = self._fixed
        return (f[0], n_items, local_size, f[1], f[2], f[3], f[4], f[5], self.concurrent_agents)

    def price(self, n_items: int, local_size: int) -> GpuLaunchTiming:
        """Memoized candidate price (both tiers; computes on full miss)."""
        if not perf.is_enabled():
            return _time_launch_uncached(
                self.compiled,
                n_items,
                local_size,
                self.traits,
                self.config,
                self.dram,
                self.caches,
                self.concurrent_agents,
            )
        return self._memo.get_or_compute(
            self.key(n_items, local_size), lambda: self._compute(n_items, local_size)
        )

    def price_many(
        self, candidates: list[tuple[int, int]]
    ) -> tuple[GpuLaunchTiming, ...]:
        """Price many ``(n_items, local_size)`` candidates of this kernel.

        The mix-dependent slices of every distinct item count are computed
        in one 2-D vectorized pass (:meth:`warm_slices`); each candidate
        then pays only the scalar epilogue (occupancy, distribution,
        roofline max).  Results are bitwise-identical to ``price()`` one
        at a time and flow through the same ``gpu_timing`` memo slots.
        """
        candidates = list(candidates)
        self.warm_slices([n for n, _ in candidates])
        return tuple(self.price(n, local) for n, local in candidates)

    # ------------------------------------------------------------------
    def _ensure_tables(self) -> _MixTables:
        t = self._tables
        if t is None:
            t = self._tables = _MixTables(
                self.compiled,
                self.traits,
                self.config,
                self.dram,
                self.caches,
                self.concurrent_agents,
                self._traffic_tables,
            )
        return t

    def _slice(self, n_items: int) -> tuple[float, float, float]:
        """(raw arith cycles, raw LS cycles, access efficiency) at one
        item count — the only mix-dependent quantities of a candidate.

        Pure scalar Python over the hoisted columns: each ``(count*n) *
        cost`` product and each sequential addition is the same IEEE-754
        double operation the NumPy bulk pass performs lane-wise, so the
        cached slices are bitwise-identical either way — and for one
        item count the scalar loop beats the ufunc dispatch overhead.
        """
        found = self._slices.get(n_items)
        if found is not None:
            return found
        cols = self._ensure_tables().cols
        n = float(n_items)
        config = self.config
        mix = self.compiled.mix
        arith = 0.0
        for count, cost in zip(cols.arith_counts, cols.arith_costs):
            arith += (count * n) * cost
        arith += (mix.loop_headers * n) * config.loop_header_cost
        arith += (mix.branches * n) * config.branch_cost
        arith += (mix.calls * n) * config.call_cost
        ls = 0.0
        for count, cost in zip(cols.ls_counts, cols.ls_costs):
            ls += (count * n) * cost
        total_bytes = 0.0
        weighted_bits = 0.0
        for count, nbytes, bits in zip(cols.glb_counts, cols.glb_bytes, cols.glb_bits):
            b = (count * n) * nbytes
            total_bytes += b
            weighted_bits += b * bits
        if total_bytes <= 0.0:
            access_eff = 1.0
        else:
            mean_bits = weighted_bits / total_bytes
            frac = min(max((mean_bits - 32.0) / (config.lane_bits - 32.0), 0.0), 1.0)
            low = config.scalar_access_dram_efficiency
            access_eff = low + (1.0 - low) * frac
        result = (arith, ls, access_eff)
        self._slices[n_items] = result
        return result

    def warm_slices(self, n_values) -> None:
        """Bulk-fill :meth:`_slice` for many item counts in one 2-D pass.

        Instead of one 1-D product per item count, the whole grid of
        (entry, item count) terms is materialized as a 2-D outer product
        and reduced along the entry axis by sequential row accumulation —
        each lane sees its additions in the exact order the scalar loop
        performs them, so the cached slices are bitwise-identical to what
        ``_slice`` would have produced one ``n`` at a time.

        Below ``_BULK_THRESHOLD`` distinct item counts the ufunc
        dispatch overhead of the 2-D pass exceeds its win, so the slices
        fall through to the (equally bitwise) scalar :meth:`_slice`.
        """
        todo = sorted({int(n) for n in n_values} - self._slices.keys())
        if not todo:
            return
        if len(todo) < _BULK_THRESHOLD:
            for n_items in todo:
                self._slice(n_items)
            return
        import numpy as np

        (
            arith_counts,
            arith_costs,
            ls_counts,
            ls_costs,
            glb_counts,
            glb_bytes,
            glb_bits,
        ) = self._ensure_tables().cols.arrays()
        config = self.config
        mix = self.compiled.mix
        ns = np.asarray([float(n) for n in todo], dtype=np.float64)
        width = len(todo)

        arith = np.zeros(width)
        if arith_counts.size:
            for row in (arith_counts[:, None] * ns[None, :]) * arith_costs[:, None]:
                arith += row
        arith += (mix.loop_headers * ns) * config.loop_header_cost
        arith += (mix.branches * ns) * config.branch_cost
        arith += (mix.calls * ns) * config.call_cost

        ls = np.zeros(width)
        if ls_counts.size:
            for row in (ls_counts[:, None] * ns[None, :]) * ls_costs[:, None]:
                ls += row

        if glb_counts.size:
            nbytes = (glb_counts[:, None] * ns[None, :]) * glb_bytes[:, None]
            total_bytes = np.zeros(width)
            for row in nbytes:
                total_bytes += row
            weighted_bits = np.zeros(width)
            for row in nbytes * glb_bits[:, None]:
                weighted_bits += row
            with np.errstate(divide="ignore", invalid="ignore"):
                mean_bits = weighted_bits / total_bytes
                frac = np.minimum(
                    np.maximum((mean_bits - 32.0) / (config.lane_bits - 32.0), 0.0), 1.0
                )
                low = config.scalar_access_dram_efficiency
                access_eff = np.where(total_bytes <= 0.0, 1.0, low + (1.0 - low) * frac)
        else:
            access_eff = np.ones(width)

        for j, n_items in enumerate(todo):
            self._slices[n_items] = (float(arith[j]), float(ls[j]), float(access_eff[j]))

    def _compute(self, n_items: int, local_size: int) -> GpuLaunchTiming:
        """Uncached vectorized price (the scalar model, batched)."""
        if n_items < 1:
            raise ValueError(f"n_items must be >= 1, got {n_items}")
        arith_raw, ls_raw, access_eff = self._slice(n_items)
        t = self._ensure_tables()
        config = self.config
        mix = self.compiled.mix
        n = float(n_items)

        # occupancy depends on (register tier, local size) alone; the
        # hiding factors are sqrt-computing properties, so the cache
        # holds the derived floats next to the frozen Occupancy
        entry = self._occs.get((self._tpc, local_size))
        if entry is None:
            occ = derive_occupancy(self._tpc, local_size)
            entry = self._occs[(self._tpc, local_size)] = (
                occ,
                occ.hiding,
                occ.bandwidth_hiding,
            )
        occ, hiding, bandwidth_hiding = entry
        dist, imbalance = distribute(n_items, local_size, config, self.traits.imbalance_cv)

        clock = config.clock_hz
        n_cores = config.shader_cores

        arith_cycles = arith_raw / (n_cores * config.arith_pipes_per_core)
        ls_cycles = ls_raw / (n_cores * config.ls_pipes_per_core)
        arith_s = arith_cycles / clock / hiding
        ls_s = ls_cycles / clock / hiding

        dram_s = (
            t.transfer_s / bandwidth_hiding / access_eff if t.dram_bytes > 0 else 0.0
        )

        atomic_s = (
            (mix.atomic_contention_weight * n) * config.atomic_cycles
            + (mix.atomic_contention_weight_local * n) * config.atomic_local_cycles / n_cores
        ) / clock

        barrier_instances = (mix.barriers * n) / max(local_size, 1)
        barrier_s = barrier_instances * config.barrier_cycles / clock / n_cores

        # unrolled twin of the reference's component-dict max: first
        # maximum wins on ties (dict order arith, ls, dram, atomic) and
        # the leak sums the components in that same insertion order
        peak, bottleneck = arith_s, "arith"
        if ls_s > peak:
            peak, bottleneck = ls_s, "ls"
        if dram_s > peak:
            peak, bottleneck = dram_s, "dram"
        if atomic_s > peak:
            peak, bottleneck = atomic_s, "atomic"
        leak = config.overlap_leak * ((((arith_s + ls_s) + dram_s) + atomic_s) - peak)
        parallel_s = (peak + leak) * imbalance + barrier_s

        total = parallel_s + dist.schedule_seconds + config.launch_overhead_s

        # a grid builds hundreds of these; the frozen-dataclass __init__
        # goes through object.__setattr__ per field, so fill the instance
        # dict directly (same fields, same values, same pickle/eq/repr)
        timing = object.__new__(GpuLaunchTiming)
        timing.__dict__.update(
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
            dram_bytes=t.dram_bytes,
            bottleneck=bottleneck,
        )
        return timing


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


def roofline_floor_seconds(
    compiled: CompiledKernel,
    n_items: int,
    traits: WorkloadTraits,
    config: MaliConfig,
    dram: DramModel,
    caches: CacheHierarchy,
) -> float:
    """Optimistic lower bound on ``time_launch(...).seconds``.

    The best case for any launch of this compiled kernel: perfect latency
    hiding (occupancy = 1), full access-width efficiency, no imbalance,
    no overlap leak, and zero barrier/schedule/launch overheads — just
    ``max(arith, ls, dram)``.  Every penalty ``time_launch`` applies is a
    multiplier ≥ 1 or an additive term ≥ 0 on top of these components,
    so the bound holds for every local size; the pruned tuner strategy
    uses it to discard candidates that cannot beat the incumbent.
    """
    if n_items < 1:
        raise ValueError(f"n_items must be >= 1, got {n_items}")
    totals = compiled.mix.scaled(float(n_items))
    clock = config.clock_hz
    n_cores = config.shader_cores
    arith_s = (
        _arith_cycles(totals, config, compiled.options.native_math)
        / (n_cores * config.arith_pipes_per_core)
        / clock
    )
    ls_s = _ls_cycles(totals, config) / (n_cores * config.ls_pipes_per_core) / clock
    traffic = caches.dram_traffic(list(traits.streams))
    dram_s = (
        dram.transfer_seconds("gpu", bytes_by_pattern=traffic)
        if sum(traffic.values()) > 0
        else 0.0
    )
    return max(arith_s, ls_s, dram_s)


class GpuPricingModel:
    """Batched :class:`~repro.pricing.PricingModel` over GPU launch cells.

    Groups cells by (compiled kernel, traits, concurrent agents), holds
    one :class:`LaunchPricer` per group, and bulk-computes the
    mix-dependent slices of every distinct item count before pricing the
    candidates.  Pricers persist across ``price`` calls so the tuner and
    the campaign cold path share vectorized tables and memo slots.
    """

    def __init__(self, config: MaliConfig, dram: DramModel, caches: CacheHierarchy):
        self.config = config
        self.dram = dram
        self.caches = caches
        self._pricers: dict[tuple[int, int, int], LaunchPricer] = {}
        # platform-level memo-key parts, hashed once for the whole grid
        self._platform_fixed: tuple | None = None
        # shared per-stream-mix traffic tables, resolved once per facade
        self._traffic = _traffic_tables(dram, caches)
        # occupancy entries shared across every pricer of this facade
        self._occ_entries: dict[tuple[int, int], tuple[Occupancy, float, float]] = {}
        # traits interning: cells built from distinct-but-equal traits
        # objects (one per grid row) collapse onto one canonical instance
        # so they share a pricer, its tables, and its warmed slices
        self._traits_by_id: dict[int, WorkloadTraits] = {}
        self._traits_canon: dict[WorkloadTraits, WorkloadTraits] = {}

    def _canon_traits(self, traits: WorkloadTraits) -> WorkloadTraits:
        found = self._traits_by_id.get(id(traits))
        if found is None:
            found = self._traits_canon.setdefault(traits, traits)
            self._traits_by_id[id(traits)] = found
        return found

    def _fixed_for(
        self, compiled: CompiledKernel, traits: WorkloadTraits
    ) -> tuple:
        if self._platform_fixed is None:
            self._platform_fixed = (
                _hashed_key_part(self.config),
                _hashed_key_part(self.dram.config),
                _hashed_key_part(self.caches.l1.config),
                _hashed_key_part(self.caches.l2.config),
            )
        return (
            _attached_key_part(compiled),
            _attached_key_part(traits),
        ) + self._platform_fixed

    def pricer(
        self,
        compiled: CompiledKernel,
        traits: WorkloadTraits,
        concurrent_agents: int = 1,
    ) -> LaunchPricer:
        """The shared :class:`LaunchPricer` for one kernel instance."""
        traits = self._canon_traits(traits)
        gk = (id(compiled), id(traits), concurrent_agents)
        found = self._pricers.get(gk)
        if found is None:
            found = self._pricers[gk] = LaunchPricer(
                compiled,
                traits,
                self.config,
                self.dram,
                self.caches,
                concurrent_agents=concurrent_agents,
                fixed=self._fixed_for(compiled, traits),
                traffic_tables=self._traffic,
                occ_cache=self._occ_entries,
            )
        return found

    def price(self, cells) -> tuple[GpuLaunchTiming, ...]:
        """Timings for each :class:`~repro.pricing.GpuLaunchCell`."""
        cells = tuple(cells)
        grouped: dict[tuple[int, int, int], tuple[LaunchPricer, list[int]]] = {}
        for i, cell in enumerate(cells):
            pricer = self.pricer(cell.compiled, cell.traits, cell.concurrent_agents)
            gk = (id(cell.compiled), id(pricer.traits), cell.concurrent_agents)
            grouped.setdefault(gk, (pricer, []))[1].append(i)
        out: list[GpuLaunchTiming | None] = [None] * len(cells)
        for pricer, idxs in grouped.values():
            pricer.warm_slices([cells[i].n_items for i in idxs])
            for i in idxs:
                out[i] = pricer.price(cells[i].n_items, cells[i].local_size)
        return tuple(out)  # type: ignore[arg-type]

    def price_one(self, cell) -> GpuLaunchTiming:
        """Single-cell convenience (same memo slots as the batch path)."""
        return self.pricer(cell.compiled, cell.traits, cell.concurrent_agents).price(
            cell.n_items, cell.local_size
        )


# ---------------------------------------------------------------------------
# Config-axis stacking (design-space sweeps)

#: MaliConfig fields a :class:`GpuConfigStack` takes as per-config
#: columns.  Everything else is baked into the stack's hoisted per-cell
#: tables (instruction-cost columns, access-width efficiency, launch
#: overheads) from the base config, so a design space may vary only
#: these (``tests/property/test_grid_pricing_identity.py`` holds
#: :meth:`~repro.calibration.socspace.SoCConfig.platform` to that).
_STACK_AXES = frozenset({"shader_cores", "clock_hz", "register_file_scale"})


class GpuStackRows:
    """Row arrays of k (config, dram) design points over a cell stack.

    ``(k, cells)`` float64 lanes, one row per config in call order,
    aligned with the stack's cell order; ``dram_bytes`` is the
    config-independent ``(cells,)`` traffic column.  ``feasible`` is
    False where the kernel no longer fits the config's scaled register
    file (the facade path raises ``CL_OUT_OF_RESOURCES`` there);
    infeasible lanes carry ``inf`` seconds and zero utilization.
    """

    __slots__ = (
        "feasible",
        "seconds",
        "alu_utilization",
        "ls_utilization",
        "dram_bandwidth",
        "dram_bytes",
    )

    def __init__(
        self, feasible, seconds, alu_utilization, ls_utilization, dram_bandwidth, dram_bytes
    ):
        self.feasible = feasible
        self.seconds = seconds
        self.alu_utilization = alu_utilization
        self.ls_utilization = ls_utilization
        self.dram_bandwidth = dram_bandwidth
        self.dram_bytes = dram_bytes


class GpuConfigStack:
    """Config-axis vectorization of a fixed set of GPU launch cells.

    A design-space sweep prices the *same* grid of cells under many SoC
    variants.  Everything that does not depend on the swept config axes
    (:data:`_STACK_AXES`: core count, clock, register-file scale) — the
    instruction-mix slices, DRAM traffic, work-group counts, atomic and
    barrier weights — is hoisted into per-cell NumPy columns once; each
    :meth:`rows` call then prices k ``(config, dram)`` points with a
    handful of ``(configs × cells)`` array passes.  One config is the
    k = 1 call.

    Bitwise contract: every array expression is the elementwise twin of
    the scalar model — same operand values, same IEEE-754 operation
    order (``np.sqrt``/``np.ceil``/``np.maximum`` match their ``math``
    counterparts lane-wise; the first-wins roofline max equals the
    ``np.maximum`` chain by value; per-config scalars such as
    ``log(cores)`` stay on ``math`` and enter as columns) — so each lane
    equals the corresponding :class:`GpuLaunchTiming` field from pricing
    that cell through a per-config :class:`GpuPricingModel` facade
    (asserted in ``tests/property/test_grid_pricing_identity.py``).  The
    stack and the facades also share the process-global traffic tables,
    keyed by cache/DRAM config values.
    """

    def __init__(
        self,
        cells,
        config: MaliConfig,
        dram: DramModel,
        caches: CacheHierarchy,
    ) -> None:
        import numpy as np

        cells = tuple(cells)
        if not cells:
            raise ValueError("GpuConfigStack needs at least one cell")
        self.cells = cells
        self.config = config
        self.dram = dram
        self.caches = caches
        self._model = GpuPricingModel(config, dram, caches)

        group_ord: dict[tuple[int, int, int], int] = {}
        self._group_pricers: list[LaunchPricer] = []
        self._group_streams: list[tuple[WorkloadTraits, int]] = []
        self._group_regs = []
        group_cells: list[list[int]] = []
        gidx: list[int] = []
        for i, cell in enumerate(cells):
            if cell.n_items < 1:
                raise ValueError(f"n_items must be >= 1, got {cell.n_items}")
            pricer = self._model.pricer(cell.compiled, cell.traits, cell.concurrent_agents)
            gk = (id(cell.compiled), id(pricer.traits), cell.concurrent_agents)
            g = group_ord.get(gk)
            if g is None:
                g = group_ord[gk] = len(self._group_pricers)
                self._group_pricers.append(pricer)
                self._group_streams.append((pricer.traits, cell.concurrent_agents))
                self._group_regs.append(cell.compiled.registers)
                group_cells.append([])
            group_cells[g].append(i)
            gidx.append(g)
        self._gidx = np.asarray(gidx, dtype=np.intp)

        # mix-dependent slices: one bulk pass per kernel group, gathered
        # into per-cell columns (bitwise-identical by warm_slices' contract)
        width = len(cells)
        arith = np.empty(width)
        ls = np.empty(width)
        eff = np.empty(width)
        dram_bytes = np.empty(width)
        for g, pricer in enumerate(self._group_pricers):
            idxs = group_cells[g]
            pricer.warm_slices([cells[i].n_items for i in idxs])
            group_bytes = float(pricer._ensure_tables().dram_bytes)
            for i in idxs:
                a, l, e = pricer._slice(cells[i].n_items)
                arith[i] = a
                ls[i] = l
                eff[i] = e
                dram_bytes[i] = group_bytes
        self._arith_raw = arith
        self._ls_raw = ls
        self._access_eff = eff
        self._dram_bytes = dram_bytes

        n_f = np.asarray([float(c.n_items) for c in cells])
        self._local = np.asarray([c.local_size for c in cells], dtype=np.int64)
        maxlocal_f = np.asarray([float(max(c.local_size, 1)) for c in cells])
        # work-group count is config-independent: same int the scalar
        # distribute() computes, converted exactly to float64
        self._n_wg_f = np.asarray(
            [float(max(1, math.ceil(c.n_items / c.local_size))) for c in cells]
        )
        self._cv = np.asarray([c.traits.imbalance_cv for c in cells])
        # config-independent operation prefixes of the atomic, barrier
        # and schedule chains (base-config cycle costs; the per-config
        # core/clock divisions follow in rows(), in the scalar order)
        atomic_w = np.asarray([c.compiled.mix.atomic_contention_weight for c in cells])
        atomic_wl = np.asarray(
            [c.compiled.mix.atomic_contention_weight_local for c in cells]
        )
        barriers = np.asarray([c.compiled.mix.barriers for c in cells])
        self._atomic_cycles = (atomic_w * n_f) * config.atomic_cycles
        self._atomic_local_cycles = (atomic_wl * n_f) * config.atomic_local_cycles
        self._barrier_cycles = (barriers * n_f) / maxlocal_f * config.barrier_cycles
        self._schedule_cycles = self._n_wg_f * config.wg_schedule_cycles

        # per-scale (feasible, threads-per-core) group arrays; per-DRAM
        # per-cell base transfer seconds; per-scale per-cell
        # (feasible, hiding, bandwidth hiding) rows
        self._tpc_cache: dict[float, tuple] = {}
        self._transfer_cache: dict = {}
        self._hiding_cache: dict[float, tuple] = {}

    # ------------------------------------------------------------------
    def _tpc_for(self, scale: float) -> tuple:
        import numpy as np

        found = self._tpc_cache.get(scale)
        if found is None:
            feas = []
            tpcs = []
            for report in self._group_regs:
                if fits_register_file(report, scale):
                    feas.append(True)
                    tpcs.append(threads_for_scale(report, scale))
                else:
                    feas.append(False)
                    tpcs.append(1)  # placeholder lane; masked out of rows
            found = self._tpc_cache[scale] = (
                np.asarray(feas, dtype=bool),
                np.asarray(tpcs, dtype=np.int64),
            )
        return found

    def _transfer_for(self, dram: DramModel):
        import numpy as np

        found = self._transfer_cache.get(dram.config)
        if found is None:
            # same construction (and the same process-global table entry)
            # as _MixTables on a facade for this DRAM config
            tables = _traffic_tables(dram, self.caches)
            per_group = []
            for traits, agents in self._group_streams:
                tkey = (traits.streams, agents)
                entry = tables.get(tkey)
                if entry is None:
                    traffic = self.caches.dram_traffic(list(traits.streams))
                    nbytes = sum(traffic.values())
                    transfer_s = (
                        dram.transfer_seconds(
                            "gpu", bytes_by_pattern=traffic, concurrent_agents=agents
                        )
                        if nbytes > 0
                        else 0.0
                    )
                    entry = tables[tkey] = (tuple(traffic.items()), nbytes, transfer_s)
                per_group.append(entry[2])
            found = self._transfer_cache[dram.config] = np.asarray(
                per_group, dtype=np.float64
            )[self._gidx]
        return found

    def _hiding_for(self, scale: float) -> tuple:
        """Per-cell (feasible, hiding, bandwidth hiding) at one
        register-file scale — ``derive_occupancy`` vectorized (resident
        threads, then the two sqrt hiding factors; ``int(x)`` on a
        positive float == floor), which depends on the config only
        through the scale."""
        import numpy as np

        found = self._hiding_cache.get(scale)
        if found is None:
            feas_g, tpc_g = self._tpc_for(scale)
            tpc = tpc_g[self._gidx]
            wg_groups = tpc // self._local
            resident = np.where(
                wg_groups >= 1,
                wg_groups * self._local,
                np.maximum((tpc * 0.6).astype(np.int64), 1),
            )
            res_f = resident.astype(np.float64)
            hiding = np.where(
                resident >= FULL_HIDING_THREADS,
                1.0,
                np.maximum(MIN_HIDING, np.sqrt(res_f / float(FULL_HIDING_THREADS))),
            )
            bandwidth_hiding = np.where(
                resident >= FULL_BANDWIDTH_THREADS,
                1.0,
                np.maximum(
                    MIN_HIDING, np.sqrt(res_f / float(FULL_BANDWIDTH_THREADS))
                ),
            )
            found = self._hiding_cache[scale] = (
                feas_g[self._gidx], hiding, bandwidth_hiding
            )
        return found

    def floor_seconds(
        self, dram: DramModel, *, shader_cores, clock_hz, register_file_scale=None
    ):
        """Rigorous per-cell lower bound on :meth:`rows` ``seconds``.

        The roofline floor along the config axis (the stacked twin of
        :func:`roofline_floor_seconds`'s idea):
        ``max(arith_s, ls_s, dram_s) + schedule_s + launch_overhead``,
        dropping only the terms that can only increase the result —
        the atomic lane of the roofline max, the overlap leak and
        barrier additions (non-negative) and the imbalance multiplier
        (>= 1).  With ``register_file_scale`` given, the arith/LS/DRAM
        terms carry the *exact* occupancy-hiding and access-efficiency
        divisors of :meth:`rows` (they depend on the config only
        through the register-file scale); without it they assume
        perfect hiding (divisors of one, still a valid floor since
        every divisor is <= 1) and the additive tail is skipped.

        ``shader_cores`` / ``clock_hz`` may be scalars (returns a
        ``(cells,)`` array) or aligned arrays of k configs (returns
        ``(k, cells)``).  Bitwise rigor: each term is an exact
        operation-prefix of the :meth:`rows` chain for the same lane
        (same operand order), the omissions are monotone under IEEE-754
        rounding, so ``floor <= rows(...).seconds`` holds lane for
        lane, including infeasible lanes (their seconds are ``inf``).
        """
        import numpy as np

        transfer = self._transfer_for(dram)
        cores = np.asarray(shader_cores, dtype=np.float64)
        clock = np.asarray(clock_hz, dtype=np.float64)
        scalar = cores.ndim == 0
        if scalar:
            cores = cores.reshape(1)
            clock = clock.reshape(1)
        arith = (
            self._arith_raw[None, :]
            / (cores * float(self.config.arith_pipes_per_core))[:, None]
            / clock[:, None]
        )
        ls = (
            self._ls_raw[None, :]
            / (cores * float(self.config.ls_pipes_per_core))[:, None]
            / clock[:, None]
        )
        if register_file_scale is None:
            floor = np.maximum(np.maximum(arith, ls), transfer[None, :])
        else:
            _, hiding, bandwidth_hiding = self._hiding_for(register_file_scale)
            # transfer is 0.0 exactly where there is no DRAM traffic,
            # so the division chain matches rows()'s literal 0.0 lane
            dram_s = transfer / bandwidth_hiding / self._access_eff
            floor = np.maximum(
                np.maximum(arith / hiding[None, :], ls / hiding[None, :]),
                dram_s[None, :],
            )
            schedule_s = self._schedule_cycles[None, :] / clock[:, None]
            floor = (floor + schedule_s) + self.config.launch_overhead_s
        return floor[0] if scalar else floor

    # ------------------------------------------------------------------
    def rows(
        self, *, shader_cores, clock_hz, register_file_scale, drams
    ) -> GpuStackRows:
        """Price every cell under k design points, ``(k, cells)`` rows.

        The stacked axes come in as aligned per-config sequences: core
        counts, shader clocks, register-file scales and each config's
        :class:`~repro.memory.dram.DramModel` (share one object per
        distinct DRAM: its transfer row is gathered, not recomputed).
        """
        import numpy as np

        from ..pricing import rows_by_key

        config = self.config
        cores = list(shader_cores)
        if not cores:
            raise ValueError("rows() needs at least one config")

        def column(values):
            return np.asarray(values, dtype=np.float64)[:, None]

        cores_f = column([float(n) for n in cores])
        clock = column(clock_hz)
        log_cores = column([math.log(max(n, 2)) for n in cores])
        arith_denom = column([float(n * config.arith_pipes_per_core) for n in cores])
        ls_denom = column([float(n * config.ls_pipes_per_core) for n in cores])
        feasible, hiding, bandwidth_hiding = rows_by_key(
            register_file_scale, self._hiding_for
        )
        transfer = rows_by_key(drams, self._transfer_for)

        # distribute(), vectorized (per_core > 0 always: n_wg >= 1)
        per_core = self._n_wg_f / cores_f
        quantization = np.ceil(per_core) / per_core
        ragged = np.where(
            self._cv > 0.0,
            1.0 + self._cv * np.sqrt((2.0 * log_cores) / np.maximum(per_core, 1.0)),
            1.0,
        )
        imbalance = quantization * ragged
        schedule_s = self._schedule_cycles / clock

        arith_s = self._arith_raw / arith_denom / clock / hiding
        ls_s = self._ls_raw / ls_denom / clock / hiding
        # transfer is 0.0 exactly where dram_bytes == 0, so the division
        # chain lands on the scalar path's literal 0.0
        dram_s = transfer / bandwidth_hiding / self._access_eff

        atomic_s = (self._atomic_cycles + self._atomic_local_cycles / cores_f) / clock
        barrier_s = self._barrier_cycles / clock / cores_f

        peak = np.maximum(np.maximum(np.maximum(arith_s, ls_s), dram_s), atomic_s)
        leak = config.overlap_leak * ((((arith_s + ls_s) + dram_s) + atomic_s) - peak)
        parallel_s = (peak + leak) * imbalance + barrier_s
        seconds = parallel_s + schedule_s + config.launch_overhead_s

        with np.errstate(divide="ignore", invalid="ignore"):
            pos = seconds > 0.0
            alu = np.where(pos, np.minimum(arith_s / seconds, 1.0), 0.0)
            lsu = np.where(pos, np.minimum(ls_s / seconds, 1.0), 0.0)
            dram_bw = np.where(pos, self._dram_bytes / seconds, 0.0)

        if not feasible.all():
            bad = ~feasible
            seconds = np.where(bad, np.inf, seconds)
            alu = np.where(bad, 0.0, alu)
            lsu = np.where(bad, 0.0, lsu)
            dram_bw = np.where(bad, 0.0, dram_bw)

        return GpuStackRows(feasible, seconds, alu, lsu, dram_bw, self._dram_bytes)
