"""Per-launch timing model for the Mali-T604.

One ``clEnqueueNDRangeKernel`` of a compiled kernel is priced as a
three-roofline model with explicit overheads:

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

:class:`GpuConfigStack` is the one implementation of these equations:
it prices a fixed set of launch cells under k configs with a few
``(configs × cells)`` NumPy passes.  The Exynos board is the k = 1
call — :class:`LaunchPricer` (behind :class:`GpuPricingModel` and
:func:`time_launch`) prices each ``gpu_timing`` memo miss as a one-cell
stack through :meth:`GpuConfigStack.timings`, which wraps the board's
lanes into :class:`GpuLaunchTiming` records.  The naive scalar reference every
lane is tested against lives in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .. import perf
from ..compiler.pipeline import CompiledKernel
from ..compiler.regalloc import fits_register_file, threads_for_scale
from ..errors import CLOutOfResources
from ..ir.dtypes import DType, scalar_bits
from ..ir.nodes import MemSpace
from ..memory.cache import CacheHierarchy
from ..memory.dram import DramModel
from ..pricing.cells import GpuLaunchCell
from ..workload import WorkloadTraits
from .config import MaliConfig
from .job_manager import Distribution
from .occupancy import (
    FULL_BANDWIDTH_THREADS,
    FULL_HIDING_THREADS,
    MIN_HIDING,
    Occupancy,
    check_local_size,
)


def _require_fit(compiled: CompiledKernel, config: MaliConfig) -> None:
    """Raise ``CL_OUT_OF_RESOURCES`` when the kernel no longer fits.

    A scaled register file can be too small for a kernel the baseline
    compiled — the launch-time failure mode design-space sweeps use to
    mark candidates infeasible on leaner SoC variants.
    """
    report = compiled.registers
    scale = config.register_file_scale
    if not fits_register_file(report, scale):
        raise CLOutOfResources(
            f"kernel needs {report.registers_128} 128-bit registers, "
            f"exceeding the {scale}x-scaled register file"
        )


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


#: ``GpuStackRows.bottleneck`` index -> ``GpuLaunchTiming.bottleneck``
_BOTTLENECKS = ("arith", "ls", "dram", "atomic")


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
    campaign.  Callers pricing many launches of one kernel should hold a
    :class:`LaunchPricer` (it hoists the memo-key prefix).
    """
    return LaunchPricer(
        compiled, traits, config, dram, caches, concurrent_agents=concurrent_agents
    ).price(n_items, local_size)


class _HashedKey:
    """A memo-key part that caches its (expensive) structural hash.

    The ``gpu_timing`` memo keys embed deeply nested frozen dataclasses
    (compiled kernel, traits, configs); hashing them from scratch on
    every table lookup would dominate cold pricing.  This wrapper is
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


class _MixColumns:
    """Per-entry (count, cost) float64 columns of one kernel's mix.

    Every column preserves the source dict's iteration order, so the
    sequential row accumulation in :func:`_mix_slices` adds the terms in
    the order the scalar reference's dict loops do.

    A pure derived constant of ``(compiled, config)``: built once and
    cached on the compiled kernel (:func:`_columns_for`), shared by
    every stack that prices the kernel.
    """

    __slots__ = (
        "arith_counts",
        "arith_costs",
        "ls_counts",
        "ls_costs",
        "glb_counts",
        "glb_bytes",
        "glb_bits",
    )

    def __init__(self, compiled: CompiledKernel, config: MaliConfig) -> None:
        import numpy as np

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
            ls_counts.append(count)
            ls_costs.append(cost)
        for (op, base, space), count in mix.atomics.items():
            ls_counts.append(count)
            ls_costs.append(
                config.atomic_local_cycles
                if space == MemSpace.LOCAL
                else config.atomic_cycles
            )
        # global accesses, for the access-width bandwidth efficiency
        glb_counts: list[float] = []
        glb_bytes: list[float] = []
        glb_bits: list[float] = []
        for (kind, space, pattern, base, width, sequential, aligned), count in mix.mem.items():
            if space != MemSpace.GLOBAL:
                continue
            glb_counts.append(count)
            glb_bytes.append(float(DType(base, width).bytes))
            # a per-thread streaming walk consumes whole cache lines
            # regardless of the instruction width
            glb_bits.append(
                float(config.lane_bits)
                if sequential
                else float(min(width * scalar_bits(base), config.lane_bits))
            )

        def column(values):
            return np.asarray(values, dtype=np.float64)

        self.arith_counts = column(arith_counts)
        self.arith_costs = column(arith_costs)
        self.ls_counts = column(ls_counts)
        self.ls_costs = column(ls_costs)
        self.glb_counts = column(glb_counts)
        self.glb_bytes = column(glb_bytes)
        self.glb_bits = column(glb_bits)


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


def _accumulate(terms, width: int):
    """Sequential sum over axis 0 of a ``(mix entries, lanes)`` term grid.

    Row-by-row accumulation gives every lane its additions in the
    scalar dict loop's order — never ``np.sum``, whose pairwise
    summation reorders them.
    """
    import numpy as np

    acc = np.zeros(width)
    for row in terms:
        acc += row
    return acc


def _mix_slices(compiled: CompiledKernel, config: MaliConfig, ns):
    """(raw arith cycles, raw LS cycles, access-width efficiency) lanes
    of one kernel at the item counts ``ns`` — the only mix-dependent
    quantities of a launch — in one 2-D NumPy pass.

    The access-width efficiency models Midgard's missing warp-level
    coalescing: threads issue independent L2/DRAM transactions, so a
    stream of 32-bit scalar accesses sustains only
    ``scalar_access_dram_efficiency`` of the bandwidth a 128-bit
    ``vload4`` stream reaches, interpolated linearly in the
    byte-weighted mean access width.
    """
    import numpy as np

    cols = _columns_for(compiled, config)
    mix = compiled.mix
    width = len(ns)

    arith = _accumulate((cols.arith_counts[:, None] * ns) * cols.arith_costs[:, None], width)
    arith += (mix.loop_headers * ns) * config.loop_header_cost
    arith += (mix.branches * ns) * config.branch_cost
    arith += (mix.calls * ns) * config.call_cost
    ls = _accumulate((cols.ls_counts[:, None] * ns) * cols.ls_costs[:, None], width)

    nbytes = (cols.glb_counts[:, None] * ns) * cols.glb_bytes[:, None]
    total_bytes = _accumulate(nbytes, width)
    weighted_bits = _accumulate(nbytes * cols.glb_bits[:, None], width)
    low = config.scalar_access_dram_efficiency
    with np.errstate(divide="ignore", invalid="ignore"):
        mean_bits = weighted_bits / total_bytes
        # 32-bit accesses -> the scalar floor; 128-bit accesses -> full rate
        frac = np.minimum(
            np.maximum((mean_bits - 32.0) / (config.lane_bits - 32.0), 0.0), 1.0
        )
        access_eff = np.where(total_bytes <= 0.0, 1.0, low + (1.0 - low) * frac)
    return arith, ls, access_eff


#: (l1 config, l2 config, dram config) -> {(streams, agents): (dram
#: bytes, transfer seconds)}.  DRAM traffic and its base transfer time
#: are pure functions of the frozen configs and the traits' stream
#: tuple; grids repeat the same few stream mixes across dozens of
#: kernel groups, so each is derived once per distinct mix per process.
_TRAFFIC_TABLES: dict[tuple, dict] = {}


def _traffic_entry(
    traits: WorkloadTraits, agents: int, dram: DramModel, caches: CacheHierarchy
) -> tuple[float, float]:
    """(DRAM bytes, base transfer seconds) of one stream mix."""
    key = (caches.l1.config, caches.l2.config, dram.config)
    table = _TRAFFIC_TABLES.get(key)
    if table is None:
        table = _TRAFFIC_TABLES[key] = {}
    tkey = (traits.streams, agents)
    entry = table.get(tkey)
    if entry is None:
        traffic = caches.dram_traffic(list(traits.streams))
        nbytes = sum(traffic.values())
        transfer_s = (
            dram.transfer_seconds("gpu", bytes_by_pattern=traffic, concurrent_agents=agents)
            if nbytes > 0
            else 0.0
        )
        entry = table[tkey] = (nbytes, transfer_s)
    return entry


class LaunchPricer:
    """Memoized launch pricing of one compiled kernel instance.

    The autotuner prices many ``(n_items, local_size)`` candidates of
    the same kernel; a pricer hoists the part of the ``gpu_timing`` memo
    key that does not depend on the candidate, and prices each memo miss
    as a one-cell :class:`GpuConfigStack` on its config.  Construction
    raises ``CL_OUT_OF_RESOURCES`` when the kernel does not fit the
    config's register file.
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
    ) -> None:
        _require_fit(compiled, config)
        self.compiled = compiled
        self.traits = traits
        self.config = config
        self.dram = dram
        self.caches = caches
        self.concurrent_agents = concurrent_agents
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

    def key(self, n_items: int, local_size: int) -> tuple:
        """The ``gpu_timing`` memo key for one candidate."""
        f = self._fixed
        return (f[0], n_items, local_size, f[1], f[2], f[3], f[4], f[5], self.concurrent_agents)

    def price(self, n_items: int, local_size: int) -> GpuLaunchTiming:
        """Memoized candidate price (both tiers; a one-cell stack on a miss)."""

        def compute() -> GpuLaunchTiming:
            cell = GpuLaunchCell(
                compiled=self.compiled,
                traits=self.traits,
                n_items=n_items,
                local_size=local_size,
                concurrent_agents=self.concurrent_agents,
            )
            return GpuConfigStack((cell,), self.config, self.dram, self.caches).timings()[0]

        return self._memo.get_or_compute(self.key(n_items, local_size), compute)


class GpuPricingModel:
    """Launch pricing on one platform: one shared :class:`LaunchPricer`
    per kernel instance, which holds the memo-key hashing (platform
    parts hashed once per model, kernel and traits parts cached on
    their objects)."""

    def __init__(self, config: MaliConfig, dram: DramModel, caches: CacheHierarchy):
        self.config = config
        self.dram = dram
        self.caches = caches
        self._pricers: dict[tuple[int, int, int], LaunchPricer] = {}
        # platform-level memo-key parts, hashed once for the whole grid
        self._platform_fixed: tuple | None = None
        # traits interning: cells built from distinct-but-equal traits
        # objects (one per grid row) collapse onto one canonical instance
        # so they share a pricer and its hashed key parts
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
            )
        return found

    def price_one(self, cell) -> GpuLaunchTiming:
        """The memoized timing of one :class:`~repro.pricing.GpuLaunchCell`."""
        return self.pricer(cell.compiled, cell.traits, cell.concurrent_agents).price(
            cell.n_items, cell.local_size
        )


def _check_launch(n_items: int, local_size: int) -> None:
    if n_items < 1:
        raise ValueError(f"n_items must be >= 1, got {n_items}")
    check_local_size(local_size)


# ---------------------------------------------------------------------------
# The timing kernel: config-axis stacks

#: MaliConfig fields a :class:`GpuConfigStack` takes as per-config
#: columns.  Everything else is baked into the stack's hoisted per-cell
#: tables (instruction-cost columns, access-width efficiency, launch
#: overheads) from the base config, so a design space may vary only
#: these (``tests/property/test_grid_pricing_identity.py`` holds
#: :meth:`~repro.calibration.socspace.SoCConfig.platform` to that).
_STACK_AXES = frozenset({"shader_cores", "clock_hz", "register_file_scale"})


class GpuStackRows:
    """Row arrays of k (config, dram) design points over a cell stack.

    ``(k, cells)`` lanes, one row per config in call order, aligned with
    the stack's cell order: ``feasible``; the :class:`GpuLaunchTiming`
    seconds (``seconds``, ``arith_seconds``, ``ls_seconds``,
    ``dram_seconds``, ``atomic_seconds``, ``barrier_seconds``,
    ``schedule_seconds``), ``imbalance`` and ``bottleneck`` (an index
    into ``arith, ls, dram, atomic``); the occupancy (``threads``,
    ``resident_groups``) and distribution (``groups_per_core``,
    ``quantization``) fields; and the power inputs
    (``alu_utilization``, ``ls_utilization``, ``dram_bandwidth``).
    ``n_work_groups`` and ``dram_bytes`` are config-independent
    ``(cells,)`` columns.  ``feasible`` is False where the kernel no
    longer fits the config's scaled register file (the board path
    raises ``CL_OUT_OF_RESOURCES`` there); infeasible lanes carry
    ``inf`` seconds and zero utilization.
    """

    __slots__ = (
        "feasible",
        "seconds",
        "arith_seconds",
        "ls_seconds",
        "dram_seconds",
        "atomic_seconds",
        "barrier_seconds",
        "schedule_seconds",
        "imbalance",
        "bottleneck",
        "threads",
        "resident_groups",
        "groups_per_core",
        "quantization",
        "n_work_groups",
        "alu_utilization",
        "ls_utilization",
        "dram_bandwidth",
        "dram_bytes",
    )

    def __init__(self, **lanes):
        for name, value in lanes.items():
            setattr(self, name, value)


class GpuConfigStack:
    """The Mali launch model over a fixed set of cells and k configs.

    A design-space sweep prices the *same* grid of cells under many SoC
    variants, and the board prices one or a few cells under its one
    config; both are this class.  Construction groups the cells by
    kernel instance (compiled kernel, traits, concurrent agents) and
    hoists everything that does not depend on the swept config axes
    (:data:`_STACK_AXES`: core count, clock, register-file scale) — the
    instruction-mix slices (one NumPy pass per group), DRAM traffic,
    work-group counts, atomic and barrier weights — into per-cell
    columns; each :meth:`rows` call then prices k ``(config, dram)``
    points with a handful of ``(configs × cells)`` array passes.
    :meth:`timings` is the k = 1 call on the stack's own config.

    Bitwise contract: every array expression is the elementwise twin of
    the scalar reference — same operand values, same IEEE-754 operation
    order (``np.sqrt``/``np.ceil``/``np.maximum`` match their ``math``
    counterparts lane-wise; the first-wins roofline max equals the
    ``np.maximum`` chain by value; per-config scalars such as
    ``log(cores)`` stay on ``math`` and enter as columns), so a lane does
    not depend on which other cells or configs share the call.
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
        for cell in cells:
            _check_launch(cell.n_items, cell.local_size)
        self.cells = cells
        self.config = config
        self.dram = dram
        self.caches = caches

        # group by kernel instance; equal traits objects (one per grid
        # row) collapse onto one canonical instance first
        canon: dict[WorkloadTraits, WorkloadTraits] = {}
        group_ord: dict[tuple[int, int, int], int] = {}
        self._group_streams: list[tuple[WorkloadTraits, int]] = []
        self._group_regs = []
        members: list[list[int]] = []
        gidx: list[int] = []
        for i, cell in enumerate(cells):
            traits = canon.setdefault(cell.traits, cell.traits)
            gk = (id(cell.compiled), id(traits), cell.concurrent_agents)
            g = group_ord.get(gk)
            if g is None:
                g = group_ord[gk] = len(members)
                self._group_streams.append((traits, cell.concurrent_agents))
                self._group_regs.append(cell.compiled.registers)
                members.append([])
            members[g].append(i)
            gidx.append(g)
        self._gidx = np.asarray(gidx, dtype=np.intp)

        n_f = np.asarray([float(c.n_items) for c in cells])
        width = len(cells)
        self._arith_raw = np.empty(width)
        self._ls_raw = np.empty(width)
        self._access_eff = np.empty(width)
        self._dram_bytes = np.empty(width)
        for g, idxs in enumerate(members):
            index = np.asarray(idxs, dtype=np.intp)
            (
                self._arith_raw[index],
                self._ls_raw[index],
                self._access_eff[index],
            ) = _mix_slices(cells[idxs[0]].compiled, config, n_f[index])
            traits, agents = self._group_streams[g]
            self._dram_bytes[index] = _traffic_entry(traits, agents, dram, caches)[0]

        self._local = np.asarray([c.local_size for c in cells], dtype=np.int64)
        maxlocal_f = np.asarray([float(max(c.local_size, 1)) for c in cells])
        # work-group count is config-independent; an exact float64 int
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
        # per-cell base transfer seconds; per-scale per-cell occupancy
        # rows
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
            per_group = [
                _traffic_entry(traits, agents, dram, self.caches)[1]
                for traits, agents in self._group_streams
            ]
            found = self._transfer_cache[dram.config] = np.asarray(
                per_group, dtype=np.float64
            )[self._gidx]
        return found

    def _hiding_for(self, scale: float) -> tuple:
        """Per-cell (feasible, hiding, bandwidth hiding, resident
        threads, resident groups) at one register-file scale — the
        occupancy model, vectorized.

        Work-groups are resident as whole units, so the register-limited
        thread budget is quantized down to a multiple of the local size;
        a single group larger than the budget time-shares the register
        file at 0.6 of it (``int(x)`` on a positive float == floor).
        Latency hiding then follows a square-root law in the resident
        threads.  Depends on the config only through the scale.
        """
        import numpy as np

        found = self._hiding_cache.get(scale)
        if found is None:
            feas_g, tpc_g = self._tpc_for(scale)
            tpc = tpc_g[self._gidx]
            wg_groups = tpc // self._local
            fits = wg_groups >= 1
            resident = np.where(
                fits,
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
                feas_g[self._gidx],
                hiding,
                bandwidth_hiding,
                resident,
                np.where(fits, wg_groups, 1),
            )
        return found

    def floor_seconds(
        self, dram: DramModel, *, shader_cores, clock_hz, register_file_scale=None
    ):
        """Rigorous per-cell lower bound on :meth:`rows` ``seconds``.

        The roofline floor along the config axis:
        ``max(arith_s, ls_s, dram_s) + schedule_s + launch_overhead``,
        dropping only the terms that can only increase the result —
        the atomic lane of the roofline max, the overlap leak and
        barrier additions (non-negative) and the imbalance multiplier
        (>= 1).  With ``register_file_scale`` given, the arith/LS/DRAM
        terms carry the *exact* occupancy-hiding and access-efficiency
        divisors of :meth:`rows` (they depend on the config only
        through the register-file scale); without it they assume
        perfect hiding and full access efficiency (divisors of one,
        still a valid floor since every divisor is <= 1) and the
        additive tail is skipped — the bound the pruned autotuner
        orders and skips candidates by, valid for every local size.

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
            hiding, bandwidth_hiding = self._hiding_for(register_file_scale)[1:3]
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
        feasible, hiding, bandwidth_hiding, threads, resident_groups = rows_by_key(
            register_file_scale, self._hiding_for
        )
        transfer = rows_by_key(drams, self._transfer_for)

        # Job Manager distribution (per_core > 0 always: n_wg >= 1): the
        # fullest core sets the finish time (quantization), and ragged
        # per-group work makes the expected max of k cores' sums exceed
        # the mean by cv * sqrt(2 ln k / n) for n groups per core
        per_core = self._n_wg_f / cores_f
        groups_per_core = np.ceil(per_core)
        quantization = groups_per_core / per_core
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
        # chain lands on the scalar reference's literal 0.0
        dram_s = transfer / bandwidth_hiding / self._access_eff

        # local atomics serialize only within one core: 1/n_cores weight
        atomic_s = (self._atomic_cycles + self._atomic_local_cycles / cores_f) / clock
        barrier_s = self._barrier_cycles / clock / cores_f

        # the largest roofline binds (first wins on ties, in the order
        # arith, ls, dram, atomic); a calibrated fraction of the rest
        # leaks past the overlap
        top2 = np.maximum(arith_s, ls_s)
        top3 = np.maximum(top2, dram_s)
        peak = np.maximum(top3, atomic_s)
        bottleneck = np.where(
            atomic_s > top3,
            3,
            np.where(dram_s > top2, 2, np.where(ls_s > arith_s, 1, 0)),
        )
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

        return GpuStackRows(
            feasible=feasible,
            seconds=seconds,
            arith_seconds=arith_s,
            ls_seconds=ls_s,
            dram_seconds=dram_s,
            atomic_seconds=atomic_s,
            barrier_seconds=barrier_s,
            schedule_seconds=schedule_s,
            imbalance=imbalance,
            bottleneck=bottleneck,
            threads=threads,
            resident_groups=resident_groups,
            groups_per_core=groups_per_core,
            quantization=quantization,
            n_work_groups=self._n_wg_f,
            alu_utilization=alu,
            ls_utilization=lsu,
            dram_bandwidth=dram_bw,
            dram_bytes=self._dram_bytes,
        )

    def timings(self) -> tuple[GpuLaunchTiming, ...]:
        """Every cell priced on the stack's own config, as records.

        The k = 1 :meth:`rows` call on the base config and DRAM; ``tolist``
        turns each lane into the exact Python float or int the record
        holds.  Raises ``CL_OUT_OF_RESOURCES`` if a kernel does not fit
        the config's register file.
        """
        config = self.config
        r = self.rows(
            shader_cores=(config.shader_cores,),
            clock_hz=(config.clock_hz,),
            register_file_scale=(config.register_file_scale,),
            drams=(self.dram,),
        )
        for cell, ok in zip(self.cells, r.feasible[0].tolist()):
            if not ok:
                _require_fit(cell.compiled, config)
        seconds, arith, ls, dram_s, atomic, barrier, schedule, imbalance = (
            lane[0].tolist()
            for lane in (
                r.seconds,
                r.arith_seconds,
                r.ls_seconds,
                r.dram_seconds,
                r.atomic_seconds,
                r.barrier_seconds,
                r.schedule_seconds,
                r.imbalance,
            )
        )
        bottleneck, threads, groups, per_core, quantization = (
            lane[0].tolist()
            for lane in (
                r.bottleneck,
                r.threads,
                r.resident_groups,
                r.groups_per_core,
                r.quantization,
            )
        )
        n_wg = r.n_work_groups.tolist()
        dram_bytes = r.dram_bytes.tolist()
        return tuple(
            GpuLaunchTiming(
                seconds=seconds[i],
                arith_seconds=arith[i],
                ls_seconds=ls[i],
                dram_seconds=dram_s[i],
                atomic_seconds=atomic[i],
                barrier_seconds=barrier[i],
                schedule_seconds=schedule[i],
                launch_overhead_seconds=config.launch_overhead_s,
                imbalance_factor=imbalance[i],
                occupancy=Occupancy(
                    threads_per_core=threads[i],
                    resident_groups=groups[i],
                    local_size=cell.local_size,
                ),
                distribution=Distribution(
                    n_work_groups=int(n_wg[i]),
                    groups_per_core_max=int(per_core[i]),
                    quantization_factor=quantization[i],
                    schedule_seconds=schedule[i],
                ),
                dram_bytes=dram_bytes[i],
                bottleneck=_BOTTLENECKS[bottleneck[i]],
            )
            for i, cell in enumerate(self.cells)
        )
