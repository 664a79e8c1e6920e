"""Cortex-A15 Serial/OpenMP pricing: one config-axis timing kernel.

:class:`CpuConfigStack` is the one implementation of the A15 models.
It groups its cells by (mix, traits) and hoists everything that does
not depend on the element count — the per-entry (count, cost) columns
of the instruction mix, the L1 hit fraction, the DRAM traffic and its
transfer time — then evaluates the core cycle and instruction counts of
each group's cells in one 2-D NumPy pass and replays the Serial/OpenMP
epilogues as ``(configs × cells)`` array passes.  The Exynos board is
the k = 1 call: :meth:`CpuPricingModel.price_one` (behind the one-shot
``time_serial`` / ``time_openmp`` entry points) prices one cell through
:meth:`CpuConfigStack.timings`, which wraps the board's lanes into
:class:`~repro.cpu.serial.CpuTiming` records.

Bitwise contract: elementwise float64 products are IEEE-identical to
the scalar ``(count*n) * cost`` expressions, every reduction is a
sequential accumulation in source dict order — never ``np.sum`` — and
terms the scalar reference skips behind ``> 0`` guards are added as
exact ``0.0`` (IEEE-identical on non-negative partial sums).
``np.sqrt`` is correctly rounded, as IEEE-754 requires of sqrt, so it
matches ``math.sqrt`` lane for lane; ``math.log`` of the per-config
core counts stays on ``math`` and enters as a column.  The naive scalar
reference every lane is tested against lives in ``tests/oracles.py``.
"""

from __future__ import annotations

import math

from ..ir.analysis import InstructionMix
from ..ir.nodes import AccessPattern, MemSpace
from ..memory.cache import CacheHierarchy
from ..memory.dram import DramModel
from ..pricing.cells import MODE_OPENMP, MODE_SERIAL
from ..workload import WorkloadTraits
from .config import A15Config
from .serial import CpuTiming

_IRREGULAR = (AccessPattern.STRIDED, AccessPattern.GATHER, AccessPattern.ATOMIC)


class _CpuTables:
    """Per-entry float64 columns of one per-element mix, in source dict
    order."""

    __slots__ = (
        "acc_counts",
        "acc_perlane",
        "acc_widths",
        "fp_counts",
        "fp_costs",
        "int_counts",
        "int_costs",
        "a_counts",
        "a_widths",
        "m_counts",
        "m_widths",
        "ir_counts",
        "ir_widths",
        "ato_counts",
    )

    def __init__(self, mix: InstructionMix, config: A15Config) -> None:
        import numpy as np

        cols: dict[str, list[float]] = {name: [] for name in self.__slots__}
        for (op, base, width, accumulates), count in mix.arith.items():
            if accumulates and base.startswith("f"):
                # loop-carried FP dependency: no -funsafe-math-optimizations
                # means GCC may not reassociate, so the chain advances one
                # element per VFP result latency.  The chain is its own
                # serialization resource: independent work (loads, index
                # arithmetic, loop headers) executes underneath it.
                per_lane = max(config.op_cycles[op], config.accum_latency(op))
                if base == "f64":
                    per_lane *= config.fp64_cost_factor
                cols["acc_counts"].append(count)
                cols["acc_perlane"].append(per_lane)
                cols["acc_widths"].append(float(width))
            elif base.startswith("f"):
                cols["fp_counts"].append(count)
                cols["fp_costs"].append(config.arith_cycles(op, base, width))
            else:
                cols["int_counts"].append(count)
                cols["int_costs"].append(config.arith_cycles(op, base, width))
            cols["a_counts"].append(count)
            cols["a_widths"].append(float(width))
        for (kind, space, pattern, base, width, sequential, aligned), count in mix.mem.items():
            if space == MemSpace.PRIVATE:
                continue
            # scalar code: one instruction per lane
            cols["m_counts"].append(count)
            cols["m_widths"].append(float(width))
            if pattern in _IRREGULAR:
                cols["ir_counts"].append(count)
                cols["ir_widths"].append(float(width))
        cols["ato_counts"] = [float(c) for c in mix.atomics.values()]
        for name, values in cols.items():
            setattr(self, name, np.asarray(values, dtype=np.float64))


def _cpu_tables_for(mix: InstructionMix, config: A15Config) -> _CpuTables:
    """The shared :class:`_CpuTables` of one (mix, config) pair.

    A pure derived constant, cached in the mix's instance dict keyed by
    config identity (the identity check pins the config object); every
    stack pricing that mix — design-space sweeps and one-shot
    ``time_serial`` / ``time_openmp`` calls alike — shares one build.
    Stripped on pickle (see :meth:`InstructionMix.__getstate__`).
    """
    cache = mix.__dict__.get("_cpu_tables")
    if cache is None:
        cache = {}
        object.__setattr__(mix, "_cpu_tables", cache)
    entry = cache.get(id(config))
    if entry is None or entry[0] is not config:
        entry = cache[id(config)] = (config, _CpuTables(mix, config))
    return entry[1]


#: (l1 config, l2 config, dram config) -> {streams: (l1 hit fraction,
#: traffic items, dram bytes, irregular miss fraction, per-agent
#: transfer seconds)}.  All pure functions of the frozen configs and
#: the traits' stream tuple, shared across every stack of a process.
_STREAM_TABLES: dict[tuple, dict] = {}


def _stream_entry(traits: WorkloadTraits, dram: DramModel, caches: CacheHierarchy) -> tuple:
    """The :data:`_STREAM_TABLES` entry of one stream mix."""
    key = (caches.l1.config, caches.l2.config, dram.config)
    table = _STREAM_TABLES.get(key)
    if table is None:
        table = _STREAM_TABLES[key] = {}
    entry = table.get(traits.streams)
    if entry is None:
        streams = list(traits.streams)
        l1_hit = caches.l1_hit_fraction(streams)
        traffic = caches.dram_traffic(streams)
        dram_bytes = sum(traffic.values())
        # irregular accesses that miss the L2 stall the pipeline for a
        # DRAM round trip the OoO window cannot hide (dependent-address
        # chains: the naive dmmm column walk is the canonical victim);
        # the miss fraction does not depend on the element count
        irregular = [st for st in streams if st.pattern in _IRREGULAR]
        miss_frac: float | None = None
        if irregular:
            requested = sum(st.requested_bytes for st in irregular)
            if requested > 0.0:
                irregular_dram = traffic.get(AccessPattern.STRIDED, 0.0) + traffic.get(
                    AccessPattern.GATHER, 0.0
                ) + traffic.get(AccessPattern.ATOMIC, 0.0)
                miss_frac = min(irregular_dram / requested, 1.0)
        entry = table[traits.streams] = (
            l1_hit,
            tuple(traffic.items()),
            dram_bytes,
            miss_frac,
            {},
        )
    return entry


def _agent_dram_s(entry: tuple, dram: DramModel, agent: str) -> float:
    """Transfer seconds of a stream entry's traffic from one agent."""
    _, traffic, dram_bytes, _, by_agent = entry
    found = by_agent.get(agent)
    if found is None:
        found = by_agent[agent] = (
            dram.transfer_seconds(agent, bytes_by_pattern=dict(traffic))
            if dram_bytes > 0
            else 0.0
        )
    return found


def _seq_outer(counts, ns, *factors):
    """Sequential row accumulation of ``((counts*n) * f0) * f1...`` terms.

    Axis 0 is the mix-entry axis; accumulating row by row gives every
    lane its additions in exactly the order the scalar dict loop performs
    them.
    """
    import numpy as np

    acc = np.zeros(len(ns))
    terms = counts[:, None] * ns[None, :]
    for f in factors:
        terms = terms * f[:, None]
    for row in terms:
        acc += row
    return acc


def _cycle_lanes(mix: InstructionMix, config: A15Config, entry: tuple, ns):
    """(busy cycles on one core, instruction count) lanes of one mix at
    element counts ``ns``, the serial element loop included."""
    import numpy as np

    t = _cpu_tables_for(mix, config)
    l1_hit, _, _, miss_frac, _ = entry

    accum = _seq_outer(t.acc_counts, ns, t.acc_perlane, t.acc_widths)
    fp = _seq_outer(t.fp_counts, ns, t.fp_costs)
    int_ = _seq_outer(t.int_counts, ns, t.int_costs)
    instructions = _seq_outer(t.a_counts, ns, t.a_widths)

    ls_count = _seq_outer(t.m_counts, ns, t.m_widths)
    irregular_ls = _seq_outer(t.ir_counts, ns, t.ir_widths)
    ls = ls_count / config.ls_ops_per_cycle
    # L1-miss latency only exposes on irregular accesses: the A15's
    # prefetchers and OoO window hide it for unit-stride streams (their
    # cost is the DRAM-bandwidth roofline, charged separately)
    ls = ls + ((irregular_ls * (1.0 - l1_hit)) * config.l2_hit_penalty_cycles)
    if miss_frac is not None:
        ls = ls + ((irregular_ls * miss_frac) * config.dram_miss_penalty_cycles)
    instructions = instructions + ls_count

    branches = mix.branches * ns
    divergent = mix.divergent_branches * ns
    loop_headers = (mix.loop_headers * ns) + ns  # + the element loop
    calls = mix.calls * ns
    atomic_ops = _seq_outer(t.ato_counts, ns)

    branch_cycles = (
        branches * config.mispredict_rate
        + divergent * (config.divergent_mispredict_rate - config.mispredict_rate)
    ) * config.mispredict_penalty
    loop_cycles = loop_headers * config.loop_header_cycles
    call_cycles = calls * config.call_cycles
    atomic_cycles = atomic_ops * config.atomic_cycles
    instructions = instructions + (((branches + loop_headers) + calls) + atomic_ops)

    # FP, integer, LS and the FP dependency chain overlap on an OoO
    # core: the busiest resource dominates; a fraction of the rest
    # leaks past the overlap; serialization costs (mispredicts, calls,
    # atomics) add.  Loop headers overlap like integer work when a
    # dependency chain dominates.
    il = int_ + loop_cycles
    busy = np.maximum(np.maximum(np.maximum(fp, il), ls), accum)
    leak = 0.25 * (((((fp + int_) + loop_cycles) + ls) + accum) - busy)
    cycles = (((busy + leak) + branch_cycles) + call_cycles) + atomic_cycles
    return cycles, instructions


class CpuPricingModel:
    """Serial/OpenMP pricing on one platform: each cell is a one-cell
    :class:`CpuConfigStack` priced at its board row."""

    def __init__(self, config: A15Config, dram: DramModel, caches: CacheHierarchy):
        self.config = config
        self.dram = dram
        self.caches = caches

    def price_one(self, cell) -> CpuTiming:
        """The timing of one :class:`~repro.pricing.CpuCell`."""
        return CpuConfigStack((cell,), self.config, self.dram, self.caches).timings()[0]


# ---------------------------------------------------------------------------
# The timing kernel: config-axis stacks

#: A15Config fields a :class:`CpuConfigStack` takes as per-config
#: columns.  They appear only in the Serial/OpenMP epilogues — never
#: inside the core cycle counts — so the hoisted cycle/instruction
#: columns stay valid across every variant; every other field (the
#: epilogues' overlap and OpenMP overheads included) comes from the
#: base config.
_CPU_STACK_AXES = frozenset({"cores", "clock_hz"})


class CpuStackRows:
    """Row arrays of k (config, dram) design points over a cell stack.

    ``(k, cells)`` lanes, one row per config in call order, aligned with
    the stack's cell order: the :class:`~repro.cpu.serial.CpuTiming`
    fields ``seconds``, ``compute_seconds``, ``mem_stall_seconds``,
    ``dram_seconds``, ``overhead_seconds``, ``active_cores`` and
    ``ipc``, plus ``dram_bandwidth``; ``dram_bytes`` is the
    config-independent ``(cells,)`` column.  CPU cells have no
    feasibility axis — every config prices every cell.
    """

    __slots__ = (
        "seconds",
        "compute_seconds",
        "mem_stall_seconds",
        "dram_seconds",
        "overhead_seconds",
        "ipc",
        "active_cores",
        "dram_bandwidth",
        "dram_bytes",
    )

    def __init__(self, **lanes):
        for name, value in lanes.items():
            setattr(self, name, value)


class CpuConfigStack:
    """The A15 Serial/OpenMP models over a fixed set of cells and k configs.

    The core cycle/instruction counts of every cell are config-invariant
    across the swept axes (:data:`_CPU_STACK_AXES`), so construction
    computes them once — one NumPy pass per (mix, traits) group — and
    each :meth:`rows` call replays only the Serial/OpenMP epilogues as
    ``(configs × cells)`` array passes.  :meth:`timings` is the k = 1
    call on the stack's own config.
    """

    def __init__(
        self,
        cells,
        config: A15Config,
        dram: DramModel,
        caches: CacheHierarchy,
    ) -> None:
        import numpy as np

        cells = tuple(cells)
        if not cells:
            raise ValueError("CpuConfigStack needs at least one cell")
        for cell in cells:
            if cell.mode not in (MODE_SERIAL, MODE_OPENMP):
                raise ValueError(f"unknown CPU pricing mode {cell.mode!r}")
            if int(cell.n_elements) < 1:
                raise ValueError(f"n_elements must be >= 1, got {cell.n_elements}")
        self.cells = cells
        self.config = config
        self.dram = dram
        self.caches = caches

        group_ord: dict[tuple[int, int], int] = {}
        self._group_traits: list[WorkloadTraits] = []
        members: list[list[int]] = []
        gidx: list[int] = []
        for i, cell in enumerate(cells):
            gk = (id(cell.mix), id(cell.traits))
            g = group_ord.get(gk)
            if g is None:
                g = group_ord[gk] = len(members)
                self._group_traits.append(cell.traits)
                members.append([])
            members[g].append(i)
            gidx.append(g)
        self._gidx = np.asarray(gidx, dtype=np.intp)

        self._n_f = np.asarray([float(int(c.n_elements)) for c in cells])
        width = len(cells)
        self._cycles = np.empty(width)
        self._instructions = np.empty(width)
        self._dram_bytes = np.empty(width)
        for g, idxs in enumerate(members):
            index = np.asarray(idxs, dtype=np.intp)
            entry = _stream_entry(self._group_traits[g], dram, caches)
            self._cycles[index], self._instructions[index] = _cycle_lanes(
                cells[idxs[0]].mix, config, entry, self._n_f[index]
            )
            self._dram_bytes[index] = float(entry[2])

        self._cv = np.asarray([c.traits.imbalance_cv for c in cells])
        self._sf = np.asarray([c.traits.serial_fraction for c in cells])
        self._launches = np.asarray([float(c.traits.launches) for c in cells])
        self._serial = np.asarray(
            [i for i, c in enumerate(cells) if c.mode == MODE_SERIAL], dtype=np.intp
        )
        self._openmp = np.asarray(
            [i for i, c in enumerate(cells) if c.mode == MODE_OPENMP], dtype=np.intp
        )
        # dram.config -> (cpu1 dram_s per cell, cpu2 dram_s per cell)
        self._dram_cache: dict = {}

    # ------------------------------------------------------------------
    def _dram_for(self, dram: DramModel) -> tuple:
        import numpy as np

        found = self._dram_cache.get(dram.config)
        if found is None:
            entries = [_stream_entry(t, dram, self.caches) for t in self._group_traits]
            found = self._dram_cache[dram.config] = tuple(
                np.asarray(
                    [_agent_dram_s(e, dram, agent) for e in entries], dtype=np.float64
                )[self._gidx]
                for agent in ("cpu1", "cpu2")
            )
        return found

    # ------------------------------------------------------------------
    def rows(self, *, cores, clock_hz, drams) -> CpuStackRows:
        """Price every cell under k design points, ``(k, cells)`` rows.

        The stacked axes come in as aligned per-config sequences: core
        counts, clocks and each config's
        :class:`~repro.memory.dram.DramModel` (share one object per
        distinct DRAM: its transfer rows are gathered, not recomputed).
        """
        import numpy as np

        from ..pricing import rows_by_key

        config = self.config
        n_cores = list(cores)
        if not n_cores:
            raise ValueError("rows() needs at least one config")

        def column(values, dtype=np.float64):
            return np.asarray(values, dtype=dtype)[:, None]

        ds_serial, ds_openmp = rows_by_key(drams, self._dram_for)
        clock = column(clock_hz)
        cores_f = column([float(n) for n in n_cores])
        shape = (len(n_cores), len(self.cells))
        seconds = np.empty(shape)
        compute = np.empty(shape)
        stall = np.empty(shape)
        dram_s = np.empty(shape)
        overhead = np.zeros(shape)
        ipc = np.empty(shape)
        active = np.empty(shape, dtype=np.int64)
        # the OoO window overlaps compute with outstanding misses; the
        # non-dominant component leaks past the overlap by (1 - mlp_overlap)
        overlap_miss = 1.0 - config.mlp_overlap

        si = self._serial
        if si.size:
            instr = self._instructions[si]
            ds = ds_serial[:, si]
            compute_s = self._cycles[si] / clock
            total = np.maximum(compute_s, ds) + (overlap_miss * np.minimum(compute_s, ds))
            with np.errstate(divide="ignore", invalid="ignore"):
                rate = instr / (total * clock)
            seconds[:, si] = total
            compute[:, si] = compute_s
            stall[:, si] = total - compute_s
            dram_s[:, si] = ds
            ipc[:, si] = np.where(total > 0, rate, 0.0)
            active[:, si] = 1

        oi = self._openmp
        if oi.size:
            cyc = self._cycles[oi]
            instr = self._instructions[oi]
            ds = ds_openmp[:, oi]
            cv = self._cv[oi]
            # Amdahl: the serial fraction stays on one core
            serial_cycles = cyc * self._sf[oi]
            parallel_cycles = cyc - serial_cycles
            # imbalance: expected max of per-core sums; for n/k chunks
            # per core with per-chunk cv the max exceeds the mean by
            # cv * sqrt(2 ln k / chunks) — floored, since static
            # scheduling over large arrays behaves like few big chunks
            log_cores = column([math.log(max(n, 2)) for n in n_cores])
            sqrt_cores = column([math.sqrt(n) for n in n_cores])
            chunks = np.maximum(self._n_f[oi] / cores_f, 1.0)
            imbalance = np.where(
                cv > 0.0,
                1.0 + cv * np.sqrt((2.0 * log_cores) / chunks),
                1.0,
            )
            imbalance = np.maximum(imbalance, 1.0 + (0.35 * cv) / sqrt_cores)
            compute_s = (serial_cycles + (parallel_cycles / cores_f) * imbalance) / clock
            total = np.maximum(compute_s, ds) + (overlap_miss * np.minimum(compute_s, ds))
            stall[:, oi] = total - compute_s
            # fork/join per parallel region and per-thread chunk scheduling
            region = self._launches[oi] * column(
                [
                    config.omp_region_overhead_s + n * config.omp_chunk_overhead_s
                    for n in n_cores
                ]
            )
            total = total + region
            with np.errstate(divide="ignore", invalid="ignore"):
                rate = instr / (total * clock * cores_f)
            seconds[:, oi] = total
            compute[:, oi] = compute_s
            dram_s[:, oi] = ds
            overhead[:, oi] = region
            ipc[:, oi] = np.where(total > 0, rate, 0.0)
            active[:, oi] = column(n_cores, np.int64)

        with np.errstate(divide="ignore", invalid="ignore"):
            bw = self._dram_bytes / seconds
        return CpuStackRows(
            seconds=seconds,
            compute_seconds=compute,
            mem_stall_seconds=stall,
            dram_seconds=dram_s,
            overhead_seconds=overhead,
            ipc=ipc,
            active_cores=active,
            dram_bandwidth=np.where(seconds > 0, bw, 0.0),
            dram_bytes=self._dram_bytes,
        )

    def timings(self) -> tuple[CpuTiming, ...]:
        """Every cell priced on the stack's own config, as records.

        The k = 1 :meth:`rows` call on the base config and DRAM;
        ``tolist`` turns each lane into the exact Python float or int
        the record holds.
        """
        config = self.config
        r = self.rows(cores=(config.cores,), clock_hz=(config.clock_hz,), drams=(self.dram,))
        seconds, compute, stall, dram_s, overhead, active, ipc = (
            lane[0].tolist()
            for lane in (
                r.seconds,
                r.compute_seconds,
                r.mem_stall_seconds,
                r.dram_seconds,
                r.overhead_seconds,
                r.active_cores,
                r.ipc,
            )
        )
        dram_bytes = r.dram_bytes.tolist()
        return tuple(
            CpuTiming(
                seconds=seconds[i],
                compute_seconds=compute[i],
                mem_stall_seconds=stall[i],
                dram_seconds=dram_s[i],
                overhead_seconds=overhead[i],
                dram_bytes=dram_bytes[i],
                active_cores=active[i],
                ipc=ipc[i],
            )
            for i in range(len(self.cells))
        )
