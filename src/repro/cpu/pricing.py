"""Batched CPU pricing: Serial and OpenMP timings over many cells.

``CpuPricer`` generalizes the GPU :class:`~repro.mali.timing.LaunchPricer`
pattern to the Cortex-A15 models: everything that does not depend on the
element count — the per-entry (count, cost) columns of the instruction
mix, the L1 hit fraction, the DRAM traffic and its transfer time — is
hoisted once per (mix, traits) pair, and ``_core_cycles`` is evaluated
for a whole vector of element counts in one 2-D NumPy pass.

Bitwise contract (same as the GPU pricer): elementwise float64 products
are IEEE-identical to the scalar ``(count*n) * cost`` expressions, every
reduction is a sequential accumulation in source dict order — never
``np.sum`` — and terms the scalar path skips behind ``> 0`` guards are
added as exact ``0.0`` (IEEE-identical on non-negative partial sums).
The OpenMP imbalance epilogue calls ``math.sqrt``/``math.log`` and stays
scalar per cell: routing those through libm-equivalent NumPy ufuncs is
*not* guaranteed bit-identical, and the epilogue is O(1) per cell anyway.
"""

from __future__ import annotations

import math

from ..ir.analysis import InstructionMix
from ..ir.nodes import AccessPattern, MemSpace
from ..memory.cache import CacheHierarchy
from ..memory.dram import DramModel
from ..workload import WorkloadTraits
from .config import A15Config
from .serial import CpuTiming

#: ``CpuCell.mode`` values
MODE_SERIAL = "serial"
MODE_OPENMP = "openmp"

_IRREGULAR = (AccessPattern.STRIDED, AccessPattern.GATHER, AccessPattern.ATOMIC)

#: element-count batches below which the scalar per-count loops beat
#: the 2-D NumPy pass (both are bitwise-identical)
_BULK_THRESHOLD = 32


class _CpuTables:
    """Per-entry columns of one per-element mix, in source dict order.

    Columns are plain Python lists — small batches price fastest through
    scalar loops — with NumPy views materialized on demand for the 2-D
    bulk pass (:meth:`arrays`).
    """

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
        "_arrays",
    )

    def __init__(self, mix: InstructionMix, config: A15Config) -> None:
        acc_counts: list[float] = []
        acc_perlane: list[float] = []
        acc_widths: list[float] = []
        fp_counts: list[float] = []
        fp_costs: list[float] = []
        int_counts: list[float] = []
        int_costs: list[float] = []
        a_counts: list[float] = []
        a_widths: list[float] = []
        for (op, base, width, accumulates), count in mix.arith.items():
            if accumulates and base.startswith("f"):
                per_lane = max(config.op_cycles[op], config.accum_latency(op))
                if base == "f64":
                    per_lane *= config.fp64_cost_factor
                acc_counts.append(count)
                acc_perlane.append(per_lane)
                acc_widths.append(float(width))
            elif base.startswith("f"):
                fp_counts.append(count)
                fp_costs.append(config.arith_cycles(op, base, width))
            else:
                int_counts.append(count)
                int_costs.append(config.arith_cycles(op, base, width))
            a_counts.append(count)
            a_widths.append(float(width))
        m_counts: list[float] = []
        m_widths: list[float] = []
        ir_counts: list[float] = []
        ir_widths: list[float] = []
        for (kind, space, pattern, base, width, sequential, aligned), count in mix.mem.items():
            if space == MemSpace.PRIVATE:
                continue
            m_counts.append(count)
            m_widths.append(float(width))
            if pattern in _IRREGULAR:
                ir_counts.append(count)
                ir_widths.append(float(width))
        self.acc_counts = acc_counts
        self.acc_perlane = acc_perlane
        self.acc_widths = acc_widths
        self.fp_counts = fp_counts
        self.fp_costs = fp_costs
        self.int_counts = int_counts
        self.int_costs = int_costs
        self.a_counts = a_counts
        self.a_widths = a_widths
        self.m_counts = m_counts
        self.m_widths = m_widths
        self.ir_counts = ir_counts
        self.ir_widths = ir_widths
        self.ato_counts = [float(c) for c in mix.atomics.values()]
        self._arrays: tuple | None = None

    def arrays(self) -> tuple:
        """float64 column views for the 2-D bulk pass, built on demand."""
        if self._arrays is None:
            import numpy as np

            self._arrays = tuple(
                np.asarray(col, dtype=np.float64)
                for col in (
                    self.acc_counts,
                    self.acc_perlane,
                    self.acc_widths,
                    self.fp_counts,
                    self.fp_costs,
                    self.int_counts,
                    self.int_costs,
                    self.a_counts,
                    self.a_widths,
                    self.m_counts,
                    self.m_widths,
                    self.ir_counts,
                    self.ir_widths,
                    self.ato_counts,
                )
            )
        return self._arrays


def _cpu_tables_for(mix: InstructionMix, config: A15Config) -> _CpuTables:
    """The shared :class:`_CpuTables` of one (mix, config) pair.

    A pure derived constant, cached in the mix's instance dict keyed by
    config identity (the identity check pins the config object); every
    pricer of that mix — batched grids and one-shot ``time_serial`` /
    ``time_openmp`` calls alike — shares one build.  Stripped on pickle
    (see :meth:`InstructionMix.__getstate__`).
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
#: the traits' stream tuple, shared across every pricer of a grid.
_STREAM_TABLES: dict[tuple, dict] = {}


def _stream_tables(dram: DramModel, caches: CacheHierarchy) -> dict:
    key = (caches.l1.config, caches.l2.config, dram.config)
    found = _STREAM_TABLES.get(key)
    if found is None:
        found = _STREAM_TABLES[key] = {}
    return found


def _seq_outer(counts, ns, *factors):
    """Sequential row accumulation of ``((counts*n) * f0) * f1...`` terms.

    Axis 0 is the mix-entry axis; accumulating row by row gives every
    lane its additions in exactly the order the scalar dict loop performs
    them.
    """
    import numpy as np

    acc = np.zeros(len(ns))
    if not counts.size:
        return acc
    terms = counts[:, None] * ns[None, :]
    for f in factors:
        terms = terms * f[:, None]
    for row in terms:
        acc += row
    return acc


class CpuPricer:
    """Batched Serial/OpenMP pricing of one per-element mix.

    One pricer covers both modes: ``_core_cycles`` sees identical inputs
    for Serial and OpenMP, so the vectorized core runs once per distinct
    vector of element counts and only the epilogues differ.
    """

    def __init__(
        self,
        mix: InstructionMix,
        traits: WorkloadTraits,
        config: A15Config,
        dram: DramModel,
        caches: CacheHierarchy,
        stream_tables: dict | None = None,
    ) -> None:
        self.mix = mix
        self.traits = traits
        self.config = config
        self.dram = dram
        self.caches = caches
        self._tables = _cpu_tables_for(mix, config)
        tables = stream_tables if stream_tables is not None else _stream_tables(dram, caches)
        entry = tables.get(traits.streams)
        if entry is None:
            streams = list(traits.streams)
            l1_hit = caches.l1_hit_fraction(streams)
            traffic = caches.dram_traffic(streams)
            dram_bytes = sum(traffic.values())
            # the guarded irregular-miss penalty: its scale factor does
            # not depend on the element count, so it reduces to one
            # group scalar
            irregular = [st for st in streams if st.pattern in _IRREGULAR]
            miss_frac: float | None = None
            if irregular:
                requested = sum(st.requested_bytes for st in irregular)
                if requested > 0.0:
                    irregular_dram = traffic.get(AccessPattern.STRIDED, 0.0) + traffic.get(
                        AccessPattern.GATHER, 0.0
                    ) + traffic.get(AccessPattern.ATOMIC, 0.0)
                    miss_frac = min(irregular_dram / requested, 1.0)
            entry = tables[traits.streams] = (
                l1_hit,
                tuple(traffic.items()),
                dram_bytes,
                miss_frac,
                {},
            )
        self._l1_hit, items, self._dram_bytes, self._miss_frac, self._dram_s = entry
        self._traffic = dict(items)

    def _agent_dram_s(self, agent: str) -> float:
        found = self._dram_s.get(agent)
        if found is None:
            found = self._dram_s[agent] = (
                self.dram.transfer_seconds(agent, bytes_by_pattern=self._traffic)
                if self._dram_bytes > 0
                else 0.0
            )
        return found

    # ------------------------------------------------------------------
    def _core_cycles_bulk(self, ns):
        """Vectorized ``serial._core_cycles`` over element counts ``ns``.

        ``ns`` already includes nothing: the serial element loop header
        (``totals.loop_headers += n``) is applied here, exactly where the
        scalar path applies it — before any loop-header consumer.
        """
        import numpy as np

        (
            acc_counts,
            acc_perlane,
            acc_widths,
            fp_counts,
            fp_costs,
            int_counts,
            int_costs,
            a_counts,
            a_widths,
            m_counts,
            m_widths,
            ir_counts,
            ir_widths,
            ato_counts,
        ) = self._tables.arrays()
        config = self.config
        mix = self.mix

        accum = _seq_outer(acc_counts, ns, acc_perlane, acc_widths)
        fp = _seq_outer(fp_counts, ns, fp_costs)
        int_ = _seq_outer(int_counts, ns, int_costs)
        instructions = _seq_outer(a_counts, ns, a_widths)

        ls_count = _seq_outer(m_counts, ns, m_widths)
        irregular_ls = _seq_outer(ir_counts, ns, ir_widths)
        ls = ls_count / config.ls_ops_per_cycle
        ls = ls + ((irregular_ls * (1.0 - self._l1_hit)) * config.l2_hit_penalty_cycles)
        if self._miss_frac is not None:
            ls = ls + ((irregular_ls * self._miss_frac) * config.dram_miss_penalty_cycles)
        instructions = instructions + ls_count

        branches = mix.branches * ns
        divergent = mix.divergent_branches * ns
        loop_headers = (mix.loop_headers * ns) + ns  # + the element loop
        calls = mix.calls * ns
        atomic_ops = _seq_outer(ato_counts, ns)

        branch_cycles = (
            branches * config.mispredict_rate
            + divergent * (config.divergent_mispredict_rate - config.mispredict_rate)
        ) * config.mispredict_penalty
        loop_cycles = loop_headers * config.loop_header_cycles
        call_cycles = calls * config.call_cycles
        atomic_cycles = atomic_ops * config.atomic_cycles
        instructions = instructions + (((branches + loop_headers) + calls) + atomic_ops)

        il = int_ + loop_cycles
        busy = np.maximum(np.maximum(np.maximum(fp, il), ls), accum)
        leak = 0.25 * (((((fp + int_) + loop_cycles) + ls) + accum) - busy)
        cycles = (((busy + leak) + branch_cycles) + call_cycles) + atomic_cycles
        return cycles, instructions

    def _core_cycles_one(self, n: float) -> tuple[float, float]:
        """Scalar twin of :meth:`_core_cycles_bulk` for one element count.

        Every product and every sequential addition is the same IEEE-754
        double operation the bulk pass performs lane-wise, in the same
        order, so the two paths agree bit for bit — and below the ufunc
        dispatch overhead the scalar loops win on small batches.
        """
        t = self._tables
        config = self.config
        mix = self.mix

        accum = 0.0
        for count, per_lane, width in zip(t.acc_counts, t.acc_perlane, t.acc_widths):
            accum += ((count * n) * per_lane) * width
        fp = 0.0
        for count, cost in zip(t.fp_counts, t.fp_costs):
            fp += (count * n) * cost
        int_ = 0.0
        for count, cost in zip(t.int_counts, t.int_costs):
            int_ += (count * n) * cost
        instructions = 0.0
        for count, width in zip(t.a_counts, t.a_widths):
            instructions += (count * n) * width

        ls_count = 0.0
        for count, width in zip(t.m_counts, t.m_widths):
            ls_count += (count * n) * width
        irregular_ls = 0.0
        for count, width in zip(t.ir_counts, t.ir_widths):
            irregular_ls += (count * n) * width
        ls = ls_count / config.ls_ops_per_cycle
        ls = ls + ((irregular_ls * (1.0 - self._l1_hit)) * config.l2_hit_penalty_cycles)
        if self._miss_frac is not None:
            ls = ls + ((irregular_ls * self._miss_frac) * config.dram_miss_penalty_cycles)
        instructions = instructions + ls_count

        branches = mix.branches * n
        divergent = mix.divergent_branches * n
        loop_headers = (mix.loop_headers * n) + n  # + the element loop
        calls = mix.calls * n
        atomic_ops = 0.0
        for count in t.ato_counts:
            atomic_ops += count * n

        branch_cycles = (
            branches * config.mispredict_rate
            + divergent * (config.divergent_mispredict_rate - config.mispredict_rate)
        ) * config.mispredict_penalty
        loop_cycles = loop_headers * config.loop_header_cycles
        call_cycles = calls * config.call_cycles
        atomic_cycles = atomic_ops * config.atomic_cycles
        instructions = instructions + (((branches + loop_headers) + calls) + atomic_ops)

        il = int_ + loop_cycles
        busy = max(max(max(fp, il), ls), accum)
        leak = 0.25 * (((((fp + int_) + loop_cycles) + ls) + accum) - busy)
        cycles = (((busy + leak) + branch_cycles) + call_cycles) + atomic_cycles
        return cycles, instructions

    def _core_cycles_for(self, counts: list[int]):
        """(cycles, instructions) sequences for validated counts —
        scalar loops below :data:`_BULK_THRESHOLD`, the 2-D pass above."""
        if len(counts) < _BULK_THRESHOLD:
            cycles: list[float] = []
            instructions: list[float] = []
            for n in counts:
                c, i = self._core_cycles_one(float(n))
                cycles.append(c)
                instructions.append(i)
            return cycles, instructions
        import numpy as np

        ns = np.asarray([float(n) for n in counts], dtype=np.float64)
        return self._core_cycles_bulk(ns)

    def _prepare(self, n_values) -> list[int]:
        counts = [int(n) for n in n_values]
        for n in counts:
            if n < 1:
                raise ValueError(f"n_elements must be >= 1, got {n}")
        return counts

    def price_serial(self, n_values) -> tuple[CpuTiming, ...]:
        """Serial timings for each element count, bitwise ``time_serial``."""
        counts = self._prepare(n_values)
        cycles_seq, instr_seq = self._core_cycles_for(counts)
        config = self.config
        dram_s = self._agent_dram_s("cpu1")
        out = []
        for j in range(len(counts)):
            cycles = float(cycles_seq[j])
            instructions = float(instr_seq[j])
            compute_s = cycles / config.clock_hz
            total = max(compute_s, dram_s) + (
                (1.0 - config.mlp_overlap) * min(compute_s, dram_s)
            )
            stall = total - compute_s
            ipc = instructions / (total * config.clock_hz) if total > 0 else 0.0
            out.append(
                CpuTiming(
                    seconds=total,
                    compute_seconds=compute_s,
                    mem_stall_seconds=stall,
                    dram_seconds=dram_s,
                    overhead_seconds=0.0,
                    dram_bytes=self._dram_bytes,
                    active_cores=1,
                    ipc=ipc,
                )
            )
        return tuple(out)

    def price_openmp(self, n_values) -> tuple[CpuTiming, ...]:
        """OpenMP timings for each element count, bitwise ``time_openmp``.

        The core cycles come from the shared scalar-or-vectorized pass;
        the imbalance/overhead epilogue is scalar per cell (see module
        docstring for why the transcendentals stay on ``math``).
        """
        counts = self._prepare(n_values)
        cycles_arr, instr_arr = self._core_cycles_for(counts)
        config = self.config
        n_cores = config.cores
        dram_s = self._agent_dram_s("cpu2")
        out = []
        for j, n_elements in enumerate(counts):
            cycles = float(cycles_arr[j])
            instructions = float(instr_arr[j])
            serial_cycles = cycles * self.traits.serial_fraction
            parallel_cycles = cycles - serial_cycles
            imbalance = 1.0
            if self.traits.imbalance_cv > 0.0:
                chunks_per_core = max(n_elements / n_cores, 1.0)
                imbalance = 1.0 + self.traits.imbalance_cv * math.sqrt(
                    2.0 * math.log(max(n_cores, 2)) / chunks_per_core
                )
            imbalance = max(imbalance, 1.0 + 0.35 * self.traits.imbalance_cv / math.sqrt(n_cores))
            compute_s = (serial_cycles + parallel_cycles / n_cores * imbalance) / config.clock_hz
            total = max(compute_s, dram_s) + (1.0 - config.mlp_overlap) * min(compute_s, dram_s)
            stall = total - compute_s
            overhead = self.traits.launches * (
                config.omp_region_overhead_s + n_cores * config.omp_chunk_overhead_s
            )
            total += overhead
            ipc = instructions / (total * config.clock_hz * n_cores) if total > 0 else 0.0
            out.append(
                CpuTiming(
                    seconds=total,
                    compute_seconds=compute_s,
                    mem_stall_seconds=stall,
                    dram_seconds=dram_s,
                    overhead_seconds=overhead,
                    dram_bytes=self._dram_bytes,
                    active_cores=n_cores,
                    ipc=ipc,
                )
            )
        return tuple(out)

    def price_mode(self, mode: str, n_values) -> tuple[CpuTiming, ...]:
        """Dispatch on a :class:`~repro.pricing.CpuCell` mode string."""
        if mode == MODE_SERIAL:
            return self.price_serial(n_values)
        if mode == MODE_OPENMP:
            return self.price_openmp(n_values)
        raise ValueError(f"unknown CPU pricing mode {mode!r}")


class CpuPricingModel:
    """Batched :class:`~repro.pricing.PricingModel` over CPU cells.

    Groups cells by (mix, traits) — one :class:`CpuPricer` per group —
    then prices each mode's element counts in one vectorized pass.
    """

    def __init__(self, config: A15Config, dram: DramModel, caches: CacheHierarchy):
        self.config = config
        self.dram = dram
        self.caches = caches
        self._pricers: dict[tuple[int, int], CpuPricer] = {}
        # shared per-stream-mix tables, resolved once per facade
        self._streams = _stream_tables(dram, caches)

    def pricer(self, mix: InstructionMix, traits: WorkloadTraits) -> CpuPricer:
        """The shared :class:`CpuPricer` for one (mix, traits) pair."""
        gk = (id(mix), id(traits))
        found = self._pricers.get(gk)
        if found is None:
            found = self._pricers[gk] = CpuPricer(
                mix, traits, self.config, self.dram, self.caches,
                stream_tables=self._streams,
            )
        return found

    def price(self, cells) -> tuple[CpuTiming, ...]:
        """Timings for each :class:`~repro.pricing.CpuCell`."""
        cells = tuple(cells)
        grouped: dict[tuple[int, int, str], list[int]] = {}
        for i, cell in enumerate(cells):
            gk = (id(cell.mix), id(cell.traits), cell.mode)
            grouped.setdefault(gk, []).append(i)
        out: list[CpuTiming | None] = [None] * len(cells)
        for (_, _, mode), idxs in grouped.items():
            first = cells[idxs[0]]
            pricer = self.pricer(first.mix, first.traits)
            timings = pricer.price_mode(mode, [cells[i].n_elements for i in idxs])
            for j, i in enumerate(idxs):
                out[i] = timings[j]
        return tuple(out)  # type: ignore[arg-type]

    def price_one(self, cell) -> CpuTiming:
        """Single-cell convenience (same vectorized tables)."""
        return self.price((cell,))[0]


# ---------------------------------------------------------------------------
# Config-axis stacking (design-space sweeps)

#: A15Config fields a :class:`CpuConfigStack` takes as per-config
#: columns.  They appear only in the Serial/OpenMP epilogues — never
#: inside ``_core_cycles`` — so the hoisted cycle/instruction columns
#: stay valid across every variant; every other field (the epilogues'
#: overlap and OpenMP overheads included) comes from the base config.
_CPU_STACK_AXES = frozenset({"cores", "clock_hz"})


class CpuStackRows:
    """Row arrays of k (config, dram) design points over a cell stack.

    ``(k, cells)`` lanes, one row per config in call order, aligned with
    the stack's cell order; ``dram_bytes`` is the config-independent
    ``(cells,)`` column.  CPU cells have no feasibility axis — every
    config prices every cell.
    """

    __slots__ = ("seconds", "ipc", "active_cores", "dram_bandwidth", "dram_bytes")

    def __init__(self, seconds, ipc, active_cores, dram_bandwidth, dram_bytes):
        self.seconds = seconds
        self.ipc = ipc
        self.active_cores = active_cores
        self.dram_bandwidth = dram_bandwidth
        self.dram_bytes = dram_bytes


class CpuConfigStack:
    """Config-axis vectorization of a fixed set of CPU cells.

    The core cycle/instruction counts of every cell are config-invariant
    across the swept axes (:data:`_CPU_STACK_AXES`), so they are computed
    once through the shared :class:`CpuPricer` machinery; each
    :meth:`rows` call replays only the Serial/OpenMP epilogues as
    ``(configs × cells)`` array passes.  Every lane is bitwise-identical
    to pricing the cell through a per-config :class:`CpuPricingModel`
    facade — the array expressions mirror the scalar epilogues operation
    by operation (``math.log``/``math.sqrt`` of config scalars stay on
    ``math``, one per config, and enter as columns; only per-cell
    arithmetic is vectorized).
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
        self.cells = cells
        self.config = config
        self.dram = dram
        self.caches = caches
        self._model = CpuPricingModel(config, dram, caches)

        group_ord: dict[tuple[int, int], int] = {}
        self._group_pricers: list[CpuPricer] = []
        group_cells: list[list[int]] = []
        gidx: list[int] = []
        for i, cell in enumerate(cells):
            pricer = self._model.pricer(cell.mix, cell.traits)
            gk = (id(cell.mix), id(cell.traits))
            g = group_ord.get(gk)
            if g is None:
                g = group_ord[gk] = len(self._group_pricers)
                self._group_pricers.append(pricer)
                group_cells.append([])
            group_cells[g].append(i)
            gidx.append(g)
        self._gidx = np.asarray(gidx, dtype=np.intp)

        width = len(cells)
        cyc = np.empty(width)
        instr = np.empty(width)
        dram_bytes = np.empty(width)
        for g, pricer in enumerate(self._group_pricers):
            idxs = group_cells[g]
            counts = pricer._prepare([cells[i].n_elements for i in idxs])
            cyc_seq, instr_seq = pricer._core_cycles_for(counts)
            for j, i in enumerate(idxs):
                cyc[i] = float(cyc_seq[j])
                instr[i] = float(instr_seq[j])
                dram_bytes[i] = float(pricer._dram_bytes)
        self._cycles = cyc
        self._instructions = instr
        self._dram_bytes = dram_bytes

        self._n_f = np.asarray([float(int(c.n_elements)) for c in cells])
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
            # a throwaway pricer per group reuses (and fills) the same
            # process-global stream tables a facade on this DRAM would
            tables = _stream_tables(dram, self.caches)
            s1 = []
            s2 = []
            for pricer in self._group_pricers:
                p = CpuPricer(
                    pricer.mix, pricer.traits, self.config, dram, self.caches,
                    stream_tables=tables,
                )
                s1.append(p._agent_dram_s("cpu1"))
                s2.append(p._agent_dram_s("cpu2"))
            found = self._dram_cache[dram.config] = (
                np.asarray(s1, dtype=np.float64)[self._gidx],
                np.asarray(s2, dtype=np.float64)[self._gidx],
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
        k = len(n_cores)
        width = len(self.cells)
        seconds = np.empty((k, width))
        ipc = np.empty((k, width))
        active = np.empty((k, width), dtype=np.int64)
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
            ipc[:, si] = np.where(total > 0, rate, 0.0)
            active[:, si] = 1

        oi = self._openmp
        if oi.size:
            cyc = self._cycles[oi]
            instr = self._instructions[oi]
            ds = ds_openmp[:, oi]
            cv = self._cv[oi]
            serial_cycles = cyc * self._sf[oi]
            parallel_cycles = cyc - serial_cycles
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
            overhead = self._launches[oi] * column(
                [
                    config.omp_region_overhead_s + n * config.omp_chunk_overhead_s
                    for n in n_cores
                ]
            )
            total = total + overhead
            with np.errstate(divide="ignore", invalid="ignore"):
                rate = instr / (total * clock * cores_f)
            seconds[:, oi] = total
            ipc[:, oi] = np.where(total > 0, rate, 0.0)
            active[:, oi] = column(n_cores, np.int64)

        with np.errstate(divide="ignore", invalid="ignore"):
            bw = self._dram_bytes / seconds
        dram_bw = np.where(seconds > 0, bw, 0.0)
        return CpuStackRows(seconds, ipc, active, dram_bw, self._dram_bytes)
