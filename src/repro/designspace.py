"""Design-space hypercube: batch-price many SoC configs, emit Pareto data.

The ROADMAP's question — *"what Mali would beat the 2×A15 at equal
energy?"* — needs the full (configs × benchmarks × versions ×
vector-widths × precision) hypercube priced cheaply.  Pricing each
cell of each config through its own platform's ``price_one`` entries
is correct but walks the whole grid once per config; this module
evaluates the hypercube as *stacked* NumPy evaluations instead:

* the cell grid (CPU Serial/OpenMP cells + every autotuner candidate of
  every benchmark, compiled once — kernels are config-independent) is
  built a single time by :class:`DesignSpace`;
* :class:`~repro.mali.timing.GpuConfigStack` and
  :class:`~repro.cpu.pricing.CpuConfigStack` hoist every config-invariant
  quantity, so k SoC configs cost a few ``(configs × cells)`` array
  passes;
* board power comes from :func:`~repro.power.rails.stack_watts` over the
  row arrays.

The stacks are the one Mali and A15 timing kernel: a config's own
platform prices each cell (``pricing_model().gpu.price_one`` /
``.cpu.price_one``) as a one-cell, one-config stack, so every lane here
is the value that config's own platform would report.

The **Opt** version of a (config, benchmark, precision) point is the
feasible candidate minimizing ``seconds × launches`` — the autotuner's
currency over the main-kernel candidate set.  Multi-kernel benchmarks
(hist's merge stage, red's second stage) price their main kernel here;
the full multi-stage ``iteration_pricer`` refinement stays the
campaign path's job.  Candidates whose kernels exceed a config's scaled
register file are infeasible on that config (``CL_OUT_OF_RESOURCES``),
which is how the paper's DP register-exhaustion collapse shows up
across the space.

On top sit deterministic Pareto helpers: :func:`dominates`,
:func:`frontier` (the O(n log n) :func:`repro.pareto.skyline`),
:func:`dominated`, :func:`equal_energy_speedup` and
:func:`equal_time_energy`.

Large spaces run through **streaming evaluation**
(``evaluate_space(stream=True)``): configs are priced in fixed-size
chunks, one batched :meth:`DesignSpace.rows` call per chunk's
survivors, each chunk's target-slice points feed per-precision
:class:`~repro.pareto.OnlineFrontier` accumulators, and dominated
points are dropped immediately — peak memory is O(chunk + frontier)
instead of O(space).  Before pricing, a vectorized roofline/rail
**lower bound** (:meth:`DesignSpace.opt_bounds`) prunes configs whose
best case is already dominated by the current frontier; pruning never
changes the frontier (the bound under-estimates both objectives, and
domination is transitive).  ``jobs=N`` shards configs over workers
that each reduce locally and ship back only frontier candidates,
merged to results byte-identical to ``jobs=1``.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

from .benchmarks.base import Precision, cpu_pricing_inputs
from .benchmarks.registry import PAPER_ORDER, create
from .calibration.exynos5250 import ExynosPlatform, default_platform
from .calibration.socspace import EXYNOS_5250, SoCConfig, default_space
from .errors import CLError, CompilerError
from .experiments.trace import JsonlTraceSink, Tracer, TraceSink
from .pareto import OnlineFrontier, point_key, skyline
from .power.rails import ActivityKind, stack_watts
from .pricing.cells import MODE_OPENMP, MODE_SERIAL, CpuCell, GpuLaunchCell

#: version labels of a design point (Opt = best feasible GPU candidate)
VERSIONS = ("Serial", "OpenMP", "Opt")
#: pseudo-benchmark name of the across-benchmarks sum
AGGREGATE = "aggregate"

_PRECISIONS_DEFAULT = (Precision.SINGLE, Precision.DOUBLE)
#: configs per batched pricing call of the materializing evaluate()
_EVAL_BLOCK = 256


@dataclass(frozen=True)
class DesignPoint:
    """One (config, benchmark, precision, version) cell of the hypercube.

    ``seconds`` is one timed iteration (``× launches`` for GPU
    versions); ``energy_j`` is ``seconds × watts`` of the meterless
    board-power model.  Infeasible points (no Opt candidate fits the
    config) carry ``inf`` seconds/energy and zero watts.
    """

    config_name: str
    benchmark: str
    precision: str
    version: str
    seconds: float
    watts: float
    energy_j: float
    feasible: bool = True


class _BenchCells:
    """Cell spans of one (benchmark, precision) group in the flat grid."""

    __slots__ = ("name", "precision", "cpu_start", "gpu_start", "gpu_stop", "launches")

    def __init__(self, name, precision, cpu_start, gpu_start, gpu_stop, launches):
        self.name = name
        self.precision = precision
        self.cpu_start = cpu_start
        self.gpu_start = gpu_start
        self.gpu_stop = gpu_stop
        self.launches = launches


class SpaceRows:
    """Aligned ``(configs, cells)`` row arrays over a :class:`DesignSpace` grid.

    One row per config in call order.  GPU lanes follow the space's GPU
    cell order, CPU lanes its CPU cell order ([Serial, OpenMP] per
    group).  ``gpu_iter_seconds`` is ``seconds × launches`` (the Opt
    currency); infeasible GPU lanes are ``inf`` seconds/energy, zero
    watts.
    """

    __slots__ = (
        "gpu_feasible",
        "gpu_seconds",
        "gpu_iter_seconds",
        "gpu_watts",
        "gpu_energy",
        "cpu_seconds",
        "cpu_watts",
        "cpu_energy",
    )

    def __init__(self, **arrays):
        for name in self.__slots__:
            setattr(self, name, arrays[name])

    def take(self, index) -> "SpaceRows":
        """The rows of the configs at ``index`` (a sequence of positions)."""
        return SpaceRows(**{name: getattr(self, name)[index] for name in self.__slots__})


class DesignSpace:
    """The prepared hypercube: one cell grid + config stacks, many configs.

    Construction compiles every autotuner candidate once (candidates
    whose kernels cannot allocate at all — the hard
    ``CL_OUT_OF_RESOURCES`` limit — are dropped for every config, same
    as the tuner) and builds the GPU/CPU config stacks.
    :meth:`rows` then prices k configs in a few ``(configs × cells)``
    array passes.
    """

    def __init__(
        self,
        benchmarks=PAPER_ORDER,
        precisions=_PRECISIONS_DEFAULT,
        scale: float = 0.5,
        seed: int = 1234,
        base: ExynosPlatform | None = None,
    ) -> None:
        import numpy as np

        from .compiler.pipeline import compile_kernel
        from .cpu.pricing import CpuConfigStack
        from .mali.timing import GpuConfigStack
        from .ocl.driver import default_quirks, driver_local_size
        from .optimizations.autotune import _candidates

        self.base = base if base is not None else default_platform()
        self.benchmarks = tuple(benchmarks)
        self.precisions = tuple(precisions)
        self.scale = scale
        self.seed = seed

        quirks = (
            self.base.driver_quirks
            if self.base.driver_quirks is not None
            else default_quirks()
        )
        groups: list[_BenchCells] = []
        cpu_cells: list[CpuCell] = []
        gpu_cells: list[GpuLaunchCell] = []
        launches: list[int] = []
        for name in self.benchmarks:
            for precision in self.precisions:
                bench = create(
                    name, precision=precision, scale=scale, seed=seed, platform=self.base
                )
                _, mix, traits, n = cpu_pricing_inputs(bench)
                cpu_start = len(cpu_cells)
                cpu_cells.append(
                    CpuCell(mix=mix, mode=MODE_SERIAL, n_elements=n, traits=traits)
                )
                cpu_cells.append(
                    CpuCell(mix=mix, mode=MODE_OPENMP, n_elements=n, traits=traits)
                )
                gpu_start = len(gpu_cells)
                for options, local in _candidates(bench, include_naive=True):
                    try:
                        compiled = compile_kernel(
                            bench.kernel_ir(options), options, quirks=quirks
                        )
                    except (CompilerError, CLError):
                        continue  # infeasible on every config (baseline ISA)
                    base_items = max(1, -(-bench.elements() // compiled.elems_per_item))
                    loc = local or driver_local_size(
                        base_items, self.base.mali.max_work_group_size
                    )
                    n_items = -(-base_items // loc) * loc
                    gtraits = bench.gpu_traits(options)
                    gpu_cells.append(
                        GpuLaunchCell(
                            compiled=compiled,
                            traits=gtraits,
                            n_items=n_items,
                            local_size=loc,
                        )
                    )
                    launches.append(gtraits.launches)
                groups.append(
                    _BenchCells(
                        name,
                        precision.value,
                        cpu_start,
                        gpu_start,
                        len(gpu_cells),
                        tuple(launches[gpu_start:]),
                    )
                )
        self.groups = groups
        self.cpu_cells = tuple(cpu_cells)
        self.gpu_cells = tuple(gpu_cells)
        self._launches_f = np.asarray([float(l) for l in launches])
        #: precisions in group order (the aggregate points' order)
        self._group_precisions = tuple(dict.fromkeys(bc.precision for bc in groups))
        #: design points per config: [Serial, OpenMP, Opt] per group plus
        #: one aggregate per (precision, version)
        self.points_per_config = len(VERSIONS) * (
            len(groups) + len(self._group_precisions)
        )

        dram = self.base.dram_model()
        self._gpu_stack = (
            GpuConfigStack(self.gpu_cells, self.base.mali, dram, self.base.gpu_caches())
            if self.gpu_cells
            else None
        )
        self._cpu_stack = CpuConfigStack(
            self.cpu_cells, self.base.cpu, dram, self.base.cpu_caches()
        )
        self._drams: dict[float, object] = {}  # dram_gbps -> derived DramModel
        self._bounds = None  # lazy opt_bounds tables

    # ------------------------------------------------------------------
    def _dram_for(self, dram_gbps: float):
        """The derived DRAM model at one ``dram_gbps``, one shared object
        per value (the derivation depends on no other knob)."""
        found = self._drams.get(dram_gbps)
        if found is None:
            config = replace(EXYNOS_5250, dram_gbps=dram_gbps)
            found = self._drams[dram_gbps] = config.platform(self.base).dram_model()
        return found

    def _gpu_lanes(self, g, watts) -> dict:
        """The GPU fields of :class:`SpaceRows` from stack rows and watts."""
        import numpy as np

        gpu_watts = np.where(g.feasible, watts, 0.0)
        gpu_iter = g.seconds * self._launches_f
        with np.errstate(invalid="ignore"):
            gpu_energy = np.where(g.feasible, gpu_iter * gpu_watts, np.inf)
        return {
            "gpu_feasible": g.feasible,
            "gpu_seconds": g.seconds,
            "gpu_iter_seconds": gpu_iter,
            "gpu_watts": gpu_watts,
            "gpu_energy": gpu_energy,
        }

    def stacked_rows(self, configs) -> SpaceRows:
        """Row arrays of k configs via the config-axis stacks.

        The configs' knobs enter the stacks as columns, and each rail
        coefficient as ``base × rail_scale`` — the products
        :meth:`SoCConfig.platform` would compute — so no per-config
        platform is derived; DRAM models are derived once per
        ``dram_gbps``.
        """
        import numpy as np

        configs = tuple(configs)
        drams = [self._dram_for(c.dram_gbps) for c in configs]
        rail_scale = np.asarray([c.rail_scale for c in configs], dtype=np.float64)[:, None]
        rails = self.base.rails

        c = self._cpu_stack.rows(
            cores=[x.cpu_cores for x in configs],
            clock_hz=[x.cpu_clock_hz for x in configs],
            drams=drams,
        )
        cpu_watts = stack_watts(
            rails,
            ActivityKind.CPU,
            dram_bandwidth=c.dram_bandwidth,
            active_cpu_cores=c.active_cores,
            cpu_ipc=c.ipc,
            rail_scale=rail_scale,
        )

        if self._gpu_stack is not None:
            g = self._gpu_stack.rows(
                shader_cores=[x.gpu_cores for x in configs],
                clock_hz=[x.gpu_clock_hz for x in configs],
                register_file_scale=[x.register_file_scale for x in configs],
                drams=drams,
            )
            watts = stack_watts(
                rails,
                ActivityKind.GPU_KERNEL,
                dram_bandwidth=g.dram_bandwidth,
                gpu_alu_utilization=g.alu_utilization,
                gpu_ls_utilization=g.ls_utilization,
                rail_scale=rail_scale,
            )
            gpu = self._gpu_lanes(g, watts)
        else:
            empty = np.zeros((len(configs), 0))
            gpu = {
                "gpu_feasible": empty.astype(bool),
                "gpu_seconds": empty,
                "gpu_iter_seconds": empty,
                "gpu_watts": empty,
                "gpu_energy": empty,
            }
        return SpaceRows(
            **gpu,
            cpu_seconds=c.seconds,
            cpu_watts=cpu_watts,
            cpu_energy=c.seconds * cpu_watts,
        )

    def rows(self, configs) -> SpaceRows:
        """``(configs, cells)`` row arrays of k configs."""
        return self.stacked_rows(configs)

    # ------------------------------------------------------------------
    def _lanes(self, rows: SpaceRows, version: str) -> list[tuple]:
        """Per-group ``(seconds, watts, energy, feasible)`` columns of one
        version, each of shape ``(configs,)``.

        Opt is the group's first-minimum ``seconds × launches`` lane
        (``inf``/zero-watt/infeasible when no candidate fits).
        """
        import numpy as np

        k = rows.gpu_feasible.shape[0]
        feasible = np.ones(k, dtype=bool)
        if version != "Opt":
            off = VERSIONS.index(version)
            return [
                (
                    rows.cpu_seconds[:, bc.cpu_start + off],
                    rows.cpu_watts[:, bc.cpu_start + off],
                    rows.cpu_energy[:, bc.cpu_start + off],
                    feasible,
                )
                for bc in self.groups
            ]
        inf = np.full(k, np.inf)
        out = []
        for bc in self.groups:
            if bc.gpu_stop == bc.gpu_start:
                out.append((inf, np.zeros(k), inf, ~feasible))
                continue
            span = slice(bc.gpu_start, bc.gpu_stop)
            ok = rows.gpu_feasible[:, span].any(axis=1)
            j = np.argmin(rows.gpu_iter_seconds[:, span], axis=1)[:, None]
            seconds, watts, energy = (
                np.take_along_axis(lanes[:, span], j, 1)[:, 0]
                for lanes in (rows.gpu_iter_seconds, rows.gpu_watts, rows.gpu_energy)
            )
            out.append(
                (
                    np.where(ok, seconds, np.inf),
                    np.where(ok, watts, 0.0),
                    np.where(ok, energy, np.inf),
                    ok,
                )
            )
        return out

    def _aggregate(self, lanes) -> dict:
        """Per-precision sums of per-group lanes, in group order.

        ``{precision: (seconds, watts, energy, feasible)}``: seconds and
        energy accumulate from ``0.0`` in the groups' order (the scalar
        running sum, lane for lane), feasibility is the conjunction, and
        watts is ``energy / seconds`` where feasible with positive
        seconds, else zero.
        """
        import numpy as np

        sums: dict[str, list] = {}
        for bc, (seconds, _, energy, ok) in zip(self.groups, lanes):
            acc = sums.get(bc.precision)
            if acc is None:
                k = seconds.shape[0]
                acc = sums[bc.precision] = [np.zeros(k), np.zeros(k), np.ones(k, bool)]
            acc[0] = acc[0] + seconds
            acc[1] = acc[1] + energy
            acc[2] = acc[2] & ok
        out = {}
        for precision, (seconds, energy, ok) in sums.items():
            with np.errstate(divide="ignore", invalid="ignore"):
                watts = np.where(ok & (seconds > 0), energy / seconds, 0.0)
            out[precision] = (seconds, watts, energy, ok)
        return out

    def slice_lanes(self, rows: SpaceRows, benchmark: str, version: str) -> dict:
        """``{precision: (seconds, watts, energy, feasible)}`` columns of
        one ``(benchmark, version)`` slice; ``benchmark`` may be
        :data:`AGGREGATE`."""
        lanes = self._lanes(rows, version)
        if benchmark == AGGREGATE:
            return self._aggregate(lanes)
        return {
            bc.precision: lane
            for bc, lane in zip(self.groups, lanes)
            if bc.name == benchmark
        }

    def points(self, configs, rows: SpaceRows, target=None) -> list[DesignPoint]:
        """Design points of k configs from their ``(k, cells)`` row arrays.

        Points are a pure function of the rows, so point equality
        reduces to row identity.  Per config, in config order: [Serial,
        OpenMP, Opt] per (benchmark, precision) group, then
        per-precision aggregates (sums across benchmarks; an aggregate
        Opt is infeasible if any benchmark's is).
        ``target=(benchmark, version)`` builds only that slice instead:
        one point per (config, precision).
        """

        def columns(lanes):
            return [tuple(col.tolist() for col in lane) for lane in lanes]

        names = [c.name for c in configs]
        pts: list[DesignPoint] = []
        if target is not None:
            benchmark, version = target
            found = self.slice_lanes(rows, benchmark, version)
            cols = columns(found.values())
            for i, name in enumerate(names):
                for precision, (s, w, e, ok) in zip(found, cols):
                    pts.append(
                        DesignPoint(name, benchmark, precision, version, s[i], w[i], e[i], ok[i])
                    )
            return pts
        lanes = {v: self._lanes(rows, v) for v in VERSIONS}
        per_group = {v: columns(lanes[v]) for v in VERSIONS}
        aggregates = {v: columns(self._aggregate(lanes[v]).values()) for v in VERSIONS}
        for i, name in enumerate(names):
            for g, bc in enumerate(self.groups):
                for v in VERSIONS:
                    s, w, e, ok = per_group[v][g]
                    pts.append(
                        DesignPoint(name, bc.name, bc.precision, v, s[i], w[i], e[i], ok[i])
                    )
            for p, precision in enumerate(self._group_precisions):
                for v in VERSIONS:
                    s, w, e, ok = aggregates[v][p]
                    pts.append(
                        DesignPoint(name, AGGREGATE, precision, v, s[i], w[i], e[i], ok[i])
                    )
        return pts

    # ------------------------------------------------------------------
    def evaluate(self, configs) -> tuple[DesignPoint, ...]:
        """Points of many configs, in config order (single process)."""
        configs = tuple(configs)
        out: list[DesignPoint] = []
        for start in range(0, len(configs), _EVAL_BLOCK):
            block = configs[start : start + _EVAL_BLOCK]
            out.extend(self.points(block, self.rows(block)))
        return tuple(out)

    # ------------------------------------------------------------------
    def _bound_tables(self):
        """Lazy per-group tables behind :meth:`opt_bounds`."""
        import numpy as np

        tables = self._bounds
        if tables is None:
            starts = np.asarray([bc.gpu_start for bc in self.groups], dtype=np.intp)
            empty = np.asarray(
                [bc.gpu_stop == bc.gpu_start for bc in self.groups], dtype=bool
            )
            by_prec: dict[str, list[int]] = {}
            for g, bc in enumerate(self.groups):
                by_prec.setdefault(bc.precision, []).append(g)
            tables = self._bounds = (starts, empty, by_prec, {})
        return tables

    def _group_infeasible(self, register_file_scale: float):
        """Per-group flag: no candidate fits this register-file scale.

        Exact, not a bound — :meth:`points` marks a group's Opt
        infeasible iff no cell of its span is feasible, and feasibility
        depends on the config only through ``register_file_scale``
        (the same :meth:`~repro.mali.timing.GpuConfigStack._tpc_for`
        predicate the pricing path evaluates).
        """
        import numpy as np

        starts, empty, _, infeas_cache = self._bound_tables()
        found = infeas_cache.get(register_file_scale)
        if found is None:
            feas_g, _ = self._gpu_stack._tpc_for(register_file_scale)
            feas = feas_g[self._gpu_stack._gidx]
            any_feas = np.logical_or.reduceat(feas, starts)
            found = infeas_cache[register_file_scale] = ~any_feas | empty
        return found

    def opt_bounds(self, configs, benchmark: str = AGGREGATE):
        """Vectorized per-config lower bounds on the Opt design points.

        Returns ``{precision: (seconds_lb, energy_lb)}`` — float64
        arrays aligned with ``configs`` — such that for every config
        the ``(benchmark, precision, "Opt")`` point satisfies
        ``seconds_lb <= point.seconds`` and ``energy_lb <=
        point.energy_j`` rigorously in IEEE-754 (infeasible points are
        ``inf``, trivially above any bound).  This is the pruning
        oracle: if a bound is strictly dominated by a real evaluated
        point, the config's actual Opt point is strictly dominated too
        (strict inequalities carry through ``bound <= actual``), so
        skipping it can never change the frontier.

        Construction per config: the group minimum over the stack's
        roofline floor (:meth:`~repro.mali.timing.GpuConfigStack.floor_seconds`
        times launches) bounds the group's Opt seconds — the minimum
        over *all* candidates under-estimates the minimum over the
        feasible subset; the rail floor
        (:func:`~repro.power.rails.gpu_floor_watts` of the rail-scaled
        config) bounds its watts; per-precision aggregates accumulate
        in the exact group order :meth:`points` uses, so the same-order
        float sums stay monotone term for term.  Every lane depends only
        on its own config (elementwise passes, an exact group minimum),
        so one call over a shard equals per-chunk calls on its slices
        bit for bit.
        """
        import numpy as np

        configs = tuple(configs)
        starts, empty, by_prec, _ = self._bound_tables()
        n = len(configs)
        if self._gpu_stack is None or not n:
            inf = np.full(n, np.inf)
            return {prec: (inf, inf.copy()) for prec in by_prec}

        rails = self.base.rails
        rail_scale = np.asarray([c.rail_scale for c in configs])
        # gpu_floor_watts over the rail-scaled configs, vectorized in
        # the same operation order socspace's replace() + the scalar
        # helper produce (board_idle stays unscaled)
        wfloor = (
            rails.board_idle_w + rails.host_polling_w * rail_scale
        ) + rails.gpu_base_w * rail_scale

        # the group minima depend on a config only through its GPU
        # knobs and DRAM: bound each distinct combination once (lanes
        # are per-config elementwise, so sharing a row is exact)
        slots: dict[tuple, int] = {}
        index = [
            slots.setdefault(
                (c.dram_gbps, c.register_file_scale, c.gpu_cores, c.gpu_clock_hz),
                len(slots),
            )
            for c in configs
        ]
        gmin = np.empty((len(slots), len(self.groups)))
        by_dram: dict[tuple, list[int]] = {}
        for u, key in enumerate(slots):
            by_dram.setdefault(key[:2], []).append(u)
        keys = list(slots)
        for (gbps, rf_scale), members in by_dram.items():
            floor = self._gpu_stack.floor_seconds(
                self._dram_for(gbps),
                shader_cores=[float(keys[u][2]) for u in members],
                clock_hz=[keys[u][3] for u in members],
                register_file_scale=rf_scale,
            )
            iter_floor = floor * self._launches_f[None, :]
            # groups tile the gpu-cell axis contiguously in order, so a
            # reduceat over the starts is the per-group min; empty
            # groups (reduceat would alias the next span) are masked
            gmin[members, :] = np.minimum.reduceat(iter_floor, starts, axis=1)
            # provable register-file infeasibility: the group's Opt
            # point is exactly infeasible (inf seconds), not merely
            # bounded
            infeasible = self._group_infeasible(rf_scale)
            if infeasible.any():
                gmin[np.ix_(members, np.flatnonzero(infeasible))] = np.inf
        if empty.any():
            gmin[:, empty] = np.inf
        gmin = gmin[index]

        out: dict[str, tuple] = {}
        for prec, gids in by_prec.items():
            if benchmark != AGGREGATE:
                gids = [g for g in gids if self.groups[g].name == benchmark]
            t = np.zeros(n)
            e = np.zeros(n)
            for g in gids:
                t = t + gmin[:, g]
                e = e + gmin[:, g] * wfloor
            out[prec] = (t, e)
        return out


# ---------------------------------------------------------------------------
# multi-process driver
# ---------------------------------------------------------------------------


def _eval_worker(payload) -> tuple[DesignPoint, ...]:
    """Worker: rebuild the space locally, evaluate a config chunk."""
    benchmarks, precision_values, scale, seed, configs = payload
    space = DesignSpace(
        benchmarks=benchmarks,
        precisions=tuple(Precision(v) for v in precision_values),
        scale=scale,
        seed=seed,
    )
    return space.evaluate(configs)


# ---------------------------------------------------------------------------
# streaming driver (chunked evaluation + pruning + online reduction)
# ---------------------------------------------------------------------------


def _resolve_trace(trace):
    """Normalize ``trace`` (sink, path or None) like the campaign engine."""
    if trace is None:
        return TraceSink(), False
    if isinstance(trace, (str, Path)):
        return JsonlTraceSink(trace), True
    return trace, False


def _stream_shard(
    space: DesignSpace,
    configs,
    *,
    chunk_size: int,
    prune: bool,
    target_benchmark: str,
    target_version: str,
    keep_names: frozenset,
    frontiers: dict | None = None,
    tracer: Tracer | None = None,
):
    """Stream one config shard through chunked pricing + online reduction.

    Returns ``(kept_points, frontiers, evaluated, pruned, peak)``:
    full point lists of the ``keep_names`` configs (shard order), one
    :class:`~repro.pareto.OnlineFrontier` per precision over the
    ``(target_benchmark, precision, target_version)`` slice,
    evaluated/pruned config counts and the peak number of
    simultaneously priced design points (chunk survivors × points per
    config + kept + frontier) — the O(chunk + frontier) memory-model
    witness.  Each chunk's survivors are priced in one
    :meth:`DesignSpace.rows` call; only the target slice (and the keep
    configs' full lists) become :class:`DesignPoint` objects.
    """
    import numpy as np

    if frontiers is None:
        frontiers = {p.value: OnlineFrontier(key=_sort_key) for p in space.precisions}
    evaluated = 0
    pruned = 0
    peak = 0
    kept_by_name: dict[str, list[DesignPoint]] = {}
    can_prune = prune and target_version == "Opt"
    n_kept = 0
    per_config = space.points_per_config
    target = (target_benchmark, target_version)

    def _evaluate(batch) -> None:
        nonlocal evaluated, n_kept
        if not batch:
            return
        rows = space.rows(batch)
        evaluated += len(batch)
        for p in space.points(batch, rows, target=target):
            frontiers[p.precision].add(p)
        for i, config in enumerate(batch):
            if config.name in keep_names:
                pts = space.points([config], rows.take([i]))
                kept_by_name[config.name] = pts
                n_kept += len(pts)

    # bound-only first pass: one opt_bounds call over the shard (sliced
    # per chunk below), seeding the frontier with the most promising
    # configs (per precision, the first bound-time and bound-energy
    # argmins), so the main sweep prunes against a near-final frontier
    # from its very first chunk.  Probe choice only affects *which*
    # dominated configs get skipped — the frontier itself is
    # order-independent and pruning is sound — so any probe set yields
    # the same result points.
    chunk_starts = range(0, len(configs), chunk_size)
    n = len(configs)
    probe = np.zeros(n, dtype=bool)
    keep = np.asarray([c.name in keep_names for c in configs], dtype=bool)
    if can_prune:
        bounds = space.opt_bounds(configs, benchmark=target_benchmark)
        for t, e in bounds.values():
            for arr in (t, e):
                i = int(arr.argmin())
                if arr[i] < np.inf:
                    probe[i] = True
        probe_idx = np.flatnonzero(probe).tolist()
        _evaluate([configs[i] for i in probe_idx])
        peak = len(probe_idx) * per_config + sum(len(f) for f in frontiers.values())

    for start in chunk_starts:
        stop = min(start + chunk_size, n)
        if can_prune:
            # skippable iff, for every precision, the config's target
            # point provably cannot join the frontier: either its bound
            # is exactly infeasible, or a real frontier member strictly
            # dominates the bound (and by transitivity the actual point,
            # bound <= actual)
            skip = ~(keep[start:stop] | probe[start:stop])
            for prec, (t, e) in bounds.items():
                t, e = t[start:stop], e[start:stop]
                skip &= (t == np.inf) | frontiers[prec].strictly_dominates(t, e)
            chunk_pruned = int(skip.sum())
            pruned += chunk_pruned
            live = np.flatnonzero(~(skip | probe[start:stop])).tolist()
        else:
            chunk_pruned = 0
            live = range(stop - start)
        survivors = [configs[start + i] for i in live]
        _evaluate(survivors)
        resident = (
            len(survivors) * per_config
            + n_kept
            + sum(len(f) for f in frontiers.values())
        )
        peak = max(peak, resident)
        if tracer is not None:
            tracer.emit(
                "space_chunk_finished",
                detail={
                    "configs": stop - start,
                    "evaluated": len(survivors),
                    "pruned": chunk_pruned,
                    "frontier": {p: len(f) for p, f in frontiers.items()},
                    "resident_points": resident,
                },
            )
    # kept points come back in input-config order regardless of the
    # evaluation order above
    kept = [p for c in configs if c.name in kept_by_name for p in kept_by_name[c.name]]
    return kept, frontiers, evaluated, pruned, peak


def _stream_worker(payload):
    """Worker: rebuild the space, stream a shard, ship candidates only.

    The shipped payload is the worker's local frontier (the only points
    that can still reach the global frontier: local pruning and local
    eviction both discard only globally-dominated points) plus the full
    point lists of the keep configs — O(chunk + frontier) data instead
    of the shard's whole hypercube.
    """
    (
        benchmarks,
        precision_values,
        scale,
        seed,
        configs,
        chunk_size,
        prune,
        target_benchmark,
        target_version,
        keep_names,
    ) = payload
    space = DesignSpace(
        benchmarks=benchmarks,
        precisions=tuple(Precision(v) for v in precision_values),
        scale=scale,
        seed=seed,
    )
    kept, frontiers, evaluated, pruned, peak = _stream_shard(
        space,
        configs,
        chunk_size=chunk_size,
        prune=prune,
        target_benchmark=target_benchmark,
        target_version=target_version,
        keep_names=frozenset(keep_names),
    )
    candidates = {prec: f.points() for prec, f in frontiers.items()}
    return tuple(kept), candidates, evaluated, pruned, peak


def _stream_result(
    configs,
    benchmarks,
    precisions,
    frontiers,
    kept,
    keep_names,
    *,
    scale,
    seed,
    evaluated,
    pruned,
    peak,
    chunk_size,
    target_benchmark,
    target_version,
) -> DesignSpaceResult:
    """Assemble the streamed result (shared by jobs=1 and jobs=N).

    Retained points are the keep configs' full lists (input config
    order) followed by each precision's frontier (``precisions``
    order, keep configs' entries deduplicated); retained configs are
    the input-order subset that still owns at least one point.
    """
    points: list[DesignPoint] = list(kept)
    front_names: set[str] = set()
    for precision in precisions:
        for p in frontiers[precision.value].points():
            front_names.add(p.config_name)
            if p.config_name not in keep_names:
                points.append(p)
    retained = tuple(
        c for c in configs if c.name in keep_names or c.name in front_names
    )
    return DesignSpaceResult(
        configs=retained,
        digests=tuple(c.digest() for c in retained),
        points=tuple(points),
        benchmarks=tuple(benchmarks),
        precisions=tuple(p.value for p in precisions),
        scale=scale,
        seed=seed,
        mode="stream",
        evaluated=evaluated,
        pruned=pruned,
        peak_resident=peak,
        chunk_size=chunk_size,
        target_benchmark=target_benchmark,
        target_version=target_version,
    )


@dataclass(frozen=True)
class DesignSpaceResult:
    """The evaluated hypercube: configs, digests and every design point.

    ``mode`` is ``"materialize"`` (every point of every config) or
    ``"stream"`` (only the kept configs' full point lists plus the
    per-precision target-slice frontiers survive; everything else was
    discarded while streaming).  In stream mode ``configs`` /
    ``digests`` cover only the retained configs, ``evaluated`` +
    ``pruned`` equals the size of the swept space, and
    ``peak_resident`` is the memory-model witness: the most design
    points priced at once (a chunk's survivors × points per config,
    plus kept points, plus frontier points) — priced points, most of
    which stay array lanes, not objects held in memory.
    """

    configs: tuple[SoCConfig, ...]
    digests: tuple[str, ...]
    points: tuple[DesignPoint, ...]
    benchmarks: tuple[str, ...]
    precisions: tuple[str, ...]
    scale: float
    seed: int
    mode: str = "materialize"
    evaluated: int = 0
    pruned: int = 0
    peak_resident: int = 0
    chunk_size: int | None = None
    target_benchmark: str | None = None
    target_version: str | None = None

    def frontier_points(
        self, precision: str = "single", benchmark: str | None = None,
        version: str | None = None,
    ) -> tuple[DesignPoint, ...]:
        """Frontier of one slice (defaults to the streamed target slice)."""
        return frontier(
            self.select(
                benchmark=benchmark or self.target_benchmark or AGGREGATE,
                precision=precision,
                version=version or self.target_version or "Opt",
            )
        )

    def describe(self) -> str:
        """Human summary: space shape, prune counts, frontier sizes."""
        total = self.evaluated + self.pruned
        lines = [
            f"design space: {total} configs x {len(self.benchmarks)} benchmarks"
            f" x {len(self.precisions)} precisions, mode={self.mode}"
        ]
        if self.mode == "stream":
            lines.append(
                f"  streamed {self.target_benchmark}/{self.target_version}"
                f" in chunks of {self.chunk_size}: {self.evaluated} evaluated,"
                f" {self.pruned} pruned"
                f" ({100.0 * self.pruned / total if total else 0.0:.1f}%),"
                f" peak resident points {self.peak_resident}"
            )
        else:
            lines.append(
                f"  materialized {len(self.points)} points"
                f" ({sum(p.feasible for p in self.points)} feasible)"
            )
        for precision in self.precisions:
            front = self.frontier_points(precision=precision)
            lines.append(f"  frontier[{precision}]: {len(front)} points")
        return "\n".join(lines)

    def select(
        self,
        benchmark: str = AGGREGATE,
        precision: str = "single",
        version: str | None = "Opt",
        feasible_only: bool = False,
    ) -> tuple[DesignPoint, ...]:
        """Points of one hypercube slice, in evaluation order."""
        return tuple(
            p
            for p in self.points
            if p.benchmark == benchmark
            and p.precision == precision
            and (version is None or p.version == version)
            and (not feasible_only or p.feasible)
        )

    def point(self, config_name, benchmark, precision, version) -> DesignPoint:
        for p in self.points:
            if (
                p.config_name == config_name
                and p.benchmark == benchmark
                and p.precision == precision
                and p.version == version
            ):
                return p
        raise KeyError(
            f"no point ({config_name!r}, {benchmark!r}, {precision!r}, {version!r})"
        )

    def to_dict(self) -> dict:
        """JSON-ready form (CLI output; ``inf`` encoded as null)."""

        def num(x):
            return x if x == x and x not in (float("inf"), float("-inf")) else None

        return {
            "benchmarks": list(self.benchmarks),
            "precisions": list(self.precisions),
            "scale": self.scale,
            "seed": self.seed,
            "mode": self.mode,
            "evaluated": self.evaluated,
            "pruned": self.pruned,
            "peak_resident": self.peak_resident,
            "chunk_size": self.chunk_size,
            "target_benchmark": self.target_benchmark,
            "target_version": self.target_version,
            "configs": [
                {
                    "name": c.name,
                    "digest": d,
                    "gpu_cores": c.gpu_cores,
                    "gpu_clock_hz": c.gpu_clock_hz,
                    "cpu_cores": c.cpu_cores,
                    "cpu_clock_hz": c.cpu_clock_hz,
                    "dram_gbps": c.dram_gbps,
                    "register_file_scale": c.register_file_scale,
                    "rail_scale": c.rail_scale,
                }
                for c, d in zip(self.configs, self.digests)
            ],
            "points": [
                {
                    "config": p.config_name,
                    "benchmark": p.benchmark,
                    "precision": p.precision,
                    "version": p.version,
                    "seconds": num(p.seconds),
                    "watts": num(p.watts),
                    "energy_j": num(p.energy_j),
                    "feasible": p.feasible,
                }
                for p in self.points
            ],
        }


def evaluate_space(
    configs=None,
    benchmarks=PAPER_ORDER,
    precisions=_PRECISIONS_DEFAULT,
    scale: float = 0.5,
    seed: int = 1234,
    jobs: int = 1,
    stream: bool = False,
    chunk_size: int = 256,
    prune: bool = True,
    target_benchmark: str = AGGREGATE,
    target_version: str = "Opt",
    keep_configs=(EXYNOS_5250.name,),
    trace=None,
    space: DesignSpace | None = None,
) -> DesignSpaceResult:
    """Evaluate the full hypercube over a config family.

    ``configs`` defaults to :func:`~repro.calibration.socspace.default_space`
    (64 SoCs around the Exynos 5250).  ``jobs > 1`` shards configs over
    a process pool; each worker rebuilds the cell grid locally, and the
    output is byte-identical to ``jobs=1`` (configs are independent and
    reassembled in input order).

    ``stream=True`` switches to the chunked large-space driver: configs
    are priced ``chunk_size`` at a time, only the
    ``(target_benchmark, precision, target_version)`` slice feeds
    per-precision :class:`~repro.pareto.OnlineFrontier` reducers, and
    non-frontier points are discarded immediately — peak memory is
    O(chunk + frontier), not O(space).  ``prune=True`` additionally
    skips pricing configs whose :meth:`DesignSpace.opt_bounds` lower
    bound is already strictly dominated on *every* precision (sound
    only for the Opt version; other targets evaluate everything).  The
    result retains the full point lists of ``keep_configs`` (reference
    points for the equal-energy/equal-time queries; never pruned) plus
    the frontier points; the streamed frontier is identical to
    ``frontier()`` over a materialized run — pruned and discarded
    points are all strictly dominated.  ``trace`` (a
    :class:`~repro.experiments.trace.TraceSink` or a JSONL path) gets
    ``space_started`` / ``space_chunk_finished`` / ``space_finished``
    progress events.

    ``space`` optionally reuses a prebuilt :class:`DesignSpace` (same
    benchmarks/precisions/scale/seed) so repeated sweeps over one grid
    pay the compile-and-hoist build once; workers of ``jobs > 1`` runs
    still rebuild locally.
    """
    configs = tuple(configs) if configs is not None else default_space()
    if not configs:
        raise ValueError("need at least one SoCConfig")
    names = [c.name for c in configs]
    if len(set(names)) != len(names):
        raise ValueError("SoCConfig names must be unique")
    precisions = tuple(precisions)
    benchmarks = tuple(benchmarks)
    if space is not None and (
        space.benchmarks != benchmarks
        or space.precisions != precisions
        or space.scale != scale
        or space.seed != seed
    ):
        raise ValueError(
            "prebuilt space does not match the requested grid "
            "(benchmarks/precisions/scale/seed)"
        )
    if not stream:
        if jobs > 1 and len(configs) > 1:
            shards = min(jobs, len(configs))
            size = -(-len(configs) // shards)
            chunks = [configs[i : i + size] for i in range(0, len(configs), size)]
            payloads = [
                (
                    benchmarks,
                    tuple(p.value for p in precisions),
                    scale,
                    seed,
                    chunk,
                )
                for chunk in chunks
            ]
            points: list[DesignPoint] = []
            with ProcessPoolExecutor(max_workers=shards) as pool:
                for chunk_points in pool.map(_eval_worker, payloads):
                    points.extend(chunk_points)
            points = tuple(points)
        else:
            if space is None:
                space = DesignSpace(
                    benchmarks=benchmarks, precisions=precisions, scale=scale,
                    seed=seed,
                )
            points = space.evaluate(configs)
        digests = tuple(c.digest() for c in configs)
        return DesignSpaceResult(
            configs=configs,
            digests=digests,
            points=tuple(points),
            benchmarks=benchmarks,
            precisions=tuple(p.value for p in precisions),
            scale=scale,
            seed=seed,
            evaluated=len(configs),
            peak_resident=len(points),
        )

    # ---- streaming mode ---------------------------------------------
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    if target_version not in VERSIONS:
        raise ValueError(f"target_version must be one of {VERSIONS}")
    if target_benchmark != AGGREGATE and target_benchmark not in benchmarks:
        raise ValueError(
            f"target_benchmark {target_benchmark!r} not in the evaluated "
            f"benchmarks (or {AGGREGATE!r})"
        )
    keep_names = frozenset(keep_configs or ())
    sink, owns_sink = _resolve_trace(trace)
    tracer = Tracer(sink)
    try:
        tracer.emit(
            "space_started",
            detail={
                "configs": len(configs),
                "chunk_size": chunk_size,
                "prune": bool(prune),
                "jobs": jobs,
                "target": f"{target_benchmark}/{target_version}",
            },
        )
        if jobs > 1 and len(configs) > 1:
            shards = min(jobs, len(configs))
            size = -(-len(configs) // shards)
            shard_configs = [
                configs[i : i + size] for i in range(0, len(configs), size)
            ]
            payloads = [
                (
                    benchmarks,
                    tuple(p.value for p in precisions),
                    scale,
                    seed,
                    shard,
                    chunk_size,
                    prune,
                    target_benchmark,
                    target_version,
                    tuple(keep_names),
                )
                for shard in shard_configs
            ]
            # merge order cannot matter: an OnlineFrontier's final set
            # is order-independent, and each worker ships every point
            # that can still reach the global frontier (local pruning
            # and eviction only discard globally-dominated points) —
            # so the merged frontier is byte-identical to jobs=1
            frontiers = {
                p.value: OnlineFrontier(key=_sort_key) for p in precisions
            }
            kept: list[DesignPoint] = []
            evaluated = pruned = peak = 0
            candidates = 0
            with ProcessPoolExecutor(max_workers=shards) as pool:
                for shard_no, (w_kept, w_cands, w_eval, w_pruned, w_peak) in enumerate(
                    pool.map(_stream_worker, payloads)
                ):
                    kept.extend(w_kept)
                    for prec, pts in w_cands.items():
                        frontiers[prec].update(pts)
                    evaluated += w_eval
                    pruned += w_pruned
                    peak = max(peak, w_peak)
                    candidates += sum(len(pts) for pts in w_cands.values())
                    tracer.emit(
                        "space_chunk_finished",
                        detail={
                            "shard": shard_no,
                            "configs": len(shard_configs[shard_no]),
                            "evaluated": w_eval,
                            "pruned": w_pruned,
                            "frontier": {
                                p: len(f) for p, f in frontiers.items()
                            },
                            "resident_points": w_peak,
                        },
                    )
            # the merge itself holds every shipped candidate at once
            peak = max(peak, candidates + len(kept))
        else:
            if space is None:
                space = DesignSpace(
                    benchmarks=benchmarks, precisions=precisions, scale=scale,
                    seed=seed,
                )
            kept, frontiers, evaluated, pruned, peak = _stream_shard(
                space,
                configs,
                chunk_size=chunk_size,
                prune=prune,
                target_benchmark=target_benchmark,
                target_version=target_version,
                keep_names=keep_names,
                tracer=tracer,
            )
        result = _stream_result(
            configs,
            benchmarks,
            precisions,
            frontiers,
            kept,
            keep_names,
            scale=scale,
            seed=seed,
            evaluated=evaluated,
            pruned=pruned,
            peak=peak,
            chunk_size=chunk_size,
            target_benchmark=target_benchmark,
            target_version=target_version,
        )
        tracer.emit(
            "space_finished",
            detail={
                "evaluated": result.evaluated,
                "pruned": result.pruned,
                "peak_resident": result.peak_resident,
                "frontier": {
                    p: len(f.points()) for p, f in frontiers.items()
                },
            },
        )
        return result
    finally:
        if owns_sink:
            sink.close()


# ---------------------------------------------------------------------------
# Pareto helpers (minimize seconds and energy)
# ---------------------------------------------------------------------------


def dominates(a: DesignPoint, b: DesignPoint) -> bool:
    """Pareto domination on (seconds, energy_j), both minimized."""
    return (
        a.seconds <= b.seconds
        and a.energy_j <= b.energy_j
        and (a.seconds < b.seconds or a.energy_j < b.energy_j)
    )


#: the deterministic point ordering shared by every Pareto helper
_sort_key = point_key


def frontier(points) -> tuple[DesignPoint, ...]:
    """The non-dominated feasible points, deterministically ordered.

    Sorted by (seconds, energy, config name, version); duplicate
    (seconds, energy) pairs all survive (none strictly dominates the
    other), so equal designs stay visible.  O(n log n) sort-based
    skyline.
    """
    return skyline(points, key=_sort_key)


def dominated(points) -> tuple[DesignPoint, ...]:
    """The feasible points *not* on the frontier, same ordering.

    Membership is by sort key (value), not object identity: an
    equal-valued copy of a frontier point is itself a frontier tie and
    never lands in both sets.
    """
    points = tuple(points)
    front = set(map(_sort_key, frontier(points)))
    return tuple(
        sorted(
            (p for p in points if p.feasible and _sort_key(p) not in front),
            key=_sort_key,
        )
    )


def equal_energy_speedup(points, ref: DesignPoint):
    """Best speedup over ``ref`` among points spending no more energy.

    Returns ``(speedup, point)`` for the fastest feasible point with
    ``energy_j <= ref.energy_j`` (ties broken by the deterministic sort
    key), or ``None`` when nothing qualifies.
    """
    viable = sorted(
        (p for p in points if p.feasible and p.energy_j <= ref.energy_j),
        key=_sort_key,
    )
    if not viable:
        return None
    best = viable[0]
    return ref.seconds / best.seconds, best


def equal_time_energy(points, ref: DesignPoint):
    """Least energy among points at least as fast as ``ref``.

    Returns ``(energy_j, point)`` for the most frugal feasible point
    with ``seconds <= ref.seconds`` (deterministic tie-break), or
    ``None`` when nothing qualifies.
    """
    viable = sorted(
        (p for p in points if p.feasible and p.seconds <= ref.seconds),
        key=lambda p: (p.energy_j, p.seconds, p.config_name, p.version),
    )
    if not viable:
        return None
    best = viable[0]
    return best.energy_j, best


# ---------------------------------------------------------------------------
# frontier export (plotting interchange)
# ---------------------------------------------------------------------------


def export_frontier(
    result: DesignSpaceResult,
    path,
    *,
    benchmark: str | None = None,
    version: str | None = None,
    include_dominated: bool = False,
) -> int:
    """Write one slice's Pareto data for external plotting tools.

    One row per point and precision: config name, its content digest,
    the objective values and an ``on_frontier`` flag.  Format follows
    the extension — ``.csv`` writes CSV, anything else a JSON document
    ``{"benchmark", "version", "points": [...]}``.  ``benchmark`` /
    ``version`` default to the result's streamed target slice (or
    aggregate/Opt).  ``include_dominated`` adds the dominated feasible
    points the result still holds — the full story in materialize
    mode; in stream mode only the kept configs' dominated points
    remain (the rest were discarded while streaming).  Returns the row
    count.
    """
    import csv
    import json

    benchmark = benchmark or result.target_benchmark or AGGREGATE
    version = version or result.target_version or "Opt"
    digest_by_name = {c.name: d for c, d in zip(result.configs, result.digests)}
    rows = []
    for precision in result.precisions:
        pool = result.select(benchmark=benchmark, precision=precision, version=version)
        entries = [(p, True) for p in frontier(pool)]
        if include_dominated:
            entries.extend((p, False) for p in dominated(pool))
        for p, on_front in entries:
            rows.append(
                {
                    "config": p.config_name,
                    "digest": digest_by_name.get(p.config_name, ""),
                    "benchmark": p.benchmark,
                    "precision": p.precision,
                    "version": p.version,
                    "seconds": p.seconds,
                    "watts": p.watts,
                    "energy_j": p.energy_j,
                    "on_frontier": on_front,
                }
            )
    path = Path(path)
    if path.suffix.lower() == ".csv":
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(
                fh,
                fieldnames=[
                    "config",
                    "digest",
                    "benchmark",
                    "precision",
                    "version",
                    "seconds",
                    "watts",
                    "energy_j",
                    "on_frontier",
                ],
            )
            writer.writeheader()
            writer.writerows(rows)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"benchmark": benchmark, "version": version, "points": rows},
                fh,
                indent=2,
            )
            fh.write("\n")
    return len(rows)


# ---------------------------------------------------------------------------
# DVFS governor axis over the design space
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DvfsDesignPoint:
    """One (config, governor, precision) point of the DVFS-extended space.

    The target slice (a benchmark's — or the aggregate's — Opt version)
    is re-priced at the GPU operating point the governor settles on:
    ``seconds`` is the work time at that clock, ``watts`` the mean work
    power, ``energy_j`` the work energy — except for the deadline
    policies (``race_to_idle`` / ``pace_to_deadline``), whose energy is
    the full deadline-window figure: work at the chosen OPP plus the
    remaining slack at the board idle floor.  A point is infeasible when
    the slice has no feasible Opt candidate on the config, or when no
    OPP meets the deadline.
    """

    config_name: str
    governor: str
    precision: str
    opp_hz: float
    seconds: float
    watts: float
    energy_j: float
    feasible: bool = True


def _dvfs_key(p: DvfsDesignPoint):
    """Deterministic order for DVFS points (governor replaces version)."""
    return (p.seconds, p.energy_j, p.config_name, p.governor)


def _dvfs_opp_slices(space: DesignSpace, platform, dram, table, benchmark):
    """Per-OPP ``{precision: (seconds, watts, energy, feasible)}`` of the
    target slice, keyed by operating point.

    One batched stack call prices the config at every GPU operating
    point of ``table`` (one row per OPP: the Mali clock moved to the
    OPP's frequency), each row's watts come from rails scaled by that
    OPP's ``f · V²`` factor, and the slice is exactly the
    Opt selection (:meth:`DesignSpace.slice_lanes`: same argmin
    over ``seconds × launches``, same accumulation order for the
    aggregate).  At the table's nominal OPP both are the base values,
    so the slice is bitwise the fixed-frequency Opt point of
    :meth:`DesignSpace.points`.
    """
    import numpy as np

    from .power import dvfs

    mali = platform.mali
    opps = table.points
    g = space._gpu_stack.rows(
        shader_cores=[mali.shader_cores] * len(opps),
        clock_hz=[opp.frequency_hz for opp in opps],
        register_file_scale=[mali.register_file_scale] * len(opps),
        drams=[dram] * len(opps),
    )
    watts = np.stack(
        [
            stack_watts(
                dvfs.rails_at(platform.rails, gpu_table=table, gpu_opp=opp),
                ActivityKind.GPU_KERNEL,
                dram_bandwidth=g.dram_bandwidth[r],
                gpu_alu_utilization=g.alu_utilization[r],
                gpu_ls_utilization=g.ls_utilization[r],
            )
            for r, opp in enumerate(opps)
        ]
    )
    rows = SpaceRows(
        **space._gpu_lanes(g, watts), cpu_seconds=None, cpu_watts=None, cpu_energy=None
    )
    columns = {
        precision: [col.tolist() for col in lane]
        for precision, lane in space.slice_lanes(rows, benchmark, "Opt").items()
    }
    return {
        opp: {
            precision: tuple(col[r] for col in cols)
            for precision, cols in columns.items()
        }
        for r, opp in enumerate(opps)
    }


@dataclass(frozen=True)
class DvfsSpaceResult:
    """The governor-extended design space: one point per (config,
    governor, precision) over the target slice."""

    points: tuple[DvfsDesignPoint, ...]
    governors: tuple[str, ...]
    precisions: tuple[str, ...]
    benchmark: str
    deadline_s: float | None
    scale: float
    seed: int

    def select(
        self, governor: str | None = None, precision: str = "single"
    ) -> tuple[DvfsDesignPoint, ...]:
        """Points of one slice, in evaluation order."""
        return tuple(
            p
            for p in self.points
            if p.precision == precision
            and (governor is None or p.governor == governor)
        )

    def frontier_points(self, precision: str = "single") -> tuple[DvfsDesignPoint, ...]:
        """(seconds, energy) frontier over every (config, governor)."""
        return skyline(self.select(precision=precision), key=_dvfs_key)

    def deadline_pick(
        self, deadline_s: float | None = None, precision: str = "single"
    ) -> DvfsDesignPoint | None:
        """Least-energy (config, governor) meeting a time budget.

        The deadline-constrained Pareto query: among feasible points
        with ``seconds <= deadline_s`` (default: the sweep's own
        deadline), the minimum ``energy_j`` with the deterministic
        tie-break.  When the sweep includes deadline policies the pick
        is taken among those — their energies account for the whole
        deadline window, so they compare like for like — otherwise the
        frequency governors' work energies compete directly.  ``None``
        when nothing qualifies.
        """
        from .power import dvfs

        budget = deadline_s if deadline_s is not None else self.deadline_s
        if budget is None:
            raise ValueError("deadline_pick needs a deadline_s")
        pool = [
            p
            for p in self.select(precision=precision)
            if p.feasible and p.seconds <= budget
        ]
        windowed = [p for p in pool if p.governor in dvfs.DEADLINE_POLICIES]
        if windowed:
            pool = windowed
        viable = sorted(
            pool,
            key=lambda p: (p.energy_j, p.seconds, p.config_name, p.governor),
        )
        return viable[0] if viable else None

    def to_dict(self) -> dict:
        """JSON-ready form (``inf`` encoded as null)."""

        def num(x):
            return x if x == x and x not in (float("inf"), float("-inf")) else None

        return {
            "benchmark": self.benchmark,
            "governors": list(self.governors),
            "precisions": list(self.precisions),
            "deadline_s": self.deadline_s,
            "scale": self.scale,
            "seed": self.seed,
            "points": [
                {
                    "config": p.config_name,
                    "governor": p.governor,
                    "precision": p.precision,
                    "opp_hz": p.opp_hz,
                    "seconds": num(p.seconds),
                    "watts": num(p.watts),
                    "energy_j": num(p.energy_j),
                    "feasible": p.feasible,
                }
                for p in self.points
            ],
        }


def evaluate_dvfs(
    configs=None,
    benchmarks=PAPER_ORDER,
    precisions=(Precision.SINGLE,),
    scale: float = 0.5,
    seed: int = 1234,
    governors=None,
    benchmark: str = AGGREGATE,
    deadline_s: float | None = None,
    space: DesignSpace | None = None,
) -> DvfsSpaceResult:
    """Sweep the governor axis across a SoC config family.

    For every config the Mali OPP table is rescaled so its top point is
    the config's shader clock (the fixed-frequency design point is the
    degenerate nominal OPP), the target slice is priced at each OPP
    through the config stack, and each governor settles per its own
    rule: ``fixed``/``performance`` at the nominal OPP, ``powersave`` at
    the bottom, ``ondemand`` at the lowest OPP keeping its two-point
    frequency-response utilization under the up-threshold, and the
    deadline policies race (top OPP, idle out the slack) or pace (the
    slowest OPP that still meets ``deadline_s``).  ``fixed`` points are
    bitwise the Opt points of :func:`evaluate_space` on the same
    configs — the governor axis never perturbs the fixed plane.
    """
    from .power import dvfs

    configs = tuple(configs) if configs is not None else default_space()
    if not configs:
        raise ValueError("need at least one SoCConfig")
    if governors is None:
        governors = (dvfs.GOVERNOR_DEFAULT,) + dvfs.FREQUENCY_GOVERNORS
        if deadline_s is not None:
            governors = governors + dvfs.DEADLINE_POLICIES
    governors = tuple(governors)
    for governor in governors:
        if governor not in dvfs.GOVERNORS:
            raise ValueError(
                f"unknown governor {governor!r}; choose from {dvfs.GOVERNORS}"
            )
        if governor in dvfs.DEADLINE_POLICIES and deadline_s is None:
            raise ValueError(f"governor {governor!r} needs deadline_s")
    if deadline_s is not None and deadline_s <= 0:
        raise ValueError("deadline_s must be positive")
    precisions = tuple(precisions)
    benchmarks = tuple(benchmarks)
    if benchmark != AGGREGATE and benchmark not in benchmarks:
        raise ValueError(
            f"benchmark {benchmark!r} not in the evaluated benchmarks"
            f" (or {AGGREGATE!r})"
        )
    if space is None:
        space = DesignSpace(
            benchmarks=benchmarks, precisions=precisions, scale=scale, seed=seed
        )
    elif (
        space.benchmarks != benchmarks
        or space.precisions != precisions
        or space.scale != scale
        or space.seed != seed
    ):
        raise ValueError(
            "prebuilt space does not match the requested grid "
            "(benchmarks/precisions/scale/seed)"
        )
    if space._gpu_stack is None:
        raise ValueError("the DVFS sweep needs at least one GPU cell")

    points: list[DvfsDesignPoint] = []
    for config in configs:
        platform = config.platform(space.base)
        dram = platform.dram_model()
        table = dvfs.MALI_T604_OPPS.rescaled(platform.mali.clock_hz)
        slices = _dvfs_opp_slices(space, platform, dram, table, benchmark)
        idle_w = platform.rails.board_idle_w
        for governor in governors:
            for precision in (p.value for p in precisions):
                def at(opp):
                    return slices[opp].get(
                        precision, (float("inf"), 0.0, float("inf"), False)
                    )

                if governor in (dvfs.GOVERNOR_DEFAULT, "performance"):
                    opp = table.nominal
                    seconds, watts, energy, ok = at(opp)
                elif governor == "powersave":
                    opp = table.min
                    seconds, watts, energy, ok = at(opp)
                elif governor == "ondemand":
                    t_slow, _, _, ok_slow = at(table.min)
                    t_fast, _, _, ok_fast = at(table.max)
                    if ok_slow and ok_fast:
                        opp = dvfs.select_opp(
                            table,
                            "ondemand",
                            time_at=lambda o: at(o)[0],
                        )
                    else:
                        opp = table.nominal
                    seconds, watts, energy, ok = at(opp)
                else:  # deadline policies
                    if governor == "race_to_idle":
                        candidates = (table.max,)
                    else:  # pace_to_deadline: slowest OPP meeting the budget
                        candidates = table.points
                    opp = table.max
                    seconds, watts, energy, ok = at(opp)
                    met = False
                    for cand in candidates:
                        s, w, e, feas = at(cand)
                        if feas and s <= deadline_s:
                            opp, seconds, watts, energy, ok = cand, s, w, e, True
                            met = True
                            break
                    if not met:
                        ok = False
                    if ok:
                        energy = energy + (deadline_s - seconds) * idle_w
                    else:
                        seconds, watts, energy = float("inf"), 0.0, float("inf")
                points.append(
                    DvfsDesignPoint(
                        config_name=config.name,
                        governor=governor,
                        precision=precision,
                        opp_hz=opp.frequency_hz,
                        seconds=seconds,
                        watts=watts,
                        energy_j=energy,
                        feasible=ok,
                    )
                )
    return DvfsSpaceResult(
        points=tuple(points),
        governors=governors,
        precisions=tuple(p.value for p in precisions),
        benchmark=benchmark,
        deadline_s=deadline_s,
        scale=scale,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# model-only speedup helper (the whatif/sensitivity seam)
# ---------------------------------------------------------------------------


def opt_over_serial(
    benchmark: str,
    platforms: dict,
    *,
    precision: Precision = Precision.SINGLE,
    scale: float = 0.5,
    seed: int = 1234,
    serial: str = "first",
) -> dict:
    """Model-only Opt-over-Serial speedup per platform variant.

    The single model-only path behind :func:`repro.whatif.estimate_speedups`
    and the sensitivity probes: every number comes from each platform's
    ``pricing_model()`` — tuner pricing for the Opt candidate, the CPU
    pricer for the Serial baseline — with no functional NumPy execution
    and no meter.  ``serial="first"`` takes the baseline from the first
    platform (comparable speedups across variants, the what-if
    convention); ``serial="each"`` re-prices it per platform (the
    sensitivity convention, where the CPU side is perturbed too).
    ``None`` marks a variant with no feasible Opt candidate.
    """
    from .pricing.grid import estimate_cpu_seconds, estimate_opt_seconds

    if not platforms:
        raise ValueError("need at least one platform")
    if serial not in ("first", "each"):
        raise ValueError(f"serial must be 'first' or 'each', got {serial!r}")
    out: dict = {}
    serial_seconds = None
    for name, platform in platforms.items():
        bench = create(
            benchmark, precision=precision, scale=scale, seed=seed, platform=platform
        )
        if serial == "each" or serial_seconds is None:
            serial_seconds = estimate_cpu_seconds(bench)
        opt_seconds = estimate_opt_seconds(bench)
        out[name] = None if opt_seconds is None else serial_seconds / opt_seconds
    return out
