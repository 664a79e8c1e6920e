"""Empirical tuner for the OpenCL Opt configurations.

The paper's method is explicitly empirical: "we suggest, whenever the
code allows it, to experiment with different vector sizes (e.g. size of
4, 8, 16)" and "we strongly suggest to manually tune the local work
size parameter".  :func:`tune` does what the authors did by hand: sweep
the benchmark's candidate (compile options × local size) space, discard
candidates that fail to build or launch, and keep the fastest.

The infeasible-candidate rule reproduces Figure 2(b)'s behaviour: in
double precision the aggressive vector+unroll points of ``nbody`` and
``2dcon`` exhaust the register file (``CL_OUT_OF_RESOURCES``), so the
best *feasible* configuration is close to the naive one and the
OpenCL-vs-Opt gap collapses — exactly what the paper reports.

Two search strategies produce the same selection:

* ``exhaustive`` — compile and price every candidate (the ablation
  benches use this to chart the whole space);
* ``pruned`` (default) — compile once per distinct options point
  (register exhaustion is local-size-independent, so one failure
  condemns the whole group: infeasibility memoization), order the
  surviving candidates by an optimistic roofline lower bound
  (:meth:`repro.mali.timing.GpuConfigStack.floor_seconds` on a
  one-cell stack), and skip any candidate whose *best case* is already
  slower than the incumbent's measured time.  Skipping only
  strictly-worse candidates and keeping trials in canonical candidate
  order makes the selected best — ties included — provably identical
  to ``exhaustive``'s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..compiler.options import CompileOptions
from ..errors import CLError, CompilerError, ReproError

STRATEGIES = ("pruned", "exhaustive")


@dataclass(frozen=True)
class TuneTrial:
    """One candidate of the sweep.

    ``skipped`` marks candidates the pruned strategy discarded by lower
    bound without pricing; they are neither feasible (no measured time)
    nor infeasible (no build/launch failure).
    """

    options: CompileOptions
    local_size: int | None
    seconds: float | None
    error: str | None = None
    skipped: bool = False

    @property
    def feasible(self) -> bool:
        return self.error is None and not self.skipped


@dataclass(frozen=True)
class TuneResult:
    """Full sweep record (the ablation benches introspect this)."""

    trials: tuple[TuneTrial, ...]
    strategy: str = "exhaustive"

    @property
    def best(self) -> TuneTrial | None:
        feasible = [t for t in self.trials if t.feasible]
        if not feasible:
            return None
        return min(feasible, key=lambda t: t.seconds)

    @property
    def n_infeasible(self) -> int:
        """Candidates that failed to build or launch."""
        return sum(1 for t in self.trials if t.error is not None)

    @property
    def n_skipped(self) -> int:
        """Candidates discarded by the pruned strategy's lower bound."""
        return sum(1 for t in self.trials if t.skipped)

    @property
    def n_evaluated(self) -> int:
        """Candidates actually compiled and priced to a time."""
        return sum(1 for t in self.trials if t.seconds is not None)


def _candidates(bench, include_naive: bool) -> list[tuple[CompileOptions, int | None]]:
    """The deduplicated candidate list, in canonical order.

    Some benchmarks put the naive point in their own ``tuning_space``;
    appending the ``include_naive`` baseline must not evaluate it twice
    (duplicates would also double-count infeasible candidates).  First
    occurrence wins, so the canonical order is stable.
    """
    candidates = list(bench.tuning_space())
    if include_naive:
        from ..compiler.options import NAIVE

        candidates.append((NAIVE, None))
    seen: set[tuple[CompileOptions, int | None]] = set()
    unique: list[tuple[CompileOptions, int | None]] = []
    for candidate in candidates:
        if candidate in seen:
            continue
        seen.add(candidate)
        unique.append(candidate)
    return unique


def _sweep_exhaustive(bench, candidates) -> tuple[TuneTrial, ...]:
    trials: list[TuneTrial] = []
    for options, local_size in candidates:
        try:
            seconds = bench.iteration_pricer(options)(local_size)
        except (CompilerError, CLError) as exc:
            trials.append(
                TuneTrial(options=options, local_size=local_size, seconds=None, error=str(exc))
            )
            continue
        trials.append(TuneTrial(options=options, local_size=local_size, seconds=seconds))
    return tuple(trials)


def _sweep_pruned(bench, candidates) -> tuple[TuneTrial, ...]:
    from ..compiler.pipeline import compile_kernel
    from ..mali.timing import GpuConfigStack
    from ..ocl.driver import platform_quirks
    from ..pricing.cells import GpuLaunchCell

    platform = bench.platform
    quirks = platform_quirks(platform)
    dram = platform.dram_model()
    caches = platform.gpu_caches()

    trials: list[TuneTrial | None] = [None] * len(candidates)

    # Phase 1: one compile per distinct options point.  compile_kernel
    # takes no local size, so a failure (register exhaustion, driver
    # quirk) condemns every local size of the group at once — and the
    # error string each condemned trial records is exactly what its
    # iteration_pricer would have raised for it.
    groups: dict[CompileOptions, list[int]] = {}
    for index, (options, _) in enumerate(candidates):
        groups.setdefault(options, []).append(index)

    floors: dict[int, float] = {}
    for options, indices in groups.items():
        main = bench.main_launch(options)
        try:
            compiled = compile_kernel(main.spec.ir, options, quirks=quirks)
        except (CompilerError, CLError) as exc:
            for index in indices:
                opts, local = candidates[index]
                trials[index] = TuneTrial(
                    options=opts, local_size=local, seconds=None, error=str(exc)
                )
            continue
        # Optimistic bound on the main launch alone: its work-items
        # before the round-up to a local multiple, no other step and no
        # occupancy/imbalance/overhead penalties.  Always <= the
        # estimate for every local size, so pruning on it is safe.
        cell = GpuLaunchCell(
            compiled=compiled,
            traits=main.spec.traits,
            n_items=main.work_items(compiled.elems_per_item),
            local_size=1,  # the perfect-hiding floor reads no local size
        )
        stack = GpuConfigStack((cell,), platform.mali, dram, caches)
        floor = float(
            stack.floor_seconds(
                dram,
                shader_cores=platform.mali.shader_cores,
                clock_hz=platform.mali.clock_hz,
            )[0]
        )
        for index in indices:
            floors[index] = floor

    # Phase 2: evaluate in ascending-bound order; a candidate whose best
    # case exceeds the incumbent's measured time cannot win (nor tie).
    # Pricing is batched per options group: the first surviving candidate
    # of a group builds its iteration_pricer (compile + vectorized mix
    # tables, once), and every later local size of the group prices
    # through the same tables.  A pricer that fails to build (a stage-2
    # kernel can exhaust registers on its own) condemns its candidates
    # with the error it raised.
    pricers: dict[CompileOptions, tuple[object, object]] = {}
    incumbent = math.inf
    for index in sorted(floors, key=lambda i: (floors[i], i)):
        options, local_size = candidates[index]
        if floors[index] > incumbent:
            trials[index] = TuneTrial(
                options=options, local_size=local_size, seconds=None, skipped=True
            )
            continue
        entry = pricers.get(options)
        if entry is None:
            try:
                entry = (bench.iteration_pricer(options), None)
            except (CompilerError, CLError) as exc:
                entry = (None, exc)
            pricers[options] = entry
        estimate, error = entry
        if estimate is None:
            trials[index] = TuneTrial(
                options=options, local_size=local_size, seconds=None, error=str(error)
            )
            continue
        try:
            seconds = estimate(local_size)
        except (CompilerError, CLError) as exc:
            trials[index] = TuneTrial(
                options=options, local_size=local_size, seconds=None, error=str(exc)
            )
            continue
        trials[index] = TuneTrial(options=options, local_size=local_size, seconds=seconds)
        incumbent = min(incumbent, seconds)

    return tuple(trials)  # type: ignore[arg-type]  # every slot was filled


def sweep(bench, include_naive: bool = True, strategy: str = "pruned") -> TuneResult:
    """Evaluate the benchmark's tuning space under a search strategy.

    ``include_naive`` adds the naive port itself (scalar kernel, driver
    local size) as a baseline candidate: when no optimization point
    beats it — which the model can legitimately produce for gather-bound
    kernels — the "Opt" version ships the naive kernel, as the paper's
    authors would have done.

    Both strategies return trials in canonical candidate order and
    select the same :attr:`TuneResult.best`; ``exhaustive`` prices every
    candidate (use it to chart the whole space), ``pruned`` skips
    provably-losing ones.
    """
    if strategy not in STRATEGIES:
        raise ReproError(f"unknown tuner strategy {strategy!r}; expected one of {STRATEGIES}")
    candidates = _candidates(bench, include_naive)
    if strategy == "exhaustive":
        trials = _sweep_exhaustive(bench, candidates)
    else:
        trials = _sweep_pruned(bench, candidates)
    return TuneResult(trials=trials, strategy=strategy)


def tune(bench, strategy: str = "pruned") -> tuple[CompileOptions, int | None] | None:
    """Best feasible (options, local size), or None if nothing builds."""
    best = sweep(bench, strategy=strategy).best
    if best is None:
        return None
    return best.options, best.local_size
