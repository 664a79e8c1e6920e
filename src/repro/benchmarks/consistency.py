"""Cross-checks between a benchmark's IR and its workload traits.

The IR (what the pipes execute) and the traits (what the caches see)
are authored separately per benchmark; if they drift apart the models
silently misprice the kernel.  :func:`check_benchmark` verifies the two
views agree:

* bytes: the IR's per-item global traffic × work-items should match the
  traits' requested bytes within a small factor (qualifier elimination,
  index-stream approximations and per-group sharing legitimately open a
  gap, but an order of magnitude means a bug);
* elements: traits must carry the benchmark's element count;
* footprints: no stream may exceed the device memory.

Used by the test suite for every benchmark × precision and exposed for
downstream users adding their own benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..compiler.options import NAIVE, CompileOptions
from ..ir.analysis import analyze
from ..ir.nodes import MemSpace
from .base import Benchmark

#: device global memory (2 GB on the Arndale board)
DEVICE_MEMORY_BYTES = 2 * 1024**3

#: acceptable ratio between IR-derived and trait-declared request volume
MAX_BYTES_RATIO = 8.0


@dataclass(frozen=True)
class ConsistencyReport:
    """Outcome of the IR-vs-traits cross-check for one configuration."""

    benchmark: str
    options_label: str
    ir_bytes: float
    trait_bytes: float
    issues: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.issues

    @property
    def bytes_ratio(self) -> float:
        if self.trait_bytes <= 0:
            return float("inf") if self.ir_bytes > 0 else 1.0
        return self.ir_bytes / self.trait_bytes


def check_benchmark(
    bench: Benchmark, options: CompileOptions = NAIVE
) -> ConsistencyReport:
    """Cross-check one benchmark configuration."""
    issues: list[str] = []

    main = bench.main_launch(options)
    traits = main.spec.traits
    ir = main.spec.ir
    mix = analyze(ir)

    items = main.work_items(ir.elems_per_item)
    ir_bytes = (
        mix.bytes_moved(space=MemSpace.GLOBAL) + mix.bytes_moved(space=MemSpace.CONSTANT)
    ) * items
    trait_bytes = sum(s.requested_bytes for s in traits.streams)

    if trait_bytes <= 0:
        issues.append("traits declare no memory traffic")
    else:
        ratio = ir_bytes / trait_bytes
        if not (1.0 / MAX_BYTES_RATIO <= ratio <= MAX_BYTES_RATIO):
            issues.append(
                f"IR-derived traffic {ir_bytes:.3g} B vs trait-declared "
                f"{trait_bytes:.3g} B (ratio {ratio:.2f} outside "
                f"[1/{MAX_BYTES_RATIO:g}, {MAX_BYTES_RATIO:g}])"
            )

    if traits.elements != bench.elements():
        issues.append(
            f"traits.elements {traits.elements} != benchmark elements {bench.elements()}"
        )

    footprint = traits.total_footprint_bytes
    if footprint > DEVICE_MEMORY_BYTES:
        issues.append(
            f"footprint {footprint / 1e9:.2f} GB exceeds device memory "
            f"({DEVICE_MEMORY_BYTES / 1e9:.1f} GB)"
        )

    return ConsistencyReport(
        benchmark=bench.name,
        options_label=options.describe(),
        ir_bytes=ir_bytes,
        trait_bytes=trait_bytes,
        issues=tuple(issues),
    )


def check_all(benchmarks: list[Benchmark]) -> list[ConsistencyReport]:
    """Check a list of benchmark instances under naive and tuned options."""
    reports = []
    for bench in benchmarks:
        reports.append(check_benchmark(bench, NAIVE))
        options, _ = next(iter(bench.tuning_space()))
        reports.append(check_benchmark(bench, options))
    return reports
