"""Vector-size ablation (§III-B 'Vector Sizes').

The paper: "the best achievable performance is not bound to a
particular vector size but can vary from case to case ... experiment
with different vector sizes (e.g. size of 4, 8, 16)."  This bench
sweeps the widths per kernel and checks that no single width wins
everywhere.
"""

import pytest

from repro.benchmarks import create
from repro.compiler.options import CompileOptions
from repro.errors import CLError, CompilerError

SCALE = 0.5
WIDTHS = (2, 4, 8, 16)


def sweep_widths(bench, local=128, unroll=1):
    times = {}
    for width in WIDTHS:
        options = CompileOptions(vector_width=width, unroll=unroll, qualifiers=True)
        try:
            times[width] = bench.iteration_pricer(options)(local)
        except (CompilerError, CLError):
            times[width] = None  # infeasible (register file)
    return times


@pytest.mark.parametrize("name", ["vecop", "red", "dmmm", "2dcon"])
def test_width_sweep_per_kernel(benchmark, name):
    bench = create(name, scale=SCALE)
    times = benchmark.pedantic(sweep_widths, args=(bench,), rounds=1, iterations=1)
    feasible = {w: t for w, t in times.items() if t is not None}
    best = min(feasible, key=feasible.get)
    benchmark.extra_info["times_by_width"] = {
        w: (round(t, 6) if t is not None else "failed") for w, t in times.items()
    }
    benchmark.extra_info["best_width"] = best
    assert feasible, f"{name}: at least one width must compile"


def test_best_width_varies_across_kernels(benchmark):
    """The §III-B claim itself: no universal best vector size."""

    def collect():
        best = {}
        for name in ("vecop", "red", "dmmm", "2dcon"):
            bench = create(name, scale=SCALE)
            times = sweep_widths(bench)
            feasible = {w: t for w, t in times.items() if t is not None}
            best[name] = min(feasible, key=feasible.get)
        return best

    best = benchmark.pedantic(collect, rounds=1, iterations=1)
    benchmark.extra_info["best_width_per_kernel"] = best
    assert len(set(best.values())) >= 2, "the best width must vary from case to case"


def test_wider_than_hardware_can_win_or_lose(benchmark):
    """Widths above the native 128 bits trade scheduling for registers:
    on vecop (no loop-carried state) wide usually wins; on dmmm the
    register cost bites."""

    def collect():
        vecop_times = sweep_widths(create("vecop", scale=SCALE))
        dmmm_times = sweep_widths(create("dmmm", scale=SCALE), unroll=2)
        return vecop_times, dmmm_times

    vecop_times, dmmm_times = benchmark.pedantic(collect, rounds=1, iterations=1)
    assert vecop_times[8] is not None and vecop_times[8] <= vecop_times[2]
    feasible_dmmm = {w: t for w, t in dmmm_times.items() if t is not None}
    assert min(feasible_dmmm, key=feasible_dmmm.get) < 16
