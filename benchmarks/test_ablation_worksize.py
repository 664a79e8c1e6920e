"""Work-size ablation (§III-A 'Load distribution').

Two claims to reproduce: the driver's NULL local-size heuristic is not
always good (manual tuning wins), and the global size must be 'in the
order of several thousands' to utilize the GPU.
"""

import pytest

from repro.benchmarks import create
from repro.compiler.options import NAIVE, CompileOptions
from repro.calibration import default_platform
from repro.ocl.driver import driver_local_size
from repro.optimizations import candidate_local_sizes, guide_global_size

SCALE = 0.5


def test_manual_local_size_beats_driver_pick(benchmark):
    """Sweep local sizes for a register-hungry kernel: the driver's
    blind 128 pick loses to the tuned value."""
    bench = create("3dstc", scale=SCALE)
    opts = CompileOptions(vector_loads=True, qualifiers=True)

    def ablate():
        n_items = bench.elements()
        driver_pick = driver_local_size(n_items, 256)
        times = {
            local: bench.iteration_pricer(opts)(local)
            for local in candidate_local_sizes(default_platform().mali)
        }
        times["driver"] = bench.iteration_pricer(opts)(driver_pick)
        return times, driver_pick

    times, driver_pick = benchmark.pedantic(ablate, rounds=1, iterations=1)
    best_manual = min(v for k, v in times.items() if k != "driver")
    benchmark.extra_info["driver_pick"] = driver_pick
    benchmark.extra_info["driver_time"] = round(times["driver"], 5)
    benchmark.extra_info["best_manual_time"] = round(best_manual, 5)
    assert best_manual <= times["driver"] * 1.0001


def test_local_size_choice_matters(benchmark):
    """The spread across local sizes is measurable (else tuning would
    be pointless)."""
    # a register-hungry configuration: large work-groups no longer fit
    # the register-limited thread budget and occupancy quantizes
    bench = create("2dcon", scale=SCALE)
    opts = CompileOptions(vector_width=8, qualifiers=True)

    def ablate():
        return {
            local: bench.iteration_pricer(opts)(local)
            for local in (32, 64, 128, 256)
        }

    times = benchmark.pedantic(ablate, rounds=1, iterations=1)
    benchmark.extra_info["times"] = {k: round(v, 6) for k, v in times.items()}
    assert max(times.values()) / min(times.values()) > 1.01


def test_small_global_size_underutilizes(benchmark):
    """'The global work size must be in the order of several thousands
    to maximize the GPU resources utilization.'"""
    from repro.compiler import compile_kernel
    from repro.mali import time_launch

    bench = create("vecop", scale=SCALE)
    platform = bench.platform
    compiled = compile_kernel(bench.kernel_ir(NAIVE))

    def ablate():
        # per-item cost at a tiny launch vs a guide-sized launch
        tiny_n = 256
        guide_n = guide_global_size(platform.mali, 4)
        tiny = time_launch(
            compiled, tiny_n, 64, bench.gpu_traits(NAIVE),
            platform.mali, platform.dram_model(), platform.gpu_caches(),
        )
        big = time_launch(
            compiled, guide_n, 64, bench.gpu_traits(NAIVE),
            platform.mali, platform.dram_model(), platform.gpu_caches(),
        )
        return (tiny.seconds / tiny_n) / (big.seconds / guide_n)

    per_item_penalty = benchmark.pedantic(ablate, rounds=1, iterations=1)
    benchmark.extra_info["per_item_cost_ratio_tiny_vs_guide"] = round(per_item_penalty, 2)
    assert per_item_penalty > 2.0
