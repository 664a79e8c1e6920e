"""Per-technique ablation of the Section III kernel optimizations.

The paper presents the techniques as a catalogue without a per-technique
table; this bench quantifies each one in isolation on the benchmarks its
mechanism targets, using the model's launch-pricing fast path.
"""

import pytest

from repro.benchmarks import Precision, create
from repro.compiler.options import NAIVE, CompileOptions

SCALE = 0.5


def estimate(bench, options, local=128):
    return bench.iteration_pricer(options)(local)


@pytest.fixture(scope="module")
def vecop():
    return create("vecop", scale=SCALE)


@pytest.fixture(scope="module")
def dmmm():
    return create("dmmm", scale=SCALE)


@pytest.fixture(scope="module")
def conv():
    return create("2dcon", scale=SCALE)


def test_vectorization_on_streaming_kernel(benchmark, vecop):
    """float -> float4 on vecop: the headline Mali win."""

    def ablate():
        base = estimate(vecop, NAIVE)
        vec = estimate(vecop, CompileOptions(vector_width=4))
        return base / vec

    gain = benchmark.pedantic(ablate, rounds=1, iterations=1)
    benchmark.extra_info["speedup_from_vec4"] = round(gain, 2)
    assert gain > 1.5


def test_vector_loads_alone_help_scalar_kernels(benchmark, vecop):
    """'Such operations should be also used in kernels that do not take
    advantage of vector registers' (§III-B)."""

    def ablate():
        base = estimate(vecop, NAIVE)
        vload = estimate(vecop, CompileOptions(vector_loads=True))
        return base / vload

    gain = benchmark.pedantic(ablate, rounds=1, iterations=1)
    benchmark.extra_info["speedup_from_vloads"] = round(gain, 2)
    assert gain > 1.2


def test_qualifiers_on_convolution(benchmark, conv):
    """const/restrict/inline: eliminates redundant filter reloads."""

    def ablate():
        base = estimate(conv, CompileOptions(vector_width=4))
        qual = estimate(conv, CompileOptions(vector_width=4, qualifiers=True))
        return base / qual

    gain = benchmark.pedantic(ablate, rounds=1, iterations=1)
    benchmark.extra_info["speedup_from_qualifiers"] = round(gain, 2)
    assert gain > 1.02


def test_unrolling_on_dmmm(benchmark, dmmm):
    """loop unrolling trims the k-loop header overhead."""

    def ablate():
        base = estimate(dmmm, CompileOptions(vector_width=4, qualifiers=True))
        unrolled = estimate(dmmm, CompileOptions(vector_width=4, unroll=2, qualifiers=True))
        return base / unrolled

    gain = benchmark.pedantic(ablate, rounds=1, iterations=1)
    benchmark.extra_info["speedup_from_unroll2"] = round(gain, 2)
    assert gain > 1.0


def test_excessive_width_backfires(benchmark, dmmm):
    """'Using types wider than the underlying hardware ... increase[s]
    register pressure': beyond some width the gain reverses."""

    def ablate():
        times = {}
        for width in (4, 8, 16):
            try:
                times[width] = estimate(
                    dmmm, CompileOptions(vector_width=width, unroll=2, qualifiers=True)
                )
            except Exception:
                times[width] = float("inf")
        return times

    times = benchmark.pedantic(ablate, rounds=1, iterations=1)
    benchmark.extra_info["times_by_width"] = {k: round(v, 5) for k, v in times.items()}
    assert times[16] > min(times.values()), "width 16 is never the dmmm winner"


def test_register_pressure_reduces_occupancy(benchmark, dmmm):
    from repro.compiler import compile_kernel

    def ablate():
        lean = compile_kernel(dmmm.kernel_ir(CompileOptions(vector_width=4)),
                              CompileOptions(vector_width=4))
        fat = compile_kernel(dmmm.kernel_ir(CompileOptions(vector_width=8)),
                             CompileOptions(vector_width=8))
        return lean.registers.threads_per_core, fat.registers.threads_per_core

    lean_threads, fat_threads = benchmark.pedantic(ablate, rounds=1, iterations=1)
    benchmark.extra_info["threads_lean_vs_fat"] = (lean_threads, fat_threads)
    assert fat_threads < lean_threads
