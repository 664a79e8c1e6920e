"""Extension benches: beyond-paper studies built on the same stack.

* ``native_math`` — the Mali Developer Guide's ``native_*`` builtins
  (the paper's Full-Profile/IEEE framing excludes them; here we measure
  what that costs on the transcendental-heavy kernels);
* ``repetition`` — the §IV-D 20-repeat protocol and its "negligible
  deviation" claim;
* ``next_gen`` — Mali-T628/T760 platform extrapolations (§VII outlook);
* ``fixed_driver`` — double-precision amcd on the promised driver fix.
"""

import pytest

from repro.benchmarks import Precision, Version, create
from repro.compiler.options import CompileOptions
from repro.experiments.statistics import run_repeated
from repro.whatif import (
    compare_platforms,
    mali_t628_platform,
    mali_t760_platform,
    run_fixed_driver_amcd,
)
from repro.calibration import default_platform

from conftest import SCALE


@pytest.mark.parametrize("name", ["amcd", "nbody"])
def test_native_math_ablation(benchmark, name):
    """IEEE vs native_* transcendentals on the SFU-heavy kernels."""
    bench = create(name, scale=SCALE)

    def ablate():
        ieee = bench.iteration_pricer(CompileOptions(qualifiers=True))(128)
        native = bench.iteration_pricer(
            CompileOptions(qualifiers=True, native_math=True)
        )(128)
        return ieee / native

    gain = benchmark.pedantic(ablate, rounds=1, iterations=1)
    benchmark.extra_info["speedup_from_native_math"] = round(gain, 2)
    assert gain > 1.2, "transcendental-heavy kernels benefit from native_*"


def test_native_math_useless_for_streaming(benchmark):
    bench = create("vecop", scale=SCALE)

    def ablate():
        base = bench.iteration_pricer(CompileOptions(vector_width=4))(128)
        native = bench.iteration_pricer(
            CompileOptions(vector_width=4, native_math=True)
        )(128)
        return base / native

    gain = benchmark.pedantic(ablate, rounds=1, iterations=1)
    benchmark.extra_info["speedup_from_native_math"] = round(gain, 3)
    assert gain == pytest.approx(1.0, rel=0.02)


def test_repetition_protocol(benchmark):
    """§IV-D: 20 repeats, negligible standard deviation."""
    bench = create("red", scale=min(SCALE, 0.25))

    def repeat():
        return run_repeated(bench, Version.OPENCL_OPT, repeats=20)

    stats = benchmark.pedantic(repeat, rounds=1, iterations=1)
    benchmark.extra_info["power_cv"] = f"{stats.power_cv:.4%}"
    assert stats.negligible


def test_next_generation_hardware(benchmark):
    platforms = {
        "t604": default_platform(),
        "t628": mali_t628_platform(),
        "t760": mali_t760_platform(),
    }

    def collect():
        cmp = compare_platforms("dmmm", platforms, scale=min(SCALE, 0.5))
        return {name: cmp.speedup(name) for name in platforms}

    speedups = benchmark.pedantic(collect, rounds=1, iterations=1)
    benchmark.extra_info["opt_speedup_by_gpu"] = {
        k: round(v, 1) for k, v in speedups.items()
    }
    assert speedups["t604"] < speedups["t628"] < speedups["t760"]


def test_fixed_driver_dp_amcd(benchmark):
    result = benchmark.pedantic(
        run_fixed_driver_amcd, kwargs={"scale": min(SCALE, 0.5)}, rounds=1, iterations=1
    )
    benchmark.extra_info["dp_amcd_runs"] = result.ok
    assert result.ok and result.verified
