"""Integration: all four versions run end-to-end and verify."""

import math

import pytest

from repro.benchmarks import PAPER_ORDER, Precision, Version, create, run_version
from repro.benchmarks.base import run_gpu_version
from repro.benchmarks.common import DeviceFill
from repro.compiler.options import NAIVE
from repro.errors import CLError, CompilerError
from repro.ocl.enums import CommandType
from repro.optimizations.autotune import _candidates

SCALE = 0.1


@pytest.fixture(scope="module")
def results():
    out = {}
    for name in ("vecop", "spmv", "hist", "red", "dmmm"):
        bench = create(name, scale=SCALE)
        out[name] = {v: run_version(bench, version=v) for v in Version}
    return out


@pytest.mark.parametrize("name", ["vecop", "spmv", "hist", "red", "dmmm"])
@pytest.mark.parametrize("version", list(Version))
def test_runs_verify(results, name, version):
    r = results[name][version]
    assert r.ok, r.failure
    assert r.verified
    assert r.elapsed_s > 0
    assert r.mean_power_w > 2.0  # above board idle
    assert r.energy_j == pytest.approx(r.mean_power_w * r.elapsed_s, rel=1e-6)


@pytest.mark.parametrize("name", ["vecop", "spmv", "hist", "red", "dmmm"])
def test_opt_no_slower_than_naive_gpu(results, name):
    naive = results[name][Version.OPENCL]
    opt = results[name][Version.OPENCL_OPT]
    assert opt.elapsed_s <= naive.elapsed_s * 1.001


@pytest.mark.parametrize("name", ["vecop", "spmv", "hist", "red", "dmmm"])
def test_openmp_beats_serial(results, name):
    assert (
        results[name][Version.OPENMP].elapsed_s
        < results[name][Version.SERIAL].elapsed_s
    )


@pytest.mark.parametrize("name", ["vecop", "red", "dmmm"])
def test_opt_beats_serial_energy(results, name):
    assert results[name][Version.OPENCL_OPT].energy_j < results[name][Version.SERIAL].energy_j


def test_opt_result_records_configuration(results):
    r = results["dmmm"][Version.OPENCL_OPT]
    assert r.options is not None and r.options.any_enabled
    assert r.local_size in (32, 64, 128, 256)


def test_opencl_uses_driver_local_size(results):
    r = results["vecop"][Version.OPENCL]
    assert r.options is not None and not r.options.any_enabled
    assert r.local_size is None  # NULL -> driver heuristic


def test_gpu_events_cover_iteration(results):
    """The timed region is the declared steps, in declaration order."""

    def region(name, version):
        timed = (CommandType.FILL_BUFFER, CommandType.NDRANGE_KERNEL)
        return [
            e.info.get("kernel", "fill")
            for e in results[name][version].diagnostics["events"]
            if e.command_type in timed
        ]

    assert region("red", Version.OPENCL) == ["red_stage1", "red_stage2"]
    options = results["hist"][Version.OPENCL_OPT].options
    declared = [
        "fill" if isinstance(step, DeviceFill) else step.spec.name
        for step in create("hist", scale=SCALE).gpu_launches(options)
    ]
    assert region("hist", Version.OPENCL_OPT) == declared == [
        "fill", "fill", "hist_privatized", "hist_merge"
    ]


@pytest.mark.parametrize("precision", list(Precision), ids=lambda p: p.label)
@pytest.mark.parametrize("name", PAPER_ORDER)
def test_tuner_estimate_is_the_timed_region(name, precision):
    """Every tuner candidate's estimate equals its run's elapsed_s
    bitwise, and the pricer raises exactly when the run fails."""
    bench = create(name, precision=precision, scale=0.05)
    for options, local in _candidates(bench, True):
        run = run_gpu_version(bench, options, local)
        try:
            estimate = bench.iteration_pricer(options)(local)
        except (CompilerError, CLError):
            assert not run.ok, (options, local)
            continue
        assert run.ok, (options, local, run.failure)
        assert estimate == run.elapsed_s, (options, local)


def test_failed_runresult_interface():
    from repro.benchmarks import RunResult

    r = RunResult.failed("x", Version.OPENCL, Precision.DOUBLE, "boom")
    assert not r.ok
    assert math.isnan(r.elapsed_s)
    with pytest.raises(Exception):
        r.relative_to(r)


def test_remaining_benchmarks_run_gpu_naive():
    # cover the four not in the module fixture, naive path only (fast)
    for name in ("3dstc", "amcd", "nbody", "2dcon"):
        bench = create(name, scale=0.05)
        r = run_gpu_version(bench, NAIVE, None)
        assert r.ok and r.verified, (name, r.failure)
