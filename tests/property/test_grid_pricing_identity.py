"""Campaign-level identity: batched pricing never changes a result byte.

The tentpole guarantee of the batched cold path is that an entire
campaign — full SP+DP grid, every version, tuner options included —
serializes to exactly the same ``ResultSet.to_json()`` bytes whether
cells are priced through the vectorized ``repro.pricing`` models or
through the scalar reference implementations cell by cell, and whether
the engine runs in-process or on a worker pool.

The scalar world is forced by (a) ``perf.disabled()``, which drops
``LaunchPricer.price`` to the uncached scalar GPU path and bypasses
every memo tier, and (b) monkeypatching ``CpuPricingModel`` to the
scalar ``_time_serial_scalar``/``_time_openmp_scalar`` references.
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import perf
from repro.benchmarks.base import Precision, Version
from repro.benchmarks.registry import PAPER_ORDER
from repro.cpu.openmp import _time_openmp_scalar
from repro.cpu.serial import _time_serial_scalar
from repro.cpu.pricing import CpuPricingModel
from repro.experiments.runner import run_grid
from repro.pricing import MODE_SERIAL

BOTH_PRECISIONS = (Precision.SINGLE, Precision.DOUBLE)


def _scalar_price_one(self, cell):
    fn = _time_serial_scalar if cell.mode == MODE_SERIAL else _time_openmp_scalar
    return fn(cell.mix, cell.n_elements, cell.traits, self.config, self.dram, self.caches)


def _scalar_price(self, cells):
    return tuple(_scalar_price_one(self, cell) for cell in cells)


@contextmanager
def scalar_pricing():
    """Every model evaluation through the scalar references, no caches."""
    with perf.disabled():
        with mock.patch.object(CpuPricingModel, "price_one", _scalar_price_one), \
                mock.patch.object(CpuPricingModel, "price", _scalar_price):
            yield


@pytest.fixture(autouse=True)
def _fresh_perf():
    perf.reset()
    yield
    perf.reset()


def _grid_json(*, benchmarks=PAPER_ORDER, versions=tuple(Version),
               precisions=BOTH_PRECISIONS, jobs=1, scalar=False, scale=0.1):
    perf.reset()
    if scalar:
        with scalar_pricing():
            rs = run_grid(benchmarks, versions=versions, precisions=precisions,
                          scale=scale, jobs=jobs, preprice=False)
    else:
        rs = run_grid(benchmarks, versions=versions, precisions=precisions,
                      scale=scale, jobs=jobs)
    return rs.to_json()


def test_full_grid_byte_identity_scalar_vs_batched():
    """Full SP+DP grid, all versions: scalar and batched bytes agree,
    in-process and across a 4-worker pool."""
    scalar = _grid_json(scalar=True)
    batched_inline = _grid_json()
    assert batched_inline == scalar
    batched_pool = _grid_json(jobs=4)
    assert batched_pool == scalar


def test_preprice_off_is_still_identical():
    perf.reset()
    on = run_grid(("vecop", "hist"), precisions=BOTH_PRECISIONS, scale=0.1).to_json()
    perf.reset()
    off = run_grid(
        ("vecop", "hist"), precisions=BOTH_PRECISIONS, scale=0.1, preprice=False
    ).to_json()
    assert on == off


@given(
    benchmarks=st.sets(st.sampled_from(PAPER_ORDER), min_size=1, max_size=2),
    versions=st.sets(st.sampled_from(list(Version)), min_size=1, max_size=4),
    precisions=st.sets(st.sampled_from(BOTH_PRECISIONS), min_size=1, max_size=2),
)
@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_random_cell_subset_byte_identity(benchmarks, versions, precisions):
    """Any sub-grid prices to the same bytes scalar vs batched."""
    benchmarks = tuple(sorted(benchmarks))
    versions = tuple(v for v in Version if v in versions)
    precisions = tuple(p for p in BOTH_PRECISIONS if p in precisions)
    scalar = _grid_json(benchmarks=benchmarks, versions=versions,
                        precisions=precisions, scalar=True)
    batched = _grid_json(benchmarks=benchmarks, versions=versions,
                         precisions=precisions)
    assert batched == scalar


# ---------------------------------------------------------------------------
# design-space hypercube: stacked config axis vs loop-over-facades
# ---------------------------------------------------------------------------


_SOC_KNOBS = st.fixed_dictionaries(
    {},
    optional={
        "gpu_cores": st.sampled_from((1, 2, 4, 8)),
        "gpu_clock_hz": st.sampled_from((416e6, 533e6, 700e6)),
        "cpu_cores": st.sampled_from((1, 2, 4)),
        "cpu_clock_hz": st.sampled_from((1.0e9, 1.7e9)),
        "dram_gbps": st.sampled_from((6.4, 12.8, 16.5)),
        "register_file_scale": st.sampled_from((0.125, 0.5, 1.0, 2.0)),
        "rail_scale": st.sampled_from((0.5, 1.0, 2.0)),
    },
)


def _assert_rows_bitwise(stacked, facade):
    import numpy as np

    for field in stacked.__slots__:
        a = np.asarray(getattr(stacked, field))
        b = np.asarray(getattr(facade, field))
        if a.dtype == np.float64:
            # bitwise, not tolerance: inf lanes and signed zeros included
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), field
        else:
            assert np.array_equal(a, b), field


@given(knob_sets=st.lists(_SOC_KNOBS, min_size=1, max_size=4, unique_by=repr))
@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_random_soc_configs_stacked_rows_match_facade(knob_sets):
    """Random SoCConfig subsets: every stacked row is bitwise the row the
    per-config ``PlatformPricing`` facade computes — including configs
    whose scaled register file makes candidates infeasible."""
    from repro.calibration.socspace import SoCConfig
    from repro.designspace import DesignSpace

    configs = [SoCConfig(name=f"p{i}", **knobs) for i, knobs in enumerate(knob_sets)]
    perf.reset()
    space = DesignSpace(benchmarks=("vecop", "red"), scale=0.1)
    for config in configs:
        _assert_rows_bitwise(space.stacked_rows([config]), space.facade_rows(config))


_MIXED_KNOBS = st.fixed_dictionaries(
    {
        "gpu_cores": st.sampled_from((1, 2, 3, 4, 8, 16)),
        "gpu_clock_hz": st.sampled_from((300e6, 416e6, 533e6, 1e9)),
        "cpu_cores": st.sampled_from((1, 2, 4, 8)),
        "cpu_clock_hz": st.sampled_from((1.0e9, 1.7e9, 2.5e9)),
        "dram_gbps": st.sampled_from((6.4, 12.8, 16.5, 25.6)),
        # 0.125 leaves no nbody DP candidate feasible
        "register_file_scale": st.sampled_from((0.125, 0.25, 0.5, 1.0, 2.0, 4.0)),
        "rail_scale": st.sampled_from((0.5, 0.75, 1.0, 2.0, 3.0)),
    }
)


@pytest.fixture(scope="module")
def mixed_space():
    from repro.designspace import DesignSpace

    perf.reset()
    return DesignSpace(benchmarks=("vecop", "nbody"), scale=0.1)


def _row(rows, i):
    return rows.take([i])


@given(knob_sets=st.lists(_MIXED_KNOBS, min_size=1, max_size=6))
@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
def test_batched_rows_match_facade_per_config(mixed_space, knob_sets):
    """One batched call over configs mixing every stacked axis (DRAM,
    register file — fully infeasible included — rails, cores, clocks):
    each row is bitwise that config's facade row, and bitwise its own
    k = 1 call."""
    from repro.calibration.socspace import SoCConfig

    configs = [SoCConfig(name=f"m{i}", **knobs) for i, knobs in enumerate(knob_sets)]
    batched = mixed_space.stacked_rows(configs)
    assert batched.gpu_seconds.shape == (len(configs), len(mixed_space.gpu_cells))
    assert batched.cpu_seconds.shape == (len(configs), len(mixed_space.cpu_cells))
    for i, config in enumerate(configs):
        _assert_rows_bitwise(_row(batched, i), mixed_space.facade_rows(config))
        _assert_rows_bitwise(_row(batched, i), mixed_space.stacked_rows([config]))


def test_fully_infeasible_config_in_a_batch(mixed_space):
    """A register file no nbody DP candidate fits: that group's span is
    all-infeasible (inf seconds) in its row, its Opt point infeasible,
    the neighbouring config's row untouched — both rows still equal to
    the facade's."""
    import numpy as np

    from repro.calibration.socspace import SoCConfig

    configs = [
        SoCConfig(name="tiny", register_file_scale=0.125, dram_gbps=6.4),
        SoCConfig(name="base"),
    ]
    batched = mixed_space.stacked_rows(configs)
    group = next(
        bc for bc in mixed_space.groups
        if bc.name == "nbody" and bc.precision == "double"
    )
    span = slice(group.gpu_start, group.gpu_stop)
    assert not batched.gpu_feasible[0, span].any()
    assert np.isinf(batched.gpu_seconds[0, span]).all()
    assert batched.gpu_feasible[1, span].all()
    for i, config in enumerate(configs):
        _assert_rows_bitwise(_row(batched, i), mixed_space.facade_rows(config))
    opt = [
        p for p in mixed_space.points(configs, batched)
        if (p.benchmark, p.precision, p.version) == ("nbody", "double", "Opt")
    ]
    assert [p.feasible for p in opt] == [False, True]


@given(knobs=_MIXED_KNOBS)
@settings(max_examples=50, deadline=None)
def test_platform_varies_only_stacked_axes(knobs):
    """``SoCConfig.platform()`` changes the Mali and A15 configs only along
    the axes the stacks take as columns — every other field is the base
    value the stacks bake into their hoisted tables — so the batched
    path needs no per-config signature check."""
    from dataclasses import fields

    from repro.calibration.exynos5250 import default_platform
    from repro.calibration.socspace import SoCConfig
    from repro.cpu.pricing import _CPU_STACK_AXES
    from repro.mali.timing import _STACK_AXES

    base = default_platform()
    platform = SoCConfig(name="x", **knobs).platform(base)
    for derived, stock, axes in (
        (platform.mali, base.mali, _STACK_AXES),
        (platform.cpu, base.cpu, _CPU_STACK_AXES),
    ):
        for f in fields(stock):
            if f.name not in axes:
                assert getattr(derived, f.name) == getattr(stock, f.name), f.name


def test_design_space_jobs_pool_matches_inline():
    """jobs=4 shards configs over a process pool; the reassembled points
    are exactly the jobs=1 points (both engines)."""
    from repro.calibration.socspace import config_grid
    from repro.designspace import evaluate_space

    configs = config_grid(gpu_cores=(2, 4), register_file_scale=(0.25, 1.0))
    for engine in ("stacked", "facade"):
        perf.reset()
        inline = evaluate_space(
            configs, benchmarks=("vecop", "hist"), scale=0.1, jobs=1, engine=engine
        )
        perf.reset()
        pooled = evaluate_space(
            configs, benchmarks=("vecop", "hist"), scale=0.1, jobs=4, engine=engine
        )
        assert pooled.points == inline.points

    perf.reset()
    stacked = evaluate_space(configs, benchmarks=("vecop", "hist"), scale=0.1)
    perf.reset()
    facade = evaluate_space(
        configs, benchmarks=("vecop", "hist"), scale=0.1, engine="facade"
    )
    assert stacked.points == facade.points
