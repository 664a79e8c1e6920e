"""The timing kernels are bitwise-identical to the scalar oracles.

The pricing contract is not "close": every record a config stack
(:class:`~repro.mali.timing.GpuConfigStack`,
:class:`~repro.cpu.pricing.CpuConfigStack`) or a ``price_one`` entry
returns must equal, bit for bit, what the naive scalar oracle in
``tests/oracles.py`` computes for that cell — including the DP
register-exhaustion occupancy collapse and the sequential-reduction
accumulation order.  These tests compare full result dataclasses with
``==`` (no ``approx``); hypothesis drives randomized SoC configs, byte
mixes and activity sequences.  The DRAM property checks the scalar
``transfer_seconds`` on its own, and the power property holds the
vectorized :func:`~repro.power.rails.stack_watts` to
``BoardPowerModel.trace``.  The properties are sized with
:func:`tests.conftest.examples`, so ``--hypothesis-profile=heavy`` runs
them at the heavy count.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import perf
from repro.benchmarks.base import Precision, cpu_pricing_inputs
from repro.benchmarks.registry import create
from repro.calibration.exynos5250 import default_platform
from repro.calibration.socspace import SoCConfig
from repro.compiler.options import NAIVE, CompileOptions
from repro.compiler.pipeline import compile_kernel
from repro.cpu.pricing import CpuConfigStack
from repro.errors import CLOutOfResources
from repro.ir.nodes import AccessPattern
from repro.mali.timing import GpuConfigStack
from repro.ocl.driver import default_quirks
from repro.power.model import PowerTrace, TraceSegment
from repro.power.rails import Activity, ActivityKind, stack_watts
from repro.pricing import MODE_OPENMP, MODE_SERIAL, CpuCell, GpuLaunchCell, TraceCell
from tests.conftest import examples
from tests.oracles import (
    _time_launch_uncached,
    _time_openmp_scalar,
    _time_serial_scalar,
)

CPU_PROBES = ("vecop", "hist", "dmmm", "nbody")
GPU_PROBES = ("vecop", "dmmm", "nbody")
#: naive, a mid-width tuned point, and the register-hungry wide point
#: whose DP variant exercises the occupancy-collapse branch
GPU_OPTIONS = (
    NAIVE,
    CompileOptions(vector_width=4, unroll=2, qualifiers=True, soa=True),
    CompileOptions(vector_width=16, unroll=4, qualifiers=True, soa=True),
)


@pytest.fixture(autouse=True)
def _fresh_perf():
    perf.reset()
    yield
    perf.reset()


# ---------------------------------------------------------------------------
# CPU layer
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", CPU_PROBES)
@pytest.mark.parametrize("precision", [Precision.SINGLE, Precision.DOUBLE])
def test_cpu_batched_equals_scalar(name, precision):
    platform = default_platform()
    pricing = platform.pricing_model()
    bench = create(name, precision=precision, scale=0.1, platform=platform)
    _, mix, traits, n = cpu_pricing_inputs(bench)
    # several element counts priced in one board stack, compared
    # cell-by-cell against the scalar reference
    ns = (n, max(1, n // 3), 2 * n + 1)
    for mode, scalar in (
        (MODE_SERIAL, _time_serial_scalar),
        (MODE_OPENMP, _time_openmp_scalar),
    ):
        cells = [
            CpuCell(mix=mix, mode=mode, n_elements=k, traits=traits) for k in ns
        ]
        rows = CpuConfigStack(
            cells, platform.cpu, pricing.dram_model, pricing.cpu_caches
        ).timings()
        for k, row in zip(ns, rows):
            expected = scalar(
                mix, k, traits, platform.cpu, pricing.dram_model, pricing.cpu_caches
            )
            assert row == expected  # full CpuTiming, bitwise


def test_cpu_rejects_unknown_mode_and_bad_n():
    platform = default_platform()
    pricing = platform.pricing_model()
    bench = create("vecop", scale=0.1, platform=platform)
    _, mix, traits, _ = cpu_pricing_inputs(bench)
    with pytest.raises(ValueError):
        CpuCell(mix=mix, mode="simd", n_elements=8, traits=traits)
    cell = CpuCell(mix=mix, mode=MODE_SERIAL, n_elements=0, traits=traits)
    with pytest.raises(ValueError):
        pricing.cpu.price_one(cell)


# ---------------------------------------------------------------------------
# GPU layer
# ---------------------------------------------------------------------------


def _gpu_cells(bench, pricing):
    """Every compilable (options, local) probe point of one benchmark."""
    quirks = (
        bench.platform.driver_quirks
        if bench.platform.driver_quirks is not None
        else default_quirks()
    )
    cells = []
    for options in GPU_OPTIONS:
        try:
            compiled = compile_kernel(bench.kernel_ir(options), options, quirks=quirks)
        except Exception:  # noqa: BLE001 — infeasible candidate (e.g. DP quirk)
            continue
        base_items = max(1, -(-bench.elements() // compiled.elems_per_item))
        traits = bench.gpu_traits(options)
        for local in (64, 128):
            n_items = -(-base_items // local) * local
            cells.append(
                GpuLaunchCell(
                    compiled=compiled,
                    traits=traits,
                    n_items=n_items,
                    local_size=local,
                )
            )
    return cells


@pytest.mark.parametrize("name", GPU_PROBES)
@pytest.mark.parametrize("precision", [Precision.SINGLE, Precision.DOUBLE])
def test_gpu_batched_equals_scalar(name, precision):
    platform = default_platform()
    pricing = platform.pricing_model()
    bench = create(name, precision=precision, scale=0.1, platform=platform)
    cells = _gpu_cells(bench, pricing)
    assert cells, "no compilable GPU probe points"
    rows = GpuConfigStack(
        cells, platform.mali, pricing.dram_model, pricing.gpu_caches
    ).timings()
    for cell, row in zip(cells, rows):
        expected = _time_launch_uncached(
            cell.compiled,
            cell.n_items,
            cell.local_size,
            cell.traits,
            platform.mali,
            pricing.dram_model,
            pricing.gpu_caches,
        )
        assert row == expected  # full GpuLaunchTiming, bitwise


def test_gpu_dp_wide_probe_compiles_somewhere():
    """The DP grid keeps at least one multi-width point alive, so the
    register-pressure path above is actually exercised."""
    platform = default_platform()
    pricing = platform.pricing_model()
    widths = set()
    for name in GPU_PROBES:
        bench = create(name, precision=Precision.DOUBLE, scale=0.1, platform=platform)
        widths.update(c.compiled.options.vector_width for c in _gpu_cells(bench, pricing))
    assert any(w > 1 for w in widths)


# ---------------------------------------------------------------------------
# non-board SoC configs: the kernel vs the oracle on config.platform()
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _candidate_cells():
    """Every compiled tuner candidate of all nine benchmarks, SP and DP,
    as launch cells, plus each benchmark's Serial and OpenMP cells."""
    from repro.designspace import DesignSpace

    space = DesignSpace(scale=0.05)
    return space.gpu_cells, space.cpu_cells


_SOC_CONFIGS = st.builds(
    SoCConfig,
    name=st.just("drawn"),
    gpu_cores=st.integers(min_value=1, max_value=32),
    gpu_clock_hz=st.floats(min_value=100e6, max_value=2e9),
    cpu_cores=st.integers(min_value=1, max_value=16),
    cpu_clock_hz=st.floats(min_value=200e6, max_value=4e9),
    dram_gbps=st.floats(min_value=1.0, max_value=100.0),
    # below 1.0 the register-hungry DP candidates stop fitting
    register_file_scale=st.sampled_from((0.125, 0.25, 0.5, 1.0, 2.0, 4.0))
    | st.floats(min_value=0.125, max_value=4.0),
    rail_scale=st.floats(min_value=0.1, max_value=10.0),
)

#: GpuLaunchTiming fields with a (configs × cells) lane in the stack rows
_GPU_LANES = (
    ("seconds", "seconds"),
    ("arith_seconds", "arith_seconds"),
    ("ls_seconds", "ls_seconds"),
    ("dram_seconds", "dram_seconds"),
    ("atomic_seconds", "atomic_seconds"),
    ("barrier_seconds", "barrier_seconds"),
    ("schedule_seconds", "schedule_seconds"),
    ("imbalance", "imbalance_factor"),
)
_CPU_LANES = (
    "seconds",
    "compute_seconds",
    "mem_stall_seconds",
    "dram_seconds",
    "overhead_seconds",
    "active_cores",
    "ipc",
)


@given(config=_SOC_CONFIGS, data=st.data())
@settings(
    max_examples=examples(30),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_non_board_configs_match_oracle(config, data):
    """A random SoC and a random SP/DP candidate subset: the kernel's
    records on ``config.platform()`` equal the oracle's, and so do the
    design-space lanes (the Exynos stacks with the config's knobs as
    columns); an infeasible lane raises ``CL_OUT_OF_RESOURCES`` on both
    sides."""
    gpu_pool, cpu_pool = _candidate_cells()
    gpu_idx = data.draw(
        st.lists(
            st.integers(0, len(gpu_pool) - 1), min_size=1, max_size=8, unique=True
        ),
        label="gpu cells",
    )
    cpu_idx = data.draw(
        st.lists(
            st.integers(0, len(cpu_pool) - 1), min_size=1, max_size=4, unique=True
        ),
        label="cpu cells",
    )
    gpu_cells = [gpu_pool[i] for i in gpu_idx]
    cpu_cells = [cpu_pool[i] for i in cpu_idx]
    platform = config.platform()
    pricing = platform.pricing_model()
    dram = pricing.dram_model
    base = default_platform()

    rows = GpuConfigStack(
        gpu_cells, base.mali, base.dram_model(), base.gpu_caches()
    ).rows(
        shader_cores=[config.gpu_cores],
        clock_hz=[config.gpu_clock_hz],
        register_file_scale=[config.register_file_scale],
        drams=[dram],
    )
    for i, cell in enumerate(gpu_cells):
        try:
            expected = _time_launch_uncached(
                cell.compiled, cell.n_items, cell.local_size, cell.traits,
                platform.mali, dram, pricing.gpu_caches,
            )
        except CLOutOfResources:
            with pytest.raises(CLOutOfResources):
                pricing.gpu.price_one(cell)
            assert not rows.feasible[0, i]
            continue
        assert pricing.gpu.price_one(cell) == expected  # full record, bitwise
        assert rows.feasible[0, i]
        for lane, field in _GPU_LANES:
            assert getattr(rows, lane)[0, i] == getattr(expected, field), lane
        assert ("arith", "ls", "dram", "atomic")[rows.bottleneck[0, i]] == expected.bottleneck

    expected = tuple(
        (_time_serial_scalar if cell.mode == MODE_SERIAL else _time_openmp_scalar)(
            cell.mix, cell.n_elements, cell.traits, platform.cpu, dram,
            pricing.cpu_caches,
        )
        for cell in cpu_cells
    )
    assert tuple(pricing.cpu.price_one(cell) for cell in cpu_cells) == expected
    rows = CpuConfigStack(
        cpu_cells, base.cpu, base.dram_model(), base.cpu_caches()
    ).rows(cores=[config.cpu_cores], clock_hz=[config.cpu_clock_hz], drams=[dram])
    for i, timing in enumerate(expected):
        for lane in _CPU_LANES:
            assert getattr(rows, lane)[0, i] == getattr(timing, lane), lane


# ---------------------------------------------------------------------------
# DRAM layer (hypothesis: randomized byte mixes, order-sensitive dicts)
# ---------------------------------------------------------------------------

_patterns = st.permutations(list(AccessPattern)).flatmap(
    lambda order: st.lists(
        st.floats(min_value=0.0, max_value=1e10), min_size=len(order), max_size=len(order)
    ).map(lambda sizes: dict(zip(order, sizes)))
)


#: the byte mix that once crashed ``transfer_seconds``: 5e-324 / 4.0
#: underflows to 0, so the blend's denominator is 0
_UNDERFLOW_MIX = {
    p: (5e-324 if p is AccessPattern.BROADCAST else 0.0) for p in AccessPattern
}


@given(
    mix=_patterns,
    agent=st.sampled_from(["cpu1", "cpu2", "gpu"]),
    agents=st.integers(min_value=1, max_value=3),
)
@example(mix=_UNDERFLOW_MIX, agent="gpu", agents=1)
@settings(max_examples=examples(200), deadline=None)
def test_dram_transfer_seconds_is_finite(mix, agent, agents):
    """Finite and >= 0; 0 for an empty mix and at least ``total / peak``
    otherwise (so positive unless that quotient underflows)."""
    dram = default_platform().dram_model()
    seconds = dram.transfer_seconds(agent, bytes_by_pattern=mix, concurrent_agents=agents)
    total = sum(mix.values())
    assert math.isfinite(seconds) and seconds >= 0.0
    if total <= 0.0:
        assert seconds == 0.0
    else:
        assert seconds >= total / dram.config.peak_bandwidth


# ---------------------------------------------------------------------------
# power layer (hypothesis: randomized activity sequences)
# ---------------------------------------------------------------------------

_activity = st.builds(
    Activity,
    kind=st.sampled_from(list(ActivityKind)),
    duration_s=st.floats(min_value=1e-9, max_value=100.0),
    active_cpu_cores=st.integers(min_value=0, max_value=2),
    cpu_ipc=st.floats(min_value=0.0, max_value=3.0),
    gpu_alu_utilization=st.floats(min_value=0.0, max_value=1.0),
    gpu_ls_utilization=st.floats(min_value=0.0, max_value=1.0),
    dram_bandwidth=st.floats(min_value=0.0, max_value=1.3e10),
)


@given(traces=st.lists(st.lists(_activity, min_size=1, max_size=5), min_size=1, max_size=4))
@settings(max_examples=examples(40), deadline=None)
def test_power_batched_equals_scalar(traces):
    """:func:`stack_watts` over every activity of one kind at once gives
    each trace ``BoardPowerModel.trace`` builds, bit for bit."""
    board = default_platform().power_model()
    acts = [a for trace in traces for a in trace]
    watts = [None] * len(acts)
    for kind in ActivityKind:
        idx = [i for i, a in enumerate(acts) if a.kind == kind]
        if not idx:
            continue

        def column(field, idx=idx):
            return np.asarray([float(getattr(acts[i], field)) for i in idx])

        lanes = stack_watts(
            board.rails,
            kind,
            dram_bandwidth=column("dram_bandwidth"),
            active_cpu_cores=column("active_cpu_cores"),
            cpu_ipc=column("cpu_ipc"),
            gpu_alu_utilization=column("gpu_alu_utilization"),
            gpu_ls_utilization=column("gpu_ls_utilization"),
        )
        for i, w in zip(idx, lanes.tolist()):
            watts[i] = w
    start = 0
    for trace in traces:
        segments = tuple(
            TraceSegment(duration_s=a.duration_s, watts=watts[start + k])
            for k, a in enumerate(trace)
            if a.duration_s > 0.0
        )
        start += len(trace)
        assert PowerTrace(segments) == board.trace(list(trace))  # full trace, bitwise


def test_power_rejects_all_zero_durations():
    pricing = default_platform().pricing_model()
    activities = (Activity(kind=ActivityKind.IDLE, duration_s=0.0),)
    with pytest.raises(ValueError):
        pricing.power_model.trace(list(activities))
    with pytest.raises(ValueError):
        pricing.power.price_one(TraceCell(activities=activities))


# ---------------------------------------------------------------------------
# shims: the historical entry points still answer bitwise the same
# ---------------------------------------------------------------------------


def test_scalar_shims_match_references():
    platform = default_platform()
    pricing = platform.pricing_model()
    from repro.cpu.openmp import time_openmp
    from repro.cpu.serial import time_serial

    for precision in (Precision.SINGLE, Precision.DOUBLE):
        bench = create("hist", precision=precision, scale=0.1, platform=platform)
        _, mix, traits, n = cpu_pricing_inputs(bench)
        args = (mix, n, traits, platform.cpu, pricing.dram_model, pricing.cpu_caches)
        assert time_serial(*args) == _time_serial_scalar(*args)
        assert time_openmp(*args) == _time_openmp_scalar(*args)


def test_dp_register_collapse_survives_in_rows():
    """DP wide kernels land in a different occupancy regime than SP; the
    batched rows must reproduce that collapse, not smooth it out."""
    platform = default_platform()
    pricing = platform.pricing_model()
    rows = {}
    for precision in (Precision.SINGLE, Precision.DOUBLE):
        bench = create("nbody", precision=precision, scale=0.1, platform=platform)
        cells = [
            c for c in _gpu_cells(bench, pricing)
            if c.compiled.options.vector_width > 1 and c.local_size == 128
        ]
        if cells:
            rows[precision] = GpuConfigStack(
                cells, platform.mali, pricing.dram_model, pricing.gpu_caches
            ).timings()
    for precision, priced in rows.items():
        for row in priced:
            assert dataclasses.asdict(row)  # rows are real dataclasses
            assert row.seconds > 0.0
