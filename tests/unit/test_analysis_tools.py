"""Unit tests for repro.analysis (roofline, timeline)."""

import math

import numpy as np
import pytest

from repro.analysis import (
    Bound,
    DeviceRoofline,
    cpu_roofline,
    dram_intensity,
    format_gantt,
    format_power_sparkline,
    format_roofline_chart,
    gpu_roofline,
    operational_intensity,
    place,
    rows_from_events,
    speedup_ceiling,
    utilization_by_lane,
)
from repro.benchmarks import create
from repro.compiler.options import NAIVE
from repro.ir import F32, KernelBuilder, OpKind, analyze
from repro.power.model import PowerTrace, TraceSegment


def kernel_with_intensity(flops_per_load: float):
    b = KernelBuilder("k")
    b.buffer("x", F32)
    b.load(F32, param="x")
    b.arith(OpKind.ADD, F32, count=flops_per_load * 4.0)  # ADD = 1 flop
    return b.build()


class TestDeviceRoofline:
    def test_ridge_point(self):
        d = DeviceRoofline("d", peak_flops=32e9, peak_bandwidth=8e9)
        assert d.ridge_intensity == 4.0

    def test_attainable(self):
        d = DeviceRoofline("d", peak_flops=32e9, peak_bandwidth=8e9)
        assert d.attainable_flops(1.0) == 8e9
        assert d.attainable_flops(100.0) == 32e9
        with pytest.raises(ValueError):
            d.attainable_flops(-1.0)

    def test_classification(self):
        d = DeviceRoofline("d", peak_flops=32e9, peak_bandwidth=8e9)
        assert d.classify(0.5) is Bound.BANDWIDTH
        assert d.classify(40.0) is Bound.COMPUTE
        assert d.classify(4.0) is Bound.BALANCED

    def test_gpu_roofline_fp64_lower(self):
        assert gpu_roofline(double_precision=True).peak_flops < gpu_roofline().peak_flops

    def test_gpu_beats_cpu_peak(self):
        assert gpu_roofline().peak_flops > cpu_roofline().peak_flops


class TestIntensity:
    def test_operational_intensity(self):
        mix = analyze(kernel_with_intensity(2.0))
        assert operational_intensity(mix) == pytest.approx(2.0)

    def test_pure_compute_is_infinite(self):
        b = KernelBuilder("k")
        b.arith(OpKind.FMA, F32)
        assert math.isinf(operational_intensity(analyze(b.build())))

    def test_no_work_is_zero(self):
        b = KernelBuilder("k")
        b.buffer("x", F32)
        b.load(F32, param="x")
        assert operational_intensity(analyze(b.build())) == 0.0

    def test_dram_intensity_exceeds_raw_for_cached_kernels(self):
        bench = create("dmmm", scale=0.25)
        main = bench.main_launch(NAIVE)
        raw = operational_intensity(analyze(main.spec.ir))
        cached = dram_intensity(
            main.spec.ir,
            main.spec.traits,
            bench.platform.gpu_caches(),
            main.work_items(main.spec.ir.elems_per_item),
        )
        assert cached > raw * 0.9  # caches never make intensity drop much


class TestPlacement:
    def test_vecop_is_bandwidth_bound(self):
        bench = create("vecop", scale=0.05)
        p = place(bench.kernel_ir(NAIVE), gpu_roofline())
        assert p.bound is Bound.BANDWIDTH
        assert p.efficiency_ceiling < 0.2

    def test_amcd_is_compute_bound(self):
        bench = create("amcd", scale=0.05)
        p = place(bench.kernel_ir(NAIVE), gpu_roofline())
        assert p.bound is Bound.COMPUTE
        assert p.efficiency_ceiling == pytest.approx(1.0)

    def test_speedup_ceiling_orders_benchmarks(self):
        gpu, cpu = gpu_roofline(), cpu_roofline()
        vecop = create("vecop", scale=0.05)
        amcd = create("amcd", scale=0.05)
        assert speedup_ceiling(amcd.kernel_ir(NAIVE), gpu, cpu) > speedup_ceiling(
            vecop.kernel_ir(NAIVE), gpu, cpu
        )

    def test_chart_renders(self):
        bench = create("vecop", scale=0.05)
        chart = format_roofline_chart([place(bench.kernel_ir(NAIVE), gpu_roofline())])
        assert "ridge" in chart and "vecop" in chart
        with pytest.raises(ValueError):
            format_roofline_chart([])


class TestTimeline:
    @pytest.fixture()
    def events(self):
        from repro.ocl import Buffer, CommandQueue, Context, MemFlag, get_platforms

        ctx = Context(get_platforms()[0].get_devices()[0])
        queue = CommandQueue(ctx)
        buf = Buffer(ctx, MemFlag.ALLOC_HOST_PTR, shape=1 << 16, dtype=np.float32)
        queue.enqueue_map_buffer(buf)
        queue.enqueue_unmap_mem_object(buf)
        return queue.events

    def test_rows_cover_events(self, events):
        rows = rows_from_events(events)
        assert len(rows) == 2
        assert all(r.lane == "host" for r in rows)
        assert rows[0].end_s <= rows[1].start_s + 1e-12

    def test_gantt_renders(self, events):
        text = format_gantt(events)
        assert "timeline" in text
        assert "map_buffer" in text
        assert format_gantt([]) == "(empty timeline)"

    def test_utilization_sums_to_at_most_one_per_lane(self, events):
        util = utilization_by_lane(events)
        assert 0.0 < util["host"] <= 1.0
        assert utilization_by_lane([]) == {}

    def test_sparkline(self):
        trace = PowerTrace((TraceSegment(1.0, 2.0), TraceSegment(1.0, 6.0)))
        text = format_power_sparkline(trace, width=16)
        assert "2.00W..6.00W" in text
        assert "|" in text

    def test_sparkline_flat_trace(self):
        trace = PowerTrace((TraceSegment(1.0, 3.0),))
        text = format_power_sparkline(trace, width=8)
        assert "3.00W..3.00W" in text
