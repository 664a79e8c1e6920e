"""Unit tests for the mini-OpenCL runtime."""

import gc
import weakref

import numpy as np
import pytest

from repro import perf
from repro.benchmarks.base import Version, run_version
from repro.benchmarks.registry import create
from repro.compiler import CompileOptions
from repro.errors import (
    CLBuildProgramFailure,
    CLInvalidKernelArgs,
    CLInvalidMemObject,
    CLInvalidValue,
    CLInvalidWorkGroupSize,
    CLOutOfResources,
)
from repro.ir import F32, F64, KernelBuilder, OpKind
from repro.memory.cache import StreamSpec
from repro.ocl import (
    Buffer,
    CommandQueue,
    CommandType,
    Context,
    DeviceType,
    KernelSpec,
    MapFlag,
    MemFlag,
    Program,
    copy_seconds,
    driver_local_size,
    get_platforms,
    map_seconds,
)
from repro.workload import WorkloadTraits


@pytest.fixture()
def ctx():
    return Context(get_platforms()[0].get_devices()[0])


@pytest.fixture()
def queue(ctx):
    return CommandQueue(ctx)


def double_kernel_spec(n, dtype=F32):
    b = KernelBuilder("twice")
    b.buffer("src", dtype)
    b.buffer("dst", dtype)
    b.load(dtype, param="src")
    b.arith(OpKind.MUL, dtype)
    b.store(dtype, param="dst")
    ir = b.build(base_live_values=4.0)

    def func(src, dst):
        np.multiply(src, 2.0, out=dst)

    fsize = 8 if dtype is F64 else 4
    traits = WorkloadTraits(
        streams=(StreamSpec("src", float(n * fsize)), StreamSpec("dst", float(n * fsize))),
        elements=n,
    )
    return KernelSpec(ir=ir, func=func, traits=traits)


class TestPlatformDiscovery:
    def test_one_arm_platform_with_mali(self):
        platforms = get_platforms()
        assert len(platforms) == 1
        assert platforms[0].vendor == "ARM"
        devices = platforms[0].get_devices(DeviceType.GPU)
        assert devices[0].name == "Mali-T604"

    def test_full_profile_with_fp64(self):
        dev = get_platforms()[0].get_devices()[0]
        assert dev.profile == "FULL_PROFILE"
        assert dev.supports_fp64()
        assert dev.max_compute_units == 4
        assert dev.max_work_group_size == 256


class TestBuffers:
    def test_alloc_host_ptr_is_zero_copy(self, ctx):
        buf = Buffer(ctx, MemFlag.ALLOC_HOST_PTR, shape=16, dtype=np.float32)
        assert buf.zero_copy
        assert buf.size == 64

    def test_use_host_ptr_keeps_separate_device_storage(self, ctx, queue):
        host = np.arange(8, dtype=np.float32)
        buf = Buffer(ctx, MemFlag.USE_HOST_PTR, hostbuf=host)
        assert not buf.zero_copy
        # device copy is not initialized until an explicit write
        assert not np.array_equal(buf.device_view(), host)
        queue.enqueue_write_buffer(buf)
        assert np.array_equal(buf.device_view(), host)

    def test_copy_host_ptr_initializes(self, ctx):
        host = np.arange(8, dtype=np.float32)
        buf = Buffer(ctx, MemFlag.COPY_HOST_PTR, hostbuf=host)
        assert np.array_equal(buf.device_view(), host)

    def test_conflicting_flags_rejected(self, ctx):
        host = np.zeros(4, dtype=np.float32)
        with pytest.raises(CLInvalidValue):
            Buffer(ctx, MemFlag.USE_HOST_PTR | MemFlag.ALLOC_HOST_PTR, hostbuf=host)

    def test_needs_shape_or_hostbuf(self, ctx):
        with pytest.raises(CLInvalidValue):
            Buffer(ctx, MemFlag.READ_WRITE)

    def test_mapped_buffer_unusable_by_kernels(self, ctx, queue):
        buf = Buffer(ctx, MemFlag.ALLOC_HOST_PTR, shape=4, dtype=np.float32)
        queue.enqueue_map_buffer(buf)
        with pytest.raises(CLInvalidMemObject, match="mapped"):
            buf.device_view()
        queue.enqueue_unmap_mem_object(buf)
        buf.device_view()  # fine again

    def test_double_map_rejected(self, ctx, queue):
        buf = Buffer(ctx, MemFlag.ALLOC_HOST_PTR, shape=4, dtype=np.float32)
        queue.enqueue_map_buffer(buf)
        with pytest.raises(CLInvalidMemObject):
            queue.enqueue_map_buffer(buf)

    def test_released_buffer_unusable(self, ctx):
        buf = Buffer(ctx, MemFlag.ALLOC_HOST_PTR, shape=4, dtype=np.float32)
        buf.release()
        with pytest.raises(CLInvalidMemObject):
            buf.device_view()

    def test_size_mismatch_on_write(self, ctx, queue):
        buf = Buffer(ctx, MemFlag.READ_WRITE, shape=4, dtype=np.float32)
        with pytest.raises(CLInvalidValue):
            queue.enqueue_write_buffer(buf, np.zeros(8, dtype=np.float32))

    def test_context_tracks_allocations(self, ctx):
        # the context holds buffers weakly: keep this one alive by name
        buf = Buffer(ctx, MemFlag.READ_WRITE, shape=256, dtype=np.float32)
        assert ctx.allocated_bytes == 1024
        del buf
        assert ctx.allocated_bytes == 0

    def test_no_buffer_outlives_its_run(self, monkeypatch):
        """With the collector off, every buffer of a GPU run is freed by
        reference counting alone: no ``Buffer`` <-> ``Context`` cycle
        keeps a run's arrays alive until a full collection."""
        created = []
        init = Buffer.__init__

        def tracked_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            created.append(weakref.ref(self))

        monkeypatch.setattr(Buffer, "__init__", tracked_init)
        perf.reset()
        bench = create("vecop", scale=0.2)
        gc.disable()
        try:
            for version in (Version.OPENCL, Version.OPENCL_OPT):
                assert run_version(bench, version=version).ok
            alive = [ref for ref in created if ref() is not None]
        finally:
            gc.enable()
            perf.reset()
        assert created
        assert not alive, f"{len(alive)} of {len(created)} buffers outlived their run"


class TestTransferCosts:
    def test_map_cheaper_than_copy_for_zero_copy(self):
        nbytes = 1 << 20
        assert map_seconds(nbytes, zero_copy=True) < copy_seconds(nbytes)

    def test_map_of_plain_buffer_degenerates_to_copy(self):
        nbytes = 1 << 20
        assert map_seconds(nbytes, zero_copy=False) == pytest.approx(copy_seconds(nbytes))

    def test_copy_scales_with_bytes(self):
        assert copy_seconds(2 << 20) > copy_seconds(1 << 20)


class TestDriverLocalSize:
    def test_picks_pow2_divisor_up_to_128(self):
        assert driver_local_size(1 << 20, 256) == 128
        assert driver_local_size(96, 256) == 32
        assert driver_local_size(100, 256) == 4
        assert driver_local_size(7, 256) == 1

    def test_invalid_global(self):
        with pytest.raises(ValueError):
            driver_local_size(0, 256)


class TestProgramAndKernel:
    def test_build_and_run(self, ctx, queue):
        n = 1 << 16
        spec = double_kernel_spec(n)
        program = Program(ctx, [spec]).build()
        kern = program.create_kernel("twice")
        src = Buffer(ctx, MemFlag.COPY_HOST_PTR, hostbuf=np.ones(n, dtype=np.float32))
        dst = Buffer(ctx, MemFlag.READ_WRITE, shape=n, dtype=np.float32)
        kern.set_args(src, dst)
        event = queue.enqueue_nd_range_kernel(kern, n, 128)
        assert event.command_type == CommandType.NDRANGE_KERNEL
        assert event.duration_s > 0
        assert np.all(dst.device_view() == 2.0)

    def test_unbuilt_program_cannot_create_kernels(self, ctx):
        program = Program(ctx, [double_kernel_spec(16)])
        with pytest.raises(CLInvalidValue):
            program.create_kernel("twice")

    def test_unknown_kernel_name(self, ctx):
        program = Program(ctx, [double_kernel_spec(16)]).build()
        with pytest.raises(CLInvalidValue):
            program.create_kernel("nope")

    def test_unset_args_rejected_at_launch(self, ctx, queue):
        program = Program(ctx, [double_kernel_spec(16)]).build()
        kern = program.create_kernel("twice")
        with pytest.raises(CLInvalidKernelArgs):
            queue.enqueue_nd_range_kernel(kern, 16, 16)

    def test_wrong_arg_count(self, ctx):
        program = Program(ctx, [double_kernel_spec(16)]).build()
        kern = program.create_kernel("twice")
        with pytest.raises(CLInvalidKernelArgs):
            kern.set_args(1, 2, 3)

    def test_indivisible_local_size_rejected(self, ctx, queue):
        n = 100
        program = Program(ctx, [double_kernel_spec(n)]).build()
        kern = program.create_kernel("twice")
        kern.set_args(
            Buffer(ctx, MemFlag.READ_WRITE, shape=n, dtype=np.float32),
            Buffer(ctx, MemFlag.READ_WRITE, shape=n, dtype=np.float32),
        )
        with pytest.raises(CLInvalidWorkGroupSize):
            queue.enqueue_nd_range_kernel(kern, n, 64)

    def test_oversized_local_rejected(self, ctx, queue):
        program = Program(ctx, [double_kernel_spec(1024)]).build()
        kern = program.create_kernel("twice")
        kern.set_args(
            Buffer(ctx, MemFlag.READ_WRITE, shape=1024, dtype=np.float32),
            Buffer(ctx, MemFlag.READ_WRITE, shape=1024, dtype=np.float32),
        )
        with pytest.raises(CLInvalidWorkGroupSize):
            queue.enqueue_nd_range_kernel(kern, 1024, 512)

    def test_fp64_rng_kernel_fails_at_build(self, ctx):
        b = KernelBuilder("mc")
        b.buffer("x", F64)
        with b.call("lcg_rand"):
            b.arith(OpKind.MUL, F64, vectorizable=False)
        spec = KernelSpec(ir=b.build(), func=lambda x: None, traits=WorkloadTraits(elements=1))
        with pytest.raises(CLBuildProgramFailure):
            Program(ctx, [spec]).build()

    def test_register_exhaustion_fails_at_launch_not_build(self, ctx, queue):
        b = KernelBuilder("fat")
        b.buffer("x", F64)
        b.load(F64, param="x")
        b.arith(OpKind.FMA, F64)
        spec = KernelSpec(
            ir=b.build(base_live_values=20.0), func=lambda x: None,
            traits=WorkloadTraits(elements=1),
        )
        program = Program(ctx, [spec]).build(CompileOptions(vector_width=16, unroll=4))
        kern = program.create_kernel("fat")  # creation is fine
        kern.set_args(Buffer(ctx, MemFlag.READ_WRITE, shape=16, dtype=np.float64))
        with pytest.raises(CLOutOfResources):
            queue.enqueue_nd_range_kernel(kern, 1024, 128)

    def test_global_size_for_rounds_up(self, ctx):
        program = Program(ctx, [double_kernel_spec(100)]).build(CompileOptions(vector_width=4))
        kern = program.create_kernel("twice")
        assert kern.elems_per_item == 4
        assert kern.global_size_for(100) == 25
        assert kern.global_size_for(101) == 26


class TestQueueTimeline:
    def test_events_and_clock_advance(self, ctx, queue):
        buf = Buffer(ctx, MemFlag.ALLOC_HOST_PTR, shape=1 << 16, dtype=np.float32)
        queue.enqueue_map_buffer(buf)
        queue.enqueue_unmap_mem_object(buf)
        assert len(queue.events) == 2
        assert queue.elapsed_s > 0
        assert queue.events[1].start_s == queue.events[0].end_s

    def test_reset_timeline(self, ctx, queue):
        buf = Buffer(ctx, MemFlag.ALLOC_HOST_PTR, shape=16, dtype=np.float32)
        queue.enqueue_map_buffer(buf)
        queue.enqueue_unmap_mem_object(buf)
        queue.reset_timeline()
        assert queue.elapsed_s == 0.0
        assert queue.timeline == [] and queue.events == []

    def test_driver_picks_local_size_when_none(self, ctx, queue):
        n = 1 << 16
        program = Program(ctx, [double_kernel_spec(n)]).build()
        kern = program.create_kernel("twice")
        kern.set_args(
            Buffer(ctx, MemFlag.READ_WRITE, shape=n, dtype=np.float32),
            Buffer(ctx, MemFlag.READ_WRITE, shape=n, dtype=np.float32),
        )
        event = queue.enqueue_nd_range_kernel(kern, n, None)
        assert event.info["local_size"] == 128
