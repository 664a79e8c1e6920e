"""Unit tests: every benchmark builds valid IR, traits and numerics."""

import sys
import threading

import numpy as np
import pytest
import scipy.sparse as sp

from repro import perf
from repro.benchmarks import BENCHMARKS, PAPER_ORDER, Precision, create
from repro.compiler.options import NAIVE, CompileOptions
from repro.ir import analyze, validate

SMALL = 0.02  # tiny instances: numerics/structure only


@pytest.fixture(scope="module", params=PAPER_ORDER)
def bench(request):
    return create(request.param, scale=SMALL)


class TestRegistry:
    def test_paper_order_complete(self):
        assert len(PAPER_ORDER) == 9
        assert set(BENCHMARKS) == set(PAPER_ORDER)

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            create("quicksort")

    def test_create_respects_precision(self):
        b = create("vecop", precision=Precision.DOUBLE, scale=SMALL)
        assert b.ftype == np.float64

    def test_invalid_scale_rejected(self):
        with pytest.raises(ValueError):
            create("vecop", scale=0.0)


class TestStructure:
    def test_kernel_ir_validates(self, bench):
        for options in (NAIVE, CompileOptions(vector_width=4, qualifiers=True)):
            validate(bench.kernel_ir(options))

    def test_serial_ir_validates(self, bench):
        validate(bench.serial_ir())

    def test_serial_mix_nonempty(self, bench):
        mix = analyze(bench.serial_ir())
        assert mix.total_issues() > 0

    def test_elements_positive(self, bench):
        assert bench.elements() > 0

    def test_cpu_traits_streams_sane(self, bench):
        traits = bench.cpu_traits()
        assert traits.streams, "every benchmark touches memory"
        names = [s.name for s in traits.streams]
        assert len(names) == len(set(names)), "stream names must be unique"
        for s in traits.streams:
            assert s.footprint_bytes > 0

    def test_gpu_traits_available_for_both_sources(self, bench):
        for options in (NAIVE, CompileOptions(vector_width=4, qualifiers=True)):
            traits = bench.gpu_traits(options)
            assert traits.streams

    def test_tuning_space_nonempty_and_valid(self, bench):
        space = list(bench.tuning_space())
        assert len(space) >= 4
        for options, local in space:
            assert isinstance(options, CompileOptions)
            assert options.any_enabled
            assert local is None or local in (32, 64, 128, 192, 256)


class TestNumerics:
    @pytest.mark.parametrize("precision", [Precision.SINGLE, Precision.DOUBLE])
    @pytest.mark.parametrize("name", PAPER_ORDER)
    def test_run_numpy_matches_reference(self, name, precision):
        bench = create(name, precision=precision, scale=SMALL, seed=7)
        assert bench.verify(bench.run_numpy())

    @pytest.mark.parametrize("name", PAPER_ORDER)
    def test_deterministic_given_seed(self, name):
        a = create(name, scale=SMALL, seed=3).run_numpy()
        b = create(name, scale=SMALL, seed=3).run_numpy()
        np.testing.assert_array_equal(np.asarray(a), np.asarray(b))

    def test_verify_rejects_garbage(self, bench):
        good = np.asarray(bench.reference_result())
        bad = np.asarray(good, dtype=good.dtype).copy()
        bad = bad + np.ones_like(bad) * (np.abs(bad).max() + 1.0)
        assert not bench.verify(bad)


class TestBenchmarkSpecifics:
    def test_spmv_imbalance_measured_from_matrix(self):
        bench = create("spmv", scale=SMALL)
        assert bench.imbalance_cv > 0.3  # log-normal rows are ragged
        assert bench.cpu_traits().imbalance_cv == bench.imbalance_cv

    def test_hist_hot_fraction_measured(self):
        bench = create("hist", scale=SMALL)
        assert 1.0 / bench.BUCKETS < bench.hot_fraction < 0.2

    def test_hist_source_variants(self):
        bench = create("hist", scale=SMALL)
        assert bench.kernel_ir(NAIVE).name == "hist_global_atomic"
        assert bench.kernel_ir(CompileOptions(qualifiers=True)).name == "hist_privatized"

    def test_dmmm_source_variants(self):
        bench = create("dmmm", scale=SMALL)
        assert bench.kernel_ir(NAIVE).name == "dmmm_naive"
        assert bench.kernel_ir(CompileOptions(vector_width=4)).name == "dmmm_tiled"
        assert bench.serial_ir().name == "dmmm_serial"

    def test_nbody_keeps_aos(self):
        bench = create("nbody", scale=SMALL)
        for options, _ in bench.tuning_space():
            assert options.vector_width == 1  # the paper never vectorized nbody
            assert not options.soa

    def test_amcd_kernel_has_rng_helper(self):
        from repro.ir import Call, walk_stmts

        bench = create("amcd", scale=SMALL)
        calls = [s for s in walk_stmts(bench.kernel_ir(NAIVE).body) if isinstance(s, Call)]
        assert any(c.name == "lcg_rand" for c in calls)

    def test_red_naive_interleaves_opt_streams(self):
        from repro.ir import MemAccess, walk_stmts

        bench = create("red", scale=SMALL)
        naive_loads = [
            s for s in walk_stmts(bench.kernel_ir(NAIVE).body)
            if isinstance(s, MemAccess) and s.param == "data"
        ]
        opt_loads = [
            s for s in walk_stmts(bench.kernel_ir(CompileOptions(qualifiers=True)).body)
            if isinstance(s, MemAccess) and s.param == "data"
        ]
        assert not naive_loads[0].sequential
        assert opt_loads[0].sequential

    def test_conv2d_filter_space_depends_on_source(self):
        from repro.ir import MemSpace

        bench = create("2dcon", scale=SMALL)
        naive = bench.kernel_ir(NAIVE)
        opt = bench.kernel_ir(CompileOptions(qualifiers=True))
        assert naive.param("filt").space == MemSpace.GLOBAL
        assert opt.param("filt").space == MemSpace.CONSTANT

    def test_vecop_memory_bound_character(self):
        bench = create("vecop", scale=SMALL)
        mix = analyze(bench.kernel_ir(NAIVE))
        # about one flop per 12 bytes: firmly under the roofline
        assert mix.flops() / mix.bytes_moved() < 0.25

    def test_nbody_compute_bound_character(self):
        bench = create("nbody", scale=SMALL)
        mix = analyze(bench.kernel_ir(NAIVE))
        assert mix.flops() / mix.bytes_moved() > 1.0


# ---------------------------------------------------------------------------
# shared draws: SP and DP instances of one benchmark reuse the inputs
# ---------------------------------------------------------------------------


def _state(bench) -> dict:
    """Every array (sparse matrices split into their parts) and every
    scalar of an instance, as comparable ``(dtype, bytes)`` / values."""
    out = {}
    for name, value in vars(bench).items():
        if sp.issparse(value):
            for part in ("data", "indices", "indptr"):
                array = getattr(value, part)
                out[f"{name}.{part}"] = (array.dtype.str, array.tobytes())
        elif isinstance(value, np.ndarray):
            out[name] = (value.dtype.str, value.tobytes())
        elif isinstance(value, (int, float)):
            out[name] = value
    return out


def _arrays(bench) -> list[np.ndarray]:
    arrays = []
    for value in vars(bench).values():
        if sp.issparse(value):
            arrays += [value.data, value.indices, value.indptr]
        elif isinstance(value, np.ndarray):
            arrays.append(value)
    return arrays


def _fresh(name: str, precision: Precision):
    """An instance drawn with the memo empty."""
    perf.reset()
    return create(name, precision=precision, scale=SMALL, seed=99)


class TestSharedDraws:
    @pytest.mark.parametrize("name", PAPER_ORDER)
    def test_dp_after_sp_equals_dp_from_empty_memo(self, name):
        alone = _state(_fresh(name, Precision.DOUBLE))
        _fresh(name, Precision.SINGLE)
        shared = create(name, precision=Precision.DOUBLE, scale=SMALL, seed=99)
        assert _state(shared) == alone

    @pytest.mark.parametrize("name", PAPER_ORDER)
    def test_shared_arrays_are_read_only(self, name):
        single = _fresh(name, Precision.SINGLE)
        double = create(name, precision=Precision.DOUBLE, scale=SMALL, seed=99)
        for array in _arrays(double):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array.flat[0] = array.flat[0]
        again = create(name, precision=Precision.DOUBLE, scale=SMALL, seed=99)
        for mine, theirs in zip(_arrays(double), _arrays(again)):
            assert np.shares_memory(mine, theirs)  # aliased, not copied
        # the SP cast is the instance's own copy
        assert all(a.flags.writeable for a in _arrays(single) if a.dtype == np.float32)

    @pytest.mark.parametrize(
        "name, attribute, factor",
        [("vecop", "DEFAULT_N", 2), ("hist", "BUCKETS", 4), ("spmv", "MEAN_NNZ_PER_ROW", 2)],
    )
    def test_patched_class_size_misses_the_memo(self, monkeypatch, name, attribute, factor):
        cls = BENCHMARKS[name]
        before = _state(_fresh(name, Precision.SINGLE))
        monkeypatch.setattr(cls, attribute, getattr(cls, attribute) * factor)
        patched = _state(create(name, precision=Precision.SINGLE, scale=SMALL, seed=99))
        assert patched != before
        assert patched == _state(_fresh(name, Precision.SINGLE))

    def test_concurrent_threads_get_their_own_draws(self):
        """More threads than cores, each setting up its own benchmark,
        switching every microsecond: every instance gets its own draws."""
        names = ("vecop", "red", "hist", "3dstc")
        expected = {
            (name, precision): _state(_fresh(name, precision))
            for name in names
            for precision in Precision
        }
        perf.reset()
        barrier = threading.Barrier(len(names))
        seen: dict = {name: [] for name in names}

        def build(name: str) -> None:
            barrier.wait()
            for _ in range(3):
                for precision in Precision:
                    bench = create(name, precision=precision, scale=SMALL, seed=99)
                    seen[name].append(_state(bench) == expected[(name, precision)])

        threads = [threading.Thread(target=build, args=(name,)) for name in names]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(seen[name] == [True] * 6 for name in names)
