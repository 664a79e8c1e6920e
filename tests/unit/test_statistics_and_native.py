"""Tests for the repetition-statistics protocol and native_math extension."""

import pytest

from repro.benchmarks import Version, create
from repro.compiler.options import CompileOptions
from repro.experiments.statistics import RepeatedStatistics, run_repeated
from repro.mali.config import MaliConfig
from repro.ir.nodes import OpKind


class TestRepeatedStatistics:
    @pytest.fixture(scope="class")
    def stats(self):
        return run_repeated(create("vecop", scale=0.05), Version.OPENCL_OPT, repeats=10)

    def test_paper_claim_negligible_deviation(self, stats):
        """§IV-D: 'the standard deviation is negligible'."""
        assert stats.negligible
        assert stats.power_cv < 0.002

    def test_timing_is_deterministic(self, stats):
        # the model is deterministic; only meter noise varies
        # (up to float rounding in the variance accumulation)
        assert stats.std_elapsed_s < 1e-12 * stats.mean_elapsed_s
        assert stats.std_energy_j > 0.0  # energy carries the power noise

    def test_mean_matches_single_run(self, stats):
        from repro.benchmarks import run_version

        single = run_version(create("vecop", scale=0.05), version=Version.OPENCL_OPT)
        assert stats.mean_elapsed_s == pytest.approx(single.elapsed_s)
        assert stats.mean_power_w == pytest.approx(single.mean_power_w, rel=0.01)

    def test_seed_restored(self):
        bench = create("vecop", scale=0.05, seed=77)
        run_repeated(bench, Version.SERIAL, repeats=3)
        assert bench.seed == 77

    def test_describe(self, stats):
        text = stats.describe()
        assert "vecop" in text and "cv" in text

    def test_invalid_repeats(self):
        with pytest.raises(ValueError):
            run_repeated(create("vecop", scale=0.05), Version.SERIAL, repeats=0)

    def test_failed_version_raises(self):
        from repro.benchmarks import Precision

        bench = create("amcd", precision=Precision.DOUBLE, scale=0.05)
        with pytest.raises(RuntimeError):
            run_repeated(bench, Version.OPENCL, repeats=2)


class TestNativeMath:
    def test_cost_reduction_only_for_transcendentals(self):
        cfg = MaliConfig()
        assert cfg.arith_issue_cost(OpKind.EXP, base="f32", width=1, scalar_bits=32, native_math=True) < \
            cfg.arith_issue_cost(OpKind.EXP, base="f32", width=1, scalar_bits=32)
        assert cfg.arith_issue_cost(OpKind.FMA, base="f32", width=1, scalar_bits=32, native_math=True) == \
            cfg.arith_issue_cost(OpKind.FMA, base="f32", width=1, scalar_bits=32)

    def test_native_cost_floor_is_one_cycle(self):
        cfg = MaliConfig()
        assert cfg.arith_issue_cost(OpKind.RSQRT, base="f32", width=1, scalar_bits=32, native_math=True) >= 1.0

    def test_amcd_speeds_up(self):
        bench = create("amcd", scale=0.1)
        base = bench.iteration_pricer(CompileOptions(qualifiers=True))(128)
        native = bench.iteration_pricer(
            CompileOptions(qualifiers=True, native_math=True)
        )(128)
        assert native < base * 0.75

    def test_memory_bound_kernels_unaffected(self):
        bench = bench = create("vecop", scale=0.1)
        base = bench.iteration_pricer(CompileOptions(vector_width=4))(128)
        native = bench.iteration_pricer(
            CompileOptions(vector_width=4, native_math=True)
        )(128)
        assert native == pytest.approx(base, rel=0.01)

    def test_describe_and_any_enabled(self):
        opts = CompileOptions(native_math=True)
        assert opts.any_enabled
        assert "native" in opts.describe()

    def test_not_in_default_tuning_spaces(self):
        """The paper's Opt keeps IEEE math; native_* is an extension."""
        for name in ("amcd", "nbody", "2dcon"):
            bench = create(name, scale=0.02)
            for options, _ in bench.tuning_space():
                assert not options.native_math
