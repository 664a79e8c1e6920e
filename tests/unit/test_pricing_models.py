"""Unit surface of the ``repro.pricing`` redesign.

Covers the ``PlatformPricing`` facade accessor, the ``PerfConfig``
consolidation of ``perf.configure``, the keyword-only signatures, and
the model-only estimate helpers the what-if studies use.
"""

from __future__ import annotations

import inspect

import pytest

from repro import perf, whatif
from repro.benchmarks.base import Version, run_version
from repro.benchmarks.registry import create
from repro.calibration.exynos5250 import default_platform
from repro.calibration.sensitivity import probe_speedups
from repro.ir.analysis import OpKind
from repro.ir.nodes import AccessPattern
from repro.pricing.grid import (
    PlatformPricing,
    estimate_cpu_seconds,
    estimate_opt_seconds,
)


@pytest.fixture(autouse=True)
def _fresh_perf():
    """Empty caches around every test, and the lane configuration (which
    ``TestPerfConfig`` changes) restored after it."""
    perf.reset()
    config = perf.current_config()
    yield
    perf.configure(config=config)
    perf.reset()


# ---------------------------------------------------------------------------
# facade
# ---------------------------------------------------------------------------


class TestPricingProtocol:
    def test_platform_accessor_returns_fresh_facade(self):
        platform = default_platform()
        pricing = platform.pricing_model()
        assert isinstance(pricing, PlatformPricing)
        assert pricing.platform is platform


# ---------------------------------------------------------------------------
# perf.configure(config=PerfConfig(...))
# ---------------------------------------------------------------------------


class TestPerfConfig:
    def test_round_trip(self, tmp_path):
        before = perf.current_config()
        assert before == perf.PerfConfig(enabled=True, persist_dir=None)
        perf.configure(config=perf.PerfConfig(enabled=False, persist_dir=tmp_path))
        assert not perf.is_enabled()
        assert perf.persistent_store() is not None
        snapshot = perf.current_config()
        perf.configure(config=before)
        assert perf.current_config() == before
        # the snapshot restores the exact store object, not a re-open
        perf.configure(config=snapshot)
        assert perf.current_config() == snapshot

    def test_frozen(self):
        with pytest.raises(Exception):
            perf.current_config().enabled = False

    def test_exported(self):
        assert "PerfConfig" in perf.__all__
        assert "current_config" in perf.__all__


# ---------------------------------------------------------------------------
# keyword-only signatures
# ---------------------------------------------------------------------------


class TestKeywordOnlySignatures:
    def test_dram_methods_reject_positional_tail(self):
        platform = default_platform()
        dram = platform.dram_model()
        mix = {AccessPattern.UNIT: 1e6}
        with pytest.raises(TypeError):
            dram.transfer_seconds("gpu", mix)
        with pytest.raises(TypeError):
            dram.effective_bandwidth("gpu", mix)
        assert dram.transfer_seconds("gpu", bytes_by_pattern=mix) > 0.0

    def test_mali_costs_reject_positional_tail(self):
        mali = default_platform().mali
        with pytest.raises(TypeError):
            mali.arith_issue_cost(OpKind.FMA, "f32", 1, 32)
        with pytest.raises(TypeError):
            mali.ls_issue_cost(1, 32)
        assert mali.arith_issue_cost(OpKind.FMA, base="f32", width=1, scalar_bits=32) > 0
        assert mali.ls_issue_cost(1, scalar_bits=32) > 0

    @pytest.mark.parametrize(
        "func, n_positional",
        [("effective_bandwidth", 2), ("transfer_seconds", 2)],
    )
    def test_signature_shape(self, func, n_positional):
        from repro.memory.dram import DramModel

        params = list(inspect.signature(getattr(DramModel, func)).parameters.values())
        for param in params[n_positional:]:
            assert param.kind is param.KEYWORD_ONLY


# ---------------------------------------------------------------------------
# model-only estimates (whatif / sensitivity seam)
# ---------------------------------------------------------------------------


class TestModelOnlyEstimates:
    def test_cpu_estimate_matches_run(self):
        bench = create("vecop", scale=0.1)
        run = run_version(bench, version=Version.SERIAL)
        assert estimate_cpu_seconds(bench) == run.elapsed_s

    def test_opt_estimate_positive_or_none(self):
        bench = create("vecop", scale=0.1)
        opt_s = estimate_opt_seconds(bench)
        assert opt_s is not None and opt_s > 0.0

    def test_whatif_estimate_speedups(self):
        platforms = {
            "t604": default_platform(),
            "t628": whatif.mali_t628_platform(),
        }
        speedups = whatif.estimate_speedups("vecop", platforms, scale=0.1)
        assert set(speedups) == {"t604", "t628"}
        for value in speedups.values():
            assert value is None or value > 0.0

    def test_whatif_estimate_requires_platforms(self):
        with pytest.raises(ValueError):
            whatif.estimate_speedups("vecop", {})

    def test_sensitivity_probe_model_only(self):
        speedups = probe_speedups(
            default_platform(), benchmarks=("vecop",), scale=0.1, model_only=True
        )
        assert speedups["vecop"] > 0.0
