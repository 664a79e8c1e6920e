"""Platform-level pricing facade and model-only estimates.

:class:`PlatformPricing` holds the per-model pricing entries of one
:class:`~repro.calibration.exynos5250.ExynosPlatform` (reached via
``platform.pricing_model()``), built over one shared DRAM model and one
cache hierarchy per side.  On top of it sit the model-only estimates
the what-if studies use: :func:`estimate_cpu_seconds` /
:func:`estimate_opt_seconds` — iteration times with no functional
execution and no meter, the cheap currency of SoC design-space
exploration.
"""

from __future__ import annotations

from ..cpu.pricing import CpuPricingModel
from ..mali.timing import GpuPricingModel
from ..power.model import PowerPricingModel
from .cells import MODE_SERIAL, CpuCell


class PlatformPricing:
    """The GPU, CPU and power pricing entries of one platform.

    ``gpu``, ``cpu`` and ``power`` share one
    :class:`~repro.memory.dram.DramModel` (``dram_model``) and one
    cache hierarchy per side (``cpu_caches`` / ``gpu_caches``).
    """

    def __init__(self, platform) -> None:
        self.platform = platform
        self.dram_model = platform.dram_model()
        self.cpu_caches = platform.cpu_caches()
        self.gpu_caches = platform.gpu_caches()
        self.power_model = platform.power_model()
        self.gpu = GpuPricingModel(platform.mali, self.dram_model, self.gpu_caches)
        self.cpu = CpuPricingModel(platform.cpu, self.dram_model, self.cpu_caches)
        self.power = PowerPricingModel(self.power_model)


# ---------------------------------------------------------------------------
# model-only estimates (design-space currency)
# ---------------------------------------------------------------------------


def estimate_cpu_seconds(bench, mode: str = MODE_SERIAL) -> float:
    """Model-only Serial/OpenMP seconds of one timed iteration.

    Prices the benchmark's CPU cell through its platform's
    ``pricing_model()`` without running functional NumPy code or the
    meter — what a platform sweep needs to rank design points.
    """
    from ..benchmarks.base import cpu_pricing_inputs

    pricing = bench.platform.pricing_model()
    _, mix, traits, n = cpu_pricing_inputs(bench)
    cell = CpuCell(mix=mix, mode=mode, n_elements=n, traits=traits)
    return pricing.cpu.price_one(cell).seconds


def estimate_opt_seconds(bench) -> float | None:
    """Model-only tuned OpenCL-Opt seconds of one timed iteration.

    Runs the autotuner (compiles + prices, no functional execution) and
    returns the winning trial's modeled time, or ``None`` when no
    candidate is feasible (the paper's missing DP bars).
    """
    from ..optimizations.autotune import sweep

    best = sweep(bench).best
    return None if best is None else best.seconds
