"""What the benchmark runs and what it pins; no ``repro`` import.

Shared by ``run.py`` (which never imports the package)
and ``job.py`` (one repetition in a fresh interpreter).
"""

from __future__ import annotations

DEFAULT_SEED = 1234

#: the figures workloads: the SP+DP paper grid through the campaign engine
FIGURES = ("figures_cold", "figures_warm", "figures_remote")
WORKLOADS = ("figures_cold", "figures_warm", "space_sweep", "figures_remote")

#: ``perf.counters()`` memo caches whose hit ratios are reported
MEMO_CACHES = ("compile", "analysis", "gpu_timing", "cpu_timing", "functional", "gpu_exec")

#: SHA-256 of the job's output at ``DEFAULT_SEED``: ``ResultSet.to_json()``
#: for the figures workloads (one digest for all three), the sorted-key
#: JSON of ``DesignSpaceResult.to_dict()`` for ``space_sweep``.  Keyed by
#: (figures|space_sweep, reduced).
PINNED = {
    ("figures", False): "7bd9a86c160cc1c2fbc9e1992cfff0e10b6b6ddd52a4ffacd54b9afc5960c846",
    ("space_sweep", False): "ddbeb81476155bf1c2cb675118497caec8c180f4dc7e49cf0456491bf5df6ebd",
    ("figures", True): "6626ef346beed826d62b329207e8928aca649a007391b057f3cb5fadfb49d1ba",
    ("space_sweep", True): "a581e602de463088e3dd1c19e407b82f0082499d3215ae243978e42b1ed0139d",
}


def pin_key(workload: str, reduced: bool) -> tuple[str, bool]:
    return ("figures" if workload in FIGURES else workload, reduced)


def problem_scale(reduced: bool) -> float:
    """Benchmark problem scale: the paper's sizes, or the self-check's."""
    return 0.05 if reduced else 1.0


def space_grid_axes(reduced: bool) -> dict[str, tuple]:
    """``config_grid`` axes of ``space_sweep``.

    Full size is 8 x 8 x 8 x 8 x 4 x 4 = 65 536 configs, large enough
    that pricing, bounds and Pareto reduction take about half the job
    (on the 4 096-config grid pricing is under a tenth of it).  The
    self-check sweeps 4 x 4 x 4 x 4 x 2 x 2 = 1 024 configs.
    """
    if reduced:
        return {
            "gpu_cores": (1, 4, 8, 16),
            "gpu_clock_hz": (300e6, 533e6, 800e6, 1e9),
            "cpu_cores": (1, 2),
            "dram_gbps": (6.4, 12.8, 16.5, 25.6),
            "register_file_scale": (1, 2),
            "rail_scale": (0.5, 1.0, 2.0, 3.0),
        }
    return {
        "gpu_cores": (1, 2, 3, 4, 6, 8, 12, 16),
        "gpu_clock_hz": (300e6, 416e6, 533e6, 600e6, 700e6, 800e6, 900e6, 1e9),
        "cpu_cores": (1, 2, 4, 8),
        "dram_gbps": (6.4, 8.5, 10.6, 12.8, 14.9, 16.5, 21.2, 25.6),
        "register_file_scale": (0.5, 1, 2, 4),
        "rail_scale": (0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 2.5, 3.0),
    }
