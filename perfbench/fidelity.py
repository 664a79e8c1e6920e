"""Model-versus-paper fidelity of one run's results.

``fidelity_log_err`` is the mean ``|ln(model / paper)|`` over the
``exact`` and ``range`` points of Figures 2-4 in
``repro.experiments.paper_data``; a model value inside a range counts
as 0, outside it the log distance to the nearer end.  Bounds
(``below``/``above``) and missing bars are not points.
``headline_log_err`` is the mean of ``|ln(speedup / 8.7)|`` and
``|ln(energy / 0.32)|`` over the §V-D OpenCL-Opt means.

Simulated statistics repeat exactly for a seed, so these numbers move
only when the model's results move.
"""

from __future__ import annotations

import math

from repro import Precision, Version, figure2, figure3, figure4, summarize
from repro.designspace import AGGREGATE
from repro.experiments import paper_data
from repro.experiments.paper_data import Kind, PaperValue


def point_log_err(model: float, paper: PaperValue) -> float | None:
    """``|ln(model/paper)|`` of one point; ``None`` when not comparable."""
    if model is None or not math.isfinite(model) or model <= 0:
        return None
    if paper.kind is Kind.EXACT:
        return abs(math.log(model / paper.lo))
    if paper.kind is Kind.RANGE:
        if paper.lo <= model <= paper.hi:
            return 0.0
        return min(abs(math.log(model / paper.lo)), abs(math.log(model / paper.hi)))
    return None


def mean_log_err(pairs) -> float:
    """Mean error over ``(model, PaperValue)`` pairs that are points."""
    errs = [e for e in (point_log_err(m, p) for m, p in pairs) if e is not None]
    return sum(errs) / len(errs)


def headline_log_err(speedup: float, energy: float) -> float:
    return 0.5 * (
        abs(math.log(speedup / paper_data.HEADLINE_SPEEDUP.lo))
        + abs(math.log(energy / paper_data.HEADLINE_ENERGY.lo))
    )


def figures_fidelity(results) -> tuple[float, float]:
    """``(fidelity_log_err, headline_log_err)`` of a campaign ResultSet."""
    series = (
        figure2(results, Precision.SINGLE),
        figure2(results, Precision.DOUBLE),
        figure3(results, Precision.SINGLE),
        figure4(results, Precision.SINGLE),
    )
    pairs = [
        (s.values[bench][version], paper)
        for s in series
        for bench, row in s.paper.items()
        if bench in s.values
        for version, paper in row.items()
    ]
    summary = summarize(results)
    return mean_log_err(pairs), headline_log_err(
        summary.opt_speedup_mean, summary.opt_energy_mean
    )


#: design-space version names of the paper's bars
_SPACE_VERSIONS = {"OpenMP": Version.OPENMP, "Opt": Version.OPENCL_OPT}


def space_fidelity(result, config_name: str) -> tuple[float, float]:
    """The same two errors for the design space's ``config_name`` points.

    The streamed result keeps every point of the reference config (the
    Exynos 5250); its Serial/OpenMP/Opt points give speedup, power and
    energy ratios that are compared with the paper exactly as the
    campaign's figures are.
    """
    by_key = {
        (p.benchmark, p.precision, p.version): p
        for p in result.points
        if p.config_name == config_name and p.feasible
    }
    figures = (
        (paper_data.FIG2A_SPEEDUP, Precision.SINGLE, "speedup"),
        (paper_data.FIG2B_SPEEDUP, Precision.DOUBLE, "speedup"),
        (paper_data.FIG3A_POWER, Precision.SINGLE, "power"),
        (paper_data.FIG4A_ENERGY, Precision.SINGLE, "energy"),
    )
    pairs = []
    opt = {"speedup": [], "energy": []}
    for table, precision, metric in figures:
        for bench, row in table.items():
            base = by_key.get((bench, precision.value, "Serial"))
            for name, version in _SPACE_VERSIONS.items():
                point = by_key.get((bench, precision.value, name))
                if base is None or point is None or version not in row:
                    continue
                pairs.append((_ratio(point, base, metric), row[version]))
    for (bench, precision, version), point in by_key.items():
        base = by_key.get((bench, precision, "Serial"))
        if version == "Opt" and bench != AGGREGATE and base is not None:
            opt["speedup"].append(_ratio(point, base, "speedup"))
            opt["energy"].append(_ratio(point, base, "energy"))
    return mean_log_err(pairs), headline_log_err(
        sum(opt["speedup"]) / len(opt["speedup"]),
        sum(opt["energy"]) / len(opt["energy"]),
    )


def _ratio(point, base, metric: str) -> float:
    if metric == "speedup":
        return base.seconds / point.seconds
    if metric == "power":
        return point.watts / base.watts
    return point.energy_j / base.energy_j
