"""Pricing cells and the per-model pricing entry points.

A *cell* (:mod:`~repro.pricing.cells`) is one model evaluation: one GPU
launch, one CPU (Serial/OpenMP) iteration, or one activity sequence to
turn into a power trace.  Each model prices a cell through one entry:

* :class:`~repro.mali.timing.GpuPricingModel` — ``pricer`` / ``price_one``
  (memoized launch timings, the memo-key hashing hoisted per kernel);
* :class:`~repro.cpu.pricing.CpuPricingModel` — ``price_one``, a
  one-cell :class:`~repro.cpu.pricing.CpuConfigStack`;
* :class:`~repro.power.model.PowerPricingModel` — ``price_one``, the
  scalar :meth:`~repro.power.model.BoardPowerModel.trace`;
* :class:`~repro.pricing.grid.PlatformPricing` — all three plus the
  shared DRAM model and cache hierarchies of one platform
  (``ExynosPlatform.pricing_model()``).

Many cells at once (the design space's configs × cells) go straight to
the timing kernels, :class:`~repro.mali.timing.GpuConfigStack` and
:class:`~repro.cpu.pricing.CpuConfigStack`, whose board row is what
``price_one`` returns.
"""

from __future__ import annotations

from .cells import MODE_OPENMP, MODE_SERIAL, CpuCell, GpuLaunchCell, TraceCell

__all__ = [
    "CpuCell",
    "GpuLaunchCell",
    "MODE_OPENMP",
    "MODE_SERIAL",
    "TraceCell",
    "rows_by_key",
]


def rows_by_key(keys, table):
    """Stack one table row per key: ``table(key)`` gathered to ``(k, cells)``.

    The config-axis stacks call this with one key per config (a DRAM
    model, a register-file scale): ``table`` runs once per distinct key
    and its per-cell row is indexed out to every config sharing it, so
    each lane is the very value the single-key table holds.  A tuple
    result gathers component-wise.
    """
    import numpy as np

    slots: dict = {}
    index = [slots.setdefault(key, len(slots)) for key in keys]
    found = [table(key) for key in slots]
    if isinstance(found[0], tuple):
        return tuple(np.stack(parts)[index] for parts in zip(*found))
    return np.stack(found)[index]
