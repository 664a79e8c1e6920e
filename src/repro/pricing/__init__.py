"""Batched grid pricing: one protocol, four layer implementations.

A planner describes its model-evaluation work as
:mod:`~repro.pricing.cells` values, hands the list to a
:class:`PricingModel`, and each layer answers with a small number of
vectorized NumPy evaluations instead of a dict walk per cell.  The GPU
and CPU timing layers price through their one timing kernel each —
:class:`~repro.mali.timing.GpuConfigStack` and
:class:`~repro.cpu.pricing.CpuConfigStack`, the board being their
one-config row — and the single-cell entry points (``time_launch``,
``time_serial``, ``time_openmp``, ``transfer_seconds``,
``BoardPowerModel.trace``) are conveniences over the same code, with
unchanged memo/persist cache keys.

The contract every implementation honors is **bitwise identity** with
the naive scalar models: elementwise float64 products match the scalar
``(count*n) * cost`` expressions, reductions accumulate sequentially in
source dict order (never ``np.sum``), and guarded-out terms are added
as exact ``0.0``.

Implementations:

* :class:`~repro.mali.timing.GpuPricingModel` — launch timings;
* :class:`~repro.cpu.pricing.CpuPricingModel` — Serial/OpenMP timings;
* :class:`~repro.memory.dram.DramPricingModel` — transfer seconds;
* :class:`~repro.power.model.PowerPricingModel` — power traces;
* :class:`~repro.pricing.grid.PlatformPricing` — all four behind one
  platform-level facade (``ExynosPlatform.pricing_model()``).
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from .cells import (
    MODE_OPENMP,
    MODE_SERIAL,
    CpuCell,
    GpuLaunchCell,
    TraceCell,
    TransferCell,
)

__all__ = [
    "CpuCell",
    "GpuLaunchCell",
    "MODE_OPENMP",
    "MODE_SERIAL",
    "PricingModel",
    "TraceCell",
    "TransferCell",
    "rows_by_key",
]


@runtime_checkable
class PricingModel(Protocol):
    """Batched evaluation surface of one model layer.

    ``price`` takes a whole planned sequence of cells and returns one
    result row per cell, in order, computed with as few vectorized
    passes as the layer can manage; ``price_one`` is the single-cell
    convenience the scalar entry points shim through.  Rows are the
    layer's existing result types (``GpuLaunchTiming``, ``CpuTiming``,
    transfer seconds, ``PowerTrace``) — batched pricing changes how many
    Python-level passes run, never what they return.
    """

    def price(self, cells) -> tuple:
        """One result row per cell, in input order."""
        ...  # pragma: no cover - protocol

    def price_one(self, cell):
        """The row a one-element ``price`` would return."""
        ...  # pragma: no cover - protocol


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
