"""Access-pattern efficiency model for the Exynos 5250 memory system.

A DDR3 controller reaches its peak bandwidth only for long unit-stride
bursts.  Strided streams waste part of each 64-byte DRAM burst, gathers
waste most of it, and atomics serialize at the coherence point.  The
per-pattern *efficiency* is the fraction of peak DRAM bandwidth a pure
stream of that pattern can sustain; mixed streams compose by
byte-weighted harmonic mean (time adds, not bandwidth).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ir.nodes import AccessPattern


@dataclass(frozen=True)
class PatternEfficiency:
    """Sustainable fraction of peak DRAM bandwidth per access pattern.

    Defaults are typical of LPDDR3/DDR3L-1600 with a 64-byte burst:
    unit-stride streams reach ~80 % of peak; element-strided streams
    use one element per burst in the worst case but caching of adjacent
    lines pulls the average up; gathers are dominated by row misses;
    broadcast hits cache after the first touch; atomic RMW traffic
    bounces through the coherent L2.
    """

    unit: float = 0.80
    strided: float = 0.35
    # gather *miss traffic* is already line-amplified by the cache
    # model, so the per-line burst efficiency is moderate
    gather: float = 0.60
    broadcast: float = 4.0  # effective amplification: mostly cache hits
    atomic: float = 0.30

    def factor(self, pattern: AccessPattern) -> float:
        return {
            AccessPattern.UNIT: self.unit,
            AccessPattern.STRIDED: self.strided,
            AccessPattern.GATHER: self.gather,
            AccessPattern.BROADCAST: self.broadcast,
            AccessPattern.ATOMIC: self.atomic,
        }[pattern]


def effective_bandwidth_fraction(
    bytes_by_pattern: dict[AccessPattern, float],
    eff: PatternEfficiency,
) -> float:
    """Byte-weighted harmonic mean efficiency of a mixed access stream.

    Transfer *times* add: ``t = Σ bytes_p / (peak · eff_p)``, so the
    blended efficiency is ``Σ bytes / Σ (bytes_p / eff_p)``.

    Returns 1.0 for an empty stream (no memory time at all).
    """
    total = sum(bytes_by_pattern.values())
    if total <= 0.0:
        return 1.0
    denom = sum(b / eff.factor(p) for p, b in bytes_by_pattern.items() if b > 0.0)
    if denom <= 0.0:
        # every positive share underflowed to 0 when divided by its
        # factor, so every such factor is above 1: the blend exceeds 1,
        # which the caller clamps to 1.0 anyway
        return 1.0
    return total / denom


def dram_traffic_bytes(
    bytes_by_pattern: dict[AccessPattern, float],
    hit_fraction_by_pattern: dict[AccessPattern, float] | None = None,
) -> dict[AccessPattern, float]:
    """Filter a request stream through cache hit fractions.

    ``hit_fraction_by_pattern`` gives, per pattern, the fraction of the
    requested bytes served by the on-chip caches and therefore *not*
    presented to DRAM.  Patterns absent from the dict default to 0 hits.
    """
    hits = hit_fraction_by_pattern or {}
    out: dict[AccessPattern, float] = {}
    for pattern, nbytes in bytes_by_pattern.items():
        miss = 1.0 - min(max(hits.get(pattern, 0.0), 0.0), 1.0)
        if nbytes * miss > 0.0:
            out[pattern] = nbytes * miss
    return out
