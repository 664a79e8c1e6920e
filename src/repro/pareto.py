"""Deterministic Pareto machinery (minimize two objectives).

Two interchangeable views of the same non-dominated set over points
carrying ``(seconds, energy_j)`` objectives (both minimized) and an
optional ``feasible`` flag:

* :func:`skyline` — the sort-based O(n log n) sweep used everywhere;
* :class:`OnlineFrontier` — an incremental accumulator that maintains
  the frontier as points arrive one chunk at a time, used by the
  streaming design-space driver so dominated points can be discarded
  the moment they are priced.

Both return/hold *exactly* the same point set in the same
deterministic order — sorted by :func:`point_key` — for any input,
including ties (equal ``(seconds, energy)`` pairs all survive: neither
strictly dominates the other), duplicated coordinates, infeasible
entries (always excluded) and arbitrary arrival order for the online
form.  ``tests/property/test_pareto_properties.py`` holds the
hypothesis proofs against the O(n²) all-pairs scan in
``tests/oracles.py``.
"""

from __future__ import annotations

from bisect import bisect_left

__all__ = [
    "point_key",
    "strictly_dominates",
    "skyline",
    "OnlineFrontier",
]


def point_key(p):
    """Total deterministic order: (seconds, energy, config name, version)."""
    return (p.seconds, p.energy_j, p.config_name, p.version)


def strictly_dominates(a_seconds, a_energy, b_seconds, b_energy) -> bool:
    """``(a_s, a_e)`` Pareto-dominates ``(b_s, b_e)``, both minimized."""
    return (
        a_seconds <= b_seconds
        and a_energy <= b_energy
        and (a_seconds < b_seconds or a_energy < b_energy)
    )


def _is_feasible(p) -> bool:
    return getattr(p, "feasible", True)


def skyline(points, key=point_key) -> tuple:
    """Non-dominated feasible points in O(n log n), sorted by ``key``.

    One sorted sweep: points arrive grouped by equal ``seconds``; a
    group's minimum-energy members survive iff that minimum is strictly
    below the best energy seen at strictly smaller ``seconds`` (ties on
    both coordinates all survive — none strictly dominates another);
    everything else in the group is dominated either by an earlier
    point (``s' < s``, ``e' <= e``) or by a group sibling (``s`` equal,
    ``e'`` smaller).  Value-identical to an O(n²) all-pairs scan.
    """
    feasible = sorted((p for p in points if _is_feasible(p)), key=key)
    out = []
    best_e = float("inf")
    i, n = 0, len(feasible)
    while i < n:
        k = key(feasible[i])
        s, gmin = k[0], k[1]
        if gmin < best_e:
            while i < n:
                kj = key(feasible[i])
                if kj[0] != s or kj[1] != gmin:
                    break
                out.append(feasible[i])
                i += 1
            best_e = gmin
        # skip the rest of the equal-seconds group (energy > gmin)
        while i < n and key(feasible[i])[0] == s:
            i += 1
    return tuple(out)


class OnlineFrontier:
    """Incrementally maintained Pareto frontier (minimize both axes).

    Holds the current non-dominated set sorted by ``key``; the distinct
    ``(seconds, energy)`` pairs therefore form a staircase — strictly
    increasing seconds, strictly decreasing energy — which makes every
    operation a bisect plus a contiguous splice:

    * :meth:`add` — O(log f) dominance test (the only candidate that
      can dominate a new point is its staircase predecessor), then a
      contiguous deletion of the now-dominated suffix run;
    * :meth:`strictly_dominates` — the pruning query: is a hypothetical
      ``(seconds, energy)`` (or an array of them) strictly dominated by
      a current member?

    The final set is *order-independent* — whatever the arrival order,
    :meth:`points` equals ``skyline(everything added)``, same ordering
    (property-tested under random chunkings and shuffles).
    """

    __slots__ = ("_key", "_keys", "_points")

    def __init__(self, points=(), key=point_key) -> None:
        self._key = key
        self._keys: list = []
        self._points: list = []
        self.update(points)

    def __len__(self) -> int:
        return len(self._points)

    def points(self) -> tuple:
        """The current frontier, sorted by the key (a fresh tuple)."""
        return tuple(self._points)

    def strictly_dominates(self, seconds, energy):
        """Is ``(seconds, energy)`` strictly dominated by the frontier?

        Bisecting with the bare 2-tuple lands on the first member with
        ``(s', e') >= (seconds, energy)`` lexicographically (a 2-tuple
        prefix compares below any 4-tuple key extending it), so the
        predecessor is lex-smaller; lex-smaller plus ``e' <= energy``
        is exactly strict domination.

        Aligned arrays of queries return a bool array, lane for lane the
        scalar decision: on the staircase every member sharing a
        ``seconds`` value shares its energy, so the lexicographic bisect
        is a ``searchsorted`` on seconds that steps past the equal-seconds
        run iff its energy is below the query's.
        """
        keys = self._keys
        if isinstance(seconds, (int, float)) and isinstance(energy, (int, float)):
            i = bisect_left(keys, (seconds, energy))
            return i > 0 and keys[i - 1][1] <= energy

        import numpy as np

        seconds = np.asarray(seconds, dtype=np.float64)
        energy = np.asarray(energy, dtype=np.float64)
        if not keys:
            return np.zeros(np.broadcast(seconds, energy).shape, dtype=bool)
        front_s = np.fromiter((k[0] for k in keys), np.float64, len(keys))
        front_e = np.fromiter((k[1] for k in keys), np.float64, len(keys))
        lo = np.searchsorted(front_s, seconds, side="left")
        hi = np.searchsorted(front_s, seconds, side="right")
        run_below = (hi > lo) & (front_e[np.minimum(lo, len(keys) - 1)] < energy)
        i = np.where(run_below, hi, lo)
        return (i > 0) & (front_e[np.maximum(i - 1, 0)] <= energy)

    def add(self, p) -> bool:
        """Offer one point; returns True iff it joined the frontier.

        Infeasible and strictly-dominated points are rejected; members
        the new point dominates are evicted (safe by transitivity: any
        point they dominated is also dominated by the newcomer).  Ties
        on both coordinates coexist.
        """
        if not _is_feasible(p):
            return False
        k = self._key(p)
        s, e = k[0], k[1]
        keys = self._keys
        i = bisect_left(keys, (s, e))
        if i > 0 and keys[i - 1][1] <= e:
            return False
        # evict the dominated run: skip equal-(s, e) ties, then every
        # following member with energy >= e (their seconds are >= s)
        j, n = i, len(keys)
        while j < n and keys[j][0] == s and keys[j][1] == e:
            j += 1
        end = j
        while end < n and keys[end][1] >= e:
            end += 1
        if end > j:
            del keys[j:end]
            del self._points[j:end]
        ins = bisect_left(keys, k, i)
        keys.insert(ins, k)
        self._points.insert(ins, p)
        return True

    def update(self, points) -> int:
        """Offer many points; returns how many joined (may evict)."""
        return sum(self.add(p) for p in points)
