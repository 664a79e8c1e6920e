"""Pareto machinery properties: skyline == O(n^2) oracle, online == batch.

Three families of hypothesis proofs back the streaming design-space
driver (see ``repro.pareto`` / ``repro.designspace``):

* :func:`repro.pareto.skyline` returns exactly the same tuple as the
  O(n^2) all-pairs :func:`tests.oracles.skyline_reference` for any point
  cloud — ties on one or both coordinates, duplicated points, infeasible
  entries, single points, empty clouds;
* :class:`repro.pareto.OnlineFrontier` is arrival-order independent:
  any shuffle, any chunking, incremental ``add`` or bulk ``update``,
  the final frontier is byte-for-byte the batch skyline;
* bound-based pruning is invisible: ``evaluate_space(stream=True)``
  with pruning on/off and the materializing reference all yield the
  identical target-slice frontier.

Coordinates are drawn from small pools so ties and exact duplicates —
the historically buggy cases — occur constantly, not one run in a
thousand.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import perf
from repro.designspace import AGGREGATE, DesignPoint
from repro.pareto import (
    OnlineFrontier,
    point_key,
    skyline,
    strictly_dominates,
)
from tests.oracles import skyline_reference

# small value pools => dense ties and exact duplicates
_COORDS = st.sampled_from((0.25, 0.5, 1.0, 1.0, 2.0, 3.0, 5.0))


def _pt(i, seconds, energy, feasible=True):
    return DesignPoint(
        config_name=f"c{i}",
        benchmark=AGGREGATE,
        precision="single",
        version="Opt",
        seconds=seconds,
        watts=0.0 if seconds == 0 else energy / seconds,
        energy_j=energy,
        feasible=feasible,
    )


_CLOUDS = st.lists(
    st.tuples(_COORDS, _COORDS, st.booleans()), min_size=0, max_size=40
).map(lambda rows: tuple(_pt(i, s, e, f) for i, (s, e, f) in enumerate(rows)))


@given(points=_CLOUDS)
@settings(max_examples=200, deadline=None)
def test_skyline_matches_reference(points):
    """Same tuple (points and order) as the O(n^2) oracle, always."""
    assert skyline(points) == skyline_reference(points)


@given(points=_CLOUDS)
@settings(max_examples=200, deadline=None)
def test_skyline_is_sound_and_complete(points):
    """Direct definition: a feasible point is on the frontier iff no
    feasible point strictly dominates it; ties all survive."""
    front = skyline(points)
    keys = [point_key(p) for p in points if p.feasible]
    for p in points:
        dominated = any(
            strictly_dominates(k[0], k[1], p.seconds, p.energy_j) for k in keys
        )
        assert ((p in front) == (p.feasible and not dominated))
    # deterministic order and idempotence
    assert list(front) == sorted(front, key=point_key)
    assert skyline(front) == front


@given(points=_CLOUDS, seed=st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_online_frontier_is_arrival_order_independent(points, seed):
    """Any shuffle + any chunking: OnlineFrontier ends exactly at the
    batch skyline of everything it was offered."""
    rng = random.Random(seed)
    shuffled = list(points)
    rng.shuffle(shuffled)
    frontier = OnlineFrontier()
    i = 0
    while i < len(shuffled):
        step = rng.randint(1, 7)
        if rng.random() < 0.5:
            frontier.update(shuffled[i : i + step])
        else:
            for p in shuffled[i : i + step]:
                frontier.add(p)
        i += step
    assert frontier.points() == skyline(points)
    assert len(frontier) == len(skyline(points))


@given(points=_CLOUDS, probe=st.tuples(_COORDS, _COORDS))
@settings(max_examples=200, deadline=None)
def test_online_dominance_query_matches_definition(points, probe):
    """``strictly_dominates(s, e)`` agrees with scanning every member."""
    frontier = OnlineFrontier(points)
    s, e = probe
    expect = any(
        strictly_dominates(p.seconds, p.energy_j, s, e) for p in frontier.points()
    )
    assert frontier.strictly_dominates(s, e) == expect


_PROBE_COORDS = st.one_of(_COORDS, st.just(float("inf")))


@given(
    points=_CLOUDS,
    probes=st.lists(st.tuples(_PROBE_COORDS, _PROBE_COORDS), min_size=0, max_size=12),
)
@settings(max_examples=200, deadline=None)
def test_array_dominance_query_matches_scalar(points, probes):
    """The array form of ``strictly_dominates`` is the scalar bisect lane
    by lane: ties, duplicated probes, ``inf`` on either axis and the
    empty frontier included."""
    import numpy as np

    frontier = OnlineFrontier(points)
    s = np.asarray([p[0] for p in probes], dtype=np.float64)
    e = np.asarray([p[1] for p in probes], dtype=np.float64)
    got = frontier.strictly_dominates(s, e)
    assert got.dtype == bool and got.shape == s.shape
    assert got.tolist() == [frontier.strictly_dominates(a, b) for a, b in probes]


def test_array_dominance_query_edges():
    import numpy as np

    inf = float("inf")
    s = np.asarray([0.25, 1.0, 1.0, 2.0, inf, inf])
    e = np.asarray([0.25, 2.0, 3.0, 2.0, 2.0, inf])
    assert OnlineFrontier().strictly_dominates(s, e).tolist() == [False] * 6
    twins = OnlineFrontier([_pt(0, 1.0, 2.0), _pt(1, 1.0, 2.0)])
    assert twins.strictly_dominates(s, e).tolist() == [
        twins.strictly_dominates(a, b) for a, b in zip(s.tolist(), e.tolist())
    ] == [False, False, True, True, True, True]


@given(points=_CLOUDS)
@settings(max_examples=100, deadline=None)
def test_online_add_reports_membership(points):
    """``add`` returns True iff the point is on the frontier right after
    the call, and never admits an infeasible point."""
    frontier = OnlineFrontier()
    for p in points:
        joined = frontier.add(p)
        assert joined == (p in frontier.points())
        if not p.feasible:
            assert not joined


def test_edge_clouds():
    one = (_pt(0, 1.0, 1.0),)
    assert skyline(one) == one == OnlineFrontier(one).points()
    assert skyline(()) == () == OnlineFrontier().points()
    dead = tuple(_pt(i, 1.0, 1.0, feasible=False) for i in range(3))
    assert skyline(dead) == () == OnlineFrontier(dead).points()
    # exact duplicates (same coordinates, different configs) all survive
    twins = (_pt(0, 1.0, 2.0), _pt(1, 1.0, 2.0), _pt(2, 1.0, 2.0))
    assert skyline(twins) == twins == OnlineFrontier(twins).points()
    # iterator inputs are materialized, not consumed twice
    assert skyline(iter(one)) == one


# ---------------------------------------------------------------------------
# pruning is invisible: streamed+pruned frontier == materialized frontier
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_space_results():
    from repro.calibration.socspace import config_grid
    from repro.designspace import evaluate_space

    configs = config_grid(
        gpu_cores=(2, 4, 8),
        gpu_clock_hz=(416e6, 533e6),
        rail_scale=(0.5, 1.0, 2.0),
        register_file_scale=(0.125, 1.0),
    )
    kwargs = dict(benchmarks=("vecop", "hist"), scale=0.1)
    perf.reset()
    materialized = evaluate_space(configs, **kwargs)
    pruned = evaluate_space(configs, stream=True, chunk_size=5, **kwargs)
    unpruned = evaluate_space(configs, stream=True, chunk_size=5, prune=False, **kwargs)
    yield materialized, pruned, unpruned
    perf.reset()


def test_pruning_never_changes_the_frontier(small_space_results):
    materialized, pruned, unpruned = small_space_results
    for precision in ("single", "double"):
        reference = materialized.frontier_points(precision)
        assert pruned.frontier_points(precision) == reference
        assert unpruned.frontier_points(precision) == reference
    # pruning engaged (this grid has dominated and rf-infeasible configs)
    # yet evaluated + pruned still covers the whole space
    assert pruned.pruned > 0
    assert pruned.evaluated + pruned.pruned == materialized.evaluated
    assert unpruned.pruned == 0


@given(chunk_size=st.integers(1, 37), jobs=st.sampled_from((1, 2, 3)))
@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
def test_stream_frontier_invariant_to_chunking_and_jobs(
    small_space_results, chunk_size, jobs
):
    """Chunk size and worker count never change the streamed frontier."""
    from repro.calibration.socspace import config_grid
    from repro.designspace import evaluate_space

    materialized, _, _ = small_space_results
    configs = config_grid(
        gpu_cores=(2, 4, 8),
        gpu_clock_hz=(416e6, 533e6),
        rail_scale=(0.5, 1.0, 2.0),
        register_file_scale=(0.125, 1.0),
    )
    result = evaluate_space(
        configs,
        benchmarks=("vecop", "hist"),
        scale=0.1,
        stream=True,
        chunk_size=chunk_size,
        jobs=jobs,
    )
    for precision in ("single", "double"):
        assert result.frontier_points(precision) == materialized.frontier_points(
            precision
        )


def test_opt_bounds_are_true_lower_bounds(small_space_results):
    """The pruning oracle is sound: bound <= actual on both axes for
    every config of the module grid, per precision."""
    import math

    from repro.calibration.socspace import config_grid
    from repro.designspace import DesignSpace

    materialized, _, _ = small_space_results
    configs = config_grid(
        gpu_cores=(2, 4, 8),
        gpu_clock_hz=(416e6, 533e6),
        rail_scale=(0.5, 1.0, 2.0),
        register_file_scale=(0.125, 1.0),
    )
    space = DesignSpace(benchmarks=("vecop", "hist"), scale=0.1)
    bounds = space.opt_bounds(configs)
    for precision, (t_lb, e_lb) in bounds.items():
        for i, config in enumerate(configs):
            actual = materialized.point(config.name, AGGREGATE, precision, "Opt")
            if not actual.feasible:
                continue  # inf is trivially above any bound
            assert t_lb[i] <= actual.seconds, (config.name, precision)
            assert e_lb[i] <= actual.energy_j, (config.name, precision)
            assert math.isfinite(t_lb[i]) and math.isfinite(e_lb[i])


@given(
    cuts=st.lists(st.integers(1, 35), min_size=0, max_size=5, unique=True),
    benchmark=st.sampled_from((AGGREGATE, "vecop", "hist")),
)
@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
def test_opt_bounds_one_pass_equals_per_chunk(bound_space, cuts, benchmark):
    """One ``opt_bounds`` call over a shard is bitwise the per-chunk calls
    on its slices, whatever the chunk boundaries (the streamed sweep
    bounds a shard once and slices per chunk)."""
    import numpy as np

    space, configs = bound_space
    whole = space.opt_bounds(configs, benchmark=benchmark)
    edges = [0] + sorted(cuts) + [len(configs)]
    for lo, hi in zip(edges, edges[1:]):
        part = space.opt_bounds(configs[lo:hi], benchmark=benchmark)
        assert part.keys() == whole.keys()
        for precision, (t, e) in part.items():
            t_all, e_all = whole[precision]
            assert np.array_equal(t.view(np.uint64), t_all[lo:hi].view(np.uint64))
            assert np.array_equal(e.view(np.uint64), e_all[lo:hi].view(np.uint64))


@pytest.fixture(scope="module")
def bound_space():
    from repro.calibration.socspace import config_grid
    from repro.designspace import DesignSpace

    configs = config_grid(
        gpu_cores=(2, 4, 8),
        gpu_clock_hz=(416e6, 533e6),
        dram_gbps=(6.4, 12.8),
        rail_scale=(0.5, 2.0),
        register_file_scale=(0.125, 1.0),
    )[::-1]
    return DesignSpace(benchmarks=("vecop", "hist"), scale=0.1), configs
