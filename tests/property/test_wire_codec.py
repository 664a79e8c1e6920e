"""Property tests of the closed-type wire codec.

Remote campaigns ship tasks and results as JSON only
(:mod:`repro.experiments.protocol`).  Two round trips must be exact:

* a :class:`RunTask` — platform included — decodes ``==`` to the task
  that was encoded, with an equal ``repr``, so the platform fingerprint
  (a digest of that ``repr``) and every dict's order survive the wire;
* a :class:`RunResult` decodes to the same ``run_to_row`` row the
  journal and run cache persist, for NaN-measurement failures, crash
  rows (whose traceback reaches the ``run_crashed`` trace detail),
  timeout rows and governed rows — alone and inside a chunk's
  ``(group_runs, family_delta)`` result.

Every value passes through ``json.dumps``/``json.loads`` as it would on
the wire.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.benchmarks.base import Precision, RunResult, Version, execute_run
from repro.benchmarks.registry import PAPER_ORDER
from repro.calibration.exynos5250 import default_platform
from repro.experiments import Campaign, CampaignSpec, ListTraceSink, RunTask
from repro.experiments.protocol import (
    FrameError,
    decode_family,
    decode_run,
    decode_task,
    encode_family,
    encode_run,
    encode_task,
)
from repro.experiments.runner import run_to_row
from repro.experiments.trace import Tracer
from repro.ocl.driver import embedded_profile_quirks
from repro.power import dvfs
from repro.whatif import fixed_driver_platform, mali_t628_platform, mali_t760_platform
from tests.conftest import examples


def _wire(data):
    """What the peer parses: the JSON text of ``data``."""
    return json.loads(json.dumps(data, sort_keys=True))


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

BASE_PLATFORMS = (
    default_platform(),
    mali_t628_platform(),
    mali_t760_platform(),
    fixed_driver_platform(),
    dataclasses.replace(default_platform(), driver_quirks=embedded_profile_quirks()),
)

factors = st.floats(min_value=0.5, max_value=2.0, allow_nan=False)


def _scaled(config, factor: float, names) -> object:
    return dataclasses.replace(
        config, **{name: getattr(config, name) * factor for name in names}
    )


@st.composite
def platforms(draw):
    """A base platform under random ``dataclasses.replace`` perturbations:
    scaled float constants, resized core counts and cache sizes, and
    reordered ``OpKind`` dicts."""
    base = draw(st.sampled_from(BASE_PLATFORMS))
    if not draw(st.booleans()):
        return base
    mali_floats = [f.name for f in dataclasses.fields(base.mali) if type(getattr(base.mali, f.name)) is float]
    cpu_floats = [f.name for f in dataclasses.fields(base.cpu) if type(getattr(base.cpu, f.name)) is float]
    rail_floats = [f.name for f in dataclasses.fields(base.rails)]
    mali = _scaled(base.mali, draw(factors), draw(st.sets(st.sampled_from(mali_floats))))
    cpu = _scaled(base.cpu, draw(factors), draw(st.sets(st.sampled_from(cpu_floats))))
    op_cost = list(base.mali.op_cost.items())
    if draw(st.booleans()):
        op_cost.reverse()
    mali = dataclasses.replace(
        mali,
        shader_cores=draw(st.integers(1, 16)),
        op_cost={op: cost * draw(factors) for op, cost in op_cost},
    )
    cpu = dataclasses.replace(
        cpu,
        cores=draw(st.integers(1, 8)),
        op_cycles=dict(reversed(list(cpu.op_cycles.items()))),
    )
    dram = _scaled(
        base.dram,
        draw(factors),
        ("peak_bandwidth", "cpu_single_core_cap", "cpu_dual_core_cap", "gpu_cap"),
    )
    dram = dataclasses.replace(
        dram, efficiency=_scaled(dram.efficiency, draw(factors), ("unit", "gather"))
    )
    return dataclasses.replace(
        base,
        mali=mali,
        cpu=cpu,
        dram=dram,
        rails=_scaled(base.rails, draw(factors), draw(st.sets(st.sampled_from(rail_floats)))),
        gpu_l2=dataclasses.replace(base.gpu_l2, size_bytes=draw(st.sampled_from((128, 256, 512))) * 1024),
        meter_sample_hz=draw(st.sampled_from((1.0, 10.0, 50.0))),
    )


@st.composite
def tasks(draw):
    governor = draw(st.sampled_from(dvfs.GOVERNORS))
    return RunTask(
        benchmark=draw(st.sampled_from(PAPER_ORDER)),
        version=draw(st.sampled_from(tuple(Version))),
        precision=draw(st.sampled_from(tuple(Precision))),
        scale=draw(st.floats(min_value=1e-3, max_value=4.0, allow_nan=False)),
        seed=draw(st.integers(0, 2**32)),
        platform=draw(st.one_of(st.none(), platforms())),
        governor=governor,
        energy_deadline_s=draw(
            st.one_of(st.none(), st.floats(min_value=1e-6, max_value=10.0))
        ),
    )


@functools.cache
def _real_runs() -> tuple[RunResult, ...]:
    """Measured runs (structured options included), fixed and governed."""
    return tuple(
        execute_run("vecop", version=version, precision=precision, scale=0.02, governor=governor)
        for version in (Version.SERIAL, Version.OPENCL, Version.OPENCL_OPT)
        for precision in (Precision.SINGLE, Precision.DOUBLE)
        for governor in (dvfs.GOVERNOR_DEFAULT, "ondemand")
    )


@st.composite
def runs(draw):
    bench = draw(st.sampled_from(PAPER_ORDER))
    version = draw(st.sampled_from(tuple(Version)))
    precision = draw(st.sampled_from(tuple(Precision)))
    governor = draw(st.sampled_from((None, "ondemand", "powersave")))
    text = st.text(max_size=40)
    kind = draw(st.sampled_from(("measured", "failed", "crash", "timeout")))
    if kind == "measured":
        return draw(st.sampled_from(_real_runs()))
    if kind == "failed":
        return RunResult.failed(bench, version, precision, draw(text), governor=governor)
    if kind == "crash":
        return RunResult.crash(
            bench, version, precision, f"crash: {draw(text)}",
            traceback_text=draw(st.one_of(st.none(), text)), governor=governor,
        )
    budget = draw(st.floats(min_value=1e-3, max_value=1e3))
    return RunResult.timeout(bench, version, precision, budget, governor=governor)


perf_deltas = st.dictionaries(
    st.sampled_from(("compile", "analysis", "gpu_timing", "cpu_timing")),
    st.dictionaries(st.sampled_from(("hits", "misses", "disk_hits")), st.integers(0, 10**6)),
)


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------


@settings(max_examples=examples(200), deadline=None)
@given(tasks())
def test_task_roundtrip_is_exact(task):
    decoded = decode_task(_wire(encode_task(task)))
    assert decoded == task
    assert repr(decoded) == repr(task)
    assert (
        CampaignSpec(platform=decoded.platform).platform_fingerprint()
        == CampaignSpec(platform=task.platform).platform_fingerprint()
    )


@pytest.mark.parametrize(
    "platform", BASE_PLATFORMS, ids=["exynos5250", "t628", "t760", "fixed_driver", "embedded"]
)
def test_base_platforms_roundtrip(platform):
    task = RunTask("vecop", Version.OPENCL_OPT, Precision.DOUBLE, 0.5, 7, platform=platform)
    decoded = decode_task(_wire(encode_task(task)))
    assert repr(decoded) == repr(task)


@settings(max_examples=examples(200), deadline=None)
@given(runs(), perf_deltas)
def test_run_roundtrip_keeps_the_row(run, delta):
    decoded, decoded_delta = decode_run(_wire(encode_run(run, delta)))
    assert run_to_row(decoded) == run_to_row(run)
    assert decoded_delta == delta
    assert decoded.diagnostics.get("traceback") == run.diagnostics.get("traceback")
    if not run.ok and run.failure_kind is None:
        assert math.isnan(decoded.elapsed_s) and math.isnan(decoded.energy_j)


@settings(max_examples=examples(50), deadline=None)
@given(st.lists(st.lists(st.tuples(runs(), perf_deltas), max_size=3), max_size=3), perf_deltas)
def test_family_roundtrip_keeps_every_row(groups, family_delta):
    value = (tuple(tuple(group) for group in groups), family_delta)
    message = _wire(encode_family(value))
    assert set(message) == {"groups", "perf"}
    group_runs, decoded_delta = decode_family(message)
    assert decoded_delta == family_delta
    assert [[(run_to_row(run), delta) for run, delta in runs] for runs in group_runs] == [
        [(run_to_row(run), delta) for run, delta in group] for group in groups
    ]


def test_crash_traceback_reaches_the_trace():
    run = RunResult.crash(
        "red", Version.OPENCL, Precision.SINGLE, "crash: InjectedCrash: boom",
        traceback_text="Traceback (most recent call last):\n  ...\nInjectedCrash: boom\n",
    )
    decoded, _ = decode_run(_wire(encode_run(run, {})))
    sink = ListTraceSink()
    campaign = Campaign(CampaignSpec(benchmarks=("red",)))
    task = RunTask("red", Version.OPENCL, Precision.SINGLE, 1.0, 1234)
    campaign._finish(task, None, decoded, {}, Tracer(sink))
    (crashed,) = [e for e in sink.events if e.event == "run_crashed"]
    assert crashed.detail["traceback"] == run.diagnostics["traceback"]
    assert crashed.detail["failure"] == run.failure


@pytest.mark.parametrize(
    "value",
    [
        {"enum": "Version", "value": "Nope"},
        {"record": "RunTask", "fields": [["benchmark", "vecop"]]},
        {"record": "Popen", "fields": []},
        {"quirk": "CompilerInternalError"},
        {"quirk": "default_quirks"},
        ["a", "list"],
        {"unknown": 1},
    ],
)
def test_values_outside_the_closed_types_are_frame_errors(value):
    with pytest.raises(FrameError):
        decode_task(value)


def test_unencodable_values_are_frame_errors():
    task = RunTask("vecop", Version.OPENCL_OPT, Precision.SINGLE, 1.0, 1, platform=object())
    with pytest.raises(FrameError):
        encode_task(task)
