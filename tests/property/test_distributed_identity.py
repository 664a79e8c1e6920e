"""Distribution-level identity: remote execution never changes a byte.

The tentpole guarantee of the distributed tier is that a campaign's
``ResultSet.to_json()`` is byte-identical whether its cells run in the
local process pool or on remote ``repro worker`` processes over the
framed TCP protocol — and that this still holds when a worker is
killed mid-campaign (its chunks redistribute through the recovery
ladder onto the survivor; no cell is lost, duplicated or re-ordered).

The kill scenario uses real ``repro worker`` subprocesses and the
``mode="exit"`` fault (``os._exit`` inside the executing chunk, the
SIGKILL stand-in), inherited by the workers through the environment;
the shared on-disk attempt counter makes the retry land cleanly on the
surviving worker, deterministically.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.benchmarks.base import Precision, Version
from repro.experiments import Campaign, CampaignSpec, ListTraceSink, WorkerServer
from repro.experiments import faults

SRC = str(Path(__file__).resolve().parents[2] / "src")

#: the distributed grid: two families × two precisions × three versions
#: — enough structure for family placement, redistribution and ordering
#: to all have room to go wrong
GRID = dict(
    benchmarks=("vecop", "red"),
    versions=(Version.SERIAL, Version.OPENMP, Version.OPENCL),
    precisions=(Precision.SINGLE, Precision.DOUBLE),
    scale=0.02,
)


@pytest.fixture(scope="module")
def local_json() -> str:
    """The reference bytes: the classic local pool at jobs=4."""
    return Campaign(CampaignSpec(**GRID)).run(jobs=4).to_json()


def _spawn_worker(env: dict) -> tuple[subprocess.Popen, str]:
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "worker", "--port", "0"],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
    )
    line = proc.stdout.readline().strip()
    assert line.startswith("worker listening on "), line
    return proc, line.rsplit(" ", 1)[-1]


@pytest.mark.timeout_guard(300)
def test_two_loopback_workers_byte_identical(local_json):
    """Plain distribution: local jobs=4 vs two in-thread loopback
    workers produce the same bytes, with every cell dispatched."""
    servers = [WorkerServer(), WorkerServer()]
    for server in servers:
        threading.Thread(target=server.serve_forever, daemon=True).start()
    sink = ListTraceSink()
    campaign = Campaign(
        CampaignSpec(**GRID),
        trace=sink,
        workers=[s.address for s in servers],
    )
    try:
        remote_json = campaign.run(jobs=4).to_json()
    finally:
        for server in servers:
            server.stop()
    assert remote_json == local_json
    events = [e.event for e in sink.events]
    assert events.count("run_dispatched") == CampaignSpec(**GRID).size
    assert campaign.report.failed_runs == ()
    assert campaign.report.degraded == ()
    # family affinity: both workers joined and both served chunks
    assert events.count("worker_joined") == 2
    assert sum(s.chunks_served for s in servers) >= 2


@pytest.mark.timeout_guard(300)
def test_non_default_platform_crosses_the_wire():
    """A what-if platform ships field by field through the JSON task
    codec: two loopback workers on the Mali-T628 platform produce the
    bytes of a local jobs=1 run on it."""
    from repro.whatif import mali_t628_platform

    spec = CampaignSpec(**GRID, platform=mali_t628_platform())
    local = Campaign(spec).run(jobs=1).to_json()
    servers = [WorkerServer(), WorkerServer()]
    for server in servers:
        threading.Thread(target=server.serve_forever, daemon=True).start()
    campaign = Campaign(spec, workers=[s.address for s in servers])
    try:
        remote = campaign.run(jobs=2).to_json()
    finally:
        for server in servers:
            server.stop()
    assert remote == local
    assert campaign.report.degraded == ()
    assert sum(s.chunks_served for s in servers) >= 2


@pytest.mark.timeout_guard(300)
def test_mid_campaign_worker_kill_byte_identical(tmp_path, local_json):
    """A worker process dying mid-chunk must not change the bytes.

    The injected ``mode="exit"`` fault ``os._exit``s whichever worker
    executes red/OpenCL first; its chunk re-enters the recovery ladder
    and completes on the surviving worker.  No lost cells, no
    duplicates, no demotions — byte-identity end to end.
    """
    env = {**os.environ, "PYTHONPATH": SRC}
    # precision-narrowed: attempt counters are per (bench, version,
    # precision), so an unfiltered spec would fire once per precision
    # and kill the surviving worker too
    faults.install(
        (
            faults.FaultSpec(
                benchmark="red", version="OpenCL", precision="single",
                mode="exit", times=1,
            ),
        ),
        state_dir=tmp_path / "state",
    )
    procs = []
    try:
        env = {**env, **{faults.ENV_VAR: os.environ[faults.ENV_VAR]}}
        for _ in range(2):
            procs.append(_spawn_worker(env))
        sink = ListTraceSink()
        campaign = Campaign(
            CampaignSpec(**GRID),
            trace=sink,
            workers=[addr for _, addr in procs],
            retries=2,
        )
        remote_json = campaign.run(jobs=4).to_json()
    finally:
        faults.clear()
        for proc, _ in procs:
            proc.terminate()
            proc.wait(timeout=10)
    assert remote_json == local_json
    events = [e.event for e in sink.events]
    assert events.count("worker_lost") >= 1
    assert campaign.report.retries >= 1
    assert campaign.report.failed_runs == ()
    assert campaign.report.crashed_runs == ()
    # the tier survived on the remaining worker — no local fallback
    assert campaign.report.degraded == ()
    # exactly one finished record per cell: nothing ran twice into the
    # result set, nothing was dropped
    finished = [e for e in sink.events if e.event == "finished"]
    assert len(finished) == CampaignSpec(**GRID).size


@pytest.mark.timeout_guard(300)
def test_killing_every_worker_degrades_not_fails(tmp_path, local_json):
    """Losing the whole remote tier mid-campaign falls back to local
    execution: the campaign completes with the same bytes, a
    ``tier_degraded`` event and a DEGRADED report line — never an
    exception."""
    env = {**os.environ, "PYTHONPATH": SRC}
    # every OpenCL attempt of both families kills its worker: with one
    # single-worker tier the connection loss repeats until the link
    # retires, exhausting the pool
    faults.install(
        (faults.FaultSpec(benchmark="vecop", version="Serial", mode="exit", times=-1),),
        state_dir=tmp_path / "state",
    )
    try:
        env = {**env, **{faults.ENV_VAR: os.environ[faults.ENV_VAR]}}
        proc, addr = _spawn_worker(env)
    finally:
        faults.clear()
    sink = ListTraceSink()
    campaign = Campaign(
        CampaignSpec(**GRID),
        trace=sink,
        workers=[addr],
        retries=1,
    )
    try:
        with pytest.warns(RuntimeWarning, match="remote workers degraded"):
            remote_json = campaign.run(jobs=1).to_json()
    finally:
        proc.terminate()
        proc.wait(timeout=10)
    # the coordinator process never installed the fault, so the local
    # fallback executes every remaining cell cleanly
    assert remote_json == local_json
    assert any(
        e.event == "tier_degraded" and e.detail["tier"] == "remote_workers"
        for e in sink.events
    )
    assert any(s.startswith("remote_workers:") for s in campaign.report.degraded)
    assert campaign.report.failed_runs == ()
