"""The recovery ladder against a scripted executor: no processes, no sockets.

:class:`~repro.experiments.engine.Campaign` drives every execution tier
through one :class:`~repro.experiments.engine.Executor` contract, so a
fake executor can stand in for the local pool or the remote tier.  The
fake runs chunks in-process (``_execute_family``) and loses, hangs or
exhausts exactly where a test scripts it, which pins down each rung:
family → group → single splits, backoff slept on the injectable clock,
the probe verdict (survive or convict), a timed-out single task
convicted without a probe, and remote exhaustion handing the leftovers
to the local executor.
"""

from __future__ import annotations

from concurrent.futures import Future

import pytest

from repro.benchmarks.base import Precision, Version
from repro.experiments import Campaign, CampaignSpec, ChunkLost, Clock, ListTraceSink
from repro.experiments.engine import _execute_family

GRID = dict(
    benchmarks=("vecop", "red"),
    versions=(Version.SERIAL, Version.OPENCL),
    precisions=(Precision.SINGLE, Precision.DOUBLE),
    scale=0.02,
)
#: the cell the scripts below target
CELL = ("vecop", Version.OPENCL, Precision.SINGLE)


class FakeExecutor:
    """Runs chunks in-process; ``lose`` maps a cell to how many chunks
    holding it are lost (``-1``: every one), ``hang`` cells never
    finish until aborted, probes of ``convict`` cells are lost, and the
    chunk after the first ``serve`` ones — or the first probe, with
    ``die_on_probe`` — is lost with the last worker, exhausting the
    executor."""

    def __init__(self, *, lose=None, hang=(), convict=(), serve=None, die_on_probe=False) -> None:
        self.lose = dict(lose or {})
        self.hang = set(hang)
        self.convict = set(convict)
        self.serve = serve
        self.die_on_probe = die_on_probe
        self.gone = False
        self.submitted: list[tuple] = []
        self.probed: list[tuple] = []
        self.closed = False
        self._hung: set[Future] = set()

    def submit(self, groups) -> Future:
        self.submitted.append(tuple(tuple(task.cell for task in group) for group in groups))
        if self.serve is not None:
            if self.serve == 0:
                self.gone = True
                return _lost("every remote worker is gone")
            self.serve -= 1
        cells = [task.cell for group in groups for task in group]
        if any(cell in self.hang for cell in cells):
            future = _running()
            self._hung.add(future)
            return future
        for cell in cells:
            if self.lose.get(cell):
                self.lose[cell] -= self.lose[cell] > 0
                return _lost(f"worker died running {cell}")
        return _done(groups)

    def probe(self, task) -> Future:
        self.probed.append(task.cell)
        self.gone = self.gone or self.die_on_probe
        if task.cell in self.convict or self.die_on_probe:
            return _lost("probe worker died")
        return _done(((task,),))

    def abort(self, future: Future) -> None:
        if future in self._hung:
            self._hung.discard(future)
            future.set_exception(ChunkLost("aborted", timed_out=True))

    def exhausted(self) -> bool:
        return self.gone

    def poll(self) -> list:
        return []

    def close(self) -> None:
        self.closed = True


def _running() -> Future:
    future: Future = Future()
    future.set_running_or_notify_cancel()
    return future


def _lost(reason: str) -> Future:
    future = _running()
    future.set_exception(ChunkLost(reason))
    return future


def _done(groups) -> Future:
    future = _running()
    future.set_result(_execute_family(tuple(groups)))
    return future


class FakeClock:
    """Virtual time: ``sleep`` advances it, and so does every reading
    (by ``tick``), so budgets expire without wall-clock waits."""

    def __init__(self, tick: float = 0.0) -> None:
        self.now = 0.0
        self.tick = tick
        self.sleeps: list[float] = []

    def clock(self) -> Clock:
        return Clock(monotonic=self._monotonic, sleep=self._sleep)

    def _monotonic(self) -> float:
        self.now += self.tick
        return self.now

    def _sleep(self, seconds: float) -> None:
        self.sleeps.append(seconds)
        self.now += seconds


@pytest.fixture(scope="module")
def local_json() -> str:
    return Campaign(CampaignSpec(**GRID)).run(jobs=1).to_json()


def _campaign(executor: FakeExecutor, **kwargs) -> Campaign:
    campaign = Campaign(CampaignSpec(**GRID), **kwargs)
    campaign._local_executor = lambda workers: executor
    return campaign


def _shape(entry: tuple) -> tuple[int, ...]:
    return tuple(len(group) for group in entry)


def test_clean_run_is_byte_identical(local_json):
    fake = FakeExecutor()
    campaign = _campaign(fake)
    assert campaign.run(jobs=2).to_json() == local_json
    assert [_shape(c) for c in fake.submitted] == [(2, 2), (2, 2)]
    assert fake.closed
    assert campaign.report.retries == 0


def test_family_group_single_splits(local_json):
    """Each loss narrows the chunk holding the cell by one rung."""
    fake = FakeExecutor(lose={CELL: 2})
    campaign = _campaign(fake, retries=2)
    assert campaign.run(jobs=2).to_json() == local_json
    vecop = [c for c in fake.submitted if c[0][0][0] == "vecop"]
    # the family, its two precision groups, then the SP group's singles
    assert [_shape(c) for c in vecop] == [(2, 2), (2,), (2,), (1,), (1,)]
    assert campaign.report.retries == 2
    assert fake.probed == []


def test_backoff_slept_through_fake_clock(local_json):
    fake = FakeExecutor(lose={CELL: 3})
    clock = FakeClock()
    campaign = _campaign(fake, retries=3, retry_backoff_s=1.0, clock=clock.clock())
    assert campaign.run(jobs=2).to_json() == local_json
    # family (1st loss), group (2nd), single (3rd) → backoff 1·2² then retry
    assert clock.sleeps == [4.0]
    assert fake.probed == []


def test_probe_clears_collateral_damage(local_json):
    fake = FakeExecutor(lose={CELL: -1})
    campaign = _campaign(fake, retries=1)
    assert campaign.run(jobs=2).to_json() == local_json
    assert fake.probed == [CELL]
    assert campaign.report.crashed_runs == ()


def test_probe_convicts_the_culprit():
    fake = FakeExecutor(lose={CELL: -1}, convict={CELL})
    sink = ListTraceSink()
    campaign = _campaign(fake, retries=1, trace=sink)
    results = campaign.run(jobs=2)
    run = results.results[CELL]
    assert run.crashed
    assert run.failure == "crash: worker process died executing this cell"
    assert "probe worker died" in run.diagnostics["traceback"]
    assert fake.probed == [CELL]
    assert campaign.report.crashed_runs == (CELL,)
    assert sum(r.ok for r in results.results.values()) == CampaignSpec(**GRID).size - 1
    assert "run_crashed" in [e.event for e in sink.events]


def test_timed_out_single_task_convicted_without_probe():
    fake = FakeExecutor(hang={CELL})
    campaign = _campaign(fake, cell_timeout_s=1.0, clock=FakeClock(tick=5.0).clock())
    results = campaign.run(jobs=2)
    run = results.results[CELL]
    assert run.timed_out and "1s wall-clock budget" in run.failure
    assert fake.probed == []
    assert campaign.report.timeout_runs == (CELL,)
    assert campaign.report.crashed_runs == ()
    # family → group → single, each aborted once it overran its budget
    vecop = [c for c in fake.submitted if c[0][0][0] == "vecop"]
    assert [_shape(c) for c in vecop] == [(2, 2), (2,), (2,), (1,), (1,)]
    assert campaign.report.retries == 2


def test_remote_exhaustion_hands_leftovers_to_local(local_json):
    """The remote tier serves one chunk, then every worker is gone: the
    chunk lost to exhaustion is requeued uncounted and, with the rest,
    runs on the local executor."""
    spec = CampaignSpec(**{**GRID, "benchmarks": ("vecop", "red", "hist")})
    remote = FakeExecutor(serve=1)
    local = FakeExecutor()
    campaign = Campaign(spec, workers=("fake:1",))
    campaign._remote_executor = lambda: remote
    campaign._local_executor = lambda workers: local
    with pytest.warns(RuntimeWarning, match="remote workers degraded"):
        out = campaign.run(jobs=2).to_json()
    assert out == Campaign(spec).run(jobs=1).to_json()
    families = lambda chunks: [c[0][0][0] for c in chunks]  # noqa: E731
    assert families(remote.submitted) == ["vecop", "red"]
    assert families(local.submitted) == ["red", "hist"]
    assert remote.closed and local.closed
    assert campaign.report.retries == 0
    assert campaign.report.degraded == ("remote_workers: every remote worker was lost",)


def test_exhausted_remote_probes_on_the_local_lane():
    """A probe lost because the last remote worker went with it gets
    its verdict on a local probe lane: exhaustion never skips the
    conviction."""
    remote = FakeExecutor(lose={CELL: -1}, die_on_probe=True)
    lane = FakeExecutor(convict={CELL})
    campaign = Campaign(CampaignSpec(**GRID), workers=("fake:1",), retries=0)
    campaign._remote_executor = lambda: remote
    campaign._local_executor = lambda workers: lane
    results = campaign.run(jobs=1)
    assert remote.probed == [CELL] and lane.probed == [CELL]
    assert results.results[CELL].crashed
    assert lane.submitted == []
    assert remote.closed and lane.closed
