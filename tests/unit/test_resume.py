"""Durable journal + checkpoint/resume tests.

The contract under test: a campaign run with ``journal_dir=`` can be
killed at *any* moment — a terminal in-cell error, a SIGKILL of the
orchestrating process mid-grid — and ``Campaign.resume`` (the engine
behind the ``repro resume`` CLI verb) finishes the remainder without
re-executing checkpointed cells, producing a ``ResultSet`` whose
``to_json()`` is byte-identical to an uninterrupted run.
"""

import json
import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.benchmarks import Precision, Version
from repro.experiments import (
    Campaign,
    CampaignJournal,
    CampaignSpec,
    JournalError,
    ListTraceSink,
    read_journal,
    read_trace,
)
from repro.experiments.faults import FaultSpec, injected
from repro.experiments.journal import replay_cells

TWO_VERSIONS = (Version.SERIAL, Version.OPENCL)
GRID = dict(benchmarks=("vecop", "red"), versions=TWO_VERSIONS, scale=0.02)

SRC = str(Path(__file__).resolve().parents[2] / "src")


def _child_pids(parent: int) -> list[int]:
    """Live direct children of ``parent``, read from ``/proc``."""
    pids = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue  # exited while we looked
        # the command name is parenthesised and may hold spaces
        state, ppid = stat.rsplit(")", 1)[1].split()[:2]
        if int(ppid) == parent and state not in "ZX":
            pids.append(int(entry.name))
    return pids


def _running(pid: int) -> bool:
    """Whether ``pid`` still runs (an unreaped zombie has exited)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] not in "ZX"


def clean_json(spec: CampaignSpec) -> str:
    return Campaign(spec).run(jobs=1).to_json()


class TestJournalRecords:
    def test_round_trip_records_every_cell(self, tmp_path):
        spec = CampaignSpec(**GRID)
        campaign = Campaign(spec)
        campaign.run(jobs=1, journal_dir=tmp_path / "j")
        records = read_journal(tmp_path / "j")
        events = [r["event"] for r in records]
        assert events[0] == "campaign_planned"
        assert events[-1] == "campaign_finished"
        assert events.count("cell_started") == spec.size
        assert events.count("cell_finished") == spec.size
        header = records[0]
        assert header["fingerprint"] == spec.fingerprint()
        assert header["total"] == spec.size
        # every completed cell replays
        assert len(replay_cells(records)) == spec.size

    def test_spec_pickle_reconstructs_grid(self, tmp_path):
        spec = CampaignSpec(**GRID)
        Campaign(spec).run(jobs=1, journal_dir=tmp_path / "j")
        assert CampaignJournal.load_spec(tmp_path / "j") == spec

    def test_resume_without_spec_raises(self, tmp_path):
        with pytest.raises(JournalError, match="nothing to resume"):
            Campaign.resume(tmp_path / "empty")

    def test_foreign_campaign_journal_rejected(self, tmp_path):
        spec = CampaignSpec(**GRID)
        Campaign(spec).run(jobs=1, journal_dir=tmp_path / "j")
        other = CampaignSpec(benchmarks=("vecop",), versions=TWO_VERSIONS, scale=0.02)
        with pytest.raises(JournalError, match="belongs to campaign"):
            Campaign(other).run(jobs=1, journal_dir=tmp_path / "j")

    def test_torn_final_line_dropped_with_warning(self, tmp_path):
        spec = CampaignSpec(**GRID)
        Campaign(spec).run(jobs=1, journal_dir=tmp_path / "j")
        path = tmp_path / "j" / "journal.jsonl"
        intact = read_journal(path)
        with open(path, "a") as fh:
            fh.write('{"event": "cell_fini')  # the SIGKILL artifact
        with pytest.warns(UserWarning, match="torn final line"):
            assert read_journal(path) == intact

    def test_mid_file_corruption_still_raises(self, tmp_path):
        spec = CampaignSpec(**GRID)
        Campaign(spec).run(jobs=1, journal_dir=tmp_path / "j")
        path = tmp_path / "j" / "journal.jsonl"
        lines = path.read_text().splitlines()
        lines[1] = '{"event": "cell_sta'  # damage, not an interrupted append
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(json.JSONDecodeError):
            read_journal(path)

    def test_torn_trace_final_line_dropped_with_warning(self, tmp_path):
        """Satellite: the trace reader shares the kill-tolerance rule."""
        spec = CampaignSpec(**GRID)
        trace_path = tmp_path / "trace.jsonl"
        Campaign(spec, trace=trace_path).run(jobs=1)
        intact = read_trace(trace_path)
        with open(trace_path, "a") as fh:
            fh.write('{"event": "fini')
        with pytest.warns(UserWarning, match="torn final line"):
            assert read_trace(trace_path) == intact


class TestResumeEquivalence:
    @pytest.mark.timeout_guard(120)
    def test_completed_journal_replays_everything(self, tmp_path):
        spec = CampaignSpec(**GRID)
        baseline = clean_json(spec)
        Campaign(spec).run(jobs=1, journal_dir=tmp_path / "j")
        resumed = Campaign.resume(tmp_path / "j")
        out = resumed.run(jobs=1)
        assert out.to_json() == baseline
        assert resumed.report.replayed == spec.size
        assert resumed.report.executed == 0

    @pytest.mark.timeout_guard(240)
    @pytest.mark.parametrize("jobs", [1, 4])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_abort_at_random_cell_then_resume(self, tmp_path, jobs, seed):
        """Property: terminal error at any cell boundary → resumable.

        An ``abort`` fault (a ``BaseException``, like KeyboardInterrupt)
        terminates the campaign at a randomly chosen grid cell; the
        journal holds whatever completed, and the resumed run is
        byte-identical to a clean one.
        """
        spec = CampaignSpec(
            benchmarks=("vecop", "red", "hist"), versions=TWO_VERSIONS, scale=0.02
        )
        baseline = clean_json(spec)
        rng = random.Random(seed)
        task = rng.choice(spec.tasks())
        fault = FaultSpec(
            benchmark=task.benchmark,
            version=task.version.value,
            precision=task.precision.value,
            mode="abort",
            times=-1,
        )
        campaign = Campaign(spec)
        with injected(fault, state_dir=tmp_path / "state"):
            with pytest.raises(BaseException, match="injected abort"):
                campaign.run(jobs=jobs, journal_dir=tmp_path / "j")
        resumed = Campaign.resume(tmp_path / "j")
        out = resumed.run(jobs=jobs)
        assert out.to_json() == baseline
        assert resumed.report.replayed == len(campaign.salvage.results)
        assert resumed.report.executed == spec.size - resumed.report.replayed

    @pytest.mark.timeout_guard(300)
    @pytest.mark.parametrize("jobs,kill_after", [(1, 3), (4, 2)])
    def test_sigkill_parent_then_resume(self, tmp_path, jobs, kill_after):
        """The hard case: SIGKILL the orchestrating process mid-grid."""
        spec = CampaignSpec(**GRID)
        baseline = clean_json(spec)
        journal_dir = tmp_path / "j"
        script = tmp_path / "child.py"
        script.write_text(
            "import sys\n"
            f"sys.path.insert(0, {SRC!r})\n"
            "from repro.benchmarks import Version\n"
            "from repro.experiments import Campaign, CampaignSpec\n"
            "spec = CampaignSpec(benchmarks=('vecop', 'red'),\n"
            "                    versions=(Version.SERIAL, Version.OPENCL),\n"
            "                    scale=0.02)\n"
            f"Campaign(spec).run(jobs={jobs}, journal_dir={str(journal_dir)!r})\n"
        )
        proc = subprocess.Popen([sys.executable, str(script)])
        journal_path = journal_dir / "journal.jsonl"
        workers: list[int] = []
        try:
            deadline = time.monotonic() + 120
            while proc.poll() is None and time.monotonic() < deadline:
                try:
                    done = journal_path.read_text().count('"event": "cell_finished"')
                except FileNotFoundError:
                    done = 0
                if done >= kill_after:
                    workers = _child_pids(proc.pid)
                    proc.send_signal(signal.SIGKILL)
                    break
                time.sleep(0.002)
        finally:
            proc.kill()
            proc.wait()
        # the orphaned pool workers notice the dead parent and exit
        gone_by = time.monotonic() + 10
        while any(map(_running, workers)) and time.monotonic() < gone_by:
            time.sleep(0.05)
        assert not [pid for pid in workers if _running(pid)], workers
        # regardless of where the kill landed (or whether the child won
        # the race and finished), the journal resumes to identical bytes
        resumed = Campaign.resume(journal_dir)
        out = resumed.run(jobs=jobs)
        assert out.to_json() == baseline
        assert len(out.results) == spec.size

    @pytest.mark.timeout_guard(120)
    def test_crash_rows_are_reexecuted_on_resume(self, tmp_path):
        """Operational accidents are not replayed: a cell recorded as
        crashed re-executes when the campaign is resumed."""
        spec = CampaignSpec(**GRID)
        cell = ("vecop", Version.OPENCL, Precision.SINGLE)
        fault = FaultSpec(benchmark="vecop", version="OpenCL", mode="raise", times=-1)
        with injected(fault, state_dir=tmp_path / "state"):
            crashed = Campaign(spec)
            crashed.run(jobs=1, journal_dir=tmp_path / "j")
        assert crashed.report.crashed_runs == (cell,)
        resumed = Campaign.resume(tmp_path / "j")
        out = resumed.run(jobs=1)
        assert out.results[cell].ok  # fault gone, cell re-executed clean
        assert resumed.report.replayed == spec.size - 1
        assert resumed.report.executed == 1

    @pytest.mark.timeout_guard(120)
    def test_replay_outranks_cache_and_is_traced(self, tmp_path):
        spec = CampaignSpec(**GRID)
        Campaign(spec, cache_dir=tmp_path / "cache").run(
            jobs=1, journal_dir=tmp_path / "j"
        )
        sink = ListTraceSink()
        resumed = Campaign.resume(tmp_path / "j", cache_dir=tmp_path / "cache", trace=sink)
        resumed.run(jobs=1)
        finished = [e for e in sink.events if e.event == "finished"]
        assert all(e.cache == "journal" for e in finished)
        assert resumed.report.cache_hits == 0
        assert "resumed:" in resumed.report.describe()
        # the resume itself was journaled
        events = [r["event"] for r in read_journal(tmp_path / "j")]
        assert "campaign_resumed" in events
        assert events[-1] == "campaign_finished"


class TestCLIResume:
    @pytest.mark.timeout_guard(240)
    def test_repro_resume_verb(self, tmp_path):
        """End to end: kill a CLI-started campaign, finish with `resume`."""
        spec = CampaignSpec(**GRID)
        baseline = clean_json(spec)
        # seed a partial journal: abort the campaign partway through
        fault = FaultSpec(benchmark="red", version="OpenCL", mode="abort", times=-1)
        with injected(fault, state_dir=tmp_path / "state"):
            with pytest.raises(BaseException, match="injected abort"):
                Campaign(spec).run(jobs=1, journal_dir=tmp_path / "j")
        env = dict(os.environ, PYTHONPATH=SRC)
        out_path = tmp_path / "resumed.json"
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro",
                "resume",
                str(tmp_path / "j"),
                "--no-cache",
                "--save",
                str(out_path),
            ],
            env=env,
            capture_output=True,
            text=True,
            timeout=180,
        )
        assert proc.returncode == 0, proc.stderr
        assert out_path.read_text() == baseline
        assert "resumed:" in proc.stdout
