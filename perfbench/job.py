"""One repetition of one benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per repetition, so every repetition
pays the import and its own set-up, exactly as a user's job does::

    python3 perfbench/job.py --workload figures_cold --seed 1234 \\
        --workdir .perfbench/work/rep0 --spawned-at <monotonic>

The job's outcome is printed as one JSON object on the last line of
standard output.  ``--trace`` wraps the layers' entry points (see
``spans.py``) and adds the per-layer split.
"""

from __future__ import annotations

import time

STARTED = time.monotonic()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

from catalog import MEMO_CACHES, problem_scale, space_grid_axes  # noqa: E402

#: the two cells the paper's platform failed (Fig. 2(b)): modelled
#: driver failures, expected outcomes rather than failed operations
EXPECTED_FAILURES = {("amcd", "OpenCL", "double"), ("amcd", "OpenCL Opt", "double")}


class RssSampler:
    """Peak resident memory of this process tree.

    Every ``interval`` seconds the resident sizes (``VmRSS``) of this
    process and its descendants (pool workers, remote workers, found
    through ``/proc/<pid>/task/*/children``) are summed.  The peak is
    the largest such sum, or this process's own peak if that is larger:
    for a single process it is exactly ``ru_maxrss``.  A sum taken at
    one instant does not depend on how a pool spread the work over its
    workers, which a sum of per-process peaks would.
    """

    def __init__(self, interval: float = 0.02) -> None:
        self.interval = interval
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def __enter__(self) -> "RssSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample()

    def sample(self) -> None:
        total = 0
        todo = [os.getpid()]
        while todo:
            pid = todo.pop()
            total += _vm_rss_kb(pid)
            try:
                tasks = os.listdir(f"/proc/{pid}/task")
            except OSError:
                continue
            for tid in tasks:
                try:
                    with open(f"/proc/{pid}/task/{tid}/children") as fh:
                        todo.extend(int(c) for c in fh.read().split())
                except OSError:
                    continue
        self.peak_kb = max(self.peak_kb, total)

    def peak_mb(self) -> float:
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return max(own, self.peak_kb) / 1024.0


def _vm_rss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _tree_bytes(*roots: Path) -> int:
    return sum(
        f.stat().st_size for root in roots if root.exists() for f in root.rglob("*") if f.is_file()
    )


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# workloads: the constructor builds the inputs and start() the worker
# processes (both set-up); call() is the timed job call
# ---------------------------------------------------------------------------


class Workload:
    """A user job: inputs built by the constructor, processes by
    :meth:`start` (both set-up), then the timed :meth:`call`."""

    def tier_dirs(self) -> tuple[Path, ...]:
        """Persistent perf tiers the job writes to."""
        return ()

    def start(self) -> None:
        """Start the processes the job needs."""

    def teardown(self) -> None:
        """Stop and reap whatever :meth:`start` started."""


class _Figures(Workload):
    """The SP+DP paper grid (9 benchmarks x 4 versions x 2 precisions)."""

    def __init__(self, args) -> None:
        from repro import Campaign, CampaignSpec, Precision

        self.Campaign = Campaign
        self.spec = CampaignSpec(
            precisions=(Precision.SINGLE, Precision.DOUBLE),
            scale=problem_scale(args.reduced),
            seed=args.seed,
        )
        self.workdir = Path(args.workdir)
        self.campaign = None

    def outcome(self, results) -> dict:
        from fidelity import figures_fidelity

        failures = []
        for run in results.results.values():
            cell = (run.benchmark, run.version.value, run.precision.value)
            expected = cell in EXPECTED_FAILURES
            if run.ok != (not expected) or (run.ok and not run.verified) or run.operational_failure:
                failures.append(f"{cell}: {run.failure or 'not verified'}")
        fidelity, headline = figures_fidelity(results)
        report = self.campaign.report
        counters = report.perf or {}
        return {
            "digest": _sha256(results.to_json()),
            "ops": len(results.results),
            "failures": failures,
            "fidelity_log_err": fidelity,
            "headline_log_err": headline,
            "counters": counters,
            "requeues": report.retries,
        }


class FiguresCold(_Figures):
    """``jobs=1``, empty memo, empty perf tier, fresh journal, no run cache."""

    def tier_dirs(self):
        return (self.workdir / "perf",)

    def call(self):
        self.campaign = self.Campaign(self.spec, perf_dir=self.workdir / "perf")
        return self.campaign.run(jobs=1, journal_dir=self.workdir / "journal")


class FiguresWarm(_Figures):
    """``jobs=2`` over a perf tier primed once; no journal, no run cache."""

    def __init__(self, args) -> None:
        super().__init__(args)
        self.tier = Path(args.tier)

    def tier_dirs(self):
        return (self.tier,)

    def call(self):
        self.campaign = self.Campaign(self.spec, perf_dir=self.tier)
        return self.campaign.run(jobs=2)


class FiguresRemote(_Figures):
    """The grid on two loopback ``repro worker`` processes, cold tiers."""

    def __init__(self, args) -> None:
        super().__init__(args)
        self.workers: list[subprocess.Popen] = []
        self.addrs: list[str] = []

    def start(self) -> None:
        from repro.experiments import RemoteWorkerPool

        for i in range(2):
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "worker", "--host", "127.0.0.1",
                 "--port", "0", "--perf-dir", str(self.workdir / f"worker{i}")],
                stdout=subprocess.PIPE,
                text=True,
            )
            self.workers.append(proc)
        for proc in self.workers:
            line = proc.stdout.readline().strip()
            if not line.startswith("worker listening on "):
                raise RuntimeError(f"worker did not announce its address: {line!r}")
            self.addrs.append(line.rsplit(" ", 1)[1])
        # one handshake per worker before timing, so version skew or a
        # dead worker fails set-up instead of degrading the timed run
        probe = RemoteWorkerPool(self.addrs, task_fields=lambda task: {})
        try:
            joined = probe.connect()
        finally:
            probe.close()
        if joined != len(self.addrs):
            raise RuntimeError(f"only {joined} of {len(self.addrs)} workers joined")

    def tier_dirs(self):
        return tuple(self.workdir / f"worker{i}" for i in range(len(self.workers)))

    def call(self):
        self.campaign = self.Campaign(self.spec, workers=self.addrs)
        return self.campaign.run(jobs=2)

    def outcome(self, results) -> dict:
        from repro import perf

        out = super().outcome(results)
        # a run that degraded to local execution did not measure the
        # remote path: any functional work here means cells ran locally
        local = perf.counters().get("functional", {})
        if local.get("hits", 0) + local.get("misses", 0):
            out["failures"].append("remote tier degraded to local execution")
        return out

    def teardown(self) -> None:
        for proc in self.workers:
            if proc.poll() is None:
                proc.terminate()
        for proc in self.workers:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()


class SpaceSweep(Workload):
    """``DesignSpace`` build, then a streamed, pruned 65 536-config sweep."""

    def __init__(self, args) -> None:
        from repro import perf
        from repro.calibration.socspace import config_grid

        self.scale = problem_scale(args.reduced)
        self.seed = args.seed
        self.configs = config_grid(**space_grid_axes(args.reduced))
        self.before = perf.counters()

    def call(self):
        from repro.designspace import DesignSpace, evaluate_space

        space = DesignSpace(scale=self.scale, seed=self.seed)
        return evaluate_space(
            self.configs, scale=self.scale, seed=self.seed, stream=True, prune=True,
            chunk_size=256, space=space,
        )

    def outcome(self, result) -> dict:
        from fidelity import space_fidelity
        from repro import perf
        from repro.calibration.socspace import EXYNOS_5250

        fidelity, headline = space_fidelity(result, EXYNOS_5250.name)
        failures = []
        if result.evaluated + result.pruned != len(self.configs):
            failures.append(
                f"{result.evaluated} evaluated + {result.pruned} pruned != {len(self.configs)}"
            )
        return {
            "digest": _sha256(json.dumps(result.to_dict(), sort_keys=True)),
            "ops": len(self.configs),
            "failures": failures,
            "fidelity_log_err": fidelity,
            "headline_log_err": headline,
            "counters": perf.counters_delta(self.before, perf.counters()),
            "pruned_frac": result.pruned / len(self.configs),
        }


WORKLOADS = {
    "figures_cold": FiguresCold,
    "figures_warm": FiguresWarm,
    "space_sweep": SpaceSweep,
    "figures_remote": FiguresRemote,
}


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------


def counter_layers(outcome: dict, written_bytes: int) -> dict[str, float]:
    """Per-layer metrics read from the program's own counters."""
    counters = outcome["counters"]
    out: dict[str, float] = {}
    for name in MEMO_CACHES:
        stats = counters.get(name, {})
        looked = stats.get("hits", 0) + stats.get("misses", 0)
        out[f"perf.memo.{name}.hit_ratio"] = stats.get("hits", 0) / looked if looked else 0.0
    out["perf.persist.disk_hits"] = sum(s.get("disk_hits", 0) for s in counters.values())
    out["perf.persist.disk_writes"] = sum(s.get("disk_writes", 0) for s in counters.values())
    out["perf.persist.mb_written"] = written_bytes / 1e6
    out["experiments.engine.requeues"] = outcome.get("requeues", 0)
    out["designspace.pruned_frac"] = outcome.get("pruned_frac", 0.0)
    return out


def span_layers(recorder) -> dict[str, float]:
    """Per-layer metrics from the recorded spans."""
    self_s = recorder.self_times()
    counts = recorder.counters

    def count(layer: str, key: str) -> float:
        return counts.get(layer, {}).get(key, 0)

    out: dict[str, float] = {}
    for layer in (
        "benchmarks.setup", "benchmarks.exec", "benchmarks.verify", "ocl", "ir.analyze",
        "compiler.compile", "optimizations.tune", "power.meter", "perf.hash",
    ):
        out[f"{layer}.self_s"] = self_s.get(layer, 0.0)
        out[f"{layer}.calls"] = count(layer, "calls")
    for layer in (
        "pricing", "designspace.build", "designspace.bounds", "designspace.price", "pareto",
        "perf.persist", "experiments.journal", "experiments.engine", "experiments.protocol",
        "job",
    ):
        out[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    out["optimizations.tune.candidates"] = count("optimizations.tune", "candidates")
    out["pricing.cells"] = count("pricing", "cells")
    out["designspace.price.configs"] = count("designspace.price", "configs")
    out["pareto.points"] = count("pareto", "points")
    out["perf.hash.mb"] = count("perf.hash", "bytes") / 1e6
    out["experiments.journal.appends"] = count("experiments.journal", "calls")
    out["experiments.protocol.frames"] = count("experiments.protocol", "frames")
    out["experiments.protocol.mb"] = (
        count("experiments.protocol", "bytes") + count("experiments.protocol.wait", "bytes")
    ) / 1e6
    out["experiments.protocol.wait_s"] = self_s.get("experiments.protocol.wait", 0.0)
    return out


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--reduced", action="store_true",
                        help="the self-check's reduced problem size")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--tier", default=None, help="primed perf tier (figures_warm)")
    parser.add_argument("--spawned-at", type=float, default=STARTED,
                        help="time.monotonic() when the parent started this process")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None, help="where a traced run writes its spans")
    args = parser.parse_args(argv)
    Path(args.workdir).mkdir(parents=True, exist_ok=True)

    import repro  # noqa: F401  (the import is part of set-up)

    imported = time.monotonic()
    recorder = None
    if args.trace:
        from spans import SpanRecorder

        recorder = SpanRecorder()
        recorder.install()

    with RssSampler() as sampler:
        workload = WORKLOADS[args.workload](args)
        prepared = time.monotonic()
        try:
            workload.start()
            started = time.monotonic()
            # outside the set-up window: measuring, not setting up
            written_before = _tree_bytes(*workload.tier_dirs())
            called = time.monotonic()
            if recorder is not None:
                with recorder.span("job"):
                    result = workload.call()
            else:
                result = workload.call()
            wall_s = time.monotonic() - called
            sampler.sample()
        finally:
            workload.teardown()
    if recorder is not None:
        recorder.uninstall()

    outcome = workload.outcome(result)
    written = _tree_bytes(*workload.tier_dirs()) - written_before
    layers = counter_layers(outcome, written)
    layers.update({
        "setup.import_s": imported - args.spawned_at,
        "setup.inputs_s": prepared - imported,
        "setup.workers_s": started - prepared,
    })
    if recorder is not None:
        layers.update(span_layers(recorder))
        if args.spans:
            recorder.write(args.spans)
    print(json.dumps({
        "workload": args.workload,
        "digest": outcome["digest"],
        "ops": outcome["ops"],
        "failures": outcome["failures"],
        "wall_s": wall_s,
        "setup_s": started - args.spawned_at,
        "peak_rss_mb": sampler.peak_mb(),
        "fidelity_log_err": outcome["fidelity_log_err"],
        "headline_log_err": outcome["headline_log_err"],
        "layers": layers,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
