"""End-to-end benchmark of the repro package: four user jobs.

Run from the repository root::

    python3 perfbench/run.py --workload figures_cold --seed 1234 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one after another
    python3 perfbench/run.py --self-check            # reduced scale, all workloads, traced too

Each repetition of a workload is a fresh interpreter (``job.py``) that
imports ``repro``, builds its inputs and makes the job call, so set-up
and a cold process are paid every time, as a user pays them.
Repetitions continue until ``--seconds`` have passed; the end-to-end
metrics are medians over them.  ``--trace 1`` alternates untraced and
traced repetitions and reports the per-layer split instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Operations are
grid cells (figures workloads) or design-space configs (space_sweep).
A crashed or timed-out repetition, an output digest that differs from
the pinned one (or, for other seeds, from the run's first), and a cell
failure the paper's platform did not have each count as failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from catalog import (  # noqa: E402
    DEFAULT_SEED,
    FIGURES,
    PINNED,
    WORKLOADS,
    pin_key,
)

#: fewest untraced repetitions per workload, whatever ``--seconds`` says
MIN_REPS = 3
#: no repetition starts that would end later than this many seconds
#: into a workload's run (priming included)
BUDGET_S = 150.0
#: a repetition still running this long into the workload's run is
#: killed and counted as failed
TIMEOUT_S = 170.0

END_TO_END = ("wall_s", "setup_s", "peak_rss_mb", "fidelity_log_err", "headline_log_err")


class Failure(Exception):
    """A repetition that produced no result (crash or timeout)."""


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def run_job(workload: str, seed: int, workdir: Path, deadline: float, *, reduced: bool,
            trace: bool, tier: Path | None = None, spans: Path | None = None) -> dict:
    """One repetition in a fresh interpreter; its JSON outcome."""
    cmd = [sys.executable, str(HERE / "job.py"), "--workload", workload, "--seed", str(seed),
           "--workdir", str(workdir)]
    if reduced:
        cmd.append("--reduced")
    if tier is not None:
        cmd += ["--tier", str(tier)]
    if trace:
        cmd.append("--trace")
        if spans is not None:
            cmd += ["--spans", str(spans)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    spawned = time.monotonic()
    # its own session, so a timeout kills the job's pool and remote
    # workers with it
    proc = subprocess.Popen(
        cmd + ["--spawned-at", repr(spawned)], cwd=ROOT, env=env,
        stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(deadline - spawned, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise Failure(f"{workload}: repetition timed out")
    finally:
        _reap_group(proc.pid)
    if proc.returncode != 0:
        raise Failure(f"{workload}: repetition exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise Failure(f"{workload}: repetition printed no result ({exc})") from exc


def _reap_group(pgid: int) -> None:
    """Kill whatever is left in a finished job's process group and wait
    until the group is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
        for _ in range(100):
            time.sleep(0.01)
            os.killpg(pgid, 0)
        print(f"warning: process group {pgid} outlived its job", file=sys.stderr)
    except ProcessLookupError:
        pass


class Gate:
    """Output gate: pinned digests at the default seed, one shared
    digest per output kind otherwise; counts operations."""

    def __init__(self, seed: int, reduced: bool) -> None:
        self.seed = seed
        self.reduced = reduced
        self.seen: dict = {}
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def check(self, workload: str, outcome: dict) -> None:
        self.attempted += outcome["ops"]
        key = pin_key(workload, self.reduced)
        expected = PINNED[key] if self.seed == DEFAULT_SEED else self.seen.get(key)
        self.seen.setdefault(key, outcome["digest"])
        if expected is not None and outcome["digest"] != expected:
            self.failed += outcome["ops"]
            self.notes.append(
                f"{workload}: output digest {outcome['digest'][:16]} != {expected[:16]}"
            )
            return
        self.failed += len(outcome["failures"])
        self.notes.extend(f"{workload}: {f}" for f in outcome["failures"])

    def crashed(self, ops: int, reason: str) -> None:
        self.attempted += ops
        self.failed += ops
        self.notes.append(reason)


def expected_ops(workload: str, reduced: bool) -> int:
    if workload in FIGURES:
        return 72
    return 1024 if reduced else 65536


def run_workload(workload: str, seed: int, seconds: float, trace: bool, reduced: bool,
                 min_reps: int, gate: Gate, workdir: Path) -> dict[str, float]:
    """Repeat ``workload`` for ``seconds`` and at least ``min_reps`` times.

    Returns the end-to-end metrics (medians over the untraced
    repetitions) and, with ``trace``, the per-layer metrics (medians
    over the traced repetitions, which alternate with untraced ones).
    """
    started = time.monotonic()
    deadline = started + TIMEOUT_S
    tier = None
    if workload == "figures_warm":
        # prime the persistent tier once; the timed repetitions read it
        tier = workdir / "tier"
        try:
            gate.check(workload, run_job(workload, seed, workdir / "prime", deadline,
                                         reduced=reduced, trace=False, tier=tier))
        except Failure as exc:
            gate.crashed(expected_ops(workload, reduced), str(exc))
    spans_dir = ROOT / ".perfbench" / "spans"
    if trace:
        spans_dir.mkdir(parents=True, exist_ok=True)
    plain: list[dict] = []
    traced: list[dict] = []
    timed = time.monotonic()
    rep = 0
    while True:
        now = time.monotonic()
        enough = len(plain) >= max(1, min_reps - trace) and (not trace or traced)
        # stop once enough time has passed, or when one more repetition
        # of the average length would overrun the budget
        projected = now + (now - timed) / rep if rep else now
        if (enough and now - timed >= seconds) or projected - started > BUDGET_S:
            break
        traced_rep = trace and len(traced) < len(plain)
        try:
            outcome = run_job(
                workload, seed, workdir / f"rep{rep}", deadline, reduced=reduced,
                trace=traced_rep, tier=tier, spans=spans_dir / f"{workload}.json",
            )
        except Failure as exc:
            gate.crashed(expected_ops(workload, reduced), str(exc))
            break
        gate.check(workload, outcome)
        (traced if traced_rep else plain).append(outcome)
        print(f"{workload} rep {rep}{' traced' if traced_rep else ''}: "
              + " ".join(f"{name}={outcome[name]:.6g}" for name in END_TO_END[:3]))
        shutil.rmtree(workdir / f"rep{rep}", ignore_errors=True)
        rep += 1
    if not plain or (trace and not traced):
        return {}
    if workload == "figures_warm":
        writes = [o["layers"]["perf.persist.disk_writes"] for o in plain + traced]
        if any(writes):
            # reported, not gated: the outputs are still right
            gate.notes.append(
                f"warm-tier check FAILED: timed runs wrote {writes} entries to the primed tier"
            )
    found = {name: statistics.median(o[name] for o in plain) for name in END_TO_END}
    if trace:
        if workload in ("figures_warm", "figures_remote"):
            gate.notes.append(
                f"{workload}: cells run in worker processes, whose spans are not measured;"
                " their layer times read 0"
            )
        found.update({
            name: statistics.median(o["layers"][name] for o in traced)
            for name in traced[0]["layers"]
        })
        found["trace.overhead_frac"] = (
            statistics.median(o["wall_s"] for o in traced) / found["wall_s"] - 1.0
        )
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="reduced scale, every workload, one untraced and one traced run")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    spec = load_spec()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    wanted = [m["name"] for m in (spec["per_layer"] if args.trace else spec["end_to_end"])]
    if args.self_check:
        wanted = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]

    workloads = WORKLOADS if args.workload == "all" or args.self_check else (args.workload,)
    trace = bool(args.trace) or args.self_check
    seconds, min_reps = (0.0, 1) if args.self_check else (args.seconds, MIN_REPS)
    gate = Gate(args.seed, reduced=args.self_check)
    workdir = ROOT / ".perfbench" / f"work-{os.getpid()}"
    metrics: dict[str, dict] = {}
    missing: list[str] = []
    try:
        for workload in workloads:
            found = run_workload(workload, args.seed, seconds, trace, args.self_check,
                                 min_reps, gate, workdir / workload)
            prefix = "" if len(workloads) == 1 else f"{workload}/"
            for name in wanted:
                if name not in found:
                    missing.append(prefix + name)
                    continue
                metrics[prefix + name] = {"value": found[name], "unit": units[name]}
                print(f"{prefix + name}: {found[name]:.6g} {units[name]}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for note in gate.notes:
        print(f"note: {note}")
    if missing:
        print(f"error: metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": metrics,
    }))
    return 0 if gate.failed == 0 or not args.self_check else 1


if __name__ == "__main__":
    sys.exit(main())
