"""Distributed campaign execution over framed TCP remote workers.

Two halves, one contract:

* :class:`WorkerServer` (the ``repro worker`` CLI verb) — a persistent
  remote worker.  It binds a TCP port, attaches its *own* persistent
  perf tier, and executes whole benchmark-family chunks through the
  same :func:`repro.experiments.engine._execute_family` entry the
  local process pool uses.  Tasks arrive and rows leave through the
  closed-type JSON codec of :mod:`repro.experiments.protocol` — rows
  are the ``run_to_row`` rows the journal persists, which is why the
  campaign's ``ResultSet.to_json()`` stays byte-identical to local
  execution.  While a chunk executes, the worker sends a heartbeat
  frame every :data:`HEARTBEAT_INTERVAL_S`.

  The handshake checks versions, not identity: a worker runs any grid
  cell a connected peer sends it, so bind it to a public interface
  only on a trusted network.

* :class:`RemoteWorkerPool` — the remote implementation of the
  engine's :class:`~repro.experiments.engine.Executor` contract.  One
  dispatcher thread per worker pulls chunks from a shared queue
  (preferring families the worker has already priced — the remote
  mirror of the local pool's cache-affinity placement) and fails a
  chunk's future with :class:`~repro.experiments.engine.ChunkLost`
  when its connection dies or goes silent for
  :data:`HEARTBEAT_TIMEOUT_S`.  Budgets are the engine's: its driver
  calls :meth:`RemoteWorkerPool.abort`, which drops that chunk's
  connection.  A lost connection is retried with the campaign's
  backoff policy; a worker whose reconnects are exhausted retires, and
  when the *last* one retires every queued chunk fails and
  :meth:`~RemoteWorkerPool.exhausted` turns true, so the engine runs
  the rest locally.

Every state transition is queued as a campaign trace event for the
engine to drain: ``worker_joined`` / ``worker_rejected`` (handshake),
``run_dispatched`` (a cell shipped to a named worker) and
``worker_lost`` (a connection died).
"""

from __future__ import annotations

import itertools
import queue as queue_mod
import socket
import threading
import time
import warnings
from concurrent.futures import Future
from pathlib import Path
from typing import Callable, Sequence

from ..errors import ReproError
from .engine import ChunkLost, Clock, _execute_family
from .protocol import (
    Handshake,
    ProtocolError,
    decode_chunk,
    decode_family,
    encode_chunk,
    encode_family,
    recv_message,
    send_message,
)

#: worker → coordinator liveness frame cadence while a chunk executes
HEARTBEAT_INTERVAL_S = 0.5
#: coordinator declares a connection dead after this much silence
HEARTBEAT_TIMEOUT_S = 10.0
#: TCP connect + handshake budget per attempt
CONNECT_TIMEOUT_S = 10.0


class HandshakeRejected(ReproError):
    """The peer's handshake does not match ours (stale worker)."""


def parse_address(text: str) -> tuple[str, int]:
    """``"host:port"`` → ``(host, port)`` with a helpful error."""
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise ValueError(f"worker address {text!r} is not host:port")
    return host, int(port)


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------


class WorkerServer:
    """A persistent remote campaign worker (the ``repro worker`` verb).

    Accepts one coordinator connection at a time; a dropped coordinator
    simply returns the server to its accept loop, so the same worker
    survives coordinator restarts, reconnects after injected link
    faults, and serves consecutive campaigns.  ``handshake`` overrides
    the advertised identity (tests use it to stage a stale worker);
    ``perf_dir`` attaches the worker's own persistent perf tier for the
    lifetime of :meth:`serve_forever`.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        perf_dir: str | Path | None = None,
        handshake: Handshake | None = None,
        hb_interval_s: float = HEARTBEAT_INTERVAL_S,
    ) -> None:
        self.handshake = handshake or Handshake.local()
        self.perf_dir = Path(perf_dir).expanduser() if perf_dir is not None else None
        self.hb_interval_s = hb_interval_s
        self._sock = socket.create_server((host, port))
        self.host, self.port = self._sock.getsockname()[:2]
        self._stop = threading.Event()
        #: chunks executed over this server's lifetime (tests, logs)
        self.chunks_served = 0

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def stop(self) -> None:
        """Ask the accept loop to wind down (thread-safe)."""
        self._stop.set()

    def serve_forever(self) -> None:
        """Serve coordinators until :meth:`stop` (or ``shutdown``)."""
        from .. import perf

        prior = perf.current_config()
        if self.perf_dir is not None:
            perf.configure(
                config=perf.PerfConfig(enabled=prior.enabled, persist_dir=self.perf_dir)
            )
        self._sock.settimeout(0.25)
        try:
            while not self._stop.is_set():
                try:
                    conn, _addr = self._sock.accept()
                except socket.timeout:
                    continue
                try:
                    self._handle(conn)
                except (ProtocolError, OSError):
                    # a dead coordinator (or an injected link fault) is
                    # routine: back to the accept loop for the reconnect
                    pass
                finally:
                    conn.close()
        finally:
            self._sock.close()
            if self.perf_dir is not None:
                perf.configure(config=prior)

    # ------------------------------------------------------------------
    def _handle(self, conn: socket.socket) -> None:
        conn.settimeout(CONNECT_TIMEOUT_S)
        hello = recv_message(conn)
        if hello.get("kind") != "hello":
            return
        send_message(conn, self.handshake.to_message(), endpoint="worker")
        conn.settimeout(None)
        while not self._stop.is_set():
            message = recv_message(conn)
            kind = message.get("kind")
            if kind == "chunk":
                self._run_chunk(conn, message)
            elif kind == "ping":
                send_message(conn, {"kind": "pong"}, endpoint="worker")
            elif kind == "shutdown":
                self._stop.set()
                return
            else:  # "bye" (rejection or clean close), or a violation
                return

    def _run_chunk(self, conn: socket.socket, message: dict) -> None:
        """Execute one family chunk, heartbeating while it runs.

        The tasks are decoded before anything runs (a value outside the
        codec's closed types drops the connection), then executed by
        :func:`engine._execute_family` — the exact entry local pool
        workers run.  The heartbeat loop runs in *this* thread so a
        chunk that takes seconds never leaves the coordinator guessing.
        """
        groups = decode_chunk(message.get("groups"))
        box: dict = {}

        def _work() -> None:
            try:
                box["value"] = _execute_family(groups)
            except BaseException as exc:  # noqa: BLE001 — shipped, not raised
                box["error"] = f"{type(exc).__name__}: {exc}"

        thread = threading.Thread(target=_work, daemon=True, name="repro-worker-chunk")
        thread.start()
        while thread.is_alive():
            thread.join(self.hb_interval_s)
            if thread.is_alive():
                send_message(conn, {"kind": "ping"}, endpoint="worker")
        self.chunks_served += 1
        if "error" in box:
            reply = {"kind": "chunk_error", "error": box["error"]}
        else:
            reply = {"kind": "result", **encode_family(box["value"])}
        send_message(conn, {**reply, "id": message.get("id")}, endpoint="worker")


def serve_worker(
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    perf_dir: str | Path | None = None,
    announce: Callable[[str], None] | None = None,
) -> None:
    """Run a remote worker until interrupted (the CLI entry).

    Marks the process as a fault-injection worker (so ``mode="exit"``
    faults may kill it, mirroring pool workers) and announces the bound
    address — ``--port 0`` picks a free port, and scripts parse the
    announcement to learn it.
    """
    from . import faults

    faults.mark_worker()
    server = WorkerServer(host, port, perf_dir=perf_dir)
    if announce is not None:
        announce(f"worker listening on {server.address}")
    server.serve_forever()


# ---------------------------------------------------------------------------
# coordinator side
# ---------------------------------------------------------------------------


class _Job:
    """One queued chunk: its task groups, its family and its future."""

    __slots__ = ("id", "payload", "family", "future", "timed_out")

    def __init__(self, job_id: int, payload: tuple) -> None:
        self.id = job_id
        self.payload = payload
        self.family = payload[0][0].benchmark
        self.future: Future = Future()
        #: set by :meth:`RemoteWorkerPool.abort` before it drops the link
        self.timed_out = False


class RemoteWorkerPool:
    """Schedules campaign chunks onto remote workers, fault-tolerantly.

    ``task_fields`` renders one task's trace fields (the engine passes
    its own helper so remote events share the campaign vocabulary);
    ``backoff`` maps a reconnect attempt number to a sleep in seconds
    (the engine passes its jittered exponential policy), slept through
    ``clock``.  The heartbeat watchdog bounds *socket* reads and so
    reads real time.

    Trace events are never emitted from dispatcher threads: they queue
    until the engine collects them with :meth:`poll`, so the campaign's
    trace sink needs no locking.
    """

    def __init__(
        self,
        addrs: Sequence[str],
        *,
        task_fields: Callable[[object], dict],
        clock=None,
        heartbeat_timeout_s: float = HEARTBEAT_TIMEOUT_S,
        connect_timeout_s: float = CONNECT_TIMEOUT_S,
        reconnect_attempts: int = 2,
        backoff: Callable[[int], float] | None = None,
    ) -> None:
        if not addrs:
            raise ValueError("RemoteWorkerPool needs at least one worker address")
        self.task_fields = task_fields
        self.clock = clock or Clock()
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self.connect_timeout_s = connect_timeout_s
        self.reconnect_attempts = reconnect_attempts
        self.backoff = backoff or (lambda attempt: 0.0)
        self.handshake = Handshake.local()
        self.events: queue_mod.SimpleQueue = queue_mod.SimpleQueue()
        self._cond = threading.Condition()
        self._queue: list[_Job] = []
        self._affinity: dict[str, str] = {}
        self._closed = False
        self._ids = itertools.count()
        self._workers = [_WorkerLink(self, addr) for addr in addrs]

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def connect(self) -> int:
        """Start every worker link; wait for first connection verdicts.

        Returns the number of workers that joined.  Links whose first
        attempt failed keep retrying in the background (they count as
        pending, not dead), so a campaign starts as soon as the
        handshakes that *can* settle have settled.
        """
        for worker in self._workers:
            worker.start()
        deadline = time.monotonic() + self.connect_timeout_s
        for worker in self._workers:
            worker.settled.wait(timeout=max(deadline - time.monotonic(), 0.05))
        return self.alive()

    def alive(self) -> int:
        """Worker links currently connected (or mid-chunk)."""
        return sum(1 for w in self._workers if w.state == "alive")

    def exhausted(self) -> bool:
        """Whether every worker link is terminally dead or rejected."""
        return all(w.state == "dead" for w in self._workers)

    def close(self) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        for worker in self._workers:
            if worker.job is not None:
                worker.drop()  # abandon a chunk still running
            worker.join(timeout=self.connect_timeout_s + 5.0)
        self._fail_queued("remote worker pool closed")

    # ------------------------------------------------------------------
    # the executor contract
    # ------------------------------------------------------------------
    def submit(self, groups: tuple) -> Future:
        """Queue one chunk; its future resolves with the family rows or
        fails with :class:`~repro.experiments.engine.ChunkLost`."""
        job = _Job(next(self._ids), groups)
        with self._cond:
            if self._closed or self.exhausted():
                job.future.set_exception(ChunkLost("no remote workers available"))
                return job.future
            self._queue.append(job)
            self._cond.notify_all()
        return job.future

    def probe(self, task) -> Future:
        """Run one suspect task alone, on whichever worker is live."""
        return self.submit(((task,),))

    def abort(self, future: Future) -> None:
        """Drop the connection running ``future``'s chunk; the chunk
        fails with ``ChunkLost(timed_out=True)``."""
        for worker in self._workers:
            job = worker.job
            if job is not None and job.future is future:
                job.timed_out = True
                worker.drop()

    def poll(self) -> list[tuple[str, dict]]:
        """The worker events queued since the last poll."""
        events = []
        while True:
            try:
                events.append(self.events.get_nowait())
            except queue_mod.Empty:
                return events

    # ------------------------------------------------------------------
    # dispatcher-thread internals
    # ------------------------------------------------------------------
    def _emit(self, name: str, **fields) -> None:
        self.events.put((name, fields))

    def _next_job(self, worker: "_WorkerLink") -> _Job | None:
        """Block for this worker's next chunk (``None`` = shut down).

        Cache-affinity placement: prefer a chunk of a family this
        worker has already completed, then a family no worker owns yet;
        stealing an owned family is the last resort — an idle worker
        beats a warm cache.
        """
        with self._cond:
            while True:
                if self._closed:
                    return None
                index = self._pick_index(worker.addr)
                if index is not None:
                    return self._queue.pop(index)
                self._cond.wait(timeout=0.5)

    def _pick_index(self, addr: str) -> int | None:
        unowned = None
        for i, job in enumerate(self._queue):
            owner = self._affinity.get(job.family)
            if owner == addr:
                return i
            if unowned is None and owner is None:
                unowned = i
        if unowned is not None:
            return unowned
        return 0 if self._queue else None

    def _record_affinity(self, family: str, addr: str) -> None:
        with self._cond:
            self._affinity[family] = addr

    def _drop_affinity(self, addr: str) -> None:
        with self._cond:
            for family in [f for f, a in self._affinity.items() if a == addr]:
                del self._affinity[family]

    def _worker_retired(self) -> None:
        """Called by a link entering terminal death; the last one out
        fails every queued job so the engine can degrade locally."""
        if self.exhausted():
            self._fail_queued("every remote worker is gone")

    def _fail_queued(self, reason: str) -> None:
        with self._cond:
            jobs, self._queue = self._queue, []
        for job in jobs:
            if not job.future.done():
                job.future.set_exception(ChunkLost(reason))


class _WorkerLink(threading.Thread):
    """One coordinator↔worker connection and its dispatch loop.

    ``state`` walks ``connecting → alive → (connecting ↔ alive)* →
    dead``; ``settled`` is set once the first connection attempt has a
    verdict, so :meth:`RemoteWorkerPool.connect` can report joins and
    rejections before the campaign schedules anything.  ``job`` is the
    chunk on the wire, if any.
    """

    def __init__(self, pool: RemoteWorkerPool, addr: str) -> None:
        super().__init__(daemon=True, name=f"repro-remote-{addr}")
        self.pool = pool
        self.addr = addr
        self.state = "connecting"
        self.settled = threading.Event()
        self.sock: socket.socket | None = None
        self.job: _Job | None = None

    # ------------------------------------------------------------------
    def run(self) -> None:
        pool = self.pool
        attempt = 0
        while True:
            try:
                sock, theirs = self._connect()
            except HandshakeRejected as exc:
                pool._emit(
                    "worker_rejected",
                    detail={"worker": self.addr, "reason": str(exc)},
                )
                self._retire()
                return
            except (OSError, ProtocolError):
                self.settled.set()
            else:
                attempt = 0
                self.state = "alive"
                self.settled.set()
                pool._emit(
                    "worker_joined",
                    detail={
                        "worker": self.addr,
                        "namespace": theirs.namespace,
                        "version": theirs.version,
                    },
                )
                try:
                    self._serve(sock)
                    return  # clean pool shutdown
                except ChunkLost as exc:
                    if pool._closed:
                        return
                    self.state = "connecting"
                    pool._drop_affinity(self.addr)
                    pool._emit(
                        "worker_lost",
                        detail={"worker": self.addr, "reason": exc.reason},
                    )
            attempt += 1
            if attempt > pool.reconnect_attempts:
                self._retire()
                return
            delay = pool.backoff(attempt)
            if delay > 0:
                pool.clock.sleep(delay)

    def _retire(self) -> None:
        self.state = "dead"
        self.settled.set()
        self.pool._worker_retired()

    def drop(self) -> None:
        """Shut the live connection down (from any thread); a blocked
        read on it fails at once."""
        sock = self.sock
        if sock is not None:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass

    # ------------------------------------------------------------------
    def _connect(self) -> tuple[socket.socket, Handshake]:
        pool = self.pool
        host, port = parse_address(self.addr)
        sock = socket.create_connection((host, port), timeout=pool.connect_timeout_s)
        try:
            send_message(sock, pool.handshake.to_message(), endpoint="coordinator")
            hello = recv_message(sock)
            if hello.get("kind") != "hello":
                raise HandshakeRejected(f"expected hello, got {hello.get('kind')!r}")
            theirs = Handshake.from_message(hello)
            reason = pool.handshake.reject_reason(theirs)
            if reason is not None:
                try:
                    send_message(sock, {"kind": "bye", "reason": reason}, endpoint="coordinator")
                except OSError:
                    pass
                raise HandshakeRejected(reason)
        except BaseException:
            sock.close()
            raise
        return sock, theirs

    def _serve(self, sock: socket.socket) -> None:
        """Pull chunks until shutdown; raise :class:`ChunkLost` on any
        connection trouble (the current job's future fails with it)."""
        self.sock = sock
        sock.settimeout(self.pool.heartbeat_timeout_s)
        try:
            while True:
                job = self.pool._next_job(self)
                if job is None:
                    try:
                        send_message(sock, {"kind": "bye"}, endpoint="coordinator")
                    except OSError:
                        pass
                    return
                self._run_job(sock, job)
        finally:
            self.sock = None
            sock.close()

    def _run_job(self, sock: socket.socket, job: _Job) -> None:
        pool = self.pool
        for group in job.payload:
            for task in group:
                pool._emit(
                    "run_dispatched",
                    detail={"worker": self.addr},
                    **pool.task_fields(task),
                )
        self.job = job
        job.future.set_running_or_notify_cancel()  # the budget starts now
        try:
            send_message(
                sock,
                {
                    "kind": "chunk",
                    "id": job.id,
                    "groups": encode_chunk(job.payload),
                },
                endpoint="coordinator",
            )
            while True:
                try:
                    message = recv_message(sock)
                except socket.timeout:
                    raise ChunkLost(f"no heartbeat for {pool.heartbeat_timeout_s:g}s") from None
                kind = message.get("kind")
                if kind == "ping":
                    continue  # liveness only
                if kind == "result" and message.get("id") == job.id:
                    value = decode_family(message)
                    pool._record_affinity(job.family, self.addr)
                    job.future.set_result(value)
                    return
                if kind == "chunk_error" and message.get("id") == job.id:
                    raise ChunkLost(f"worker-side error: {message.get('error')}")
                raise ChunkLost(f"protocol violation: unexpected {kind!r} frame")
        except (ChunkLost, OSError, ProtocolError) as exc:
            if job.timed_out:
                reason = "chunk overran its budget"
            elif isinstance(exc, ChunkLost):
                reason = exc.reason
            else:
                reason = f"{type(exc).__name__}: {exc}"
            lost = ChunkLost(reason, timed_out=job.timed_out)
            job.future.set_exception(lost)
            raise lost from exc
        finally:
            self.job = None
