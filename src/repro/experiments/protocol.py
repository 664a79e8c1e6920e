"""Framed, JSON-only wire protocol for distributed campaign execution.

The coordinator (:class:`~repro.experiments.remote.RemoteWorkerPool`)
and remote workers (``repro worker``) speak a small length-prefixed
frame protocol over TCP:

``[kind:1][length:4][crc32:4][payload:length]``

* ``kind`` is always ``b"J"``: the payload is one JSON object.  Any
  other kind byte — including the ``b"P"`` pickle frames of protocol
  version 1 — is rejected as an unknown frame kind (:class:`FrameError`)
  before its payload is read.  Nothing read from a socket is unpickled;
* ``length`` and ``crc32`` are big-endian unsigned 32-bit integers;
  the CRC covers the payload bytes, so a corrupted frame is detected
  on receive instead of being decoded into garbage — the receiving
  side treats it as a protocol violation and drops the connection,
  which routes the in-flight chunk into the coordinator's recovery
  ladder.

Every message is a dict with a ``"kind"`` key.  Chunk tasks and result
rows cross through a small closed-type codec: :func:`encode_task`
ships a :class:`~repro.experiments.engine.RunTask` with its enums by
value, the platform's frozen config dataclasses field by field,
``OpKind``-keyed dicts as ordered pairs and driver quirks by class name
from :mod:`repro.ocl.driver`; anything else is a :class:`FrameError`.
Results travel as the :func:`~repro.experiments.runner.run_to_row` row
the journal and the run cache already persist, plus the crash
traceback and the perf-counter delta (:func:`encode_family`).

The first exchange on a fresh connection is the **handshake**: the
coordinator sends its :class:`Handshake` (protocol version, perf-tier
schema namespace ``v<schema>-<version>``, and the repro library
version), the worker replies with its own, and the coordinator rejects
mismatches (:func:`Handshake.reject_reason`) — a stale worker would
price cells with different calibrated constants and silently poison
the campaign's byte-identity, so it is turned away with a
``worker_rejected`` trace event.  The handshake checks versions; it
does not authenticate the peer.

Deterministic network faults (:mod:`repro.experiments.faults`, modes
``net_drop`` / ``net_stall`` / ``net_garble``) hook the *send* path:
:func:`send_message` consults :func:`repro.experiments.faults.maybe_net`
with the sending endpoint name and the message kind, so tests can drop
the first result frame of a worker, stall a heartbeat, or corrupt a
chunk dispatch — and assert the recovery machinery restores
byte-identical output.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import socket
import struct
import zlib
from dataclasses import asdict, dataclass

from ..errors import ReproError
from . import faults

#: bump when the frame layout or message vocabulary changes (2: JSON
#: frames only, tasks and rows through the closed-type codec; 3: chunk
#: and result messages drop the CPU pre-pricing fields)
PROTOCOL_VERSION = 3

#: frame header: kind byte, payload length, payload CRC32
_HEADER = struct.Struct("!cII")

#: refuse absurd frames before allocating for them (a garbled length
#: field must not look like a 3 GiB read)
MAX_FRAME_BYTES = 64 * 1024 * 1024

_KIND_JSON = b"J"


class ProtocolError(ReproError):
    """Base of every wire-protocol failure."""


class FrameError(ProtocolError):
    """A structurally invalid frame or message (bad kind, oversized
    length, CRC mismatch, a value outside the codec's closed types).
    The connection that produced it cannot be trusted any further and
    is dropped by the receiver."""


class ConnectionClosed(ProtocolError):
    """The peer closed the connection (cleanly between frames, or torn
    mid-frame — both mean the in-flight work must be redistributed)."""


@dataclass(frozen=True)
class Handshake:
    """What each side advertises before any work flows.

    ``protocol`` is :data:`PROTOCOL_VERSION`; ``namespace`` is the
    persistent perf tier's ``v<schema>-<version>`` namespace (see
    :func:`repro.perf.persist._namespace`), which already encodes both
    the persisted-entry schema and the library version — two processes
    in the same namespace price cells bitwise-identically; ``version``
    is ``repro.__version__``, carried separately so a rejection can name
    the human-readable culprit.
    """

    protocol: int
    namespace: str
    version: str

    @classmethod
    def local(cls) -> "Handshake":
        from .. import __version__
        from ..perf.persist import _namespace

        return cls(protocol=PROTOCOL_VERSION, namespace=_namespace(), version=__version__)

    def reject_reason(self, theirs: "Handshake") -> str | None:
        """Why ``theirs`` cannot join a campaign run by us (or ``None``).

        Every field must match exactly: a worker with a different
        protocol cannot be spoken to, and one with a different schema
        namespace or library version would return rows this campaign
        cannot guarantee byte-identical to local execution.
        """
        if theirs.protocol != self.protocol:
            return f"protocol {theirs.protocol} != {self.protocol}"
        if theirs.namespace != self.namespace:
            return f"perf namespace {theirs.namespace!r} != {self.namespace!r}"
        if theirs.version != self.version:
            return f"repro version {theirs.version!r} != {self.version!r}"
        return None

    def to_message(self) -> dict:
        return {"kind": "hello", **asdict(self)}

    @classmethod
    def from_message(cls, message: dict) -> "Handshake":
        try:
            return cls(
                protocol=message["protocol"],
                namespace=message["namespace"],
                version=message["version"],
            )
        except KeyError as exc:
            raise FrameError(f"malformed hello message: missing {exc}") from None


# ---------------------------------------------------------------------------
# framing
# ---------------------------------------------------------------------------


def send_message(sock: socket.socket, message: dict, *, endpoint: str | None = None) -> None:
    """Serialize one message as JSON and send it as a CRC-checked frame.

    A message that is not plain JSON raises :class:`FrameError`: tasks
    and rows must go through the codec first.  ``endpoint`` names the
    sending side for the deterministic network fault hook (``"worker"``
    / ``"coordinator"``); ``None`` skips the hook entirely.
    """
    kind = message.get("kind")
    try:
        payload = json.dumps(message, sort_keys=True).encode()
    except (TypeError, ValueError) as exc:
        raise FrameError(f"{kind!r} message is not plain JSON: {exc}") from None
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameError(f"frame of {len(payload)} bytes exceeds {MAX_FRAME_BYTES}")
    # The CRC is taken over the *clean* payload before the fault hook so
    # an injected net_garble ships a corrupt frame under an honest CRC —
    # exactly what in-flight corruption looks like to the receiver.
    crc = zlib.crc32(payload)
    if endpoint is not None:
        action = faults.maybe_net(endpoint, kind)
        if action is not None:
            payload = _apply_net_fault(action, endpoint, kind, payload)
    header = _HEADER.pack(_KIND_JSON, len(payload), crc)
    sock.sendall(header + payload)


def _apply_net_fault(spec: "faults.FaultSpec", endpoint: str, kind: str | None, payload: bytes) -> bytes:
    """Enact one triggered network fault on an outgoing frame."""
    import time as _time

    if spec.mode == "net_drop":
        # the link died under this frame: the peer sees a closed
        # connection, the sender an ordinary connection-reset error
        raise ConnectionResetError(
            f"injected net_drop: {endpoint} frame {kind!r}"
        )
    if spec.mode == "net_stall":
        _time.sleep(spec.seconds)
        return payload
    # net_garble: corrupt the payload *after* the CRC hook point —
    # send_message computes the CRC over the clean bytes, so the
    # receiver's check fails and the frame is rejected, never parsed
    garbled = bytearray(payload)
    garbled[len(garbled) // 2] ^= 0xFF
    return bytes(garbled)


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    """Read exactly ``n`` bytes or raise :class:`ConnectionClosed`.

    ``socket.timeout`` passes through untouched: the caller's read
    timeout is its heartbeat watchdog, not a protocol event.
    """
    chunks: list[bytes] = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise ConnectionClosed(
                f"peer closed the connection ({n - remaining}/{n} bytes read)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_message(sock: socket.socket) -> dict:
    """Receive one frame, verify its CRC, parse its JSON message.

    Raises :class:`FrameError` on a frame of any kind but JSON (checked
    from the header, before the payload is read) and on a corrupt or
    malformed frame, :class:`ConnectionClosed` when the peer went away,
    and lets the socket's own timeout exception propagate (the caller's
    liveness watchdog owns that clock).
    """
    header = _recv_exact(sock, _HEADER.size)
    frame_kind, length, crc = _HEADER.unpack(header)
    if frame_kind != _KIND_JSON:
        raise FrameError(f"unknown frame kind {frame_kind!r}")
    if length > MAX_FRAME_BYTES:
        raise FrameError(f"frame of {length} bytes exceeds {MAX_FRAME_BYTES}")
    payload = _recv_exact(sock, length)
    if zlib.crc32(payload) != crc:
        raise FrameError(
            f"CRC mismatch on {length}-byte frame (corrupted in flight?)"
        )
    try:
        message = json.loads(payload.decode())
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise FrameError(f"undecodable frame payload: {exc}") from exc
    if not isinstance(message, dict) or "kind" not in message:
        raise FrameError(f"message without a kind: {message!r}")
    return message


# ---------------------------------------------------------------------------
# the closed-type codec for chunk tasks and result rows
# ---------------------------------------------------------------------------

_SCALARS = (type(None), bool, int, float, str)


@functools.cache
def _closed_types() -> tuple[dict[str, type], dict[str, type]]:
    """The enums (shipped by value) and frozen dataclasses (shipped field
    by field) a task may contain, keyed by class name."""
    from ..benchmarks.base import Precision, Version
    from ..calibration.exynos5250 import ExynosPlatform
    from ..cpu.config import A15Config
    from ..ir.nodes import OpKind
    from ..mali.config import MaliConfig
    from ..memory.cache import CacheConfig
    from ..memory.dram import DramConfig
    from ..memory.patterns import PatternEfficiency
    from ..power.rails import PowerRailConfig
    from .engine import RunTask

    enums = (Version, Precision, OpKind)
    records = (
        RunTask, ExynosPlatform, MaliConfig, A15Config, DramConfig,
        PatternEfficiency, PowerRailConfig, CacheConfig,
    )
    return {c.__name__: c for c in enums}, {c.__name__: c for c in records}


def _quirk_class(name: str) -> type | None:
    """A field-less driver quirk class of :mod:`repro.ocl.driver`."""
    from ..ocl import driver

    cls = getattr(driver, name, None)
    if (
        isinstance(cls, type)
        and cls.__module__ == driver.__name__
        and dataclasses.is_dataclass(cls)
        and not dataclasses.fields(cls)
        and callable(getattr(cls, "check", None))
    ):
        return cls
    return None


def _encode(value):
    if type(value) in _SCALARS:
        return value
    enums, records = _closed_types()
    name = type(value).__name__
    if enums.get(name) is type(value):
        return {"enum": name, "value": value.value}
    if records.get(name) is type(value):
        fields = [[f.name, _encode(getattr(value, f.name))] for f in dataclasses.fields(value)]
        return {"record": name, "fields": fields}
    if _quirk_class(name) is type(value):
        return {"quirk": name}
    if type(value) is dict:
        return {"dict": [[_encode(k), _encode(v)] for k, v in value.items()]}
    if type(value) is tuple:
        return {"tuple": [_encode(v) for v in value]}
    raise FrameError(f"{type(value).__qualname__} values do not cross the wire")


def _decode(data):
    if type(data) in _SCALARS:
        return data
    if type(data) is not dict:
        raise FrameError(f"undecodable {type(data).__name__} value")
    enums, records = _closed_types()
    try:
        if "enum" in data:
            return enums[data["enum"]](data["value"])
        if "record" in data:
            return records[data["record"]](**{k: _decode(v) for k, v in data["fields"]})
        if "quirk" in data and (quirk := _quirk_class(data["quirk"])) is not None:
            return quirk()
        if "dict" in data:
            return {_decode(k): _decode(v) for k, v in data["dict"]}
        if "tuple" in data:
            return tuple(_decode(v) for v in data["tuple"])
    except (KeyError, TypeError, ValueError, ReproError) as exc:
        raise FrameError(f"undecodable value {sorted(data)}: {exc!r}") from None
    raise FrameError(f"undecodable value {sorted(data)}")


def encode_task(task) -> dict:
    """One :class:`~repro.experiments.engine.RunTask` as plain JSON."""
    return _encode(task)


def decode_task(data):
    """Inverse of :func:`encode_task`; anything but a task is a
    :class:`FrameError`."""
    _, records = _closed_types()
    task = _decode(data)
    if type(task) is not records["RunTask"]:
        raise FrameError(f"expected a RunTask, got {type(task).__name__}")
    return task


def encode_chunk(groups: tuple) -> list:
    """A chunk's task groups as nested lists of :func:`encode_task`."""
    return [[encode_task(task) for task in group] for group in groups]


def decode_chunk(data) -> tuple:
    """Inverse of :func:`encode_chunk`."""
    if type(data) is not list or not all(type(group) is list for group in data):
        raise FrameError("chunk groups must be lists of tasks")
    return tuple(tuple(decode_task(task) for task in group) for group in data)


def encode_run(run, perf_delta: dict) -> dict:
    """One result as its journal/cache row, crash traceback and perf delta."""
    from .runner import run_to_row

    return {
        "row": run_to_row(run),
        "traceback": run.diagnostics.get("traceback"),
        "perf": perf_delta,
    }


def decode_run(data: dict) -> tuple:
    """Inverse of :func:`encode_run`: ``(RunResult, perf delta)``."""
    from .runner import run_from_row

    try:
        run = run_from_row(data["row"])
        if data["traceback"] is not None:
            run.diagnostics["traceback"] = str(data["traceback"])
        return run, dict(data["perf"])
    except (KeyError, TypeError, ValueError) as exc:
        raise FrameError(f"malformed result row: {exc!r}") from None


def encode_family(value: tuple) -> dict:
    """A chunk's ``(group_runs, family_delta)`` result as the fields of
    a ``result`` message."""
    group_runs, family_delta = value
    return {
        "groups": [[encode_run(run, delta) for run, delta in runs] for runs in group_runs],
        "perf": family_delta,
    }


def decode_family(message: dict) -> tuple:
    """Inverse of :func:`encode_family`."""
    try:
        group_runs = tuple(
            tuple(decode_run(entry) for entry in runs) for runs in message["groups"]
        )
        return group_runs, dict(message["perf"])
    except (KeyError, TypeError, ValueError) as exc:
        raise FrameError(f"malformed result message: {exc!r}") from None
