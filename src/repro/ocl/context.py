"""OpenCL context (``clCreateContext`` analogue)."""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

from ..errors import CLInvalidValue
from .device import Device


@dataclass
class Context:
    """Owns devices and tracks the memory objects created against them.

    Buffers are held weakly: a buffer points at its context, so strong
    references back would form a cycle that keeps every run's arrays
    alive until a full garbage collection.
    """

    devices: tuple[Device, ...]
    _buffers: weakref.WeakSet = field(default_factory=weakref.WeakSet, repr=False)

    def __init__(self, devices: tuple[Device, ...] | list[Device] | Device):
        if isinstance(devices, Device):
            devices = (devices,)
        devices = tuple(devices)
        if not devices:
            raise CLInvalidValue("a context needs at least one device")
        self.devices = devices
        self._buffers = weakref.WeakSet()

    @property
    def device(self) -> Device:
        """The single device of a one-device context (the common case)."""
        return self.devices[0]

    def register_buffer(self, buffer) -> None:
        self._buffers.add(buffer)

    @property
    def allocated_bytes(self) -> int:
        return sum(b.size for b in self._buffers if not b.released)
