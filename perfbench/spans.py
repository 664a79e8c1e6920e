"""Span recorder for the traced benchmark run.

Each layer of ``repro`` is timed by wrapping its public entry points
from outside the package: nothing under ``src/`` knows it is traced.
A span records its layer name, start, end, parent span and thread; the
spans stay in memory and are written out once, when the job ends.

A layer's self time is the sum, over its spans, of the span's duration
minus the part its direct child spans cover.  Counts (calls, cells
priced, bytes hashed, ...) are taken at the same boundaries.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator

import numpy as np


def _ndarray_bytes(args, kwargs, result) -> dict:
    return {"bytes": sum(a.nbytes for a in args if isinstance(a, np.ndarray))}


def _cells(args, kwargs, result) -> dict:
    return {"cells": len(args[1])}


def _one_cell(args, kwargs, result) -> dict:
    return {"cells": 1}


def _candidates(args, kwargs, result) -> dict:
    return {"candidates": len(result.trials)}


def _configs(args, kwargs, result) -> dict:
    return {"configs": 1}


def _pareto_add(args, kwargs, result) -> dict:
    return {"points": 1}


def _pareto_update(args, kwargs, result) -> dict:
    return {"points": len(args[1])}


def _frame(args, kwargs, result) -> dict:
    return {"frames": 1}


def _received(args, kwargs, result) -> dict:
    return {"bytes": len(result)}


@dataclass(frozen=True)
class Entry:
    """One wrapped entry point: ``module:qualname`` timed as ``layer``.

    ``calls`` says whether a call counts toward the layer's ``calls``
    (off where one entry nests another of the same layer);
    ``counts`` turns ``(args, kwargs, result)`` into extra counters;
    ``outermost`` counts only calls not nested in a span of the same
    layer (pricing facades delegate to per-model pricing).
    """

    module: str
    qualname: str
    layer: str
    calls: bool = True
    counts: Callable[..., dict] | None = None
    outermost: bool = False


#: The layer boundaries, named after the modules under ``src/repro``.
ENTRIES: tuple[Entry, ...] = (
    Entry("repro.benchmarks.registry", "create", "benchmarks.setup"),
    Entry("repro.benchmarks.base", "Benchmark.functional_result", "benchmarks.exec"),
    Entry("repro.ocl.queue", "CommandQueue.enqueue_nd_range_kernel", "benchmarks.exec"),
    Entry("repro.benchmarks.base", "Benchmark.verify", "benchmarks.verify"),
    Entry("repro.ocl.buffer", "Buffer.__init__", "ocl"),
    Entry("repro.ocl.queue", "CommandQueue.enqueue_write_buffer", "ocl"),
    Entry("repro.ocl.queue", "CommandQueue.enqueue_read_buffer", "ocl"),
    Entry("repro.ocl.queue", "CommandQueue.enqueue_fill_buffer", "ocl"),
    Entry("repro.ocl.queue", "CommandQueue.enqueue_copy_buffer", "ocl"),
    Entry("repro.ocl.queue", "CommandQueue.enqueue_map_buffer", "ocl"),
    Entry("repro.ocl.queue", "CommandQueue.enqueue_unmap_mem_object", "ocl"),
    Entry("repro.ir.analysis", "analyze", "ir.analyze"),
    Entry("repro.compiler.pipeline", "compile_kernel", "compiler.compile"),
    Entry("repro.optimizations.autotune", "tune", "optimizations.tune"),
    Entry(
        "repro.optimizations.autotune", "sweep", "optimizations.tune",
        calls=False, counts=_candidates,
    ),
    Entry("repro.pricing.grid", "PlatformPricing.price", "pricing", counts=_cells, outermost=True),
    Entry("repro.pricing.grid", "PlatformPricing.price_one", "pricing", counts=_one_cell, outermost=True),
    Entry("repro.cpu.pricing", "CpuPricingModel.price", "pricing", counts=_cells, outermost=True),
    Entry("repro.cpu.pricing", "CpuPricingModel.price_one", "pricing", counts=_one_cell, outermost=True),
    Entry("repro.mali.timing", "GpuPricingModel.price", "pricing", counts=_cells, outermost=True),
    Entry("repro.mali.timing", "GpuPricingModel.price_one", "pricing", counts=_one_cell, outermost=True),
    Entry("repro.power.model", "PowerPricingModel.price", "pricing", counts=_cells, outermost=True),
    Entry("repro.power.model", "PowerPricingModel.price_one", "pricing", counts=_one_cell, outermost=True),
    Entry("repro.benchmarks.base", "measure_trace", "power.meter"),
    Entry("repro.designspace", "DesignSpace.__init__", "designspace.build"),
    Entry("repro.designspace", "DesignSpace.opt_bounds", "designspace.bounds"),
    Entry("repro.designspace", "DesignSpace.rows", "designspace.price", counts=_configs),
    Entry("repro.designspace", "DesignSpace.points", "designspace.price", calls=False),
    Entry("repro.pareto", "OnlineFrontier.add", "pareto", counts=_pareto_add),
    Entry("repro.pareto", "OnlineFrontier.update", "pareto", counts=_pareto_update),
    Entry("repro.pareto", "OnlineFrontier.strictly_dominates", "pareto"),
    Entry("repro.perf", "digest", "perf.hash", counts=_ndarray_bytes),
    Entry("repro.perf", "content_key", "perf.hash"),
    Entry("repro.perf.persist", "key_digest", "perf.hash"),
    Entry("repro.perf.persist", "PersistentStore.load", "perf.persist"),
    Entry("repro.perf.persist", "PersistentStore.store", "perf.persist"),
    Entry("repro.experiments.journal", "CampaignJournal.open", "experiments.journal", calls=False),
    Entry("repro.experiments.journal", "CampaignJournal.close", "experiments.journal", calls=False),
    Entry("repro.experiments.journal", "CampaignJournal._append", "experiments.journal"),
    Entry("repro.experiments.engine", "Campaign.run", "experiments.engine"),
    Entry("repro.experiments.protocol", "send_message", "experiments.protocol", counts=_frame),
    Entry("repro.experiments.protocol", "recv_message", "experiments.protocol", counts=_frame),
    # the socket reads under recv_message: waiting for the peer, split
    # out so the protocol's own time is encode/decode/CRC work
    Entry("repro.experiments.protocol", "_recv_exact", "experiments.protocol.wait", counts=_received),
)


class _CountingSocket:
    """Socket proxy that counts the bytes ``send_message`` writes."""

    def __init__(self, sock, counters: dict) -> None:
        self._sock = sock
        self._counters = counters

    def sendall(self, data) -> None:
        self._counters["bytes"] = self._counters.get("bytes", 0) + len(data)
        self._sock.sendall(data)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._sock, name)


class SpanRecorder:
    """In-memory spans from wrapped entry points (every thread).

    ``install`` swaps each entry point for a timing wrapper, in its
    defining module or class and in every ``repro`` module that imported
    it by name; ``uninstall`` restores the originals.
    """

    def __init__(self, entries: tuple[Entry, ...] = ENTRIES) -> None:
        self.entries = entries
        #: (layer, start_ns, end_ns, parent index or -1, thread id)
        self.spans: list[tuple[str, int, int, int, int]] = []
        #: layer -> counter -> value
        self.counters: dict[str, dict[str, int]] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _count(self, layer: str, increments: dict) -> None:
        with self._lock:
            into = self.counters.setdefault(layer, {})
            for key, value in increments.items():
                into[key] = into.get(key, 0) + value

    def _open(self, stack: list) -> tuple[int, int]:
        """Reserve a span slot (children name it as parent); returns
        ``(index, parent)``."""
        parent = stack[-1][0] if stack else -1
        with self._lock:
            self.spans.append(None)  # type: ignore[arg-type]
            return len(self.spans) - 1, parent

    @contextmanager
    def span(self, layer: str) -> Iterator[None]:
        """Record one span of ``layer`` around a block."""
        stack = self._stack()
        index, parent = self._open(stack)
        stack.append((index, None, layer))
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans[index] = (layer, start, end, parent, threading.get_ident())

    # ------------------------------------------------------------------
    def _wrap(self, entry: Entry, func: Callable) -> Callable:
        recorder = self
        is_send = entry.qualname == "send_message"

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack = recorder._stack()
            top = stack[-1] if stack else None
            if top is not None and top[1] is entry:
                return func(*args, **kwargs)  # recursion: one span
            index, parent = recorder._open(stack)
            sent: dict = {}
            if is_send:
                args = (_CountingSocket(args[0], sent),) + args[1:]
            stack.append((index, entry, entry.layer))
            start = time.perf_counter_ns()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                recorder.spans[index] = (
                    entry.layer, start, end, parent, threading.get_ident()
                )
            increments = dict(sent)
            nested = entry.outermost and any(s[2] == entry.layer for s in stack)
            if entry.calls and not nested:
                increments["calls"] = 1
            if entry.counts is not None and not nested:
                for key, value in entry.counts(args, kwargs, result).items():
                    increments[key] = increments.get(key, 0) + value
            if increments:
                recorder._count(entry.layer, increments)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every entry point (call after ``import repro``)."""
        for entry in self.entries:
            module = importlib.import_module(entry.module)
            owner_name, _, attr = entry.qualname.rpartition(".")
            if owner_name:
                self._install_method(entry, getattr(module, owner_name), attr)
            else:
                self._install_function(entry, module, attr)

    def _install_function(self, entry: Entry, module, attr: str) -> None:
        original = getattr(module, attr)
        wrapper = self._wrap(entry, original)
        for name, mod in list(sys.modules.items()):
            if (name == "repro" or name.startswith("repro.")) and getattr(
                mod, attr, None
            ) is original:
                self._restore.append((mod, attr, original))
                setattr(mod, attr, wrapper)

    def _install_method(self, entry: Entry, cls: type, attr: str) -> None:
        # wrap the class and every subclass overriding the method
        todo = [cls]
        while todo:
            klass = todo.pop()
            todo.extend(klass.__subclasses__())
            if attr in klass.__dict__:
                original = klass.__dict__[attr]
                self._restore.append((klass, attr, original))
                setattr(klass, attr, self._wrap(entry, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # ------------------------------------------------------------------
    def self_times(self) -> dict[str, float]:
        """Per-layer self time in seconds (duration minus direct children)."""
        covered = [0] * len(self.spans)
        for span in self.spans:
            if span is not None and span[3] >= 0:
                covered[span[3]] += span[2] - span[1]
        out: dict[str, float] = {}
        for index, span in enumerate(self.spans):
            if span is None:
                continue
            layer, start, end, _, _ = span
            out[layer] = out.get(layer, 0.0) + (end - start - covered[index]) / 1e9
        return out

    def write(self, path) -> None:
        """Write every span (name, start, end, parent, thread) as JSON."""
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start_ns", "end_ns", "parent", "thread"],
                    "spans": self.spans,
                    "counters": self.counters,
                },
                fh,
            )
