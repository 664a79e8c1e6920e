"""Shared test fixtures: the pool-hang timeout guard, and the ``heavy``
hypothesis profile.

Fault-injection tests drive real worker kills through a
``ProcessPoolExecutor``; a recovery bug could leave the parent blocked
in ``future.result()`` forever and stall the whole suite (and CI).
``@pytest.mark.timeout_guard(seconds)`` arms a SIGALRM that turns such
a hang into an ordinary test failure instead.

``pytest --hypothesis-profile=heavy`` raises the example count of the
properties that size their runs with :func:`examples`; the CI
perf-smoke job runs that pass, so rare counterexamples surface there.
"""

from __future__ import annotations

import signal

import pytest
from hypothesis import settings

DEFAULT_GUARD_S = 120

settings.register_profile("heavy", max_examples=5000, deadline=None)


def examples(n: int) -> int:
    """``n``, or the loaded hypothesis profile's ``max_examples`` when
    that is larger: ``--hypothesis-profile=heavy`` runs every property
    sized with this at the heavy count.
    """
    return max(n, settings.default.max_examples)


@pytest.fixture(autouse=True)
def _pool_timeout_guard(request):
    """Fail (not hang) any ``timeout_guard``-marked test that stalls."""
    marker = request.node.get_closest_marker("timeout_guard")
    if marker is None:
        yield
        return
    seconds = marker.args[0] if marker.args else DEFAULT_GUARD_S

    def _alarm(signum, frame):  # pragma: no cover - only fires on a hang
        raise TimeoutError(
            f"{request.node.nodeid} exceeded its {seconds}s timeout guard "
            "(hung pool?)"
        )

    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
