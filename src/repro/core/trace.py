"""Wall-clock seconds per search phase — the split of Table 7 (§6.4).

Every searcher takes ``trace=NO_TRACE``. It brackets each timed span
with ``trace.start()`` … ``trace.lap("<phase>")``; the default does
nothing, so an untimed search runs the same code path as a timed one.
To time searches, pass one :class:`Trace` to them and read ``seconds``.
"""
from __future__ import annotations

import time


class Trace:
    """Seconds per phase, summed over every span lapped into it."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}
        self._mark = 0.0

    def start(self) -> None:
        """Marks now."""
        self._mark = time.perf_counter()

    def lap(self, phase: str) -> None:
        """Adds the time since the last mark to ``seconds[phase]`` and marks again."""
        now = time.perf_counter()
        self.seconds[phase] = self.seconds.get(phase, 0.0) + now - self._mark
        self._mark = now


class _NoTrace(Trace):
    def start(self) -> None:
        pass

    def lap(self, phase: str) -> None:
        pass


#: The default of every ``trace=`` parameter: times nothing.
NO_TRACE: Trace = _NoTrace()
