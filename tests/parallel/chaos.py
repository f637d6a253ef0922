"""Fault injection for the worker-pool chaos tests.

Spawn-started workers unpickle their tasks by reference, so the hooks
live in an importable module rather than in a test file.
"""

from __future__ import annotations

import os
import signal
import time
from typing import Any, Callable, Iterator, Sequence

from repro.connectors.chunks import SourceItem
from repro.connectors.sources import TableSource


def _detonate(marker: str, payload: Any) -> Any:
    """Unpickle hook: SIGKILL this process the first time ``marker`` is
    claimed, hand back ``payload`` every later time."""
    try:
        fd = os.open(marker, os.O_CREAT | os.O_EXCL)
    except FileExistsError:
        return payload
    os.close(fd)
    os.kill(os.getpid(), signal.SIGKILL)
    return payload  # pragma: no cover - the process is gone


class KillOnce:
    """Stands in for ``payload`` in a task's arguments.

    The worker that unpickles it is SIGKILLed mid-task the first time;
    the retry unpickles ``payload`` itself.  ``marker`` is a path that
    must not exist yet.
    """

    def __init__(self, marker: str | os.PathLike, payload: Any) -> None:
        self.marker = str(marker)
        self.payload = payload

    def __reduce__(self) -> tuple:
        return (_detonate, (self.marker, self.payload))


class ListSource(TableSource):
    """In-memory items; sleeps ``stall`` seconds after every ``every``
    items (a stalled source) and calls ``on_stall`` at the first stall."""

    def __init__(
        self,
        spec: str,
        items: Sequence[Any],
        *,
        stall: float = 0.0,
        every: int = 1,
        on_stall: Callable[[], None] | None = None,
    ) -> None:
        self.spec = spec
        self._items = list(items)
        self._stall = stall
        self._every = every
        self._on_stall = on_stall

    def items(self) -> Iterator[SourceItem]:
        for i, item in enumerate(self._items, start=1):
            yield item
            if self._stall and i % self._every == 0:
                if self._on_stall is not None:
                    self._on_stall()
                    self._on_stall = None
                time.sleep(self._stall)
