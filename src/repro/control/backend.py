"""Adjustment log of the meta-control layer.

The meta-controller records every parameter adjustment it applies — a
``(t, loop, params)`` triple — in a :class:`MemoryBackend`: append
adjustments, read them back, and look up the latest applied parameter
set per loop (``reset()`` uses it to find loops that moved).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

__all__ = ["MemoryBackend"]

#: One applied adjustment: (time, loop name, {param: value}).
Adjustment = Tuple[float, str, Dict[str, float]]


class MemoryBackend:
    """Append-only in-process log of the meta-controller's decisions."""

    def __init__(self) -> None:
        self._log: List[Adjustment] = []
        self._latest: Dict[str, Dict[str, float]] = {}

    def record(self, t: float, loop: str,
               params: Dict[str, float]) -> None:
        self._log.append((t, loop, dict(params)))
        self._latest[loop] = dict(params)

    def history(self, loop: Optional[str] = None) -> List[Adjustment]:
        if loop is None:
            return list(self._log)
        return [entry for entry in self._log if entry[1] == loop]

    def latest(self, loop: str) -> Optional[Dict[str, float]]:
        params = self._latest.get(loop)
        return dict(params) if params is not None else None

    def clear(self) -> None:
        self._log.clear()
        self._latest.clear()

    def __len__(self) -> int:
        return len(self._log)
