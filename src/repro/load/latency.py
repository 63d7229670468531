"""End-to-end latency accounting for the traffic engine.

A :class:`LatencyStore` records one value per completed request and
summarizes the distribution with nearest-rank percentiles
(:func:`repro.trace.metrics.nearest_rank`, which
:meth:`~repro.trace.metrics.MetricsRegistry.percentile` uses too), so
``p50`` of a single sample is that sample, and percentiles are always
actual observed values (no interpolation, no surprises in the tail).

Percentile queries on an empty store raise
:class:`~repro.core.errors.LoadError` — there is no honest answer, and
silently returning a sentinel hid real bugs (an engine that recorded
nothing looked like an engine with zero latency).  :meth:`summary`
still reports an explicit all-zero distribution for the empty case,
because the report schema needs a well-formed object either way.
"""

from __future__ import annotations

from typing import Any, Dict, List

from ..core.errors import LoadError
from ..trace.metrics import nearest_rank

__all__ = ["LatencyStore"]


class LatencyStore:
    """Latency samples and their tail summary."""

    def __init__(self) -> None:
        self._values: List[float] = []
        self._sorted = True

    def record(self, latency_ns: float) -> None:
        self._values.append(latency_ns)
        self._sorted = False

    def __len__(self) -> int:
        return len(self._values)

    def _ordered(self) -> List[float]:
        if not self._sorted:
            self._values.sort()
            self._sorted = True
        return self._values

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (0..100, nearest-rank).

        Raises:
            ValueError: ``q`` outside [0, 100].
            LoadError: The store is empty — an empty distribution has
                no percentiles; check ``len(store)`` (or read
                :meth:`summary`, which reports zeros) instead.
        """
        value = nearest_rank(self._ordered(), q)
        if value is None:
            raise LoadError(
                "percentile of an empty latency store is undefined "
                "(no samples recorded)"
            )
        return value

    def summary(self) -> Dict[str, Any]:
        """The report's ``latency_ns`` object (zeros when empty)."""
        values = self._ordered()
        if not values:
            return {
                "count": 0,
                "mean": 0.0,
                "min": 0.0,
                "max": 0.0,
                "p50": 0.0,
                "p99": 0.0,
                "p999": 0.0,
            }
        return {
            "count": len(values),
            "mean": sum(values) / len(values),
            "min": values[0],
            "max": values[-1],
            "p50": self.percentile(50.0),
            "p99": self.percentile(99.0),
            "p999": self.percentile(99.9),
        }
