"""Counters and histograms accumulated alongside trace events.

A :class:`MetricsRegistry` is deliberately tiny: names map to floats
(counters) or to value lists summarized on demand (histograms).  It
exists so instrumentation points that have no meaningful position on
the simulated timeline — cache hit tallies inside a memsim kernel,
calibration-cache lookups — still land somewhere inspectable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Union

__all__ = ["HistogramSummary", "MetricsRegistry", "nearest_rank"]


def nearest_rank(ordered: Sequence[float], q: float) -> Optional[float]:
    """The ``q``-th percentile (0..100, nearest-rank) of sorted values.

    A percentile is always an observed value (``p50`` of one sample is
    that sample); ``None`` when ``ordered`` is empty.

    Raises:
        ValueError: ``q`` outside [0, 100], even with no values.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    if not ordered:
        return None
    return ordered[
        max(0, min(len(ordered) - 1, round(q / 100.0 * (len(ordered) - 1))))
    ]


@dataclass(frozen=True)
class HistogramSummary:
    """Summary statistics of one histogram."""

    count: int
    total: float
    minimum: float
    maximum: float

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class MetricsRegistry:
    """Name -> counter / histogram store."""

    def __init__(self) -> None:
        self._counters: Dict[str, float] = {}
        self._histograms: Dict[str, List[float]] = {}

    # -- counters -----------------------------------------------------------

    def inc(self, name: str, value: float = 1.0) -> None:
        self._counters[name] = self._counters.get(name, 0.0) + value

    def counter(self, name: str) -> float:
        """Current value of ``name`` (0.0 if never incremented)."""
        return self._counters.get(name, 0.0)

    def counters(self) -> Mapping[str, float]:
        return dict(self._counters)

    # -- histograms ---------------------------------------------------------

    def observe(self, name: str, value: float) -> None:
        self._histograms.setdefault(name, []).append(value)

    def histogram(self, name: str) -> HistogramSummary:
        values = self._histograms.get(name, [])
        if not values:
            return HistogramSummary(count=0, total=0.0, minimum=0.0, maximum=0.0)
        return HistogramSummary(
            count=len(values),
            total=sum(values),
            minimum=min(values),
            maximum=max(values),
        )

    def percentile(self, name: str, q: float) -> float:
        """The ``q``-th percentile (:func:`nearest_rank`) of ``name``;
        0.0 when nothing was observed."""
        value = nearest_rank(sorted(self._histograms.get(name, [])), q)
        return 0.0 if value is None else value

    # -- export -------------------------------------------------------------

    def snapshot(self) -> Dict[str, Union[float, Dict[str, float]]]:
        """Plain-data view of every metric, for JSON export."""
        out: Dict[str, Union[float, Dict[str, float]]] = {}
        out.update(self._counters)
        for name in self._histograms:
            summary = self.histogram(name)
            out[name] = {
                "count": float(summary.count),
                "total": summary.total,
                "min": summary.minimum,
                "max": summary.maximum,
                "mean": summary.mean,
                "p50": self.percentile(name, 50),
                "p95": self.percentile(name, 95),
            }
        return out

    def __len__(self) -> int:
        return len(self._counters) + len(self._histograms)
