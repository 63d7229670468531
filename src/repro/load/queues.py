"""Single-server queueing stations at each node's message hardware.

Each simulated node exposes three stations matching the runtime's
resource decomposition (:attr:`MeasuredTransfer.resource_busy_ns`):

* ``nic`` — the sender-side processor + DMA engines;
* ``deposit`` — the receiver's deposit engine;
* ``coproc`` — the receiver's processor / communication co-processor.

A :class:`Station` serves one request at a time.  Waiting requests
queue under a discipline — ``fifo`` (arrival order) or ``priority``
(lower :attr:`RequestTemplate.priority` first, arrival order within a
priority) — with fully deterministic ordering: ties break on the
request's content-derived identity, never on insertion order.

The engine drives every station through one API, whose bounds are
off by default (``docs/LOAD.md``):

* ``capacity`` bounds the *waiting line* (the request in service does
  not count); :meth:`offer` makes the deterministic reject-vs-accept
  decision at enqueue time, evicting the worst waiter on a full
  ``priority`` station when the newcomer outranks it.  With
  ``capacity=None`` it always accepts;
* :meth:`pop_live` sheds expired waiters — queue wait beyond the
  entry's deadline — at pop time, with exact accounting (``shed``,
  ``shed_wait_ns``).  An entry without a deadline never expires.

:meth:`enqueue` and :meth:`pop` are the plain unbounded pair, kept for
direct callers; the engine does not use them.

Accounting is exact, not sampled: busy time integrates utilization and
the queue-depth integral yields the time-averaged depth; reject and
shed counts are exact tallies of every bounded-path decision.
"""

from __future__ import annotations

import heapq
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["Station"]

#: Queue entry: (priority, enqueue_ns, request identity, payload) from
#: :meth:`Station.enqueue`; :meth:`Station.offer` appends a fifth
#: element, the entry's deadline_ns (0.0 = none).  Both shapes share
#: indices 0-3.
_Entry = Tuple[Any, ...]


class Station:
    """One single-server queueing station.

    Args:
        name: Reporting label, e.g. ``"node3/nic"``.
        discipline: ``"fifo"`` or ``"priority"``.
        capacity: Waiting-line bound consulted by :meth:`offer`
            (``None`` = unbounded; :meth:`enqueue` never checks it).
    """

    def __init__(
        self,
        name: str,
        discipline: str = "fifo",
        capacity: Optional[int] = None,
    ) -> None:
        self.name = name
        self.discipline = discipline
        self.capacity = capacity
        self._queue: List[_Entry] = []
        self._busy_until: float = 0.0
        self._idle = True
        # Exact accounting.
        self.busy_ns = 0.0
        self.served = 0
        self.max_depth = 0
        self.rejected = 0
        self.shed = 0
        self.shed_wait_ns = 0.0
        self._depth_integral = 0.0
        self._depth_clock = 0.0

    # -- queue ---------------------------------------------------------------

    def _account_depth(self, now_ns: float) -> None:
        self._depth_integral += len(self._queue) * (now_ns - self._depth_clock)
        self._depth_clock = now_ns

    def enqueue(
        self,
        now_ns: float,
        priority: int,
        identity: Tuple[int, int],
        payload: Any,
    ) -> None:
        """Add a request to the waiting line, ignoring ``capacity``.

        ``identity`` is the request's ``(generator, sequence)`` pair —
        a content-derived key, so two stations fed the same requests in
        different orders still serve them identically.
        """
        self._account_depth(now_ns)
        rank = priority if self.discipline == "priority" else 0
        heapq.heappush(self._queue, (rank, now_ns, identity, payload))
        if len(self._queue) > self.max_depth:
            self.max_depth = len(self._queue)

    def offer(
        self,
        now_ns: float,
        priority: int,
        identity: Tuple[Any, ...],
        payload: Any,
        deadline_ns: float = 0.0,
    ) -> Tuple[bool, Optional[Any]]:
        """Bounded enqueue: ``(accepted, evicted payload)``.

        At capacity, a ``fifo`` station rejects the newcomer outright.
        A ``priority`` station compares the newcomer against the worst
        waiter — highest ``(rank, enqueue time, identity)``, the exact
        inverse of service order — and evicts that waiter when the
        newcomer strictly outranks it (sheds lowest-priority first),
        rejecting the newcomer otherwise.  Both outcomes bump
        ``rejected``; the decision depends only on queue content, so
        replays are bit-identical.
        """
        self._account_depth(now_ns)
        rank = priority if self.discipline == "priority" else 0
        entry = (rank, now_ns, identity, payload, deadline_ns)
        if self.capacity is not None and len(self._queue) >= self.capacity:
            if self.discipline != "priority":
                self.rejected += 1
                return False, None
            worst = max(self._queue, key=lambda e: e[:3])
            if entry[:3] >= worst[:3]:
                self.rejected += 1
                return False, None
            self._queue.remove(worst)
            heapq.heapify(self._queue)
            self.rejected += 1
            heapq.heappush(self._queue, entry)
            return True, worst[3]
        heapq.heappush(self._queue, entry)
        if len(self._queue) > self.max_depth:
            self.max_depth = len(self._queue)
        return True, None

    def pop(self, now_ns: float) -> Optional[Tuple[float, Any]]:
        """``(enqueue time, request)`` next in line, ``None`` when empty."""
        if not self._queue:
            return None
        self._account_depth(now_ns)
        entry = heapq.heappop(self._queue)
        return entry[1], entry[3]

    def pop_live(
        self, now_ns: float
    ) -> Tuple[List[Any], Optional[Tuple[float, Any]]]:
        """Shed expired waiters, then pop: ``(shed payloads, next)``.

        Entries whose queue wait exceeds their deadline are shed in
        service order until a live entry (or an empty queue) is found;
        each shed bumps ``shed`` and adds its wait to ``shed_wait_ns``.
        ``next`` is the ``(enqueue time, request)`` pair of the first
        live waiter, ``None`` when every waiter expired.
        """
        shed: List[Any] = []
        if not self._queue:
            return shed, None
        self._account_depth(now_ns)
        while self._queue:
            entry = heapq.heappop(self._queue)
            deadline_ns = entry[4] if len(entry) > 4 else 0.0
            wait_ns = now_ns - entry[1]
            if deadline_ns > 0.0 and wait_ns > deadline_ns:
                self.shed += 1
                self.shed_wait_ns += wait_ns
                shed.append(entry[3])
                continue
            return shed, (entry[1], entry[3])
        return shed, None

    def depth(self) -> int:
        return len(self._queue)

    # -- server --------------------------------------------------------------

    @property
    def idle(self) -> bool:
        return self._idle

    def start(self, now_ns: float, service_ns: float) -> float:
        """Occupy the server; returns the completion time."""
        self._idle = False
        self._busy_until = now_ns + service_ns
        self.busy_ns += service_ns
        self.served += 1
        return self._busy_until

    def release(self) -> None:
        self._idle = True

    def backlog(self) -> int:
        """Requests at the station: queued plus any one in service."""
        return len(self._queue) + (0 if self._idle else 1)

    # -- reporting -----------------------------------------------------------

    def summary(
        self, duration_ns: float, overload: bool = False
    ) -> Dict[str, Any]:
        """Exact utilization / depth statistics over ``duration_ns``.

        ``overload=True`` (a report carrying the ``overload`` section)
        adds the bounded-path tallies — ``rejected`` / ``shed`` /
        ``shed_wait_ns``; without it the summary keeps the plain
        format.
        """
        self._account_depth(duration_ns)
        span = duration_ns if duration_ns > 0.0 else 1.0
        payload: Dict[str, Any] = {
            "served": self.served,
            "busy_ns": self.busy_ns,
            "utilization": self.busy_ns / span,
            "mean_depth": self._depth_integral / span,
            "max_depth": self.max_depth,
        }
        if overload:
            payload["rejected"] = self.rejected
            payload["shed"] = self.shed
            payload["shed_wait_ns"] = self.shed_wait_ns
        return payload
