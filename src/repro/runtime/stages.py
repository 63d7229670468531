"""Chunked stage-pipeline execution of a communication operation.

The copy-transfer model assumes perfect overlap ("the usage of
processor and memory system is spread evenly ... in practice, this is
often obtained through pipelining", Section 4).  A real runtime
pipelines a transfer in finite chunks, and stages that share a
resource — the gather copy and the load-send both run on the sender's
processor — strictly alternate.  This module simulates exactly that:

* a :class:`Stage` has a payload rate (MB/s), the resource it occupies,
  and a fixed software overhead per chunk;
* :class:`StagePipeline` pushes each chunk through the stages in order;
  chunk *j* enters stage *i* when stage *i-1* has produced it and the
  stage's resource is free.

The result is always at or below the model's estimate: the harmonic
(shared-resource) and min (pipelined) rules emerge in the limit of
many chunks, and per-chunk overheads plus pipeline fill account for
the measured-vs-model gap the paper reports.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..trace.tracer import Tracer, current_tracer

__all__ = ["Stage", "PipelineResult", "StagePipeline"]


@dataclass(frozen=True)
class Stage:
    """One stage of a staged transfer.

    Attributes:
        name: Label for reporting ("gather", "network", ...).
        rate_mbps: Sustained payload rate of the stage in isolation.
        resource: The resource the stage occupies; stages with equal
            resource names serialize, others overlap.  Background
            hardware (DMA, deposit engine, network) gets its own name.
        chunk_overhead_ns: Fixed software cost per chunk (loop setup,
            descriptor writes, DMA kicks).
        startup_ns: One-time cost before the stage's first chunk.
    """

    name: str
    rate_mbps: float
    resource: str
    chunk_overhead_ns: float = 0.0
    startup_ns: float = 0.0

    def chunk_ns(self, chunk_bytes: int) -> float:
        return chunk_bytes / self.rate_mbps * 1000.0 + self.chunk_overhead_ns


@dataclass(frozen=True)
class PipelineResult:
    """Outcome of pushing one message through a stage pipeline.

    ``stage_busy_ns`` is keyed by stage *label*: the stage's name when
    unique within the pipeline, else ``"name#index"`` so two stages
    that happen to share a name keep separate busy accounts (see
    :attr:`StagePipeline.labels`).
    """

    ns: float
    nbytes: int
    stage_busy_ns: Dict[str, float]

    @property
    def mbps(self) -> float:
        if self.ns <= 0:
            return float("inf")
        return self.nbytes / self.ns * 1000.0

    def bottleneck(self) -> str:
        """The stage that was busy longest."""
        return max(self.stage_busy_ns, key=self.stage_busy_ns.get)


class StagePipeline:
    """Simulates a staged transfer at chunk granularity.

    >>> stages = [Stage("send", 100.0, "cpu"), Stage("net", 50.0, "net")]
    >>> result = StagePipeline(stages).run(1 << 20, chunk_bytes=8192)
    >>> 45 < result.mbps < 50   # pipelined: the slow stage dominates
    True
    """

    def __init__(self, stages: Sequence[Stage]) -> None:
        if not stages:
            raise ValueError("a pipeline needs at least one stage")
        for stage in stages:
            if stage.rate_mbps <= 0:
                raise ValueError(f"stage {stage.name!r} has non-positive rate")
        self.stages = list(stages)
        # Reporting labels: the stage name when unique, "name#i" for
        # duplicates.  All *internal* accounting is by position, so two
        # same-named stages never merge busy time or share a startup
        # charge (they used to, silently).
        names = [stage.name for stage in self.stages]
        self.labels = [
            name if names.count(name) == 1 else f"{name}#{index}"
            for index, name in enumerate(names)
        ]

    def run(
        self, nbytes: int, chunk_bytes: int = 8192, trace_phase: str = ""
    ) -> PipelineResult:
        """Push ``nbytes`` through the pipeline in ``chunk_bytes`` chunks.

        When a tracer is installed (:func:`repro.trace.tracing`), every
        (chunk, stage) occupancy becomes a span on the stage's resource
        track — prefixed with ``trace_phase`` if given — and each
        chunk's wait for a busy resource lands in the
        ``pipeline.resource_wait_ns`` histogram.  Untraced runs are
        answered from a bounded process-wide memo of identical runs.
        """
        if nbytes <= 0:
            raise ValueError(f"need a positive transfer size, got {nbytes}")
        if chunk_bytes <= 0:
            raise ValueError(f"need a positive chunk size, got {chunk_bytes}")

        # The tracer check is hoisted out of the (chunk x stage) loop:
        # with tracing off, the hot path pays a single attribute test
        # here and then answers from the memo or runs a tight loop with
        # no per-chunk branching.  Both loops perform identical
        # arithmetic, so results match bit for bit traced vs untraced.
        # A traced run always executes, so its spans always appear.
        tracer = current_tracer()
        if tracer is None:
            finish, busy = _untraced_run(tuple(self.stages), nbytes, chunk_bytes)
        else:
            busy_list: List[float] = [0.0] * len(self.stages)
            finish = self._run_traced(
                _chunk_sizes(nbytes, chunk_bytes), busy_list, tracer, trace_phase
            )
            busy = tuple(busy_list)

        return PipelineResult(
            ns=finish,
            nbytes=nbytes,
            stage_busy_ns=dict(zip(self.labels, busy)),
        )

    def _run_untraced(self, sizes: Sequence[int], busy: List[float]) -> float:
        resource_free: Dict[str, float] = {}
        started: List[bool] = [False] * len(self.stages)
        finish = 0.0
        # Chunk-major order: stages sharing a resource alternate between
        # consecutive chunks instead of hogging it for the whole message.
        for size in sizes:
            chunk_ready = 0.0
            for position, stage in enumerate(self.stages):
                start = max(chunk_ready, resource_free.get(stage.resource, 0.0))
                duration = stage.chunk_ns(size)
                if not started[position]:
                    duration += stage.startup_ns
                    started[position] = True
                chunk_ready = start + duration
                resource_free[stage.resource] = chunk_ready
                busy[position] += duration
            finish = chunk_ready
        return finish

    def _run_traced(
        self,
        sizes: Sequence[int],
        busy: List[float],
        tracer: Tracer,
        trace_phase: str,
    ) -> float:
        span_names = [
            f"{trace_phase}:{label}" if trace_phase else label
            for label in self.labels
        ]
        resource_free: Dict[str, float] = {}
        started: List[bool] = [False] * len(self.stages)
        finish = 0.0
        for chunk_index, size in enumerate(sizes):
            chunk_ready = 0.0
            for position, stage in enumerate(self.stages):
                start = max(chunk_ready, resource_free.get(stage.resource, 0.0))
                duration = stage.chunk_ns(size)
                if not started[position]:
                    duration += stage.startup_ns
                    started[position] = True
                wait_ns = start - chunk_ready
                tracer.span(
                    span_names[position],
                    track=stage.resource,
                    start_ns=start,
                    duration_ns=duration,
                    category="stage",
                    chunk=chunk_index,
                    bytes=size,
                    wait_ns=wait_ns,
                )
                if wait_ns > 0.0:
                    tracer.observe("pipeline.resource_wait_ns", wait_ns)
                chunk_ready = start + duration
                resource_free[stage.resource] = chunk_ready
                busy[position] += duration
            finish = chunk_ready
        return finish


def _chunk_sizes(nbytes: int, chunk_bytes: int) -> List[int]:
    full_chunks, tail = divmod(nbytes, chunk_bytes)
    return [chunk_bytes] * full_chunks + ([tail] if tail else [])


@functools.lru_cache(maxsize=4096)
def _untraced_run(
    stages: Tuple[Stage, ...], nbytes: int, chunk_bytes: int
) -> Tuple[float, Tuple[float, ...]]:
    """Finish time and per-position busy times of an untraced run.

    Process-wide and bounded: the key is the whole input of the
    recurrence (stages are frozen), so collectives and sweeps that
    push the same message through the same stages over and over pay
    for the chunk loop once.  The busy times come back as a tuple so
    no caller can mutate a cached answer.
    """
    busy = [0.0] * len(stages)
    finish = StagePipeline(stages)._run_untraced(
        _chunk_sizes(nbytes, chunk_bytes), busy
    )
    return finish, tuple(busy)
