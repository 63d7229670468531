"""Sweep execution: the serial reference and the batched executor.

Both produce bit-identical :class:`~repro.sweep.merge.SweepResult`
payloads for the same spec:

* :func:`run_serial` — the *reference implementation*: a plain loop
  over the grid in canonical order, one fresh runtime per cell,
  exactly what the pre-sweep consumers did.  Slowest, simplest,
  obviously correct; the determinism tests compare everything else
  against it.
* :func:`run_sweep` — every cell goes through
  :func:`repro.sweep.batch.run_cells_batched`, which vectorizes what
  it can and runs the rest through the scalar oracle.  With
  ``workers <= 1`` the whole grid is one in-process batch.  With
  ``workers > 1`` a :class:`~concurrent.futures.ProcessPoolExecutor`
  runs the planned shards, each worker batching its own shard and all
  workers sharing the on-disk calibration cache; results are merged
  by canonical cell index, never by completion order.

Shard lifecycle is observable through the trace layer: with a tracer
installed (:func:`repro.trace.tracing`) the runner emits
``sweep.cells`` / ``sweep.shards`` / ``sweep.workers`` counters and
one span per shard on the ``"sweep"`` track.  Sweep spans record
**wall-clock** nanoseconds (the sweep engine runs in real time), not
the simulated nanoseconds the runtime's phase spans use; they share an
export format, not a clock domain.
"""

from __future__ import annotations

import multiprocessing
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import Any, Dict, List, Optional, Tuple

from ..trace.tracer import current_tracer
from . import worker as worker_module
from .batch import run_cells_batched
from .merge import SweepResult, merge_rows
from .plan import Shard, plan_shards
from .spec import SweepError, SweepSpec
from .worker import init_worker, pinned_environment, run_shard

__all__ = ["run_serial", "run_sweep"]


def _pool_context():
    """Prefer fork (cheap, inherits imports); fall back gracefully."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else None
    )


def _shard_payload(shard: Shard):
    return (
        shard.index,
        tuple(
            (cell_index, cell.to_dict())
            for cell_index, cell in shard.cells
        ),
    )


def run_serial(spec: SweepSpec, batched: bool = False) -> SweepResult:
    """Execute the grid with a plain in-order loop (no shards, no pool).

    With ``batched=False`` every cell rebuilds its state from scratch
    (a fresh memo universe per cell) — the honest pre-sweep baseline
    the speed benchmark compares against, and the reference the
    determinism properties hold every other strategy to.  With
    ``batched=True`` the worker memos persist across cells, which must
    not change a single bit of the result.
    """
    cells = spec.expand()
    started = time.perf_counter()
    rows: List[Dict[str, Any]] = []
    for cell in cells:
        if not batched:
            worker_module.reset_memos()
        rows.append(worker_module.run_cell(cell))
    if not batched:
        worker_module.reset_memos()
    elapsed = time.perf_counter() - started
    return SweepResult(
        spec=spec,
        rows=tuple(rows),
        stats={
            "strategy": "serial" if not batched else "serial-batched",
            "workers": 1,
            "shards": 0,
            "cells": len(cells),
            "elapsed_s": elapsed,
        },
    )


def _preflight_verify(cells) -> int:
    """Statically verify every distinct transfer shape in the grid.

    Each distinct ``(machine, model source, x, y, style, size)`` among
    the transfer cells is lowered through the semantic verifier
    (:func:`repro.analysis.verify_expr`) before any cell executes.
    A shape whose requested style the model cannot build is skipped —
    that is the linter's CT403 domain and the worker will raise its
    own error.  Any blocking finding (CT21x or an error diagnostic)
    aborts the sweep with a :class:`SweepError`.

    Returns the number of shapes verified.
    """
    from ..analysis.verify import verify_expr
    from ..core.errors import CompositionError
    from ..core.patterns import AccessPattern
    from ..memsim.config import WORD_BYTES
    from .worker import machine_by_key

    shapes = sorted(
        {
            (c.machine, c.model_source, c.x, c.y, c.style, c.size)
            for c in cells
            if c.kind == "transfer"
        }
    )
    models: Dict[Tuple[str, str], Any] = {}
    verified = 0
    for machine, source, x, y, style, size in shapes:
        key = (machine, source)
        if key not in models:
            models[key] = machine_by_key(machine).model(source=source)
        model = models[key]
        try:
            expr = model.build(
                AccessPattern.parse(x), AccessPattern.parse(y), style
            )
        except CompositionError:
            continue
        result = verify_expr(
            expr,
            model=model,
            nbytes=size * WORD_BYTES,
            style=style,
            name=f"{machine}:{x}Q{y}:{style}",
        )
        if not result.ok:
            findings = "; ".join(
                f"{d.rule}: {d.message}" for d in result.diagnostics
            )
            raise SweepError(
                f"preflight verify failed for {machine}:{x}Q{y}:{style}"
                f"@{size}w: {findings}"
            )
        verified += 1
    return verified


def run_sweep(
    spec: SweepSpec,
    workers: Optional[int] = None,
    shard_size: Optional[int] = None,
    shuffle_seed: Optional[int] = None,
    preflight_verify: bool = False,
) -> SweepResult:
    """Plan, execute and deterministically merge one sweep.

    Args:
        spec: The grid to sweep.
        workers: Process count; ``None``, 0 or 1 run the whole grid
            in-process as one batch (no pool).
        shard_size: Cells per pool shard (default: a few shards per
            worker).  Validated at any worker count.
        shuffle_seed: Deterministically permute shard submission order
            — a test knob proving completion order cannot leak into
            results.
        preflight_verify: Run the semantic verifier over every distinct
            transfer shape before executing the grid; blocking findings
            raise :class:`SweepError` and nothing executes.

    Returns:
        A :class:`~repro.sweep.merge.SweepResult` whose canonical
        payload is bit-identical for any ``workers``/``shard_size``/
        ``shuffle_seed`` combination.
    """
    cells = spec.expand()
    n_verified = _preflight_verify(cells) if preflight_verify else None
    n_workers = max(1, workers or 1)
    shards = plan_shards(
        cells,
        shard_size=shard_size,
        workers=n_workers,
        shuffle_seed=shuffle_seed,
    )
    if n_workers == 1:
        # In-process the whole grid is one batch (maximal group
        # sizes); the plan above only validated the shard knobs.
        shards = (Shard(0, tuple(enumerate(cells))),)
    tracer = current_tracer()
    if tracer is not None:
        tracer.count("sweep.cells", len(cells))
        tracer.count("sweep.shards", len(shards))
        tracer.count("sweep.workers", n_workers)

    started = time.perf_counter()
    batch_stats: Dict[str, Any] = {}
    if n_workers == 1:
        report = run_cells_batched(cells)
        indexed_rows = list(enumerate(report.rows))
        batch_stats = {
            "batch_groups": report.groups,
            "batch_fallbacks": report.fallbacks,
        }
        if tracer is not None:
            _trace_shard(
                tracer, shards[0], started, started, time.perf_counter()
            )
    else:
        indexed_rows = _run_shards_pooled(
            shards, n_workers, tracer, started
        )
    rows = merge_rows(cells, indexed_rows)
    elapsed = time.perf_counter() - started

    if tracer is not None:
        tracer.span(
            "sweep",
            track="sweep",
            start_ns=0.0,
            duration_ns=elapsed * 1e9,
            category="sweep",
            cells=len(cells),
            shards=len(shards),
            workers=n_workers,
        )
    stats: Dict[str, Any] = {
        "strategy": "pool" if n_workers > 1 else "inline",
        "workers": n_workers,
        "shards": len(shards),
        "shard_size": max((len(s) for s in shards), default=0),
        "cells": len(cells),
        "elapsed_s": elapsed,
    }
    stats.update(batch_stats)
    if n_verified is not None:
        stats["preflight_verified"] = n_verified
    return SweepResult(spec=spec, rows=rows, stats=stats)


def _trace_shard(
    tracer, shard: Shard, t0: float, started: float, finished: float
) -> None:
    tracer.span(
        f"shard:{shard.index}",
        track="sweep",
        start_ns=(started - t0) * 1e9,
        duration_ns=(finished - started) * 1e9,
        category="shard",
        cells=len(shard),
        machines=list(shard.machines),
    )


def _run_shards_pooled(
    shards: Tuple[Shard, ...],
    n_workers: int,
    tracer,
    t0: float,
) -> List[Tuple[int, Dict[str, Any]]]:
    indexed_rows: List[Tuple[int, Dict[str, Any]]] = []
    by_shard_index = {shard.index: shard for shard in shards}
    try:
        with ProcessPoolExecutor(
            max_workers=min(n_workers, max(1, len(shards))),
            mp_context=_pool_context(),
            initializer=init_worker,
            initargs=(pinned_environment(),),
        ) as pool:
            pending = {}
            for shard in shards:
                future = pool.submit(run_shard, _shard_payload(shard))
                pending[future] = (shard, time.perf_counter())
            while pending:
                done, __ = wait(
                    list(pending), return_when=FIRST_COMPLETED
                )
                for future in done:
                    shard, submitted = pending.pop(future)
                    shard_index, rows = future.result()
                    if shard_index != shard.index:
                        raise SweepError(
                            f"shard {shard.index} returned as "
                            f"{shard_index}; executor mixed results"
                        )
                    indexed_rows.extend(rows)
                    if tracer is not None:
                        _trace_shard(
                            tracer,
                            by_shard_index[shard_index],
                            t0,
                            submitted,
                            time.perf_counter(),
                        )
                        tracer.count("sweep.shards_completed")
    except SweepError:
        raise
    except Exception as exc:  # pool/pickling/worker-crash failures
        raise SweepError(f"sweep worker pool failed: {exc}") from exc
    return indexed_rows
