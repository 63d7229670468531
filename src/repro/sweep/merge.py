"""Deterministic merge of sharded sweep results.

The reproducibility obligation: a sweep's merged result must be
**bit-identical** regardless of worker count, shard size and shard
completion order.  The merge therefore never appends in arrival
order — every row is placed at its cell's canonical index (the
position in ``spec.expand()``), and the merge fails loudly on missing
or duplicated cells instead of papering over a broken shard.

Wall-clock facts about a run (worker count, elapsed time, shard
sizes) are interesting but nondeterministic, so they live in
``SweepResult.stats`` which is deliberately excluded from the
canonical payload (:meth:`SweepResult.to_dict`) and the digest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.serialization import canonical_digest, canonical_json
from .spec import SweepCell, SweepError, SweepSpec

__all__ = ["SweepResult", "merge_rows", "RESULT_SCHEMA"]

#: Schema tag embedded in every serialized sweep result.
RESULT_SCHEMA = "repro-sweep-result/1"


@dataclass(frozen=True)
class SweepResult:
    """A fully merged sweep: one row per cell, in canonical order.

    Attributes:
        spec: The grid that was swept.
        rows: One JSON-plain mapping per cell, aligned index-for-index
            with ``spec.expand()``.
        stats: Nondeterministic run facts (workers, wall seconds,
            shard count); never part of the canonical payload.
    """

    spec: SweepSpec
    rows: Tuple[Dict[str, Any], ...]
    stats: Dict[str, Any] = field(default_factory=dict, compare=False)

    @property
    def cells(self) -> Tuple[SweepCell, ...]:
        return self.spec.expand()

    def __len__(self) -> int:
        return len(self.rows)

    def row(self, cell_id: str) -> Dict[str, Any]:
        """The row for one cell id (:class:`KeyError` if absent)."""
        for cell, row in zip(self.cells, self.rows):
            if cell.cell_id == cell_id:
                return row
        raise KeyError(cell_id)

    def to_dict(self) -> Dict[str, Any]:
        """The canonical payload: spec + rows, nothing run-dependent."""
        return {
            "schema": RESULT_SCHEMA,
            "spec": self.spec.to_dict(),
            "results": list(self.rows),
        }

    def canonical_json(self) -> str:
        """Key-sorted, separator-pinned JSON of the canonical payload.

        Two runs of the same spec are *bit-identical* exactly when
        these strings are equal — this is the representation the
        determinism tests and the digest are defined over.
        """
        return canonical_json(self.to_dict())

    def digest(self) -> str:
        """SHA-256 of :meth:`canonical_json` (cheap equality witness)."""
        return canonical_digest(self.to_dict())

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "SweepResult":
        if payload.get("schema") != RESULT_SCHEMA:
            raise SweepError(
                f"expected schema {RESULT_SCHEMA!r}, "
                f"got {payload.get('schema')!r}"
            )
        spec = SweepSpec.from_dict(payload["spec"])
        rows = tuple(payload["results"])
        if len(rows) != spec.cell_count:
            raise SweepError(
                f"payload has {len(rows)} rows for {spec.cell_count} cells"
            )
        return cls(spec=spec, rows=rows)


def merge_rows(
    cells: Sequence[SweepCell],
    indexed_rows: Iterable[Tuple[int, Dict[str, Any]]],
) -> Tuple[Dict[str, Any], ...]:
    """Place ``(cell_index, row)`` pairs into canonical cell order.

    Raises :class:`SweepError` on an out-of-range index, a duplicated
    cell, or a cell no shard reported — any of which means the planner
    or a worker misbehaved and the merged grid would be silently wrong.
    """
    slots: List[Optional[Dict[str, Any]]] = [None] * len(cells)
    for index, row in indexed_rows:
        if not 0 <= index < len(slots):
            raise SweepError(
                f"shard reported cell index {index} outside the "
                f"{len(slots)}-cell grid"
            )
        if slots[index] is not None:
            raise SweepError(
                f"cell {cells[index].cell_id!r} reported twice; "
                "overlapping shards"
            )
        slots[index] = row
    missing = [
        cells[i].cell_id for i, row in enumerate(slots) if row is None
    ]
    if missing:
        preview = ", ".join(missing[:5])
        raise SweepError(
            f"{len(missing)} cell(s) never reported (first: {preview})"
        )
    return tuple(slots)  # type: ignore[arg-type]
