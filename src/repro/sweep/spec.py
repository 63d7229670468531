"""Sweep specifications: declarative parameter grids.

The paper's headline results are grids — machine x pattern x strategy
x size (Tables 1-6, Figures 4/7/8) — and regenerating them is
embarrassingly parallel: every cell is an independent, deterministic
simulation.  A :class:`SweepSpec` declares such a grid once; the
planner (:mod:`repro.sweep.plan`) shards its cells into work units and
the runner (:mod:`repro.sweep.runner`) executes them on any number of
worker processes with a deterministic merge.

Three cell kinds cover the library's sweep-shaped workloads:

* ``"transfer"`` — end-to-end runtime measurements under the paper's
  measurement conventions (one :func:`~repro.runtime.engine.measure_q`
  per cell, plus the model estimate), optionally under seeded fault
  plans.  This is the Figure 7/8 grid and the faults report.
* ``"calibrate"`` — single basic-transfer measurements on the
  memory-system simulator (one table entry per cell).  This is the
  Table 1-3 calibration grid behind
  :func:`~repro.machines.measure.measure_table`.
* ``"collective"`` — whole collective operations (broadcast,
  allreduce, alltoall) run round by round through
  :func:`~repro.runtime.collectives.run_collective`, optionally with
  the model-driven algorithm selector ("auto").

Specs and cells are plain frozen dataclasses of JSON-serializable
fields, so they cross process boundaries and survive a JSON round
trip bit-exactly.  Machines are referenced by registry key ("t3d",
"paragon"), never by object, for the same reason.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from ..core.errors import ModelError
from ..core.operations import OperationStyle
from ..core.shapes import JsonInput, Shape, bounded, check_fields
from ..runtime.collectives import ALGORITHMS, COLLECTIVE_OPS

__all__ = [
    "SweepError",
    "SweepCell",
    "SweepSpec",
    "MACHINE_KEYS",
    "NOMINAL_SEED",
    "figure7_spec",
    "figure8_spec",
    "calibration_spec",
    "collectives_spec",
]


def _registry_keys() -> Tuple[str, ...]:
    from ..machines.registry import machine_names

    return machine_names()


#: Registry keys accepted by ``SweepSpec.machines`` (resolved to
#: factories inside workers; see :mod:`repro.sweep.worker`).  Sourced
#: from the machine registry so a newly registered machine is
#: immediately sweepable.
MACHINE_KEYS: Tuple[str, ...] = _registry_keys()

#: Seed value meaning "no fault plan" (cells run nominal).
NOMINAL_SEED = -1

_KINDS = ("transfer", "calibrate", "collective")
_RATES = ("simulated", "paper")
_DUPLEX = ("auto", "on", "off")

#: Collective algorithm names: the model-driven selector, then every
#: concrete algorithm in first-listed order.
_ALGORITHMS = tuple(dict.fromkeys(
    ("auto", *(name for names in ALGORITHMS.values() for name in names))
))

#: Calibration entry letters a calibrate cell's ``style`` may carry
#: (paper notation: C copy, S load-send, F fetch-send/DMA, R
#: receive-store, D deposit, plus the two network framing modes).
CALIBRATION_LETTERS = ("C", "S", "F", "R", "D", "Nd", "Nadp")


class SweepError(ModelError):
    """A sweep failed: bad spec, a worker died, or the merge found
    missing/duplicate cells."""


def _axis(
    default: Any, items: Optional[Shape] = None, nonempty: bool = False
) -> Any:
    """A grid axis field: distinct values, each fitting ``items``."""
    bounds: Dict[str, Any] = {"unique": True, "nonempty": nonempty}
    if items is not None:
        bounds["items"] = items
    return bounded(default, **bounds)


@dataclass(frozen=True, order=True)
class SweepCell(JsonInput):
    """One unit of sweep work, fully self-describing and picklable.

    For ``kind="transfer"`` the fields read like an ``xQy`` operation:
    ``x``/``y`` are pattern notations ("1", "64", "w"), ``style`` an
    :class:`~repro.core.operations.OperationStyle` value, ``size`` the
    payload bytes and ``seed`` a fault-plan seed (:data:`NOMINAL_SEED`
    for a healthy run).  For ``kind="calibrate"`` the ``style`` field
    carries the table-entry letter ("C", "S", ..., "Nd"), ``x``/``y``
    the entry's read/write keys ("0", "1", "w" or a stride) and
    ``size`` the stream length in words.  For ``kind="collective"``
    the ``op`` field names the operation, ``style`` the algorithm
    ("auto" defers to the model-driven selector), ``size`` the
    per-node payload bytes and ``nodes`` the partition size.

    The dataclass ordering (field by field) is the canonical total
    order used by the deterministic merge; it never depends on which
    worker produced a result.
    """

    parse_error = SweepError

    kind: str
    machine: str
    x: str
    y: str
    style: str
    size: int
    seed: int = NOMINAL_SEED
    congestion: int = -1  # -1: the machine's default operating point
    rates: str = "simulated"
    model_source: str = "paper"
    duplex: str = "auto"
    op: str = ""  # collective cells only
    nodes: int = 0  # collective cells only

    @property
    def cell_id(self) -> str:
        """Stable human-readable identifier (also used in reports)."""
        if self.kind == "calibrate":
            entry = (
                self.style
                if self.style in ("Nd", "Nadp")
                else f"{self.x}{self.style}{self.y}"
            )
            return f"{self.machine}:cal:{entry}@{self.size}w"
        tail = "" if self.seed == NOMINAL_SEED else f":seed{self.seed}"
        if self.kind == "collective":
            return (
                f"{self.machine}:{self.op}:{self.style}:"
                f"{self.size}x{self.nodes}{tail}"
            )
        return (
            f"{self.machine}:{self.x}Q{self.y}:{self.style}:{self.size}{tail}"
        )


@dataclass(frozen=True)
class SweepSpec(JsonInput):
    """A declarative parameter grid of sweep cells.

    Axes multiply: ``machines x (pairs | x*y) x styles x sizes x
    seeds``.  ``pairs`` — explicit (x, y) pattern pairs — overrides
    the ``x``/``y`` cross product when non-empty, because the paper's
    grids (Figure 7/8) enumerate named pairs rather than a full
    product.  An empty ``seeds`` tuple means every cell runs nominal;
    listing seeds adds one grid layer per seed (include
    :data:`NOMINAL_SEED` to keep a healthy baseline in the same
    sweep).

    ``kind="calibrate"`` ignores the pattern/style/size axes and
    instead expands each machine's full calibration-entry list (the
    exact set :func:`~repro.machines.measure.measure_table` measures)
    at ``nwords`` / ``strides``.

    ``kind="collective"`` multiplies ``machines x ops x algorithms x
    sizes x nodes x seeds``; algorithms not defined for an op are
    skipped during expansion (so one spec can mix ops cleanly), and
    ``"auto"`` defers each cell to the model-driven selector.

    Every field is checked against its bounds at construction: each
    axis holds distinct values, names come from their registries, and
    sizes, word and node counts are positive (nodes at least 2).
    :meth:`validate` adds the rules that tie one field to another.
    """

    parse_error = SweepError

    kind: str = bounded("transfer", choices=_KINDS)
    machines: Tuple[str, ...] = _axis(
        ("t3d",), Shape(str, choices=MACHINE_KEYS), nonempty=True
    )
    x: Tuple[str, ...] = _axis(("1",))
    y: Tuple[str, ...] = _axis(("64",))
    pairs: Tuple[Tuple[str, str], ...] = _axis(())
    styles: Tuple[str, ...] = _axis(
        ("buffer-packing", "chained"),
        Shape(str, choices=tuple(style.value for style in OperationStyle)),
    )
    sizes: Tuple[int, ...] = _axis(
        (131072,), Shape(int, minimum=1), nonempty=True
    )
    seeds: Tuple[int, ...] = _axis((), Shape(int, minimum=NOMINAL_SEED))
    congestion: int = -1
    rates: str = bounded("simulated", choices=_RATES)
    model_source: str = bounded("paper", choices=_RATES)
    duplex: str = bounded("auto", choices=_DUPLEX)
    nwords: int = bounded(32768, minimum=1)
    strides: Tuple[int, ...] = _axis((2, 4, 8, 16, 32, 64))
    # ops, algorithms and nodes are collective sweeps only.
    ops: Tuple[str, ...] = _axis((), Shape(str, choices=COLLECTIVE_OPS))
    algorithms: Tuple[str, ...] = _axis(
        ("auto",), Shape(str, choices=_ALGORITHMS), nonempty=True
    )
    nodes: Tuple[int, ...] = _axis(
        (16,), Shape(int, minimum=2), nonempty=True
    )

    def __post_init__(self) -> None:
        check_fields(self, SweepError)

    # -- validation ---------------------------------------------------------

    def validate(self) -> None:
        """Raise :class:`SweepError` unless the kind has its axes.

        A collective sweep needs ops; a transfer sweep needs pattern
        pairs or both ``x`` and ``y``.
        """
        if self.kind == "collective" and not self.ops:
            raise SweepError("a collective sweep needs at least one op")
        if self.kind == "transfer" and not (self.pairs or (self.x and self.y)):
            raise SweepError("a transfer sweep needs pairs or x/y axes")

    # -- expansion ----------------------------------------------------------

    def _pattern_pairs(self) -> Tuple[Tuple[str, str], ...]:
        if self.pairs:
            return self.pairs
        return tuple((x, y) for x in self.x for y in self.y)

    def expand(self) -> Tuple[SweepCell, ...]:
        """All cells of the grid, in canonical (declaration) order.

        This order — not worker count, shard size or completion order —
        defines the layout of the merged result.
        """
        self.validate()
        if self.kind == "calibrate":
            return self._expand_calibrate()
        if self.kind == "collective":
            return self._expand_collective()
        seeds = self.seeds if self.seeds else (NOMINAL_SEED,)
        cells = []
        for machine in self.machines:
            for x, y in self._pattern_pairs():
                for style in self.styles:
                    for size in self.sizes:
                        for seed in seeds:
                            cells.append(
                                SweepCell(
                                    kind="transfer",
                                    machine=machine,
                                    x=x,
                                    y=y,
                                    style=style,
                                    size=size,
                                    seed=seed,
                                    congestion=self.congestion,
                                    rates=self.rates,
                                    model_source=self.model_source,
                                    duplex=self.duplex,
                                )
                            )
        return tuple(cells)

    def _expand_collective(self) -> Tuple[SweepCell, ...]:
        seeds = self.seeds if self.seeds else (NOMINAL_SEED,)
        cells = []
        for machine in self.machines:
            for op in self.ops:
                for algorithm in self.algorithms:
                    if algorithm != "auto" and algorithm not in ALGORITHMS[op]:
                        continue
                    for size in self.sizes:
                        for count in self.nodes:
                            for seed in seeds:
                                cells.append(
                                    SweepCell(
                                        kind="collective",
                                        machine=machine,
                                        x="1",
                                        y="1",
                                        style=algorithm,
                                        size=size,
                                        seed=seed,
                                        congestion=self.congestion,
                                        rates=self.rates,
                                        model_source=self.model_source,
                                        op=op,
                                        nodes=count,
                                    )
                                )
        return tuple(cells)

    def _expand_calibrate(self) -> Tuple[SweepCell, ...]:
        from ..machines.measure import calibration_entries

        from .worker import machine_by_key

        cells = []
        for name in self.machines:
            machine = machine_by_key(name)
            for letter, read, write in calibration_entries(
                machine, tuple(self.strides)
            ):
                cells.append(
                    SweepCell(
                        kind="calibrate",
                        machine=name,
                        x=str(read),
                        y=str(write),
                        style=letter,
                        size=self.nwords,
                        congestion=self.congestion,
                        rates=self.rates,
                        model_source=self.model_source,
                    )
                )
        return tuple(cells)

    @property
    def cell_count(self) -> int:
        return len(self.expand())

    # -- serialization -------------------------------------------------------

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "SweepSpec":
        spec = super().from_dict(payload)
        spec.validate()
        return spec


# -- presets -----------------------------------------------------------------

#: The Figure 7/8 pattern grid, in the paper's order.
GRID_PAIRS: Tuple[Tuple[str, str], ...] = (
    ("1", "1"),
    ("1", "64"),
    ("64", "1"),
    ("1", "w"),
    ("w", "1"),
    ("w", "w"),
)

#: Message size of the paper's "measured" points (128 KiB).
GRID_BYTES = 131072


def figure7_spec() -> SweepSpec:
    """The T3D packing-vs-chained grid behind Figure 7."""
    return SweepSpec(
        kind="transfer",
        machines=("t3d",),
        pairs=GRID_PAIRS,
        styles=tuple(style.value for style in OperationStyle),
        sizes=(GRID_BYTES,),
    )


def figure8_spec() -> SweepSpec:
    """The Paragon packing-vs-chained grid behind Figure 8."""
    return dataclasses.replace(figure7_spec(), machines=("paragon",))


def calibration_spec(
    machine: str,
    nwords: int = 32768,
    strides: Tuple[int, ...] = (2, 4, 8, 16, 32, 64),
    congestion: int = -1,
) -> SweepSpec:
    """The full Section-4 calibration grid for one machine."""
    return SweepSpec(
        kind="calibrate",
        machines=(machine,),
        congestion=congestion,
        nwords=nwords,
        strides=tuple(strides),
    )


def collectives_spec(
    machines: Tuple[str, ...] = ("cluster", "xe"),
    nodes: Tuple[int, ...] = (16,),
    seeds: Tuple[int, ...] = (),
) -> SweepSpec:
    """A collective grid on the post-1994 machines.

    Every op at a latency-bound and a bandwidth-bound payload, both
    with the model-driven selector ("auto") and with every concrete
    algorithm, so the sweep records the selector's choice *and* the
    ground it stood on.  Paper rates keep the grid fast enough for the
    CI smoke job.
    """
    return SweepSpec(
        kind="collective",
        machines=tuple(machines),
        ops=COLLECTIVE_OPS,
        algorithms=_ALGORITHMS,
        sizes=(1024, 1048576),
        nodes=tuple(nodes),
        seeds=tuple(seeds),
        rates="paper",
    )
