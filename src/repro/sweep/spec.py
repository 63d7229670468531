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
from ..core.shapes import JsonInput, bounded, check_fields

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

#: Calibration entry letters a calibrate cell's ``style`` may carry
#: (paper notation: C copy, S load-send, F fetch-send/DMA, R
#: receive-store, D deposit, plus the two network framing modes).
CALIBRATION_LETTERS = ("C", "S", "F", "R", "D", "Nd", "Nadp")


class SweepError(ModelError):
    """A sweep failed: bad spec, a worker died, or the merge found
    missing/duplicate cells."""


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
    """

    parse_error = SweepError

    kind: str = "transfer"
    machines: Tuple[str, ...] = ("t3d",)
    x: Tuple[str, ...] = ("1",)
    y: Tuple[str, ...] = ("64",)
    pairs: Tuple[Tuple[str, str], ...] = ()
    styles: Tuple[str, ...] = ("buffer-packing", "chained")
    sizes: Tuple[int, ...] = (131072,)
    seeds: Tuple[int, ...] = ()
    congestion: int = -1
    rates: str = "simulated"
    model_source: str = bounded("paper", choices=_RATES)
    duplex: str = bounded("auto", choices=_DUPLEX)
    nwords: int = 32768
    strides: Tuple[int, ...] = (2, 4, 8, 16, 32, 64)
    ops: Tuple[str, ...] = ()  # collective sweeps only
    algorithms: Tuple[str, ...] = ("auto",)  # collective sweeps only
    nodes: Tuple[int, ...] = (16,)  # collective sweeps only

    # -- validation ---------------------------------------------------------

    def validate(self) -> None:
        """Raise :class:`SweepError` on the first structural problem."""
        check_fields(self, SweepError)
        if self.kind not in _KINDS:
            raise SweepError(
                f"unknown sweep kind {self.kind!r}; choose from {_KINDS}"
            )
        if not self.machines:
            raise SweepError("a sweep needs at least one machine")
        for name in self.machines:
            if name not in MACHINE_KEYS:
                raise SweepError(
                    f"unknown machine {name!r}; choose from "
                    f"{sorted(MACHINE_KEYS)}"
                )
        if self.rates not in _RATES:
            raise SweepError(f"unknown rate source {self.rates!r}")
        if self.kind == "calibrate":
            if self.nwords <= 0:
                raise SweepError("calibrate sweeps need nwords > 0")
            return
        if self.kind == "collective":
            self._validate_collective()
            return
        for style in self.styles:
            try:
                OperationStyle(style)
            except ValueError:
                raise SweepError(f"unknown operation style {style!r}")
        if not (self.pairs or (self.x and self.y)):
            raise SweepError("a transfer sweep needs pairs or x/y axes")
        for size in self.sizes:
            if size <= 0:
                raise SweepError(f"transfer sizes must be > 0, got {size}")
        if not self.sizes:
            raise SweepError("a transfer sweep needs at least one size")

    def _validate_collective(self) -> None:
        from ..runtime.collectives import ALGORITHMS, COLLECTIVE_OPS

        if not self.ops:
            raise SweepError("a collective sweep needs at least one op")
        for op in self.ops:
            if op not in COLLECTIVE_OPS:
                raise SweepError(
                    f"unknown collective op {op!r}; choose from "
                    f"{sorted(COLLECTIVE_OPS)}"
                )
        known = {"auto"}
        for algorithms in ALGORITHMS.values():
            known.update(algorithms)
        for algorithm in self.algorithms:
            if algorithm not in known:
                raise SweepError(
                    f"unknown collective algorithm {algorithm!r}; choose "
                    f"from {sorted(known)}"
                )
        if not self.algorithms:
            raise SweepError(
                "a collective sweep needs at least one algorithm"
            )
        if not self.sizes:
            raise SweepError("a collective sweep needs at least one size")
        for size in self.sizes:
            if size <= 0:
                raise SweepError(
                    f"collective sizes must be > 0, got {size}"
                )
        if not self.nodes:
            raise SweepError(
                "a collective sweep needs at least one node count"
            )
        for count in self.nodes:
            if count < 2:
                raise SweepError(
                    f"collective node counts must be >= 2, got {count}"
                )

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
        from ..runtime.collectives import ALGORITHMS

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
    from ..runtime.collectives import ALGORITHMS, COLLECTIVE_OPS

    algorithms = ["auto"]
    for per_op in ALGORITHMS.values():
        for algorithm in per_op:
            if algorithm not in algorithms:
                algorithms.append(algorithm)
    return SweepSpec(
        kind="collective",
        machines=tuple(machines),
        ops=COLLECTIVE_OPS,
        algorithms=tuple(algorithms),
        sizes=(1024, 1048576),
        nodes=tuple(nodes),
        seeds=tuple(seeds),
        rates="paper",
    )
