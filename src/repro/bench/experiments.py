"""Regeneration code for every table and figure in the paper.

Each function rebuilds one experiment from the library's own machinery
(simulators, model, runtime, kernels) and returns paper-vs-ours
:class:`~repro.bench.reporting.Comparison` rows (for tables with
printed numbers) or the raw series (for figures read off charts).
The ``benchmarks/`` tree calls these and asserts the shape criteria.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple

from ..core.operations import OperationStyle
from ..core.patterns import CONTIGUOUS, INDEXED, AccessPattern, strided
from ..machines import paragon, t3d
from ..machines.base import Machine
from ..netsim.network import FramingMode
from ..runtime.engine import CommRuntime, measure_q
from ..runtime.libraries import lowlevel_profile, pvm_profile
from . import paperdata
from .reporting import Comparison, render

__all__ = [
    "table1",
    "table2",
    "table3",
    "table4",
    "figure1",
    "figure4",
    "figure7",
    "figure8",
    "collective_table",
    "machine_grid",
    "section341",
    "section51",
    "table5",
    "table6",
    "PATTERN_GRID",
    "print_experiments_report",
]

#: The x/y pattern grid of Figures 7 and 8 (both axes of each chart).
PATTERN_GRID: List[Tuple[str, AccessPattern, AccessPattern]] = [
    ("1Q1", CONTIGUOUS, CONTIGUOUS),
    ("1Q64", CONTIGUOUS, strided(64)),
    ("64Q1", strided(64), CONTIGUOUS),
    ("1Qw", CONTIGUOUS, INDEXED),
    ("wQ1", INDEXED, CONTIGUOUS),
    ("wQw", INDEXED, INDEXED),
]

#: Message size used for point-to-point "measured" comparisons.
MEASURE_BYTES = 128 * 1024


def _simulated(machine: Machine) -> Dict[str, float]:
    return machine.simulated_table().to_dict()


# -- Tables 1-3: basic transfer calibration ---------------------------------


def table1(machine: Machine) -> List[Comparison]:
    """Local memory-to-memory copies (Table 1)."""
    simulated = _simulated(machine)
    reference = paperdata.TABLE1_LOCAL_COPIES[machine.name]
    return [
        Comparison(key, reference[key], simulated[key]) for key in reference
    ]


def table2(machine: Machine) -> List[Comparison]:
    """Sending network transfers (Table 2)."""
    simulated = _simulated(machine)
    reference = paperdata.TABLE2_SEND[machine.name]
    return [
        Comparison(key, reference[key], simulated[key]) for key in reference
    ]


def table3(machine: Machine) -> List[Comparison]:
    """Receiving network transfers (Table 3)."""
    simulated = _simulated(machine)
    reference = paperdata.TABLE3_RECEIVE[machine.name]
    return [
        Comparison(key, reference[key], simulated[key]) for key in reference
    ]


def table4(machine: Machine) -> List[Comparison]:
    """Network bandwidth under congestion (Table 4)."""
    model = machine.network_model()
    reference = paperdata.TABLE4_NETWORK[machine.name]
    rows = []
    for mode_name, mode in (
        ("data", FramingMode.DATA_ONLY),
        ("adp", FramingMode.ADDRESS_DATA_PAIRS),
    ):
        for congestion, paper_rate in sorted(reference[mode_name].items()):
            ours = model.rate(mode, congestion=congestion)
            rows.append(
                Comparison(f"{mode_name}@{congestion}", paper_rate, ours)
            )
    return rows


# -- Figures 1 and 4: curves ---------------------------------------------------


def figure1(
    machine: Machine,
    sizes: Sequence[int] = (64, 256, 1024, 4096, 16384, 65536, 262144, 1 << 20, 4 << 20),
) -> Dict[str, List[Tuple[int, float]]]:
    """Throughput vs message size: PVM vs the best low-level library.

    Single-pair microbenchmark, so the network runs at congestion 1.
    Returns the two curves; Figure 1 prints no exact numbers, so the
    checks are qualitative (shape + asymptote context).
    """
    pvm_runtime = CommRuntime(machine, library=pvm_profile(), congestion=1)
    low_runtime = CommRuntime(machine, library=lowlevel_profile(), congestion=1)
    pvm_curve = pvm_runtime.sweep_message_sizes(
        list(sizes), style=OperationStyle.BUFFER_PACKING
    )
    # The "best library" path for contiguous blocks: no copies (the
    # low-level profile skips them), hardware block transfer — the
    # Paragon's DMA or the T3D's load-send feeding the wire directly.
    low_curve = low_runtime.sweep_message_sizes(
        list(sizes), style=OperationStyle.BUFFER_PACKING
    )
    return {"PVM": pvm_curve, "low-level": low_curve}


def figure4(
    machine: Machine,
    strides: Sequence[int] = (2, 4, 8, 16, 32, 64),
) -> Dict[str, List[Tuple[int, float]]]:
    """Strided local copy throughput vs stride (Figure 4).

    Returns the strided-store curve (``1Cs``) and strided-load curve
    (``sC1``) measured on the simulator.
    """
    node = machine.node_memory()
    stores = [(s, node.measure_copy(CONTIGUOUS, strided(s))) for s in strides]
    loads = [(s, node.measure_copy(strided(s), CONTIGUOUS)) for s in strides]
    return {"strided stores (1Cs)": stores, "strided loads (sC1)": loads}


# -- Sections 3.4.1 and 5.1: model estimates -----------------------------------


def section341() -> List[Comparison]:
    """The 1024x1024 T3D transpose example: estimate and measurement."""
    machine = t3d()
    model = machine.model(source="paper")
    estimate = model.estimate(
        CONTIGUOUS, strided(1024), OperationStyle.BUFFER_PACKING
    ).mbps
    measured = measure_q(
        machine,
        CONTIGUOUS,
        strided(1024),
        MEASURE_BYTES,
        OperationStyle.BUFFER_PACKING,
    ).mbps
    return [
        Comparison("|1Q1024| estimate", paperdata.SEC341_EXAMPLE["estimate"], estimate),
        Comparison("|1Q1024| measured", paperdata.SEC341_EXAMPLE["measured"], measured),
    ]


def _parse_q(op: str) -> Tuple[AccessPattern, AccessPattern]:
    x_text, __, y_text = op.partition("Q")
    return AccessPattern.parse(x_text), AccessPattern.parse(y_text)


def section51(machine: Machine) -> List[Comparison]:
    """The printed Section 5.1 model estimates for this machine."""
    model = machine.model(source="paper")
    rows = []
    for (name, op, style), paper_rate in sorted(
        paperdata.SEC51_MODEL_ESTIMATES.items()
    ):
        if name != machine.name:
            continue
        x, y = _parse_q(op)
        ours = model.estimate(x, y, style).mbps
        rows.append(Comparison(f"{op} {style}", paper_rate, ours))
    return rows


# -- Figures 7/8 and Table 5: packing vs chained --------------------------------


def _packing_vs_chained(
    machine: Machine,
) -> Dict[str, Dict[str, float]]:
    """Model and measured rates over the Figure 7/8 pattern grid."""
    model = machine.model(source="paper")
    results: Dict[str, Dict[str, float]] = {}
    for name, x, y in PATTERN_GRID:
        entry = {}
        for style in OperationStyle:
            entry[f"{style.value} model"] = model.estimate(x, y, style).mbps
            entry[f"{style.value} measured"] = measure_q(
                machine, x, y, MEASURE_BYTES, style
            ).mbps
        results[name] = entry
    return results


def _packing_vs_chained_swept(spec) -> Dict[str, Dict[str, float]]:
    """The Figure 7/8 grid executed through :func:`repro.sweep.run_sweep`.

    Returns the same mapping (same keys, same insertion order, same
    values) as :func:`_packing_vs_chained` — only wall-clock differs.
    """
    from ..sweep import run_sweep

    result = run_sweep(spec)
    results: Dict[str, Dict[str, float]] = {}
    for cell, row in zip(result.cells, result.rows):
        name = f"{cell.x}Q{cell.y}"
        entry = results.setdefault(name, {})
        entry[f"{cell.style} model"] = row["model_mbps"]
        entry[f"{cell.style} measured"] = row["mbps"]
    return results


def _packing_vs_chained_by(
    engine: str, spec_factory: Callable, machine_factory: Callable
) -> Dict[str, Dict[str, float]]:
    if engine == "batch":
        return _packing_vs_chained_swept(spec_factory())
    if engine != "cell":
        raise ValueError(f"unknown engine {engine!r}; use 'cell' or 'batch'")
    return _packing_vs_chained(machine_factory())


def figure7(engine: str = "cell") -> Dict[str, Dict[str, float]]:
    """Buffer-packing vs chained on the T3D (Figure 7).

    ``engine="cell"`` runs the direct per-pattern loop;
    ``engine="batch"`` runs the grid through :func:`repro.sweep.run_sweep`.
    The returned mapping is identical.
    """
    from ..sweep import figure7_spec

    return _packing_vs_chained_by(engine, figure7_spec, t3d)


def figure8(engine: str = "cell") -> Dict[str, Dict[str, float]]:
    """Buffer-packing vs chained on the Paragon (Figure 8).

    ``engine="cell"`` runs the direct per-pattern loop;
    ``engine="batch"`` runs the grid through :func:`repro.sweep.run_sweep`.
    The returned mapping is identical.
    """
    from ..sweep import figure8_spec

    return _packing_vs_chained_by(engine, figure8_spec, paragon)


def machine_grid(machine_key: str) -> Dict[str, Dict[str, float]]:
    """The Figure 7/8 pattern grid on any registered machine.

    Same shape as :func:`figure7` — per pattern, model and measured
    rates for both styles — so machines beyond the paper's two get the
    same golden-pinned grid.
    """
    from ..machines.registry import MACHINE_FACTORIES

    return _packing_vs_chained(MACHINE_FACTORIES[machine_key]())


#: The (sizes, node count) regime grid collective goldens pin.
COLLECTIVE_GRID_BYTES: Tuple[int, ...] = (1024, 1 << 20)
COLLECTIVE_GRID_NODES: int = 16


def collective_table(machine_key: str) -> Dict[str, Dict[str, float]]:
    """Every collective algorithm priced on one machine (paper rates).

    Returns ``{op/algorithm: {"<nbytes>B model_ns": ns, ...}}`` across
    the regime grid, plus the model-driven selector's pick per regime
    (as an index into the algorithm list) — pinning both the numbers
    and the crossover structure.
    """
    from ..compiler.advisor import choose_algorithm
    from ..machines.registry import MACHINE_FACTORIES
    from ..runtime.collectives import ALGORITHMS, run_collective

    machine = MACHINE_FACTORIES[machine_key]()
    runtime = CommRuntime(machine, rates="paper")
    nodes = COLLECTIVE_GRID_NODES
    results: Dict[str, Dict[str, float]] = {}
    for op, algorithms in sorted(ALGORITHMS.items()):
        entry: Dict[str, float] = {}
        for nbytes in COLLECTIVE_GRID_BYTES:
            for algorithm in algorithms:
                run = run_collective(runtime, op, algorithm, nodes, nbytes)
                entry[f"{algorithm} {nbytes}B ns"] = run.total_ns
            advice = choose_algorithm(op, machine, nbytes, nodes)
            entry[f"auto {nbytes}B pick"] = float(
                algorithms.index(advice.algorithm)
            )
        results[op] = entry
    return results


def table5() -> List[Comparison]:
    """Strided loads vs strided stores (Table 5), all 16 cells."""
    machines = {"Cray T3D": t3d(), "Intel Paragon": paragon()}
    rows = []
    for (machine_name, op), styles in sorted(paperdata.TABLE5.items()):
        machine = machines[machine_name]
        model = machine.model(source="paper")
        x, y = _parse_q(op)
        for style_name, (paper_model, paper_measured) in sorted(styles.items()):
            style = OperationStyle(style_name)
            ours_model = model.estimate(x, y, style).mbps
            ours_measured = measure_q(machine, x, y, MEASURE_BYTES, style).mbps
            short = "T3D" if "T3D" in machine_name else "Paragon"
            rows.append(
                Comparison(
                    f"{short} {op} {style_name} model", paper_model, ours_model
                )
            )
            rows.append(
                Comparison(
                    f"{short} {op} {style_name} meas",
                    paper_measured,
                    ours_measured,
                )
            )
    return rows


# -- Table 6: application kernels -----------------------------------------------


def table6() -> List[Comparison]:
    """Application kernels on the 64-node T3D (Table 6)."""
    from ..apps import FEMKernel, FFT2D, SORKernel

    machine = t3d()
    kernels = {
        "transpose": FFT2D(machine),
        "FEM": FEMKernel(machine),
        "SOR": SORKernel(machine),
    }
    rows = []
    for name, kernel in kernels.items():
        report = kernel.report()
        paper_packing, paper_chained, paper_model = paperdata.TABLE6_T3D[name]
        rows.append(
            Comparison(
                f"{name} packing meas", paper_packing, report.packing_measured_mbps
            )
        )
        rows.append(
            Comparison(
                f"{name} chained meas", paper_chained, report.chained_measured_mbps
            )
        )
        rows.append(
            Comparison(
                f"{name} chained model", paper_model, report.chained_model_mbps
            )
        )
    return rows


# -- The full report --------------------------------------------------------------


def print_experiments_report() -> None:
    """Print every paper-vs-ours comparison behind EXPERIMENTS.md.

    Tables as :func:`render` blocks, then the figure series and the
    Figure 7/8 model-vs-measured grids.  Slow: it regenerates every
    table and figure.
    """
    comparisons = [
        ("Table 1 (T3D)", table1, (t3d(),)),
        ("Table 1 (Paragon)", table1, (paragon(),)),
        ("Table 2 (T3D)", table2, (t3d(),)),
        ("Table 2 (Paragon)", table2, (paragon(),)),
        ("Table 3 (T3D)", table3, (t3d(),)),
        ("Table 3 (Paragon)", table3, (paragon(),)),
        ("Table 4 (T3D)", table4, (t3d(),)),
        ("Table 4 (Paragon)", table4, (paragon(),)),
        ("Section 5.1 (T3D)", section51, (t3d(),)),
        ("Section 5.1 (Paragon)", section51, (paragon(),)),
        ("Section 3.4.1", section341, ()),
        ("Table 5", table5, ()),
        ("Table 6", table6, ()),
    ]
    for title, function, args in comparisons:
        print(render(title, function(*args)))
        print()

    for figure, function in (("Figure 1", figure1), ("Figure 4", figure4)):
        for title, factory in (("T3D", t3d), ("Paragon", paragon)):
            print(f"== {figure} ({title}) ==")
            for label, points in function(factory()).items():
                print(label, " ".join(f"{x}:{y:.1f}" for x, y in points))
            print()

    for title, results in (("Figure 7 (T3D)", figure7()),
                           ("Figure 8 (Paragon)", figure8())):
        print(f"== {title} ==")
        print(f"{'pattern':8} {'pack mdl':>9} {'pack meas':>10} "
              f"{'chain mdl':>10} {'chain meas':>11}")
        for pattern, entry in results.items():
            print(
                f"{pattern:8} {entry['buffer-packing model']:9.1f} "
                f"{entry['buffer-packing measured']:10.1f} "
                f"{entry['chained model']:10.1f} "
                f"{entry['chained measured']:11.1f}"
            )
        print()
