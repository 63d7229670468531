"""One pass of one workload, in the fresh interpreter ``run.py`` starts.

Usage (``run.py`` does this; the job is one JSON argument)::

    python3 perfbench/child.py '{"workload": "traffic-open", ...}'

A pass sets the workload up (import ``repro``, build machines, load
calibration), times the body, then checks the outputs outside the
timed region.  It prints one JSON object on its last stdout line.
Job modes: ``pass`` (setup, body, checks), ``setup`` (setup only, a
``setup_s`` sample) and ``prime`` (setup plus the accuracy tables, to
fill the warm calibration cache before anything is measured).  With
``"trace": true`` the layer probes wrap setup and body.
"""

from __future__ import annotations

import dataclasses
import hashlib
import heapq
import json
import math
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Machines of the collective grid.
COLLECTIVE_MACHINES = ("t3d", "paragon", "cluster", "xe")

#: Relative tolerance of the scalar-engine spot check (the goldens'
#: default: the engines may differ in the last ulps).
SCALAR_REL_TOL = 1e-6

#: At most this many problem strings travel back to ``run.py``.
MAX_PROBLEMS = 20

#: A pass times the reference kernel once before its body and after it
#: until the kernel has run for at least this share of the body's time.
REFERENCE_SHARE = 0.25


class Outcome:
    """Operations attempted and failed, with the reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def op(self, ok: bool, problem: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)


def _positive(value: Any) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value) \
        and value > 0


def paper_error_pct(rows) -> float:
    """Mean of ``(max(r, 1/r) - 1) * 100`` over paper-vs-ours rows."""
    errors = [
        (max(row.ours / row.paper, row.paper / row.ours) - 1.0) * 100.0
        for row in rows
    ]
    return sum(errors) / len(errors)


def accuracy_tables(machines) -> Dict[str, List[Any]]:
    """Tables 1-4 and Section 5.1 on T3D and Paragon, by golden name."""
    from repro.bench import section51, table1, table2, table3, table4

    return {
        f"{table.__name__}_{key}": table(machines[key])
        for key in ("t3d", "paragon")
        for table in (table1, table2, table3, table4, section51)
    }


def _rows(tables: Dict[str, List[Any]]) -> List[Any]:
    return [row for rows in tables.values() for row in rows]


def _paper_machines():
    from repro.machines import paragon, t3d

    return {"t3d": t3d(), "paragon": paragon()}


# -- regen-cold ---------------------------------------------------------------


class RegenCold:
    """Regenerate the paper's tables and figures from an empty cache."""

    def __init__(self, inputs: Dict[str, Any]) -> None:
        from inputs import GOLDEN_STRIDES

        self.golden_strides = GOLDEN_STRIDES
        self.seeded = inputs["seeded_strides"]

    def setup(self) -> None:
        import repro.bench  # noqa: F401

        self.machines = _paper_machines()

    def body(self) -> int:
        from repro.bench import figure4, figure7, figure8

        self.tables = accuracy_tables(self.machines)
        self.curves = {
            key: figure4(
                machine, tuple(self.golden_strides) + tuple(self.seeded[key])
            )
            for key, machine in self.machines.items()
        }
        self.grids = {
            "figure7": figure7(engine="batch"),
            "figure8": figure8(engine="batch"),
        }
        points = sum(
            len(series) for curves in self.curves.values()
            for series in curves.values()
        )
        entries = sum(
            len(entry) for grid in self.grids.values()
            for entry in grid.values()
        )
        return len(_rows(self.tables)) + points + entries

    def paper_err_pct(self) -> float:
        return paper_error_pct(_rows(self.tables))

    def check(self, outcome: Outcome, first: bool) -> None:
        from repro.bench.goldens import compare_values, load_golden

        def golden(name: str, fresh: Dict[str, float]) -> None:
            bad = dict(compare_values(load_golden(name), fresh))
            for key in fresh:
                outcome.op(key not in bad, f"{name} {key}: {bad.get(key)}")
            for key in sorted(set(bad) - set(fresh)):
                outcome.op(False, f"{name} {key}: {bad[key]}")

        for name, rows in sorted(self.tables.items()):
            if name.startswith(("table1_", "table2_", "table3_")):
                golden(name, {row.label: row.ours for row in rows})
                continue
            for row in rows:
                outcome.op(
                    _positive(row.ours), f"{name} {row.label}: {row.ours!r}"
                )
        for key, curves in sorted(self.curves.items()):
            fresh = {}
            for series, points in curves.items():
                for stride, rate in points:
                    if stride in self.golden_strides:
                        fresh[f"{series}@{stride}"] = rate
                    else:
                        outcome.op(
                            _positive(rate),
                            f"figure4 {key} {series}@{stride}: {rate!r}",
                        )
            golden(f"figure4_{key}", fresh)
        for name, grid in sorted(self.grids.items()):
            golden(name, {
                f"{pattern}/{entry}": rate
                for pattern, entries in grid.items()
                for entry, rate in entries.items()
            })
        if first:
            self._check_scalar(outcome)

    def _check_scalar(self, outcome: Outcome) -> None:
        """One seeded figure-4 point per machine against the oracle."""
        from repro.core.patterns import CONTIGUOUS, strided
        from repro.memsim.node import ENGINE_ENV

        previous = os.environ.get(ENGINE_ENV)
        os.environ[ENGINE_ENV] = "scalar"
        try:
            for key, machine in self.machines.items():
                stride = self.seeded[key][0]
                fast = dict(self.curves[key]["strided stores (1Cs)"])[stride]
                scalar = machine.node_memory().measure_copy(
                    CONTIGUOUS, strided(stride)
                )
                outcome.op(
                    math.isclose(fast, scalar, rel_tol=SCALAR_REL_TOL),
                    f"figure4 {key} 1C{stride}: fast {fast!r} != "
                    f"scalar {scalar!r}",
                )
        finally:
            if previous is None:
                del os.environ[ENGINE_ENV]
            else:
                os.environ[ENGINE_ENV] = previous


# -- collectives --------------------------------------------------------------


class Collectives:
    """The collective sweep over four machines at paper rates."""

    def __init__(self, inputs: Dict[str, Any]) -> None:
        self.nodes = tuple(inputs["nodes"])
        self.sizes = tuple(inputs["sizes"])

    def setup(self) -> None:
        from repro.sweep import collectives_spec
        from repro.sweep.worker import machine_by_key

        self.spec = dataclasses.replace(
            collectives_spec(machines=COLLECTIVE_MACHINES, nodes=self.nodes),
            sizes=self.sizes,
        )
        self.spec.validate()
        for key in COLLECTIVE_MACHINES:
            machine_by_key(key)

    def body(self) -> int:
        from repro.sweep import run_sweep

        self.result = run_sweep(self.spec, workers=1)
        return len(self.result.rows)

    def check(self, outcome: Outcome, first: bool) -> None:
        groups: Dict[Tuple[Any, ...], Dict[str, float]] = {}
        for cell, row in zip(self.result.cells, self.result.rows):
            group = (cell.machine, cell.op, cell.size, cell.nodes)
            groups.setdefault(group, {})[cell.style] = row["ns"]
        for cell, row in zip(self.result.cells, self.result.rows):
            ok = _positive(row["ns"])
            problem = f"{cell.cell_id}: ns={row['ns']!r}"
            if ok and cell.style == "auto":
                group = groups[(cell.machine, cell.op, cell.size, cell.nodes)]
                best = min(ns for style, ns in group.items() if style != "auto")
                ok = row["ns"] == best
                problem = f"{cell.cell_id}: auto {row['ns']!r} != min {best!r}"
            outcome.op(ok, problem)


# -- traffic --------------------------------------------------------------------


def _check_report(outcome: Outcome, label: str, result, payload, problems):
    """Schema, percentile order and conservation of one load report."""
    latency = payload["latency_ns"]
    found = list(problems)
    if not latency["p50"] <= latency["p99"] <= latency["p999"]:
        found.append(f"percentiles out of order: {latency}")
    overload = payload.get("overload")
    if overload is None:
        if result.offered != result.completed:
            found.append(
                f"offered {result.offered} != completed {result.completed}"
            )
    else:
        rows = list(overload["generators"].values())
        rows.append(dict(
            overload["totals"], offered=result.offered,
            completed=result.completed,
        ))
        for counts in rows:
            if counts["offered"] + counts["retried"] != (
                counts["accepted"] + counts["rejected"] + counts["broken"]
            ):
                found.append(f"admission not conserved: {counts}")
            if counts["accepted"] != (
                counts["completed"] + counts["shed"] + counts["evicted"]
            ):
                found.append(f"acceptance not conserved: {counts}")
    if result.completed < 1:
        found.append("no request completed")
    outcome.op(not found, f"{label}: {'; '.join(found)}")


class Traffic:
    """Load-engine profile runs; each engine is built during setup."""

    def __init__(self, inputs: Dict[str, Any]) -> None:
        self.inputs = inputs

    def setup(self) -> None:
        from repro.faults import FaultPlan
        from repro.load import LoadEngine, OverloadSpec, profile_by_name

        spec = self.inputs
        if "profiles" in spec:
            self.engines = [
                (name, LoadEngine(profile_by_name(name), seed=spec["seed"]))
                for name in spec["profiles"]
            ]
            return
        profile = dataclasses.replace(
            profile_by_name(spec["profile"]).scaled(spec["multiplier"]),
            overload=OverloadSpec(**spec["overload"]),
        )
        faults = FaultPlan.chaos(spec["faults_seed"])
        self.engines = [(
            f"{spec['profile']}x{spec['multiplier']:g}+protection+chaos",
            LoadEngine(profile, seed=spec["seed"], faults=faults),
        )]

    def body(self) -> int:
        from repro.load import validate_load_report

        self.reports = []
        for name, engine in self.engines:
            result = engine.run(self.inputs["horizon_ns"])
            payload = result.to_dict()
            self.reports.append(
                (name, result, payload, validate_load_report(payload))
            )
        return sum(result.offered for __, result, __, __ in self.reports)

    def check(self, outcome: Outcome, first: bool) -> None:
        for name, result, payload, problems in self.reports:
            _check_report(outcome, name, result, payload, problems)


WORKLOAD_CLASSES = {
    "regen-cold": RegenCold,
    "collectives": Collectives,
    "traffic-open": Traffic,
    "traffic-overload": Traffic,
}


# -- the pass ---------------------------------------------------------------------


class _Entry:
    __slots__ = ("key", "digest")

    def __init__(self, key: int, digest: bytes) -> None:
        self.key = key
        self.digest = digest


def reference_s() -> float:
    """CPU seconds of one fixed stdlib kernel: the host's current speed.

    The host is shared, and its speed drifts by a quarter and more over
    minutes, which moves every host time with it.  The kernel mixes
    what the simulator spends its time on (sha256 of small JSON
    documents, heap pushes and pops, dict updates, small objects) and
    uses nothing of ``repro``, so a change to the program cannot move
    it.
    """
    started = time.process_time()
    heap: List[Any] = []
    index: Dict[bytes, int] = {}
    for value in range(40_000):
        digest = hashlib.sha256(
            json.dumps([value, "x", value & 7]).encode()
        ).digest()
        heapq.heappush(heap, (digest[0], value, _Entry(value, digest)))
        index[digest[:4]] = value
        if len(heap) > 64:
            index.pop(heapq.heappop(heap)[2].digest[:4], None)
    return time.process_time() - started


def _metadata() -> Dict[str, Any]:
    import numpy

    from repro.core.batch import BATCH_VERSION
    from repro.memsim.engine import ENGINE_VERSION
    from repro.memsim.fastpath import FASTPATH_VERSION

    return {
        "engine_version": ENGINE_VERSION,
        "fastpath_version": FASTPATH_VERSION,
        "batch_version": BATCH_VERSION,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_job(job: Dict[str, Any]) -> Dict[str, Any]:
    sys.path.insert(0, str(ROOT / "src"))
    import repro  # noqa: F401  (setup covers the package import)

    workload = WORKLOAD_CLASSES[job["workload"]](job["inputs"])
    report: Dict[str, Any] = {"mode": job["mode"]}
    recorder = installation = None
    if job.get("trace"):
        import probes

        recorder = probes.Recorder()
        installation = probes.install(recorder)
        recorder.phase(probes.SETUP_PHASE, workload.setup)
    else:
        workload.setup()
    report["setup_s"] = time.monotonic() - job["t0"]
    if job["mode"] == "setup":
        return report
    if job["mode"] == "prime":
        report["paper_err_pct"] = paper_error_pct(
            _rows(accuracy_tables(_paper_machines()))
        )
        return report

    reference = [reference_s()]
    started = time.process_time()
    wall = time.perf_counter()
    if recorder is not None:
        ops = recorder.phase(probes.BODY_PHASE, workload.body)
    else:
        ops = workload.body()
    report["body_s"] = time.process_time() - started
    report["body_wall_s"] = time.perf_counter() - wall
    # Long bodies get as many kernel samples per second as short ones.
    while len(reference) < 2 or \
            sum(reference) < REFERENCE_SHARE * report["body_s"]:
        reference.append(reference_s())
    report["reference_s"] = reference
    report["ops"] = ops
    report["peak_rss_mb"] = _peak_rss_mb()
    if recorder is not None:
        probes.uninstall(installation)
        report["trace"] = recorder.summary()
        report["trace"]["dead"] = probes.dead_probes(
            job["workload"], report["trace"]
        )

    outcome = Outcome()
    workload.check(outcome, job.get("first", False))
    report["attempted"] = outcome.attempted
    report["failed"] = outcome.failed
    report["problems"] = outcome.problems[:MAX_PROBLEMS]
    if isinstance(workload, RegenCold):
        report["paper_err_pct"] = workload.paper_err_pct()
    else:
        report["paper_err_pct"] = paper_error_pct(
            _rows(accuracy_tables(_paper_machines()))
        )
    if job.get("first") and recorder is None:
        import probes

        report["probes_installed"] = probes.installed_probes()
    report["meta"] = _metadata()
    return report


def main() -> int:
    job = json.loads(sys.argv[1])
    try:
        report = run_job(job)
    except Exception:
        traceback.print_exc()
        report = {"error": traceback.format_exc(limit=8)}
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
