"""Host-time benchmark of the ``repro`` simulator, end to end and by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload regen-cold --seed 1 --seconds 20 --trace 0

Every pass runs in a fresh interpreter (``perfbench/child.py``) that
imports ``repro`` from ``src/`` and calls its public API; passes repeat
until ``--seconds`` is spent.  ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer metrics of a traced pass next to
an untraced one.  The last stdout line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it print every metric by name with its unit.  The
end-to-end host times are scaled to a reference host by a fixed kernel
each pass times next to its body (``child.reference_s``).  A full
record, with per-pass samples and the traced span edges, is written to
``perfbench/.work/results/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import probes  # noqa: E402

#: Scratch space inside the checkout: caches, per-pass cold caches,
#: result records.
WORK = HERE / ".work"

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "paper_err_pct": "%",
}

#: CPU seconds ``child.reference_s`` takes on the reference host (a
#: shared 2-core x86-64 Linux host, Python 3.11): ``setup_s`` and
#: ``ops_per_s`` are reported as if the run had been on that host.
REFERENCE_HOST_S = 0.25

#: ``setup_s`` is the median of at least this many fresh-interpreter
#: setups per untraced run.
SETUP_SAMPLES = 7

#: Environment the child must not inherit: the engine stays ``auto``
#: and the cache on, whatever the caller's shell says.
_CLEARED_ENV = ("REPRO_CACHE", "REPRO_MEMSIM_ENGINE", "REPRO_CACHE_DIR")

#: A child that takes longer than this is killed and the run fails.
CHILD_TIMEOUT_S = 150.0


class BenchError(Exception):
    """The benchmark itself could not run (not a program failure)."""


def spawn(job: Dict[str, Any], cache_dir: Path) -> Dict[str, Any]:
    """Run one child job in a fresh interpreter; return its report."""
    env = {k: v for k, v in os.environ.items() if k not in _CLEARED_ENV}
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    job = dict(job, t0=time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(job)],
            cwd=str(ROOT), env=env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(
            f"{job['workload']} {job['mode']} pass exceeded "
            f"{CHILD_TIMEOUT_S:.0f} s"
        )
    lines = proc.stdout.strip().splitlines()
    report = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    if report is None or "error" in report:
        detail = report["error"] if report else proc.stderr[-2000:]
        raise BenchError(
            f"{job['workload']} {job['mode']} pass failed:\n{detail}"
        )
    return report


class Run:
    """One benchmark run: prime, passes within the budget, setups."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload = workload
        self.seconds = seconds
        self.trace = trace
        self.unit = inputs.unit_inputs(workload, seed)
        self.passes: List[Dict[str, Any]] = []
        self.setups: List[float] = []
        self.cold_dirs: List[Path] = []

    def cache_dir(self) -> Path:
        """The warm cache, or a fresh empty one per regen-cold child."""
        if self.workload in inputs.WARM_WORKLOADS:
            return WORK / "cache"
        cold = WORK / f"cold-{os.getpid()}-{len(self.cold_dirs)}"
        shutil.rmtree(cold, ignore_errors=True)
        self.cold_dirs.append(cold)
        return cold

    def job(self, mode: str, unit_inputs: Dict[str, Any], **extra):
        return dict(
            workload=self.workload, inputs=unit_inputs, mode=mode, **extra
        )

    def execute(self) -> None:
        try:
            # Fills the warm cache and the bytecode caches; not measured.
            warm = self.workload in inputs.WARM_WORKLOADS
            spawn(
                self.job("prime" if warm else "setup", self.unit[0]),
                self.cache_dir(),
            )
            if self.trace:
                jobs = [
                    self.job("pass", self.unit[0], trace=False),
                    self.job("pass", self.unit[0], trace=True),
                ]
            else:
                jobs = [self.job("pass", unit) for unit in self.unit]
            deadline = time.monotonic() + self.seconds
            units = 0
            while True:
                started = time.monotonic()
                for job in jobs:
                    report = spawn(
                        dict(job, first=not self.passes), self.cache_dir()
                    )
                    report["traced"] = job.get("trace", False)
                    report["unit"] = units
                    self.passes.append(report)
                    if not report["traced"]:
                        self.setups.append(report["setup_s"])
                units += 1
                elapsed = time.monotonic() - started
                if time.monotonic() + elapsed > deadline:
                    break
            while not self.trace and len(self.setups) < SETUP_SAMPLES:
                report = spawn(
                    self.job("setup", self.unit[0]), self.cache_dir()
                )
                self.setups.append(report["setup_s"])
        finally:
            for cold in self.cold_dirs:
                shutil.rmtree(cold, ignore_errors=True)

    # -- aggregation ------------------------------------------------------------

    def untraced(self) -> List[Dict[str, Any]]:
        return [report for report in self.passes if not report["traced"]]

    def problems(self) -> List[str]:
        found = []
        for report in self.passes:
            found.extend(report["problems"])
        errors = {round(r["paper_err_pct"], 12) for r in self.passes}
        if len(errors) != 1:
            found.append(f"paper_err_pct differs between passes: {errors}")
        installed = [
            r["probes_installed"] for r in self.passes
            if "probes_installed" in r
        ]
        if any(installed):
            found.append(f"untraced pass ran with {installed} probes installed")
        return found

    def ops_per_s(self) -> float:
        """Median over units of the unit's operations per body CPU second.

        A unit is one pass, except on collectives: there the four grids
        of a unit only add up to a seed-independent amount of work
        together.  The host's speed changes from one second to the
        next; the median drops the odd unit it slowed down or sped up.
        """
        units: Dict[int, List[Dict[str, Any]]] = {}
        for report in self.untraced():
            units.setdefault(report["unit"], []).append(report)
        return statistics.median(
            sum(r["ops"] for r in unit) / sum(r["body_s"] for r in unit)
            for unit in units.values()
        )

    def reference_s(self) -> float:
        """Mean time of the reference kernel, timed around every body.

        The host's speed switches between a fast and a slow level many
        times a second, and how long it stays on each drifts over
        minutes.  The mean follows that share; a median of so few
        samples would jump between the two levels.
        """
        return statistics.mean(
            sample for report in self.untraced()
            for sample in report["reference_s"]
        )

    def host_speed(self) -> float:
        """How much faster than the reference host this run's host ran.

        A host time times this factor is the time on the reference
        host.  Pure Python slows down with the host as much as the
        kernel does; numpy-bound work about half as much.
        """
        return REFERENCE_HOST_S / self.reference_s()

    def end_to_end(self) -> Dict[str, float]:
        plain = self.untraced()
        speed = self.host_speed()
        return {
            "setup_s": statistics.median(self.setups) * speed,
            "ops_per_s": self.ops_per_s() / speed,
            "peak_rss_mb": max(r["peak_rss_mb"] for r in plain),
            "paper_err_pct": plain[0]["paper_err_pct"],
        }

    def per_layer(self) -> Dict[str, float]:
        traced = [r for r in self.passes if r["traced"]]
        summaries = [r["trace"] for r in traced]
        values: Dict[str, float] = {}
        for name in probes.LAYER_NAMES:
            # Counts and ratios repeat exactly from pass to pass; only
            # the self time needs a median.
            for key, value in summaries[0]["layers"][name].items():
                values[f"{name}.{key}"] = value
            values[f"{name}.self_s"] = statistics.median(
                summary["layers"][name]["self_s"] for summary in summaries
            )
        traced_s = [sum(s["phases"].values()) for s in summaries]
        values["bench.traced_s"] = statistics.median(traced_s)
        values["bench.unwrapped_s"] = statistics.median(
            s["unwrapped_s"] for s in summaries
        )
        plain_body = statistics.median(r["body_s"] for r in self.untraced())
        traced_body = statistics.median(r["body_s"] for r in traced)
        values["bench.trace_overhead_pct"] = (
            traced_body / plain_body - 1.0
        ) * 100.0
        return values

    def accounting_problems(self) -> List[str]:
        """Self times plus the unwrapped remainder must cover traced time."""
        found = []
        for report in self.passes:
            if not report["traced"]:
                continue
            summary = report["trace"]
            total = sum(summary["phases"].values())
            layered = sum(e["self_s"] for e in summary["layers"].values())
            gap = total - layered - summary["unwrapped_s"]
            if abs(gap) > 1e-6 * max(total, 1.0) or summary["unwrapped_s"] < 0:
                found.append(
                    f"trace accounting off by {gap:.3g} s of {total:.3g} s"
                )
        return found


def _format(value: float) -> str:
    return f"{value:.6g}"


def workload_figures(run: Run) -> Dict[str, Any]:
    """The figures each workload is about, in unscaled host time."""
    attempted = sum(r["attempted"] for r in run.passes)
    failed = sum(r["failed"] for r in run.passes)
    figures: Dict[str, Any] = {
        "fail_ratio": (failed / attempted, "ratio"),
        "setup_host_s": (statistics.median(run.setups), "s"),
        "reference_s": (run.reference_s(), "s"),
    }
    if run.workload == "regen-cold":
        figures["regen_s"] = (
            statistics.median(r["body_s"] for r in run.untraced()), "s"
        )
    elif run.workload == "collectives":
        figures["cells_per_s"] = (run.ops_per_s(), "1/s")
    else:
        figures["requests_per_s"] = (run.ops_per_s(), "1/s")
    return figures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program to measure ({ROOT / 'src' / 'repro'} "
            "is missing); run from the root of a repro checkout",
            file=sys.stderr,
        )
        return 2
    WORK.mkdir(parents=True, exist_ok=True)

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        run.execute()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in run.passes)
    failed = sum(r["failed"] for r in run.passes)
    problems = run.problems()
    meta = dict(
        run.passes[0]["meta"],
        nproc=os.cpu_count(),
        reference_s=run.reference_s(),
        platform=platform.platform(),
    )
    record: Dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": run.unit,
        "meta": meta,
        "setups_s": run.setups,
        "passes": run.passes,
    }
    print(
        f"perfbench {args.workload} seed={args.seed} "
        f"passes={len(run.passes)} setups={len(run.setups)} "
        + " ".join(f"{key}={value}" for key, value in meta.items())
    )
    if args.trace:
        dead = sorted({name for r in run.passes if r["traced"]
                       for name in r["trace"]["dead"]})
        if dead:
            print(
                f"perfbench: expected probes recorded no call on "
                f"{args.workload}: {', '.join(dead)}",
                file=sys.stderr,
            )
            return 1
        problems.extend(run.accounting_problems())
        values = run.per_layer()
        units = {name: unit for name, unit, __ in probes.per_layer_metrics()}
    else:
        values = run.end_to_end()
        units = dict(END_TO_END)
        for name, (value, unit) in workload_figures(run).items():
            print(f"  {name:34} {_format(value):>14} {unit}")
    for name, value in values.items():
        print(f"  {name:34} {_format(value):>14} {units[name]}")
    for problem in problems:
        print(f"  problem: {problem}")
    record["metrics"] = values
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json") \
        .write_text(json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in values.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
