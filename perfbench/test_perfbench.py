"""Self-tests of the benchmark (not part of the repository's test suite).

Run from the root of a checkout::

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import child  # noqa: E402
import inputs  # noqa: E402
import probes  # noqa: E402
import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SEEDS = (0, 1, 7, 12345)


def _benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_same_inputs(workload):
    for seed in SEEDS:
        assert inputs.unit_inputs(workload, seed) == \
            inputs.unit_inputs(workload, seed)


def _collective_cells(unit):
    from repro.sweep import collectives_spec

    return [
        len(dataclasses.replace(
            collectives_spec(
                machines=child.COLLECTIVE_MACHINES, nodes=tuple(grid["nodes"])
            ),
            sizes=tuple(grid["sizes"]),
        ).expand())
        for grid in unit
    ]


def test_regen_inputs_differ_in_range():
    units = [inputs.unit_inputs("regen-cold", seed) for seed in SEEDS]
    assert len({json.dumps(unit) for unit in units}) == len(SEEDS)
    low, high = inputs.STRIDE_RANGE
    for (unit,) in units:
        for strides in unit["seeded_strides"].values():
            assert len(set(strides)) == inputs.SEEDED_STRIDES
            assert all(low <= s <= high for s in strides)
            assert not set(strides) & set(inputs.GOLDEN_STRIDES)


def test_collective_inputs_differ_in_range_with_same_cells():
    units = [inputs.unit_inputs("collectives", seed) for seed in SEEDS]
    assert len({json.dumps(unit) for unit in units}) == len(SEEDS)
    for unit in units:
        assert len(unit) == 4
        for grid in unit:
            fixed, small, large = grid["nodes"]
            latency, bandwidth = grid["sizes"]
            assert fixed == inputs.FIXED_NODES
            assert inputs.SMALL_NODES[0] <= small <= inputs.SMALL_NODES[1]
            assert inputs.LARGE_NODES[0] <= large <= inputs.LARGE_NODES[1]
            for count in (small, large):
                assert count & (count - 1) != 0
            lo, hi = inputs.LATENCY_BYTES
            assert lo <= latency <= hi and latency % inputs.WORD == 0
            lo, hi = inputs.BANDWIDTH_BYTES
            assert lo <= bandwidth <= hi and bandwidth % inputs.WORD == 0
        assert _collective_cells(unit) == [216] * 4


@pytest.mark.parametrize("workload", ["traffic-open", "traffic-overload"])
def test_traffic_inputs_differ_with_same_profiles(workload):
    units = [inputs.unit_inputs(workload, seed) for seed in SEEDS]
    assert len({json.dumps(unit) for unit in units}) == len(SEEDS)
    shapes = {
        json.dumps({k: v for k, v in unit[0].items()
                    if k not in ("seed", "faults_seed")})
        for unit in units
    }
    assert len(shapes) == 1


def test_metric_names_are_well_formed_and_declared():
    declared = _benchmark_json()
    end_to_end = [metric["name"] for metric in declared["end_to_end"]]
    per_layer = [metric["name"] for metric in declared["per_layer"]]
    assert end_to_end == list(run.END_TO_END)
    assert per_layer == [name for name, __, __ in probes.per_layer_metrics()]
    units = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    assert units == run.END_TO_END
    for name in end_to_end + per_layer:
        assert NAME.fullmatch(name), name
    assert [w["name"] for w in declared["workloads"]] == list(inputs.WORKLOADS)


def test_untraced_setup_installs_no_probes(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    report = child.run_job({
        "workload": "collectives",
        "inputs": inputs.unit_inputs("collectives", 1)[0],
        "mode": "setup",
        "t0": 0.0,
    })
    assert "setup_s" in report
    assert probes.installed_probes() == 0


def test_install_reaches_names_bound_elsewhere_and_uninstalls():
    import repro.memsim.node
    import repro.memsim.streams

    recorder = probes.Recorder()
    installation = probes.install(recorder)
    try:
        assert getattr(repro.memsim.node.make_stream, probes.PROBE_MARK)
        assert getattr(repro.memsim.streams.make_stream, probes.PROBE_MARK)
        assert probes.installed_probes() > 0
    finally:
        probes.uninstall(installation)
    assert probes.installed_probes() == 0


def test_spans_fold_into_self_time_and_dead_probes_are_named():
    recorder = probes.Recorder()
    installation = probes.install(recorder)
    try:
        from repro.load.workload import uniform

        recorder.phase(probes.BODY_PHASE, lambda: [
            uniform(1, "key", index) for index in range(10)
        ])
    finally:
        probes.uninstall(installation)
    summary = recorder.summary()
    assert summary["layers"]["load.workload"]["calls"] == 10
    layered = sum(entry["self_s"] for entry in summary["layers"].values())
    total = sum(summary["phases"].values())
    assert layered + summary["unwrapped_s"] == pytest.approx(total)
    assert "load.queues" in probes.dead_probes("traffic-open", summary)
    assert "load.workload" not in probes.dead_probes("traffic-open", summary)
