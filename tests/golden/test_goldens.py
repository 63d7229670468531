"""Golden-value regression tests.

Every committed golden under ``tests/golden/data/`` is regenerated
from the live library and compared cell by cell.  A failure means our
own numbers moved — see :mod:`repro.bench.goldens` for when that is
fine (intentional change: regenerate and commit) and when it is a bug
(everything else).
"""

import os

import pytest

from repro.bench import figure7, figure8
from repro.bench.goldens import (
    GOLDEN_JSON_TARGETS,
    GOLDEN_SCHEMA,
    GOLDEN_TARGETS,
    compare_values,
    golden_dir,
    golden_path,
    json_diff,
    load_golden,
    load_json_golden,
    render_mismatches,
)

ALL_TARGETS = sorted(GOLDEN_TARGETS)
ALL_JSON_TARGETS = sorted(GOLDEN_JSON_TARGETS)


def test_every_target_has_a_committed_golden():
    missing = [
        name
        for name in ALL_TARGETS + ALL_JSON_TARGETS
        if not os.path.exists(golden_path(name))
    ]
    assert not missing, (
        f"no committed golden for {missing}; run "
        "`PYTHONPATH=src python scripts/regen_goldens.py` and commit "
        "tests/golden/data/"
    )


def test_no_orphan_golden_files():
    committed = {
        os.path.splitext(entry)[0]
        for entry in os.listdir(golden_dir())
        if entry.endswith(".json")
    }
    orphans = sorted(committed - set(ALL_TARGETS) - set(ALL_JSON_TARGETS))
    assert not orphans, (
        f"golden files {orphans} have no generator in "
        "repro.bench.goldens.GOLDEN_TARGETS or GOLDEN_JSON_TARGETS"
    )


def test_registries_do_not_collide():
    assert not set(GOLDEN_TARGETS) & set(GOLDEN_JSON_TARGETS)


@pytest.mark.parametrize("name", ALL_TARGETS)
def test_golden_values_unchanged(name):
    golden = load_golden(name)
    assert golden["schema"] == GOLDEN_SCHEMA
    assert golden["name"] == name
    assert golden["values"], f"golden {name!r} is empty"
    fresh = GOLDEN_TARGETS[name]()
    problems = compare_values(golden, fresh)
    assert not problems, render_mismatches(name, problems)


@pytest.mark.parametrize("figure", [figure7, figure8])
def test_swept_figure_grid_matches_the_direct_loop(figure):
    # engine="batch" runs the pinned grid through run_sweep; the
    # mapping, key order included, must equal the direct loop's.
    direct = figure()
    swept = figure(engine="batch")
    assert list(swept) == list(direct)
    assert swept == direct


def test_unknown_figure_engine_rejected():
    with pytest.raises(ValueError, match="unknown engine"):
        figure7(engine="turbo")


@pytest.mark.parametrize("name", ALL_JSON_TARGETS)
def test_json_golden_payload_unchanged(name):
    golden = load_json_golden(name)
    assert golden["schema"] == "repro-verify-report/1"
    fresh = GOLDEN_JSON_TARGETS[name]()
    problems = json_diff(golden, fresh)
    assert not problems, (
        f"golden {name!r} drifted (regenerate with scripts/regen_goldens.py "
        f"if intentional):\n" + "\n".join(problems)
    )


def test_json_diff_reports_shape_and_value_changes():
    expected = {"a": [1, 2.5], "b": {"c": "x"}, "ok": True}
    assert json_diff(expected, {"a": [1, 2.5], "b": {"c": "x"}, "ok": True}) == []
    problems = json_diff(expected, {"a": [1], "b": {"c": "y", "d": 0}, "ok": 1})
    text = "\n".join(problems)
    assert "$.a: length 1" in text
    assert "$.b.c" in text and "expected 'x'" in text
    assert "$.b.d: unexpected" in text
    assert "$.ok" in text  # bool vs int is a type change


def test_compare_reports_drift_missing_and_unexpected():
    golden = {
        "schema": GOLDEN_SCHEMA,
        "name": "synthetic",
        "rel_tol": 1e-6,
        "tolerances": {"loose": 0.5},
        "values": {"stable": 100.0, "drifted": 50.0, "gone": 1.0,
                   "loose": 10.0},
    }
    fresh = {"stable": 100.0, "drifted": 51.0, "new": 2.0, "loose": 12.0}
    problems = dict(compare_values(golden, fresh))
    assert "gone" in problems and "missing" in problems["gone"]
    assert "new" in problems and "unexpected" in problems["new"]
    assert "drifted" in problems and "+2.0000%" in problems["drifted"]
    # per-cell tolerance override: 20% drift inside a 0.5 rel_tol is fine
    assert "loose" not in problems
    assert "stable" not in problems
    report = render_mismatches("synthetic", compare_values(golden, fresh))
    assert "regen_goldens.py" in report and "drifted" in report
