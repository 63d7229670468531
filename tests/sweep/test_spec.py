"""SweepSpec / SweepCell: validation, expansion, serialization."""

import dataclasses

import pytest

from repro.sweep import (
    GRID_BYTES,
    GRID_PAIRS,
    NOMINAL_SEED,
    SweepCell,
    SweepError,
    SweepSpec,
    calibration_spec,
    figure7_spec,
    figure8_spec,
)


class TestValidation:
    def test_default_spec_is_valid(self):
        SweepSpec().validate()

    def test_unknown_machine_rejected(self):
        with pytest.raises(SweepError, match=r"machines\[0\]: expected one of"):
            SweepSpec(machines=("t3e",))

    def test_unknown_kind_rejected(self):
        with pytest.raises(SweepError, match="kind: expected one of"):
            SweepSpec(kind="transmogrify")

    def test_unknown_style_rejected(self):
        with pytest.raises(SweepError, match=r"styles\[0\]: expected one of"):
            SweepSpec(styles=("zero-copy",))

    def test_unknown_rates_rejected(self):
        with pytest.raises(SweepError, match="rates: expected one of"):
            SweepSpec(rates="measured")

    def test_bad_duplex_rejected(self):
        with pytest.raises(SweepError, match="duplex"):
            SweepSpec(duplex="half")

    def test_nonpositive_size_rejected(self):
        with pytest.raises(SweepError, match=r"sizes\[0\]: is below 1"):
            SweepSpec(sizes=(0,))

    def test_empty_machines_rejected(self):
        with pytest.raises(SweepError, match="machines: is empty"):
            SweepSpec(machines=())

    def test_calibrate_needs_positive_nwords(self):
        with pytest.raises(SweepError, match="nwords"):
            SweepSpec(kind="calibrate", nwords=0)


class TestExpansion:
    def test_axes_multiply(self):
        spec = SweepSpec(
            machines=("t3d", "paragon"),
            x=("1", "64"),
            y=("1", "w"),
            styles=("chained",),
            sizes=(1024, 2048),
            seeds=(NOMINAL_SEED, 3),
        )
        assert len(spec.expand()) == 2 * 2 * 2 * 1 * 2 * 2

    def test_pairs_override_cross_product(self):
        spec = SweepSpec(pairs=(("1", "64"),), x=("1", "w"), y=("1", "w"))
        cells = spec.expand()
        assert {(c.x, c.y) for c in cells} == {("1", "64")}

    def test_canonical_order_is_machine_major(self):
        spec = SweepSpec(
            machines=("t3d", "paragon"), pairs=(("1", "1"), ("1", "64"))
        )
        machines = [cell.machine for cell in spec.expand()]
        assert machines == sorted(machines, key=("t3d", "paragon").index)

    def test_no_seeds_means_nominal(self):
        for cell in SweepSpec().expand():
            assert cell.seed == NOMINAL_SEED

    def test_figure7_preset_matches_paper_grid(self):
        cells = figure7_spec().expand()
        assert len(cells) == len(GRID_PAIRS) * 2
        assert {cell.machine for cell in cells} == {"t3d"}
        assert all(cell.size == GRID_BYTES for cell in cells)
        assert [(c.x, c.y) for c in cells[::2]] == list(GRID_PAIRS)

    def test_figure8_preset_is_paragon(self):
        assert {c.machine for c in figure8_spec().expand()} == {"paragon"}

    def test_calibration_expansion_matches_measure_grid(self):
        from repro.machines import t3d
        from repro.machines.measure import calibration_entries

        spec = calibration_spec("t3d", nwords=2048)
        cells = spec.expand()
        entries = calibration_entries(t3d())
        assert len(cells) == len(entries)
        assert [(c.style, c.x, c.y) for c in cells] == [
            (letter, str(read), str(write))
            for letter, read, write in entries
        ]
        assert all(cell.kind == "calibrate" for cell in cells)

    def test_expand_validates(self):
        with pytest.raises(SweepError):
            SweepSpec(machines=("nope",)).expand()


class TestSerialization:
    def test_spec_round_trips(self):
        spec = SweepSpec(
            machines=("paragon",),
            pairs=(("1", "64"), ("w", "1")),
            sizes=(4096,),
            seeds=(1, 2),
            rates="paper",
        )
        assert SweepSpec.from_dict(spec.to_dict()) == spec

    def test_cell_round_trips(self):
        cell = figure7_spec().expand()[3]
        assert SweepCell.from_dict(cell.to_dict()) == cell

    def test_unknown_field_rejected(self):
        payload = SweepSpec().to_dict()
        payload["shards"] = 4
        with pytest.raises(SweepError, match="unknown fields"):
            SweepSpec.from_dict(payload)

    @pytest.mark.parametrize("payload, match", [
        ([], "expected object"),
        ({"sizes": ["a"]}, r"sizes\[0\]: expected integer"),
        ({"sizes": [1.5]}, r"sizes\[0\]: expected integer"),
        ({"machines": "t3d"}, "machines: expected array"),
        ({"pairs": [["1", "64", "w"]]}, "exactly 2 items"),
        ({"seeds": [3, 3], "sizes": [4096, 4096]},
         r"sizes: has duplicate items \[4096\]; "
         r"sweep spec.seeds: has duplicate items \[3\]"),
        ({"kind": "collective", "ops": ["alltoall"], "nodes": [4, 8, 4]},
         r"nodes: has duplicate items \[4\]"),
        ({"seeds": [-2]}, r"seeds\[0\]: is below -1"),
    ])
    def test_malformed_payload_rejected(self, payload, match):
        with pytest.raises(SweepError, match=match):
            SweepSpec.from_dict(payload)

    def test_from_dict_validates(self):
        payload = SweepSpec().to_dict()
        payload["machines"] = ["t3e"]
        with pytest.raises(SweepError, match=r"machines\[0\]: expected one of"):
            SweepSpec.from_dict(payload)

    def test_json_round_trip_preserves_expansion(self):
        import json

        spec = figure7_spec()
        reloaded = SweepSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert reloaded.expand() == spec.expand()


class TestCellIds:
    def test_transfer_cell_id(self):
        cell = SweepCell(
            kind="transfer", machine="t3d", x="1", y="64",
            style="chained", size=131072,
        )
        assert cell.cell_id == "t3d:1Q64:chained:131072"

    def test_seeded_cell_id_names_seed(self):
        cell = SweepCell(
            kind="transfer", machine="t3d", x="1", y="64",
            style="chained", size=131072, seed=42,
        )
        assert cell.cell_id.endswith(":seed42")

    def test_calibrate_cell_id_uses_table_notation(self):
        cell = SweepCell(
            kind="calibrate", machine="t3d", x="1", y="64",
            style="C", size=32768,
        )
        assert cell.cell_id == "t3d:cal:1C64@32768w"

    def test_cell_ids_unique_within_grid(self):
        spec = dataclasses.replace(figure7_spec(), seeds=(NOMINAL_SEED, 5))
        ids = [cell.cell_id for cell in spec.expand()]
        assert len(ids) == len(set(ids))
