"""Bit-identity of the shared-memo sweep against the fresh-memo reference.

:func:`~repro.sweep.run_sweep` runs every cell through
:func:`~repro.sweep.worker.run_cell` with the worker memos shared
across cells (in-process, or per pool worker); :func:`run_serial`
starts every cell from empty memos.  Memo sharing is a pure
performance strategy: it may never change a single bit of the
canonical payload.  These properties drive random
:class:`~repro.sweep.SweepSpec` grids through both and compare
canonical JSON (hence SHA-256 digests) — including fault-seeded cells
and collective cells.

Transfer grids use ``rates="paper"`` so Hypothesis can afford several
examples; the simulated-rates surface is covered by the slow-marked
calibration test at the bottom and by the speed benchmark's digest
cross-check.
"""

import dataclasses

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.sweep import (
    NOMINAL_SEED,
    SweepSpec,
    collectives_spec,
    run_serial,
    run_sweep,
)

PAIR_POOL = (
    ("1", "1"),
    ("1", "64"),
    ("64", "1"),
    ("1", "w"),
    ("w", "1"),
    ("w", "w"),
)

SLOW_SETTINGS = settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def transfer_specs(draw):
    """Small random transfer grids over the paper-rate calibration.

    The ``seeds`` axis deliberately includes fault seeds, so seeded
    cells run under their fault plans on both sides of the comparison.
    """
    machines = draw(
        st.sampled_from([("t3d",), ("paragon",), ("t3d", "paragon")])
    )
    pairs = tuple(
        draw(
            st.lists(
                st.sampled_from(PAIR_POOL),
                min_size=1,
                max_size=3,
                unique=True,
            )
        )
    )
    styles = draw(
        st.sampled_from(
            [("buffer-packing",), ("chained",),
             ("buffer-packing", "chained")]
        )
    )
    sizes = tuple(
        draw(
            st.lists(
                st.sampled_from([4096, 8192, 65536]),
                min_size=1,
                max_size=2,
                unique=True,
            )
        )
    )
    seeds = draw(st.sampled_from([(), (NOMINAL_SEED, 3), (11,)]))
    return SweepSpec(
        machines=machines,
        pairs=pairs,
        styles=styles,
        sizes=sizes,
        seeds=seeds,
        rates="paper",
    )


class TestBatchBitIdentity:
    @SLOW_SETTINGS
    @given(spec=transfer_specs())
    def test_batch_engine_matches_serial_reference(self, spec):
        reference = run_serial(spec)
        swept = run_sweep(spec, workers=1)
        assert swept.canonical_json() == reference.canonical_json()
        assert swept.digest() == reference.digest()

    @SLOW_SETTINGS
    @given(
        spec=transfer_specs(),
        workers=st.sampled_from([2, 3]),
        shard_size=st.integers(min_value=1, max_value=7),
    )
    def test_pooled_batch_matches_serial_reference(
        self, spec, workers, shard_size
    ):
        reference = run_serial(spec)
        pooled = run_sweep(spec, workers=workers, shard_size=shard_size)
        assert pooled.canonical_json() == reference.canonical_json()

    @SLOW_SETTINGS
    @given(spec=transfer_specs())
    def test_fault_seeded_cells_match_serial(self, spec):
        seeded = dataclasses.replace(spec, seeds=(NOMINAL_SEED, 3, 11))
        reference = run_serial(seeded)
        swept = run_sweep(seeded, workers=1)
        assert swept.canonical_json() == reference.canonical_json()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_collective_grid_matches_serial(self, workers):
        spec = dataclasses.replace(
            collectives_spec(
                machines=("cluster",), nodes=(8,), seeds=(NOMINAL_SEED, 7)
            ),
            sizes=(1024,),
        )
        reference = run_serial(spec)
        swept = run_sweep(spec, workers=workers, shard_size=5)
        assert swept.canonical_json() == reference.canonical_json()


@pytest.mark.slow
class TestSimulatedRatesParity:
    """The simulated-rates surfaces — where a calibration table built
    once and shared across cells is in play — stay bit-identical."""

    def test_calibration_grid_batch_vs_serial(self, monkeypatch):
        from repro.caching import CACHE_ENV
        from repro.sweep import calibration_spec

        monkeypatch.setenv(CACHE_ENV, "off")
        spec = dataclasses.replace(calibration_spec("t3d"), nwords=4096)
        reference = run_serial(spec)
        batched = run_sweep(spec, workers=1)
        assert batched.canonical_json() == reference.canonical_json()

    def test_figure7_grid_batch_vs_serial(self):
        from repro.sweep import figure7_spec

        spec = figure7_spec()
        assert (
            run_sweep(spec, workers=1).digest()
            == run_serial(spec).digest()
        )
