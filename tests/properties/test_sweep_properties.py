"""Determinism properties of the sharded sweep engine.

The sweep's reproducibility obligation is absolute: the same
:class:`~repro.sweep.SweepSpec` must merge to a **bit-identical**
canonical payload no matter how the execution was sliced — worker
count, shard size, shard submission order, batched or cold memos.
These properties drive randomly generated specs through every
execution strategy and compare SHA-256 digests of the canonical JSON.

The transfer grids here use ``rates="paper"`` so Hypothesis can afford
many examples (no simulator calibration in the loop).  The
simulated-rates path — where the fast/scalar engine choice could in
principle leak in — is covered by the slow-marked engine-parity test
at the bottom and by the speed benchmark's digest cross-check.
"""

import dataclasses

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.runtime.collectives import ALGORITHMS, COLLECTIVE_OPS
from repro.sweep import (
    NOMINAL_SEED,
    SweepSpec,
    figure7_spec,
    run_serial,
    run_sweep,
)

#: Pattern-pair pool for generated grids (paper notations).
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
    """Small random transfer grids over the paper-rate calibration."""
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
    seeds = draw(
        st.sampled_from([(), (NOMINAL_SEED, 3), (11,)])
    )
    return SweepSpec(
        machines=machines,
        pairs=pairs,
        styles=styles,
        sizes=sizes,
        seeds=seeds,
        rates="paper",
    )


@st.composite
def collective_specs(draw):
    """Small random collective grids: every op, the selector and the
    concrete algorithms, odd node counts, nominal and chaos seeds."""
    machines = draw(st.sampled_from([("t3d",), ("cluster",), ("xe",)]))
    ops = tuple(
        draw(
            st.lists(
                st.sampled_from(COLLECTIVE_OPS),
                min_size=1,
                max_size=2,
                unique=True,
            )
        )
    )
    algorithms = tuple(dict.fromkeys(
        ("auto", *(algorithm for op in ops for algorithm in ALGORITHMS[op]))
    ))
    nodes = (draw(st.integers(min_value=2, max_value=12)),)
    sizes = (draw(st.sampled_from([1024, 65536])),)
    seeds = draw(st.sampled_from([(), (NOMINAL_SEED, 7), (11,)]))
    return SweepSpec(
        kind="collective",
        machines=machines,
        ops=ops,
        algorithms=algorithms,
        sizes=sizes,
        nodes=nodes,
        seeds=seeds,
        rates="paper",
    )


class TestDeterministicMerge:
    @SLOW_SETTINGS
    @given(spec=transfer_specs(), workers=st.sampled_from([2, 4]))
    def test_worker_count_cannot_change_results(self, spec, workers):
        reference = run_sweep(spec, workers=1).digest()
        assert run_sweep(spec, workers=workers).digest() == reference

    @SLOW_SETTINGS
    @given(
        spec=transfer_specs(),
        shard_size=st.integers(min_value=1, max_value=7),
        shuffle_seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_sharding_and_order_cannot_change_results(
        self, spec, shard_size, shuffle_seed
    ):
        reference = run_sweep(spec, workers=1).digest()
        shuffled = run_sweep(
            spec,
            workers=2,
            shard_size=shard_size,
            shuffle_seed=shuffle_seed,
        )
        assert shuffled.digest() == reference

    @SLOW_SETTINGS
    @given(spec=transfer_specs(), collective=collective_specs())
    def test_batching_cannot_change_results(self, spec, collective):
        # Cold: every cell starts from empty memos, the pipeline and
        # scheduled-congestion memos included.  Warm: they persist.
        for grid in (spec, collective):
            cold = run_serial(grid, batched=False)
            warm = run_serial(grid, batched=True)
            assert cold.canonical_json() == warm.canonical_json()

    @SLOW_SETTINGS
    @given(spec=transfer_specs())
    def test_spec_serialization_cannot_change_results(self, spec):
        reloaded = SweepSpec.from_dict(spec.to_dict())
        assert (
            run_sweep(reloaded, workers=1).digest()
            == run_sweep(spec, workers=1).digest()
        )


class TestCalibrationCacheStates:
    """A simulated-rates sweep digests the same from an empty disk
    cache, from a warm one, and with the cache switched off."""

    def test_cold_warm_and_off_agree(self, tmp_path, monkeypatch):
        from repro.caching import CACHE_DIR_ENV, CACHE_ENV, default_cache
        from repro.sweep import worker as worker_module

        spec = SweepSpec(
            machines=("t3d",),
            pairs=(("1", "64"), ("w", "1")),
            sizes=(8192,),
            rates="simulated",
        )

        def digest() -> str:
            worker_module.reset_memos()
            default_cache().clear()
            return run_sweep(spec, workers=1).digest()

        monkeypatch.delenv(CACHE_ENV, raising=False)
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        cold = digest()
        stored = list((tmp_path / "tables").glob("*.json"))
        assert stored, "the cold run wrote no table"
        hits = default_cache().disk_hits
        warm = digest()
        assert default_cache().disk_hits > hits
        monkeypatch.setenv(CACHE_ENV, "off")
        off = digest()
        assert cold == warm == off


@pytest.mark.slow
class TestEngineParity:
    """Where the fastpath claims parity, sweeping under either engine
    gives numerically equal calibration rates (rel 1e-9, the fastpath
    contract — the engines reassociate float sums, so this is a
    numeric bound, not a bitwise one)."""

    def test_calibration_sweep_scalar_vs_auto(self, monkeypatch):
        from repro.caching import CACHE_ENV
        from repro.memsim.node import ENGINE_ENV
        from repro.sweep import calibration_spec

        spec = dataclasses.replace(calibration_spec("t3d"), nwords=4096)
        monkeypatch.setenv(CACHE_ENV, "off")

        monkeypatch.setenv(ENGINE_ENV, "scalar")
        scalar = run_sweep(spec, workers=1)
        monkeypatch.setenv(ENGINE_ENV, "auto")
        auto = run_sweep(spec, workers=1)

        for cell, srow, arow in zip(
            scalar.cells, scalar.rows, auto.rows
        ):
            assert srow["mbps"] == pytest.approx(
                arow["mbps"], rel=1e-9
            ), cell.cell_id


@pytest.mark.slow
class TestSimulatedRatesAcrossWorkers:
    """The full simulated-rates figure-7 grid — the exact acceptance
    surface — is bit-identical between in-process and 4-worker pooled
    execution (workers share the engine env and disk cache)."""

    def test_figure7_grid_pooled_vs_inline(self):
        spec = figure7_spec()
        assert (
            run_sweep(spec, workers=4, shard_size=2).digest()
            == run_sweep(spec, workers=1).digest()
        )
