"""The batch-version component of the calibration cache key.

Sweeps once ran through a vectorized copy of the model fold and the
stage pipeline; every cell now runs through
:func:`repro.sweep.worker.run_cell`.  :data:`BATCH_VERSION` stays in
:func:`repro.machines.measure.measurement_cache_key` at its last
value, so existing disk caches stay valid.
"""

__all__ = ["BATCH_VERSION"]

BATCH_VERSION = "1"
