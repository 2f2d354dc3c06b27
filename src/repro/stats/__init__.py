"""Selectivity estimation over the StorageBackend statistics surface.

The raw count collector (``DocumentStatistics``) is physical-layer code
and lives in :mod:`repro.backend.stats`; modules under ``stats/`` execute
exclusively through the :class:`~repro.backend.base.StorageBackend` seam.
"""

from repro.stats.selectivity import SelectivityEstimator

__all__ = ["SelectivityEstimator"]
