"""Chip-multiprocessor shared-LLC scenarios.

The subsystem has four pieces:

* :mod:`repro.cmp.config` — the ``CmpConfig`` axis
  (cores / contention / compression) carried by ``SystemConfig``.
* :mod:`repro.cmp.contention` — per-bank queueing on the shared LLC.
* :mod:`repro.cmp.engine` — the multi-core accounting the driver's
  one run function takes for ``cores > 1`` (the shared-LLC occupancy
  census), a config's interleaved trace for inline use, and the
  fairness index.  Imported lazily by the driver; import it
  explicitly — it pulls in ``repro.sim`` and must not load with this
  package.
* :mod:`repro.cmp.scenarios` — config factories and fairness metrics
  for experiments (imports ``repro.sim``; also import explicitly).

This ``__init__`` stays free of ``repro.sim`` imports because
``repro.sim.config`` imports :mod:`repro.cmp.config` (and hence this
package) at module load.
"""

from repro.cmp.config import CmpConfig, CompressionConfig, ContentionConfig
from repro.cmp.contention import ContendedLLC

__all__ = [
    "CmpConfig",
    "CompressionConfig",
    "ContentionConfig",
    "ContendedLLC",
]
