"""Dynamic updates over a static counting index (§8).

Two layers, smaller first:

* :class:`~repro.dynamic.incremental.DynamicSPCIndex` — the overlay
  facade: exact answers under pending insertions *and* deletions.
* :class:`~repro.dynamic.maintenance.MaintenanceController` — rebuild
  behind: supervised background worker rebuilds, atomic publish, a
  versioned journal and a bounded-staleness SLO.

``tests/integration/test_tier_state_machine.py`` checks both, with the
serving tiers on their published files, against BFS under churn;
``perfbench``'s ``churn`` workload measures them.
"""

from repro.dynamic.incremental import DynamicSPCIndex
from repro.dynamic.maintenance import MaintenanceController, MaintenanceSLO

__all__ = [
    "DynamicSPCIndex",
    "MaintenanceController",
    "MaintenanceSLO",
]
