"""Array-native construction kernels over the :meth:`Graph.csr` view.

Level-synchronous numpy BFS sweeps (:mod:`repro.kernels.bfs`) and the
vectorized, rank-batched hub-push construction
(:mod:`repro.kernels.hub_push`) that builds
:class:`~repro.core.flat_labels.FlatLabels` directly. Selected via
``engine="csr"`` on :meth:`repro.core.index.SPCIndex.build`, the
``repro-spc build`` default, and the rebuild engine of
:class:`repro.dynamic.maintenance.MaintenanceController`;
:func:`repro.core.hp_spc.build_labels` is the python reference engine.
"""

from repro.kernels.bfs import (
    bfs_count_csr,
    bfs_distances_csr,
    count_guard_threshold,
    expand_ranges,
)
from repro.kernels.hub_push import build_flat_labels_csr

__all__ = [
    "bfs_count_csr",
    "bfs_distances_csr",
    "build_flat_labels_csr",
    "count_guard_threshold",
    "expand_ranges",
]
