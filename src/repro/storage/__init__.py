"""Storage: versioned engine snapshots.

:mod:`~repro.storage.snapshot` serialises the built index (hash
coefficients, signatures, MinSigTree, dataset, and the compiled columnar
arrays) to an ``.npz``-based directory so serving processes cold-start
without re-signing -- and, on the multi-process tiers, read the compiled
arrays memory-mapped.  Those mapped bytes are the system's out-of-core
layout: the memory-size experiment (Figure 7.6,
:func:`repro.experiments.figures.figure_7_6`) replays page traces over them.
"""

from repro.storage.snapshot import (
    SNAPSHOT_FORMAT_VERSION,
    SnapshotError,
    load_engine_snapshot,
    save_engine_snapshot,
    snapshot_info,
)

__all__ = [
    "SNAPSHOT_FORMAT_VERSION",
    "SnapshotError",
    "load_engine_snapshot",
    "save_engine_snapshot",
    "snapshot_info",
]
