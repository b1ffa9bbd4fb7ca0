"""Storage: versioned engine snapshots.

:mod:`~repro.storage.snapshot` serialises the built index (hash
coefficients, signatures, MinSigTree, dataset, and the compiled columnar
arrays) to an ``.npz``-based directory so serving processes cold-start
without re-signing -- and, on the multi-process tiers, read the compiled
arrays memory-mapped.  Those mapped bytes are the system's out-of-core
layout: the memory-size experiment (Figure 7.6,
:func:`repro.experiments.figures.figure_7_6`) replays page traces over them.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.storage.snapshot": [
            "SNAPSHOT_FORMAT_VERSION",
            "SnapshotError",
            "load_engine_snapshot",
            "save_engine_snapshot",
            "snapshot_info",
        ],
    },
)
