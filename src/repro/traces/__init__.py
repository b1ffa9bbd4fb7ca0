"""Digital-trace data model: spatial hierarchy, presence instances, datasets.

This subpackage implements the substrate defined in Chapter 3 of the paper:

* :class:`~repro.traces.spatial.SpatialHierarchy` -- the *sp-index*, a tree of
  spatial units from the coarsest level 1 down to the base spatial units at
  level ``m``.
* :class:`~repro.traces.events.PresenceInstance` -- a single
  ``<entity, location, period>`` record.
* :class:`~repro.traces.events.STCell` / :class:`~repro.traces.events.CellSequence`
  -- the ST-cell set sequence representation of Section 4.1.
* :class:`~repro.traces.dataset.TraceDataset` -- a collection of digital
  traces organised by entity, with cached ST-cell set sequences.
* :mod:`~repro.traces.adjoint` -- adjoint presence instance (AjPI)
  enumeration between entity pairs.
* :mod:`~repro.traces.io` -- plain-text loaders and writers for trace files.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.traces.adjoint": [
            "AdjointPresenceInstance",
            "adjoint_durations_by_level",
            "adjoint_instances",
            "entities_with_ajpi",
        ],
        "repro.traces.dataset": ["TraceDataset"],
        "repro.traces.events": ["CellSequence", "PresenceInstance", "STCell"],
        "repro.traces.io": [
            "load_traces_csv",
            "load_traces_jsonl",
            "write_traces_csv",
            "write_traces_jsonl",
        ],
        "repro.traces.spatial": ["SpatialHierarchy", "SpatialUnit"],
    },
)
