"""Mobility models and synthetic trace generators (Chapter 6 substrate).

* :mod:`~repro.mobility.im_model` -- the single-level individual mobility
  (IM) model of Song et al. (Equations 6.1–6.6): power-law waiting times,
  exploration vs. preferential return, power-law jump displacements.
* :mod:`~repro.mobility.hierarchy_gen` -- the power-law sp-index generator of
  Section 6.2 (Equations 6.7 and 6.8): level widths ``W_l = Q * l^a`` and
  relative node sizes ``D^i_l ∝ i^b`` over a square grid of base units.
* :mod:`~repro.mobility.hierarchical` -- the hierarchical IM model: grid +
  sp-index + per-entity IM walkers, producing a
  :class:`~repro.traces.dataset.TraceDataset` (the paper's SYN dataset).
* :mod:`~repro.mobility.wifi` -- the WiFi-handshake workload generator that
  substitutes for the proprietary REAL dataset (see DESIGN.md).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.mobility.hierarchical": [
            "HierarchicalMobilityConfig",
            "generate_synthetic_dataset",
        ],
        "repro.mobility.hierarchy_gen": ["GridHierarchyBuilder"],
        "repro.mobility.im_model": ["Grid", "IMModelParams", "IndividualMobilityModel"],
        "repro.mobility.wifi": ["WiFiConfig", "generate_wifi_dataset"],
    },
)
