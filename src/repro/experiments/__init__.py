"""The evaluation harness: one experiment generator per figure of Chapter 7.

* :mod:`~repro.experiments.harness` -- experiment results, table rendering,
  CSV export and the scale presets (``tiny`` / ``small`` / ``medium``).
* :mod:`~repro.experiments.workloads` -- the SYN and WiFi workload
  configurations shared by the figures, with per-process caching.
* :mod:`~repro.experiments.figures` -- ``figure_7_1`` … ``figure_7_9`` and
  the ablation studies; each returns an
  :class:`~repro.experiments.harness.ExperimentResult` whose rows are what
  the corresponding benchmark prints.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.experiments.harness": ["ExperimentResult", "Scale", "resolve_scale"],
        "repro.experiments.workloads": ["syn_workload", "wifi_workload"],
        "repro.experiments.figures": ["figures"],
    },
)
