"""End-to-end scenario harness: declarative workloads, replay, scoring.

The scenario harness turns the repository's correctness story into a
single gate: a **scenario** (:class:`~repro.scenarios.spec.ScenarioSpec`)
declares a dataset generator, a churn stream, a query workload, and the
engine knobs; the **runner** (:func:`run_scenarios`) replays it against
any deployment shape -- the in-process engine, the sharded service, or a
live HTTP daemon with query worker processes -- and scores every answer
against a brute-force oracle computed independently of the engine
machinery.  The bundled corpus (:data:`SCENARIOS`) mixes workloads ported
from the paper's applications with hostile ones engineered at the
design's weak points; all of them must score 100% exact top-k agreement.

``repro scenario list|run|report`` is the CLI surface; reports are JSON
documents checked by :func:`validate_report` and renderable to HTML with
:func:`render_html`.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.scenarios.backends": [
            "BACKENDS",
            "DEFAULT_BACKENDS",
            "ScenarioBackend",
            "make_backend",
        ],
        "repro.scenarios.corpus": [
            "SCENARIOS",
            "get_scenario",
            "iter_scenarios",
            "scenario_names",
        ],
        "repro.scenarios.generators": [
            "CHURN_GENERATORS",
            "DATASET_GENERATORS",
            "build_churn_events",
            "build_dataset",
        ],
        "repro.scenarios.report": ["REPORT_VERSION", "render_html", "validate_report"],
        "repro.scenarios.runner": ["GroundTruth", "run_scenario", "run_scenarios"],
        "repro.scenarios.spec": [
            "ChurnProfile",
            "DatasetProfile",
            "EngineProfile",
            "QueryWorkload",
            "ScenarioSpec",
        ],
    },
)
