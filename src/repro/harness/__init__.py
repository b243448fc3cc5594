"""The Graphalytics test harness (paper §2.3–§2.5, Figure 1).

Processes the benchmark description and configuration, orchestrates
drivers, validates outputs against the reference implementations,
computes the benchmark metrics, and stores results.
"""

from repro.facade import lazy_exports

__all__ = [
    "graph_scale",
    "scale_class",
    "SCALE_CLASSES",
    "class_order",
    "Dataset",
    "DATASETS",
    "get_dataset",
    "dataset_ids",
    "datasets_up_to_class",
    "edges_per_second",
    "edges_and_vertices_per_second",
    "speedup",
    "coefficient_of_variation",
    "SLA_MAKESPAN_SECONDS",
    "sla_compliant",
    "BenchmarkConfig",
    "ResultsDatabase",
    "BenchmarkResult",
    "BenchmarkRunner",
    "SURVEY_UNWEIGHTED",
    "SURVEY_WEIGHTED",
    "survey_table",
    "two_stage_selection",
    "EXPERIMENTS",
    "Experiment",
    "get_experiment",
    "RenewalProcess",
    "render_report",
    "save_report",
    "summarize",
    "materialize_archive",
    "archive_manifest",
    "FullRunResult",
    "run_full_benchmark",
    "render_dataset_variety",
    "render_scaling",
    "summarize_measurements",
    "speedup_matrix",
    "compare_platforms",
]

__getattr__, __dir__ = lazy_exports(__name__, __all__, {
    "repro.harness.scale": (
        "graph_scale", "scale_class", "SCALE_CLASSES", "class_order",
    ),
    "repro.harness.datasets": (
        "Dataset", "DATASETS", "get_dataset", "dataset_ids",
        "datasets_up_to_class",
    ),
    "repro.harness.metrics": (
        "edges_per_second", "edges_and_vertices_per_second", "speedup",
        "coefficient_of_variation",
    ),
    "repro.harness.sla": ("SLA_MAKESPAN_SECONDS", "sla_compliant"),
    "repro.harness.config": ("BenchmarkConfig",),
    "repro.harness.results": ("ResultsDatabase", "BenchmarkResult"),
    "repro.harness.runner": ("BenchmarkRunner",),
    "repro.harness.survey": (
        "SURVEY_UNWEIGHTED", "SURVEY_WEIGHTED", "survey_table",
        "two_stage_selection",
    ),
    "repro.harness.experiments": (
        "EXPERIMENTS", "Experiment", "get_experiment",
    ),
    "repro.harness.renewal": ("RenewalProcess",),
    "repro.harness.report": ("render_report", "save_report", "summarize"),
    "repro.harness.archive": ("materialize_archive", "archive_manifest"),
    "repro.harness.full_run": ("FullRunResult", "run_full_benchmark"),
    "repro.harness.figures": ("render_dataset_variety", "render_scaling"),
    "repro.harness.analysis": (
        "summarize_measurements", "speedup_matrix", "compare_platforms",
    ),
})
