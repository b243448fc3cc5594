"""Granula: fine-grained performance evaluation (paper §2.5.2).

Three modules mirror the three Granula components:

* **modeler** — experts define, once per platform, a hierarchy of
  execution phases (e.g. *graph loading* contains *reading* and
  *partitioning*) plus derivation rules, so evaluation is automated;
* **archiver** — applies a performance model to the spans a job
  recorded and produces a *performance archive*: complete (all observed
  and derived results included), descriptive (results described to
  non-experts), and examinable (every result carries a traceable
  source);
* **visualizer** — renders an archive for humans (text tree / HTML).
"""

from repro.facade import lazy_exports

__all__ = [
    "PhaseSpec",
    "ChildRule",
    "PlatformPerformanceModel",
    "DEFAULT_MODEL",
    "model_for_platform",
    "PhaseRecord",
    "PerformanceArchive",
    "build_archive",
    "render_text",
    "render_html",
]

__getattr__, __dir__ = lazy_exports(__name__, __all__, {
    "repro.granula.model": (
        "PhaseSpec", "ChildRule", "PlatformPerformanceModel", "DEFAULT_MODEL",
        "model_for_platform",
    ),
    "repro.granula.archiver": (
        "PhaseRecord", "PerformanceArchive", "build_archive",
    ),
    "repro.granula.visualizer": ("render_text", "render_html"),
})
