"""The reproduction report: every paper artifact as one registered function.

Each artifact — Tables 1–12, Figures 2 and 4–10, the upload times, the
two ablations and a renewal round — is a function registered with
:func:`artifact` that returns a :class:`Table`: a title, a header and
rows, with the paper's value (:mod:`repro.harness.anchors`) beside ours
wherever the paper prints one. An experiment-backed artifact folds that
experiment's report at seed 0 and computes nothing a second time.

:func:`report` renders artifacts as Markdown (paper Figure 1, box 9):
``graphalytics reproduce [ARTIFACT ...]`` prints it, and every table of
EXPERIMENTS.md is a block of it between ``<!-- reproduce:ID -->`` and
``<!-- /reproduce -->`` that a tier-1 test regenerates byte for byte.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.exceptions import ConfigurationError
from repro.harness import anchors
from repro.platforms.registry import PLATFORMS

__all__ = ["Table", "ARTIFACTS", "artifact", "render", "report"]

#: Registry key -> the platform's name, as rows from drivers carry it.
_NAMES = {key: info.name for key, (info, _) in PLATFORMS.items()}
_KEYS = {name: key for key, name in _NAMES.items()}
_DISTRIBUTED = [key for key, (info, _) in PLATFORMS.items()
                if info.distributed]


@dataclass(frozen=True)
class Table:
    """One artifact: a title, a header and rows of plain values."""

    title: str
    header: Tuple[str, ...]
    rows: List[Tuple[object, ...]]


#: Artifact id -> the function that reproduces it, in report order.
ARTIFACTS: Dict[str, Callable[[], Table]] = {}


def artifact(artifact_id: str):
    """Register the decorated function as artifact ``artifact_id``."""
    def register(function: Callable[[], Table]) -> Callable[[], Table]:
        ARTIFACTS[artifact_id] = function
        return function

    return register


def _cell(value: object) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, int):
        return f"{value:,}"
    if isinstance(value, float):
        return f"{value:.3g}"
    return str(value)


def render(table: Table) -> str:
    """``table`` as a Markdown table under a bold title line."""
    lines = [
        f"**{table.title}**",
        "",
        "| " + " | ".join(table.header) + " |",
        "|" + "---|" * len(table.header),
    ]
    lines += ["| " + " | ".join(map(_cell, row)) + " |" for row in table.rows]
    return "\n".join(lines) + "\n"


def report(artifact_ids: Sequence[str] = ()) -> str:
    """The named artifacts (all of them by default) as one Markdown text."""
    unknown = [a for a in artifact_ids if a not in ARTIFACTS]
    if unknown:
        raise ConfigurationError(
            f"unknown artifact {unknown[0]!r}; known: {', '.join(ARTIFACTS)}"
        )
    return "\n".join(
        render(ARTIFACTS[a]()) for a in (artifact_ids or ARTIFACTS)
    )


def _run(experiment_id: str):
    """The experiment and its report at seed 0."""
    from repro.harness.experiments import get_experiment

    experiment = get_experiment(experiment_id)
    return experiment, experiment.run(seed=0)


def _status_or_tproc(row) -> object:
    return row["tproc"] if row["status"] == "ok" else row["status"]


# -- tables -------------------------------------------------------------------

@artifact("table01")
def table01() -> Table:
    from repro.harness.survey import survey_table, two_stage_selection

    rows = []
    for row in survey_table():
        count, percentage = anchors.TABLE1[row["survey"], row["class"]]
        rows.append((
            row["survey"], row["class"], ", ".join(row["candidates"]) or "-",
            row["count"], count, row["percentage"], percentage,
        ))
    selected = ", ".join(a.upper() for a in two_stage_selection())
    return Table(
        f"Table 1: algorithm surveys; the two-stage selection picks {selected}",
        ("survey", "class", "candidates", "count", "paper", "%", "paper"),
        rows,
    )


@artifact("table02")
def table02() -> Table:
    from repro.harness.scale import scale_class

    return Table(
        "Table 2: scale to T-shirt class",
        ("scale", "class", "paper"),
        [(scale, scale_class(scale), label)
         for scale, label in anchors.TABLE2.items()],
    )


def _catalog(datasets, paper) -> List[Tuple[object, ...]]:
    rows = []
    for ds in datasets:
        _, vertices, edges, scale, *domain = paper[ds.dataset_id]
        profile = ds.profile
        rows.append((
            ds.dataset_id, profile.name, profile.num_vertices,
            int(round(vertices)), profile.num_edges, int(round(edges)),
            profile.scale, scale, ds.tshirt,
            *((ds.domain, *domain) if domain else ()),
        ))
    return rows


@artifact("table03")
def table03() -> Table:
    from repro.harness.datasets import REAL_DATASETS

    return Table(
        "Table 3: real-world datasets",
        ("id", "name", "vertices", "paper", "edges", "paper", "scale", "paper",
         "class", "domain", "paper"),
        _catalog(REAL_DATASETS, anchors.TABLE3),
    )


@artifact("table04")
def table04() -> Table:
    from repro.harness.datasets import SYNTHETIC_DATASETS

    return Table(
        "Table 4: synthetic datasets",
        ("id", "name", "vertices", "paper", "edges", "paper", "scale", "paper",
         "class"),
        _catalog(SYNTHETIC_DATASETS, anchors.TABLE4),
    )


@artifact("table05")
def table05() -> Table:
    rows = []
    for key, (info, _) in PLATFORMS.items():
        row = (info.type_code, info.name, info.vendor, info.language,
               info.programming_model, info.version)
        rows.append((key, *row, row == anchors.TABLE5[key]))
    return Table(
        "Table 5: selected platforms",
        ("key", "type", "name", "vendor", "language", "model", "version",
         "as paper"),
        rows,
    )


@artifact("table06")
def table06() -> Table:
    from repro.harness.experiments import EXPERIMENTS

    rows = []
    for exp in EXPERIMENTS.values():
        ours = (exp.section, exp.category, exp.algorithms, max(exp.nodes))
        rows.append((
            exp.experiment_id, exp.section, exp.category, exp.title,
            ", ".join(a.upper() for a in exp.algorithms) or "-",
            "/".join(map(str, exp.nodes)),
            "/".join(map(str, exp.threads)) or "-",
            ", ".join(exp.metrics),
            ours == anchors.TABLE6[exp.experiment_id],
        ))
    return Table(
        "Table 6: experiments",
        ("id", "sec", "category", "experiment", "algorithms", "#nodes",
         "#threads", "metrics", "as paper"),
        rows,
    )


@artifact("table07")
def table07() -> Table:
    from repro.platforms.cluster import DAS5_MACHINE as machine

    ours = {
        "CPU": machine.name,
        "Cores": machine.cores,
        "Threads": machine.threads,
        "Memory": f"{machine.memory_bytes // 2 ** 30} GiB",
        "Network": f"{machine.network_gbps:g} Gbit/s Ethernet",
    }
    return Table(
        "Table 7: one DAS-5 node",
        ("component", "model", "paper"),
        [(part, ours[part], paper) for part, paper in anchors.TABLE7.items()],
    )


@artifact("table08")
def table08() -> Table:
    _, report = _run("dataset-variety")
    rows = []
    for row in report.rows_for(dataset="D300", algorithm="bfs"):
        tproc, makespan = anchors.TABLE8[_KEYS[row["platform"]]]
        rows.append((
            row["platform"], row["makespan"], makespan, row["tproc"], tproc,
            100 * row["tproc"] / row["makespan"], 100 * tproc / makespan,
        ))
    return Table(
        "Table 8: BFS on D300(L), one machine (s)",
        ("platform", "makespan", "paper", "Tproc", "paper", "ratio %",
         "paper"),
        rows,
    )


@artifact("table09")
def table09() -> Table:
    _, report = _run("vertical-scalability")
    rows = []
    for key, name in _NAMES.items():
        ours = [
            max(r["speedup"] for r in report.rows_for(
                platform=name, algorithm=algorithm) if r["speedup"])
            for algorithm in ("bfs", "pr")
        ]
        paper = anchors.TABLE9[key]
        rows.append((name, ours[0], paper[0], ours[1], paper[1]))
    return Table(
        "Table 9: vertical speedup on D300(L), 1 to 32 threads",
        ("platform", "BFS", "paper", "PR", "paper"),
        rows,
    )


@artifact("table10")
def table10() -> Table:
    _, report = _run("stress-test")
    rows = []
    for row in report.rows_for(summary="stress-limit"):
        dataset, scale = anchors.TABLE10[_KEYS[row["platform"]]]
        rows.append((
            row["platform"], row["dataset"], dataset, row["scale"],
            scale,
        ))
    return Table(
        "Table 10: smallest dataset failing BFS on one machine",
        ("platform", "dataset", "paper", "scale", "paper"),
        rows,
    )


@artifact("table11")
def table11() -> Table:
    _, report = _run("variability")
    rows = []
    for row in report.rows:
        if row["mean"] is None:
            continue
        mean, cv = anchors.TABLE11[row["config"]][_KEYS[row["platform"]]]
        rows.append((
            row["config"], row["platform"], row["mean"], mean,
            100 * row["cv"], 100 * cv,
        ))
    return Table(
        "Table 11: Tproc mean (s) and CV over 10 runs; S = D300 on 1 "
        "machine, D = D1000 on 16",
        ("config", "platform", "mean", "paper", "CV %", "paper"),
        rows,
    )


@artifact("table12")
def table12() -> Table:
    from repro.harness.related_work import related_work_table

    return Table(
        "Table 12: related work",
        ("name", "type", "target", "input", "datasets", "algorithms",
         "scalability tests", "robustness", "renewal"),
        [(r["name"], r["type"], r["target_structure"], r["input"],
          r["datasets"], r["algorithms"], r["scalability_tests"],
          r["robustness"], r["renewal"]) for r in related_work_table()],
    )


# -- figures ------------------------------------------------------------------

def _modularity(graph, labels: np.ndarray) -> float:
    """Newman modularity of a labeling of an undirected graph."""
    m = graph.num_edges
    src, dst = labels[graph.edge_src], labels[graph.edge_dst]
    internal = np.count_nonzero(src == dst)
    _, community = np.unique(labels, return_inverse=True)
    volume = np.bincount(community, weights=graph.degrees().astype(np.float64))
    return internal / m - float(np.sum((volume / (2 * m)) ** 2))


@artifact("figure02")
def figure02() -> Table:
    from repro.algorithms.cdlp import community_detection_lp
    from repro.datagen.generator import generate
    from repro.graph.stats import compute_statistics

    rows = []
    for target in anchors.FIGURE2_TARGETS:
        graph = generate(
            600, mean_degree=16, target_clustering_coefficient=target, seed=7
        )
        labels = community_detection_lp(graph, iterations=10)
        rows.append((
            target,
            compute_statistics(graph).mean_clustering_coefficient,
            _modularity(graph, labels),
            len(np.unique(labels)),
        ))
    return Table(
        "Figure 2: Datagen, 600 persons, mean degree 16, by target CC",
        ("target CC (paper)", "measured CC", "modularity (CDLP)",
         "communities"),
        rows,
    )


def _dataset_rows(report, algorithm: str, field: str):
    """One row per dataset: ``field`` per Table 5 platform (``None``
    where the platform has no row)."""
    rows = report.rows_for(algorithm=algorithm)
    cells = {(r["dataset"], r["platform"]): r[field] for r in rows}
    return [
        (dataset, *(cells.get((dataset, name)) for name in _NAMES.values()))
        for dataset in dict.fromkeys(r["dataset"] for r in rows)
    ]


@artifact("figure04")
def figure04() -> Table:
    _, report = _run("dataset-variety")
    return Table(
        "Figure 4: Tproc (s) per dataset, datasets up to class L",
        ("algorithm", "dataset", *_NAMES.values()),
        [(algorithm.upper(), *row)
         for algorithm in ("bfs", "pr")
         for row in _dataset_rows(report, algorithm, "tproc")],
    )


@artifact("figure05")
def figure05() -> Table:
    _, report = _run("dataset-variety")
    return Table(
        "Figure 5: EPS and EVPS of BFS per dataset",
        ("metric", "dataset", *_NAMES.values()),
        [(metric.upper(), *row)
         for metric in ("eps", "evps")
         for row in _dataset_rows(report, "bfs", metric)],
    )


@artifact("figure06")
def figure06() -> Table:
    exp, report = _run("algorithm-variety")
    cells = {}
    for r in report.rows:
        cells[r["dataset"], r["algorithm"], r["platform"]] = _status_or_tproc(r)
    rows = [
        (dataset, algorithm.upper(),
         *(cells[dataset, algorithm, name] for name in _NAMES.values()))
        for dataset in exp.datasets
        for algorithm in ("bfs", "wcc", "cdlp", "pr", "lcc", "sssp")
    ]
    return Table(
        "Figure 6: Tproc (s) per algorithm; F = failed, NA = not "
        "implemented",
        ("dataset", "algorithm", *_NAMES.values()),
        rows,
    )


@artifact("figure07")
def figure07() -> Table:
    exp, report = _run("vertical-scalability")
    rows = []
    for algorithm in ("bfs", "pr"):
        for name in _NAMES.values():
            series = {
                r["threads"]: r["tproc"]
                for r in report.rows_for(platform=name, algorithm=algorithm)
            }
            rows.append((algorithm.upper(), name,
                         *(series[t] for t in exp.threads)))
    return Table(
        "Figure 7: Tproc (s) on D300(L) by threads",
        ("algorithm", "platform", *map(str, exp.threads)),
        rows,
    )


@artifact("figure08")
def figure08() -> Table:
    exp, report = _run("strong-scalability")
    rows = []
    for algorithm in ("bfs", "pr"):
        for key in _DISTRIBUTED:
            series = report.rows_for(platform=_NAMES[key], algorithm=algorithm)
            rows.append((
                algorithm.upper(), _NAMES[key],
                *(_status_or_tproc(r) for r in series),
                series[-1]["speedup"],
                anchors.FIGURE8_SPEEDUPS.get((key, algorithm)),
            ))
    return Table(
        "Figure 8: Tproc (s) on D1000(XL) by machines; speedup from the "
        "first machine count that completes to 16",
        ("algorithm", "platform", *map(str, exp.nodes), "speedup", "paper"),
        rows,
    )


@artifact("figure09")
def figure09() -> Table:
    exp, report = _run("weak-scalability")
    rows = []
    for algorithm in ("bfs", "pr"):
        for key in _DISTRIBUTED:
            series = report.rows_for(platform=_NAMES[key], algorithm=algorithm)
            slowdowns = [r["slowdown"] for r in series if r["slowdown"]]
            rows.append((
                algorithm.upper(), _NAMES[key],
                *(_status_or_tproc(r) for r in series),
                max(slowdowns) if slowdowns else None,
                anchors.FIGURE9_PEAK_SLOWDOWNS.get((key, algorithm)),
            ))
    return Table(
        "Figure 9: Tproc (s) along G22 on 1 machine to G26 on 16; peak "
        "slowdown over the first completing point",
        ("algorithm", "platform",
         *(f"{d}@{m}" for d, m in zip(exp.datasets, exp.nodes)),
         "peak slowdown", "paper"),
        rows,
    )


@artifact("figure10")
def figure10() -> Table:
    from repro.harness.metrics import speedup

    _, report = _run("data-generation")
    old_vs_new = {
        r["scale_factor"]: r for r in report.rows_for(panel="old-vs-new")
    }
    by_size = {
        (r["scale_factor"], r["machines"]): r["t_v0_2_6"]
        for r in report.rows_for(panel="cluster-size")
    }
    rows = []
    for sf in sorted({sf for sf, _ in by_size}):
        old = old_vs_new.get(sf, {})
        rows.append((
            sf, old.get("t_v0_2_1"), by_size[sf, 16], old.get("speedup"),
            anchors.FIGURE10_SPEEDUPS.get(sf), by_size[sf, 4], by_size[sf, 8],
            speedup(by_size[sf, 4], by_size[sf, 16]),
            anchors.FIGURE10_HORIZONTAL_SPEEDUPS.get(sf),
        ))
    return Table(
        "Figure 10: Datagen generation time (s) by scale factor (million "
        "edges); v0.2.1 against v0.2.6 on 16 machines, v0.2.6 on 4 and 8",
        ("SF", "v0.2.1", "v0.2.6", "speedup", "paper", "4 machines",
         "8 machines", "4 to 16 speedup", "paper"),
        rows,
    )


# -- beyond the numbered artifacts --------------------------------------------

@artifact("upload-time")
def upload_time() -> Table:
    _, report = _run("dataset-variety")
    return Table(
        "Upload time (§2.3) beside the makespan, BFS on D300(L) (s)",
        ("platform", "upload", "makespan"),
        [(r["platform"], r["upload"], r["makespan"])
         for r in report.rows_for(dataset="D300", algorithm="bfs")],
    )


@artifact("ablation-model")
def ablation_model() -> Table:
    """Each calibrated mechanism switched off, beside the finding it
    produces (DESIGN.md: a finding is a mechanism, not a lookup)."""
    from repro.harness.datasets import get_dataset
    from repro.platforms.cluster import ClusterResources as R
    from repro.platforms.registry import create_driver

    def fits(dataset):
        return lambda model: model.fits_in_memory(
            "bfs", get_dataset(dataset).profile, R())

    def tproc(algorithm, dataset, resources):
        return lambda model: model.processing_time(
            algorithm, get_dataset(dataset).profile, resources)

    # mechanism, platform, the ablation, [(quantity, measure)]
    cases = [
        ("skew sensitivity", "giraph", {"skew_sensitivity": 0.0}, [
            ("Giraph BFS fits G26 on 1 machine", fits("G26")),
            ("Giraph BFS fits D1000 on 1 machine", fits("D1000")),
        ]),
        ("distribution shock", "giraph",
         {"dist_shock": 1.0, "dist_shock_adjust": {}}, [
            ("Giraph BFS Tproc on D1000, 1 machine",
             tproc("bfs", "D1000", R(1))),
            ("Giraph BFS Tproc on D1000, 2 machines",
             tproc("bfs", "D1000", R(2))),
        ]),
        ("hyper-threading yield", "pgxd", {"ht_yield": 0.0}, [
            ("PGX.D BFS Tproc on D300, 16 threads",
             tproc("bfs", "D300", R(threads=16))),
            ("PGX.D BFS Tproc on D300, 32 threads",
             tproc("bfs", "D300", R(threads=32))),
        ]),
        ("swap penalty", "graphmat", {"swap_penalty": 1.0}, [
            ("GraphMat PR Tproc on D1000, 1 machine",
             tproc("pr", "D1000", R(1))),
            ("GraphMat PR Tproc on D1000, 2 machines",
             tproc("pr", "D1000", R(2))),
        ]),
        ("queue-based BFS", "openg", {"queue_based_bfs": False}, [
            ("OpenG BFS Tproc on R2", tproc("bfs", "R2", R())),
        ]),
    ]
    rows = []
    for mechanism, key, ablation, quantities in cases:
        calibrated = create_driver(key).model
        ablated = dataclasses.replace(calibrated, **ablation)
        rows += [(mechanism, quantity, measure(calibrated), measure(ablated))
                 for quantity, measure in quantities]
    rival = tproc("bfs", "R2", R())(create_driver("powergraph").model)
    rows.append(("queue-based BFS", "PowerGraph BFS Tproc on R2", rival,
                 rival))
    return Table(
        "Ablation: each model mechanism switched off",
        ("mechanism", "quantity", "calibrated", "ablated"),
        rows,
    )


@artifact("ablation-partitioning")
def ablation_partitioning() -> Table:
    """Hash edge-cut against greedy vertex-cut, really run on a skewed
    and a social miniature of the same size: the skew the memory
    model's ``memory_skew`` term abstracts."""
    from repro.datagen.generator import generate
    from repro.datagen.graph500 import graph500
    from repro.platforms.partitioning import compare_strategies

    skewed = graph500(9, edgefactor=8, seed=3)
    social = generate(
        skewed.num_vertices,
        mean_degree=min(30.0, 2.0 * skewed.num_edges / skewed.num_vertices),
        seed=3,
    )
    rows = []
    for kind, graph in (("graph500 (skewed)", skewed),
                        ("datagen (social)", social)):
        edge_cut, vertex_cut = compare_strategies(graph, 8, seed=2)
        rows.append((
            kind, edge_cut.replication_factor, vertex_cut.replication_factor,
            edge_cut.edge_imbalance, vertex_cut.edge_imbalance,
        ))
    return Table(
        "Ablation: partitioning on 8 machines, edge-cut (EC) against "
        "vertex-cut (VC)",
        ("graph", "EC replication", "VC replication", "EC imbalance",
         "VC imbalance"),
        rows,
    )


@artifact("renewal")
def renewal() -> Table:
    """One §2.4 renewal round from the modeled single-machine BFS
    makespans, then a hypothetical later round on shifted surveys."""
    from repro.harness.datasets import DATASETS
    from repro.harness.renewal import RenewalProcess
    from repro.harness.survey import SurveyClass
    from repro.platforms.cluster import ClusterResources
    from repro.platforms.registry import create_driver

    core = ("bfs", "pr", "wcc", "cdlp", "lcc", "sssp")
    makespans: Dict[float, float] = {}
    for ds in DATASETS.values():
        for key in PLATFORMS:
            model = create_driver(key).model
            if model.fits_in_memory("bfs", ds.profile, ClusterResources()):
                value = model.makespan("bfs", ds.profile, ClusterResources())
                scale = ds.profile.scale
                makespans[scale] = min(value, makespans.get(scale, value))
    rounds = [("v1 to v2", RenewalProcess(core, version=1).renew(makespans))]
    rounds.append(("v2 to v3, shifted surveys", RenewalProcess(
        core, version=2).renew(
            {8.5: 900.0},
            unweighted_survey=(
                SurveyClass("Statistics", 30, ("pr", "lcc")),
                SurveyClass("Traversal", 50, ("bfs",)),
                SurveyClass("Embeddings", 40, ("node2vec",)),
                SurveyClass("Components", 8, ("wcc", "cdlp")),
                SurveyClass("Other", 14),
            ),
            weighted_survey=(
                SurveyClass("Distances/Paths", 20, ("sssp",)),
                SurveyClass("Other", 20),
            ),
        )))
    return Table(
        "Renewal (§2.4): algorithm selection and class L recalibration",
        ("round", "algorithms", "added", "obsoleted", "reference class"),
        [(name, ", ".join(a.upper() for a in d.algorithms),
          ", ".join(d.added_algorithms) or "-",
          ", ".join(d.obsoleted_algorithms) or "-", d.reference_class)
         for name, d in rounds],
    )
