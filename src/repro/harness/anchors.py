"""The paper's published values, as data: one copy of every anchor.

Transcribed from the paper (LDBC Graphalytics, VLDB 2016). The
calibration tests assert the platform models against these values, and
each artifact of :mod:`repro.harness.reproduce` prints them beside the
reproduced ones. Platforms are keyed by registry key, datasets by
catalog id, experiments by experiment id.
"""

from __future__ import annotations

__all__ = [
    "TABLE1", "TABLE2", "TABLE3", "TABLE4", "TABLE5", "TABLE6", "TABLE7",
    "TABLE8", "TABLE9", "TABLE10", "TABLE11", "FIGURE2_TARGETS",
    "FIGURE8_SPEEDUPS", "FIGURE9_PEAK_SLOWDOWNS", "FIGURE10_SPEEDUPS",
    "FIGURE10_HORIZONTAL_SPEEDUPS",
]

#: Table 1: (survey, class) -> (count, percentage as printed).
TABLE1 = {
    ("Unweighted", "Statistics"): (24, 17.0),
    ("Unweighted", "Traversal"): (69, 48.9),
    ("Unweighted", "Components"): (20, 14.2),
    ("Unweighted", "Graph Evolution"): (6, 4.2),
    ("Unweighted", "Other"): (22, 15.6),
    ("Weighted", "Distances/Paths"): (17, 34.0),
    ("Weighted", "Clustering"): (7, 14.0),
    ("Weighted", "Partitioning"): (5, 10.0),
    ("Weighted", "Routing"): (5, 10.0),
    ("Weighted", "Other"): (16, 32.0),
}

#: Table 2: a scale inside each class's range -> the class label.
TABLE2 = {
    6.5: "2XS", 7.2: "XS", 7.7: "S", 8.2: "M", 8.7: "L", 9.2: "XL",
    9.8: "2XL",
}

#: Table 3: real-world datasets -> (name, |V|, |E|, scale, domain).
TABLE3 = {
    "R1": ("wiki-talk", 2.39e6, 5.02e6, 6.9, "Knowledge"),
    "R2": ("kgs", 0.83e6, 17.9e6, 7.3, "Gaming"),
    "R3": ("cit-patents", 3.77e6, 16.5e6, 7.3, "Knowledge"),
    "R4": ("dota-league", 0.61e6, 50.9e6, 7.7, "Gaming"),
    "R5": ("com-friendster", 65.6e6, 1.81e9, 9.3, "Social"),
    "R6": ("twitter_mpi", 52.6e6, 1.97e9, 9.3, "Social"),
}

#: Table 4: synthetic datasets -> (name, |V|, |E|, scale).
TABLE4 = {
    "D100": ("datagen-100", 1.67e6, 102e6, 8.0),
    "D100'": ("datagen-100-cc0.05", 1.67e6, 103e6, 8.0),
    "D100\"": ("datagen-100-cc0.15", 1.67e6, 103e6, 8.0),
    "D300": ("datagen-300", 4.35e6, 304e6, 8.5),
    "D1000": ("datagen-1000", 12.8e6, 1.01e9, 9.0),
    "G22": ("graph500-22", 2.40e6, 64.2e6, 7.8),
    "G23": ("graph500-23", 4.61e6, 129e6, 8.1),
    "G24": ("graph500-24", 8.87e6, 260e6, 8.4),
    "G25": ("graph500-25", 17.1e6, 524e6, 8.7),
    "G26": ("graph500-26", 32.8e6, 1.05e9, 9.0),
}

#: Table 5: platform -> (type, name, vendor, language, model, version).
TABLE5 = {
    "giraph": ("C, D", "Giraph", "Apache", "Java", "Pregel", "1.1.0"),
    "graphx": ("C, D", "GraphX", "Apache", "Scala", "Spark", "1.6.0"),
    "powergraph": ("C, D", "PowerGraph", "CMU", "C++", "GAS", "2.2"),
    "graphmat": ("I, D", "GraphMat", "Intel", "C++", "SpMV", "Feb '16"),
    "openg": ("I, S", "OpenG", "Georgia Tech", "C++", "Native code",
              "Feb '16"),
    "pgxd": ("I, D", "PGX.D", "Oracle", "C++", "Push-pull", "Feb '16"),
}

#: Table 6: experiment -> (section, category, algorithms, max #nodes).
TABLE6 = {
    "dataset-variety": ("4.1", "Baseline", ("bfs", "pr"), 1),
    "algorithm-variety": (
        "4.2", "Baseline", ("bfs", "pr", "wcc", "cdlp", "lcc", "sssp"), 1,
    ),
    "vertical-scalability": ("4.3", "Scalability", ("bfs", "pr"), 1),
    "strong-scalability": ("4.4", "Scalability", ("bfs", "pr"), 16),
    "weak-scalability": ("4.5", "Scalability", ("bfs", "pr"), 16),
    "stress-test": ("4.6", "Robustness", ("bfs",), 1),
    "variability": ("4.7", "Robustness", ("bfs",), 16),
    "data-generation": ("4.8", "Self-test", (), 16),
}

#: Table 7: one DAS-5 node, as printed.
TABLE7 = {
    "CPU": "2 x Intel Xeon E5-2630 @ 2.40 GHz",
    "Cores": "16 (32 threads with Hyper-Threading)",
    "Threads": "32",
    "Memory": "64 GiB",
    "Network": "1 Gbit/s Ethernet, FDR InfiniBand",
}

#: Table 8: BFS on D300(L), one machine -> (Tproc s, makespan s).
TABLE8 = {
    "giraph": (22.3, 276.6),
    "graphx": (101.5, 298.3),
    "powergraph": (2.1, 214.7),
    "graphmat": (0.3, 22.8),
    "openg": (1.8, 5.4),
    "pgxd": (0.5, 268.7),
}

#: Table 9: vertical speedups on D300(L), 1 -> 32 threads (BFS, PR).
TABLE9 = {
    "giraph": (6.0, 8.1),
    "graphx": (4.5, 2.9),
    "powergraph": (11.8, 10.3),
    "graphmat": (6.9, 11.3),
    "openg": (6.3, 6.4),
    "pgxd": (15.0, 13.9),
}

#: Table 10: smallest dataset failing BFS on one machine (id, scale).
TABLE10 = {
    "giraph": ("G26", 9.0),
    "graphx": ("G25", 8.7),
    "powergraph": ("R5", 9.3),
    "graphmat": ("G26", 9.0),
    "openg": ("R5", 9.3),
    "pgxd": ("G25", 8.7),
}

#: Table 11: variability — config -> platform -> (mean Tproc s, CV).
#: S is BFS on D300 at one machine, D is BFS on D1000 at 16.
TABLE11 = {
    "S": {
        "giraph": (22.3, 0.050),
        "graphx": (101.5, 0.026),
        "powergraph": (2.1, 0.015),
        "graphmat": (0.3, 0.097),
        "openg": (2.0, 0.048),
        "pgxd": (0.5, 0.082),
    },
    "D": {
        "giraph": (38.0, 0.098),
        "graphx": (335.5, 0.045),
        "powergraph": (6.6, 0.045),
        "graphmat": (0.5, 0.057),
        "pgxd": (0.5, 0.071),
    },
}

#: Figure 2: the two target average clustering coefficients shown.
FIGURE2_TARGETS = (0.05, 0.3)

#: §4.4: speedups the text quotes for Figure 8 (D1000, first machine
#: count that completes -> 16) — (platform, algorithm) -> speedup.
FIGURE8_SPEEDUPS = {
    ("graphx", "bfs"): 2.3,
    ("graphx", "pr"): 1.2,
    ("powergraph", "bfs"): 6.9,
    ("powergraph", "pr"): 1.8,
}

#: §4.5: peak weak-scaling slowdowns the text quotes for Figure 9.
FIGURE9_PEAK_SLOWDOWNS = {
    ("giraph", "pr"): 13.3,
    ("graphx", "pr"): 15.2,
}

#: §4.8: v0.2.6 over v0.2.1 speedups at SF 30..3000 on 16 machines.
FIGURE10_SPEEDUPS = {30: 1.16, 100: 1.33, 300: 1.83, 1000: 2.15, 3000: 2.9}

#: §4.8: v0.2.6 speedups from 4 to 16 machines at SF 30..1000.
FIGURE10_HORIZONTAL_SPEEDUPS = {30: 1.1, 100: 1.4, 300: 2.0, 1000: 3.0}
