"""Datasets and graphs: ``datasets``, ``generate``, ``materialize``,
``validate`` and ``cache``."""

from __future__ import annotations

from repro.cli import SEED, SELECT_ALGORITHMS, SELECT_DATASETS, arg, command, group


@command("datasets")
def datasets(args) -> int:
    """print the dataset catalog"""
    from repro.harness.datasets import DATASETS

    print(f"{'id':7s} {'name':22s} {'|V|':>10s} {'|E|':>12s} "
          f"{'scale':>5s} {'class':>5s} {'domain'}")
    for ds in DATASETS.values():
        p = ds.profile
        print(f"{ds.dataset_id:7s} {p.name:22s} {p.num_vertices:>10,d} "
              f"{p.num_edges:>12,d} {p.scale:>5.1f} {ds.tshirt:>5s} {ds.domain}")
    return 0


@command(
    "generate",
    arg("prefix", help="output path prefix (writes .v and .e)"),
    arg("--generator", choices=("datagen", "graph500"), default="datagen"),
    arg("--persons", type=int, default=1000,
        help="datagen: number of persons"),
    arg("--mean-degree", type=float, default=18.0,
        help="datagen: target mean degree"),
    arg("--target-cc", type=float, default=None,
        help="datagen: target average clustering coefficient"),
    arg("--scale", type=int, default=12,
        help="graph500: 2^scale vertex slots"),
    arg("--edgefactor", type=int, default=16,
        help="graph500: edges per vertex slot"),
    arg("--weighted", action="store_true"),
    SEED,
)
def generate_graph(args) -> int:
    """generate a synthetic graph (EVL files)"""
    from repro.graph.io import write_graph

    if args.generator == "graph500":
        from repro.datagen.graph500 import graph500

        graph = graph500(
            args.scale,
            edgefactor=args.edgefactor,
            weighted=args.weighted,
            seed=args.seed,
        )
    else:
        from repro.datagen.generator import generate

        graph = generate(
            args.persons,
            mean_degree=args.mean_degree,
            target_clustering_coefficient=args.target_cc,
            weighted=args.weighted,
            seed=args.seed,
        )
    vertex_path, edge_path = write_graph(graph, args.prefix)
    print(f"wrote {graph.num_vertices} vertices to {vertex_path}")
    print(f"wrote {graph.num_edges} edges to {edge_path}")
    return 0


@command(
    "validate", "dataset", "algorithm", "output_file", SEED,
)
def validate(args) -> int:
    """validate a platform output file against the reference"""
    from repro.exceptions import ValidationError
    from repro.algorithms.output_io import validate_output_file
    from repro.algorithms.registry import run_reference
    from repro.harness.datasets import get_dataset

    dataset = get_dataset(args.dataset)
    graph = dataset.materialize(args.seed)
    params = dataset.algorithm_parameters(args.algorithm, args.seed)
    reference = run_reference(args.algorithm, graph, params)
    try:
        validate_output_file(
            graph, args.output_file, reference, algorithm=args.algorithm
        )
    except ValidationError as exc:
        print(f"VALIDATION FAILED: {exc}")
        return 1
    print(
        f"output matches the {args.algorithm.upper()} reference for "
        f"{dataset.label}"
    )
    return 0


@command(
    "materialize", "directory", SELECT_DATASETS, SELECT_ALGORITHMS, SEED,
)
def materialize(args) -> int:
    """write the dataset archive (EVL files + reference outputs)"""
    from repro.harness.archive import materialize_archive

    written = materialize_archive(
        args.directory,
        dataset_ids=args.datasets,
        algorithms=args.algorithms,
        seed=args.seed,
    )
    for directory in written:
        print(f"archived {directory}")
    return 0


cache = group(
    "cache",
    "inspect or clear the materialized-graph cache",
    arg("--dir", dest="cache_dir", default=None,
        help="cache directory (default: $GRAPHALYTICS_CACHE_DIR or the "
             "XDG cache home)"),
)


def _open_cache(args):
    from repro.runtime.cache import GraphCache, default_cache_directory

    directory = args.cache_dir or default_cache_directory()
    return directory, GraphCache(directory)


@cache.command("stats")
def cache_stats(args) -> int:
    """entry inventory"""
    directory, graph_cache = _open_cache(args)
    entries = graph_cache.disk_entries()
    print(f"cache directory: {directory}")
    if not entries:
        print("(no cached entries)")
    total = 0
    for entry in entries:
        total += entry.bytes
        print(f"  {entry.kind:10s} {entry.label:32s} {entry.bytes:>12,d} B")
    if entries:
        print(f"{len(entries)} entries, {total:,d} bytes")
    return 0


@cache.command("clear")
def cache_clear(args) -> int:
    """remove every cached entry"""
    directory, graph_cache = _open_cache(args)
    removed = graph_cache.clear()
    print(f"removed {removed} entries from {directory}")
    return 0
