"""Inspection tools: ``lint``, ``trace``, ``selfcheck``, ``platforms`` and
``experiments``."""

from __future__ import annotations

from repro.cli import arg, command
from repro.exceptions import ConfigurationError


@command(
    "lint",
    arg("paths", nargs="*",
        help="files or directories to lint (default: the repro package)"),
    arg("--format", choices=("text", "json"), default="text",
        help="report format"),
    arg("--select", nargs="*", default=None,
        help="run only these rule ids (e.g. DET001 CON002)"),
    arg("--list-rules", action="store_true",
        help="print the rule table and exit"),
    arg("--no-project", action="store_true",
        help="skip the whole-program phase (project model, call graph, "
             "interprocedural rules); per-file rules only"),
)
def lint(args) -> int:
    """static determinism & benchmark-conformance analysis"""
    from pathlib import Path

    from repro.lint import (
        LintEngine,
        all_rules,
        load_config,
        render_json,
        render_text,
    )

    if args.list_rules:
        for rule_id, rule in sorted(all_rules().items()):
            scope = ", ".join(rule.scope) if rule.scope else "everywhere"
            print(f"{rule_id}  {rule.severity:7s} [{scope}]")
            print(f"    {rule.description}")
        return 0

    config = load_config()
    if args.select:
        config.select = list(args.select)
    if args.no_project:
        config.project = False

    if args.paths:
        paths = [Path(p) for p in args.paths]
    else:
        import repro

        paths = [Path(repro.__file__).parent]

    findings = LintEngine(config).run(paths)
    render = render_json if args.format == "json" else render_text
    print(render(findings))
    return 1 if findings else 0


@command(
    "trace",
    arg("run_dir",
        help="run directory holding trace.jsonl (or the file itself)"),
    arg("--summary", action="store_true",
        help="per-job metric table instead of the full span tree"),
    arg("--max-depth", type=int, default=None,
        help="truncate the span tree below this depth"),
    arg("--min-ms", type=float, default=0.0,
        help="hide spans shorter than this many milliseconds"),
)
def trace(args) -> int:
    """inspect the span trace of a journaled run"""
    from pathlib import Path

    from repro.trace import read_trace, render_tree, validate_tree

    path = Path(args.run_dir)
    if path.is_dir():
        path = path / "trace.jsonl"
    if not path.exists():
        raise ConfigurationError(
            f"{path} does not exist (was the run started with --run-dir?)"
        )
    spans, counters = read_trace(path)
    print(f"{path}: {len(spans)} span(s), {len(counters)} counter(s)")
    violations = validate_tree(spans)
    for violation in violations:
        print(f"  [invalid] {violation}")
    if args.summary:
        jobs = sorted(
            (s for s in spans if s.name == "job"),
            key=lambda s: (s.start, s.span_id),
        )
        if jobs:
            def fmt(value):
                if isinstance(value, (int, float)):
                    return f"{float(value) * 1000.0:.3f} ms"
                return "-"

            # A job's minor faults are those of its processing span.
            by_id = {s.span_id: s for s in spans}
            minflt = {}
            for span in spans:
                if span.name != "processing" or "minflt" not in span.attributes:
                    continue
                owner = by_id.get(span.parent_id)
                while owner is not None and owner.name != "job":
                    owner = by_id.get(owner.parent_id)
                if owner is not None:
                    minflt[owner.span_id] = span.attributes["minflt"]

            print(f"{'platform':12s} {'dataset':8s} {'algorithm':9s} "
                  f"{'status':10s} {'tproc':>12s} {'makespan':>12s} "
                  f"{'minflt':>8s}")
            for job in jobs:
                attrs = job.attributes
                print(
                    f"{str(attrs.get('platform', '?')):12s} "
                    f"{str(attrs.get('dataset', '?')):8s} "
                    f"{str(attrs.get('algorithm', '?')):9s} "
                    f"{str(attrs.get('status', job.status)):10s} "
                    f"{fmt(attrs.get('tproc')):>12s} "
                    f"{fmt(attrs.get('makespan')):>12s} "
                    f"{str(minflt.get(job.span_id, '-')):>8s}"
                )
        else:
            print("(no job spans)")
    else:
        tree = render_tree(
            spans,
            max_depth=args.max_depth,
            min_duration=args.min_ms / 1000.0,
        )
        print(tree if tree else "(no spans)")
    if counters:
        print("counters:")
        for name in sorted(counters):
            print(f"  {name:24s} {counters[name]:g}")
    return 1 if violations else 0


@command("selfcheck")
def selfcheck(args) -> int:
    """verify this installation is healthy"""
    from repro.harness.selfcheck import run_selfcheck

    results = run_selfcheck()
    failed = 0
    for result in results:
        status = "ok" if result.passed else "FAIL"
        print(f"[{status:>4s}] {result.name}: {result.detail}")
        if not result.passed:
            failed += 1
    if failed:
        print(f"{failed} of {len(results)} checks failed")
        return 1
    print(f"all {len(results)} checks passed")
    return 0


@command("platforms")
def platforms(args) -> int:
    """print the platform roster"""
    from repro.platforms.registry import PLATFORMS

    print(f"{'type':6s} {'name':12s} {'vendor':14s} {'lang':6s} "
          f"{'model':12s} {'version'}")
    for info, _ in PLATFORMS.values():
        print(f"{info.type_code:6s} {info.name:12s} {info.vendor:14s} "
              f"{info.language:6s} {info.programming_model:12s} {info.version}")
    return 0


@command("experiments")
def experiments(args) -> int:
    """list the experiment suite"""
    from repro.harness.experiments import EXPERIMENTS

    print(f"{'id':22s} {'sec':4s} {'category':12s} {'title'}")
    for exp in EXPERIMENTS.values():
        print(f"{exp.experiment_id:22s} {exp.section:4s} "
              f"{exp.category:12s} {exp.title}")
    return 0
