"""The benchmark command: ``python3 -m perf.run --workload NAME --seed N
--seconds S --trace 0|1`` (run from the repository root).

Each workload runs in a fresh subprocess (``perf.worker``) whose scratch
directory, ``TMPDIR`` and hash seed this process fixes, and whose whole
process tree this process sweeps on every exit path. The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` — the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``. Without ``--workload`` all four
run in turn. Exit code 0 means the benchmark ran; read ``correct`` for
whether the program's outputs were right.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

from perf import host
from perf.metrics import END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS

__all__ = ["measure", "main"]

#: Set-ups per run, each in its own cold process; ``setup_s`` is their
#: median. At least MIN, and more while they are cheap: a 0.4 s set-up is
#: mostly interpreter start, which one host burst doubles.
MIN_SETUP_REPEATS = 3
MAX_SETUP_REPEATS = 7
SETUP_BUDGET_SECONDS = 3.0
#: The contract gives a run 180 s; a worker that is still going is hung.
WORKER_TIMEOUT_SECONDS = 170.0


class _Sweeper:
    """Process groups started for one measurement, killed on the way out."""

    def __init__(self, scratch: Path):
        self.scratch = scratch
        self.groups: List[int] = []

    def _registered(self) -> List[int]:
        try:
            text = (self.scratch / host.PROCESS_GROUPS_FILE).read_text(encoding="ascii")
        except OSError:
            return []
        return [int(line) for line in text.split()]

    def sweep(self) -> None:
        groups = self.groups + self._registered()
        for pgid in groups:
            try:
                os.killpg(pgid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
        deadline = time.monotonic() + 10.0
        for pgid in groups:
            while time.monotonic() < deadline:
                try:
                    os.killpg(pgid, 0)
                except (ProcessLookupError, PermissionError):
                    break
                time.sleep(0.02)


def _spawn(workload: str, seed: int, rounds: int, trace: bool, scratch: Path,
           env: Dict[str, str], sweeper: _Sweeper, *, setup_only: bool) -> Dict[str, object]:
    command = [
        sys.executable, "-m", "perf.worker", "--workload", workload,
        "--seed", str(seed), "--rounds", str(rounds),
        "--trace", str(int(trace)), "--scratch", str(scratch),
    ]
    if setup_only:
        command.append("--setup-only")
    spawned = time.time()
    worker = subprocess.Popen(
        command, cwd=host.REPO_ROOT, stdout=subprocess.PIPE, text=True,
        env=dict(env, PERF_SPAWN_TIME=repr(spawned)),
        start_new_session=True,  # one killpg reaches pool, shard and run children
    )
    sweeper.groups.append(worker.pid)
    try:
        out, _ = worker.communicate(timeout=WORKER_TIMEOUT_SECONDS)
    except subprocess.TimeoutExpired:
        worker.kill()
        worker.communicate()
        raise RuntimeError(
            f"{workload}: worker exceeded {WORKER_TIMEOUT_SECONDS:.0f} s"
        ) from None
    if worker.returncode != 0:
        raise RuntimeError(f"{workload}: worker exited with {worker.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def measure(workload: str, *, seed: int, seconds: int, trace: bool) -> Dict[str, object]:
    """One workload, one fresh process tree; returns the worker's report.

    ``seconds`` is the number of timed rounds (a round is about 1 s).
    """
    scratch = host.OUT_DIR / f"scratch-{workload}-{os.getpid()}"
    tmp = scratch / "tmp"
    tmp.mkdir(parents=True)
    source_path = os.pathsep.join(
        [str(host.REPO_ROOT / "src"), str(host.REPO_ROOT)]
        + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    )
    env = dict(
        os.environ, PYTHONPATH=source_path, PYTHONHASHSEED="0", TMPDIR=str(tmp),
    )
    sweeper = _Sweeper(scratch)
    try:
        setups = []
        # setup_s is an end-to-end metric: untraced runs only. The worker
        # that goes on to run the rounds contributes the last sample.
        while not trace and len(setups) < MAX_SETUP_REPEATS - 1 and (
            len(setups) < MIN_SETUP_REPEATS - 1
            or sum(setups) < SETUP_BUDGET_SECONDS
        ):
            child = _spawn(workload, seed, 0, False, scratch, env, sweeper,
                           setup_only=True)
            setups.append(float(child["setup_s"]))
        report = _spawn(workload, seed, max(2, seconds), trace, scratch, env,
                        sweeper, setup_only=False)
        setups.append(float(report["setup_s"]))
        report["setup_samples"] = setups
        report["end_to_end"]["setup_s"] = statistics.median(setups)
        report["per_layer"]["bench.leaked_tmp_entries"] = len(os.listdir(tmp))
        return report
    finally:
        sweeper.sweep()
        shutil.rmtree(scratch, ignore_errors=True)


def contract_line(report: Dict[str, object], trace: bool) -> Dict[str, object]:
    """The JSON object the driver reads from the last line of stdout."""
    if trace:
        # Every per-layer name, every time: a layer this workload never
        # enters did no work and took no time.
        values = report["per_layer"]
        metrics = {
            name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit, _ in PER_LAYER
        }
    else:
        values = report["end_to_end"]
        metrics = {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit, _, _ in END_TO_END
        }
    return {
        "correct": bool(report["correct"]),
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": metrics,
    }


def print_report(report: Dict[str, object], trace: bool) -> None:
    facts = report["host"]
    print(
        f"== {report['workload']}  seed={report['seed']} "
        f"rounds={report['rounds']} trace={int(trace)} =="
    )
    print(
        "host: cpu_count={cpu_count} python={python} numpy={numpy} "
        "commit={commit} scratch_fs={scratch_fs} "
        "loadavg={loadavg_start:.2f}->{loadavg:.2f}".format(**facts)
    )
    print(
        f"ops_attempted={report['attempted']} ops_failed={report['failed']} "
        f"correct={report['correct']}"
    )
    units = {name: unit for name, unit, _, _ in END_TO_END}
    for name, value in report["end_to_end"].items():
        line = f"  {name:44s} {value:14.6g} {units[name]}"
        detail = report["detail"].get(name)
        if detail:
            line += (
                f"   (rounds: p10 {detail['p10']:.6g}, median "
                f"{detail['median']:.6g}, p90 {detail['p90']:.6g}, n={detail['n']})"
            )
        print(line)
    print(f"  {'setup_s samples':44s} {report['setup_samples']}")
    for name, unit, _ in PER_LAYER:
        if name in report["per_layer"]:
            print(f"  {name:44s} {report['per_layer'][name]:14.6g} {unit}")
    for warning in report["warnings"]:
        print(f"WARNING: {warning}", file=sys.stderr)


def _terminate(signum, _frame) -> None:
    sys.exit(128 + signum)  # unwinds through measure()'s finally: sweep, rmtree


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perf.run", description=__doc__)
    names = [name for name, _ in WORKLOADS]
    parser.add_argument("--workload", choices=names, help="default: all four")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS,
                        help="timed rounds per workload (one round is about 1 s)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0)
    args = parser.parse_args(argv)
    if not (host.REPO_ROOT / "src" / "repro").is_dir():
        print("perf.run: no program to measure (src/repro is missing)",
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _terminate)
    trace = bool(args.trace)

    if args.workload:
        report = measure(args.workload, seed=args.seed, seconds=args.seconds,
                         trace=trace)
        print_report(report, trace)
        print(json.dumps(contract_line(report, trace)))
        return 0

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        report = measure(name, seed=args.seed, seconds=args.seconds, trace=trace)
        print_report(report, trace)
        line = contract_line(report, trace)
        combined["correct"] = combined["correct"] and line["correct"]
        combined["attempted"] += line["attempted"]
        combined["failed"] += line["failed"]
        for metric, value in line["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
