"""Host fingerprint, noise guard and resource readings.

Every output carries the facts a reader needs before comparing two
numbers: how many CPUs, which Python and numpy, which commit, what
filesystem the scratch directory (and so every fsync) sits on, and how
loaded the machine was before and after.
"""

from __future__ import annotations

import os
import platform
import resource
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

__all__ = [
    "REPO_ROOT",
    "OUT_DIR",
    "PROCESS_GROUPS_FILE",
    "NOISE_RATIO_LIMIT",
    "fingerprint",
    "filesystem_type",
    "loadavg",
    "peak_rss_mb",
    "noise_warnings",
]

REPO_ROOT = Path(__file__).resolve().parent.parent
#: Scratch directories, traces and A/A reports; ignored by git.
OUT_DIR = REPO_ROOT / "perf" / "out"

#: Under a scratch directory: one process-group id per line, written by a
#: workload for whatever it starts outside its own group.
PROCESS_GROUPS_FILE = "process-groups"

#: median / p10 of round times above which a run is flagged as noisy.
NOISE_RATIO_LIMIT = 1.25


def loadavg() -> float:
    return os.getloadavg()[0]


def filesystem_type(path: Path) -> str:
    """Filesystem type of the mount holding *path* (longest mount prefix)."""
    target = str(Path(path).resolve())
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts", "r", encoding="utf-8") as handle:
            for line in handle:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mount = fields[1]
                prefix = mount if mount.endswith("/") else mount + "/"
                if (target + "/").startswith(prefix) and len(mount) > len(best):
                    best, fstype = mount, fields[2]
    except OSError:
        pass
    return fstype


def _commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def fingerprint(scratch: Path) -> Dict[str, object]:
    import numpy

    return {
        "cpu_count": os.cpu_count() or 1,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _commit(),
        "platform": sys.platform,
        "scratch_fs": filesystem_type(scratch),
        "loadavg": loadavg(),
    }


def peak_rss_mb() -> float:
    """Largest resident set of this process or any waited-for descendant."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # Linux reports KiB


def noise_warnings(noise: float, load_start: float) -> List[str]:
    """Loud, non-fatal: the numbers stand, the reader is told to doubt them."""
    found = []
    cpus = os.cpu_count() or 1
    if noise > NOISE_RATIO_LIMIT:
        found.append(
            f"host.noise_ratio {noise:.2f} > {NOISE_RATIO_LIMIT}: rounds "
            f"disagree; rerun before trusting a comparison"
        )
    if load_start > cpus:
        found.append(
            f"load average {load_start:.2f} exceeded {cpus} CPU(s) at start: "
            f"something else was running"
        )
    return found
