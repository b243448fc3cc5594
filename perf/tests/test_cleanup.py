"""Leave nothing behind: SIGTERM mid-run kills the tree and the scratch."""

import os
import signal
import subprocess
import sys
import time

from perf.host import OUT_DIR, PROCESS_GROUPS_FILE, REPO_ROOT


def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


def test_sigterm_stops_the_server_and_removes_the_scratch():
    command = subprocess.Popen(
        [sys.executable, "-m", "perf.run", "--workload", "service",
         "--seconds", "60"],
        cwd=REPO_ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    scratch = OUT_DIR / f"scratch-service-{command.pid}"
    groups = scratch / PROCESS_GROUPS_FILE
    try:
        deadline = time.monotonic() + 60
        # The server registers its group as soon as it is spawned; wait for
        # its spool too, so the signal lands while it is serving.
        while time.monotonic() < deadline:
            if groups.exists() and (scratch / "spool").exists():
                break
            time.sleep(0.05)
        server_groups = [int(line) for line in groups.read_text().split()]
        assert server_groups and all(_group_alive(g) for g in server_groups)

        command.send_signal(signal.SIGTERM)
        assert command.wait(timeout=30) == 128 + signal.SIGTERM
    finally:
        if command.poll() is None:
            command.kill()
            command.wait()
    assert not scratch.exists()
    assert not any(_group_alive(g) for g in server_groups)
    survivors = subprocess.run(
        ["ps", "-eo", "args"], capture_output=True, text=True, check=True
    ).stdout
    assert str(scratch) not in survivors
