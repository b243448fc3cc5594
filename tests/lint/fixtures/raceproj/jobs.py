"""Job functions dispatched into workers."""

from raceproj.resources import LOG_HANDLE
from raceproj.state import CACHE, RESULTS


def run_job(payload):
    CACHE[payload["key"]] = payload["value"]
    record(payload)
    return helper_total(payload)


def record(payload):
    RESULTS.append(payload)
    LOG_HANDLE.write(str(payload))             # RACE003: fork-shared handle


def helper_total(payload):
    # Locals are process-private: never flagged.
    totals = {}
    totals["sum"] = sum(payload.get("values", ()))
    return totals
