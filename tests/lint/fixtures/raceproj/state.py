"""Module-level state for the RACE fixture project."""

CACHE = {}          # containers are not fork-unsafe resources
RESULTS = []
LIMIT = 8
_SETTINGS = dict()
