"""Platform registry: the six drivers of paper Table 5."""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Tuple

from repro.exceptions import ConfigurationError
from repro.platforms.base import PlatformDriver, PlatformInfo
from repro.platforms.giraph import GiraphDriver, GIRAPH_INFO
from repro.platforms.graphx import GraphXDriver, GRAPHX_INFO
from repro.platforms.powergraph import PowerGraphDriver, POWERGRAPH_INFO
from repro.platforms.graphmat import GraphMatDriver, GRAPHMAT_INFO
from repro.platforms.openg import OpenGDriver, OPENG_INFO
from repro.platforms.pgxd import PGXDDriver, PGXD_INFO
from repro.platforms.reference import MEASURED_PATHS, ReferenceDriver

__all__ = [
    "PLATFORMS",
    "EXTRA_PLATFORMS",
    "get_platform",
    "platform_names",
    "create_driver",
]

#: name -> (info, driver factory), in the paper's Table 5 order.
PLATFORMS: Dict[str, Tuple[PlatformInfo, Callable[[], PlatformDriver]]] = {
    "giraph": (GIRAPH_INFO, GiraphDriver),
    "graphx": (GRAPHX_INFO, GraphXDriver),
    "powergraph": (POWERGRAPH_INFO, PowerGraphDriver),
    "graphmat": (GRAPHMAT_INFO, GraphMatDriver),
    "openg": (OPENG_INFO, OpenGDriver),
    "pgxd": (PGXD_INFO, PGXDDriver),
}

#: Platforms beyond the paper's Table 5 roster (requirement R5: easy to
#: add new platforms). Not included in the paper's experiments. These
#: are the measured family: ``pythonref`` (the numpy kernels) and one
#: ``pythonref-<engine>`` per programming-model engine.
EXTRA_PLATFORMS: Dict[str, Tuple[PlatformInfo, Callable[[], PlatformDriver]]] = {
    info.name.lower(): (info, partial(ReferenceDriver, path=path))
    for path, (info, _engine) in MEASURED_PATHS.items()
}


def platform_names() -> List[str]:
    """All registered platform keys, Table 5 order."""
    return list(PLATFORMS)


def _lookup(name: str) -> Tuple[PlatformInfo, Callable[[], PlatformDriver]]:
    key = name.lower()
    if key in PLATFORMS:
        return PLATFORMS[key]
    if key in EXTRA_PLATFORMS:
        return EXTRA_PLATFORMS[key]
    known = ", ".join(list(PLATFORMS) + list(EXTRA_PLATFORMS))
    raise ConfigurationError(f"unknown platform {name!r}; known: {known}")


def get_platform(name: str) -> PlatformInfo:
    """Roster metadata for one platform (Table 5 or extras)."""
    return _lookup(name)[0]


def create_driver(name: str, **kwargs) -> PlatformDriver:
    """Instantiate a fresh driver for one platform."""
    _, factory = _lookup(name)
    return factory(**kwargs)
