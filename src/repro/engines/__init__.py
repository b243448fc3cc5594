"""Programming-model engines (paper requirement R1).

"For platforms, we do not distinguish between programming model and
support different models, including vertex-centric, gather-apply-
scatter, and sparse matrix operations." (§2.1)

The six simulated platforms *model* those systems; this package makes
the programming models themselves executable, in miniature:

* :mod:`repro.engines.pregel` — Giraph's model: superstep-synchronous
  vertex programs exchanging messages, voting to halt;
* :mod:`repro.engines.gas` — PowerGraph's model: gather / apply /
  scatter over vertex neighborhoods with selective activation;
* :mod:`repro.engines.spmv` — GraphMat's model: iterated generalized
  sparse-matrix–vector products over algebraic semirings.

Every engine implements the applicable core algorithms, and the test
suite proves each implementation output-equivalent to the reference
kernels under the Graphalytics validation rules — the concrete meaning
of "the definition of the algorithms of Graphalytics is abstract"
(§2.2.3): one abstract task, three programming models, identical output.
"""

from functools import partial
from typing import Callable

from repro.exceptions import ConfigurationError
from repro.engines.pregel import PregelEngine, VertexProgram
from repro.engines.gas import GASEngine, GASProgram
from repro.engines.spmv import SpMVEngine, Semiring

__all__ = [
    "PregelEngine",
    "VertexProgram",
    "GASEngine",
    "GASProgram",
    "SpMVEngine",
    "Semiring",
    "engine_call",
]

#: Acronym -> (front-end every engine module has, benchmark-description
#: parameter -> that front-end's keyword). No engine formulates LCC (its
#: neighborhood intersections are not neighborhood-sum shaped).
_FRONT_ENDS = {
    "bfs": ("run_bfs", {"source_vertex": "source"}),
    "sssp": ("run_sssp", {"source_vertex": "source"}),
    "wcc": ("run_wcc", {}),
    "cdlp": ("run_cdlp", {"iterations": "iterations"}),
    "pr": ("run_pagerank", {"iterations": "iterations", "damping": "damping"}),
}


def engine_call(module, algorithm: str, params=None, **extra) -> Callable:
    """One benchmark job as a call on an engine module: ``call(graph)``.

    Binds only the parameters given, so the defaults are the engines'
    own; ``extra`` keywords go through untouched (``engine=`` for a
    product engine driving the :mod:`~repro.engines.spmv` loops,
    ``graph=`` to bind the graph too). Checked before anything runs.
    """
    params = dict(params or {})
    try:
        name, keywords = _FRONT_ENDS[algorithm.lower()]
    except KeyError:
        raise ConfigurationError(
            f"no engine front-end for algorithm {algorithm!r}; "
            f"known: {', '.join(_FRONT_ENDS)}"
        ) from None
    unknown = set(params) - set(keywords)
    if unknown:
        raise ConfigurationError(
            f"{algorithm}: unknown parameters {sorted(unknown)}"
        )
    if "source_vertex" in keywords and params.get("source_vertex") is None:
        raise ConfigurationError(
            f"{algorithm} requires parameter 'source_vertex'"
        )
    arguments = {keywords[name]: params[name] for name in sorted(params)}
    return partial(getattr(module, name), **arguments, **extra)
