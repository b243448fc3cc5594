"""Synthetic graph generators (paper §2.5.1 and §2.2.4).

* :mod:`repro.datagen.generator` — the LDBC Datagen substitute: a scalable
  social-network generator producing correlated, skewed-degree friendship
  graphs, extended (as in the paper) with a **tunable average clustering
  coefficient** via core–periphery community structure.
* :mod:`repro.datagen.graph500` — the Graph500 Kronecker (R-MAT)
  power-law generator.
* :mod:`repro.datagen.realworld` — domain-flavored random models used to
  materialize miniature stand-ins for the six real-world datasets
  (Table 3), which are not redistributable here.
* :mod:`repro.datagen.flow` — the old (v0.2.1) vs new (v0.2.6) execution
  flow, both as a *real* edge-generation pipeline and as the Hadoop cost
  model behind the §4.8 experiment (Figure 10).
"""

from repro.facade import lazy_exports

# ``graph500`` names both a function and the module defining it: the
# function is bound here, or the module's first import would bind the
# module over it.
from repro.datagen.graph500 import Graph500Config, graph500

__all__ = [
    "sample_degrees",
    "facebook_degree_distribution",
    "Person",
    "generate_persons",
    "CORRELATION_DIMENSIONS",
    "DatagenConfig",
    "generate",
    "generate_with_flow",
    "graph500",
    "Graph500Config",
    "synthetic_replica",
    "REPLICA_PROFILES",
    "DatagenFlowModel",
    "FlowVersion",
    "HadoopClusterModel",
    "estimate_generation_time",
]

__getattr__, __dir__ = lazy_exports(__name__, __all__, {
    "repro.datagen.degrees": (
        "sample_degrees", "facebook_degree_distribution",
    ),
    "repro.datagen.persons": (
        "Person", "generate_persons", "CORRELATION_DIMENSIONS",
    ),
    "repro.datagen.generator": (
        "DatagenConfig", "generate", "generate_with_flow",
    ),
    "repro.datagen.realworld": ("synthetic_replica", "REPLICA_PROFILES"),
    "repro.datagen.flow": (
        "DatagenFlowModel", "FlowVersion", "HadoopClusterModel",
        "estimate_generation_time",
    ),
})
