"""Kernels run in their workspace.

Two invariants on counts, not times, on a Graph500 graph:

* **T_proc does not depend on how the graph arrived.** A graph built in
  the process and one unpickled from a file (a cache disk hit, a
  service run child) leave glibc's malloc in different states: only a
  large free raises the size above which every block is a fresh
  mapping. A kernel whose iterations allocate slot-sized temporaries
  pays page faults for them on the unpickled graph and not on the built
  one. So, in a process that only unpickled the graph, an iterative
  kernel faults at most once per extra iteration, and a BFS, WCC or
  SSSP call faults no more than in a process that built the same graph,
  plus 10 % (and a stray page of Python's own heap). LCC is left out:
  its transient is chunked, not held in a workspace, so it faults alike
  on either graph (about 6.6 k pages a call at scale 14) and the
  comparison would hold whatever it cost.
* **The workspace budget.** No call of the five iterative kernels or of
  the five SpMV loops holds more than 3 S of numpy memory at once,
  where S is the graph's ``out_indices.nbytes``.
"""

import pickle
import tracemalloc

import pytest

from repro.algorithms.bfs import breadth_first_search
from repro.algorithms.cdlp import community_detection_lp
from repro.algorithms.pagerank import pagerank
from repro.algorithms.sssp import single_source_shortest_paths
from repro.algorithms.wcc import weakly_connected_components
from repro.datagen.graph500 import graph500
from repro.engines import spmv

#: Large enough that a slot array is far above glibc's initial 128 KiB
#: mapping threshold (426 k slots).
SCALE = 14

#: Builds or unpickles the graph, warms up every named call once, then
#: prints, for each, the fewest minor faults over three calls.
_CHILD = """
import json, pickle, sys
from repro.algorithms.bfs import breadth_first_search
from repro.algorithms.cdlp import community_detection_lp
from repro.algorithms.pagerank import pagerank
from repro.algorithms.sssp import single_source_shortest_paths
from repro.algorithms.wcc import weakly_connected_components
from repro.datagen.graph500 import graph500
from repro.engines import spmv
from repro.trace.clock import MonotonicClock

how, path, scale, names = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4:]
if how == "built":
    graph = graph500(scale, weighted=True, seed=1)
else:
    with open(path, "rb") as handle:
        graph = pickle.load(handle)
source = int(graph.vertex_ids[0])
calls = {
    "pr/10": lambda: pagerank(graph, iterations=10),
    "pr/30": lambda: pagerank(graph, iterations=30),
    "cdlp/5": lambda: community_detection_lp(graph, iterations=5),
    "cdlp/10": lambda: community_detection_lp(graph, iterations=10),
    "spmv.pr/10": lambda: spmv.run_pagerank(graph, 10),
    "spmv.pr/30": lambda: spmv.run_pagerank(graph, 30),
    "bfs": lambda: breadth_first_search(graph, source),
    "wcc": lambda: weakly_connected_components(graph),
    "sssp": lambda: single_source_shortest_paths(graph, source),
}
clock = MonotonicClock()
for name in names:  # warm-ups first: every call is then measured alike
    calls[name]()
faults = {}
for name in names:
    counts = []
    for _ in range(3):
        before = clock.minor_faults()
        calls[name]()
        counts.append(clock.minor_faults() - before)
    faults[name] = min(counts)
print(json.dumps(faults))
"""


@pytest.fixture(scope="module")
def graph():
    return graph500(SCALE, weighted=True, seed=1)


def test_faults_do_not_depend_on_how_the_graph_arrived(graph, tmp_path, fresh_python):
    """Each kernel in a process of its own: what ran before it would
    change the allocator state it starts from."""
    path = tmp_path / "graph.pkl"
    with open(path, "wb") as handle:
        pickle.dump(graph, handle, protocol=pickle.HIGHEST_PROTOCOL)

    def faults(how, *names):
        return fresh_python(_CHILD, how, str(path), str(SCALE), *names)

    # At most one fault per extra iteration.
    for name, fewer, more in (("pr", 10, 30), ("cdlp", 5, 10), ("spmv.pr", 10, 30)):
        unpickled = faults("unpickled", f"{name}/{fewer}", f"{name}/{more}")
        extra = unpickled[f"{name}/{more}"] - unpickled[f"{name}/{fewer}"]
        assert extra <= more - fewer, (name, unpickled)
    # And per call, no more than on the graph built in the process.
    for name in ("bfs", "wcc", "sssp"):
        built, unpickled = faults("built", name)[name], faults("unpickled", name)[name]
        assert unpickled <= 1.1 * built + 2, (name, unpickled, built)


def _peak(call) -> int:
    call()  # the first call's one-time costs are not the kernel's
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


#: The five iterative kernels and the five SpMV loops, on (graph, source).
_CALLS = {
    "bfs": lambda g, s: breadth_first_search(g, s),
    "pr": lambda g, s: pagerank(g, iterations=30),
    "wcc": lambda g, s: weakly_connected_components(g),
    "cdlp": lambda g, s: community_detection_lp(g, iterations=10),
    "sssp": lambda g, s: single_source_shortest_paths(g, s),
    "spmv.bfs": lambda g, s: spmv.run_bfs(g, s),
    "spmv.pr": lambda g, s: spmv.run_pagerank(g, 30),
    "spmv.wcc": lambda g, s: spmv.run_wcc(g),
    "spmv.cdlp": lambda g, s: spmv.run_cdlp(g, 10),
    "spmv.sssp": lambda g, s: spmv.run_sssp(g, s),
}


@pytest.mark.parametrize("name", list(_CALLS))
def test_a_call_holds_at_most_three_slot_arrays(graph, name):
    source = int(graph.vertex_ids[0])
    slot_bytes = graph.out_indices.nbytes
    peak = _peak(lambda: _CALLS[name](graph, source))
    assert peak <= 3 * slot_bytes, f"{name}: {peak / slot_bytes:.2f} S"
