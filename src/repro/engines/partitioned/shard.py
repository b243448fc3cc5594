"""One shard: a row block of the product, and the worker entrypoint.

A shard is a :class:`repro.engines.spmv.SpMVEngine` restricted to the
rows it owns — the CSR slots whose target it owns, in original slot
order. That block is immutable and is all a shard holds: the iteration
state lives with the coordinator and arrives whole with every product.
:func:`apply_product` is a shard's entire behavior; the inline
transport calls it in-process and :func:`shard_main` runs it under
:func:`repro.proc.serve` (the same supervised-child loop as the runtime
pool's workers), adding a ``partitioned.shard.step`` fault-point check
that lets a chaos plan SIGKILL the shard mid-superstep. Arrays that
cross a pipe, either way, pass through :func:`canonical`.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.engines.spmv import SpMVEngine
from repro.faults.points import IoFaultPlan, check, install_io_plan
from repro.proc import serve
from repro.trace import current_tracer

__all__ = [
    "READY", "STEP_FAULT_POINT", "SUMMED", "Product", "apply_product",
    "canonical", "shard_main",
]

#: Name in :data:`repro.faults.points.FAULT_POINTS`; checked before each
#: product so a chaos plan can kill a shard mid-superstep.
STEP_FAULT_POINT = "partitioned.shard.step"

#: One product request: (SpMVEngine method name, args, keyword args).
Product = Tuple[str, tuple, Dict[str, object]]

#: The deployment handshake: answered with an empty reply and no
#: compute, so a deployment is live — forked, booted, in its ``serve``
#: loop — before the first product is timed.
READY: Product = ("ready", (), {})

#: Products whose share is a full-length partial sum of exact integers
#: (LCC's counts, each triangle found by the one shard owning its tail)
#: rather than the owned rows: the coordinator adds these up.
SUMMED = frozenset({"lcc"})


def apply_product(block: SpMVEngine, product: Product) -> np.ndarray:
    """This shard's share of one product: ``y[owned]``, or the whole
    partial sum for a :data:`SUMMED` product."""
    op, args, kwargs = product
    y = getattr(block, op)(*args, **kwargs)
    return y if op in SUMMED else y[block.rows]


def canonical(value):
    """``value`` as it came off a pipe, an array re-viewed with its
    builtin dtype (a view: nothing is copied).

    Unpickling rebuilds a dtype as a copy (``np.dtype.__reduce__``):
    equal to ``float64``, say, but not numpy's own instance, and
    ``np.minimum.at`` / ``np.maximum.at`` then leave their fast path
    for a loop many times slower.
    """
    if isinstance(value, np.ndarray):
        return value.view(value.dtype.type)
    return value


def shard_main(
    task_conn, result_conn, shard_id: int, block: SpMVEngine,
    chaos: Optional[Dict[str, object]],
) -> None:
    """Shard worker entrypoint: the command body that
    :func:`repro.proc.serve` loops over until the sentinel.

    Every exception becomes a structured failure envelope (RUN001) —
    except the chaos kill, which is the point.
    """
    if chaos is not None:
        install_io_plan(IoFaultPlan.from_dict(chaos))

    def run_command(product: Product, reply: Dict[str, object]) -> None:
        reply["shard"] = shard_id
        if product[0] == READY[0]:
            reply["body"] = None
            return
        # The chaos plane's hook: a kill-kind fault here is a shard
        # dying between the barrier and its compute.
        check(STEP_FAULT_POINT)
        op, args, kwargs = product
        with current_tracer().span("shard-compute", shard=shard_id, op=op):
            reply["body"] = apply_product(
                block, (op, tuple(canonical(arg) for arg in args), kwargs)
            )

    serve(task_conn, result_conn, run_command, process=f"shard-{shard_id}")
