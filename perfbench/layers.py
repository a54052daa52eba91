"""Per-layer attribution from outside the program.

:class:`LayerTrace` replaces the public entry points of each layer with
timing wrappers for the duration of a traced run. Every wrapper adds its
call's wall time and a call count to the layer's bucket; the workload
takes one snapshot per timed operation. Nothing under ``src/`` changes:
the wrappers are installed by assigning module and class attributes and
are removed by :meth:`LayerTrace.restore`.

Functions imported by name into a caller's module are patched where the
caller looks them up (``repro.core.pipeline.register_rigid``, not
``repro.registration.rigid.register_rigid``).
"""

from __future__ import annotations

import time
from collections import defaultdict

#: Layers whose wall time adds up to one scan without overlapping:
#: their sum over a scan's wall time is the attributed fraction.
SCAN_LAYERS = (
    "registration.rigid",
    "segmentation.prototypes",
    "segmentation.knn",
    "surface.correspondence",
    "fem.simulate",
    "imaging.grid_disp",
    "imaging.invert",
    "imaging.warp",
    "core.match",
)


class LayerTrace:
    def __init__(self):
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []
        self._krylov_depth = 0

    # -- installation -------------------------------------------------------

    def _wrap(self, owner, attr: str, layer: str, krylov_only: bool = False,
              krylov: bool = False) -> None:
        original = getattr(owner, attr)
        trace = self

        def wrapper(*args, **kwargs):
            if krylov_only and trace._krylov_depth == 0:
                return original(*args, **kwargs)
            if krylov:
                trace._krylov_depth += 1
            t0 = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                trace.seconds[layer] += time.perf_counter() - t0
                trace.calls[layer] += 1
                if krylov:
                    trace._krylov_depth -= 1

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def install(self) -> "LayerTrace":
        import repro.core.pipeline as pipeline
        import repro.parallel.simulation as simulation
        import repro.resilience.escalation as escalation
        from repro.core.pipeline import IntraoperativePipeline
        from repro.mesh.generator import GridTetraMesher
        from repro.parallel.distributed import RowBlockMatrix
        from repro.parallel.solver import DistributedBlockJacobi
        from repro.segmentation.knn import KNNClassifier
        from repro.segmentation.prototypes import PrototypeSet

        w = self._wrap
        w(pipeline, "register_rigid", "registration.rigid")
        w(pipeline, "select_prototypes", "segmentation.prototypes")
        w(PrototypeSet, "update_features", "segmentation.prototypes")
        w(KNNClassifier, "segment", "segmentation.knn")
        w(pipeline, "surface_correspondence", "surface.correspondence")
        w(pipeline, "prepare_solve_context", "fem.context")
        for module in (pipeline, escalation, simulation):
            w(module, "simulate_parallel", "fem.simulate")
        w(pipeline, "simulate_parallel_batch", "fem.simulate")
        w(simulation, "build_distributed_system", "fem.assembly")
        w(DistributedBlockJacobi, "__init__", "solver.factor")
        w(simulation, "distributed_gmres", "solver.krylov", krylov=True)
        w(RowBlockMatrix, "matvec", "solver.matvec", krylov_only=True)
        w(RowBlockMatrix, "matmat", "solver.matvec", krylov_only=True)
        w(DistributedBlockJacobi, "solve", "solver.precond", krylov_only=True)
        w(DistributedBlockJacobi, "solve_many", "solver.precond", krylov_only=True)
        w(GridTetraMesher, "displacement_on_grid", "imaging.grid_disp")
        w(pipeline, "invert_displacement_field", "imaging.invert")
        w(pipeline, "warp_volume", "imaging.warp")
        w(IntraoperativePipeline, "_match_metrics", "core.match")
        return self

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- snapshots ----------------------------------------------------------

    def take(self) -> dict:
        """Seconds and call counts since the previous snapshot; resets them."""
        snap = {
            "seconds": dict(self.seconds),
            "calls": dict(self.calls),
            "wrapper_calls": sum(self.calls.values()),
        }
        self.seconds.clear()
        self.calls.clear()
        return snap


def wrapper_overhead_s(calls: int = 20000) -> float:
    """Seconds one wrapped call costs over a direct call (median of 5)."""
    import statistics

    class _Owner:
        @staticmethod
        def noop():
            return None

    trace = LayerTrace()
    direct = _Owner.noop
    trace._wrap(_Owner, "noop", "calibration")
    wrapped = _Owner.noop
    deltas = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(calls):
            direct()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter()
        deltas.append(max(0.0, (t2 - t1) - (t1 - t0)) / calls)
    return statistics.median(deltas)
