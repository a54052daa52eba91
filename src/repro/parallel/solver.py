"""Distributed GMRES with block-Jacobi preconditioning.

The virtual-parallel counterpart of :mod:`repro.solver.gmres`: the same
GMRES loop, but every operation is decomposed by rank and reported to
the telemetry — local matvec flops, halo bytes, per-block LU
factorization and triangular solves, partial dot products and the
scalar allreduces that synchronize them. Orthogonalization is classical
Gram-Schmidt with one refinement pass (CGS2): two fused reductions per
iteration, the strategy parallel GMRES implementations (including
PETSc's) use to avoid one allreduce per inner product.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import linalg as spla

from repro.backend import get_backend
from repro.machines.cost import NullTelemetry
from repro.obs.trace import get_tracer
from repro.parallel.distributed import (
    RowBlockMatrix,
    distributed_axpy_cost,
    distributed_norm,
)
from repro.solver.block import block_columns, run_request_columns
from repro.solver.gmres import GMRESResult, gmres_column, run_column, traced_solve
from repro.solver.schwarz import grow_subdomain
from repro.util import ValidationError

_NULL = NullTelemetry()

#: Estimated flops per nonzero of an LU factor for the sparse
#: factorization itself (setup cost, charged once per solve).
FACTOR_FLOPS_PER_NNZ = 12.0
#: Flops per factor nonzero for one forward+backward triangular solve.
SOLVE_FLOPS_PER_NNZ = 4.0


class DistributedBlockJacobi:
    """One incompletely-factorized diagonal block per rank.

    Application is embarrassingly parallel (no communication) — the
    property that makes block Jacobi the default distributed
    preconditioner. Following PETSc's default (block Jacobi with ILU(0)
    sub-preconditioner, the configuration the paper ran), each diagonal
    block is factorized *incompletely* by default; pass
    ``factorization="lu"`` for exact block LU (used by small tests and
    the solver ablation). The approximation quality decreases as ranks
    are added (smaller blocks discard more coupling), so iteration
    counts grow mildly with CPU count, as observed in practice.

    SciPy's ``spilu`` (SuperLU ILUTP) stands in for PETSc's ILU(0); the
    ``fill_factor``/``drop_tol`` defaults keep fill close to the ILU(0)
    pattern (see DESIGN.md substitutions).
    """

    def __init__(
        self,
        matrix: RowBlockMatrix,
        telemetry=_NULL,
        factorization: str = "ilu",
        drop_tol: float = 1e-4,
        fill_factor: float = 3.0,
    ):
        if factorization not in ("ilu", "lu"):
            raise ValidationError(f"unknown factorization {factorization!r}")
        self._ranges = matrix.ranges
        self._factors = []
        factor_nnz = np.zeros(matrix.n_ranks)
        with get_tracer().span(
            "preconditioner setup",
            kind="solver",
            preconditioner="block_jacobi",
            factorization=factorization,
            n_ranks=int(matrix.n_ranks),
        ) as span:
            for rank, (a, b) in enumerate(matrix.ranges):
                block = matrix.local[rank][:, a:b].tocsc()
                if factorization == "lu":
                    lu = spla.splu(block)
                else:
                    lu = spla.spilu(block, drop_tol=drop_tol, fill_factor=fill_factor)
                self._factors.append(lu)
                factor_nnz[rank] = lu.L.nnz + lu.U.nnz
            span.set(factor_nnz=float(factor_nnz.sum()))
        self._factor_nnz = factor_nnz
        telemetry.compute_all(FACTOR_FLOPS_PER_NNZ * factor_nnz)
        self.shape = matrix.shape
        # Backend-prepared block application + reused apply buffer (same
        # contract as the serial BlockJacobiPreconditioner: callers must
        # not hold the returned vector across solve calls).
        self._apply = get_backend().prepare_block_apply(
            [(int(a), int(b)) for a, b in self._ranges], self._factors
        )
        self._out = np.empty(matrix.n)

    def solve(self, r: np.ndarray, telemetry=_NULL) -> np.ndarray:
        telemetry.compute_all(SOLVE_FLOPS_PER_NNZ * self._factor_nnz)
        r = np.asarray(r, dtype=float)
        return self._apply(r, self._out)

    def solve_many(self, R: np.ndarray, telemetry=_NULL) -> np.ndarray:
        """Apply the block solves to every column of ``(n, m)`` ``R``.

        Each output column is bit-identical to :meth:`solve` of that
        column (the :meth:`repro.backend.BlockApply.many` contract); the
        factors are streamed once for all columns. Returns a fresh array
        (not the shared single-vector buffer).
        """
        R = np.asarray(R, dtype=float)
        telemetry.compute_all(SOLVE_FLOPS_PER_NNZ * self._factor_nnz * R.shape[1])
        out = np.empty_like(R)
        return self._apply.many(R, out)


class DistributedRAS:
    """Distributed restricted additive Schwarz with overlap.

    Each rank's subdomain is its owned rows grown by ``overlap``
    matrix-graph layers; applying the preconditioner requires importing
    the residual values of the overlap region from neighbouring ranks
    (charged to the telemetry as a halo exchange), then a local
    factorized solve restricted back to owned rows.
    """

    def __init__(
        self,
        matrix: RowBlockMatrix,
        telemetry=_NULL,
        overlap: int = 1,
        drop_tol: float = 1e-4,
        fill_factor: float = 3.0,
    ):
        if overlap < 0:
            raise ValidationError(f"overlap must be >= 0, got {overlap}")
        csr = matrix.to_csr()
        stops = matrix.ranges[:, 1]
        self._owned = matrix.ranges
        self._subdomains: list[np.ndarray] = []
        self._own_positions: list[np.ndarray] = []
        self._factors = []
        factor_nnz = np.zeros(matrix.n_ranks)
        halo: dict[tuple[int, int], float] = {}
        with get_tracer().span(
            "preconditioner setup",
            kind="solver",
            preconditioner="ras",
            overlap=overlap,
            n_ranks=int(matrix.n_ranks),
        ) as span:
            for rank, (a, b) in enumerate(matrix.ranges):
                indices = np.arange(a, b, dtype=np.intp)
                grown = grow_subdomain(csr, indices, overlap)
                external = grown[(grown < a) | (grown >= b)]
                if len(external):
                    owners = np.searchsorted(stops, external, side="right")
                    for src, count in zip(*np.unique(owners, return_counts=True)):
                        halo[(int(src), rank)] = halo.get(
                            (int(src), rank), 0.0
                        ) + float(count * 8)
                block = csr[grown, :][:, grown].tocsc()
                lu = spla.spilu(block, drop_tol=drop_tol, fill_factor=fill_factor)
                self._factors.append(lu)
                factor_nnz[rank] = lu.L.nnz + lu.U.nnz
                self._subdomains.append(grown)
                self._own_positions.append(np.searchsorted(grown, indices))
            span.set(factor_nnz=float(factor_nnz.sum()))
        self._factor_nnz = factor_nnz
        self._halo = halo
        telemetry.compute_all(FACTOR_FLOPS_PER_NNZ * factor_nnz)
        self.shape = matrix.shape
        self._out = np.empty(matrix.n)

    def solve(self, r: np.ndarray, telemetry=_NULL) -> np.ndarray:
        telemetry.halo_exchange(self._halo)
        telemetry.compute_all(SOLVE_FLOPS_PER_NNZ * self._factor_nnz)
        out = self._out
        for (a, b), subdomain, factor, own in zip(
            self._owned, self._subdomains, self._factors, self._own_positions
        ):
            local = factor.solve(r[subdomain])
            out[a:b] = local[own]
        return out

    def solve_many(self, R: np.ndarray, telemetry=_NULL) -> np.ndarray:
        """Column-by-column RAS application (no blocked fast path yet)."""
        R = np.asarray(R, dtype=float)
        out = np.empty_like(R)
        for c in range(R.shape[1]):
            out[:, c] = self.solve(np.ascontiguousarray(R[:, c]), telemetry)
        return out


class DistributedArithmetic:
    """Row-block arithmetic for :func:`repro.solver.gmres.gmres_column`.

    Norms are per-rank partial dots plus a scalar allreduce; CGS2 makes
    two fused reductions per iteration. Every flop, allreduce and axpy
    pass is charged to ``telemetry``.
    """

    label = "distributed GMRES"

    def __init__(self, ranges: np.ndarray, telemetry=_NULL):
        self._ranges = ranges
        self._telemetry = telemetry
        self._lengths = (ranges[:, 1] - ranges[:, 0]).astype(float)

    def norm(self, v: np.ndarray) -> float:
        return distributed_norm(v, self._ranges, self._telemetry)

    def orthogonalize(self, V: np.ndarray, w: np.ndarray, H: np.ndarray, k: int) -> np.ndarray:
        Vk = V[: k + 1]
        h = []
        for _ in range(2):  # CGS2: each pass is one fused (k*8)-byte allreduce
            self._telemetry.compute_all(2.0 * (k + 1) * self._lengths)
            h.append(Vk @ w)
            self._telemetry.allreduce(8.0 * (k + 1))
            w = w - Vk.T @ h[-1]
            self.axpy_cost(k + 1)
        H[: k + 1, k] = h[0] + h[1]
        return w

    def axpy_cost(self, n_vectors: int = 1) -> None:
        distributed_axpy_cost(self._ranges, self._telemetry, n_vectors=n_vectors)


def distributed_gmres(
    matrix: RowBlockMatrix,
    b: np.ndarray,
    preconditioner: DistributedBlockJacobi | None = None,
    x0: np.ndarray | None = None,
    tol: float = 1e-7,
    restart: int = 30,
    max_iter: int = 3000,
    telemetry=_NULL,
    raise_on_fail: bool = False,
) -> GMRESResult:
    """Left-preconditioned restarted GMRES over a row-block matrix.

    The GMRES loop of :func:`repro.solver.gmres` run with
    :class:`DistributedArithmetic`: the same mathematics up to the
    Gram-Schmidt variant, with the parallel execution recorded in the
    telemetry. Validation, the zero-RHS contract and tracing match the
    serial solver (a ``gmres`` span with one ``restart`` event per
    cycle), plus a ``preconditioner_applications`` span attribute.
    """

    def run(span):
        applications = 0

        def precond(r: np.ndarray) -> np.ndarray:
            # Set on every call (a dict update; no-op when disabled) so
            # every return path reports the count.
            nonlocal applications
            applications += 1
            span.set(preconditioner_applications=applications)
            if preconditioner is None:
                return r.copy()
            return preconditioner.solve(r, telemetry)

        column = gmres_column(
            matrix.n, b, x0, tol, restart, max_iter, raise_on_fail,
            arithmetic=DistributedArithmetic(matrix.ranges, telemetry),
            solver="distributed_gmres",
            span=span,
        )
        return run_column(column, lambda v: matrix.matvec(v, telemetry), precond)

    return traced_solve("gmres", run, distributed=True, tol=tol, restart=restart)


def distributed_block_gmres(
    matrix: RowBlockMatrix,
    B: np.ndarray,
    preconditioner: DistributedBlockJacobi | None = None,
    x0s=None,
    tol: float = 1e-7,
    restart: int = 30,
    max_iter: int = 3000,
    telemetry=_NULL,
    raise_on_fail: bool = False,
    isolate_errors: bool = False,
) -> list[GMRESResult]:
    """Batched multi-RHS GMRES: solve ``K x_c = B[:, c]`` for every column.

    Per-column results are **bit-identical** to calling
    :func:`distributed_gmres` once per column with the same ``x0s[c]``
    (the serial/batched agreement the serving tier's coalesced dispatch
    depends on); the win is economic, not numeric — the matrix and the
    factorized preconditioner are streamed once per Krylov round for all
    still-active columns instead of once per column, and the telemetry
    charges a single halo exchange per batched product.

    ``B`` is ``(n, m)``; ``x0s`` is an optional sequence of ``m``
    per-column initial guesses (``None`` entries start cold). Returns
    ``m`` :class:`repro.solver.GMRESResult` records in column order.
    With ``isolate_errors=True`` a failing column's slot holds the
    raised exception instead of aborting the batch — the per-member
    failure isolation the serving tier's coalesced dispatch relies on.
    """
    arithmetic = DistributedArithmetic(matrix.ranges, telemetry)
    columns = [
        gmres_column(
            matrix.n, b, x0, tol, restart, max_iter, raise_on_fail,
            arithmetic=arithmetic, solver="distributed_block_gmres",
        )
        for b, x0 in block_columns(matrix.n, B, x0s)
    ]

    def precond(R: np.ndarray) -> np.ndarray:
        if preconditioner is None:
            return R
        return preconditioner.solve_many(R, telemetry)

    return traced_solve(
        "block_gmres",
        lambda span: run_request_columns(
            columns, lambda X: matrix.matmat(X, telemetry), precond,
            isolate=isolate_errors,
        ),
        distributed=True,
        n_rhs=len(columns),
        tol=tol,
        restart=restart,
    )
