"""Restarted GMRES (Generalized Minimal Residual) and the Krylov core.

Arnoldi orthogonalization, Givens-rotation updates of the Hessenberg
least-squares problem, left preconditioning, and restarts — the solver
configuration the paper runs through PETSc. :func:`gmres_column` is the
package's only GMRES loop, written as a *request coroutine*: it yields
``("matvec", v)`` and ``("precond", r)`` and is sent the results, so one
arithmetic runs a vector at a time (:func:`run_column`) or batched across
right-hand sides (:func:`repro.solver.block.run_request_columns`). What
differs between one address space and the virtual-parallel row blocks —
``norm``, ``orthogonalize`` and ``axpy_cost`` — comes from an arithmetic
object: :data:`SERIAL` (modified Gram-Schmidt) or
:class:`repro.parallel.solver.DistributedArithmetic` (CGS2, charged).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.obs.trace import NULL_SPAN, get_tracer
from repro.solver.operator import AsOperator
from repro.solver.preconditioner import IdentityPreconditioner
from repro.util import ConvergenceError, ShapeError, ValidationError


@dataclass
class GMRESResult:
    """Solution and convergence record of a GMRES run.

    Attributes
    ----------
    x:
        Solution vector.
    converged:
        Whether the (preconditioned) residual tolerance was met.
    iterations:
        Total inner iterations performed.
    restarts:
        Number of restart cycles started.
    residual_norm:
        Final preconditioned residual norm.
    history:
        Preconditioned residual norm after every inner iteration.
    """

    x: np.ndarray
    converged: bool
    iterations: int
    restarts: int
    residual_norm: float
    history: list[float] = field(default_factory=list)


def request(op: str, payload: np.ndarray):
    """Yield one ``"matvec"``/``"precond"`` request; the driver sends the result."""
    return (yield (op, payload))


def run_column(column, matvec, precond):
    """Drive one request coroutine with single-vector calls; return its result."""
    ops = {"matvec": matvec, "precond": precond}
    try:
        op, vector = next(column)
        while True:
            op, vector = column.send(ops[op](vector))
    except StopIteration as stop:
        return stop.value


def _check_finite(name: str, v: np.ndarray, hint: str = "") -> None:
    bad = int(np.count_nonzero(~np.isfinite(v)))
    if bad:
        raise ValidationError(f"{name} contains {bad} non-finite entries{hint}")


def validate_system(n, b, x0, tol, restart=None):
    """Check a solve's inputs (``restart`` only for GMRES); return fresh ``(b, x)``."""
    b = np.asarray(b, dtype=float).ravel()
    if b.shape != (n,):
        raise ShapeError(f"b must be ({n},), got {b.shape}")
    if restart is not None and restart < 1:
        raise ValidationError(f"restart must be >= 1, got {restart}")
    if tol <= 0:
        raise ValidationError(f"tol must be > 0, got {tol}")
    _check_finite("b", b)
    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float).copy()
    if x.shape != (n,):
        raise ShapeError(f"x0 must be ({n},), got {x.shape}")
    _check_finite("x0", x, " (poisoned warm start?)")
    return b, x


def zero_solution(x: np.ndarray) -> GMRESResult:
    """Zero RHS: the exact solution is zero whatever the (validated) ``x0``.

    A fresh zero vector, never ``x0`` itself, with ``history == [0.0]``.
    """
    return GMRESResult(np.zeros_like(x), True, 0, 0, 0.0, [0.0])


def traced_solve(name: str, run, **attrs):
    """Run ``run(span)`` inside a ``name`` solver span of the ambient tracer.

    ``run`` returns a :class:`GMRESResult` or a block's per-column list
    (an isolated failure's slot holds its exception). The span ends with
    summed iterations, the worst residual, convergence, ``restarts`` when
    ``restart`` is an attribute, and a block's ``failed_columns``. A
    disabled tracer costs one attribute check; ``run`` gets ``NULL_SPAN``.
    """
    tracer = get_tracer()
    if not tracer.enabled:
        return run(NULL_SPAN)
    with tracer.span(name, kind="solver", **attrs) as span:
        out = run(span)
        block = isinstance(out, list)
        solved = [r for r in (out if block else [out]) if isinstance(r, GMRESResult)]
        summary = {"iterations": sum(r.iterations for r in solved)}
        if "restart" in attrs:
            summary["restarts"] = sum(r.restarts for r in solved)
        summary["residual"] = float(max((r.residual_norm for r in solved), default=0.0))
        summary["converged"] = bool(solved) and all(r.converged for r in solved)
        if block:
            summary["failed_columns"] = len(out) - len(solved)
        span.set(**summary)
        return out


class SerialArithmetic:
    """One address space: modified Gram-Schmidt, free axpys.

    Serial results feed the FEM models, so they keep the robust MGS sweep.
    """

    label = "GMRES"

    def norm(self, v: np.ndarray) -> float:
        return float(np.linalg.norm(v))

    def orthogonalize(self, V: np.ndarray, w: np.ndarray, H: np.ndarray, k: int) -> np.ndarray:
        """Orthogonalize ``w`` against ``V[:k+1]`` into column ``k`` of ``H``."""
        for i in range(k + 1):
            H[i, k] = float(np.dot(w, V[i]))
            w -= H[i, k] * V[i]
        return w

    def axpy_cost(self, n_vectors: int = 1) -> None:
        pass


SERIAL = SerialArithmetic()


def gmres_column(
    n: int,
    b,
    x0,
    tol: float,
    restart: int,
    max_iter: int,
    raise_on_fail: bool,
    arithmetic=SERIAL,
    solver: str = "gmres",
    span=NULL_SPAN,
):
    """GMRES on one right-hand side: a request coroutine returning a result.

    ``solver`` labels a raised :class:`ConvergenceError`; ``span`` gets
    one ``restart`` event per cycle with the cycle's starting residual.
    """
    b, x = validate_system(n, b, x0, tol, restart)
    norm = arithmetic.norm
    b_pre_norm = norm((yield from request("precond", b)))
    if b_pre_norm == 0.0:
        return zero_solution(x)
    target = tol * b_pre_norm

    history: list[float] = []
    total_iters = 0
    restarts = 0

    # Krylov workspaces are allocated once and reused across restart
    # cycles (every entry read within a cycle is written first, so no
    # re-zeroing is needed); allocating (m+1) x n basis storage per
    # cycle was measurable on clinical systems with many restarts.
    m_cap = min(restart, max_iter)
    V = np.empty((m_cap + 1, n))
    H = np.zeros((m_cap + 1, m_cap))
    cs = np.empty(m_cap)
    sn = np.empty(m_cap)
    g = np.empty(m_cap + 1)

    def residual(x):
        Ax = yield from request("matvec", x)
        return (yield from request("precond", b - Ax))

    while total_iters < max_iter:
        restarts += 1
        r = yield from residual(x)
        arithmetic.axpy_cost()  # b - Ax
        beta = norm(r)
        history.append(beta)
        span.event("restart", cycle=restarts, residual=beta, iteration=total_iters)
        if beta <= target:
            return GMRESResult(x, True, total_iters, restarts - 1, beta, history)

        m = min(restart, max_iter - total_iters)
        V[0] = r / beta
        g[0] = beta
        k_used = 0
        breakdown = False

        for k in range(m):
            Av = yield from request("matvec", V[k])
            w = yield from request("precond", Av)
            w = arithmetic.orthogonalize(V, w, H, k)
            h_next = norm(w)
            H[k + 1, k] = h_next
            if h_next > 1e-14 * beta:
                V[k + 1] = w / h_next
                arithmetic.axpy_cost()
            # Apply existing Givens rotations to the new column.
            for i in range(k):
                temp = cs[i] * H[i, k] + sn[i] * H[i + 1, k]
                H[i + 1, k] = -sn[i] * H[i, k] + cs[i] * H[i + 1, k]
                H[i, k] = temp
            # New rotation to zero H[k+1, k].
            denom = np.hypot(H[k, k], H[k + 1, k])
            if denom == 0.0:
                cs[k], sn[k] = 1.0, 0.0
            else:
                cs[k] = H[k, k] / denom
                sn[k] = H[k + 1, k] / denom
            H[k, k] = cs[k] * H[k, k] + sn[k] * H[k + 1, k]
            H[k + 1, k] = 0.0
            g[k + 1] = -sn[k] * g[k]
            g[k] = cs[k] * g[k]
            total_iters += 1
            k_used = k + 1
            resid = abs(g[k + 1])
            history.append(float(resid))
            if h_next <= 1e-14 * beta:
                breakdown = True
            if resid <= target or breakdown:
                break

        # Solve the triangular system for the Krylov coefficients. On a
        # singular operator the Krylov space can exhaust (lucky
        # breakdown) with a singular H; zero the unresolvable
        # coefficients and verify the true residual below.
        y = np.zeros(k_used)
        for i in range(k_used - 1, -1, -1):
            if abs(H[i, i]) < 1e-14 * beta:
                y[i] = 0.0
                breakdown = True
            else:
                y[i] = (g[i] - H[i, i + 1 : k_used] @ y[i + 1 :]) / H[i, i]
        x = x + V[:k_used].T @ y
        arithmetic.axpy_cost(k_used)

        if breakdown:
            # The Givens estimate is unreliable after a breakdown; check
            # the true residual and stop (restarting cannot improve a
            # stagnated singular system).
            final = norm((yield from residual(x)))
            history.append(final)
            if raise_on_fail and final > target:
                raise ConvergenceError(
                    f"{arithmetic.label} breakdown: Krylov space exhausted before "
                    f"reaching the tolerance (relative residual "
                    f"{final / b_pre_norm:.3e}); the operator may be singular",
                    iterations=total_iters,
                    residual=final,
                    solver=solver,
                )
            return GMRESResult(
                x, final <= target, total_iters, restarts, final, history
            )

        final = abs(g[k_used])
        if final <= target:
            return GMRESResult(x, True, total_iters, restarts, final, history)

    final = norm((yield from residual(x)))
    if raise_on_fail:
        raise ConvergenceError(
            f"{arithmetic.label} failed to reach tol={tol} in {total_iters} "
            f"iterations (residual {final / b_pre_norm:.3e} relative)",
            iterations=total_iters,
            residual=final,
            solver=solver,
        )
    return GMRESResult(x, final <= target, total_iters, restarts, final, history)


def gmres(
    operator,
    b: np.ndarray,
    x0: np.ndarray | None = None,
    preconditioner=None,
    tol: float = 1e-8,
    restart: int = 30,
    max_iter: int = 2000,
    raise_on_fail: bool = False,
) -> GMRESResult:
    """Solve ``A x = b`` with left-preconditioned restarted GMRES.

    Parameters
    ----------
    operator:
        Square matrix or LinearOperator.
    preconditioner:
        Object with ``solve(r)`` approximating ``A^{-1} r``; defaults to
        identity.
    tol:
        Relative tolerance on the preconditioned residual norm
        ``||M^{-1}(b - A x)|| / ||M^{-1} b||``.
    restart:
        Krylov subspace dimension per cycle (GMRES(restart)).
    max_iter:
        Total inner-iteration budget across restarts.
    raise_on_fail:
        Raise :class:`ConvergenceError` instead of returning a
        non-converged result.

    Notes
    -----
    A zero right-hand side (``||M^{-1} b|| == 0``) short-circuits: the
    exact solution of the (nonsingular) system is the zero vector, so
    the result is ``x = 0`` regardless of ``x0`` (which is still
    shape-validated), with ``iterations == 0`` and ``history == [0.0]``
    (the single entry is the already-converged initial residual of the
    returned solution).

    When the ambient :class:`repro.obs.Tracer` is enabled, the solve is
    wrapped in a ``gmres`` span carrying one ``restart`` event per
    cycle (with the cycle's starting residual) and final convergence
    attributes; a disabled tracer costs one attribute check.
    """
    A = AsOperator(operator)
    n = A.shape[0]
    M = preconditioner if preconditioner is not None else IdentityPreconditioner(n)

    def run(span):
        column = gmres_column(n, b, x0, tol, restart, max_iter, raise_on_fail, span=span)
        return run_column(column, A.matvec, M.solve)

    return traced_solve("gmres", run, tol=tol, restart=restart)
