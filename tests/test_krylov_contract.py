"""Input contract shared by every Krylov entry point.

The six public solvers run one GMRES loop and one CG loop, so they
validate their inputs the same way: a bad ``restart`` (GMRES only), a
non-positive ``tol``, a non-finite right-hand side, and a wrong-shaped
or non-finite initial guess are rejected before any iteration, and a
zero right-hand side returns a fresh zero vector with ``history ==
[0.0]`` whatever the initial guess was.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import sparse

from repro.parallel.distributed import RowBlockMatrix
from repro.parallel.solver import distributed_block_gmres, distributed_gmres
from repro.solver import (
    block_conjugate_gradient,
    block_gmres,
    conjugate_gradient,
    gmres,
)
from repro.util import ShapeError, ValidationError

N = 12
RANGES = np.array([[0, 5], [5, N]])


def _matrix():
    main = 2.4 * np.ones(N)
    off = -1.0 * np.ones(N - 1)
    return sparse.diags([off, main, off], [-1, 0, 1], format="csr")


def _single(solver):
    def solve(b, x0=None, **options):
        return solver(_matrix(), b, x0=x0, **options)

    return solve


def _block(solver):
    def solve(b, x0=None, **options):
        return solver(_matrix(), b[:, None], x0s=[x0], **options)[0]

    return solve


def _distributed(b, x0=None, **options):
    matrix = RowBlockMatrix.from_csr(_matrix(), RANGES)
    return distributed_gmres(matrix, b, x0=x0, **options)


def _distributed_block(b, x0=None, **options):
    matrix = RowBlockMatrix.from_csr(_matrix(), RANGES)
    return distributed_block_gmres(matrix, b[:, None], x0s=[x0], **options)[0]


GMRES_ENTRY_POINTS = {
    "gmres": _single(gmres),
    "block_gmres": _block(block_gmres),
    "distributed_gmres": _distributed,
    "distributed_block_gmres": _distributed_block,
}
ENTRY_POINTS = {
    **GMRES_ENTRY_POINTS,
    "conjugate_gradient": _single(conjugate_gradient),
    "block_conjugate_gradient": _block(block_conjugate_gradient),
}

ones = np.ones(N)
poisoned = np.ones(N)
poisoned[3] = np.nan


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
@pytest.mark.parametrize(
    "inputs, error",
    [
        (dict(b=ones, tol=0.0), ValidationError),
        (dict(b=ones, tol=-1e-8), ValidationError),
        (dict(b=poisoned), ValidationError),
        (dict(b=ones, x0=np.zeros(N - 1)), ShapeError),
        (dict(b=ones, x0=poisoned), ValidationError),
    ],
    ids=["tol-zero", "tol-negative", "nonfinite-b", "x0-shape", "nonfinite-x0"],
)
def test_rejects_bad_input(name, inputs, error):
    with pytest.raises(error):
        ENTRY_POINTS[name](**inputs)


@pytest.mark.parametrize("name", sorted(GMRES_ENTRY_POINTS))
@pytest.mark.parametrize("restart", [0, -3])
def test_gmres_rejects_bad_restart(name, restart):
    with pytest.raises(ValidationError):
        GMRES_ENTRY_POINTS[name](ones, restart=restart)


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_zero_rhs_returns_fresh_zero_vector(name):
    x0 = np.full(N, 3.0)
    result = ENTRY_POINTS[name](np.zeros(N), x0=x0)
    assert result.converged
    assert result.iterations == 0 and result.restarts == 0
    assert result.history == [0.0]
    assert result.residual_norm == 0.0
    assert result.x.shape == (N,) and np.all(result.x == 0.0)
    assert result.x is not x0
    assert np.all(x0 == 3.0)
