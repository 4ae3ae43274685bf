"""Eigenvalue solvers used as the oracle layer by every module.

``extreme_eigenvalue`` is the one extreme-eigenpair path: LOBPCG on the
sparse matrix from the all-ones start vector, or a dense ``eigh`` of the
same matrix below LOBPCG's minimum size.  Every pair it returns has
passed a residual check.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .ops import ETA, OperatorSum, assemble_dense, assemble_sparse

# LOBPCG needs five rows per start vector; scipy goes dense below that.
LOBPCG_MIN_DIM = 5


@dataclass
class SpectralResult:
    value: float
    vector: np.ndarray
    iterations: int
    residual: float
    converged: bool  # always True: an unverified pair raises instead
    method: str  # "lobpcg" or "dense"


def extreme_eigenvalue(op: OperatorSum, which: str = "max", tol: float = 1e-10,
                       max_iter: int = 5000) -> SpectralResult:
    """Largest or smallest eigenpair of a local-operator sum.

    When the off-diagonal signs make the extreme eigenspace a Perron one
    (non-negative entries for "max", non-positive for "min": the Perron
    vector of G, the ground state of a stoquastic Hamiltonian) the vector
    is the all-ones vector projected onto that eigenspace and normalised:
    non-negative and the same whichever solver ran.  Otherwise the
    all-ones vector may miss the eigenspace, so a fixed random vector
    joins LOBPCG's start block.  Raises ValueError unless the residual
    ||A v - lambda v|| is at most tol * max(1, norm bound); max_iter caps
    the LOBPCG iterations.
    """
    if which not in ("max", "min"):
        raise ValueError("which must be 'max' or 'min'")
    dim = 2**op.n
    mat = assemble_sparse(op)
    bound = tol * max(1.0, op.norm_bound())
    coo = mat.tocoo()
    off = coo.data[coo.row != coo.col]
    start = np.ones((dim, 1))
    if np.any(off < -ETA if which == "max" else off > ETA):
        start = np.hstack([start, np.random.default_rng(0).random((dim, 1))])
    if dim < LOBPCG_MIN_DIM * start.shape[1]:
        method, iterations = "dense", 0
        evals, evecs = np.linalg.eigh(mat.toarray())
        edge = evals[-1] if which == "max" else evals[0]
        space = evecs[:, np.abs(evals - edge) <= bound]
        v = space @ space.sum(axis=0)
        if np.linalg.norm(v) <= 1e-8:  # all-ones orthogonal to the space
            v = space[:, 0]
    else:
        from scipy.sparse.linalg import lobpcg

        method = "lobpcg"
        with warnings.catch_warnings():
            # non-convergence is caught by the residual check below
            warnings.simplefilter("ignore", UserWarning)
            _, vecs, history = lobpcg(mat, start, tol=bound / 100,
                                      maxiter=max_iter, largest=which == "max",
                                      retLambdaHistory=True)
        iterations = len(history) - 2
        v = vecs[:, 0]
    v = v / np.linalg.norm(v)
    if v.sum() < 0:
        v = -v
    av = mat @ v
    value = float(v @ av)
    residual = float(np.linalg.norm(av - value * v))
    if not residual <= bound:
        raise ValueError(
            f"{method} {which} eigenpair of {op.n} qubits not verified: "
            f"residual {residual:.3g} > {bound:.3g} after {iterations} "
            f"iterations")
    return SpectralResult(value=value, vector=v, iterations=iterations,
                          residual=residual, converged=True, method=method)


def dense_spectrum(op) -> np.ndarray:
    if isinstance(op, OperatorSum):
        mat = assemble_dense(op)
    else:
        mat = np.asarray(op, dtype=float)
    return np.linalg.eigvalsh(mat)


def eigencount_below(op, threshold: float) -> int:
    """Number of eigenvalues strictly below threshold (dense path)."""
    return int(np.sum(dense_spectrum(op) < threshold))


def level_gap(evals: np.ndarray, merge_tol: float = 1e-8) -> float:
    """Distance from the lowest of ascending evals to the next distinct one.

    Eigenvalues closer than merge_tol are treated as one level, so exact
    ground-space degeneracy reports the gap to the next level up.
    """
    above = evals[evals > evals[0] + merge_tol]
    return float(above[0] - evals[0]) if above.size else 0.0


def spectral_gap(op, merge_tol: float = 1e-8) -> float:
    return level_gap(dense_spectrum(op), merge_tol)
