"""Eigenvalue solvers used as the oracle layer by every module.

``extreme_eigenvalue`` is the one extreme-eigenpair path: read off a
diagonal matrix (a CNF's G), else LOBPCG on the sparse matrix from the
all-ones start vector, or a dense ``eigh`` of the same matrix below
LOBPCG's minimum size.  Every pair it returns has passed a residual
check.  ``dense_spectrum`` is the one full-spectrum path: an operator
sum's qubit groups are solved apart and their spectra added, a small
group by one dense solve and a larger one by dense solves of its
matrix's connected components, one row each when it is diagonal.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .ops import (ETA, DenseLimitError, OperatorSum, _index_dim,
                  assemble_dense, assemble_sparse, dense_limit)

# LOBPCG needs five rows per start vector; scipy goes dense below that.
LOBPCG_MIN_DIM = 5

# Entries per stacked eigvalsh call in dense_spectrum (128 MiB of floats).
STACK_ENTRIES = 1 << 24

# Qubit groups up to this size are solved whole, without a component split.
GROUP_DENSE_QUBITS = 6

# dense_spectrum returns all 2**n eigenvalues of a register of at most
# this many qubits (128 MiB of floats), and raises DenseLimitError above.
SPECTRUM_QUBITS = 24

# Eigenvalues closer than this are one level (level_gap, ground_dim).
LEVEL_MERGE = 1e-8


@dataclass
class SpectralResult:
    value: float
    vector: np.ndarray
    iterations: int
    residual: float
    converged: bool  # always True: an unverified pair raises instead
    method: str  # "diagonal", "lobpcg" or "dense"


def _split(mat):
    """A sparse matrix's COO form, its entries stored off the diagonal, and
    its diagonal when none of those is nonzero (else None)."""
    coo = mat.tocoo()
    off = coo.data[coo.row != coo.col]
    return coo, off, None if off.any() else coo.diagonal()


def extreme_eigenvalue(op: OperatorSum, which: str = "max", tol: float = 1e-10,
                       max_iter: int = 5000) -> SpectralResult:
    """Largest or smallest eigenpair of a local-operator sum.

    When the off-diagonal signs make the extreme eigenspace a Perron one
    (non-negative entries for "max", non-positive for "min": the Perron
    vector of G, the ground state of a stoquastic Hamiltonian) the vector
    is the all-ones vector projected onto that eigenspace and normalised:
    non-negative and the same whichever solver ran.  On a diagonal
    matrix that projection is exact: the indicator of the strings whose
    diagonal entry is within the residual bound of the extreme one, the
    dense branch's own rule, and no solver runs.  Otherwise the
    all-ones vector may miss the eigenspace, so a fixed random vector
    joins LOBPCG's start block.  Raises ValueError unless the residual
    ||A v - lambda v|| is at most tol * max(1, norm bound); max_iter caps
    the LOBPCG iterations.
    """
    if which not in ("max", "min"):
        raise ValueError("which must be 'max' or 'min'")
    mat = assemble_sparse(op)
    dim = mat.shape[0]
    bound = tol * max(1.0, op.norm_bound())
    _, off, diag = _split(mat)
    start = np.ones((dim, 1))
    if np.any(off < -ETA if which == "max" else off > ETA):
        start = np.hstack([start, np.random.default_rng(0).random((dim, 1))])
    if diag is not None:
        method, iterations = "diagonal", 0
        edge = diag.max() if which == "max" else diag.min()
        v = (np.abs(diag - edge) <= bound).astype(float)
    elif dim < LOBPCG_MIN_DIM * start.shape[1]:
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


def dense_spectrum(op: OperatorSum) -> np.ndarray:
    """Every eigenvalue of an operator sum, ascending.

    The qubits split into groups, two qubits sharing a group when some
    term's support holds both.  Terms on disjoint groups commute, so the
    spectrum is every sum of one eigenvalue per group, plus the terms on
    no qubit.  Each group is solved on its own qubits, a register of one
    group too: whole by one ``eigvalsh`` up to GROUP_DENSE_QUBITS qubits
    and dense_limit(), else by ``_component_spectrum``, which raises
    DenseLimitError on a component of over 2**dense_limit() rows.  A
    register of over SPECTRUM_QUBITS qubits raises DenseLimitError before
    any group is solved.
    """
    # past 62 qubits: one line, before any 2**n array
    if _index_dim(op.n) > 2**SPECTRUM_QUBITS:
        raise DenseLimitError(
            f"{op.n} qubits have 2**{op.n} eigenvalues, past the dense "
            f"limit of 2**{SPECTRUM_QUBITS} for a full spectrum")
    whole = min(GROUP_DENSE_QUBITS, dense_limit())
    evals = np.array([sum(w * t.block[0, 0]
                          for w, t in zip(op.weights, op.terms)
                          if not t.support)], dtype=float)
    for qubits in _qubit_groups(op):
        evals = np.add.outer(evals, _group_spectrum(op, qubits, whole)).ravel()
    return np.sort(evals)


def _qubit_groups(op: OperatorSum) -> list:
    """op's qubits in groups that no term's support crosses, each group's
    qubits ascending and the groups in order of their lowest qubit."""
    root = list(range(op.n))

    def find(q):
        while root[q] != q:
            root[q] = q = root[root[q]]
        return q

    for t in op.terms:
        for q in t.support[1:]:
            a, b = sorted((find(t.support[0]), find(q)))
            root[b] = a  # a set's root is its lowest qubit
    groups: dict = {}
    for q in range(op.n):
        groups.setdefault(find(q), []).append(q)
    return list(groups.values())


def _group_spectrum(op: OperatorSum, qubits, whole: int) -> np.ndarray:
    """The eigenvalues of op's terms on ``qubits``, relabelled 0..k-1: one
    dense eigvalsh up to ``whole`` qubits, else by components."""
    local = {q: i for i, q in enumerate(qubits)}
    terms, weights = [], []
    for w, t in zip(op.weights, op.terms):
        if t.support and t.support[0] in local:
            support = tuple(local[q] for q in t.support)
            # a term already on its local qubits is kept, not re-validated
            terms.append(t if support == t.support
                         else replace(t, support=support))
            weights.append(w)
    sub = OperatorSum(len(qubits), tuple(terms), tuple(weights))
    if sub.n <= whole:
        return np.linalg.eigvalsh(assemble_dense(sub))
    return _component_spectrum(assemble_sparse(sub))


def _component_spectrum(mat) -> np.ndarray:
    """Every eigenvalue of a sparse symmetric matrix, ascending.

    The matrix is block diagonal over the connected components of its
    graph, the irreducible blocks of Perron-Frobenius.  A diagonal
    matrix's spectrum is its sorted diagonal.  Otherwise each component
    is solved densely on its own: rows are permuted to group components
    by size, and each size's diagonal blocks go through one stacked
    ``eigvalsh`` of at most STACK_ENTRIES entries (or one component).
    Raises DenseLimitError when a component has more than
    2**dense_limit() rows.
    """
    coo, _, diag = _split(mat)
    if diag is not None:  # one-row components: LAPACK returns each entry
        return np.sort(diag)
    from scipy.sparse.csgraph import connected_components

    _, labels = connected_components(mat, directed=False)
    sizes = np.bincount(labels)
    if sizes.max() > 2**dense_limit():
        raise DenseLimitError(
            f"a component of {sizes.max()} rows exceeds the dense limit of "
            f"2**{dense_limit()} rows")
    order = np.lexsort((labels, sizes[labels]))
    perm = np.empty_like(order)
    perm[order] = np.arange(len(order))
    row, col = perm[coo.row], perm[coo.col]
    evals, start = [], 0
    for size, count in zip(*np.unique(sizes, return_counts=True)):
        step = size * max(1, STACK_ENTRIES // size**2)
        for lo in range(start, start + size * count, step):
            hi = min(lo + step, start + size * count)
            sel = (row >= lo) & (row < hi)
            r, c = row[sel] - lo, col[sel] - lo
            stack = np.zeros(((hi - lo) // size, size, size))
            stack[r // size, r % size, c % size] = coo.data[sel]
            evals.append(np.linalg.eigvalsh(stack))
        start += size * count
    return np.sort(np.concatenate(evals, axis=None))


def level_gap(evals: np.ndarray) -> float:
    """Distance from the lowest of ascending evals to the next distinct one.

    Eigenvalues closer than LEVEL_MERGE are treated as one level, so exact
    ground-space degeneracy reports the gap to the next level up.
    """
    above = evals[evals > evals[0] + LEVEL_MERGE]
    return float(above[0] - evals[0]) if above.size else 0.0


def spectral_gap(op) -> float:
    return level_gap(dense_spectrum(op))
