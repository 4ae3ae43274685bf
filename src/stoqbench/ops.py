"""Local non-negative operators on qubit registers.

Conventions used everywhere in this package:

* a computational basis state of an n-qubit register is a plain int
  ``x`` with ``0 <= x < 2**n``; qubit 0 is the least significant bit.
* a :class:`LocalOperator` stores a dense real block on a sorted tuple
  of qubit indices; bit ``i`` of a local index corresponds to qubit
  ``support[i]``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

# Entrywise tolerance for positivity / zero tests.
ETA = 1e-9

DEFAULT_DENSE_LIMIT = 14


def dense_limit() -> int:
    """Max qubit count for dense assembly (env STOQ_DENSE_LIMIT overrides)."""
    return int(os.environ.get("STOQ_DENSE_LIMIT", DEFAULT_DENSE_LIMIT))


class DenseLimitError(RuntimeError):
    pass


def _check_dense(n: int) -> None:
    if n > dense_limit():
        raise DenseLimitError(
            f"dense assembly of {n} qubits exceeds limit {dense_limit()}"
        )


@dataclass(frozen=True)
class Gate:
    """Reversible gate: X, CNOT or TOFFOLI (controls first, target last)."""

    kind: str
    qubits: tuple

    _ARITY = {"X": 1, "CNOT": 2, "TOFFOLI": 3}

    def __post_init__(self):
        kind = self.kind.upper()
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "qubits", tuple(int(q) for q in self.qubits))
        if kind not in self._ARITY:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if len(self.qubits) != self._ARITY[kind]:
            raise ValueError(f"{kind} takes {self._ARITY[kind]} qubits")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError("gate qubits must be distinct")

    def apply(self, z: int) -> int:
        """Image of basis state z under this gate."""
        q = self.qubits
        if self.kind == "X":
            return z ^ (1 << q[0])
        if self.kind == "CNOT":
            if (z >> q[0]) & 1:
                return z ^ (1 << q[1])
            return z
        # TOFFOLI
        if (z >> q[0]) & 1 and (z >> q[1]) & 1:
            return z ^ (1 << q[2])
        return z


def circuit_permutation(gates, qubit_map, dim: int) -> np.ndarray:
    """perm[z] = image of z under the gate list, with qubits relabeled.

    ``qubit_map`` maps the gates' qubit indices to bit positions in z.
    """
    perm = np.arange(dim, dtype=np.int64)
    for g in gates:
        q = [qubit_map[v] for v in g.qubits]
        if g.kind == "X":
            perm ^= 1 << q[0]
        elif g.kind == "CNOT":
            perm ^= ((perm >> q[0]) & 1) << q[1]
        else:
            perm ^= (((perm >> q[0]) & (perm >> q[1])) & 1) << q[2]
    return perm


@dataclass(frozen=True)
class LocalOperator:
    """Hermitian operator on a few qubits: sorted support + dense block."""

    support: tuple
    block: np.ndarray
    tag: str = ""

    def __post_init__(self):
        support = tuple(int(q) for q in self.support)
        if list(support) != sorted(set(support)):
            raise ValueError("support must be strictly increasing")
        block = np.asarray(self.block, dtype=float)
        k = len(support)
        if block.shape != (2**k, 2**k):
            raise ValueError("block shape does not match support size")
        if np.max(np.abs(block - block.T)) > 1e-8:
            raise ValueError("block is not symmetric")
        block = block.copy()
        block.flags.writeable = False
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "block", block)

    @property
    def k(self) -> int:
        return len(self.support)

    def local_index(self, x: int) -> int:
        lx = 0
        for i, q in enumerate(self.support):
            lx |= ((x >> q) & 1) << i
        return lx

    def element(self, x: int, y: int) -> float:
        """<x|Pi|y> with x, y global basis states (0 if outside bits differ)."""
        mask = 0
        for q in self.support:
            mask |= 1 << q
        if (x & ~mask) != (y & ~mask):
            return 0.0
        return float(self.block[self.local_index(x), self.local_index(y)])

    def diag(self, x: int) -> float:
        lx = self.local_index(x)
        return float(self.block[lx, lx])


@dataclass(frozen=True)
class OperatorSum:
    """Weighted sum of local operators on an n-qubit register."""

    n: int
    terms: tuple
    weights: tuple = None

    def __post_init__(self):
        terms = tuple(self.terms)
        for t in terms:
            if t.support and t.support[-1] >= self.n:
                raise ValueError(
                    f"term support {t.support} does not fit in {self.n} qubits"
                )
        if self.weights is None:
            weights = (1.0,) * len(terms)
        else:
            weights = tuple(float(w) for w in self.weights)
            if len(weights) != len(terms):
                raise ValueError("weights length mismatch")
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "weights", weights)

    def norm_bound(self) -> float:
        """Safe upper bound on the operator norm: sum of term block bounds."""
        return sum(
            abs(w) * (2**t.k) * np.max(np.abs(t.block))
            for w, t in zip(self.weights, self.terms)
        )


def matrix_element(op: OperatorSum, x: int, y: int) -> float:
    """<x|op|y> computed term by term, without assembly."""
    return float(matrix_elements(op, x, y))


def matrix_elements(op: OperatorSum, xs, ys) -> np.ndarray:
    """<x|op|y> for arrays of basis states, term by term, without assembly.

    Each term contributes ``w * block[lx, ly]`` where x and y agree
    outside its support and ``w * 0.0`` elsewhere; contributions are
    added in term order starting from 0.0, so every entry is bitwise
    the left-to-right sum of the scalar per-term elements.  Basis states
    are int64, which limits the register to 63 qubits.
    """
    xs = np.asarray(xs, dtype=np.int64)
    ys = np.asarray(ys, dtype=np.int64)
    dim = 2**op.n
    if np.any((xs < 0) | (xs >= dim)) or np.any((ys < 0) | (ys >= dim)):
        raise IndexError("basis index out of range")
    out = np.zeros(np.broadcast(xs, ys).shape)
    for w, t in zip(op.weights, op.terms):
        mask = sum(1 << q for q in t.support)
        lx = np.zeros_like(xs)
        ly = np.zeros_like(ys)
        for i, q in enumerate(t.support):
            lx |= ((xs >> q) & 1) << i
            ly |= ((ys >> q) & 1) << i
        out += w * np.where(((xs ^ ys) & ~mask) == 0, t.block[lx, ly], 0.0)
    return out


def apply_to_basis(op: OperatorSum, x: int) -> dict:
    """Nonzero entries of row x of the assembled matrix, as {y: value}."""
    if not 0 <= x < 2**op.n:
        raise IndexError("basis index out of range")
    row: dict = {}
    for w, t in zip(op.weights, op.terms):
        lx = t.local_index(x)
        col = t.block[:, lx]
        base = x
        for q in t.support:
            base &= ~(1 << q)
        for ly in np.nonzero(col)[0]:
            y = base
            for i, q in enumerate(t.support):
                if (int(ly) >> i) & 1:
                    y |= 1 << q
            row[y] = row.get(y, 0.0) + w * float(col[ly])
    return {y: v for y, v in row.items() if v != 0.0}


def _support_maps(support, n):
    """Global offsets of the local bit patterns of a sorted support, in
    local-index order, and of the complement patterns, ascending."""
    mask = sum(1 << q for q in support)
    idx = np.arange(2**n, dtype=np.int64)
    return idx[(idx & ~mask) == 0], idx[(idx & mask) == 0]


def assemble_dense(op: OperatorSum) -> np.ndarray:
    _check_dense(op.n)
    dim = 2**op.n
    out = np.zeros((dim, dim))
    for w, t in zip(op.weights, op.terms):
        sup, rest = _support_maps(t.support, op.n)
        idx = rest[:, None] + sup[None, :]
        out[idx[:, :, None], idx[:, None, :]] += w * t.block
    return out


def assemble_sparse(op: OperatorSum) -> sp.csr_matrix:
    dim = 2**op.n
    rows, cols, data = [], [], []
    for w, t in zip(op.weights, op.terms):
        sup, rest = _support_maps(t.support, op.n)
        la, lb = np.nonzero(t.block)
        vals = w * t.block[la, lb]
        rows.append((rest[:, None] + sup[la][None, :]).ravel())
        cols.append((rest[:, None] + sup[lb][None, :]).ravel())
        data.append(np.tile(vals, len(rest)))
    if not rows:
        return sp.csr_matrix((dim, dim))
    mat = sp.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(dim, dim),
    )
    return mat.tocsr()


def _expand_support(support, gates):
    """Grow a support set to cover every gate it becomes entangled with."""
    cur = set(support)
    for g in gates:
        if cur & set(g.qubits):
            cur |= set(g.qubits)
    return tuple(sorted(cur))


def local_term(support, factors) -> np.ndarray:
    """Dense block on sorted ``support`` from factor matrices.

    ``factors`` is a list of (qubits, matrix) pieces on disjoint qubits of
    the support, bit ``t`` of a factor's index being ``qubits[t]``;
    uncovered qubits get the identity.  Entries are the products of the
    factor entries taken in factor order.
    """
    support = tuple(sorted(support))
    k = len(support)
    out = np.ones((1, 1))
    order = []  # qubit of each tensor axis, most significant first
    for qubits, mat in factors:
        qubits = tuple(qubits)
        if not set(qubits) <= set(support):
            raise ValueError(f"factor qubits {qubits} outside support {support}")
        if set(qubits) & set(order) or len(set(qubits)) != len(qubits):
            raise ValueError(f"factor qubits {qubits} overlap another factor")
        out = np.kron(out, np.asarray(mat, dtype=float))
        order.extend(reversed(qubits))
    free = [q for q in support if q not in order]
    out = np.kron(out, np.eye(2 ** len(free)))
    order.extend(free)
    axes = [order.index(q) for q in reversed(support)]
    out = out.reshape((2,) * (2 * k)).transpose(axes + [k + a for a in axes])
    return out.reshape(2**k, 2**k)


def conjugate_by_circuit(op, gates):
    """U . op . U^dag for a reversible circuit U (exact basis permutation)."""
    gates = [g if isinstance(g, Gate) else Gate(*g) for g in gates]
    if isinstance(op, OperatorSum):
        new_terms = [conjugate_by_circuit(t, gates) for t in op.terms]
        return OperatorSum(op.n, tuple(new_terms), op.weights)
    new_support = _expand_support(op.support, gates)
    block = local_term(new_support, [(op.support, op.block)])
    pos = {q: i for i, q in enumerate(new_support)}
    relevant = [g for g in gates if set(g.qubits) <= set(new_support)]
    perm = circuit_permutation(relevant, pos, 2 ** len(new_support))
    pinv = np.argsort(perm)
    return LocalOperator(new_support, block[np.ix_(pinv, pinv)], tag=op.tag)


def projector_check(op, tol: float = ETA):
    """Is op a projector with non-negative entries?  Returns (ok, residual)."""
    if isinstance(op, LocalOperator):
        mat = np.asarray(op.block)
    elif isinstance(op, OperatorSum):
        mat = assemble_dense(op)
    else:
        mat = np.asarray(op, dtype=float)
    res_proj = np.max(np.abs(mat @ mat - mat))
    res_herm = np.max(np.abs(mat - mat.T))
    res_neg = max(0.0, float(-np.min(mat)))
    residual = float(max(res_proj, res_herm, res_neg))
    return residual <= tol, residual


@dataclass(frozen=True)
class BlockComponent:
    """One connected component of a non-negative projector: a rank-1 block."""

    support_set: frozenset
    amplitude: dict = field(hash=False)

    def projector(self, dim: int) -> np.ndarray:
        v = np.zeros(dim)
        for x, a in self.amplitude.items():
            v[x] = a
        return np.outer(v, v)


def make_block_projector(components, dim: int) -> np.ndarray:
    """Sum of rank-1 blocks; the constructor inverse of block_decompose."""
    out = np.zeros((dim, dim))
    for c in components:
        out += c.projector(dim)
    return out


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, a):
        while self.parent[a] != a:
            self.parent[a] = self.parent[self.parent[a]]
            a = self.parent[a]
        return a

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def block_decompose(pi, tol: float = ETA):
    """Split a non-negative projector into its rank-1 positive blocks.

    Each block carries the positive unit vector whose outer product is
    the restriction of the projector to that connected component.
    """
    mat = np.asarray(pi, dtype=float)
    dim = mat.shape[0]
    ok, residual = projector_check(mat, tol=max(tol, 1e-8))
    if not ok:
        raise ValueError(f"input is not a non-negative projector (residual {residual:g})")
    uf = _UnionFind(dim)
    rows, cols = np.nonzero(mat > tol)
    for x, y in zip(rows, cols):
        uf.union(int(x), int(y))
    groups: dict = {}
    for x in range(dim):
        if mat[x, x] > tol:
            groups.setdefault(uf.find(x), []).append(x)
    components = []
    for members in groups.values():
        amps = {x: float(np.sqrt(mat[x, x])) for x in members}
        norm = float(np.sqrt(sum(a * a for a in amps.values())))
        amps = {x: a / norm for x, a in amps.items()}
        components.append(BlockComponent(frozenset(members), amps))
    recon = make_block_projector(components, dim)
    res = float(np.max(np.abs(recon - mat))) if dim else 0.0
    if res > 1e-8:
        raise ValueError(
            f"reconstruction residual {res:g}: input was not a genuine "
            "non-negative projector"
        )
    return components


def amplitude_ratio(pi, x: int, y: int, tol: float = ETA) -> float:
    """theta_y / theta_x for the invariant state of the block containing x, y."""
    mat = np.asarray(pi, dtype=float)
    if mat[x, x] <= tol:
        raise ValueError(f"zero diagonal at {x}: no invariant state touches it")
    if mat[x, y] <= tol:
        raise ValueError(f"<{x}|Pi|{y}> = 0: strings lie in different blocks")
    return float(np.sqrt(mat[y, y] / mat[x, x]))
