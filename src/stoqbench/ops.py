"""Local non-negative operators on qubit registers.

Conventions used everywhere in this package:

* a computational basis state of an n-qubit register is a plain int
  ``x`` with ``0 <= x < 2**n``; qubit 0 is the least significant bit.
* a :class:`LocalOperator` stores a dense real block on a sorted tuple
  of qubit indices.

Two bit rules, each written once here for an int or an int64 array:
bit ``i`` of a local index is qubit ``bits[i]`` (:func:`gather` reads a
local index out of a basis state, :func:`scatter` writes it back), and
a gate flips its target where all its controls are set
(:meth:`Gate.apply` and :func:`circuit_permutation`, so a reversible
circuit permutes basis states).

Two entry rules, each written once here.  :func:`matrix_elements` reads
<x|op|y> for arrays of pairs of basis states through the sum's term
table (:attr:`OperatorSum.table`: every term's inverted mask, padded
support and block, in one set of arrays): it keeps the pairs that differ
in at most as many bits as the widest term covers, finds the terms each
such pair hits, and adds each entry's hits in term order from +0.0.
:func:`column` reads a term's column at x, with its diagonal, the one
place a block column is read; :func:`apply_to_basis` and the walk's rows
are sums over such columns.  :func:`diagonal` reads the diagonal of a
sum of diagonal blocks (a CNF's G) term by term, with no assembly.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

# Entrywise tolerance for positivity / zero tests.
ETA = 1e-9

DEFAULT_DENSE_LIMIT = 14


def dense_limit() -> int:
    """Max log2 rows of a dense block: assemble_dense's register, a qubit
    group solved whole, a component (env STOQ_DENSE_LIMIT overrides)."""
    text = os.environ.get("STOQ_DENSE_LIMIT", str(DEFAULT_DENSE_LIMIT))
    if not text.strip().isdecimal():
        raise ValueError("STOQ_DENSE_LIMIT must be a non-negative integer, "
                         f"got {text!r}")
    return int(text)


def gather(x, bits):
    """Local index of basis state(s) ``x``: bit i is bit ``bits[i]`` of x."""
    out = x & 0
    for i, q in enumerate(bits):
        out |= ((x >> q) & 1) << i
    return out


def scatter(lx, bits):
    """Inverse of gather: bit ``bits[i]`` is bit i of ``lx``, the rest 0."""
    out = lx & 0
    for i, q in enumerate(bits):
        out |= ((lx >> i) & 1) << q
    return out


def support_mask(bits) -> int:
    """The bits of a basis state that ``bits`` covers (LocalOperator.mask)."""
    return scatter((1 << len(bits)) - 1, bits)


class DenseLimitError(ValueError):
    pass


def _index_dim(n: int) -> int:
    """2**n, if int64 basis indices hold an n-qubit register: n <= 62."""
    if n > 62:
        raise ValueError(f"{n} qubits exceed the 62 of int64 basis indices")
    return 2**n


@dataclass(frozen=True)
class Gate:
    """Reversible gate: X, CNOT or TOFFOLI (controls first, target last)."""

    kind: str
    qubits: tuple

    _ARITY = {"X": 1, "CNOT": 2, "TOFFOLI": 3}

    def __post_init__(self):
        kind = self.kind
        object.__setattr__(self, "qubits", tuple(int(q) for q in self.qubits))
        if type(kind) is not str or kind not in self._ARITY:
            raise ValueError(f"unknown gate kind {kind!r}")
        if len(self.qubits) != self._ARITY[kind]:
            raise ValueError(f"{kind} takes {self._ARITY[kind]} qubits")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError("gate qubits must be distinct")
        if min(self.qubits) < 0:
            raise ValueError(f"gate qubits {self.qubits} must be non-negative")

    def apply(self, z):
        """Image of basis state(s) z, an int or an int64 array: the target
        (last qubit) flips where every control is set."""
        return _flip(z, self.qubits)


def _flip(z, qubits):
    """The one X/CNOT/Toffoli rule on basis state(s) z: the last of
    ``qubits`` flips where every other one is set."""
    *controls, target = qubits
    fire = z >> controls[0] if controls else 1
    for c in controls[1:]:
        fire = fire & (z >> c)
    return z ^ ((fire & 1) << target)


def circuit_permutation(gates, qubit_map, dim: int) -> np.ndarray:
    """perm[z] = image of z under the gate list, with qubits relabeled.

    ``qubit_map`` maps the gates' qubit indices to bit positions in z.
    """
    perm = np.arange(dim, dtype=np.int64)
    for g in gates:
        perm = _flip(perm, [qubit_map[v] for v in g.qubits])
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
        if support and support[0] < 0:
            raise ValueError(f"support {support} must be non-negative")
        block = np.asarray(self.block, dtype=float)
        k = len(support)
        if block.shape != (2**k, 2**k):
            raise ValueError("block shape does not match support size")
        if not np.isfinite(block).all():  # a NaN passes the symmetry check
            raise ValueError("block has a non-finite entry")
        if np.max(np.abs(block - block.T)) > 1e-8:
            raise ValueError("block is not symmetric")
        block = block.copy()
        block.flags.writeable = False
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "block", block)

    @property
    def k(self) -> int:
        return len(self.support)

    @cached_property  # on first use, after validate bounds a loaded support
    def mask(self) -> int:
        return support_mask(self.support)


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
            if not np.isfinite(weights).all():  # w * 0.0 would be NaN
                raise ValueError("weights must be finite")
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "weights", weights)

    @cached_property
    def table(self):
        """The terms as arrays for matrix_elements: (inverted masks,
        supports padded to the widest term's k with bit 63, which is 0 in
        every valid index, each term's k, its block's offset in the flat
        array of all blocks, that array, the weights)."""
        ts = self.terms
        k_max = max((t.k for t in ts), default=0)
        sup = np.full((len(ts), k_max), 63, dtype=np.int64)
        for row, t in zip(sup, ts):
            row[:t.k] = t.support
        ks = np.array([t.k for t in ts], dtype=np.int64)
        sizes = 4**ks
        flat = np.concatenate([t.block.ravel() for t in ts] + [np.zeros(0)])
        return (np.array([~t.mask for t in ts], dtype=np.int64), sup, ks,
                np.cumsum(sizes) - sizes, flat,
                np.array(self.weights, dtype=float))

    def norm_bound(self) -> float:
        """Safe upper bound on the operator norm: sum of term block bounds."""
        return sum(
            abs(w) * (2**t.k) * np.max(np.abs(t.block))
            for w, t in zip(self.weights, self.terms)
        )


def matrix_element(op: OperatorSum, x: int, y: int) -> float:
    """<x|op|y> for one pair of basis states, by matrix_elements."""
    return float(matrix_elements(op, x, y))


def matrix_elements(op: OperatorSum, xs, ys) -> np.ndarray:
    """<x|op|y> for arrays of basis states, without assembly.

    Term t contributes ``w * block[lx, ly]`` where x and y agree outside
    its support, which needs x ^ y to have at most k_max bits set, k_max
    the widest term's k.  One pass over the term table keeps those pairs,
    takes the candidates x terms hit matrix in pair-major order, reads
    every hit's local indices by gather over the padded supports and adds
    the contributions with np.add.at, in term order per entry from +0.0.
    A term that misses would add w * 0.0, a signed zero, which leaves
    such a sum as it is, so every entry is bitwise the left-to-right sum
    of the scalar per-term elements.  Basis states are int64, which
    limits the register to 62 qubits.
    """
    _index_dim(op.n)  # raises past 62 qubits
    xs, ys = np.broadcast_arrays(np.asarray(xs, dtype=np.int64),
                                 np.asarray(ys, dtype=np.int64))
    # a negative index keeps its sign bit under >> n, one >= 2^n a set bit
    if np.any((xs | ys) >> op.n):
        raise IndexError("basis index out of range")
    inv, sup, ks, offsets, flat, weights = op.table
    out = np.zeros(xs.shape)
    xs, ys = xs.ravel(), ys.ravel()
    diff = few = xs ^ ys
    for _ in range(sup.shape[1]):  # clear the lowest set bit k_max times
        few = few & (few - 1)
    cand = np.flatnonzero(few == 0)
    p, t = np.nonzero((diff[cand, None] & inv) == 0)
    at = cand[p]
    bits = sup[t].T
    lx, ly = gather(xs[at], bits), gather(ys[at], bits)
    np.add.at(out.reshape(-1), at,
              weights[t] * flat[offsets[t] + (lx << ks[t]) + ly])
    return out


def column(t: LocalOperator, key: int):
    """Term t's column at the basis states x whose bits on its support are
    ``key``: (<x|t|x>, [(scatter(ly), <y|t|x>, <y|t|y>) for each nonzero
    entry in ascending local index ly]), so y = (x & ~t.mask) | scatter(ly)."""
    lx = gather(key, t.support)
    col = t.block[:, lx]
    return float(col[lx]), [(scatter(ly, t.support), float(col[ly]),
                             float(t.block[ly, ly]))
                            for ly in np.nonzero(col)[0].tolist()]


def apply_to_basis(op: OperatorSum, x: int) -> dict:
    """Nonzero entries of row x of the assembled matrix, as {y: value}:
    each term's column at x, weighted, summed in term order from 0.0."""
    if x < 0 or x >> op.n:
        raise IndexError("basis index out of range")
    row: dict = {}
    for w, t in zip(op.weights, op.terms):
        key = x & t.mask
        for s, v, _ in column(t, key)[1]:
            y = (x ^ key) | s
            row[y] = row.get(y, 0.0) + w * v
    return {y: v for y, v in row.items() if v != 0.0}


def _support_maps(support, n):
    """Global offsets of the local bit patterns of a sorted support, in
    local-index order, and of the complement patterns, ascending."""
    mask = support_mask(support)
    idx = np.arange(2**n, dtype=np.int64)
    return idx[(idx & ~mask) == 0], idx[(idx & mask) == 0]


def assemble_dense(op: OperatorSum) -> np.ndarray:
    if op.n > dense_limit():
        raise DenseLimitError(
            f"dense assembly of {op.n} qubits exceeds limit {dense_limit()}")
    dim = _index_dim(op.n)
    out = np.zeros((dim, dim))
    for w, t in zip(op.weights, op.terms):
        sup, rest = _support_maps(t.support, op.n)
        idx = rest[:, None] + sup[None, :]
        out[idx[:, :, None], idx[:, None, :]] += w * t.block
    return out


def assemble_sparse(op: OperatorSum):
    """op as a scipy CSR matrix: every term's nonzero block entries at
    each of its 2**(n-k) offsets, summed per entry by COO->CSR."""
    import scipy.sparse as sp

    dim = _index_dim(op.n)
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


def diagonal(op: OperatorSum):
    """The diagonal of op when every term's block is diagonal, else None
    (the scan stops at the first term with an off-diagonal entry).

    Each term adds ``w * diag(block)`` by one broadcast add on a (2,)*n
    view of the output, axis n-1-q being qubit q as in local_term, in
    term order from +0.0: bitwise the diagonal of assemble_sparse(op),
    whose COO->CSR sums the same nonzero products in the same order (a
    product w * b that is -0.0, from a zero weight, reads +0.0 here).
    """
    diags = []
    for t in op.terms:
        d = t.block.diagonal()
        if np.count_nonzero(t.block) > np.count_nonzero(d):
            return None
        diags.append(d)
    out = np.zeros(_index_dim(op.n))
    view = out.reshape((2,) * op.n)
    for w, t, d in zip(op.weights, op.terms, diags):
        shape = [1] * op.n
        for q in t.support:
            shape[op.n - 1 - q] = 2
        view += w * d.reshape(shape)
    return out


def local_term(support, factors) -> np.ndarray:
    """Dense block on sorted ``support`` from factor matrices.

    ``factors`` is a list of (qubits, matrix) pieces on disjoint qubits of
    the support, bit ``t`` of a factor's index being ``qubits[t]``;
    uncovered qubits get the identity.  Entries are the products of the
    factor entries taken in factor order.
    """
    support = tuple(sorted(support))
    k = len(support)
    mats, order = [], []  # order: qubit of each tensor axis, most significant first
    for qubits, mat in factors:
        qubits = tuple(qubits)
        if not set(qubits) <= set(support):
            raise ValueError(f"factor qubits {qubits} outside support {support}")
        if set(qubits) & set(order) or len(set(qubits)) != len(qubits):
            raise ValueError(f"factor qubits {qubits} overlap another factor")
        mats.append(np.asarray(mat, dtype=float))
        order.extend(reversed(qubits))
    free = [q for q in support if q not in order]
    mats.append(np.eye(2 ** len(free)))
    order.extend(free)
    out = np.ones((1, 1))
    for mat in mats:  # a Kronecker product's products, one broadcast multiply
        out = (out[:, None, :, None] * mat[:, None]).reshape(len(out) * len(mat), -1)
    axes = [order.index(q) for q in reversed(support)]
    out = out.reshape((2,) * (2 * k)).transpose(axes + [k + a for a in axes])
    return out.reshape(2**k, 2**k)


def projector_check(op):
    """Is op, a LocalOperator or a matrix, a projector with non-negative
    entries, to ETA?  Returns (ok, residual)."""
    mat = np.asarray(op.block if isinstance(op, LocalOperator) else op,
                     dtype=float)
    with np.errstate(over="ignore"):  # huge entries give an inf residual
        res_proj = np.max(np.abs(mat @ mat - mat))
    res_herm = np.max(np.abs(mat - mat.T))
    res_neg = max(0.0, float(-np.min(mat)))
    residual = float(max(res_proj, res_herm, res_neg))
    return residual <= ETA, residual


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


def block_decompose(pi):
    """Split a non-negative projector into its rank-1 positive blocks.

    Each block carries the positive unit vector whose outer product is
    the restriction of the projector to that connected component.  Input
    must pass projector_check to 1e-8; entries at most ETA are zero.
    """
    mat = np.asarray(pi, dtype=float)
    dim = mat.shape[0]
    residual = projector_check(mat)[1]
    if residual > 1e-8:
        raise ValueError(f"input is not a non-negative projector (residual {residual:g})")
    import scipy.sparse as sp
    from scipy.sparse.csgraph import connected_components

    _, labels = connected_components(sp.csr_matrix(mat > ETA), directed=False)
    groups: dict = {}
    for x in range(dim):
        if mat[x, x] > ETA:
            groups.setdefault(labels[x], []).append(x)
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

