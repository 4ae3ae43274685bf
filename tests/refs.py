"""Test-side references shared by the test modules, one copy each: the
loops that ops' bit layout, element reads and row reads, and the
reduction's block scan, replaced, kept to pin their homes' output byte
for byte."""

import numpy as np

from stoqbench.circuits import (StoqDecomposition, StoqPart, _pair_circuit,
                                _x_circuit)
from stoqbench.instances import require_valid
from stoqbench.ops import ETA


def ref_local_index(support, x):
    """LocalOperator.local_index as it was: bit i is qubit support[i]."""
    lx = 0
    for i, q in enumerate(support):
        lx |= ((x >> q) & 1) << i
    return lx


def ref_element(t, x, y):
    """LocalOperator.element as it was, with its own mask loop."""
    mask = 0
    for q in t.support:
        mask |= 1 << q
    if (x & ~mask) != (y & ~mask):
        return 0.0
    return float(t.block[ref_local_index(t.support, x),
                         ref_local_index(t.support, y)])


def ref_elements(op, xs, ys):
    """<x|op|y> at every pair of the broadcast of xs and ys, a float array
    of that shape: the scalar term loop matrix_element ran before the
    array form, each entry its terms' ref_element summed in term order."""
    xs, ys = np.broadcast_arrays(np.asarray(xs, dtype=np.int64),
                                 np.asarray(ys, dtype=np.int64))
    return np.array([sum(w * ref_element(t, x, y)
                         for w, t in zip(op.weights, op.terms))
                     for x, y in zip(xs.ravel().tolist(), ys.ravel().tolist())],
                    dtype=float).reshape(xs.shape)


def ref_apply_to_basis(op, x):
    """apply_to_basis as it was, with its clear-and-set loops."""
    row = {}
    for w, t in zip(op.weights, op.terms):
        lx = ref_local_index(t.support, x)
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


def ref_support_maps(support, n):
    """_support_maps as a loop: the offsets of the support's local
    patterns in local-index order, and of the complement's, ascending."""
    rest_qubits = [q for q in range(n) if q not in support]
    sup = np.array([sum(1 << q for i, q in enumerate(support) if (a >> i) & 1)
                    for a in range(2 ** len(support))], dtype=np.int64)
    rest = np.array([sum(1 << q for i, q in enumerate(rest_qubits) if (r >> i) & 1)
                     for r in range(2 ** len(rest_qubits))], dtype=np.int64)
    return sup, rest


def ref_decompose(h):
    """decompose_stoquastic as it was: the shifted block read entry by
    entry, the diagonal and then the upper triangle row by row."""
    require_valid(h)
    raw_parts = []
    shift_total = 0.0
    for term in h.terms:
        k = term.k
        block = np.array(term.block)
        shift = max(0.0, float(np.max(np.diag(block))))
        block = block - shift * np.eye(2**k)
        block[block > 0] = 0.0  # tolerance-level positives
        shift_total += shift
        for x in range(2**k):
            w = -float(block[x, x])
            if w > ETA:
                raw_parts.append(StoqPart(w, _x_circuit(x, k), "Z00", term.support))
        for x in range(2**k):
            for y in range(x + 1, 2**k):
                w = -float(block[x, y])
                if w > ETA:
                    raw_parts.append(
                        StoqPart(w, _pair_circuit(x, y, k), "X0", term.support))
    total = sum(p.weight for p in raw_parts)
    if total <= 0:
        raise ValueError("Hamiltonian is a multiple of the identity")
    parts = tuple((p.weight / total, p) for p in raw_parts)
    return StoqDecomposition(gamma=1.0 / total, beta=-shift_total / total,
                             parts=parts)
