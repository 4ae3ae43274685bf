"""Stoquastic and coherent-classical verifier circuits.

A verifier is a reversible circuit (X / CNOT / Toffoli) on four
registers, laid out low bits first: input |x>, witness, |0> ancillas,
|+> ancillas.  Acceptance projects the first qubit of the layout onto
|+> (stoquastic) or |0> (coherent classical).

This module also implements the reduction chain from a stoquastic
Hamiltonian to such a verifier: the shifted decomposition into
conjugated -|0..0><0..0| and -X(x)|0..0><0..0| pieces, the Toffoli-ladder
isometries that turn those observables into a single X measurement, and
the dyadic convex mixing of the resulting circuit family.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .ops import ETA, Gate, circuit_permutation
from .instances import (LhMinInstance, document_boundary, json_int,
                        require_valid, write_json)

CIRCUIT_SCHEMA_VERSION = 1

# |+> selector ancillas that realise the dyadic mixture weights.
SELECTOR_BITS = 20


@dataclass(frozen=True)
class VerifierCircuit:
    n: int
    n_w: int
    n_0: int
    n_plus: int
    gates: tuple
    out_basis: str = "plus"  # plus = stoquastic, zero = coherent classical

    def __post_init__(self):
        for name in ("n", "n_w", "n_0", "n_plus"):
            size = getattr(self, name)
            if size < 0:
                raise ValueError(f"{name} must be >= 0, got {size}")
        object.__setattr__(self, "gates", tuple(self.gates))
        if not self.gates:
            raise ValueError("circuit needs at least one gate")
        if self.out_basis not in ("plus", "zero"):
            raise ValueError("out_basis must be 'plus' or 'zero'")
        total = self.total_qubits
        for g in self.gates:
            if max(g.qubits) >= total:
                raise ValueError(f"gate {g} outside {total} qubits")

    @property
    def total_qubits(self) -> int:
        return self.n + self.n_w + self.n_0 + self.n_plus

    @property
    def num_gates(self) -> int:
        return len(self.gates)

    def permutation(self) -> np.ndarray:
        return circuit_permutation(self.gates, range(self.total_qubits),
                                   2**self.total_qubits)


def initial_state(v: VerifierCircuit, x: int, psi: np.ndarray) -> np.ndarray:
    """|x> (x) |psi> (x) |0..0> (x) |+..+> over the full register."""
    psi = np.asarray(psi, dtype=float)
    if psi.shape != (2**v.n_w,):
        raise ValueError("witness dimension mismatch")
    if abs(np.linalg.norm(psi) - 1.0) > 1e-10:
        raise ValueError("witness not normalized")
    if not 0 <= x < 2**v.n:
        raise ValueError("input string out of range")
    total = v.total_qubits
    state = np.zeros(2**total)
    plus_amp = 2.0 ** (-v.n_plus / 2.0)
    plus_shift = v.n + v.n_w + v.n_0
    w_idx = np.arange(2**v.n_w)
    for p in range(2**v.n_plus):
        base = x | (p << plus_shift)
        state[base | (w_idx << v.n)] = psi * plus_amp
    return state


def _measured(state: np.ndarray, out_basis: str) -> np.ndarray:
    """The amplitudes of ``state`` (a vector, or one column per witness
    basis state) that the output measurement of qubit 0 keeps: the |0>
    half, or the |+> projection.  Their squares sum to the acceptance
    probability."""
    half = state.reshape(-1, 2, *state.shape[1:])  # qubit 0 is fastest
    if out_basis == "zero":
        return half[:, 0]
    return (half[:, 0] + half[:, 1]) / math.sqrt(2.0)


def acceptance_probability(v: VerifierCircuit, x: int, psi) -> float:
    """Pr(V; x, psi): simulate the permutation circuit, measure qubit 0."""
    state = initial_state(v, x, np.asarray(psi, dtype=float))
    perm = v.permutation()
    out = np.zeros_like(state)
    out[perm] = state
    m = _measured(out, v.out_basis)
    return float(np.sum(m * m))


def acceptance_operator(v: VerifierCircuit, x: int) -> np.ndarray:
    """Matrix A on the witness space with <psi|A|psi> = Pr(V; x, psi)."""
    if v.n_w > 12:
        raise ValueError("witness register too large for dense contraction")
    dim_w = 2**v.n_w
    perm = v.permutation()
    cols = np.zeros((2**v.total_qubits, dim_w))
    for w, e in enumerate(np.eye(dim_w)):
        cols[perm, w] = initial_state(v, x, e)
    m = _measured(cols, v.out_basis)
    return m.T @ m


def max_acceptance(v: VerifierCircuit, x: int):
    """Best witness: top eigenpair of the acceptance operator."""
    a = acceptance_operator(v, x)
    evals, evecs = np.linalg.eigh(a)
    vec = evecs[:, -1]
    # Perron normalization: the maximizer can be chosen non-negative
    if vec[np.argmax(np.abs(vec))] < 0:
        vec = -vec
    return float(evals[-1]), vec


# ---------------------------------------------------------------------------
# Lemma-2 style decomposition


@dataclass(frozen=True)
class StoqPart:
    weight: float  # un-normalized, >= 0
    circuit: tuple  # Gate list U on the term's local qubits (0..k-1)
    kind: str  # "Z00" (-|0..0><0..0|) or "X0" (-X (x) |0..0><0..0|)
    support: tuple  # global qubits the part acts on


@dataclass(frozen=True)
class StoqDecomposition:
    gamma: float
    beta: float
    parts: tuple  # of (p_j, StoqPart) with sum p_j = 1

    def part_operator(self, part: StoqPart) -> np.ndarray:
        """Dense U_j H_j U_j^dag on the part's local space: U_j permutes
        the basis of the part's own k qubits, so U H U^dag is H with rows
        and columns at the inverse permutation."""
        k = len(part.support)
        dim = 2**k
        h = np.zeros((dim, dim))
        if part.kind == "Z00":
            h[0, 0] = -1.0
        else:
            h[0, 1] = h[1, 0] = -1.0
        pinv = np.argsort(circuit_permutation(part.circuit, range(k), dim))
        return h[np.ix_(pinv, pinv)]


@functools.cache
def _x_circuit(x: int, k: int) -> tuple:
    """X gates preparing |x> from |0^k>."""
    return tuple(Gate("X", (i,)) for i in range(k) if (x >> i) & 1)


@functools.cache
def _pair_circuit(x: int, y: int, k: int) -> tuple:
    """U with U|0^k> = |x> and U|10^(k-1)> = |y>, using X and CNOT only."""
    d = x ^ y
    if d == 0:
        raise ValueError("pair circuit needs x != y")
    b = (d & -d).bit_length() - 1  # lowest differing bit
    gates = []
    if b != 0:
        gates.append(Gate("CNOT", (0, b)))
    for j in range(k):
        if j != b and (d >> j) & 1:
            gates.append(Gate("CNOT", (b, j)))
    if not (d & 1):
        gates.append(Gate("CNOT", (b, 0)))
    gates.extend(_x_circuit(x, k))
    return tuple(gates)


def decompose_stoquastic(h: LhMinInstance) -> StoqDecomposition:
    """gamma*H + beta*I as a convex combination of conjugated model terms.

    Every local term is shifted until its diagonal is non-positive; then
    its diagonal entries become Z00 parts and its upper off-diagonal
    entries, in row-major order, X0 parts, with weights given by the
    entry magnitudes (those at most ETA, tolerance-level positives among
    them, are dropped).
    """
    require_valid(h)
    raw_parts = []
    shift_total = 0.0
    for term in h.terms:
        k = term.k
        block = np.array(term.block)
        shift = max(0.0, float(np.max(np.diag(block))))
        neg = -(block - shift * np.eye(2**k))
        shift_total += shift
        for x in np.nonzero(np.diag(neg) > ETA)[0].tolist():
            raw_parts.append(StoqPart(float(neg[x, x]), _x_circuit(x, k),
                                      "Z00", term.support))
        rows, cols = np.nonzero(np.triu(neg > ETA, 1))
        for x, y in zip(rows.tolist(), cols.tolist()):
            raw_parts.append(StoqPart(float(neg[x, y]), _pair_circuit(x, y, k),
                                      "X0", term.support))
    total = sum(p.weight for p in raw_parts)
    if total <= 0:
        raise ValueError("Hamiltonian is a multiple of the identity")
    gamma = 1.0 / total
    beta = -shift_total / total
    parts = tuple((p.weight / total, p) for p in raw_parts)
    return StoqDecomposition(gamma=gamma, beta=beta, parts=parts)


# ---------------------------------------------------------------------------
# Lemma-3 isometries


def zero_projector_isometry(k: int):
    """Toffoli ladder W with W^dag (X on the |+> ancilla) W = |0..0><0..0|.

    Registers: psi on qubits 0..k-1, |0> ancillas on k..2k-1, one |+>
    ancilla on 2k.  Returns (gates, n_0, n_plus, measured_qubit).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    plus = 2 * k
    gates = tuple(Gate("TOFFOLI", (j, plus, k + j)) for j in range(k))
    return gates, k, 1, plus


def x_projector_isometry(k: int):
    """Ladder W with W^dag (X on qubit 0) W = X (x) |0..0><0..0|^(k-1).

    Registers: psi on 0..k-1, |0> ancillas on k..2k-2.  Qubit 0 plays the
    role the |+> ancilla plays in the zero-projector ladder.  Returns
    (gates, n_0, n_plus, measured_qubit).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    gates = tuple(Gate("TOFFOLI", (j, 0, k + j - 1)) for j in range(1, k))
    return gates, k - 1, 0, 0


# ---------------------------------------------------------------------------
# Hamiltonian -> verifier


@dataclass(frozen=True)
class MixedVerifier:
    """Convex combination of stoquastic verifiers over a shared witness.

    The mixture weights are dyadic approximations realizable with
    SELECTOR_BITS ancillas in |+>; the worst per-part weight error is
    recorded in metadata.
    """

    n_w: int
    parts: tuple  # of (p_j, VerifierCircuit)
    metadata: dict = field(default_factory=dict, hash=False)

    def acceptance_probability(self, x: int, psi) -> float:
        return sum(p * acceptance_probability(v, x, psi) for p, v in self.parts)

    def acceptance_operator(self, x: int) -> np.ndarray:
        out = np.zeros((2**self.n_w, 2**self.n_w))
        for p, v in self.parts:
            out += p * acceptance_operator(v, x)
        return out


def mix(v1, v2) -> MixedVerifier:
    """Equal-weight mixture of two verifiers on the same witness register."""
    def parts_of(v):
        if isinstance(v, MixedVerifier):
            return v.n_w, v.parts
        return v.n_w, ((1.0, v),)

    n1, p1 = parts_of(v1)
    n2, p2 = parts_of(v2)
    if n1 != n2:
        raise ValueError("witness registers differ")
    parts = tuple((0.5 * p, v) for p, v in p1) + tuple((0.5 * p, v) for p, v in p2)
    return MixedVerifier(n_w=n1, parts=parts)


def dyadic_weights(weights):
    """Round weights to multiples of 2^-SELECTOR_BITS that still sum to one."""
    scale = 1 << SELECTOR_BITS
    raw = [w * scale for w in weights]
    ints = [int(round(r)) for r in raw]
    diff = scale - sum(ints)
    # push the rounding slack onto the largest weight
    ints[int(np.argmax(weights))] += diff
    approx = [i / scale for i in ints]
    err = max(abs(a - w) for a, w in zip(approx, weights))
    return approx, err


@functools.cache
def _template(kind: str, k: int, circuit: tuple):
    """A part's gates on local qubits, validated once as Gates: U^dag on
    the term's qubits 0..k-1, then the isometry ladder, whose ancillas
    follow from qubit k on.  Returns ((kind, qubits) of each gate, n_0,
    n_plus, measured_qubit)."""
    if kind == "Z00":
        ladder, n_0, n_plus, measured = zero_projector_isometry(k)
    else:
        ladder, n_0, n_plus, measured = x_projector_isometry(k)
    # U^dag: X and CNOT are involutions, so reverse the gate list
    gates = (*reversed(circuit), *ladder)
    return tuple((g.kind, g.qubits) for g in gates), n_0, n_plus, measured


def verifier_document(h: LhMinInstance) -> dict:
    """The mixed-verifier document ``compile --to verifier`` writes: a
    stoquastic verifier V with Pr(V;x,psi) = <psi|(-alpha H + beta' I)|psi>,
    alpha = gamma/2 and beta' = (1 - beta)/2 from the decomposition
    gamma H + beta I.

    Part j measures -U_j H_j U_j^dag on the witness: its template is
    relabeled onto the term's support, with the ancillas appended after
    the witness, and a swap routes the measured qubit to position 0.
    """
    dec = decompose_stoquastic(h)
    approx, err = dyadic_weights([p for p, _ in dec.parts])
    n_w = h.n
    parts = []
    for p_hat, (_, part) in zip(approx, dec.parts):
        if p_hat <= 0:
            continue
        local, n_0, n_plus, measured = _template(
            part.kind, len(part.support), part.circuit)
        total = n_w + n_0 + n_plus
        qmap = (*part.support, *range(n_w, total))
        if max(qmap) >= total:
            raise ValueError(f"part on {part.support} outside {total} qubits")
        gates = [{"kind": kind, "qubits": [qmap[q] for q in qubits]}
                 for kind, qubits in local]
        m = qmap[measured]
        if m != 0:
            gates += [{"kind": "CNOT", "qubits": [0, m]},
                      {"kind": "CNOT", "qubits": [m, 0]},
                      {"kind": "CNOT", "qubits": [0, m]}]
        elif not gates:
            # a 1-local -X part on qubit 0 needs no gate at all, but a
            # circuit needs at least one: X.X is the identity
            gates = [{"kind": "X", "qubits": [0]}, {"kind": "X", "qubits": [0]}]
        parts.append({"p": p_hat, "circuit": _circuit_document(
            0, n_w, n_0, n_plus, "plus", gates)})
    return {
        "version": 1,
        "kind": "mixed-verifier",
        "alpha": dec.gamma / 2.0,
        "beta_prime": (1.0 - dec.beta) / 2.0,
        "n_w": n_w,
        "metadata": {"selector_bits": SELECTOR_BITS, "mixing_error": err,
                     "num_parts": len(parts)},
        "parts": parts,
    }


def hamiltonian_to_verifier(h: LhMinInstance):
    """Stoquastic verifier V with Pr(V;x,psi) = <psi|(-alpha H + beta' I)|psi>.

    Returns (MixedVerifier, alpha, beta_prime), read back from
    verifier_document(h), so that it is what ``compile`` writes.
    """
    doc = verifier_document(h)
    parts = tuple((p["p"], circuit_from_document(p["circuit"]))
                  for p in doc["parts"])
    verifier = MixedVerifier(n_w=doc["n_w"], parts=parts,
                             metadata=doc["metadata"])
    return verifier, doc["alpha"], doc["beta_prime"]


# ---------------------------------------------------------------------------
# circuit files


def _circuit_document(n, n_w, n_0, n_plus, out_basis, gates) -> dict:
    """A circuit document from its fields and its gates' documents."""
    return {"version": CIRCUIT_SCHEMA_VERSION, "n": n, "n_w": n_w,
            "n_0": n_0, "n_plus": n_plus, "out_basis": out_basis,
            "gates": gates}


def circuit_to_document(v: VerifierCircuit) -> dict:
    return _circuit_document(
        v.n, v.n_w, v.n_0, v.n_plus, v.out_basis,
        [{"kind": g.kind, "qubits": list(g.qubits)} for g in v.gates])


def circuit_from_document(doc: dict) -> VerifierCircuit:
    """The circuit a JSON document holds; ValueError if malformed or invalid."""
    with document_boundary(doc, "circuit", CIRCUIT_SCHEMA_VERSION,
                           "circuit schema"):
        gates = tuple(Gate(g["kind"], tuple(json_int(q, "gate qubit")
                                            for q in g["qubits"]))
                      for g in doc["gates"])
        return VerifierCircuit(
            **{f: json_int(doc[f], f) for f in ("n", "n_w", "n_0", "n_plus")},
            gates=gates, out_basis=doc["out_basis"])


def save_circuit(v: VerifierCircuit, path) -> None:
    write_json(path, circuit_to_document(v))


def load_circuit(path) -> VerifierCircuit:
    with open(path, encoding="utf-8") as fh:
        return circuit_from_document(json.load(fh))
