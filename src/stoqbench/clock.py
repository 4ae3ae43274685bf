"""Clock construction: compile a verifier circuit into a local Hamiltonian.

The compiled register holds the verifier's work qubits (input, witness,
|0> ancillas, |+> ancillas, in that order) followed by L+2 clock qubits
in unary: clock state j has clock bits 0..j set.  Projector families
pin the initial conditions, the gate-by-gate propagation, and (via a
small perturbation or an extra 6-SAT projector) the final measurement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .ops import (ETA, Gate, LocalOperator, OperatorSum, _index_dim,
                  assemble_sparse, circuit_permutation, local_term)
from .instances import LhMinInstance, StoqSatInstance
from .circuits import VerifierCircuit, acceptance_probability, initial_state
from .spectral import dense_spectrum

_KET0 = np.array([[1.0, 0.0], [0.0, 0.0]])
_KET1 = np.array([[0.0, 0.0], [0.0, 1.0]])
_PLUS = np.array([[0.5, 0.5], [0.5, 0.5]])
_RAISE = np.array([[0.0, 0.0], [1.0, 0.0]])  # |1><0|


def _pattern(*mats) -> np.ndarray:
    """Product on clock qubits given first to last (bit 0 first)."""
    return local_term(range(len(mats)), [((i,), m) for i, m in enumerate(mats)])


# The clock patterns, the same for every circuit.  On (c(k), c(k+1)):
# clock state k, the states before it, those after.
_AT, _BEFORE, _AFTER = (_pattern(_KET1, _KET0), _pattern(_KET0, _KET0),
                        _pattern(_KET1, _KET1))
# Gate j's on (c(j-1), c(j), c(j+1)): 1 on the clock states before j-1,
# 1/2 on j-1 and j, 1 after j, and the hop j-1 -> j.
_STAY = _pattern(_KET0, _KET0, _KET0) + 0.5 * (
    _pattern(_KET1, _KET0, _KET0) + _pattern(_KET1, _KET1, _KET0))
_DONE = _pattern(_KET1, _KET1, _KET1)
_HOP = 0.5 * _pattern(_KET1, _RAISE, _KET0)


def gate_matrix(gate: Gate) -> np.ndarray:
    """Permutation matrix of a gate on its own qubits (sorted order)."""
    pos = {q: i for i, q in enumerate(sorted(gate.qubits))}
    perm = circuit_permutation([gate], pos, 2 ** len(pos))
    return np.eye(len(perm))[:, perm]


@dataclass(frozen=True)
class ClockInstance:
    circuit: VerifierCircuit
    x: int
    init_x: tuple
    init_0: tuple
    init_plus: tuple
    prop: tuple
    meas: LocalOperator
    metadata: dict = field(default_factory=dict, hash=False)

    @property
    def L(self) -> int:
        return self.circuit.num_gates

    @property
    def work_qubits(self) -> int:
        return self.circuit.total_qubits

    @property
    def N(self) -> int:
        return self.work_qubits + self.L + 2

    def all_projectors(self) -> tuple:
        return self.init_x + self.init_0 + self.init_plus + self.prop + (self.meas,)

    def hamiltonian(self) -> LhMinInstance:
        """H6 = sum of (I - Pi) over init and prop families."""
        terms = []
        for p in self.init_x + self.init_0 + self.init_plus + self.prop:
            eye = np.eye(p.block.shape[0])
            terms.append(LocalOperator(p.support, eye - p.block, tag="I-" + p.tag))
        return LhMinInstance(self.N, tuple(terms), 0.0, 1.0,
                             metadata={"kind": "clock", **self.metadata})


def _projector(clock_qubits, pieces, tag) -> LocalOperator:
    """The one clock projector constructor: a sum of pieces, each a pattern
    on the clock qubits times (work qubits, matrix) factors, else identity."""
    support = tuple(sorted(set(clock_qubits).union(
        *(qubits for _, factors in pieces for qubits, _ in factors))))
    block = sum(local_term(support, [(clock_qubits, pattern), *factors])
                for pattern, factors in pieces)
    return LocalOperator(support, block, tag=tag)


def compile_circuit(v: VerifierCircuit, x: int = 0) -> ClockInstance:
    """Emit the init / prop / meas projector families for verifier ``v``."""
    _index_dim(v.total_qubits)  # before 2**v.n or one init term per qubit
    if not 0 <= x < 2**v.n:
        raise ValueError("input string out of range")
    L = v.num_gates
    base = v.total_qubits  # first clock qubit
    c = lambda j: base + j

    def init_family(first_qubit, states, label):
        # clock state 0 with work qubit first_qubit + j in states[j], or later
        return tuple(_projector((c(0), c(1)), [
            (_AT, [((first_qubit + j,), state)]), (_AFTER, [])], f"{label}{j}")
            for j, state in enumerate(states))

    init_x = init_family(
        0, [_KET1 if (x >> j) & 1 else _KET0 for j in range(v.n)], "init_x")
    init_0 = init_family(v.n + v.n_w, [_KET0] * v.n_0, "init_0")
    init_plus = init_family(v.n + v.n_w + v.n_0, [_PLUS] * v.n_plus,
                            "init_plus")

    prop = []
    for j, gate in enumerate(v.gates, 1):
        gq, u = tuple(sorted(gate.qubits)), gate_matrix(gate)
        # the last prop term omits the all-ones clock piece: with it, the
        # configuration 1^(L+2) is invariant under every projector and the
        # zero eigenspace picks up 2^(work) spurious states; without it,
        # clock qubit L+1 stays pinned to 0 on the whole ground space
        prop.append(_projector((c(j - 1), c(j), c(j + 1)), [
            (_STAY + _DONE if j < L else _STAY, []), (_HOP, [(gq, u)]),
            (_HOP.T, [(gq, u.T)])], f"prop{j}"))

    pi_out = _PLUS if v.out_basis == "plus" else _KET0
    meas = _projector((c(L), c(L + 1)),
                      [(_AT, [((0,), pi_out)]), (_BEFORE, [])], "meas")

    return ClockInstance(
        circuit=v, x=x, init_x=init_x, init_0=init_0, init_plus=init_plus,
        prop=tuple(prop), meas=meas,
        metadata={"input": x, "L": L, "N": base + L + 2},
    )


def history_state(clock: ClockInstance, psi) -> np.ndarray:
    """Uniform superposition over the verifier's computational path."""
    v = clock.circuit
    psi = np.asarray(psi, dtype=float)
    work = initial_state(v, clock.x, psi)
    L = clock.L
    base = clock.work_qubits
    state = np.zeros(2**clock.N)
    norm = 1.0 / math.sqrt(L + 1)
    clock_mask = 1 << base  # clock state j: bits base..base+j set
    idx = np.arange(work.shape[0], dtype=np.int64)
    cur = work
    for j in range(L + 1):
        if j > 0:
            # gates are involutions: cur[g(idx)] moves amplitude z to g(z)
            cur = cur[v.gates[j - 1].apply(idx)]
            clock_mask |= 1 << (base + j)
        state[idx + clock_mask] += norm * cur
    return state


def meas_expectation(clock: ClockInstance, psi) -> float:
    """<Phi|Pi_meas|Phi> for the history state of witness psi."""
    phi = history_state(clock, psi)
    meas = assemble_sparse(OperatorSum(clock.N, (clock.meas,)))
    return float(phi @ (meas @ phi))


def check_history_invariants(clock: ClockInstance, psi):
    """Residuals: |H6 phi| and the measurement identity of the history state."""
    phi = history_state(clock, psi)
    h = clock.hamiltonian().operator()
    resid = float(np.linalg.norm(assemble_sparse(h) @ phi))
    pr = acceptance_probability(clock.circuit, clock.x, psi)
    expect = 1.0 - (1.0 - pr) / (clock.L + 1)
    meas_err = abs(meas_expectation(clock, psi) - expect)
    return resid, meas_err


def perturbed_hamiltonian(clock: ClockInstance, delta: float) -> LhMinInstance:
    """H~ = H6 + delta (I - Pi_meas); stoquastic by construction."""
    if not 0 < delta < math.inf:
        raise ValueError(f"delta must be positive and finite, got {delta}")
    h = clock.hamiltonian()
    eye = np.eye(clock.meas.block.shape[0])
    extra = LocalOperator(clock.meas.support,
                          delta * (eye - clock.meas.block), tag="delta-meas")
    return LhMinInstance(clock.N, h.terms + (extra,), h.lambda_yes, h.lambda_no,
                         metadata={**h.metadata, "delta": delta})


def predicted_min_eigenvalue(delta: float, L: int, max_pr: float) -> float:
    """First-order prediction delta (1 - max_pr) / (L + 1); O(delta^2) exact."""
    return delta * (1.0 - max_pr) / (L + 1)


def export_6sat(clock: ClockInstance, epsilon: float = None) -> StoqSatInstance:
    """All clock projectors as a stoquastic SAT instance.

    epsilon is measured spectrally at desk scale: M (1 - lambda_max(G)).
    A top eigenvalue at 1 (a measured epsilon of at most ETA) marks a
    yes-instance, whose epsilon is moot; it is pinned to 1 so the
    instance still validates.  A supplied epsilon must lie in (0, 1].
    """
    if epsilon is not None and not 0 < epsilon <= 1:
        raise ValueError(f"epsilon {epsilon} outside (0, 1]")
    projectors = clock.all_projectors()
    m = len(projectors)
    meta = {"source_circuit": "clock", "input": clock.x, "L": clock.L,
            "epsilon_mode": "supplied"}
    if epsilon is None:
        g = OperatorSum(clock.N, projectors, (1.0 / m,) * m)
        lam = float(dense_spectrum(g)[-1])
        eps = m * (1.0 - lam)
        meta["lambda_max"] = lam
        meta["epsilon_spectral"] = eps
        if eps <= ETA:
            epsilon = 1.0  # yes-instance; epsilon plays no role
            meta["epsilon_mode"] = "spectral-yes"
        else:
            epsilon = min(1.0, eps)
            meta["epsilon_mode"] = "spectral"
    return StoqSatInstance(n=clock.N, epsilon=epsilon,
                           projectors=projectors, metadata=meta)
