import hashlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stoqbench import (Gate, LhMinInstance, LocalOperator, OperatorSum,
                       VerifierCircuit, acceptance_operator,
                       acceptance_probability, assemble_dense, circuits,
                       decompose_stoquastic, dyadic_weights,
                       hamiltonian_to_verifier, initial_state, load_circuit,
                       max_acceptance, mix, save, save_circuit,
                       x_projector_isometry, zero_projector_isometry)
from stoqbench.cli import main
from stoqbench.ops import ETA, circuit_permutation

from conftest import random_stoquastic_block
from refs import ref_decompose

X = np.array([[0.0, 1.0], [1.0, 0.0]])


def dense_circuit(gates, n):
    perm = circuit_permutation(gates, {q: q for q in range(n)}, 2**n)
    mat = np.zeros((2**n, 2**n))
    mat[perm, np.arange(2**n)] = 1.0
    return mat


def regs_state(n_psi, psi, n_0, n_plus):
    """psi on the low qubits, |0> ancillas, then |+> ancillas."""
    state = psi.copy()
    if n_0:
        zeros = np.zeros(2**n_0)
        zeros[0] = 1.0
        state = np.kron(zeros, state)
    for _ in range(n_plus):
        state = np.kron(np.full(2, 2**-0.5), state)
    return state


class TestVerifierCircuit:
    def test_identity_pair_accepts_plus(self):
        v = VerifierCircuit(n=0, n_w=0, n_0=0, n_plus=1,
                            gates=(Gate("X", (0,)), Gate("X", (0,))))
        assert acceptance_probability(v, 0, np.ones(1)) == pytest.approx(1.0)

    def test_x_on_zero_output_rejects(self):
        v = VerifierCircuit(n=0, n_w=0, n_0=1, n_plus=0,
                            gates=(Gate("X", (0,)),), out_basis="zero")
        assert acceptance_probability(v, 0, np.ones(1)) == pytest.approx(0.0)

    def test_witness_controlled_output(self):
        # witness sits on the measured qubit: |0> passes, |1> fails
        v = VerifierCircuit(n=0, n_w=1, n_0=1, n_plus=0,
                            gates=(Gate("X", (1,)), Gate("X", (1,))),
                            out_basis="zero")
        assert acceptance_probability(v, 0, [1.0, 0.0]) == pytest.approx(1.0)
        assert acceptance_probability(v, 0, [0.0, 1.0]) == pytest.approx(0.0)
        assert acceptance_probability(v, 0, [2**-0.5, 2**-0.5]) \
            == pytest.approx(0.5)

    def test_input_string_reaches_circuit(self):
        # input bit sits on the measured qubit; accept iff it is 0
        v = VerifierCircuit(n=1, n_w=0, n_0=1, n_plus=0,
                            gates=(Gate("X", (1,)), Gate("X", (1,))),
                            out_basis="zero")
        assert acceptance_probability(v, 0, np.ones(1)) == pytest.approx(1.0)
        assert acceptance_probability(v, 1, np.ones(1)) == pytest.approx(0.0)

    def test_acceptance_operator_matches_probability(self):
        v = VerifierCircuit(n=1, n_w=2, n_0=1, n_plus=1,
                            gates=(Gate("TOFFOLI", (1, 2, 3)),
                                   Gate("CNOT", (3, 0)),
                                   Gate("X", (4,))))
        rng = np.random.default_rng(0)
        a = acceptance_operator(v, 1)
        assert np.allclose(a, a.T)
        for _ in range(10):
            psi = rng.normal(size=4)
            psi /= np.linalg.norm(psi)
            assert psi @ a @ psi == pytest.approx(
                acceptance_probability(v, 1, psi), abs=1e-12)

    def test_one_output_measurement_rule(self):
        """acceptance_probability and acceptance_operator read the output
        measurement from one helper; both equal, bit for bit, the separate
        |0>/|+> projections of qubit 0 they once computed themselves."""
        def ref_probability(state, out_basis):
            pairs = state.reshape(-1, 2)
            if out_basis == "zero":
                return float(np.sum(pairs[:, 0] ** 2))
            s = (pairs[:, 0] + pairs[:, 1]) / math.sqrt(2.0)
            return float(np.sum(s * s))

        def ref_operator(cols, out_basis):
            half = cols.reshape(-1, 2, cols.shape[1])
            if out_basis == "zero":
                proj = half[:, 0, :]
                return proj.T @ proj
            plus = (half[:, 0, :] + half[:, 1, :]) / math.sqrt(2.0)
            return plus.T @ plus

        rng = np.random.default_rng(11)
        kinds = {"X": 1, "CNOT": 2, "TOFFOLI": 3}
        for i in range(200):
            regs = rng.multinomial(int(rng.integers(3, 9)), [0.25] * 4)
            regs[1] = max(regs[1], 1)  # a witness register to measure
            total = int(regs.sum())
            gates = []
            for _ in range(int(rng.integers(1, 8))):
                kind = str(rng.choice([k for k, w in kinds.items()
                                       if w <= total]))
                gates.append(Gate(kind, tuple(int(q) for q in rng.choice(
                    total, size=kinds[kind], replace=False))))
            v = VerifierCircuit(*(int(r) for r in regs), tuple(gates),
                                out_basis=("plus", "zero")[i % 2])
            x = int(rng.integers(2**v.n))
            psi = rng.normal(size=2**v.n_w)
            psi /= np.linalg.norm(psi)
            out = np.zeros(2**total)
            out[v.permutation()] = initial_state(v, x, psi)
            assert acceptance_probability(v, x, psi) == \
                ref_probability(out, v.out_basis)
            cols = np.zeros((2**total, 2**v.n_w))
            for w in range(2**v.n_w):
                cols[v.permutation(), w] = initial_state(
                    v, x, np.eye(2**v.n_w)[w])
            assert np.array_equal(acceptance_operator(v, x),
                                  ref_operator(cols, v.out_basis))

    def test_max_acceptance_beats_basis_witnesses(self):
        v = VerifierCircuit(n=0, n_w=2, n_0=1, n_plus=0,
                            gates=(Gate("TOFFOLI", (0, 1, 2)),
                                   Gate("CNOT", (2, 0)),
                                   Gate("X", (2,))),
                            out_basis="zero")
        best, vec = max_acceptance(v, 0)
        for w in range(4):
            e = np.zeros(4)
            e[w] = 1.0
            assert best >= acceptance_probability(v, 0, e) - 1e-12
        assert best == pytest.approx(acceptance_probability(v, 0, vec))

    def test_gate_range_checked(self):
        with pytest.raises(ValueError):
            VerifierCircuit(n=1, n_w=0, n_0=0, n_plus=0,
                            gates=(Gate("X", (1,)),))

    def test_unnormalized_witness_rejected(self):
        v = VerifierCircuit(n=0, n_w=1, n_0=0, n_plus=1,
                            gates=(Gate("X", (1,)), Gate("X", (1,))))
        with pytest.raises(ValueError):
            acceptance_probability(v, 0, [1.0, 1.0])


# block entries at and around the ETA cut, tolerance-level positives
# among them (a valid off-diagonal entry is at most ETA)
_EDGES = [0.0, -0.0, ETA, -ETA, ETA / 2, -ETA / 2, -2 * ETA,
          float(np.nextafter(-ETA, -1.0)), float(np.nextafter(-ETA, 0.0))]
DIAGONAL = st.one_of(st.sampled_from(_EDGES + [2 * ETA, 1.0]),
                     st.floats(-2.0, 2.0))
OFF_DIAGONAL = st.one_of(st.sampled_from(_EDGES), st.floats(-2.0, 0.0))


@st.composite
def lhmin_instances(draw):
    n = draw(st.integers(1, 4))
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        k = draw(st.integers(1, min(n, 3)))
        support = tuple(sorted(draw(st.permutations(range(n)))[:k]))
        block = np.zeros((2**k, 2**k))
        for x in range(2**k):
            block[x, x] = draw(DIAGONAL)
            for y in range(x + 1, 2**k):
                block[x, y] = block[y, x] = draw(OFF_DIAGONAL)
        terms.append(LocalOperator(support, block))
    return LhMinInstance(n, tuple(terms), 0.0, 1.0)


def _decomposition_bits(decompose, inst):
    """gamma, beta and each part with its weights as float hex, or the
    ValueError message."""
    try:
        dec = decompose(inst)
    except ValueError as exc:
        return str(exc)
    return (dec.gamma.hex(), dec.beta.hex(),
            [(p.hex(), part.weight.hex(), part.kind, part.support, part.circuit)
             for p, part in dec.parts])


class TestDecomposition:
    @settings(max_examples=200, deadline=None)
    @given(lhmin_instances())
    def test_scan_matches_the_double_loop(self, inst):
        assert _decomposition_bits(decompose_stoquastic, inst) \
            == _decomposition_bits(ref_decompose, inst)

    def cases(self):
        return [
            LhMinInstance(1, (LocalOperator((0,), -X),), 0.0, 1.0),
            LhMinInstance(1, (LocalOperator((0,), -np.diag([1.0, 0.0])),),
                          0.0, 1.0),
            LhMinInstance(2, (LocalOperator((0, 1), -np.kron(X, X)),),
                          0.0, 1.0),
        ]

    def test_minus_x_single_part(self):
        dec = decompose_stoquastic(self.cases()[0])
        assert dec.gamma == pytest.approx(1.0)
        assert dec.beta == pytest.approx(0.0)
        assert len(dec.parts) == 1
        p, part = dec.parts[0]
        assert p == 1.0 and part.kind == "X0"

    def test_reconstruction_identity(self):
        # sum p_j U_j H_j U_j^dag == gamma H + beta I on the full space
        for inst in self.cases():
            dec = decompose_stoquastic(inst)
            n = inst.n
            acc = np.zeros((2**n, 2**n))
            for p, part in dec.parts:
                local = LocalOperator(part.support, dec.part_operator(part))
                acc += p * assemble_dense(OperatorSum(n, (local,)))
            h = assemble_dense(OperatorSum(n, inst.terms))
            expect = dec.gamma * h + dec.beta * np.eye(2**n)
            assert np.max(np.abs(acc - expect)) <= 1e-12

    def test_positive_diagonal_shifted(self):
        inst = LhMinInstance(1, (LocalOperator((0,), np.diag([2.0, 0.0])),),
                             0.0, 1.0)
        dec = decompose_stoquastic(inst)
        # shift by 2 leaves -2|1><1|, one Z00 part conjugated by X
        assert dec.beta == pytest.approx(-1.0)
        assert dec.gamma == pytest.approx(0.5)
        p, part = dec.parts[0]
        assert part.kind == "Z00" and len(part.circuit) == 1

    def test_identity_multiple_rejected(self):
        inst = LhMinInstance(1, (LocalOperator((0,), np.eye(2)),), 0.0, 1.0)
        with pytest.raises(ValueError):
            decompose_stoquastic(inst)

    def test_non_stoquastic_rejected(self):
        inst = LhMinInstance(1, (LocalOperator((0,), X),), 0.0, 1.0)
        with pytest.raises(ValueError):
            decompose_stoquastic(inst)


class TestIsometries:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_zero_projector_ladder(self, k):
        gates, n_0, n_plus, measured = zero_projector_isometry(k)
        assert (n_0, n_plus) == (k, 1)
        total = k + n_0 + n_plus
        w = dense_circuit(gates, total)
        x_meas = assemble_dense(OperatorSum(total,
                                            (LocalOperator((measured,), X),)))
        obs = w.T @ x_meas @ w
        # restricted to |psi>|0^k>|+>, the observable is |0^k><0^k|
        rng = np.random.default_rng(k)
        for _ in range(8):
            psi = rng.normal(size=2**k)
            psi /= np.linalg.norm(psi)
            state = regs_state(k, psi, n_0, n_plus)
            assert state @ obs @ state == pytest.approx(psi[0] ** 2, abs=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_x_projector_ladder(self, k):
        gates, n_0, n_plus, measured = x_projector_isometry(k)
        assert (n_0, n_plus, measured) == (k - 1, 0, 0)
        total = k + n_0
        if gates:
            w = dense_circuit(gates, total)
        else:
            w = np.eye(2**total)
        x_meas = assemble_dense(OperatorSum(total, (LocalOperator((0,), X),)))
        obs = w.T @ x_meas @ w
        # target: X on qubit 0 tensor |0..0><0..0| on qubits 1..k-1
        target = np.zeros((2**k, 2**k))
        target[0, 1] = target[1, 0] = 1.0
        rng = np.random.default_rng(10 + k)
        for _ in range(8):
            psi = rng.normal(size=2**k)
            psi /= np.linalg.norm(psi)
            state = regs_state(k, psi, n_0, 0)
            assert state @ obs @ state == pytest.approx(psi @ target @ psi,
                                                        abs=1e-12)


class TestMixing:
    def test_mix_is_linear(self):
        v1 = VerifierCircuit(n=0, n_w=1, n_0=0, n_plus=1,
                             gates=(Gate("X", (1,)), Gate("X", (1,))))
        v2 = VerifierCircuit(n=0, n_w=1, n_0=1, n_plus=0,
                             gates=(Gate("CNOT", (0, 1)),
                                    Gate("CNOT", (1, 0)),
                                    Gate("CNOT", (0, 1))),
                             out_basis="zero")
        m = mix(v1, v2)
        psi = np.array([0.6, 0.8])
        expect = 0.5 * acceptance_probability(v1, 0, psi) \
            + 0.5 * acceptance_probability(v2, 0, psi)
        assert m.acceptance_probability(0, psi) == pytest.approx(expect)
        assert np.allclose(m.acceptance_operator(0),
                           0.5 * acceptance_operator(v1, 0)
                           + 0.5 * acceptance_operator(v2, 0))

    def test_mix_requires_matching_witness(self):
        v1 = VerifierCircuit(n=0, n_w=1, n_0=0, n_plus=1,
                             gates=(Gate("X", (1,)), Gate("X", (1,))))
        v2 = VerifierCircuit(n=0, n_w=2, n_0=0, n_plus=1,
                             gates=(Gate("X", (2,)), Gate("X", (2,))))
        with pytest.raises(ValueError):
            mix(v1, v2)

    def test_dyadic_weights_sum_to_one(self, monkeypatch):
        monkeypatch.setattr(circuits, "SELECTOR_BITS", 20)
        w = [0.3, 0.3, 0.4]
        approx, err = dyadic_weights(w)
        assert sum(approx) == pytest.approx(1.0, abs=0.0)
        assert err <= 2.0**-20
        for a in approx:
            assert (a * 2**20) == int(a * 2**20)

    def test_dyadic_weights_low_precision(self, monkeypatch):
        monkeypatch.setattr(circuits, "SELECTOR_BITS", 2)
        approx, err = dyadic_weights([1 / 3, 1 / 3, 1 / 3])
        assert sum(approx) == pytest.approx(1.0)
        assert err <= 0.25 + 1e-12


class TestHamiltonianToVerifier:
    def check(self, inst, n_witnesses=20, seed=0):
        verifier, alpha, beta_prime = hamiltonian_to_verifier(inst)
        h = assemble_dense(OperatorSum(inst.n, inst.terms))
        budget = 1e-12 + len(verifier.parts) * 2.0**-20
        rng = np.random.default_rng(seed)
        for _ in range(n_witnesses):
            psi = rng.normal(size=2**inst.n)
            psi /= np.linalg.norm(psi)
            pr = verifier.acceptance_probability(0, psi)
            expect = psi @ (-alpha * h + beta_prime * np.eye(2**inst.n)) @ psi
            assert abs(pr - expect) <= budget
        return verifier, alpha, beta_prime

    def test_minus_x_verifier(self):
        inst = LhMinInstance(1, (LocalOperator((0,), -X),), 0.0, 1.0)
        verifier, alpha, beta_prime = self.check(inst)
        # ground state |+> of -X accepts with alpha + beta' = 1
        assert verifier.acceptance_probability(0, np.full(2, 2**-0.5)) \
            == pytest.approx(alpha + beta_prime, abs=1e-6)

    def test_zero_ket_verifier(self):
        inst = LhMinInstance(1, (LocalOperator((0,), -np.diag([1.0, 0.0])),),
                             0.0, 1.0)
        verifier, alpha, beta_prime = self.check(inst)
        assert verifier.acceptance_probability(0, [1.0, 0.0]) \
            == pytest.approx(alpha + beta_prime, abs=1e-6)
        assert verifier.acceptance_probability(0, [0.0, 1.0]) \
            == pytest.approx(beta_prime, abs=1e-6)

    def test_two_qubit_mixture(self):
        terms = (LocalOperator((0, 1), -np.kron(X, X)),
                 LocalOperator((1,), -np.diag([0.0, 1.0])),
                 LocalOperator((0,), np.diag([0.5, 0.0])))
        inst = LhMinInstance(2, terms, 0.0, 1.0)
        self.check(inst, n_witnesses=30)

    def test_part_verifier_local_observable(self):
        # a Z00 part on qubit 1 of 2, read back from its part document:
        # Pr = (1 - <psi|H|psi>)/2 with H = -|0><0| on qubit 1
        inst = LhMinInstance(2, (LocalOperator((1,), -np.diag([1.0, 0.0])),),
                             0.0, 1.0)
        (part,) = circuits.verifier_document(inst)["parts"]
        assert part["p"] == 1.0
        v = circuits.circuit_from_document(part["circuit"])
        for w, expect in [(0, 1.0), (1, 1.0), (2, 0.0), (3, 0.0)]:
            psi = np.zeros(4)
            psi[w] = 1.0
            pr = acceptance_probability(v, 0, psi)
            assert pr == pytest.approx((1.0 + expect) / 2.0, abs=1e-12)

    def test_gates_are_built_per_template_not_per_gate(self):
        """Gate objects are built once per distinct template key (kind, k,
        local circuit), however many parts share it."""
        rng = np.random.default_rng(6)
        block = random_stoquastic_block(rng, 2)
        terms = tuple(LocalOperator((i, j), block)
                      for i in range(6) for j in range(i + 1, 6))
        inst = LhMinInstance(6, terms, 0.0, 1.0)
        keys = {(part.kind, len(part.support), part.circuit)
                for _, part in decompose_stoquastic(inst).parts}
        for cached in (circuits._x_circuit, circuits._pair_circuit,
                       circuits._template):
            cached.cache_clear()
        built = []
        post_init = Gate.__post_init__

        def counting(gate):
            built.append(gate)
            post_init(gate)

        with mock.patch.object(Gate, "__post_init__", counting):
            doc = circuits.verifier_document(inst)
        written = sum(len(p["circuit"]["gates"]) for p in doc["parts"])
        # each key builds its local circuit (at most 2k + 1 gates: CNOTs
        # and X's) and its ladder (at most k Toffolis) once
        assert len(built) <= sum(3 * k + 1 for _, k, _ in keys)
        assert len(doc["parts"]) == len(terms) * len(keys)
        assert written > 3 * len(built)


class TestCircuitFiles:
    def test_round_trip(self, tmp_path):
        v = VerifierCircuit(n=1, n_w=2, n_0=1, n_plus=1,
                            gates=(Gate("TOFFOLI", (0, 1, 3)),
                                   Gate("CNOT", (3, 0)),
                                   Gate("X", (4,))),
                            out_basis="zero")
        path = tmp_path / "circ.json"
        save_circuit(v, path)
        back = load_circuit(path)
        assert back == v

    def test_version_check(self, tmp_path):
        import json
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": 99, "gates": []}))
        with pytest.raises(ValueError):
            load_circuit(path)


class TestOutputsPinned:
    """The compiled verifier's bytes, taken before the reduction wrote its
    document directly."""

    def instance(self):
        rng = np.random.default_rng(35)
        terms = (LocalOperator((0,), -X),  # measured on qubit 0: X.X filler
                 LocalOperator((1,), random_stoquastic_block(rng, 1)),
                 LocalOperator((0, 2), random_stoquastic_block(rng, 2)),
                 LocalOperator((1, 3), -np.kron(X, X)),
                 LocalOperator((0, 2, 3), random_stoquastic_block(rng, 3)))
        return LhMinInstance(4, terms, -3.0, -1.0)

    def test_compile_verifier_json(self, tmp_path):
        path = str(tmp_path / "h.json")
        save(self.instance(), path)
        out = tmp_path / "v.json"
        assert main(["compile", "--instance", path, "--to", "verifier",
                     "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "5d7590472b01cc7db0166a2e94324437d10786e902aa6c3ce1f7d2349d9afd3d")
