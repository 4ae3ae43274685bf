import numpy as np
import pytest

from stoqbench import (Gate, VerifierCircuit, acceptance_probability,
                       assemble_dense, check_history_invariants,
                       compile_circuit, dense_spectrum,
                       export_6sat, history_state,
                       max_acceptance, meas_expectation,
                       perturbed_hamiltonian, predicted_min_eigenvalue,
                       projector_check, spectral_gap, validate,
                       WalkConfig, WalkRunner, required_steps)
from stoqbench.clock import gate_matrix, local_term

_KET1 = np.array([[0.0, 0.0], [0.0, 1.0]])


def circuit_xx():
    return VerifierCircuit(n=0, n_w=0, n_0=0, n_plus=1,
                           gates=(Gate("X", (0,)), Gate("X", (0,))))


def circuit_half():
    # output |1> iff witness bit is 1: accepts |0> only
    return VerifierCircuit(n=0, n_w=1, n_0=1, n_plus=0,
                           gates=(Gate("CNOT", (0, 1)), Gate("CNOT", (0, 1))),
                           out_basis="zero")


def circuit_coin():
    # swap a |+> ancilla onto the measured qubit: Pr = 1/2 for every witness
    return VerifierCircuit(n=0, n_w=1, n_0=0, n_plus=1,
                           gates=(Gate("CNOT", (0, 1)), Gate("CNOT", (1, 0)),
                                  Gate("CNOT", (0, 1))),
                           out_basis="zero")


class TestLocalTermHelpers:
    def test_local_term_tensors_factors(self):
        out = local_term((2, 5), [((2,), _KET1)])
        assert np.array_equal(out, np.kron(np.eye(2), _KET1))

    def test_local_term_multiqubit_factor(self):
        cnot = gate_matrix(Gate("CNOT", (0, 1)))
        out = local_term((0, 1), [((0, 1), cnot)])
        assert np.array_equal(out, cnot)

    def test_gate_matrix_is_permutation(self):
        for g in [Gate("X", (0,)), Gate("CNOT", (1, 3)),
                  Gate("TOFFOLI", (2, 0, 5))]:
            u = gate_matrix(g)
            assert np.array_equal(u @ u.T, np.eye(u.shape[0]))
            assert np.all((u == 0.0) | (u == 1.0))


class TestCompilation:
    def test_term_count_and_size(self):
        v = VerifierCircuit(n=2, n_w=1, n_0=1, n_plus=1,
                            gates=(Gate("X", (0,)), Gate("CNOT", (0, 1)),
                                   Gate("TOFFOLI", (0, 1, 2))))
        clock = compile_circuit(v, 2)
        # n + n_0 + n_plus init terms, L prop terms, one meas term
        assert len(clock.init_x) == 2
        assert len(clock.init_0) == 1
        assert len(clock.init_plus) == 1
        assert len(clock.prop) == 3
        assert clock.N == v.total_qubits + clock.L + 2
        for p in clock.all_projectors():
            assert len(p.support) <= 6

    def test_all_terms_are_projectors(self):
        clock = compile_circuit(circuit_half(), 0)
        for p in clock.all_projectors():
            ok, res = projector_check(p)
            assert ok and res <= 1e-12, (p.tag, res)
            assert np.min(p.block) >= 0.0

    def test_exported_instance_validates(self):
        inst = export_6sat(compile_circuit(circuit_xx(), 0))
        assert validate(inst) == []

    def test_bad_input_rejected(self):
        with pytest.raises(ValueError):
            compile_circuit(circuit_half(), 2)


class TestGroundSpace:
    def test_history_state_annihilated(self):
        clock = compile_circuit(circuit_half(), 0)
        for psi in ([1.0, 0.0], [0.0, 1.0], [0.6, 0.8]):
            resid, meas_err = check_history_invariants(clock, psi)
            assert resid <= 1e-12
            assert meas_err <= 1e-12

    def test_ground_energy_zero_and_dim(self):
        v = VerifierCircuit(n=1, n_w=2, n_0=1, n_plus=0,
                            gates=(Gate("CNOT", (1, 3)), Gate("X", (0,))),
                            out_basis="zero")
        clock = compile_circuit(v, 1)
        h = clock.hamiltonian().operator()
        evals = np.linalg.eigvalsh(assemble_dense(h))
        assert abs(evals[0]) <= 1e-10
        gap = spectral_gap(h)
        assert gap > 0.0
        assert np.sum(dense_spectrum(h) < gap / 2) == 2**v.n_w

    def test_meas_expectation_tracks_acceptance(self):
        clock = compile_circuit(circuit_half(), 0)
        psi = np.full(2, 2**-0.5)  # Pr = 1/2, L = 2
        expect = 1.0 - (1.0 - 0.5) / 3.0
        assert meas_expectation(clock, psi) == pytest.approx(expect, abs=1e-12)
        assert acceptance_probability(clock.circuit, 0, psi) \
            == pytest.approx(0.5)


class TestCircuitIndependence:
    def shape_spectrum(self, gates, n_w=1, n_0=1):
        v = VerifierCircuit(n=0, n_w=n_w, n_0=n_0, n_plus=0,
                            gates=gates, out_basis="zero")
        clock = compile_circuit(v, 0)
        return np.linalg.eigvalsh(
            assemble_dense(clock.hamiltonian().operator()))

    def test_two_gate_spectra_match(self):
        a = self.shape_spectrum((Gate("CNOT", (0, 1)), Gate("CNOT", (0, 1))))
        b = self.shape_spectrum((Gate("X", (1,)), Gate("X", (0,))))
        c = self.shape_spectrum((Gate("CNOT", (1, 0)), Gate("X", (1,))))
        assert np.max(np.abs(a - b)) <= 1e-12
        assert np.max(np.abs(a - c)) <= 1e-12

    def test_low_spectrum_matches_at_three_gates(self):
        a = self.shape_spectrum((Gate("X", (0,)),) * 3)
        b = self.shape_spectrum((Gate("X", (0,)), Gate("CNOT", (0, 1)),
                                 Gate("X", (1,))))
        low = a < 1.9
        assert np.max(np.abs(a[low] - b[low])) <= 1e-10

    def test_full_spectrum_differs_at_three_gates(self):
        # clock configurations outside the unary code couple differently
        # to the gate content once three or more hops are present, so the
        # high-energy spectrum is not shape-invariant
        a = self.shape_spectrum((Gate("X", (0,)),) * 3)
        b = self.shape_spectrum((Gate("X", (0,)), Gate("CNOT", (0, 1)),
                                 Gate("X", (1,))))
        assert np.max(np.abs(a - b)) > 1e-3


class TestPerturbation:
    def test_min_eigenvalue_prediction(self):
        clock = compile_circuit(circuit_coin(), 0)
        assert clock.L == 3
        delta = 1 / 2700  # 1 / (100 L^3), well inside the L^-3 window
        h = assemble_dense(perturbed_hamiltonian(clock, delta).operator())
        lam = float(np.linalg.eigvalsh(h)[0])
        max_pr, _ = max_acceptance(clock.circuit, 0)
        pred = predicted_min_eigenvalue(delta, clock.L, max_pr)
        assert abs(lam - pred) <= 10.0 * delta**2

    def test_residual_scales_quadratically(self):
        clock = compile_circuit(circuit_coin(), 0)
        max_pr, _ = max_acceptance(clock.circuit, 0)
        resid = []
        for delta in (1e-3, 5e-4):
            h = assemble_dense(perturbed_hamiltonian(clock, delta).operator())
            lam = float(np.linalg.eigvalsh(h)[0])
            resid.append(abs(lam - predicted_min_eigenvalue(
                delta, clock.L, max_pr)))
        ratio = resid[0] / resid[1]
        assert 3.5 <= ratio <= 4.5

    def test_accepting_circuit_keeps_zero_ground_energy(self):
        clock = compile_circuit(circuit_xx(), 0)
        h = assemble_dense(perturbed_hamiltonian(clock, 1e-3).operator())
        assert abs(np.linalg.eigvalsh(h)[0]) <= 1e-12

    def test_bad_delta_rejected(self):
        clock = compile_circuit(circuit_xx(), 0)
        with pytest.raises(ValueError):
            perturbed_hamiltonian(clock, 0.0)


class TestExport:
    def test_accepting_circuit_exports_yes_instance(self):
        inst = export_6sat(compile_circuit(circuit_xx(), 0))
        assert inst.metadata["epsilon_mode"] == "spectral-yes"
        assert inst.epsilon == 1.0
        # the walk protocol accepts a ground-space string
        evals, evecs = np.linalg.eigh(
            assemble_dense(__import__("stoqbench").build_G(inst)))
        top = np.abs(evecs[:, -1])
        witness = int(np.argmax(top))
        steps = required_steps(inst.n, inst.epsilon, inst.m)
        t = WalkRunner(inst).run(witness, WalkConfig(steps=steps, seed=0))
        assert t.accepted

    def test_rejecting_circuit_exports_no_instance(self):
        v = VerifierCircuit(n=0, n_w=0, n_0=1, n_plus=0,
                            gates=(Gate("X", (0,)),), out_basis="zero")
        inst = export_6sat(compile_circuit(v, 0))
        assert inst.metadata["epsilon_mode"] == "spectral"
        assert inst.metadata["lambda_max"] < 1.0 - 1e-6
        assert 0.0 < inst.epsilon <= 1.0

    @pytest.mark.parametrize("x,mode", [(0, "spectral"), (1, "spectral-yes")])
    def test_thirteen_qubit_export_matches_lobpcg(self, x, mode):
        from stoqbench import build_G, extreme_eigenvalue
        v = VerifierCircuit(1, 2, 1, 1, (Gate("CNOT", (1, 3)), Gate("X", (0,)),
                                         Gate("TOFFOLI", (0, 2, 3)),
                                         Gate("CNOT", (4, 2)), Gate("X", (3,)),
                                         Gate("CNOT", (3, 1))),
                            out_basis="zero")
        clock = compile_circuit(v, x)
        assert clock.N == 13 and clock.L == 6
        inst = export_6sat(clock)
        assert inst.metadata["epsilon_mode"] == mode
        top = extreme_eigenvalue(build_G(inst), "max").value
        assert inst.metadata["lambda_max"] == pytest.approx(top, abs=1e-12)

    def test_supplied_epsilon_passthrough(self):
        inst = export_6sat(compile_circuit(circuit_xx(), 0), epsilon=0.25)
        assert inst.epsilon == 0.25
        assert inst.metadata["epsilon_mode"] == "supplied"
