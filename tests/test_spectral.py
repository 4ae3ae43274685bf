import numpy as np
import pytest

from stoqbench import (Gate, LocalOperator, OperatorSum, VerifierCircuit,
                       assemble_dense, build_G, compile_circuit, dense_spectrum,
                       eigencount_below, extreme_eigenvalue,
                       random_projector_instance, spectral_gap)
from conftest import plus_instance

PLUS = np.array([[0.5, 0.5], [0.5, 0.5]])
MINUS_X = np.array([[0.0, -1.0], [-1.0, 0.0]])


class TestExtremeEigenvalue:
    def test_plus_projector_top_pair(self):
        op = OperatorSum(1, (LocalOperator((0,), PLUS),))
        res = extreme_eigenvalue(op, "max")
        assert res.value == pytest.approx(1.0, abs=1e-9)
        assert np.allclose(np.abs(res.vector), [2**-0.5, 2**-0.5], atol=1e-6)

    def test_minus_x_minimum(self):
        op = OperatorSum(1, (LocalOperator((0,), MINUS_X),))
        res = extreme_eigenvalue(op, "min")
        assert res.value == pytest.approx(-1.0, abs=1e-9)

    def test_clock_hamiltonian_ground_energy_zero(self):
        v = VerifierCircuit(n=0, n_w=0, n_0=0, n_plus=1,
                            gates=(Gate("X", (0,)), Gate("X", (0,))))
        h = compile_circuit(v, 0).hamiltonian().operator()
        res = extreme_eigenvalue(h, "min")
        assert abs(res.value) <= 1e-10

    def test_max_matches_dense_on_random_instances(self):
        for seed in range(5):
            inst = random_projector_instance(5, 2, 4, seed=seed)
            g = build_G(inst)
            res = extreme_eigenvalue(g, "max")
            dense_top = dense_spectrum(g)[-1]
            assert res.value == pytest.approx(dense_top, abs=1e-8)

    def test_min_is_negated_max_of_negation(self):
        rng = np.random.default_rng(4)
        m = rng.normal(size=(4, 4))
        op = OperatorSum(2, (LocalOperator((0, 1), m + m.T),))
        neg = OperatorSum(2, (LocalOperator((0, 1), -(m + m.T)),))
        lo = extreme_eigenvalue(op, "min").value
        hi = extreme_eigenvalue(neg, "max").value
        assert lo == pytest.approx(-hi, abs=2e-10)

    def test_perron_vector_nonnegative(self):
        inst = random_projector_instance(4, 2, 3, seed=3)
        res = extreme_eigenvalue(build_G(inst), "max")
        v = res.vector
        if v[np.argmax(np.abs(v))] < 0:
            v = -v
        assert np.min(v) > -1e-12

    def test_unconverged_solve_raises(self):
        inst = random_projector_instance(5, 2, 4, seed=0)
        with pytest.raises(ValueError, match="not verified"):
            extreme_eigenvalue(build_G(inst), "max", tol=1e-14, max_iter=3)

    @pytest.mark.parametrize("n", [3, 6])
    def test_min_orthogonal_to_all_ones(self, n):
        # all-ones is the top eigenvector of a sum of X terms and of G on a
        # |+> instance, orthogonal to the ground space in both
        xs = OperatorSum(n, tuple(LocalOperator((q,), -MINUS_X)
                                  for q in range(n)))
        assert extreme_eigenvalue(xs, "min").value == pytest.approx(-n)
        g = build_G(plus_instance(n, [(q, q + 1) for q in range(n - 1)]))
        assert extreme_eigenvalue(g, "min").value == pytest.approx(0, abs=1e-9)
        assert extreme_eigenvalue(g, "max").value == pytest.approx(1.0)

    @pytest.mark.parametrize("n", [2, 4])  # n=4: twofold top eigenspace
    def test_vector_is_projection_of_ones(self, n):
        inst = random_projector_instance(n, 2, 3, seed=8)
        g = build_G(inst)
        res = extreme_eigenvalue(g, "max")
        assert res.method == ("dense" if n == 2 else "lobpcg")
        assert res.converged and res.residual <= 1e-10
        evals, evecs = np.linalg.eigh(assemble_dense(g))
        top = evecs[:, evals > evals[-1] - 1e-8]
        ref = top @ top.sum(axis=0)
        assert np.allclose(res.vector, ref / np.linalg.norm(ref), atol=1e-8)


class TestDenseDiagnostics:
    def test_eigencount_identity(self):
        assert eigencount_below(np.eye(3), 0.5) == 0

    def test_eigencount_diag(self):
        assert eigencount_below(np.diag([0.0, 0.0, 1.0]), 0.5) == 2

    def test_gap_two_level(self):
        assert spectral_gap(np.diag([0.0, 1.0])) == pytest.approx(1.0)

    def test_gap_skips_exact_degeneracy(self):
        assert spectral_gap(np.diag([0.0, 0.0, 2.0])) == pytest.approx(2.0)

    def test_gap_zero_for_flat_spectrum(self):
        assert spectral_gap(np.zeros((2, 2))) == 0.0

    def test_clock_gap_positive(self):
        v = VerifierCircuit(n=0, n_w=0, n_0=0, n_plus=1,
                            gates=(Gate("X", (0,)), Gate("X", (0,))))
        h = compile_circuit(v, 0).hamiltonian().operator()
        assert spectral_gap(assemble_dense(h)) > 0.0

    def test_clock_ground_dimension(self):
        v = VerifierCircuit(n=1, n_w=2, n_0=0, n_plus=0,
                            gates=(Gate("CNOT", (1, 2)), Gate("X", (0,))),
                            out_basis="zero")
        h = assemble_dense(compile_circuit(v, 0).hamiltonian().operator())
        gap = spectral_gap(h)
        assert eigencount_below(h, gap / 2) == 2**v.n_w
