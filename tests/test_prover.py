import warnings

import numpy as np
import pytest

from stoqbench import (adversarial_witnesses, assemble_sparse, build_G,
                       from_dimacs, honest_witness, random_projector_instance)
from stoqbench.ops import ETA
from conftest import plus_instance
from test_acceptance import planted_sat_dimacs, unsat_dimacs

SAT_3 = "p cnf 3 3\n1 2 0\n-1 3 0\n2 -3 0\n"
UNSAT_2 = "p cnf 2 4\n1 2 0\n-1 2 0\n1 -2 0\n-1 -2 0\n"
SAT_5 = "p cnf 5 4\n1 2 0\n-1 4 0\n3 -4 5 0\n-2 -5 0\n"


class TestHonestWitness:
    def test_sat_formula_yields_satisfying_argmax(self):
        hw = honest_witness(from_dimacs(SAT_3))
        assert not hw.looks_unsat
        assert hw.eigenvalue == pytest.approx(1.0, abs=1e-12)
        bits = [(hw.argmax >> i) & 1 for i in range(3)]
        assert bits[0] or bits[1]
        assert (not bits[0]) or bits[2]
        assert bits[1] or (not bits[2])

    def test_unsat_formula_flagged(self):
        hw = honest_witness(from_dimacs(UNSAT_2))
        assert hw.looks_unsat
        assert hw.eigenvalue < 1.0 - 1e-8

    def test_plus_instance_uniform_amplitudes(self):
        hw = honest_witness(plus_instance(3, [(0, 1), (1, 2), (0, 2)]))
        amps = hw.vector.amplitudes
        assert len(amps) == 8
        for a in amps.values():
            assert a == pytest.approx(8**-0.5)
        assert hw.argmax == 0  # tie broken toward the smallest string

    def test_amplitudes_normalized_and_positive(self):
        inst = random_projector_instance(5, 2, 4, seed=6)
        hw = honest_witness(inst)
        assert hw.vector.norm() == pytest.approx(1.0, abs=1e-12)
        assert all(a > 0 for a in hw.vector.amplitudes.values())

    def test_matches_dense_eigendecomposition(self):
        # twofold-degenerate top eigenspace: the reference is the all-ones
        # vector projected onto it, not one basis vector LAPACK picked
        inst = random_projector_instance(4, 2, 3, seed=8)
        from stoqbench import assemble_dense, build_G
        dense = assemble_dense(build_G(inst))
        evals, evecs = np.linalg.eigh(dense)
        hw = honest_witness(inst)
        assert hw.eigenvalue == pytest.approx(float(evals[-1]), abs=1e-10)
        space = evecs[:, evals > evals[-1] - 1e-8]
        assert space.shape[1] == 2
        top = np.abs(space @ space.sum(axis=0))
        top /= np.linalg.norm(top)
        for x, a in hw.vector.amplitudes.items():
            assert a == pytest.approx(top[x], abs=1e-8)

    def test_repeated_calls_identical(self):
        inst = from_dimacs(SAT_5)
        first, second = honest_witness(inst), honest_witness(inst)
        assert first.vector.amplitudes == second.vector.amplitudes
        assert first.argmax == second.argmax

    def test_covers_every_satisfying_string(self):
        clauses = [[int(v) for v in line.split()[:-1]]
                   for line in SAT_5.splitlines()[1:]]
        satisfying = [x for x in range(32) if all(
            any((lit > 0) == bool((x >> (abs(lit) - 1)) & 1) for lit in c)
            for c in clauses)]
        assert len(satisfying) > 2 and satisfying[0] > 0
        hw = honest_witness(from_dimacs(SAT_5))
        assert sorted(hw.vector.amplitudes) == satisfying
        for a in hw.vector.amplitudes.values():
            assert a == pytest.approx(len(satisfying)**-0.5, abs=1e-10)
        assert hw.argmax == satisfying[0]


def lobpcg_support(inst):
    """honest_witness's amplitudes and argmax as LOBPCG from the all-ones
    vector found them, before a diagonal G was read off its diagonal."""
    from scipy.sparse.linalg import lobpcg

    g = build_G(inst)
    bound = 1e-10 * max(1.0, g.norm_bound())
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        _, vecs = lobpcg(assemble_sparse(g), np.ones((2**inst.n, 1)),
                         tol=bound / 100, maxiter=5000, largest=True)
    v = vecs[:, 0] / np.linalg.norm(vecs[:, 0])
    v = -v if v.sum() < 0 else v
    amps = {x: float(a) for x, a in enumerate(v) if a > ETA}
    norm = np.sqrt(sum(a * a for a in amps.values()))
    amps = {x: a / norm for x, a in amps.items()}
    peak = max(amps.values())
    return amps, min(x for x, a in amps.items() if a >= peak - 1e-12)


def cnf_fixtures():
    """The CNF yes-instances of the tests: SAT_3, SAT_5 and acceptance
    criterion 1's planted 3-CNFs."""
    rng = np.random.default_rng(101)
    planted = [from_dimacs(planted_sat_dimacs(n, 2 * n, rng)[0])
               for n in (4, 6, 8, 9, 10, 11, 12, 12)]
    return [from_dimacs(SAT_3), from_dimacs(SAT_5), *planted]


class TestDiagonalG:
    """A CNF's G is diagonal, so its top eigenpair is read off the
    diagonal; support and argmax are those LOBPCG found."""

    @pytest.mark.parametrize("inst", cnf_fixtures(),
                             ids=lambda inst: f"n{inst.n}m{inst.m}")
    def test_support_and_argmax_unchanged(self, inst):
        hw = honest_witness(inst)
        amps, argmax = lobpcg_support(inst)
        assert not hw.looks_unsat and hw.eigenvalue == pytest.approx(1.0)
        assert hw.argmax == argmax
        assert sorted(hw.vector.amplitudes) == sorted(amps)
        for x, a in amps.items():
            assert hw.vector.amplitudes[x] == pytest.approx(a, abs=1e-12)

    def test_unsat_cnfs_still_flagged(self):
        # acceptance criterion 2's unsat CNFs
        rng = np.random.default_rng(202)
        for n, extra in [(2, 0), (3, 2), (4, 3), (5, 4), (6, 5), (6, 8),
                         (7, 6), (8, 7), (8, 10), (9, 8), (10, 9), (10, 14)]:
            inst = from_dimacs(unsat_dimacs(n, extra, rng))
            hw = honest_witness(inst)
            diag = assemble_sparse(build_G(inst)).diagonal()
            assert hw.looks_unsat and hw.eigenvalue < 1.0 - 1e-8
            assert hw.eigenvalue == pytest.approx(diag.max(), abs=1e-12)
            assert diag[hw.argmax] == diag.max()


class TestAdversarialWitnesses:
    def test_all_basis_enumerates(self):
        inst = plus_instance(3, [(0, 1)])
        assert adversarial_witnesses(inst) == list(range(8))

    def test_all_basis_size_cap(self):
        inst = plus_instance(13, [(0, 1)])
        with pytest.raises(ValueError):
            adversarial_witnesses(inst)

    def test_random_mode_deterministic(self):
        inst = plus_instance(6, [(0, 1)])
        a = adversarial_witnesses(inst, mode="random", count=20, seed=4)
        b = adversarial_witnesses(inst, mode="random", count=20, seed=4)
        assert a == b and len(a) == 20
        assert all(0 <= w < 64 for w in a)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            adversarial_witnesses(plus_instance(2, [(0,)]), mode="greedy")
