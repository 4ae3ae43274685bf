import math

import numpy as np
import pytest

from stoqbench import (DisorderEnsemble, LhMinInstance, LocalOperator,
                       TermTemplate, assemble_dense, av_decide,
                       cnf_ensemble_from_dimacs, lambda_stats,
                       replica_ensemble, sbp_bounds, sbp_matrix, trace_power,
                       trace_report)

X = np.array([[0.0, 1.0], [1.0, 0.0]])


def minus_x_instance():
    return LhMinInstance(1, (LocalOperator((0,), -X),), -1.0 - 1e-6, 0.0)


def one_qubit_ensemble():
    # -X plus a random 2|0><0| penalty: lambda(0) = -1, lambda(1) = 1 - sqrt(2)
    tpl_x = TermTemplate((0,), (), {0: -X})
    tpl_d = TermTemplate((0,), (0,), {0: np.zeros((2, 2)),
                                      1: np.diag([2.0, 0.0])})
    return DisorderEnsemble(1, 1, (tpl_x, tpl_d))


class TestSbpMatrix:
    def test_minus_x_scaling(self):
        g, p = sbp_matrix(minus_x_instance())
        assert p == pytest.approx(3.0)
        dense = assemble_dense(g)
        assert np.allclose(dense, 0.5 * np.eye(2) + X / 6.0)
        assert np.min(dense) >= 0.0 and np.max(dense) <= 1.0

    def test_entries_in_unit_interval_for_random_terms(self):
        rng = np.random.default_rng(3)
        terms = []
        for sup in [(0, 1), (1, 2)]:
            m = -np.abs(rng.normal(size=(4, 4)))
            m = (m + m.T) / 2
            terms.append(LocalOperator(sup, m))
        h = LhMinInstance(3, tuple(terms), -5.0, 0.0)
        g, p = sbp_matrix(h)
        dense = assemble_dense(g)
        assert np.min(dense) >= 0.0 and np.max(dense) <= 1.0

    def test_non_stoquastic_rejected(self):
        h = LhMinInstance(1, (LocalOperator((0,), X),), 0.0, 1.0)
        with pytest.raises(ValueError):
            sbp_matrix(h)


class TestTracePower:
    def test_half_identity_cube(self):
        h = LhMinInstance(1, (LocalOperator((0,), -np.diag([0.0, 1e-12])),),
                          -1.0, 0.0)
        g, p = sbp_matrix(h)
        rep = trace_power(g, 3)
        # G is 1/2 I up to 1e-12: tr(G^3) = 2 / 8
        assert rep.value == pytest.approx(0.25, abs=1e-9)

    def test_minus_x_square(self):
        g, p = sbp_matrix(minus_x_instance())
        rep = trace_power(g, 2)
        # eigenvalues (1/2 +- 1/6): squares sum to 5/9
        assert rep.value == pytest.approx(5.0 / 9.0, abs=1e-12)

    def test_sampled_matches_exact(self):
        g, p = sbp_matrix(minus_x_instance())
        exact = trace_power(g, 3).value
        rep = trace_power(g, 3, mode="sampled", paths=20000, seed=1)
        assert rep.mode == "sampled" and rep.stderr > 0.0
        assert abs(rep.value - exact) <= 4.0 * rep.stderr

    def test_sampled_deterministic_under_seed(self):
        g, p = sbp_matrix(minus_x_instance())
        a = trace_power(g, 2, mode="sampled", paths=100, seed=7)
        b = trace_power(g, 2, mode="sampled", paths=100, seed=7)
        assert a.value == b.value and a.stderr == b.stderr

    def test_argument_validation(self):
        g, p = sbp_matrix(minus_x_instance())
        with pytest.raises(ValueError):
            trace_power(g, 0)
        with pytest.raises(ValueError):
            trace_power(g, 2, mode="sampled", paths=0)


class TestSbpBounds:
    def test_example_thresholds(self):
        mu_yes, mu_no, L = sbp_bounds(0.0, 1.0, 2.0, 1)
        assert mu_yes == pytest.approx(0.5)
        assert mu_no == pytest.approx(0.25)
        # smallest L with 2 (1/2)^L <= 1/2: L = 2
        assert L == 2

    def test_bounds_separate_at_reported_L(self):
        h = minus_x_instance()
        rep = trace_report(h)
        assert rep.bound_yes > rep.bound_no
        # -X really is a yes-instance: trace respects the yes bound
        assert rep.value >= rep.bound_yes - 1e-12

    def test_inverted_thresholds_rejected(self):
        with pytest.raises(ValueError):
            sbp_bounds(1.0, 0.0, 2.0, 1)


class TestReplicaEnsemble:
    def test_mean_preserved_std_shrinks(self):
        ens = one_qubit_ensemble()
        base = lambda_stats(ens, 4000, seed=0)
        expect_mean = (-1.0 + (1.0 - math.sqrt(2.0))) / 2.0
        expect_std = (math.sqrt(2.0) - 2.0 + 1.0 + 1.0) / 2.0  # half-gap
        assert base.mean == pytest.approx(expect_mean, abs=0.02)
        rep4 = lambda_stats(replica_ensemble(ens, 4), 4000, seed=0)
        assert rep4.mean == pytest.approx(expect_mean, abs=0.02)
        assert rep4.std == pytest.approx(base.std / 2.0, rel=0.1)

    def test_replica_realization_matches_direct_assembly(self):
        ens = one_qubit_ensemble()
        rep = replica_ensemble(ens, 2)
        assert rep.n == 2 and rep.m == 2
        for r in range(4):
            inst = rep.realize(r)
            dense = assemble_dense(inst.operator())
            lam = float(np.linalg.eigvalsh(dense)[0])
            lam0 = -1.0 if not (r & 1) else 1.0 - math.sqrt(2.0)
            lam1 = -1.0 if not (r & 2) else 1.0 - math.sqrt(2.0)
            assert lam == pytest.approx((lam0 + lam1) / 2.0, abs=1e-12)

    def test_qubit_ceiling(self):
        with pytest.raises(ValueError):
            replica_ensemble(one_qubit_ensemble(), 100, qubit_ceiling=24)

    def test_stats_record_draws(self):
        stats = lambda_stats(replica_ensemble(one_qubit_ensemble(), 3), 5,
                             seed=2)
        assert len(stats.rs) == 5
        assert all(len(r) == 3 for r in stats.rs)
        assert stats.replicas == 3

    def test_sparse_path_above_dense_limit(self, monkeypatch):
        # three qubits: a -XXX term, -X on qubits 0 and 1 and one diagonal
        # penalty per random bit; LOBPCG solves them once the limit is 0
        zz = np.diag([0.0, 1.0, 1.0, 0.0])
        ens = DisorderEnsemble(3, 2, (
            TermTemplate((0, 1, 2), (), {0: -np.kron(np.kron(X, X), X)}),
            TermTemplate((0,), (), {0: -X}),
            TermTemplate((1,), (), {0: -X}),
            TermTemplate((0,), (0,), {0: np.zeros((2, 2)),
                                      1: np.diag([2.0, 0.0])}),
            TermTemplate((1, 2), (1,), {0: np.zeros((4, 4)), 1: zz})))
        dense = lambda_stats(ens, 12, seed=5)
        monkeypatch.setenv("STOQ_DENSE_LIMIT", "0")
        sparse = lambda_stats(ens, 12, seed=5)
        assert sparse.rs == dense.rs
        assert np.allclose(sparse.lambdas, dense.lambdas, atol=1e-9)


UNSAT_BIASED = "p cnf 3 4\n1 3 0\n1 -3 0\n2 3 0\n2 -3 0\n"


class TestCnfEnsemble:
    def test_clause_tables(self):
        ens = cnf_ensemble_from_dimacs(UNSAT_BIASED, q_vars=[3])
        assert ens.n == 2 and ens.m == 1
        # clause (w1 or q): violating w1=0 counts only when q = 0
        t = ens.templates[0]
        assert np.array_equal(t.block_for(1), np.zeros((2, 2)))
        assert np.array_equal(t.block_for(0), np.diag([1.0, 0.0]))

    def test_lambda_table_exhaustive(self):
        ens = cnf_ensemble_from_dimacs(UNSAT_BIASED, q_vars=[3])
        # for either q value two clauses remain: lambda = violations of
        # the best work assignment; w=11 satisfies all -> lambda(r) = 0
        for r in range(2):
            inst = ens.realize(r)
            dense = assemble_dense(inst.operator())
            assert float(np.linalg.eigvalsh(dense)[0]) == pytest.approx(0.0)

    def test_mean_lambda_per_assignment(self):
        # per fixed work assignment the expected violation count over q:
        # w=00 -> 2, w=01/10 -> 1, w=11 -> 0
        ens = cnf_ensemble_from_dimacs(UNSAT_BIASED, q_vars=[3])
        for w, expect in [(0, 2.0), (1, 1.0), (2, 1.0), (3, 0.0)]:
            vals = []
            for r in range(2):
                dense = assemble_dense(ens.realize(r).operator())
                vals.append(dense[w, w])
            assert np.mean(vals) == pytest.approx(expect)

    def test_two_random_bits_in_clause_rejected(self):
        text = "p cnf 3 1\n1 2 3 0\n"
        with pytest.raises(ValueError):
            cnf_ensemble_from_dimacs(text, q_vars=[2, 3])


class TestAvDecide:
    def test_yes_ensemble(self):
        # every realization satisfiable: lambda identically 0
        text = "p cnf 2 2\n1 2 0\n1 -2 0\n"
        ens = cnf_ensemble_from_dimacs(text, q_vars=[2])
        out = av_decide(ens, lambda_yes=0.0 + 1e-9, lambda_no=0.5,
                        samples=100, seed=0)
        assert out.decision == "yes"
        assert out.replicas == 1

    def test_no_ensemble_via_replicas(self):
        ens = one_qubit_ensemble()
        # true mean -sqrt(2)/2 ~ -0.707 sits above lambda_no = -0.8
        out = av_decide(ens, lambda_yes=-1.0, lambda_no=-0.8,
                        samples=120, seed=3, sigma_margin=30.0)
        assert out.decision == "no"
        assert out.replicas > 1
        assert out.sigma_prime <= (0.2) / 30.0 * 1.0001

    def test_inconclusive_between_thresholds(self):
        ens = one_qubit_ensemble()
        # mean lies strictly between the shifted thresholds
        out = av_decide(ens, lambda_yes=-0.9, lambda_no=-0.5,
                        samples=60, seed=1)
        assert out.decision == "inconclusive"

    def test_bad_gap_rejected(self):
        with pytest.raises(ValueError):
            av_decide(one_qubit_ensemble(), 0.0, 0.0)
