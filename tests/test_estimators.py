import dataclasses
import hashlib
import math
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stoqbench import (DisorderEnsemble, LhMinInstance, LocalOperator,
                       OperatorSum, TermTemplate, assemble_dense, av_decide,
                       cnf_ensemble_from_dimacs, dense_spectrum, estimators,
                       lambda_stats, replica_ensemble, save, sbp_bounds,
                       sbp_matrix, trace_power, trace_report)
from stoqbench.cli import main as cli_main
from stoqbench.estimators import AvDecision, EnsembleStats
from conftest import random_stoquastic_block
from refs import ref_elements
from test_ops import random_sum

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

    @pytest.mark.parametrize("power", [1, 3])
    def test_zero_qubit_register(self, power, tmp_path):
        """The identity term acts on no qubit, so G fits an n = 0
        register; trace on such a document gives sum(lambda^L) over G's
        spectrum, here the one value (1 - 0.5/p)/2 with p = 1.5."""
        h = LhMinInstance(0, (LocalOperator((), [[0.5]]),), 0.1, 0.9)
        g, p = sbp_matrix(h)
        assert g.terms[0].support == () and p == 1.5
        path, out = str(tmp_path / "h.json"), tmp_path / "t.csv"
        save(h, path)
        assert cli_main(["trace", "--instance", path, "--power", str(power),
                         "--out", str(out)]) == 0
        value = float(out.read_text().splitlines()[1].split(",")[1])
        assert value == float(np.sum(dense_spectrum(g)**power))
        assert value == pytest.approx((1.0 / 3.0)**power, rel=1e-15)


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
        for paths in (0, 1):
            with pytest.raises(ValueError):
                trace_power(g, 2, mode="sampled", paths=paths)

    def test_sampled_weight_beyond_float_range(self):
        # 2**(n*L) is a float up to n*L = 1023; the check precedes any draw
        g, p = sbp_matrix(LhMinInstance(
            2, tuple(LocalOperator((q,), -np.array([[0.0, 1.0], [1.0, 0.0]]))
                     for q in range(2)), -2.5, -1.5))
        assert math.isfinite(trace_power(g, 511, mode="sampled", paths=2).value)
        with mock.patch("numpy.random.default_rng") as rng, \
                pytest.raises(ValueError, match=r"L=512 on n=2 qubits"):
            trace_power(g, 512, mode="sampled", paths=2)
        rng.assert_not_called()


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

    @staticmethod
    def linear_L(mu_yes, mu_no, n):
        """The smallest L by the linear search from 1."""
        L = 1
        while (2.0**n) * (mu_no / mu_yes)**L > 0.5:
            L += 1
        return L

    @pytest.mark.parametrize("gap", [1e-3, 0.01, 0.1, 0.5, 1.0, 3.0])
    def test_L_matches_linear_search(self, gap):
        for p in (1.5, 2.0, 4.0):
            for n in (1, 2, 5, 12):
                for lambda_yes in (-1.0, 0.0, 0.2):
                    mu_yes, mu_no, L = sbp_bounds(lambda_yes,
                                                  lambda_yes + gap, p, n)
                    if mu_no > 0:
                        assert L == self.linear_L(mu_yes, mu_no, n)
                    else:
                        assert L == 1

    @pytest.mark.parametrize("n", [1022, 1023, 1100, 5000])
    def test_L_beyond_the_double_range(self, n):
        # 2^n overflows a double from n = 1024, and 2^n / 0.5 from 1023
        mu_yes, mu_no, L = sbp_bounds(0.0, 0.7, 2.0, n)
        ratio = mu_no / mu_yes
        assert n * math.log(2.0) + L * math.log(ratio) <= math.log(0.5) \
            < n * math.log(2.0) + (L - 1) * math.log(ratio)

    def test_tiny_gap_is_fast(self, tmp_path):
        # the linear search takes about 10^10 steps here
        start = time.perf_counter()
        mu_yes, mu_no, L = sbp_bounds(0.0, 1e-9, 2.0, 10)
        assert time.perf_counter() - start < 0.1
        ratio = mu_no / mu_yes
        assert 2.0**10 * ratio**L <= 0.5 < 2.0**10 * ratio**(L - 1)
        # --power fixes L; the bounds are still computed
        h = LhMinInstance(1, (LocalOperator((0,), -X),), -1.0, -1.0 + 1e-9)
        save(h, tmp_path / "h.json")
        start = time.perf_counter()
        assert cli_main(["trace", "--instance", str(tmp_path / "h.json"),
                         "--power", "2", "--out",
                         str(tmp_path / "t.csv")]) == 0
        assert time.perf_counter() - start < 1.0


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
        assert np.array_equal(sparse.rs, dense.rs)
        assert np.allclose(sparse.lambdas, dense.lambdas, atol=1e-9)


UNSAT_BIASED = "p cnf 3 4\n1 3 0\n1 -3 0\n2 3 0\n2 -3 0\n"
# the benchmark's "no" ensemble (random bits 2 and 3)
BIASED = "p cnf 3 4\n2 1 0\n2 -1 0\n3 1 0\n3 -1 0\n"


class TestCnfEnsemble:
    def test_clause_tables(self):
        ens = cnf_ensemble_from_dimacs(UNSAT_BIASED, q_vars=[3])
        assert ens.n == 2 and ens.m == 1
        # clause (w1 or q): violating w1=0 counts only when q = 0
        t = ens.templates[0]
        assert np.array_equal(t.block_for(1), np.zeros((2, 2)))
        assert np.array_equal(t.block_for(0), np.diag([1.0, 0.0]))
        # a tautology over work bits (w1 or not w1 or q), negated work
        # literals with and without a random bit, a one-literal clause, and
        # a tautology over the random bit (w1 or q or not q); each table
        # pinned bitwise to the violating-assignment projector
        text = "p cnf 3 5\n1 -1 3 0\n-1 2 -3 0\n-1 -2 0\n-2 0\n1 3 -3 0\n"
        ens = cnf_ensemble_from_dimacs(text, q_vars=[3])
        assert (ens.n, ens.m) == (2, 1)
        want = [((0,), (0,), {0: [0.0, 0.0], 1: [0.0, 0.0]}),
                ((0, 1), (0,), {0: [0.0] * 4, 1: [0.0, 1.0, 0.0, 0.0]}),
                ((0, 1), (), {0: [0.0, 0.0, 0.0, 1.0]}),
                ((1,), (), {0: [0.0, 1.0]}),
                ((0,), (0,), {0: [0.0, 0.0], 1: [0.0, 0.0]})]
        for t, (support, bits, diags) in zip(ens.templates, want, strict=True):
            assert (t.support, t.random_bits) == (support, bits)
            assert sorted(t.tables) == sorted(diags)
            for a, diag in diags.items():
                assert t.tables[a].tobytes() == np.diag(diag).tobytes()

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

    def test_clause_without_work_variable_rejected(self):
        with pytest.raises(ValueError, match=r"clause \(-2,\) has no work"):
            cnf_ensemble_from_dimacs("p cnf 2 2\n1 2 0\n-2 0\n", q_vars=[2])

    def test_clause_wider_than_three_work_variables_rejected(self):
        with pytest.raises(ValueError, match="wider than 3 work variables"):
            cnf_ensemble_from_dimacs("p cnf 5 1\n1 2 3 4 5 0\n", q_vars=[5])

    @pytest.mark.parametrize("q_vars", [[7], [0], [-1], [2, 3]])
    def test_random_bit_outside_cnf_rejected(self, q_vars):
        with pytest.raises(ValueError, match="must be variables 1..2 "):
            cnf_ensemble_from_dimacs("p cnf 2 1\n1 2 0\n", q_vars=q_vars)


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

    @pytest.mark.parametrize("lambda_yes, lambda_no", [
        (math.nan, 0.5), (-1.0, math.nan), (math.nan, math.nan)])
    def test_nan_threshold_rejected_before_the_replica_count(
            self, lambda_yes, lambda_no):
        with pytest.raises(ValueError,
                           match="^lambda_no must exceed lambda_yes$"):
            av_decide(one_qubit_ensemble(), lambda_yes, lambda_no)

    def test_each_realisation_solved_once(self, monkeypatch):
        """The pilot and the main draw share one ground-energy cache."""
        solved = []
        base_lambda = estimators._LambdaSolver.base_lambda
        monkeypatch.setattr(estimators._LambdaSolver, "base_lambda",
                            lambda solver, r: solved.append(r)
                            or base_lambda(solver, r))
        ens = cnf_ensemble_from_dimacs(BIASED, q_vars=[2, 3])
        av_decide(ens, 0.0, 2.0 / 3.0, samples=200, seed=1)
        assert sorted(solved) == list(range(2**ens.m))

    def test_replica_ensemble_draws_base_replicas(self, monkeypatch):
        """On a k-replica ensemble the pilot and the main draw both solve
        base realisations only: N samples of k copies are k N base
        replicas, and every r is a base draw."""
        base = one_qubit_ensemble()
        solve, sizes = estimators.dense_spectrum, []
        monkeypatch.setattr(estimators, "dense_spectrum",
                            lambda op: sizes.append(op.n) or solve(op))
        out = av_decide(replica_ensemble(base, 3), lambda_yes=-1.0,
                        lambda_no=-0.8, samples=20, seed=3, sigma_margin=30.0)
        assert out.replicas > 1 and set(sizes) == {base.n}
        assert all(len(r) == 3 * out.replicas and max(r) < 2**base.m
                   for r in out.stats.rs)
        rep = replica_ensemble(base, 3 * out.replicas, qubit_ceiling=10**9)
        assert_same_bits(out.stats, reference_lambda_stats(rep, 20, 3))


# ---------------------------------------------------------------------------
# the scalar loops the array estimators replaced, kept as references


def reference_trace_power(g, L, paths, seed):
    """Sampled trace_power as one draw and one scalar product per path."""
    rng = np.random.default_rng(seed)
    scale = 2.0 ** (g.n * L)
    vals = np.empty(paths)
    for i in range(paths):
        xs = rng.integers(0, 2**g.n, size=L)
        prod = 1.0
        for j in range(L):
            prod *= float(ref_elements(g, xs[j], xs[(j + 1) % L]))
            if prod == 0.0:
                break
        vals[i] = scale * prod
    value = float(np.mean(vals))
    stderr = float(np.std(vals, ddof=1) / math.sqrt(paths)) if paths > 1 else 0.0
    return value, stderr


def reference_lambda_stats(ens, samples, seed):
    """lambda_stats as one scalar draw and one addition per replica."""
    base, replicas = ens.replica_of or (ens, 1)
    cache = {}
    rng = np.random.default_rng(seed)
    lams, rs = [], []
    for _ in range(samples):
        total, draw = 0.0, []
        for _ in range(replicas):
            r = int(rng.integers(0, 2**base.m))
            if r not in cache:
                cache[r] = float(dense_spectrum(base.realize(r).operator())[0])
            draw.append(r)
            total += cache[r]
        lams.append(total / replicas)
        rs.append(tuple(draw))
    arr = np.asarray(lams)
    std = float(np.std(arr, ddof=1)) if samples > 1 else 0.0
    return EnsembleStats(samples=samples, mean=float(np.mean(arr)), std=std,
                         lambdas=lams, replicas=replicas, rs=rs)


def reference_av_decide(ens, lambda_yes, lambda_no, samples, seed,
                        sigma_margin=100.0, pilot=30, sigma_shift=10.0,
                        confidence=0.99):
    """av_decide over a materialised replica ensemble and the scalar loop."""
    sigma = reference_lambda_stats(ens, pilot, seed + 1).std
    target = (lambda_no - lambda_yes) / sigma_margin
    n_replicas = 1 if sigma <= target else math.ceil((sigma / target) ** 2)
    rep = replica_ensemble(ens, n_replicas, qubit_ceiling=10**9)
    stats = reference_lambda_stats(rep, samples, seed)
    sigma_prime = sigma / math.sqrt(n_replicas)
    thr_yes = lambda_yes + sigma_shift * sigma_prime
    thr_no = lambda_no - sigma_shift * sigma_prime
    arr = np.asarray(stats.lambdas)
    frac_yes = float(np.mean(arr <= thr_yes))
    frac_no = float(np.mean(arr >= thr_no))
    decision = ("yes" if frac_yes >= confidence else
                "no" if frac_no >= confidence else "inconclusive")
    return AvDecision(decision, n_replicas, sigma_prime, thr_yes, thr_no,
                      frac_yes, frac_no, stats)


def assert_same_bits(got, want):
    """Equal field by field, floats to the bit (repr keeps the sign of 0);
    a nested report field by field, and an array (the r draws, against a
    reference's list of tuples) by dtype, shape and bytes."""
    for f in dataclasses.fields(got):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if dataclasses.is_dataclass(a):
            assert_same_bits(a, b)
            continue
        if isinstance(a, np.ndarray):
            b = np.asarray(b)
            a, b = (a.dtype, a.shape, a.tobytes()), (b.dtype, b.shape, b.tobytes())
        if repr(a) != repr(b):
            # no assert: a diff of reprs with 10^5 draws would take minutes
            pytest.fail(f"{f.name} differs")


def margin_for(ens, replicas, gap, seed):
    """sigma_margin for which av_decide's pilot asks for ``replicas``."""
    sigma = reference_lambda_stats(ens, 30, seed + 1).std
    return gap * math.sqrt(replicas - 0.5) / sigma


@st.composite
def small_ensembles(draw):
    n = draw(st.integers(1, 3))
    m = draw(st.integers(0, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    templates = []
    for _ in range(draw(st.integers(1, 3))):
        k = int(rng.integers(1, min(n, 2) + 1))
        support = tuple(sorted(int(q) for q in rng.choice(n, k, replace=False)))
        nbits = int(rng.integers(0, min(m, 2) + 1))
        bits = tuple(int(b) for b in rng.choice(m, nbits, replace=False))
        templates.append(TermTemplate(support, bits, {
            a: random_stoquastic_block(rng, k) for a in range(2**nbits)}))
    return DisorderEnsemble(n, m, tuple(templates))


CHUNKS = st.sampled_from([1, 2, 5, 64, 1000, estimators.DRAW_CHUNK])


class TestArrayEstimatorsMatchScalarLoops:
    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 10), L=st.integers(1, 6),
           paths=st.integers(2, 300),
           op_seed=st.integers(0, 2**32 - 1), sbp=st.booleans(),
           seed=st.integers(0, 2**63 - 1), chunk=CHUNKS)
    def test_sampled_trace(self, n, L, paths, op_seed, sbp, seed, chunk):
        # a signed sum with zeroed entries, or the G of a stoquastic chain
        rng = np.random.default_rng(op_seed)
        if sbp:
            terms = tuple(LocalOperator((q, q + 1), random_stoquastic_block(rng, 2))
                          for q in range(n - 1)) or (LocalOperator((0,), -X),)
            g, _ = sbp_matrix(LhMinInstance(n, terms, -1.0, 0.0))
        else:
            g = random_sum(rng, n)
        with mock.patch.object(estimators, "DRAW_CHUNK", chunk):
            rep = trace_power(g, L, mode="sampled", paths=paths, seed=seed)
        assert repr((rep.value, rep.stderr)) \
            == repr(reference_trace_power(g, L, paths, seed))

    @pytest.mark.parametrize("paths", [2, 3])
    def test_sampled_zero_weight_paths(self, paths):
        # -I: diagonal steps give -1 and off-diagonal steps 0.0.  The loop
        # stopped at a path's first zero; the array product goes on, so a
        # path such as (0, 1, 1) ends at -0.0, which the mean must not show
        g = OperatorSum(1, (LocalOperator((0,), -np.eye(2)),))
        for seed in range(16):
            rep = trace_power(g, 3, mode="sampled", paths=paths, seed=seed)
            assert repr((rep.value, rep.stderr)) \
                == repr(reference_trace_power(g, 3, paths, seed))

    @settings(max_examples=60, deadline=None)
    @given(ens=small_ensembles(), replicas=st.sampled_from([1, 4, 16, 838]),
           samples=st.integers(1, 20), seed=st.integers(0, 2**63 - 1),
           chunk=CHUNKS)
    def test_lambda_stats(self, ens, replicas, samples, seed, chunk):
        rep = replica_ensemble(ens, replicas, qubit_ceiling=10**9)
        with mock.patch.object(estimators, "DRAW_CHUNK", chunk):
            got = lambda_stats(rep, samples, seed=seed)
        assert_same_bits(got, reference_lambda_stats(rep, samples, seed))

    @pytest.mark.parametrize("replicas", [1, 4])
    def test_replica_sum_starts_from_zero(self, replicas):
        # the scalar loop added to 0.0, which turns energies of -0.0 into 0.0
        ens = replica_ensemble(one_qubit_ensemble(), replicas)
        with mock.patch.object(estimators._LambdaSolver, "base_lambda",
                               lambda solver, r: -0.0):
            stats = lambda_stats(ens, 3, seed=0)
        assert repr(stats.lambdas) == "[0.0, 0.0, 0.0]"

    @pytest.mark.parametrize("replicas", [1, 4, 16, 838])
    def test_av_decide(self, replicas):
        if replicas == 838:
            # its pilot asks for 838 replicas at this margin and seed
            ens = cnf_ensemble_from_dimacs(BIASED, q_vars=[2, 3])
            kwargs = dict(lambda_yes=0.0, lambda_no=2.0 / 3.0, samples=200,
                          seed=1, sigma_margin=30.0)
        else:
            ens = one_qubit_ensemble()
            kwargs = dict(lambda_yes=-1.0, lambda_no=-0.8, samples=60, seed=3,
                          sigma_margin=margin_for(ens, replicas, 0.2, 3))
        got = av_decide(ens, **kwargs)
        assert got.replicas == replicas
        assert_same_bits(got, reference_av_decide(ens, **kwargs))

    def test_many_replicas_bounded_and_equal(self):
        """A pilot sigma that asks for over 10^4 replicas: the draws'
        temporaries stay below half of one int64 array holding every
        draw, and the result is the scalar loop's."""
        ens = one_qubit_ensemble()
        samples = 24
        kwargs = dict(lambda_yes=-1.0, lambda_no=-0.8, samples=samples, seed=0,
                      sigma_margin=margin_for(ens, 10**4 + 7, 0.2, 0))
        tracemalloc.start()
        try:
            got = av_decide(ens, **kwargs)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got.replicas == 10**4 + 7
        assert peak - retained < 8 * samples * got.replicas / 2
        assert_same_bits(got, reference_av_decide(ens, **kwargs))


class TestOutputsPinned:
    """CSV bytes written before the estimators drew arrays."""

    def test_sampled_trace_csv(self, tmp_path):
        rng = np.random.default_rng(2024)
        terms = tuple(LocalOperator(sup, random_stoquastic_block(rng, 2))
                      for sup in [(0, 1), (1, 2), (2, 3), (0, 3)])
        path = str(tmp_path / "h.json")
        save(LhMinInstance(4, terms, -3.0, -1.0), path)
        out = tmp_path / "t.csv"
        assert cli_main(["trace", "--instance", path, "--power", "3",
                         "--paths", "3000", "--seed", "11",
                         "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "7a39dcfec6baa3e6cb46f58b3367cf889484e64a463ae9be60407f60370b47f6")

    def test_ensemble_decide_csv(self, tmp_path):
        cnf = tmp_path / "e.cnf"
        cnf.write_text(BIASED)
        ens = str(tmp_path / "ens.json")
        assert cli_main(["gen", "cnf-ensemble", "--cnf", str(cnf),
                         "--q-vars", "2,3", "--out", ens]) == 0
        out = tmp_path / "d.csv"
        assert cli_main(["ensemble", "--instance", ens, "--samples", "40",
                         "--seed", "5", "--decide", "--lambda-yes", "0",
                         "--lambda-no", "0.6667", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "e7e70a6a8454ddb2e823f7c9e6e05439b29e467b85bc08c4640819a73cc47fcf")
