import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse.csgraph
from hypothesis import given, settings, strategies as st

from stoqbench import (Gate, LhMinInstance, LocalOperator, OperatorSum,
                       VerifierCircuit, assemble_dense, assemble_sparse,
                       build_G, compile_circuit, cnf_ensemble_from_dimacs,
                       dense_spectrum, estimators, extreme_eigenvalue,
                       from_dimacs, perturbed_hamiltonian,
                       random_projector_instance, save, spectral, spectral_gap)
from stoqbench.cli import EXIT_OK, main
from stoqbench.ops import DenseLimitError, dense_limit
from conftest import plus_instance, random_stoquastic_block

PLUS = np.array([[0.5, 0.5], [0.5, 0.5]])
MINUS_X = np.array([[0.0, -1.0], [-1.0, 0.0]])
SAT_5 = "p cnf 5 4\n1 2 0\n-1 4 0\n3 -4 5 0\n-2 -5 0\n"


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

    # n=4: twofold top eigenspace; n=5: SAT_5's diagonal G, every
    # satisfying string on top
    @pytest.mark.parametrize("n", [2, 4, 5])
    def test_vector_is_projection_of_ones(self, n):
        inst = (from_dimacs(SAT_5) if n == 5
                else random_projector_instance(n, 2, 3, seed=8))
        g = build_G(inst)
        res = extreme_eigenvalue(g, "max")
        assert res.method == {2: "dense", 4: "lobpcg", 5: "diagonal"}[n]
        assert res.converged and res.residual <= 1e-10
        evals, evecs = np.linalg.eigh(assemble_dense(g))
        top = evecs[:, evals > evals[-1] - 1e-8]
        ref = top @ top.sum(axis=0)
        assert np.allclose(res.vector, ref / np.linalg.norm(ref), atol=1e-8)


def projection_of_ones(op, which, tol=1e-10):
    """The all-ones vector projected onto the extreme eigenspace of a dense
    eigh, the eigenspace taken by the dense branch's rule, normalised."""
    evals, evecs = np.linalg.eigh(assemble_dense(op))
    edge = evals[-1] if which == "max" else evals[0]
    space = evecs[:, np.abs(evals - edge) <= tol * max(1.0, op.norm_bound())]
    ref = space @ space.sum(axis=0)
    ref /= np.linalg.norm(ref)
    return edge, -ref if ref.sum() < 0 else ref


@st.composite
def diagonal_sums(draw):
    """Weighted sums of diagonal terms whose entries come from a few
    values, so extreme entries repeat and many rows are zero."""
    n = draw(st.integers(1, 7))
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        k = draw(st.integers(1, min(3, n)))
        support = sorted(draw(st.lists(st.integers(0, n - 1), min_size=k,
                                       max_size=k, unique=True)))
        entries = draw(st.lists(st.sampled_from([0.0, 0.0, 1.0, 0.5, -1.0]),
                                min_size=2**k, max_size=2**k))
        terms.append(LocalOperator(support, np.diag(entries)))
    weights = draw(st.lists(st.sampled_from([1.0, 1 / 3, 0.5, -0.25]),
                            min_size=len(terms), max_size=len(terms)))
    return OperatorSum(n, tuple(terms), tuple(weights))


class TestDiagonalEigenpair:
    """A diagonal matrix's extreme eigenpair is read off its diagonal: the
    normalised indicator of its extreme entries, with no solver run."""

    def assert_matches_projection(self, op, which):
        res = extreme_eigenvalue(op, which)
        assert res.method == "diagonal" and res.iterations == 0
        edge, ref = projection_of_ones(op, which)
        assert res.value == pytest.approx(edge, abs=1e-12)
        assert np.max(np.abs(res.vector - ref)) <= 1e-12
        assert res.converged and res.residual <= 1e-10 * max(1.0, op.norm_bound())

    @settings(max_examples=80, deadline=None)
    @given(diagonal_sums(), st.sampled_from(["max", "min"]))
    def test_matches_eigh_projection_of_ones(self, op, which):
        self.assert_matches_projection(op, which)

    @pytest.mark.parametrize("which", ["max", "min"])
    @pytest.mark.parametrize("op", [
        # every row zero: the whole space is extreme
        OperatorSum(3, (LocalOperator((1,), np.zeros((2, 2))),)),
        # zero rows on the bottom, a threefold top
        OperatorSum(2, (LocalOperator((0, 1), np.diag([0.0, 1.0, 1.0, 1.0])),)),
        # a single-qubit diagonal, below LOBPCG's size
        OperatorSum(1, (LocalOperator((0,), np.diag([2.0, -1.0])),)),
    ], ids=["zero", "zero-rows", "one-qubit"])
    def test_degenerate_and_zero_rows(self, op, which):
        self.assert_matches_projection(op, which)

    def test_cnf_top_is_the_satisfying_strings(self):
        inst = from_dimacs(SAT_5)
        res = extreme_eigenvalue(build_G(inst), "max")
        diag = np.diag(assemble_dense(build_G(inst)))
        top = np.flatnonzero(diag == diag.max())
        assert res.method == "diagonal" and len(top) > 2
        assert np.array_equal(np.flatnonzero(res.vector), top)
        assert np.all(res.vector[top] == res.vector[top[0]])

    def test_dense_spectrum_skips_components(self, monkeypatch):
        # a diagonal group too large to solve whole: its spectrum is its
        # sorted diagonal, bit for bit, and no component labelling runs
        rng = np.random.default_rng(2)
        diag = OperatorSum(7, tuple(LocalOperator((q, q + 1),
                                                  np.diag(rng.normal(size=4)))
                                    for q in range(6)))
        want = np.linalg.eigvalsh(assemble_dense(diag))

        def refuse(*args, **kwargs):
            raise AssertionError("connected_components ran")

        monkeypatch.setattr(scipy.sparse.csgraph, "connected_components",
                            refuse)
        assert len(spectral._qubit_groups(diag)) == 1
        assert diag.n > spectral.GROUP_DENSE_QUBITS
        assert np.array_equal(dense_spectrum(diag), want)
        with pytest.raises(AssertionError, match="connected_components"):
            dense_spectrum(build_G(plus_instance(7, [(q, q + 1)
                                                     for q in range(6)])))


class TestDenseDiagnostics:
    def test_gap_two_level(self):
        assert spectral.level_gap(np.array([0.0, 1.0])) == pytest.approx(1.0)

    def test_gap_skips_exact_degeneracy(self):
        assert spectral.level_gap(np.array([0.0, 0.0, 2.0])) == \
            pytest.approx(2.0)

    def test_gap_zero_for_flat_spectrum(self):
        assert spectral_gap(OperatorSum(1, ())) == 0.0

    def test_clock_gap_positive(self):
        v = VerifierCircuit(n=0, n_w=0, n_0=0, n_plus=1,
                            gates=(Gate("X", (0,)), Gate("X", (0,))))
        h = compile_circuit(v, 0).hamiltonian().operator()
        assert spectral_gap(h) > 0.0

    def test_clock_ground_dimension(self):
        v = VerifierCircuit(n=1, n_w=2, n_0=0, n_plus=0,
                            gates=(Gate("CNOT", (1, 2)), Gate("X", (0,))),
                            out_basis="zero")
        h = compile_circuit(v, 0).hamiltonian().operator()
        gap = spectral_gap(h)
        assert np.sum(dense_spectrum(h) < gap / 2) == 2**v.n_w


def _ground_dim(evals):
    return int(np.sum(evals < evals[0] + 1e-8))


def _random_signed_sum(n, seed):
    """Signed k-local terms (k <= 3) whose blocks keep about half their
    entries, so the sum splits into several components or none."""
    rng = np.random.default_rng(seed)
    terms = []
    for _ in range(n + 1):
        k = int(rng.integers(1, min(3, n) + 1))
        support = tuple(sorted(rng.choice(n, size=k, replace=False).tolist()))
        block = rng.normal(size=(2**k, 2**k)) * (rng.random((2**k, 2**k)) < 0.5)
        terms.append(LocalOperator(support, block + block.T))
    return OperatorSum(n, tuple(terms), tuple(rng.normal(size=len(terms))))


class TestDenseSpectrum:
    """Per-component solves against one dense eigvalsh of the whole matrix."""

    def assert_matches_dense(self, op):
        got = dense_spectrum(op)
        want = np.linalg.eigvalsh(assemble_dense(op))
        assert np.max(np.abs(got - want)) <= 1e-12
        assert _ground_dim(got) == _ground_dim(want)

    @pytest.mark.parametrize("n,seed", [(1, 0), (2, 1), (4, 2), (5, 3),
                                        (7, 4), (8, 5), (10, 6)])
    def test_random_signed_sums(self, n, seed):
        self.assert_matches_dense(_random_signed_sum(n, seed))

    @pytest.mark.parametrize("v", [
        VerifierCircuit(0, 0, 0, 1, (Gate("X", (0,)), Gate("X", (0,)))),
        VerifierCircuit(0, 1, 0, 1, (Gate("CNOT", (0, 1)),
                                     Gate("CNOT", (1, 0)),
                                     Gate("CNOT", (0, 1))), out_basis="zero"),
        VerifierCircuit(1, 2, 1, 0, (Gate("CNOT", (1, 3)), Gate("X", (0,))),
                        out_basis="zero"),
    ])
    def test_clock_and_perturbed_clock(self, v):
        clock = compile_circuit(v, 0)
        assert clock.N <= 10
        self.assert_matches_dense(clock.hamiltonian().operator())
        self.assert_matches_dense(perturbed_hamiltonian(clock, 1e-3).operator())

    @pytest.mark.parametrize("n,m,seed", [(3, 2, 0), (6, 4, 1), (10, 8, 2)])
    def test_g_of_random_instances(self, n, m, seed):
        self.assert_matches_dense(build_G(random_projector_instance(
            n, 2, m, seed=seed)))

    def test_diagonal_operators_bitwise(self):
        inst = from_dimacs("p cnf 4 4\n1 2 0\n-1 3 0\n2 -3 4 0\n-4 1 0\n")
        ens = cnf_ensemble_from_dimacs(
            "p cnf 3 4\n2 1 0\n2 -1 0\n3 1 0\n3 -1 0\n", q_vars=[2, 3])
        rng = np.random.default_rng(9)
        diag = OperatorSum(5, tuple(LocalOperator((q, q + 1),
                                                  np.diag(rng.normal(size=4)))
                                    for q in range(4)))
        for op in [build_G(inst), diag] + [ens.realize(r).operator()
                                           for r in range(2**ens.m)]:
            assert np.array_equal(dense_spectrum(op),
                                  np.linalg.eigvalsh(assemble_dense(op)))

    def test_matrix_input(self):
        # a matrix enters as one term on every qubit
        rng = np.random.default_rng(3)
        m = rng.normal(size=(8, 8)) * (rng.random((8, 8)) < 0.3)
        m = m + m.T
        op = OperatorSum(3, (LocalOperator((0, 1, 2), m),))
        assert np.allclose(dense_spectrum(op), np.linalg.eigvalsh(m),
                           atol=1e-12)

    def test_stacks_split_by_size_agree(self, monkeypatch):
        h = compile_circuit(VerifierCircuit(
            1, 2, 1, 0, (Gate("CNOT", (1, 3)), Gate("X", (0,))),
            out_basis="zero"), 0).hamiltonian().operator()
        whole = dense_spectrum(h)
        monkeypatch.setattr(spectral, "STACK_ENTRIES", 1)
        assert np.array_equal(dense_spectrum(h), whole)

    def test_limit_bounds_component_rows(self, monkeypatch):
        g = build_G(random_projector_instance(4, 2, 3, seed=5))  # 16 rows
        diag = OperatorSum(6, (LocalOperator((0, 5), np.diag([0., 1, 2, 3])),))
        # four -X qubits are four groups of two rows each
        loose = OperatorSum(4, tuple(LocalOperator((q,), MINUS_X)
                                     for q in range(4)))
        monkeypatch.setenv("STOQ_DENSE_LIMIT", "3")
        with pytest.raises(DenseLimitError, match="16 rows"):
            dense_spectrum(g)
        monkeypatch.setenv("STOQ_DENSE_LIMIT", "1")
        assert np.allclose(dense_spectrum(loose),
                           [-4] + [-2] * 4 + [0] * 6 + [2] * 4 + [4])
        monkeypatch.setenv("STOQ_DENSE_LIMIT", "0")
        assert np.array_equal(dense_spectrum(diag),
                              np.repeat([0.0, 1.0, 2.0, 3.0], 16))

    def test_sixteen_qubit_clock(self):
        # criterion 5's N=16 clock: 2^16 rows, no component above 36
        big = VerifierCircuit(2, 3, 2, 1,
                              (Gate("X", (0,)), Gate("CNOT", (2, 5)),
                               Gate("TOFFOLI", (3, 4, 6)), Gate("CNOT", (4, 1)),
                               Gate("X", (7,)), Gate("CNOT", (7, 5))),
                              out_basis="zero")
        h = compile_circuit(big, 1).hamiltonian().operator()
        assert h.n == 16
        evals = dense_spectrum(h)
        assert len(evals) == 2**16
        assert evals[0] <= 1e-10
        assert _ground_dim(evals) == 2**big.n_w
        assert spectral.level_gap(evals) >= 1e-6
        assert evals[0] == pytest.approx(extreme_eigenvalue(h, "min").value,
                                         abs=1e-10)


def ref_dense_spectrum(op):
    """dense_spectrum without qubit groups: the components of the whole
    register's matrix, solved in stacked eigvalsh calls by size."""
    mat = assemble_sparse(op)
    coo, _, diag = spectral._split(mat)
    if diag is not None:
        return np.sort(diag)
    _, labels = scipy.sparse.csgraph.connected_components(mat, directed=False)
    sizes = np.bincount(labels)
    if sizes.max() > 2**dense_limit():
        raise DenseLimitError(
            f"a component of {sizes.max()} rows exceeds the dense limit of "
            f"2**{dense_limit()} rows")
    order = np.lexsort((labels, sizes[labels]))
    perm = np.empty_like(order)
    perm[order] = np.arange(len(order))
    row, col = perm[coo.row], perm[coo.col]
    evals, start = [], 0
    for size, count in zip(*np.unique(sizes, return_counts=True)):
        step = size * max(1, spectral.STACK_ENTRIES // size**2)
        for lo in range(start, start + size * count, step):
            hi = min(lo + step, start + size * count)
            sel = (row >= lo) & (row < hi)
            r, c = row[sel] - lo, col[sel] - lo
            stack = np.zeros(((hi - lo) // size, size, size))
            stack[r // size, r % size, c % size] = coo.data[sel]
            evals.append(np.linalg.eigvalsh(stack))
        start += size * count
    return np.sort(np.concatenate(evals, axis=None))


@st.composite
def stoquastic_sums(draw, connected=False, n_min=0):
    """Stoquastic sums of 1-3-qubit terms on random supports of n_min to
    8 qubits, some blocks diagonal, sometimes with a term on no qubit; the
    supports leave disjoint groups and free qubits.  ``connected`` adds a
    term on each neighbour pair, so every qubit is in one group."""
    n = draw(st.integers(n_min, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    terms = []
    if draw(st.booleans()):
        terms.append(LocalOperator((), np.eye(1)))
    for _ in range(draw(st.integers(0, 5)) if n else 0):
        k = draw(st.integers(1, min(3, n)))
        support = sorted(draw(st.lists(st.integers(0, n - 1), min_size=k,
                                       max_size=k, unique=True)))
        block = random_stoquastic_block(rng, len(support))
        terms.append(LocalOperator(support, np.diag(np.diag(block))
                                   if draw(st.booleans()) else block))
    if connected:
        terms += [LocalOperator((q, q + 1), random_stoquastic_block(rng, 2))
                  for q in range(n - 1)]
    weights = draw(st.lists(st.sampled_from([1.0, 0.5, 1 / 3, 2.0]),
                            min_size=len(terms), max_size=len(terms)))
    return OperatorSum(n, tuple(terms), tuple(weights))


class TestQubitGroups:
    """Registers whose terms fall into qubit groups with disjoint supports
    are solved one group at a time, a register of one group included; a
    group too large to solve whole keeps the component path bit for
    bit."""

    def assert_matches_dense(self, op):
        got = dense_spectrum(op)
        want = np.linalg.eigvalsh(assemble_dense(op))
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, op.norm_bound())
        if len(spectral._qubit_groups(op)) == 1 \
                and op.n > spectral.GROUP_DENSE_QUBITS:
            # the terms on no qubit add a constant to the group's spectrum
            pairs = [(w, t) for w, t in zip(op.weights, op.terms)
                     if t.support]
            group = OperatorSum(op.n, tuple(t for _, t in pairs),
                                tuple(w for w, _ in pairs))
            const = sum(w * t.block[0, 0]
                        for w, t in zip(op.weights, op.terms) if not t.support)
            assert np.array_equal(got, const + ref_dense_spectrum(group))

    @settings(max_examples=120, deadline=None)
    @given(stoquastic_sums())
    def test_matches_eigvalsh(self, op):
        self.assert_matches_dense(op)

    @settings(max_examples=40, deadline=None)
    @given(stoquastic_sums(connected=True,
                           n_min=spectral.GROUP_DENSE_QUBITS + 1))
    def test_one_group_is_the_component_path(self, op):
        assert len(spectral._qubit_groups(op)) == 1
        self.assert_matches_dense(op)

    @pytest.mark.parametrize("op", [
        build_G(plus_instance(2, [(0, 1)])),
        build_G(from_dimacs(SAT_5)),
        compile_circuit(VerifierCircuit(0, 1, 0, 1, (Gate("CNOT", (0, 1)),)),
                        0).hamiltonian().operator(),
    ], ids=["plus", "cnf", "clock"])
    def test_small_group_is_one_dense_solve(self, monkeypatch, op):
        """A register of one group of at most GROUP_DENSE_QUBITS qubits is
        built once by assemble_dense and solved by one eigvalsh: no sparse
        assembly and no component labelling."""
        calls = {"assemble_dense": 0, "assemble_sparse": 0,
                 "connected_components": 0}

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        counted(spectral, "assemble_dense")
        counted(spectral, "assemble_sparse")
        counted(scipy.sparse.csgraph, "connected_components")
        assert len(spectral._qubit_groups(op)) == 1
        assert op.n <= spectral.GROUP_DENSE_QUBITS
        got = dense_spectrum(op)
        assert calls == {"assemble_dense": 1, "assemble_sparse": 0,
                         "connected_components": 0}
        want = np.linalg.eigvalsh(assemble_dense(op))
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, op.norm_bound())

    @pytest.mark.parametrize("op", [
        OperatorSum(0, ()),
        OperatorSum(0, (LocalOperator((), np.eye(1)),), (0.5,)),
        # two groups and a free qubit, one group diagonal
        OperatorSum(5, (LocalOperator((), np.eye(1)),
                        LocalOperator((0, 3), random_stoquastic_block(
                            np.random.default_rng(1), 2)),
                        LocalOperator((1, 4), np.diag([0.0, 1.0, 2.0, 0.5]))),
                    (0.5, -0.25, 1.0)),
        # free qubits only, beside the constant
        OperatorSum(3, (LocalOperator((), np.eye(1)),), (2.0,)),
        # a group of seven qubits goes through the component path
        OperatorSum(8, tuple(LocalOperator((q, q + 1),
                                           np.kron(MINUS_X, -MINUS_X))
                             for q in range(6))),
    ], ids=["empty", "constant", "groups", "free", "large-group"])
    def test_edge_registers(self, op):
        self.assert_matches_dense(op)

    def test_groups_in_order_of_lowest_qubit(self):
        op = OperatorSum(7, (LocalOperator((2, 5), np.eye(4)),
                             LocalOperator((0, 6), np.eye(4)),
                             LocalOperator((5, 6), np.eye(4))))
        assert spectral._qubit_groups(op) == [[0, 2, 5, 6], [1], [3], [4]]

    def test_spectrum_cli_level_structure(self, tmp_path):
        # four groups, each G block (1/4)|++><++| with a threefold kernel
        inst = plus_instance(8, [(0, 1), (2, 3), (4, 5), (6, 7)])
        path, out = tmp_path / "plus.json", tmp_path / "s.csv"
        save(inst, str(path))
        assert main(["spectrum", "--instance", str(path), "--out", str(out)]) \
            == EXIT_OK
        rows = dict(l.split(",") for l in out.read_text().split()[1:])
        ref = np.linalg.eigvalsh(assemble_dense(build_G(inst)))
        assert float(rows["min"]) == pytest.approx(ref[0], abs=1e-12)
        assert float(rows["max"]) == pytest.approx(ref[-1], abs=1e-12)
        assert float(rows["gap"]) == pytest.approx(spectral.level_gap(ref),
                                                   abs=1e-12)
        ground = int(np.sum(ref < ref[0] + spectral.LEVEL_MERGE))
        assert int(rows["ground_dim"]) == ground == 3**4

    @pytest.mark.parametrize("whole", [spectral.GROUP_DENSE_QUBITS, 0])
    def test_exact_trace_is_one_public_call(self, monkeypatch, whole):
        """The per-group solves, whole or by components, go around the
        public name, so a wrapper of dense_spectrum sees one call per exact
        trace, on the whole G."""
        monkeypatch.setattr(spectral, "GROUP_DENSE_QUBITS", whole)
        seen = []
        original = spectral.dense_spectrum

        def counted(op):
            seen.append(op)
            return original(op)

        for module in (spectral, estimators):
            monkeypatch.setattr(module, "dense_spectrum", counted)
        h = LhMinInstance(6, (LocalOperator((0, 2), np.kron(MINUS_X, -MINUS_X)),
                              LocalOperator((1,), MINUS_X),
                              LocalOperator((3, 4), np.diag([1.0, 0, 0, 1]))),
                          -2.0, -1.0)
        g, _ = estimators.sbp_matrix(h)
        assert len(spectral._qubit_groups(g)) == 4
        report = estimators.trace_power(g, 3)
        assert seen == [g]
        want = np.trace(np.linalg.matrix_power(assemble_dense(g), 3))
        assert report.value == pytest.approx(want, rel=1e-12)


def test_import_loads_no_scipy_solvers():
    # csgraph and the sparse solvers are imported where they are used,
    # keeping them out of every command's start-up time
    src = os.path.dirname(os.path.dirname(spectral.__file__))
    code = ("import sys, stoqbench; print(sorted(m for m in sys.modules if "
            "m.startswith(('scipy.sparse.csgraph', 'scipy.sparse.linalg'))))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "[]"
