import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stoqbench import (Gate, LocalOperator, OperatorSum, amplitude_ratio,
                       apply_to_basis, assemble_dense, assemble_sparse,
                       block_decompose, conjugate_by_circuit, make_block_projector,
                       matrix_element, projector_check)
from stoqbench.ops import (BlockComponent, DenseLimitError, _support_maps,
                           dense_limit, local_term, matrix_elements)

X = np.array([[0.0, 1.0], [1.0, 0.0]])
PLUS = np.array([[0.5, 0.5], [0.5, 0.5]])


def dense_gate(gate, n):
    dim = 2**n
    mat = np.zeros((dim, dim))
    for z in range(dim):
        mat[gate.apply(z), z] = 1.0
    return mat


class TestGate:
    def test_x_flips_its_bit(self):
        assert Gate("X", (1,)).apply(0b000) == 0b010

    def test_cnot_conditions_on_control(self):
        g = Gate("CNOT", (0, 2))
        assert g.apply(0b001) == 0b101
        assert g.apply(0b000) == 0b000

    def test_toffoli_needs_both_controls(self):
        g = Gate("TOFFOLI", (0, 1, 2))
        assert g.apply(0b011) == 0b111
        assert g.apply(0b001) == 0b001

    def test_duplicate_qubits_rejected(self):
        with pytest.raises(ValueError):
            Gate("CNOT", (1, 1))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Gate("HADAMARD", (0,))


class TestApplyToBasis:
    def test_plus_projector_row(self):
        op = OperatorSum(1, (LocalOperator((0,), PLUS),))
        assert apply_to_basis(op, 0) == {0: 0.5, 1: 0.5}

    def test_diagonal_operator_row_is_diagonal(self):
        block = np.diag([0.0, 1.0, 1.0, 1.0])
        op = OperatorSum(2, (LocalOperator((0, 1), block),))
        assert apply_to_basis(op, 0) == {}
        assert apply_to_basis(op, 3) == {3: 1.0}

    def test_matches_dense_row(self):
        rng = np.random.default_rng(5)
        terms = []
        for sup in [(0, 1), (1, 2), (0, 2)]:
            m = np.abs(rng.normal(size=(4, 4)))
            terms.append(LocalOperator(sup, (m + m.T) / 2))
        op = OperatorSum(3, tuple(terms), (0.3, 0.3, 0.4))
        dense = assemble_dense(op)
        for x in range(8):
            row = apply_to_basis(op, x)
            expect = {y: dense[x, y] for y in range(8) if dense[x, y] != 0.0}
            assert set(row) == set(expect)
            for y in row:
                assert row[y] == pytest.approx(expect[y], abs=1e-14)
            assert matrix_element(op, x, x) == pytest.approx(dense[x, x])


class TestConjugation:
    def test_toffoli_turns_x_into_controlled_pair(self):
        # conjugating X on qubit 2 by a Toffoli targeting qubit 1 yields
        # CNOT(0->1) composed with the same X
        op = LocalOperator((2,), X)
        out = conjugate_by_circuit(op, [Gate("TOFFOLI", (0, 2, 1))])
        dense = assemble_dense(OperatorSum(3, (out,)))
        oracle = dense_gate(Gate("CNOT", (0, 1)), 3) @ dense_gate(Gate("X", (2,)), 3)
        assert np.array_equal(dense, oracle)

    def test_empty_circuit_is_identity(self):
        op = LocalOperator((0, 2), np.arange(16.0).reshape(4, 4) +
                           np.arange(16.0).reshape(4, 4).T)
        out = conjugate_by_circuit(op, [])
        assert out.support == op.support
        assert np.array_equal(out.block, op.block)

    def test_x_swaps_zero_and_one_projectors(self):
        op = LocalOperator((0,), np.diag([1.0, 0.0]))
        out = conjugate_by_circuit(op, [Gate("X", (0,))])
        assert np.array_equal(out.block, np.diag([0.0, 1.0]))

    def test_operator_sum_conjugated_termwise(self):
        op = OperatorSum(2, (LocalOperator((0,), PLUS),), (2.0,))
        out = conjugate_by_circuit(op, [Gate("CNOT", (0, 1))])
        d_in = assemble_dense(op)
        perm = dense_gate(Gate("CNOT", (0, 1)), 2)
        assert np.allclose(assemble_dense(out), perm @ d_in @ perm.T)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_self_inverse_circuit_conjugation_is_involution(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(4, 4))
        op = LocalOperator((0, 2), m + m.T)
        gates = [Gate("TOFFOLI", (0, 1, 2)), Gate("CNOT", (2, 1)),
                 Gate("X", (int(rng.integers(0, 3)),))]
        # palindromic circuit of involutions is the identity
        back = conjugate_by_circuit(conjugate_by_circuit(op, gates),
                                    list(reversed(gates)))
        full_in = assemble_dense(OperatorSum(3, (op,)))
        full_out = assemble_dense(OperatorSum(3, (back,)))
        assert np.allclose(full_in, full_out, atol=1e-12)


class TestProjectorCheck:
    def test_pauli_x_is_not_a_projector(self):
        ok, res = projector_check(X)
        assert not ok and res == pytest.approx(1.0)

    def test_zero_ket_projector(self):
        ok, res = projector_check(np.diag([1.0, 0.0]))
        assert ok and res == 0.0

    def test_block_built_projector_passes(self):
        comp = BlockComponent(frozenset({0, 3}), {0: 0.6, 3: 0.8})
        mat = make_block_projector([comp], 4)
        ok, res = projector_check(mat, tol=1e-12)
        assert ok


class TestBlockDecompose:
    def test_plus_projector_single_component(self):
        comps = block_decompose(PLUS)
        assert len(comps) == 1
        amps = comps[0].amplitude
        assert amps[0] == pytest.approx(2**-0.5)
        assert amps[1] == pytest.approx(2**-0.5)

    def test_identity_splits_per_string(self):
        comps = block_decompose(np.eye(2))
        assert sorted(c.support_set for c in comps) == [frozenset({0}), frozenset({1})]

    def test_two_block_projector(self):
        phi = np.zeros(4)
        phi[1] = phi[2] = 2**-0.5
        mat = np.outer(phi, phi)
        mat[0, 0] = 1.0
        comps = block_decompose(mat)
        assert sorted(c.support_set for c in comps) == [frozenset({0}),
                                                        frozenset({1, 2})]

    def test_rank_equals_component_count_equals_trace(self):
        rng = np.random.default_rng(11)
        comps = []
        used = []
        for members in ([0, 5], [1], [2, 3, 7]):
            v = rng.random(len(members)) + 0.1
            v /= np.linalg.norm(v)
            comps.append(BlockComponent(frozenset(members),
                                        dict(zip(members, v))))
        mat = make_block_projector(comps, 8)
        out = block_decompose(mat)
        assert len(out) == 3
        assert np.trace(mat) == pytest.approx(3.0, abs=1e-10)
        assert np.linalg.matrix_rank(mat) == 3
        recon = make_block_projector(out, 8)
        assert np.max(np.abs(recon - mat)) <= 1e-10

    def test_non_projector_rejected(self):
        with pytest.raises(ValueError):
            block_decompose(X)


class TestAmplitudeRatio:
    def test_symmetric_component_gives_one(self):
        assert amplitude_ratio(PLUS, 0, 1) == pytest.approx(1.0)

    def test_one_two_vector_gives_two(self):
        psi = np.array([1.0, 2.0]) / np.sqrt(5.0)
        assert amplitude_ratio(np.outer(psi, psi), 0, 1) == pytest.approx(2.0)

    def test_reciprocity(self):
        rng = np.random.default_rng(3)
        v = rng.random(4) + 0.05
        v /= np.linalg.norm(v)
        mat = np.outer(v, v)
        for x in range(4):
            for y in range(4):
                assert amplitude_ratio(mat, x, y) * amplitude_ratio(mat, y, x) \
                    == pytest.approx(1.0, abs=1e-10)

    def test_zero_diagonal_rejected(self):
        mat = np.diag([0.0, 1.0])
        with pytest.raises(ValueError):
            amplitude_ratio(mat, 0, 1)

    def test_cross_block_rejected(self):
        with pytest.raises(ValueError):
            amplitude_ratio(np.eye(2), 0, 1)


class TestAssembly:
    def test_sparse_matches_dense(self):
        rng = np.random.default_rng(9)
        terms, weights = [], []
        for sup in [(0,), (1, 3), (0, 2, 3)]:
            d = 2 ** len(sup)
            m = rng.normal(size=(d, d))
            terms.append(LocalOperator(sup, m + m.T))
            weights.append(float(rng.random()))
        op = OperatorSum(4, tuple(terms), tuple(weights))
        assert np.allclose(assemble_sparse(op).toarray(), assemble_dense(op))

    def test_norm_bound_dominates_spectrum(self):
        op = OperatorSum(2, (LocalOperator((0, 1), np.diag([1.0, 2.0, 0.0, 3.0])),))
        evals = np.linalg.eigvalsh(assemble_dense(op))
        assert op.norm_bound() >= np.max(np.abs(evals))

    def test_dense_limit_enforced(self, monkeypatch):
        monkeypatch.setenv("STOQ_DENSE_LIMIT", "3")
        assert dense_limit() == 3
        op = OperatorSum(4, (LocalOperator((0,), PLUS),))
        with pytest.raises(DenseLimitError):
            assemble_dense(op)

    def test_nonnegative_blocks_assemble_nonnegative(self):
        rng = np.random.default_rng(2)
        m = np.abs(rng.normal(size=(4, 4)))
        terms = (LocalOperator((0, 1), m + m.T),
                 LocalOperator((1, 2), np.full((4, 4), 0.25)))
        op = OperatorSum(3, terms)
        assert np.min(assemble_dense(op)) >= 0.0


# ---------------------------------------------------------------------------
# Loop references for the vectorised layout routines: the per-entry and
# per-pattern versions these routines replaced, kept to pin their output
# byte for byte.


def ref_local_term(support, factors):
    support = tuple(sorted(support))
    pos = {q: i for i, q in enumerate(support)}
    k = len(support)
    dim = 2**k
    covered = set()
    pieces = []
    for qubits, mat in factors:
        bits = [pos[q] for q in qubits]
        covered.update(bits)
        pieces.append((bits, np.asarray(mat, dtype=float)))
    free = [i for i in range(k) if i not in covered]
    out = np.zeros((dim, dim))
    for a in range(dim):
        for b in range(dim):
            if any(((a >> i) & 1) != ((b >> i) & 1) for i in free):
                continue
            val = 1.0
            for bits, mat in pieces:
                ia = sum(((a >> bit) & 1) << t for t, bit in enumerate(bits))
                ib = sum(((b >> bit) & 1) << t for t, bit in enumerate(bits))
                val *= mat[ia, ib]
                if val == 0.0:
                    break
            out[a, b] = val
    return out


def ref_embed_block(block, old_support, new_support):
    pos = {q: i for i, q in enumerate(new_support)}
    old_bits = [pos[q] for q in old_support]
    extra_bits = [i for i in range(len(new_support)) if i not in old_bits]
    dim = 2 ** len(new_support)
    idx_old = np.zeros(dim, dtype=np.int64)
    idx_extra = np.zeros(dim, dtype=np.int64)
    for a in range(dim):
        idx_old[a] = sum(((a >> b) & 1) << i for i, b in enumerate(old_bits))
        idx_extra[a] = sum(((a >> b) & 1) << i for i, b in enumerate(extra_bits))
    return block[np.ix_(idx_old, idx_old)] * (
        idx_extra[:, None] == idx_extra[None, :])


def ref_support_maps(support, n):
    rest_qubits = [q for q in range(n) if q not in support]
    sup = np.array([sum(1 << q for i, q in enumerate(support) if (a >> i) & 1)
                    for a in range(2 ** len(support))], dtype=np.int64)
    rest = np.array([sum(1 << q for i, q in enumerate(rest_qubits) if (r >> i) & 1)
                     for r in range(2 ** len(rest_qubits))], dtype=np.int64)
    return sup, rest


def ref_assemble_dense(op):
    dim = 2**op.n
    out = np.zeros((dim, dim))
    for w, t in zip(op.weights, op.terms):
        sup, rest = ref_support_maps(t.support, op.n)
        for r in rest:
            idx = sup + r
            out[np.ix_(idx, idx)] += w * t.block
    return out


def ref_matrix_element(op, x, y):
    """The scalar term loop matrix_element ran before the array form."""
    return sum(w * t.element(x, y) for w, t in zip(op.weights, op.terms))


def random_factors(rng, support, signed=False):
    """Split a random subset of ``support`` into factors whose qubit lists
    are shuffled, so they are unsorted and usually non-adjacent."""
    qubits = [int(q) for q in rng.permutation(support)]
    qubits = qubits[:int(rng.integers(0, len(qubits) + 1))]
    factors = []
    while qubits:
        m = int(rng.integers(1, min(3, len(qubits)) + 1))
        piece, qubits = tuple(qubits[:m]), qubits[m:]
        mat = rng.normal(size=(2**m, 2**m))
        mat[rng.random(mat.shape) < 0.3] = 0.0
        factors.append((piece, mat if signed else np.abs(mat)))
    return factors


def random_sum(rng, n):
    terms = []
    for _ in range(int(rng.integers(1, 6))):
        k = int(rng.integers(0, min(n, 4) + 1))
        sup = tuple(sorted(int(q) for q in rng.choice(n, size=k, replace=False)))
        m = rng.normal(size=(2**k, 2**k))
        m[rng.random(m.shape) < 0.3] = 0.0
        terms.append(LocalOperator(sup, m + m.T))
    weights = rng.normal(size=len(terms))
    return OperatorSum(n, tuple(terms), tuple(weights))


class TestLayoutMatchesLoopReference:
    @pytest.mark.parametrize("seed", range(12))
    def test_local_term_bytes(self, seed):
        rng = np.random.default_rng(seed)
        for k in range(1, 7):
            support = sorted(int(q) for q in rng.choice(10, size=k, replace=False))
            factors = random_factors(rng, support)
            assert (local_term(support, factors).tobytes()
                    == ref_local_term(support, factors).tobytes())

    def test_local_term_gate_qubits_out_of_order(self):
        toffoli = np.eye(8)[:, [0, 1, 2, 7, 4, 5, 6, 3]]
        ket1 = np.diag([0.0, 1.0])
        factors = [((2, 0, 5), toffoli), ((3,), ket1)]
        support = (0, 2, 3, 5, 7)
        assert (local_term(support, factors).tobytes()
                == ref_local_term(support, factors).tobytes())

    @pytest.mark.parametrize("seed", range(6))
    def test_local_term_signed_factors(self, seed):
        rng = np.random.default_rng(100 + seed)
        for k in range(1, 7):
            support = sorted(int(q) for q in rng.choice(10, size=k, replace=False))
            factors = random_factors(rng, support, signed=True)
            # equal values; a zero may carry the other sign bit
            assert np.array_equal(local_term(support, factors),
                                  ref_local_term(support, factors))
            old = [int(q) for q in rng.permutation(support)[:int(rng.integers(1, k + 1))]]
            old.sort()
            block = rng.normal(size=(2 ** len(old),) * 2)
            block[rng.random(block.shape) < 0.3] = 0.0
            assert (local_term(support, [(old, block)]).tobytes()
                    == ref_embed_block(block, old, support).tobytes())

    def test_support_maps(self):
        rng = np.random.default_rng(3)
        for n in range(1, 11):
            for k in range(0, min(n, 6) + 1):
                support = tuple(sorted(int(q) for q in
                                       rng.choice(n, size=k, replace=False)))
                for got, want in zip(_support_maps(support, n),
                                     ref_support_maps(support, n)):
                    assert got.dtype == want.dtype
                    assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", range(20))
    def test_assemble_dense_bytes(self, seed):
        rng = np.random.default_rng(seed)
        op = random_sum(rng, int(rng.integers(1, 11)))
        assert assemble_dense(op).tobytes() == ref_assemble_dense(op).tobytes()

    def test_local_term_rejects_overlapping_factors(self):
        with pytest.raises(ValueError):
            local_term((0, 1, 2), [((0, 1), np.eye(4)), ((1,), np.eye(2))])
        with pytest.raises(ValueError):
            local_term((0, 1), [((1, 1), np.eye(4))])

    def test_local_term_rejects_qubit_outside_support(self):
        with pytest.raises(ValueError):
            local_term((0, 2), [((1,), np.eye(2))])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 10), st.integers(0, 2**32 - 1))
    def test_matrix_elements_bytes(self, n, seed):
        rng = np.random.default_rng(seed)
        op = random_sum(rng, n)
        xs = rng.integers(0, 2**n, size=64)
        # sparse flips, so that x and y often agree outside a term's support
        flips = (rng.integers(0, 2**n, size=64) & rng.integers(0, 2**n, size=64)
                 & rng.integers(0, 2**n, size=64))
        ys = xs ^ flips
        want = np.array([ref_matrix_element(op, int(x), int(y))
                         for x, y in zip(xs, ys)])
        assert matrix_elements(op, xs, ys).tobytes() == want.tobytes()
        x, y = int(xs[0]), int(ys[0])
        assert repr(matrix_element(op, x, y)) == repr(ref_matrix_element(op, x, y))

    def test_matrix_elements_reject_out_of_range(self):
        op = OperatorSum(2, (LocalOperator((0,), X),))
        for x, y in [(-1, 0), (4, 0), (0, 4)]:
            with pytest.raises(IndexError):
                matrix_element(op, x, y)
            with pytest.raises(IndexError):
                matrix_elements(op, [0, x], [0, y])
