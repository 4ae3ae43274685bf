import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stoqbench import (Gate, LocalOperator, OperatorSum, apply_to_basis,
                       assemble_dense, assemble_sparse, block_decompose,
                       make_block_projector, matrix_element, projector_check)
from stoqbench import ops
from stoqbench.ops import (BlockComponent, DenseLimitError, _support_maps,
                           dense_limit, local_term, matrix_elements)
from refs import (ref_apply_to_basis, ref_element, ref_elements,
                  ref_local_index, ref_support_maps)

X = np.array([[0.0, 1.0], [1.0, 0.0]])
PLUS = np.array([[0.5, 0.5], [0.5, 0.5]])


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

    @pytest.mark.parametrize("kind, qubits", [("X", (-1,)), ("CNOT", (0, -2)),
                                              ("TOFFOLI", (-3, 0, 1))])
    def test_negative_qubit_rejected(self, kind, qubits):
        with pytest.raises(ValueError, match="must be non-negative"):
            Gate(kind, qubits)

    @pytest.mark.parametrize("support", [(-1,), (-1, 1, 2, 3)])
    def test_negative_support_rejected(self, support):
        with pytest.raises(ValueError, match="must be non-negative"):
            LocalOperator(support, np.eye(2 ** len(support)))

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
    def test_non_finite_block_rejected(self, entry):
        block = np.eye(2)
        block[1, 1] = entry  # symmetric, so only the finiteness check sees it
        with pytest.raises(ValueError, match="non-finite"):
            LocalOperator((0,), block)


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
        ok, res = projector_check(mat)
        assert ok and res <= 1e-12


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

    @pytest.mark.parametrize("text", ["abc", "-3", "", "1.5"])
    def test_dense_limit_must_be_non_negative_integer(self, text, monkeypatch):
        monkeypatch.setenv("STOQ_DENSE_LIMIT", text)
        with pytest.raises(ValueError, match=re.escape(
                f"STOQ_DENSE_LIMIT must be a non-negative integer, got {text!r}")):
            dense_limit()

    def test_nonnegative_blocks_assemble_nonnegative(self):
        rng = np.random.default_rng(2)
        m = np.abs(rng.normal(size=(4, 4)))
        terms = (LocalOperator((0, 1), m + m.T),
                 LocalOperator((1, 2), np.full((4, 4), 0.25)))
        op = OperatorSum(3, terms)
        assert np.min(assemble_dense(op)) >= 0.0


# entries of both signs and zeros, none so small that a product underflows
DIAGONAL_ENTRIES = st.one_of(st.just(0.0), st.floats(1e-3, 2.0),
                             st.floats(-2.0, -1e-3))


@st.composite
def diagonal_term_sums(draw):
    """Sums of diagonal terms on up to 6 qubits (n = 0 and terms on no
    qubit included) with nonzero weights of both signs: a zero weight
    times a negative entry is a -0.0 that assemble_sparse stores."""
    n = draw(st.integers(0, 6))
    terms = []
    for _ in range(draw(st.integers(0, 5))):
        k = draw(st.integers(0, min(3, n)))
        support = sorted(draw(st.lists(st.integers(0, n - 1), min_size=k,
                                       max_size=k, unique=True))) if k else []
        entries = draw(st.lists(DIAGONAL_ENTRIES, min_size=2**k,
                                max_size=2**k))
        terms.append(LocalOperator(support, np.diag(entries)))
    weights = draw(st.lists(DIAGONAL_ENTRIES.filter(bool),
                            min_size=len(terms), max_size=len(terms)))
    return OperatorSum(n, tuple(terms), tuple(weights))


class TestDiagonal:
    """ops.diagonal reads a sum of diagonal terms term by term: bitwise the
    assembled diagonal, and None as soon as a term has an off-diagonal
    entry."""

    @settings(max_examples=200, deadline=None)
    @given(diagonal_term_sums())
    def test_is_the_assembled_diagonal_bitwise(self, op):
        got = ops.diagonal(op)
        want = assemble_sparse(op).diagonal()
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_term_order_and_qubit_layout(self):
        # three terms whose left-to-right sum rounds differently from
        # other orders, on qubits out of the support's bit order
        third = LocalOperator((0, 2), np.diag([0.1, 0.2, 0.3, 0.7]))
        op = OperatorSum(3, (LocalOperator((1,), np.diag([1e16, 1.0])),
                             third, LocalOperator((), [[-1e16]])),
                         (1.0, 1 / 3, 1.0))
        got = ops.diagonal(op)
        assert got.tobytes() == assemble_sparse(op).diagonal().tobytes()
        x = 0b101  # qubits 0 and 2 set: local index 3 of the (0, 2) term
        assert got[x] == 0.0 + 1e16 + 1 / 3 * 0.7 - 1e16 == 0.0

    @pytest.mark.parametrize("late", [False, True])
    def test_none_when_a_term_is_off_diagonal(self, late):
        off = LocalOperator((0, 1), np.diag([1.0, 0.0, 0.5, 0.0])
                            + 1e-300 * np.eye(4)[::-1])
        diag = [LocalOperator((q,), np.diag([0.0, 1.0])) for q in range(3)]
        terms = diag + [off] if late else [off] + diag
        assert ops.diagonal(OperatorSum(3, tuple(terms))) is None

    def test_scan_stops_at_the_first_off_diagonal_term(self):
        class Unread:
            support = (0,)

            @property
            def block(self):
                raise AssertionError("a term after the off-diagonal one")

        op = OperatorSum(2, (LocalOperator((1,), np.eye(2)),
                             LocalOperator((0,), X), Unread()))
        assert ops.diagonal(op) is None


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


def kron_local_term(support, factors):
    """local_term as written with np.kron, before the broadcast product."""
    support = tuple(sorted(support))
    k = len(support)
    out = np.ones((1, 1))
    order = []
    for qubits, mat in factors:
        out = np.kron(out, np.asarray(mat, dtype=float))
        order.extend(reversed(qubits))
    free = [q for q in support if q not in order]
    out = np.kron(out, np.eye(2 ** len(free)))
    order.extend(free)
    axes = [order.index(q) for q in reversed(support)]
    out = out.reshape((2,) * (2 * k)).transpose(axes + [k + a for a in axes])
    return out.reshape(2**k, 2**k)


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


def ref_assemble_dense(op):
    dim = 2**op.n
    out = np.zeros((dim, dim))
    for w, t in zip(op.weights, op.terms):
        sup, rest = ref_support_maps(t.support, op.n)
        for r in rest:
            idx = sup + r
            out[np.ix_(idx, idx)] += w * t.block
    return out


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

    @pytest.mark.parametrize("seed", range(8))
    def test_local_term_matches_kron(self, seed):
        """Same single products as np.kron, so equal bytes, signed zeros
        included; random_factors leaves some qubits to the identity."""
        rng = np.random.default_rng(200 + seed)
        for _ in range(25):
            k = int(rng.integers(1, 7))
            support = sorted(int(q) for q in rng.choice(10, size=k, replace=False))
            factors = random_factors(rng, support, signed=True)
            assert (local_term(support, factors).tobytes()
                    == kron_local_term(support, factors).tobytes())

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
        want = ref_elements(op, xs, ys)
        assert matrix_elements(op, xs, ys).tobytes() == want.tobytes()
        x, y = int(xs[0]), int(ys[0])
        assert repr(matrix_element(op, x, y)) == repr(float(ref_elements(op, x, y)))

    def test_matrix_elements_reject_out_of_range(self):
        op = OperatorSum(2, (LocalOperator((0,), X),))
        for x, y in [(-1, 0), (4, 0), (0, 4)]:
            with pytest.raises(IndexError):
                matrix_element(op, x, y)
            with pytest.raises(IndexError):
                matrix_elements(op, [0, x], [0, y])


def signed_sum(rng, n, supports):
    """An OperatorSum of random symmetric blocks, some entries 0, on the
    given supports, with signed weights (so a missed term is w * 0.0 of
    either sign)."""
    terms = []
    for sup in supports:
        m = rng.normal(size=(2 ** len(sup),) * 2)
        m[rng.random(m.shape) < 0.3] = 0.0
        terms.append(LocalOperator(sup, m + m.T))
    return OperatorSum(n, tuple(terms), tuple(rng.normal(size=len(terms))))


def near_pairs(rng, op, count):
    """x uniform, y = x with a random part of a random term's support
    flipped, and sometimes one more bit."""
    n = op.n
    xs = [int(v) for v in rng.integers(0, 2**n, size=count, dtype=np.int64)]
    ys = []
    for x in xs:
        y = x
        if op.terms:
            t = op.terms[int(rng.integers(0, len(op.terms)))]
            y ^= ops.scatter(int(rng.integers(0, 2**t.k)), t.support)
        if rng.random() < 0.3:
            y ^= 1 << int(rng.integers(0, n))
        ys.append(y)
    return np.array(xs, dtype=np.int64), np.array(ys, dtype=np.int64)


class TestMatrixElementsTermTable:
    """matrix_elements through OperatorSum.table, byte for byte against the
    scalar per-term loop."""

    def assert_bytes(self, op, xs, ys):
        got, want = matrix_elements(op, xs, ys), ref_elements(op, xs, ys)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", range(6))
    def test_scalar_inputs(self, seed):
        rng = np.random.default_rng(seed)
        op = signed_sum(rng, 5, [(0, 2), (1,), (), (1, 3, 4)])
        xs, ys = near_pairs(rng, op, 16)
        for x, y in zip(xs.tolist(), ys.tolist()):
            for a, b in [(x, y), (np.int64(x), np.int64(y)),
                         (np.array(x), np.array(y))]:
                self.assert_bytes(op, a, b)
                assert matrix_elements(op, a, b).shape == ()
            assert repr(matrix_element(op, x, y)) \
                == repr(float(ref_elements(op, x, y)))

    @pytest.mark.parametrize("seed", range(6))
    def test_broadcast_shapes(self, seed):
        rng = np.random.default_rng(10 + seed)
        op = signed_sum(rng, 4, [(0, 1), (2,), (1, 3), ()])
        xs = np.arange(16, dtype=np.int64)
        ys = rng.integers(0, 16, size=7)
        self.assert_bytes(op, xs[:, None], ys)      # (16, 1) against (7,)
        self.assert_bytes(op, ys[:, None], xs)      # (7, 1) against (16,)
        self.assert_bytes(op, xs, int(ys[0]))       # (16,) against a scalar
        self.assert_bytes(op, xs.reshape(4, 4), xs.reshape(4, 4).T)
        self.assert_bytes(op, xs[:0], ys[:0])       # no pairs at all

    def test_no_terms(self):
        op = OperatorSum(4, ())
        xs = np.arange(16)
        self.assert_bytes(op, xs[:, None], xs)
        assert not np.signbit(matrix_elements(op, xs[:, None], xs)).any()

    @pytest.mark.parametrize("w", [0.5, -0.5, -0.0])
    def test_identity_term_only(self, w):
        op = OperatorSum(4, (LocalOperator((), np.eye(1)),), (w,))
        xs = np.arange(16)
        got = matrix_elements(op, xs[:, None], xs)
        self.assert_bytes(op, xs[:, None], xs)
        # off the diagonal no term hits: +0.0, never w * 0.0 = -0.0
        assert not np.signbit(got[~np.eye(16, dtype=bool)]).any()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(6, 12), st.integers(0, 2**32 - 1))
    def test_terms_up_to_six_qubits(self, n, seed):
        rng = np.random.default_rng(seed)
        supports = [tuple(sorted(int(q) for q in
                                 rng.choice(n, size=k, replace=False)))
                    for k in rng.integers(0, 7, size=int(rng.integers(1, 8)))]
        supports.append(tuple(sorted(int(q) for q in
                                     rng.choice(n, size=6, replace=False))))
        op = signed_sum(rng, n, supports)
        xs, ys = near_pairs(rng, op, 200)
        self.assert_bytes(op, xs, ys)

    @pytest.mark.parametrize("seed", range(8))
    def test_bit_61_on_62_qubits(self, seed):
        """The padding bit 63 lies above every valid index; terms touching
        bits 61, 60 and 0 read indices that have bit 61 set."""
        rng = np.random.default_rng(20 + seed)
        op = signed_sum(rng, 62, [(61,), (0, 60, 61), (5, 61), (), (3,)])
        xs, ys = near_pairs(rng, op, 64)
        xs |= 1 << 61
        ys |= 1 << 61
        assert xs.max() >> 61 == 1
        self.assert_bytes(op, xs, ys)
        x, y = int(xs[0]), int(ys[0])
        assert repr(matrix_element(op, x, y)) == repr(float(ref_elements(op, x, y)))

    def test_out_of_range_on_62_qubits(self):
        op = OperatorSum(62, (LocalOperator((61,), X),))
        top = 2**62 - 1
        assert matrix_element(op, top, top ^ (1 << 61)) == 1.0
        for x, y in [(2**62, 0), (0, 2**62), (-1, 0), (0, -2**62), (2**62, -1)]:
            with pytest.raises(IndexError):
                matrix_element(op, x, y)
            with pytest.raises(IndexError):
                matrix_elements(op, [[0], [x]], [0, y])

    @pytest.mark.parametrize("w", [float("inf"), -float("inf"), float("nan")])
    def test_weights_must_be_finite(self, w):
        with pytest.raises(ValueError, match="finite"):
            OperatorSum(1, (LocalOperator((0,), X),), (w,))

    def test_table_is_built_once(self):
        op = signed_sum(np.random.default_rng(0), 3, [(0, 2), (1,)])
        assert op.table is op.table
        inv, sup, ks, offsets, flat, weights = op.table
        assert inv.tolist() == [~0b101, ~0b010]
        assert sup.tolist() == [[0, 2], [1, 63]]
        assert ks.tolist() == [2, 1] and offsets.tolist() == [0, 16]
        assert flat.tobytes() == np.concatenate(
            [t.block.ravel() for t in op.terms]).tobytes()
        assert weights.tolist() == list(op.weights)


# ---------------------------------------------------------------------------
# Loop references for the two bit rules: the per-site copies that
# ops.gather, ops.scatter and Gate.apply replaced (ref_local_index,
# ref_element and ref_apply_to_basis are in refs.py).


def ref_circuit_images(gates, qubit_map, perm):
    """circuit_permutation's per-kind branches as they were, applied to an
    int64 array of basis states."""
    perm = np.array(perm, dtype=np.int64)
    for g in gates:
        q = [qubit_map[v] for v in g.qubits]
        if g.kind == "X":
            perm ^= 1 << q[0]
        elif g.kind == "CNOT":
            perm ^= ((perm >> q[0]) & 1) << q[1]
        else:
            perm ^= (((perm >> q[0]) & (perm >> q[1])) & 1) << q[2]
    return perm


def ref_circuit_permutation(gates, qubit_map, dim):
    return ref_circuit_images(gates, qubit_map, np.arange(dim, dtype=np.int64))


@st.composite
def supports(draw, max_n=62):
    """(n, sorted support, basis states): a register of up to 62 qubits, a
    support on it (possibly empty) and a few states below 2^n."""
    n = draw(st.integers(1, max_n))
    support = tuple(sorted(draw(st.sets(st.integers(0, n - 1), max_size=min(n, 8)))))
    xs = draw(st.lists(st.integers(0, 2**n - 1), min_size=1, max_size=16))
    return n, support, xs


@st.composite
def gate_lists(draw, max_n=62):
    """(n, gates): up to 8 random X/CNOT/Toffoli gates on n qubits."""
    n = draw(st.integers(3, max_n))
    gates = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["X", "CNOT", "TOFFOLI"]))
        arity = {"X": 1, "CNOT": 2, "TOFFOLI": 3}[kind]
        qubits = draw(st.lists(st.integers(0, n - 1), min_size=arity,
                               max_size=arity, unique=True))
        gates.append(Gate(kind, qubits))
    return n, gates


class TestBitRulesMatchLoopReference:
    @settings(max_examples=200, deadline=None)
    @given(supports())
    def test_gather_matches_local_index(self, case):
        n, support, xs = case
        for x in xs:
            got = ops.gather(x, support)
            assert type(got) is int and got == ref_local_index(support, x)
        arr = np.array(xs, dtype=np.int64)
        want = np.array([ref_local_index(support, x) for x in xs], dtype=np.int64)
        got = ops.gather(arr, support)
        assert got.dtype == np.int64 and got.tobytes() == want.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(supports())
    def test_scatter_inverts_gather(self, case):
        n, support, xs = case
        mask = sum(1 << q for q in support)
        arr = np.array(xs, dtype=np.int64)
        for x in xs:
            assert ops.scatter(ops.gather(x, support), support) == x & mask
        assert (ops.scatter(ops.gather(arr, support), support).tobytes()
                == (arr & mask).tobytes())
        local = np.array([x % 2 ** len(support) for x in xs], dtype=np.int64)
        for lx in local.tolist():
            assert ops.gather(ops.scatter(lx, support), support) == lx
        back = ops.gather(ops.scatter(local, support), support)
        assert back.dtype == np.int64 and back.tobytes() == local.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(supports(), st.integers(0, 2**32 - 1))
    def test_element_and_diag_match_reference(self, case, seed):
        """ops.column at x holds <x|t|x> and every nonzero <y|t|x> with
        its <y|t|y>, y ascending in local index, as ref_element reads
        them."""
        n, support, xs = case
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(2 ** len(support),) * 2)
        m[rng.random(m.shape) < 0.3] = 0.0
        t = LocalOperator(support, m + m.T)
        for x in xs:
            key = x & t.mask
            dx, entries = ops.column(t, key)
            assert repr(dx) == repr(ref_element(t, x, x))
            ys = [(x ^ key) | ops.scatter(ly, support)
                  for ly in range(2 ** len(support))]
            want = [(y, ref_element(t, y, x), ref_element(t, y, y))
                    for y in ys if ref_element(t, y, x) != 0.0]
            assert repr([((x ^ key) | s, v, dy) for s, v, dy in entries]) \
                == repr(want)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 62), st.integers(0, 2**32 - 1))
    def test_apply_to_basis_matches_loops(self, n, seed):
        rng = np.random.default_rng(seed)
        op = random_sum(rng, n)
        for x in (0, 2**n - 1, *(int(v) for v in rng.integers(0, 2**n, size=8))):
            got = apply_to_basis(op, x)
            want = ref_apply_to_basis(op, x)
            assert [(type(y), y, v.hex()) for y, v in got.items()] == \
                [(type(y), y, v.hex()) for y, v in want.items()]

    @settings(max_examples=200, deadline=None)
    @given(gate_lists(), st.lists(st.integers(0, 2**62 - 1), min_size=1,
                                  max_size=16))
    def test_gate_apply_matches_per_kind_branches(self, case, zs):
        n, gates = case
        zs = [z % 2**n for z in zs]
        ident = {q: q for q in range(n)}
        arr = np.array(zs, dtype=np.int64)
        got = arr
        for g in gates:
            got = g.apply(got)
        assert got.dtype == np.int64
        assert got.tobytes() == ref_circuit_images(gates, ident, arr).tobytes()
        for z, want in zip(zs, got.tolist()):
            for g in gates:
                z = g.apply(z)
            assert type(z) is int and z == want

    @settings(max_examples=100, deadline=None)
    @given(gate_lists(max_n=10), st.data())
    def test_circuit_permutation_with_relabelling(self, case, data):
        n, gates = case
        bits = data.draw(st.integers(n, 12))
        qubit_map = dict(enumerate(data.draw(st.permutations(range(bits)))[:n]))
        got = ops.circuit_permutation(gates, qubit_map, 2**bits)
        want = ref_circuit_permutation(gates, qubit_map, 2**bits)
        assert got.dtype == np.int64 and got.tobytes() == want.tobytes()


def test_gather_idiom_only_in_ops():
    """The bit gather ``& 1) <<`` is written once, in ops.gather; every
    other module reads it through ops."""
    src = Path(ops.__file__).parent
    found = [f"{path.name}:{i}"
             for path in sorted(src.glob("*.py")) if path.name != "ops.py"
             for i, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
             if "& 1) <<" in line]
    assert not found, f"bit gather written outside ops: {found}"
