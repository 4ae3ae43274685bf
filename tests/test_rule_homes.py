"""One home per rule, with the copies each home replaced kept as references.

* a bit's move between a basis state and a local index: ``ops.gather``
  and ``ops.scatter``, under ``column``, ``support_mask`` and
  ``matrix_elements``
* a term's bit mask: ``ops.support_mask``, which ``_support_maps`` calls
  and ``LocalOperator.mask`` holds for ``column``, ``matrix_elements``
  and ``apply_to_basis``
* an entry of a sum: ``ops.matrix_elements``, the one reader of
  ``OperatorSum.table``, under ``matrix_element`` and the sampled
  ``trace_power``
* a term's column: ``ops.column``, the one read of a block column, which
  ``apply_to_basis`` sums and the walk's rows cache per runner
* the circuit permutation: ``ops.circuit_permutation``, which
  ``VerifierCircuit.permutation`` and ``clock.gate_matrix`` call
* the output writer: ``instances.write_text``, under ``cli._write_csv``
  and ``instances.write_json``
* the draw blocks: ``estimators.draw_blocks``, under the sampled
  ``trace_power`` and the replica sampler
* the validity gate: ``instances.require_valid``
* a clock projector: ``clock._projector``, the one constructor of the
  init, prop and meas terms of ``clock.compile_circuit``
* the walk's trial sweep: ``walk.WalkRunner.sweep``, the one place that
  checks the trial count, tests a witness for a fixed point and derives
  the trial streams
* a walk report that no trial ran for: ``walk.acceptance_rate``'s one
  ``deterministic`` form; ``AcceptanceReport`` has no ``exact`` field
* the output opener: ``instances.open_output``, the one ``open`` or
  ``os.open`` of a file for writing in src/, under ``write_text`` and
  ``verify --transcripts``; no ``O_TRUNC`` anywhere
* a term's diagonal: ``ops.diagonal``, the one read of a block's
  diagonal, under ``extreme_eigenvalue`` and ``dense_spectrum``
  (``LocalOperator`` has no ``diag`` of its own)
* the document boundary: ``instances.document_boundary``, the one raise
  of the not-an-object, version, missing-field and malformed-value
  messages, around ``from_document`` and ``circuit_from_document``
* the clock patterns: ``clock``'s module-level ``_AT`` to ``_HOP``, built
  once through ``ops.local_term``, the one tensor-product rule; no
  ``np.kron`` in src/
* the instance kinds: ``instances._KINDS``, which ``to_document``,
  ``from_document`` and ``cli._load`` read
* a part's conjugation: ``StoqDecomposition.part_operator`` permutes its
  block by ``circuit_permutation``; there is no ``conjugate_by_circuit``
* the compiled verifier: ``circuits.verifier_document`` builds the
  ``mixed-verifier`` document that ``compile --to verifier`` writes and
  ``hamiltonian_to_verifier`` reads back

Each reference is compared bytewise with its home under hypothesis, and
the source guard at the end keeps each rule from being written twice.
A table of every defaulted parameter of a public src/ function keeps a
settable value from being added unseen.
"""

import ast
import csv
import io
import json
import math
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stoqbench import (DisorderEnsemble, Gate, LhMinInstance, LocalOperator,
                       OperatorSum, SchemaError, TermTemplate, VerifierCircuit,
                       apply_to_basis, circuits, cli, clock,
                       decompose_stoquastic, estimators, instances, ops,
                       sbp_matrix, trace_power, walk)
from stoqbench.clock import ClockInstance, compile_circuit, gate_matrix
from stoqbench.estimators import _LambdaSolver, draw_blocks
from stoqbench.ops import (_support_maps, gather, local_term, matrix_elements,
                           scatter)

from conftest import random_stoquastic_block
from refs import (ref_apply_to_basis, ref_element, ref_elements,
                  ref_support_maps)
from test_document_fuzz import DELETE, SOURCES, VALUES, mutations

# ---------------------------------------------------------------------------
# the copies that were replaced


def ref_mask(support):
    """The mask as element, matrix_elements and _support_maps each built it."""
    return scatter((1 << len(support)) - 1, support)


def ref_column(t, key):
    """walk._column, the walk's copy of a term's column."""
    lx = gather(key, t.support)
    col = t.block[:, lx]
    return float(col[lx]), [(scatter(ly, t.support), float(col[ly]),
                             float(t.block[ly, ly]))
                            for ly in np.nonzero(col)[0].tolist()]


def ref_verifier_permutation(v):
    """VerifierCircuit.permutation's own gate loop."""
    perm = np.arange(2**v.total_qubits, dtype=np.int64)
    for g in v.gates:
        perm = g.apply(perm)
    return perm


def ref_gate_matrix(gate):
    qubits = sorted(gate.qubits)
    local = np.arange(2 ** len(qubits), dtype=np.int64)
    perm = gather(gate.apply(scatter(local, qubits)), qubits)
    return np.eye(len(perm))[:, perm]


def ref_trace_draws(g, L, paths, seed):
    """The sampled trace_power's block loop: its draws and its values, with
    G's entries read one step at a time through ref_elements."""
    rng = np.random.default_rng(seed)
    scale = 2.0 ** (g.n * L)
    rows = max(1, estimators.DRAW_CHUNK // L)
    vals = np.empty(paths)
    draws = []
    for start in range(0, paths, rows):
        xs = rng.integers(0, 2**g.n, size=(min(rows, paths - start), L))
        draws.append(xs)
        prod = np.ones(len(xs))
        for j in range(L):
            prod *= ref_elements(g, xs[:, j], xs[:, (j + 1) % L])
        vals[start:start + len(xs)] = scale * prod
    value = float(np.mean(vals))
    stderr = float(np.std(vals, ddof=1) / math.sqrt(paths)) if paths > 1 else 0.0
    return draws, value, stderr


def ref_stats_draws(solver, samples, seed, replicas):
    """_LambdaSolver.stats' block loop: its draws, lambdas and r tuples."""
    rng = np.random.default_rng(seed)
    rows = max(1, estimators.DRAW_CHUNK // replicas)
    draws, lams, rs = [], [], []
    for start in range(0, samples, rows):
        r = rng.integers(0, 2**solver.base.m,
                         size=(min(rows, samples - start), replicas))
        draws.append(r)
        keys, where = np.unique(r, return_inverse=True)
        table = np.array([solver.base_lambda(x) for x in keys.tolist()])
        lam = np.hstack([np.zeros((len(r), 1)), table[where.reshape(r.shape)]])
        lams.extend((np.add.accumulate(lam, axis=1)[:, -1] / replicas).tolist())
        rs.extend(map(tuple, r.tolist()))
    return draws, lams, rs


def ref_write_csv(path, header, rows):
    """cli._write_csv with its own stdout-or-file branch."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([cli._fmt(v) for v in row] for row in rows)
    data = buf.getvalue()
    if path == "-":
        sys.stdout.write(data)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(data)


def ref_write_json(path, doc):
    """instances.write_json with its own stdout-or-file branch."""
    line = json.dumps(doc) + "\n"
    if path == "-":
        sys.stdout.write(line)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(line)


def ref_from_document(doc):
    """instances.from_document with its own copy of the boundary checks."""
    if not isinstance(doc, dict):
        raise SchemaError("instance document is not a JSON object")
    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise SchemaError("instance metadata is not a JSON object")
    try:
        version = doc.get("version")
        if type(version) is not int or version != instances.SCHEMA_VERSION:
            raise SchemaError(f"unsupported schema version {version}")
        kind = doc.get("kind")
        if not isinstance(kind, str) or kind not in instances._KINDS:
            raise SchemaError(f"unknown instance kind {kind!r}")
        cls, fields, terms = instances._KINDS[kind]
        inst = cls(n=instances.json_int(doc["n"], "n"),
                   **{f: parse(doc[f], f) for f, parse in fields.items()},
                   **{terms: tuple(instances._term_from_json(
                       t, cls is DisorderEnsemble) for t in doc["terms"])},
                   metadata=metadata)
    except KeyError as exc:
        raise SchemaError(f"instance document has no {exc} field") from None
    except (TypeError, AttributeError, OverflowError) as exc:
        raise SchemaError(f"malformed instance document: {exc}") from None
    return instances.require_valid(inst)


def ref_circuit_from_document(doc):
    """circuits.circuit_from_document with its own copy of the checks."""
    if not isinstance(doc, dict):
        raise ValueError("circuit document is not a JSON object")
    version = doc.get("version")
    if type(version) is not int or version != circuits.CIRCUIT_SCHEMA_VERSION:
        raise ValueError(f"unsupported circuit schema version {version}")
    try:
        gates = tuple(Gate(g["kind"], tuple(instances.json_int(q, "gate qubit")
                                            for q in g["qubits"]))
                      for g in doc["gates"])
        return VerifierCircuit(
            **{f: instances.json_int(doc[f], f)
               for f in ("n", "n_w", "n_0", "n_plus")},
            gates=gates, out_basis=doc["out_basis"],
        )
    except KeyError as exc:
        raise ValueError(f"circuit document has no {exc} field") from None
    except (TypeError, AttributeError, OverflowError) as exc:
        raise ValueError(f"malformed circuit document: {exc}") from None


# the kets of the reference below, kept with it
_KET0 = np.array([[1.0, 0.0], [0.0, 0.0]])
_KET1 = np.array([[0.0, 0.0], [0.0, 1.0]])
_PLUS = np.array([[0.5, 0.5], [0.5, 0.5]])
_RAISE = np.array([[0.0, 0.0], [1.0, 0.0]])  # |1><0|


def ref_compile_circuit(v, x=0):
    """compile_circuit with each projector family its own sum of local_term
    products: 2 per init term, 5 or 6 per prop term and 2 for meas."""
    if v.num_gates < 1:
        raise ValueError("degenerate circuit: need at least one gate")
    if not 0 <= x < 2**v.n:
        raise ValueError("input string out of range")
    L = v.num_gates
    base = v.total_qubits  # first clock qubit
    c = lambda j: base + j

    def init_family(first_qubit, count, state_proj, label):
        terms = []
        for j in range(count):
            q = first_qubit + j
            block = local_term(
                (q, c(0), c(1)),
                [((q,), state_proj(j)), ((c(0),), _KET1), ((c(1),), _KET0)],
            ) + local_term((q, c(0), c(1)),
                           [((c(0),), _KET1), ((c(1),), _KET1)])
            terms.append(LocalOperator(tuple(sorted((q, c(0), c(1)))), block,
                                       tag=f"{label}{j}"))
        return tuple(terms)

    init_x = init_family(
        0, v.n, lambda j: _KET1 if (x >> j) & 1 else _KET0, "init_x")
    init_0 = init_family(v.n + v.n_w, v.n_0, lambda j: _KET0, "init_0")
    init_plus = init_family(
        v.n + v.n_w + v.n_0, v.n_plus, lambda j: _PLUS, "init_plus")

    prop = []
    for j in range(1, L + 1):
        gate = v.gates[j - 1]
        gq = tuple(sorted(gate.qubits))
        u = gate_matrix(gate)
        support = tuple(sorted(set(gq) | {c(j - 1), c(j), c(j + 1)}))
        clock3 = (c(j - 1), c(j), c(j + 1))
        block = (
            0.5 * local_term(support, [((c(j - 1),), _KET1), ((c(j),), _KET1),
                                       ((c(j + 1),), _KET0)])
            + 0.5 * local_term(support, [((c(j - 1),), _KET1), ((c(j),), _KET0),
                                         ((c(j + 1),), _KET0)])
            + 0.5 * local_term(support, [((c(j - 1),), _KET1), ((c(j),), _RAISE),
                                         ((c(j + 1),), _KET0), (gq, u)])
            + 0.5 * local_term(support, [((c(j - 1),), _KET1), ((c(j),), _RAISE.T),
                                         ((c(j + 1),), _KET0), (gq, u.T)])
            + local_term(support, [((q,), _KET0) for q in clock3])
        )
        if j < L:
            block = block + local_term(support, [((q,), _KET1) for q in clock3])
        prop.append(LocalOperator(support, block, tag=f"prop{j}"))

    pi_out = _PLUS if v.out_basis == "plus" else _KET0
    meas_support = tuple(sorted((0, c(L), c(L + 1))))
    meas_block = local_term(
        meas_support, [((0,), pi_out), ((c(L),), _KET1), ((c(L + 1),), _KET0)]
    ) + local_term(meas_support, [((c(L),), _KET0), ((c(L + 1),), _KET0)])
    meas = LocalOperator(meas_support, meas_block, tag="meas")

    return ClockInstance(
        circuit=v, x=x, init_x=init_x, init_0=init_0, init_plus=init_plus,
        prop=tuple(prop), meas=meas,
        metadata={"input": x, "L": L, "N": base + L + 2},
    )


# ---------------------------------------------------------------------------
# strategies


@st.composite
def terms(draw, max_n=62):
    """(n, term, basis states): a term with a random block on up to 6 of
    n <= 62 qubits, and a few states below 2^n."""
    n = draw(st.integers(1, max_n))
    support = tuple(sorted(draw(st.sets(st.integers(0, n - 1),
                                        max_size=min(n, 6)))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = rng.normal(size=(2 ** len(support),) * 2)
    m[rng.random(m.shape) < 0.4] = 0.0
    xs = draw(st.lists(st.integers(0, 2**n - 1), min_size=1, max_size=12))
    return n, LocalOperator(support, m + m.T), xs


def column_element(t, x, y):
    """<x|t|y> as ops.column lists it: x's entry in t's column at y."""
    key = y & t.mask
    return next((v for s, v, _ in ops.column(t, key)[1]
                 if (y ^ key) | s == x), 0.0)


def pair_with(rng, t, n, x):
    """A y that agrees with x outside t's support, or 30% of the time one
    that may differ there too."""
    y = x ^ scatter(int(rng.integers(0, 2**t.k)), t.support)
    if rng.random() < 0.3:
        y ^= 1 << int(rng.integers(0, n))
    return y


@st.composite
def verifiers(draw):
    """A VerifierCircuit of at most 12 qubits and up to 10 gates."""
    sizes = [draw(st.integers(0, 3)) for _ in range(4)]
    if sum(sizes) < 3:
        sizes[1] += 3 - sum(sizes)
    total = sum(sizes)
    gates = []
    for _ in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(["X", "CNOT", "TOFFOLI"]))
        arity = {"X": 1, "CNOT": 2, "TOFFOLI": 3}[kind]
        gates.append(Gate(kind, draw(st.lists(st.integers(0, total - 1),
                                              min_size=arity, max_size=arity,
                                              unique=True))))
    return VerifierCircuit(*sizes, gates=tuple(gates),
                           out_basis=draw(st.sampled_from(["plus", "zero"])))


CHUNKS = st.sampled_from([1, 3, 7, 64, 1000, estimators.DRAW_CHUNK])

CELLS = st.one_of(st.integers(-2**70, 2**70), st.floats(allow_nan=True),
                  st.text(max_size=12))

JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-2**70, 2**70),
              st.floats(allow_nan=True), st.text(max_size=12)),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(max_size=6), inner,
                                            max_size=4)),
    max_leaves=20)


# ---------------------------------------------------------------------------
# the homes against the references


class TestMask:
    @settings(max_examples=150, deadline=None)
    @given(terms(), st.integers(0, 2**32 - 1))
    def test_element_and_mask_match_per_call_mask(self, case, seed):
        n, t, xs = case
        rng = np.random.default_rng(seed)
        assert type(t.mask) is int and t.mask == ref_mask(t.support)
        for x in xs:
            y = pair_with(rng, t, n, x)
            assert repr(column_element(t, x, y)) == repr(ref_element(t, x, y))

    @settings(max_examples=80, deadline=None)
    @given(st.lists(terms(), min_size=1, max_size=4), st.integers(0, 2**32 - 1))
    def test_matrix_elements_and_rows_match_per_call_mask(self, cases, seed):
        rng = np.random.default_rng(seed)
        n = max(case[0] for case in cases)
        op = OperatorSum(n, tuple(t for _, t, _ in cases),
                         tuple(rng.normal(size=len(cases))))
        xs = [x for _, _, case_xs in cases for x in case_xs]
        ys = [pair_with(rng, op.terms[i % len(cases)], n, x)
              for i, x in enumerate(xs)]
        got = matrix_elements(op, xs, ys)
        assert got.tobytes() == ref_elements(op, xs, ys).tobytes()
        for x in xs:
            assert [(type(y), y, v.hex()) for y, v in apply_to_basis(op, x).items()] \
                == [(type(y), y, v.hex()) for y, v in ref_apply_to_basis(op, x).items()]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 12), st.data())
    def test_support_maps_match_per_call_mask(self, n, data):
        support = tuple(sorted(data.draw(st.sets(st.integers(0, n - 1),
                                                 max_size=min(n, 6)))))
        for got, want in zip(_support_maps(support, n),
                             ref_support_maps(support, n)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestColumn:
    @settings(max_examples=150, deadline=None)
    @given(terms())
    def test_column_matches_the_walks_copy_at_every_key(self, case):
        _, t, _ = case
        for lx in range(2**t.k):
            key = scatter(lx, t.support)
            assert repr(ops.column(t, key)) == repr(ref_column(t, key))

    @settings(max_examples=100, deadline=None)
    @given(terms(), st.floats(-4.0, 4.0))
    def test_apply_to_basis_matches_its_loop_at_every_key(self, case, w):
        n, t, xs = case
        op = OperatorSum(n, (t,), (w,))
        for lx in range(2**t.k):
            x = (xs[0] & ~t.mask) | scatter(lx, t.support)
            assert repr(apply_to_basis(op, x)) == repr(ref_apply_to_basis(op, x))


class TestPermutation:
    @settings(max_examples=100, deadline=None)
    @given(verifiers())
    def test_verifier_permutation_matches_its_gate_loop(self, v):
        got, want = v.permutation(), ref_verifier_permutation(v)
        assert got.dtype == want.dtype == np.int64
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(verifiers())
    def test_gate_matrix_matches_gather_scatter(self, v):
        for g in v.gates:
            assert gate_matrix(g).tobytes() == ref_gate_matrix(g).tobytes()


class TestDrawBlocks:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**63 - 1), st.integers(1, 62), st.integers(1, 300),
           st.integers(1, 40), CHUNKS)
    def test_blocks_are_the_loops_draws(self, seed, bits, count, width, chunk):
        # the two loops differed only in the bound and the row width
        with mock.patch.object(estimators, "DRAW_CHUNK", chunk):
            got = list(draw_blocks(seed, 2**bits, count, width))
        rng = np.random.default_rng(seed)
        rows = max(1, chunk // width)
        want = [rng.integers(0, 2**bits, size=(min(rows, count - s), width))
                for s in range(0, count, rows)]
        assert [b.shape for b in got] == [b.shape for b in want]
        assert all(a.dtype == b.dtype and a.tobytes() == b.tobytes()
                   for a, b in zip(got, want))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 8), st.integers(1, 6), st.integers(2, 200),
           st.integers(0, 2**32 - 1), st.integers(0, 2**63 - 1), CHUNKS)
    def test_sampled_trace_matches_its_block_loop(self, n, L, paths, op_seed,
                                                  seed, chunk):
        rng = np.random.default_rng(op_seed)
        h = LhMinInstance(n, tuple(
            LocalOperator((q,), random_stoquastic_block(rng, 1))
            for q in range(n)), -1.0, 0.0)
        g, _ = sbp_matrix(h)
        with mock.patch.object(estimators, "DRAW_CHUNK", chunk):
            rep = trace_power(g, L, mode="sampled", paths=paths, seed=seed)
            blocks = list(draw_blocks(seed, 2**n, paths, L))
            draws, value, stderr = ref_trace_draws(g, L, paths, seed)
        assert repr((rep.value, rep.stderr)) == repr((value, stderr))
        assert [b.tobytes() for b in blocks] == [b.tobytes() for b in draws]

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 20), st.sampled_from([1, 2, 5, 40]),
           st.integers(0, 2**32 - 1), st.integers(0, 2**63 - 1), CHUNKS)
    def test_replica_stats_match_their_block_loop(self, m, samples, replicas,
                                                  ens_seed, seed, chunk):
        rng = np.random.default_rng(ens_seed)
        ens = DisorderEnsemble(2, m, tuple(
            TermTemplate((q,), (q % m,), {a: random_stoquastic_block(rng, 1)
                                          for a in range(2)})
            for q in range(2)))
        with mock.patch.object(estimators, "DRAW_CHUNK", chunk):
            stats = _LambdaSolver(ens).stats(samples, seed, replicas)
            blocks = list(draw_blocks(seed, 2**m, samples, replicas))
            draws, lams, rs = ref_stats_draws(_LambdaSolver(ens), samples,
                                              seed, replicas)
        assert [b.tobytes() for b in blocks] == [b.tobytes() for b in draws]
        assert [v.hex() for v in stats.lambdas] == [v.hex() for v in lams]
        assert stats.rs.dtype == np.int64 and np.array_equal(stats.rs, rs)


def clock_terms(clock):
    """Each family's terms as (support, tag, block dtype and bytes)."""
    return [[(t.support, t.tag, t.block.dtype, t.block.tobytes())
             for t in family]
            for family in (clock.init_x, clock.init_0, clock.init_plus,
                           clock.prop, (clock.meas,))]


class TestClockRule:
    @settings(max_examples=100, deadline=None)
    @given(verifiers())
    def test_terms_match_their_sums_of_products(self, v):
        for x in range(2**v.n):  # every --input
            got, want = compile_circuit(v, x), ref_compile_circuit(v, x)
            assert clock_terms(got) == clock_terms(want)
            assert got.metadata == want.metadata

    @pytest.mark.parametrize("kind, qubits", [
        ("X", (3,)), ("CNOT", (0, 2)), ("TOFFOLI", (1, 3, 0))])
    @pytest.mark.parametrize("out_basis", ["plus", "zero"])
    def test_one_gate_without_the_all_ones_piece(self, kind, qubits,
                                                 out_basis):
        # L = 1: the only prop term is the last, with no all-ones piece
        v = VerifierCircuit(1, 1, 1, 1, gates=(Gate(kind, qubits),),
                            out_basis=out_basis)
        for x in range(2):
            got, want = compile_circuit(v, x), ref_compile_circuit(v, x)
            assert clock_terms(got) == clock_terms(want)


class TestWriter:
    @staticmethod
    def outputs(write, *args):
        """What ``write(path, *args)`` puts in a file and on stdout."""
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "out"
            write(str(path), *args)
            data = path.read_bytes()
        buf = io.StringIO()
        with redirect_stdout(buf):
            write("-", *args)
        return data, buf.getvalue()

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.text(max_size=8), min_size=1, max_size=5),
           st.lists(st.lists(CELLS, max_size=5), max_size=6))
    def test_csv_matches_its_own_branch(self, header, rows):
        assert self.outputs(cli._write_csv, header, rows) \
            == self.outputs(ref_write_csv, header, rows)

    @settings(max_examples=60, deadline=None)
    @given(JSON)
    def test_json_matches_its_own_branch(self, doc):
        assert self.outputs(instances.write_json, doc) \
            == self.outputs(ref_write_json, doc)


def read_outcome(read, write, doc):
    """What ``read(doc)`` gives: the document ``write`` makes of its
    result, or its error as (is a ValueError, type name otherwise, message)."""
    try:
        return "read", repr(write(read(doc)))
    except Exception as exc:
        valueerror = isinstance(exc, ValueError)
        return valueerror, "" if valueerror else type(exc).__name__, str(exc)


# (reader, its reference, the writer that makes a document of its result)
READERS = {"instance": (instances.from_document, ref_from_document,
                        instances.to_document),
           "circuit": (circuits.circuit_from_document,
                       ref_circuit_from_document, circuits.circuit_to_document)}


class TestDocumentBoundary:
    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(sorted(SOURCES)), st.data())
    def test_readers_match_their_own_checks(self, kind, data):
        """One value mutated, and now and then the version too, so that
        the order of two failing checks is compared as well."""
        doc, _, _ = data.draw(mutations(kind))
        if data.draw(st.booleans()):
            version = data.draw(st.sampled_from(VALUES))
            if version is DELETE:
                doc.pop("version", None)
            else:
                doc["version"] = version
        read, ref, write = READERS["circuit" if kind == "circuit"
                                   else "instance"]
        assert read_outcome(read, write, doc) == read_outcome(ref, write, doc)

    @settings(max_examples=100, deadline=None)
    @given(JSON)
    def test_any_json_value(self, doc):
        for read, ref, write in READERS.values():
            assert read_outcome(read, write, doc) \
                == read_outcome(ref, write, doc)

    @pytest.mark.parametrize("what", ["instance", "circuit"])
    def test_boundary_errors_are_schema_errors(self, what):
        read = READERS[what][0]
        for doc in ([], {"version": 2}, {"version": 1}):
            with pytest.raises(SchemaError):
                read(doc)


class TestValidityGate:
    def test_three_callers_raise_the_one_message(self, tmp_path):
        bad = np.array([[0.0, 1.0], [1.0, 0.0]])  # positive off-diagonal
        h = LhMinInstance(1, (LocalOperator((0,), bad),), 0.0, 1.0)
        want = ("not a valid stoquastic instance: term 0: positive "
                "off-diagonal entry 1 (not stoquastic)")
        doc = instances.to_document(h)
        for call in (lambda: sbp_matrix(h), lambda: decompose_stoquastic(h),
                     lambda: instances.from_document(doc)):
            with pytest.raises(SchemaError) as info:
                call()
            assert str(info.value) == want

    def test_valid_instance_passes_through(self):
        h = LhMinInstance(1, (LocalOperator((0,), -np.eye(2)),), 0.0, 1.0)
        assert instances.require_valid(h) is h


# ---------------------------------------------------------------------------
# source guard


def _enclosing_functions(tree):
    """Each node's innermost enclosing function name ("" at module level)."""
    owner = {}
    for node in ast.walk(tree):  # outer functions are walked before inner
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in ast.walk(node):
                owner[inner] = node.name
    return owner


def _homes(match):
    """(module, function) of every node in src/ that ``match`` accepts,
    sorted, so a node's depth inside its function does not count."""
    found = []
    for path in sorted(Path(ops.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = _enclosing_functions(tree)
        found += [(path.stem, owner.get(node, "")) for node in ast.walk(tree)
                  if match(node)]
    return sorted(found)


def _is_call_of(node, dotted):
    return isinstance(node, ast.Call) and ast.unparse(node.func) == dotted


def _opens_for_writing(node):
    """An ``open`` with a mode that is not read-only, an ``os.open`` with
    a flag that writes, or any ``O_TRUNC``."""
    if isinstance(node, (ast.Name, ast.Attribute)) and "O_TRUNC" in (
            getattr(node, "id", None), getattr(node, "attr", None)):
        return True
    if _is_call_of(node, "os.open"):
        return any(flag in ast.unparse(node.args[1])
                   for flag in ("O_WRONLY", "O_RDWR", "O_CREAT", "O_APPEND"))
    if not _is_call_of(node, "open"):
        return False
    modes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
    return bool(modes) and not (isinstance(modes[0], ast.Constant)
                                and set(modes[0].value) <= set("rbt"))


def _reads_block_diagonal(node):
    """``<term>.block.diagonal()``, or np.diag or np.diagonal of a
    ``<term>.block``."""
    if not isinstance(node, ast.Call):
        return False
    func = ast.unparse(node.func)
    if func in ("np.diag", "np.diagonal"):
        return bool(node.args) and ast.unparse(node.args[0]).endswith(".block")
    return func.endswith(".block.diagonal")


def _moves_a_bit(node):
    """((a >> b) & 1) << c: bit b of a moved to bit c."""
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.LShift)
            and isinstance(node.left, ast.BinOp)
            and isinstance(node.left.op, ast.BitAnd)
            and isinstance(node.left.left, ast.BinOp)
            and isinstance(node.left.left.op, ast.RShift)
            and ast.unparse(node.left.right) == "1")


@pytest.mark.parametrize("rule, match, home", [
    ("the mask expression scatter((1 << k) - 1, bits)",
     lambda node: _is_call_of(node, "scatter") and node.args
     and ast.unparse(node.args[0]).startswith("(1 <<"),
     [("ops", "support_mask")]),
    ("sys.stdout.write",
     lambda node: _is_call_of(node, "sys.stdout.write"),
     [("instances", "write_text")]),
    ("a read of DRAW_CHUNK",
     lambda node: isinstance(node, ast.Name) and node.id == "DRAW_CHUNK"
     and isinstance(node.ctx, ast.Load),
     [("estimators", "draw_blocks")]),
    ("the invalid-instance message",
     lambda node: isinstance(node, ast.Constant) and isinstance(node.value, str)
     and "not a valid stoquastic instance" in node.value,
     [("instances", "require_valid")]),
    ("the fixed-point test of a witness's row",
     lambda node: isinstance(node, ast.Compare)
     and "[(witness, 0.0)]" in ast.unparse(node),
     [("walk", "sweep")]),
    ("a _generators call",
     lambda node: _is_call_of(node, "_generators"),
     [("walk", "sweep")]),
    ("the trial count check",
     lambda node: isinstance(node, ast.Constant)
     and node.value == "trials must be >= 1",
     [("walk", "sweep")]),
    ("a read of an operator sum's term table",
     lambda node: isinstance(node, ast.Attribute) and node.attr == "table",
     [("ops", "matrix_elements")]),
    ("a file opened for writing",
     _opens_for_writing,
     [("instances", "open_output")] * 2),
    ("a read of a term block's diagonal",
     _reads_block_diagonal,
     [("ops", "diagonal")]),
    ("a document boundary message",
     lambda node: isinstance(node, ast.Raise) and any(
         text in ast.unparse(node) for text in (
             "document is not a JSON object", "unsupported", "document has no",
             "malformed")),
     [("instances", "document_boundary")] * 4),
    ("a Kronecker product",
     lambda node: _is_call_of(node, "np.kron"),
     []),
    ("a table of the instance kinds",
     lambda node: isinstance(node, ast.Dict)
     and "LhMinInstance" in ast.unparse(node),
     [("instances", "")]),
    ("a name conjugate_by_circuit",  # a Name, Attribute, def or import
     lambda node: getattr(node, "id", getattr(node, "attr", getattr(
         node, "name", None))) == "conjugate_by_circuit",
     []),
    ("the bit move ((a >> b) & 1) << c",
     _moves_a_bit,
     [("ops", "gather"), ("ops", "scatter")]),
    ("an exact= keyword or an .exact attribute",
     lambda node: (isinstance(node, ast.keyword) and node.arg == "exact")
     or (isinstance(node, ast.Attribute) and node.attr == "exact"),
     []),
    ("the mixed-verifier document",
     lambda node: isinstance(node, ast.Constant)
     and node.value == "mixed-verifier",
     [("circuits", "verifier_document")]),
])
def test_each_rule_has_one_home(rule, match, home):
    assert _homes(match) == home, f"{rule} written outside its home"


def test_clock_projectors_have_one_constructor():
    """compile_circuit calls neither LocalOperator nor local_term itself:
    its init, prop and meas terms each come from clock._projector."""
    tree = ast.parse(Path(clock.__file__).read_text(encoding="utf-8"))
    funcs = {node.name: node for node in ast.walk(tree)
             if isinstance(node, ast.FunctionDef)}

    def calls(caller, callee):
        return sum(_is_call_of(node, callee) for node in ast.walk(funcs[caller]))

    assert calls("compile_circuit", "LocalOperator") == 0
    assert calls("compile_circuit", "local_term") == 0
    assert calls("compile_circuit", "_projector") == 3
    assert calls("_projector", "LocalOperator") == 1


def test_local_operators_hold_their_mask():
    """LocalOperator computes its mask once, on first use."""
    t = LocalOperator((1, 4), np.eye(4))
    assert t.mask == 0b10010
    op = OperatorSum(6, (t,))
    with mock.patch.object(ops, "support_mask", side_effect=AssertionError):
        assert apply_to_basis(op, 0b10010) == {0b10010: 1.0}
        assert 0b100010 not in apply_to_basis(op, 0b000010)


def test_one_column_rule():
    """ops.column is the only src/ function that reads a block column and
    its nonzeros; the walk keeps no copy of it and reads no bit layout
    itself; LocalOperator has no per-entry readers left."""
    def reads_block_column(node):
        return (isinstance(node, ast.Subscript)
                and ast.unparse(node).split("[")[0].endswith("block")
                and isinstance(node.slice, ast.Tuple)
                and ast.unparse(node.slice.elts[0]) == ":")

    assert _homes(reads_block_column) == [("ops", "column")]
    assert ("ops", "column") in _homes(lambda node: _is_call_of(node, "np.nonzero"))
    tree = ast.parse(Path(walk.__file__).read_text(encoding="utf-8"))
    assert not any(isinstance(node, ast.FunctionDef) and node.name == "_column"
                   for node in ast.walk(tree))
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert not imported & {"gather", "scatter"}
    assert not hasattr(LocalOperator, "element")
    assert not hasattr(LocalOperator, "diag")


# every defaulted parameter of a public src/ function, by module and
# qualified name; the tuning values among them (ROADMAP aim 2 counts
# them) are marked, the rest are inputs a caller may leave out
DEFAULTED = {
    ("cli", "main"): ("argv",),
    ("clock", "compile_circuit"): ("x",),
    ("clock", "export_6sat"): ("epsilon",),
    ("estimators", "trace_power"): ("mode", "paths", "seed"),
    ("estimators", "trace_report"): ("L", "paths", "seed"),
    ("estimators", "replica_ensemble"): ("qubit_ceiling",),
    ("estimators", "lambda_stats"): ("seed",),
    ("estimators", "av_decide"): ("samples", "seed", "sigma_margin"),
    ("instances", "document_boundary"): ("schema",),
    ("prover", "adversarial_witnesses"): ("mode", "count", "seed"),
    ("spectral", "extreme_eigenvalue"): ("which",),
    ("walk", "acceptance_rate"): ("runner",),
}
TUNING = {("estimators", "replica_ensemble", "qubit_ceiling"),
          ("estimators", "av_decide", "sigma_margin")}


def _defaulted_parameters():
    """(module, qualified name) -> its defaulted parameters, for every
    function and method in src/ whose name has no leading underscore."""
    found = {}
    for path in sorted(Path(ops.__file__).parent.glob("*.py")):
        todo = [("", ast.parse(path.read_text(encoding="utf-8")))]
        while todo:
            prefix, node = todo.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    todo.append((f"{prefix}{child.name}.", child))
                if not isinstance(child, ast.FunctionDef) \
                        or child.name.startswith("_"):
                    continue
                a = child.args
                positional = a.posonlyargs + a.args
                names = [p.arg for p in positional[len(positional)
                                                   - len(a.defaults):]]
                names += [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults)
                          if d is not None]
                if names:
                    found[path.stem, prefix + child.name] = tuple(names)
    return found


def test_every_defaulted_parameter_is_in_the_table():
    """A parameter with a default that the table does not name fails
    here: it is an input the table should list, or a tuning value."""
    assert _defaulted_parameters() == DEFAULTED
    assert TUNING <= {(*key, p) for key, ps in DEFAULTED.items() for p in ps}
    assert len(TUNING) == 2
