import hashlib
import json

import numpy as np
import pytest

from stoqbench import (LhMinInstance, LocalOperator, OperatorSum, SchemaError,
                       StoqSatInstance, TermTemplate, assemble_dense,
                       clause_projector, from_dimacs, parse_dimacs,
                       projector_check, random_projector_instance, validate)
from stoqbench import cli, instances
from stoqbench.instances import (DisorderEnsemble, from_document, load, save,
                                 to_document)

SAT_3 = "p cnf 3 3\n1 2 0\n-1 3 0\n2 -3 0\n"


class TestDimacs:
    def test_parse_header_and_clauses(self):
        n, clauses = parse_dimacs("c comment\np cnf 4 2\n1 -2 0\n3 4 0\n")
        assert n == 4
        assert clauses == [(1, -2), (3, 4)]

    def test_missing_header_rejected(self):
        with pytest.raises(SchemaError):
            parse_dimacs("1 2 0\n")

    def test_out_of_range_literal_rejected(self):
        with pytest.raises(SchemaError):
            parse_dimacs("p cnf 2 1\n5 0\n")

    def test_clause_projector_kills_violating_assignment(self):
        # clause (x1 or x2 or not x3): violated exactly at x1=0, x2=0, x3=1
        proj = clause_projector((1, 2, -3), 3)
        assert proj.support == (0, 1, 2)
        expect = np.eye(8)
        expect[4, 4] = 0.0
        assert np.array_equal(proj.block, expect)

    def test_tautology_maps_to_none(self):
        assert clause_projector((1, -1, 2), 3) is None

    def test_from_dimacs_builds_diagonal_instance(self):
        inst = from_dimacs(SAT_3)
        assert inst.n == 3 and inst.m == 3 and inst.epsilon == 1.0
        assert validate(inst) == []
        g = OperatorSum(inst.n, inst.projectors, (1 / 3,) * 3)
        dense = assemble_dense(g)
        assert np.array_equal(dense, np.diag(np.diag(dense)))

    def test_empty_formula_rejected(self):
        with pytest.raises(SchemaError):
            from_dimacs("p cnf 3 0\n")

    def test_tautologies_dropped_with_warning(self):
        with pytest.warns(UserWarning):
            inst = from_dimacs("p cnf 2 2\n1 -1 0\n1 2 0\n")
        assert inst.m == 1

    def test_wide_clause_rejected(self):
        text = "p cnf 8 1\n1 2 3 4 5 6 7 0\n"
        with pytest.raises(SchemaError):
            from_dimacs(text)


class TestRandomInstance:
    def test_deterministic_under_seed(self):
        a = random_projector_instance(5, 2, 4, seed=7)
        b = random_projector_instance(5, 2, 4, seed=7)
        for pa, pb in zip(a.projectors, b.projectors):
            assert pa.support == pb.support
            assert np.array_equal(pa.block, pb.block)

    def test_every_term_is_a_projector(self):
        inst = random_projector_instance(6, 3, 10, seed=1)
        for p in inst.projectors:
            ok, res = projector_check(p, tol=1e-12)
            assert ok, res
            assert np.min(p.block) >= 0.0

    def test_k_limit(self):
        with pytest.raises(ValueError):
            random_projector_instance(8, 7, 1, seed=0)

    @pytest.mark.parametrize("n, k, prefix", [(3, 0, "k=0 "), (3, 4, "k=4 "),
                                              (0, 1, "n=0 ")])
    def test_bad_size_names_the_argument(self, n, k, prefix):
        with pytest.raises(ValueError, match=f"^{prefix}[^\n]*$"):
            random_projector_instance(n, k, 2, 0)


class TestValidate:
    def test_pauli_x_flagged_as_non_projector(self):
        x = LocalOperator((0,), np.array([[0.0, 1.0], [1.0, 0.0]]))
        inst = StoqSatInstance(1, 1.0, (x,))
        report = validate(inst)
        assert any("projector" in line for line in report)

    def test_positive_offdiagonal_flagged(self):
        t = LocalOperator((0,), np.array([[0.0, 0.5], [0.5, 1.0]]))
        inst = LhMinInstance(1, (t,), 0.0, 1.0)
        assert any("stoquastic" in line for line in validate(inst))

    def test_clean_instance_passes(self):
        assert validate(from_dimacs(SAT_3)) == []

    def test_epsilon_range_checked(self):
        p = LocalOperator((0,), np.diag([1.0, 0.0]))
        assert any("epsilon" in line
                   for line in validate(StoqSatInstance(1, 2.0, (p,))))

    def test_threshold_ordering_checked(self):
        t = LocalOperator((0,), np.diag([0.0, 1.0]))
        inst = LhMinInstance(1, (t,), 1.0, 0.5)
        assert any("lambda" in line for line in validate(inst))


class TestSerialization:
    def test_stoq_sat_round_trip(self, tmp_path):
        inst = random_projector_instance(4, 2, 3, seed=2)
        path = tmp_path / "inst.json"
        save(inst, path)
        back = load(path)
        assert back.n == inst.n and back.epsilon == inst.epsilon
        for pa, pb in zip(inst.projectors, back.projectors):
            assert pa.support == pb.support
            assert np.allclose(pa.block, pb.block)

    def test_lh_min_round_trip(self, tmp_path):
        t = LocalOperator((0, 1), np.diag([0.0, 1.0, 1.0, 2.0]))
        inst = LhMinInstance(2, (t,), 0.0, 1.0, metadata={"note": "fixture"})
        path = tmp_path / "h.json"
        save(inst, path)
        back = load(path)
        assert back.lambda_yes == 0.0 and back.lambda_no == 1.0
        assert back.metadata["note"] == "fixture"

    def test_ensemble_round_trip(self, tmp_path):
        tpl = TermTemplate((0,), (0,), {
            0: np.array([[0.0, -1.0], [-1.0, 0.0]]),
            1: np.array([[2.0, -1.0], [-1.0, 0.0]]),
        })
        ens = DisorderEnsemble(1, 1, (tpl,))
        path = tmp_path / "ens.json"
        save(ens, path)
        back = load(path)
        assert back.m == 1
        assert np.array_equal(back.templates[0].tables[1], tpl.tables[1])

    def test_version_mismatch_rejected(self):
        with pytest.raises(SchemaError):
            from_document({"version": 99, "kind": "stoq-sat", "n": 1, "terms": []})

    def test_invalid_instance_rejected_on_load(self, tmp_path):
        doc = {
            "version": 1, "kind": "stoq-sat", "n": 1, "epsilon": 1.0,
            "terms": [{"qubits": [0], "matrix": [0.0, 1.0, 1.0, 0.0], "dim": 2}],
            "metadata": {},
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError):
            load(path)

    def test_hand_written_minimal_document(self):
        doc = {
            "version": 1, "kind": "stoq-sat", "n": 1, "epsilon": 1.0,
            "terms": [{"qubits": [0], "matrix": [1.0, 0.0, 0.0, 0.0], "dim": 2}],
            "metadata": {},
        }
        inst = from_document(doc)
        assert inst.m == 1 and inst.projectors[0].block[0, 0] == 1.0

    def test_non_finite_entries_rejected(self):
        doc = {
            "version": 1, "kind": "stoq-sat", "n": 1, "epsilon": 1.0,
            "terms": [{"qubits": [0], "matrix": [1.0, 0.0, 0.0, float("nan")],
                       "dim": 2}],
            "metadata": {},
        }
        with pytest.raises(SchemaError):
            from_document(doc)

    @pytest.mark.parametrize("metadata", [5, [], "x", None])
    def test_non_object_metadata_rejected(self, metadata):
        doc = {
            "version": 1, "kind": "stoq-sat", "n": 1, "epsilon": 1.0,
            "terms": [{"qubits": [0], "matrix": [1.0, 0.0, 0.0, 0.0], "dim": 2}],
            "metadata": metadata,
        }
        with pytest.raises(SchemaError, match="metadata is not a JSON object"):
            from_document(doc)


class TestCodec:
    X = np.array([[0.0, -1.0], [-1.0, 0.0]])
    # one small instance per kind; the ensemble has a 2-bit template with
    # int tables, which the writer turns into floats, and a 0-bit one
    FIXTURES = {
        "stoq-sat": StoqSatInstance(3, 0.25, (
            LocalOperator((0, 2), np.diag([1.0, 1.0, 0.0, 1.0])),
            LocalOperator((1,), np.full((2, 2), 0.5))),
            metadata={"source": "pin", "k": 2}),
        "lh-min": LhMinInstance(2, (
            LocalOperator((0, 1), np.array([[0, 0, -1, 0], [0, 0, 0, -1],
                                            [-1, 0, 0, 0], [0, -1, 0, 0]]) / 3),
            LocalOperator((1,), np.diag([0.0, 0.1]))), -0.75, 0.125,
            metadata={"delta": 0.1}),
        "ensemble": DisorderEnsemble(2, 3, (
            TermTemplate((0, 1), (0, 2), {a: np.diag([0, a, 1, 1])
                                          for a in range(4)}),
            TermTemplate((1,), (), {0: X})), metadata={"replicas": [1, 2]}),
    }
    # sha256 of each saved file: bytes that move here break every stored
    # instance's hash in a manifest
    SHA256 = {
        "stoq-sat": "c5778a6fd523313f9c039ed0472892840424c21abb9d90d3c1cbc5a506a4891c",
        "lh-min": "96f5c20920e0acf02b45b616cc7d93f222bdad164dc693f63ad1b949dcef7a65",
        "ensemble": "bc405d5ab8d5b112f331cb697b8924723ff494a561bebe00a9d58e6c37a0796e",
    }
    FIELDS = {"stoq-sat": ["epsilon"], "lh-min": ["lambda_yes", "lambda_no"],
              "ensemble": ["m"]}

    @pytest.mark.parametrize("kind", sorted(FIXTURES))
    def test_document_bytes_pinned(self, kind, tmp_path):
        path = tmp_path / "inst.json"
        save(self.FIXTURES[kind], path)
        data = path.read_bytes()
        assert list(json.loads(data)) == ["version", "kind", "n",
                                          *self.FIELDS[kind], "terms",
                                          "metadata"]
        assert hashlib.sha256(data).hexdigest() == self.SHA256[kind]
        save(load(path), tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == data

    def test_kind_table_validate_and_cli_agree(self):
        table = {cls for cls, _, _ in instances._KINDS.values()}
        assert table == set(cli._KINDS)
        assert {type(i) for i in self.FIXTURES.values()} == table
        for kind, inst in self.FIXTURES.items():
            assert validate(inst) == []
            assert to_document(inst)["kind"] == kind
        assert validate(object()) == ["unknown instance type object"]


class TestEnsembleRealization:
    def test_every_table_row_realizes_validly(self):
        tpl0 = TermTemplate((0, 1), (0,), {
            0: np.diag([1.0, 0.0, 0.0, 0.0]),
            1: np.zeros((4, 4)),
        })
        tpl1 = TermTemplate((1,), (1,), {
            0: np.array([[0.0, -0.5], [-0.5, 0.0]]),
            1: np.diag([0.0, 1.0]),
        })
        ens = DisorderEnsemble(2, 2, (tpl0, tpl1))
        assert validate(ens) == []
        for r in range(4):
            inst = ens.realize(r)
            assert validate(inst) == []

    def test_block_for_uses_listed_bits(self):
        tpl = TermTemplate((0,), (2,), {0: np.zeros((2, 2)), 1: np.eye(2)})
        assert np.array_equal(tpl.block_for(0b100), np.eye(2))
        assert np.array_equal(tpl.block_for(0b011), np.zeros((2, 2)))

    def test_out_of_range_r_rejected(self):
        tpl = TermTemplate((0,), (), {0: np.eye(2)})
        ens = DisorderEnsemble(1, 0, (tpl,))
        with pytest.raises(ValueError):
            ens.realize(2)
