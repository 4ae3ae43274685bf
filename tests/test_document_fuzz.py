"""Mutated instance and circuit documents through the CLI, in process.

Each document starts as a valid instance of at most 4 qubits of one kind
in ``instances._KINDS``, or as a valid circuit of 4 work qubits.  One
value in it, a field, a term or gate key, the metadata or an entry below
one of them, is deleted or set to null, a value of the wrong type (a
number in a string among them), NaN, +-inf, a negative or a huge number.
Every command that reads that kind must then exit 0, 1 or 2, and an exit
1 prints exactly one ``error:`` line and leaves neither output nor
manifest.  An instance document that exits 0 must come back from
``to_document(from_document(doc))`` as the same JSON values, and a
circuit document from ``circuit_to_document(circuit_from_document(doc))``.
"""

import io
import json
import math
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from stoqbench import (DisorderEnsemble, Gate, LhMinInstance, LocalOperator,
                       StoqSatInstance, TermTemplate, VerifierCircuit,
                       circuits, cli, instances, random_projector_instance)

X = np.array([[0.0, -1.0], [-1.0, 0.0]])

# one valid instance per kind, as the plain JSON document a file holds
VALID = {
    "stoq-sat": random_projector_instance(4, 2, 3, seed=1),
    "lh-min": LhMinInstance(3, (LocalOperator((0, 2), -np.kron(X, X) - np.eye(4)),
                                LocalOperator((1,), X)), -2.5, -1.0),
    "ensemble": DisorderEnsemble(2, 2, (
        TermTemplate((0, 1), (0, 1), {a: -np.eye(4) * a - np.kron(X, X)
                                      for a in range(4)}),
        TermTemplate((1,), (), {0: np.diag([0.0, 1.0])}))),
}
# each kind again with its terms on no qubit, so that no support bound
# stops a mutated n and a negative one reaches the register-size check
NO_QUBIT = {
    "stoq-sat": StoqSatInstance(1, 0.5, (LocalOperator((), np.eye(1)),)),
    "lh-min": LhMinInstance(1, (LocalOperator((), -np.eye(1)),), -1.5, -0.5),
    "ensemble": DisorderEnsemble(1, 1, (TermTemplate((), (0,), {
        0: np.zeros((1, 1)), 1: -np.eye(1)}),)),
}
DOCS = {**{kind: json.loads(json.dumps(instances.to_document(inst)))
           for kind, inst in VALID.items()},
        **{f"{kind} on no qubit": json.loads(json.dumps(
            instances.to_document(inst))) for kind, inst in NO_QUBIT.items()}}
# a circuit with an ancilla in each ancilla register and every gate kind
CIRCUIT = json.loads(json.dumps(circuits.circuit_to_document(VerifierCircuit(
    1, 1, 1, 1, gates=(Gate("TOFFOLI", (0, 1, 2)), Gate("CNOT", (3, 1)),
                       Gate("X", (2,)))))))
SOURCES = {**DOCS, "circuit": CIRCUIT}

# the commands that read each kind; the walk is cut short, so that a
# mutated epsilon or register size cannot ask for millions of steps
COMMANDS = {
    "stoq-sat": [["spectrum"], ["prove"],
                 ["verify", "--witness", "0", "--trials", "2", "--steps", "4",
                  "--seed", "0"]],
    "lh-min": [["spectrum"], ["trace"]],
    "ensemble": [["ensemble", "--samples", "3", "--seed", "0"]],
}
COMMANDS.update({f"{kind} on no qubit": COMMANDS[kind] for kind in NO_QUBIT})
CIRCUIT_COMMANDS = [["compile", "--to", "clock"], ["compile", "--to", "6sat"]]

DELETE = object()
# huge: past every size limit, past int64, and past the largest float
VALUES = [DELETE, None, "x", "0.5", [1], {"a": 1}, True, math.nan, math.inf,
          -math.inf, -1, -0.5, 10**6, 2**64, 1e300, 10**400]


def places(doc):
    """Where a mutation may start: each top-level field, and each key of
    each term or gate."""
    out = [(key,) for key in doc]
    items = "gates" if "gates" in doc else "terms"
    for i, item in enumerate(doc[items]):
        out += [(items, i, key) for key in item]
    return out


@st.composite
def mutations(draw, kind):
    """(document, path, value): a copy of the valid document of the kind,
    or of the circuit, with the value at path replaced, or deleted if value
    is DELETE."""
    doc = json.loads(json.dumps(SOURCES[kind]))
    path = draw(st.sampled_from(places(doc)))
    parent, key = doc, path[0]
    for step in path[1:]:
        parent, key = parent[key], step
    # descend into the entries of a list or table now and then
    while isinstance(parent[key], (list, dict)) and parent[key] \
            and draw(st.booleans()):
        parent, key = parent[key], draw(st.sampled_from(
            sorted(parent[key]) if isinstance(parent[key], dict)
            else range(len(parent[key]))))
        path = path + (key,)
    value = draw(st.sampled_from(VALUES))
    if value is DELETE:
        del parent[key]
    else:
        parent[key] = value
    return doc, path, value


def run(argv):
    """main(argv) in process: (exit code, stderr), where stderr also holds
    the first line of each warning, as a console run would print it."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(argv)
    return code, "".join(f"{w.category.__name__}: {w.message}\n"
                         for w in caught) + err.getvalue()


@pytest.mark.parametrize("kind", sorted(DOCS))
def test_valid_documents_exit_0_or_2(kind, tmp_path):
    (tmp_path / "inst.json").write_text(json.dumps(DOCS[kind]))
    for command in COMMANDS[kind]:
        out = tmp_path / f"{command[0]}.out"
        code, err = run(command + ["--instance", str(tmp_path / "inst.json"),
                                   "--out", str(out)])
        assert code in (cli.EXIT_OK, cli.EXIT_PROMISE), err
        assert out.exists()


def same_json(a, b) -> bool:
    """a and b are the same JSON values: a bool or a string never equals a
    number, an int equals the float of the same value, NaN equals NaN."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same_json(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(same_json, a, b))
    if type(a) in (int, float) and type(b) in (int, float):
        return a == b or (a != a and b != b)
    return type(a) is type(b) and a == b


def assert_mutant_exits_cleanly(kind, doc, path, value):
    """Every command of the kind exits 0, 1 or 2 on the document; an exit 1
    is one ``error:`` line and no file, and an exit 0 means the document
    round-trips, a missing metadata as {}."""
    loaded = False
    with tempfile.TemporaryDirectory() as tmp:
        inst = Path(tmp) / "inst.json"
        inst.write_text(json.dumps(doc))
        for command in COMMANDS[kind]:
            out = Path(tmp) / f"{command[0]}.out"
            code, err = run(command + ["--instance", str(inst),
                                       "--out", str(out)])
            where = f"{command[0]} with {path} = {value!r}: {err!r}"
            assert code in (cli.EXIT_OK, cli.EXIT_ERROR, cli.EXIT_PROMISE), where
            loaded |= code == cli.EXIT_OK
            if code == cli.EXIT_ERROR:
                assert err.startswith("error: ") and err.count("\n") == 1, where
                assert not out.exists(), where
                assert not Path(f"{out}.manifest.json").exists(), where
    if loaded:
        back = instances.to_document(instances.from_document(doc))
        assert same_json(back, {"metadata": {}, **doc}), \
            f"{path} = {value!r} loads as {back}"


@pytest.mark.parametrize("kind", sorted(DOCS))
@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_documents_exit_cleanly(kind, data):
    assert_mutant_exits_cleanly(kind, *data.draw(mutations(kind)))


# each float field of each kind, and a matrix entry of each
FLOAT_PLACES = [("stoq-sat", ("epsilon",)), ("lh-min", ("lambda_yes",)),
                ("lh-min", ("lambda_no",)),
                ("stoq-sat", ("terms", 0, "matrix", 0)),
                ("lh-min", ("terms", 1, "matrix", 0)),
                ("ensemble", ("terms", 1, "tables", "", 0))]


@pytest.mark.parametrize("value", ["0.5", True, 1])
@pytest.mark.parametrize("kind, path", FLOAT_PLACES)
def test_float_fields_take_json_numbers(kind, path, value):
    """A number in a string or a bool is not a float field; an int is."""
    doc = json.loads(json.dumps(SOURCES[kind]))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    assert_mutant_exits_cleanly(kind, doc, path, value)


def test_valid_circuit_compiles(tmp_path):
    (tmp_path / "circ.json").write_text(json.dumps(CIRCUIT))
    for command in CIRCUIT_COMMANDS:
        out = tmp_path / f"{command[-1]}.json"
        code, err = run(command + ["--circuit", str(tmp_path / "circ.json"),
                                   "--out", str(out)])
        assert code == cli.EXIT_OK, err
        assert out.exists()


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_circuits_exit_cleanly(data):
    """As for instances: an exit 1 is one line and no file, and a circuit
    that compiles comes back from its document as the same JSON values."""
    doc, path, value = data.draw(mutations("circuit"))
    loaded = False
    with tempfile.TemporaryDirectory() as tmp:
        circ = Path(tmp) / "circ.json"
        circ.write_text(json.dumps(doc))
        for command in CIRCUIT_COMMANDS:
            out = Path(tmp) / f"{command[-1]}.json"
            code, err = run(command + ["--circuit", str(circ),
                                       "--out", str(out)])
            where = f"{command[-1]} with {path} = {value!r}: {err!r}"
            assert code in (cli.EXIT_OK, cli.EXIT_ERROR, cli.EXIT_PROMISE), where
            loaded |= code == cli.EXIT_OK
            if code == cli.EXIT_ERROR:
                assert err.startswith("error: ") and err.count("\n") == 1, where
                assert not out.exists(), where
                assert not Path(f"{out}.manifest.json").exists(), where
    if loaded:
        back = circuits.circuit_to_document(circuits.circuit_from_document(doc))
        assert same_json(back, doc), f"{path} = {value!r} loads as {back}"


@pytest.mark.parametrize("command", [["trace"], ["spectrum"]])
def test_register_beyond_int64_is_one_line(command, tmp_path):
    """A 1023-qubit register is a valid instance, but no int64 index array
    holds it: exit 1, naming the qubit count, before any array is built."""
    h = LhMinInstance(1023, (LocalOperator((0,), X),), -1.5, 0.0)
    instances.save(h, tmp_path / "big.json")
    code, err = run(command + ["--instance", str(tmp_path / "big.json"),
                               "--out", str(tmp_path / "o.csv")])
    assert code == cli.EXIT_ERROR
    assert err == ("error: 1023 qubits exceed the 62 of int64 basis "
                   "indices\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["big.json"]
