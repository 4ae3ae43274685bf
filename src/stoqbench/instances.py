"""Instance data model, generators and JSON serialization.

Three kinds of instance share one versioned JSON container:
stoquastic SAT (non-negative projectors), stoquastic LH-MIN (terms with
non-positive off-diagonals), and disorder ensembles (terms tabulated
over a few random bits).
"""

from __future__ import annotations

import contextlib
import json
import os
import stat
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from .ops import ETA, LocalOperator, OperatorSum, gather, projector_check

SCHEMA_VERSION = 1

# Most qubits a generated or parsed term acts on: the clock is 6-local.
MAX_K = 6


class SchemaError(ValueError):
    pass


@dataclass(frozen=True)
class StoqSatInstance:
    n: int
    epsilon: float
    projectors: tuple
    metadata: dict = field(default_factory=dict, hash=False)

    def __post_init__(self):
        object.__setattr__(self, "projectors", tuple(self.projectors))
        if not self.projectors:
            raise ValueError("instance needs at least one projector")

    @property
    def m(self) -> int:
        return len(self.projectors)


@dataclass(frozen=True)
class LhMinInstance:
    n: int
    terms: tuple
    lambda_yes: float
    lambda_no: float
    metadata: dict = field(default_factory=dict, hash=False)

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))

    def operator(self) -> OperatorSum:
        return OperatorSum(self.n, self.terms)


@dataclass(frozen=True)
class TermTemplate:
    """One ensemble term: support, its random bits, block per bit assignment."""

    support: tuple
    random_bits: tuple
    tables: dict = field(hash=False)  # assignment int -> block ndarray

    def __post_init__(self):
        object.__setattr__(self, "support", tuple(self.support))
        object.__setattr__(self, "random_bits", tuple(self.random_bits))
        want = 2 ** len(self.random_bits)
        if sorted(self.tables) != list(range(want)):
            raise ValueError(f"tables must cover all {want} bit assignments")

    def block_for(self, r: int) -> np.ndarray:
        return self.tables[gather(r, self.random_bits)]


@dataclass(frozen=True)
class DisorderEnsemble:
    n: int
    m: int
    templates: tuple
    metadata: dict = field(default_factory=dict, hash=False)
    # set by estimators.replica_ensemble: (base ensemble, replica count)
    replica_of: tuple = None

    def __post_init__(self):
        object.__setattr__(self, "templates", tuple(self.templates))

    def realize(self, r: int) -> LhMinInstance:
        """Realisation r, with the promise thresholds 0 and 1."""
        if r < 0 or r >> self.m:
            raise ValueError("random string out of range")
        terms = [
            LocalOperator(t.support, t.block_for(r), tag=f"r={r:b}")
            for t in self.templates
        ]
        return LhMinInstance(self.n, tuple(terms), 0.0, 1.0)


def _stoquastic_violations(block: np.ndarray):
    off = block - np.diag(np.diag(block))
    worst = float(np.max(off)) if off.size else 0.0
    return worst if worst > ETA else None


def validate(instance) -> list:
    """All violated invariants, as human-readable strings.  Never raises."""
    report = []
    if getattr(instance, "n", 0) < 0:
        report.append(f"register size n={instance.n} is negative")
    if isinstance(instance, StoqSatInstance):
        if not (0 < instance.epsilon <= 1):
            report.append(f"epsilon {instance.epsilon} outside (0, 1]")
        for i, p in enumerate(instance.projectors):
            ok, res = projector_check(p)
            if not ok:
                report.append(f"term {i}: not a non-negative projector "
                              f"(residual {res:.3g})")
            if p.support and p.support[-1] >= instance.n:
                report.append(f"term {i}: support outside {instance.n} qubits")
    elif isinstance(instance, LhMinInstance):
        if not instance.lambda_no - instance.lambda_yes > 0:
            report.append("lambda_no must exceed lambda_yes")
        for i, t in enumerate(instance.terms):
            worst = _stoquastic_violations(t.block)
            if worst is not None:
                report.append(
                    f"term {i}: positive off-diagonal entry {worst:.3g} "
                    "(not stoquastic)")
            if t.support and t.support[-1] >= instance.n:
                report.append(f"term {i}: support outside {instance.n} qubits")
    elif isinstance(instance, DisorderEnsemble):
        if not 0 <= instance.m <= 62:
            report.append(f"m={instance.m} random bits outside 0..62")
        for i, t in enumerate(instance.templates):
            if t.support and max(t.support) >= instance.n:
                report.append(f"template {i}: support outside {instance.n} qubits")
            if t.random_bits and max(t.random_bits) >= instance.m:
                report.append(f"template {i}: random bits outside {instance.m}")
            for a, block in t.tables.items():
                worst = _stoquastic_violations(np.asarray(block))
                if worst is not None:
                    report.append(
                        f"template {i}, assignment {a}: positive "
                        f"off-diagonal {worst:.3g}")
    else:
        report.append(f"unknown instance type {type(instance).__name__}")
    return report


def require_valid(instance):
    """``instance``, or SchemaError naming every problem validate finds."""
    problems = validate(instance)
    if problems:
        raise SchemaError("not a valid stoquastic instance: " + "; ".join(problems))
    return instance


# ---------------------------------------------------------------------------
# DIMACS

def parse_dimacs(text: str):
    """Parse DIMACS CNF; returns (num_vars, clauses) with signed literals."""
    num_vars = None
    clauses = []
    current = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise SchemaError(f"bad DIMACS header: {line!r}")
            num_vars = int(parts[2])
            continue
        for tok in line.split():
            lit = int(tok)
            if lit == 0:
                clauses.append(tuple(current))
                current = []
            else:
                current.append(lit)
    if current:
        clauses.append(tuple(current))
    if num_vars is None:
        raise SchemaError("missing DIMACS 'p cnf' header")
    for cl in clauses:
        for lit in cl:
            if lit == 0 or abs(lit) > num_vars:
                raise SchemaError(f"literal {lit} out of range")
    return num_vars, clauses


def clause_projector(clause, n: int) -> LocalOperator:
    """I - |b><b| on the clause's variables, b the violating assignment.

    Returns None for tautological clauses.
    """
    variables = sorted({abs(lit) for lit in clause})
    sign = {}
    for lit in clause:
        v = abs(lit)
        s = lit > 0
        if v in sign and sign[v] != s:
            return None  # tautology, projector is the identity
        sign[v] = s
    qubits = tuple(v - 1 for v in variables)
    # local index of the falsifying assignment: a positive literal is
    # falsified by 0, a negative one by 1
    b = sum(1 << i for i, v in enumerate(variables) if not sign[v])
    dim = 2 ** len(qubits)
    block = np.eye(dim)
    block[b, b] = 0.0
    return LocalOperator(qubits, block, tag=f"clause{tuple(clause)}")


def from_dimacs(text: str) -> StoqSatInstance:
    """Classical CNF as diagonal stoquastic SAT: one projector per clause."""
    num_vars, clauses = parse_dimacs(text)
    if not clauses:
        raise SchemaError("formula has no clauses")
    projectors = []
    for cl in clauses:
        width = len({abs(lit) for lit in cl})
        if width > MAX_K:
            raise SchemaError(f"clause {cl} wider than k limit {MAX_K}")
        projectors.append(clause_projector(cl, num_vars))
    kept = tuple(proj for proj in projectors if proj is not None)
    if not kept:  # before any warning: the error is the one line
        raise SchemaError("all clauses were tautologies")
    for cl, proj in zip(clauses, projectors):
        if proj is None:
            warnings.warn(f"dropping tautological clause {cl}")
    # A violated clause has <x|Pi|x> = 0 = 1 - epsilon with epsilon = 1.
    return StoqSatInstance(
        n=num_vars,
        epsilon=1.0,
        projectors=kept,
        metadata={"source": "dimacs", "clauses": len(clauses)},
    )


# ---------------------------------------------------------------------------
# generators

def random_projector_instance(n: int, k: int, terms: int,
                              seed: int) -> StoqSatInstance:
    """Random non-negative projectors built block by block (Proposition-1
    form).  Each ValueError starts ``<argument>=<value>``."""
    if n < 1:
        raise ValueError(f"n={n} must be >= 1")
    if not 1 <= k <= min(n, MAX_K):
        raise ValueError(f"k={k} must be between 1 and min(n, {MAX_K}) = "
                         f"{min(n, MAX_K)}")
    if terms < 1:
        raise ValueError(f"terms={terms} must be >= 1")
    rng = np.random.default_rng(seed)
    projectors = []
    dim = 2**k
    for t in range(terms):
        support = tuple(sorted(rng.choice(n, size=k, replace=False).tolist()))
        # random partition of the local basis into blocks
        labels = rng.integers(0, max(2, dim // 2), size=dim)
        block = np.zeros((dim, dim))
        groups: dict = {}
        for x, lab in enumerate(labels):
            groups.setdefault(int(lab), []).append(x)
        chosen = 0
        for members in groups.values():
            if rng.random() < 0.5 and chosen:
                continue  # leave this block out of the projector
            v = rng.random(len(members)) + 0.05
            v /= np.linalg.norm(v)
            for i, x in enumerate(members):
                for j, y in enumerate(members):
                    block[x, y] = v[i] * v[j]
            chosen += 1
        projectors.append(LocalOperator(support, block, tag=f"rand{t}"))
    return StoqSatInstance(
        n=n, epsilon=0.5, projectors=tuple(projectors),
        metadata={"source": "random", "seed": seed, "k": k},
    )


# ---------------------------------------------------------------------------
# serialization

def _matrix_to_json(block: np.ndarray):
    return np.asarray(block, dtype=float).ravel().tolist()


def _matrix_from_json(flat, dim: int) -> np.ndarray:
    if type(flat) is not list or not set(map(type, flat)) <= {int, float}:
        raise SchemaError("matrix must be a flat list of numbers")
    arr = np.asarray(flat, dtype=float)
    if arr.size != dim * dim:
        raise SchemaError("matrix size does not match dim")
    if not np.all(np.isfinite(arr)):
        raise SchemaError("non-finite matrix entry")
    return arr.reshape(dim, dim)


def _term_to_json(t) -> dict:
    """A LocalOperator as qubits, matrix, dim; a TermTemplate as qubits,
    dim, random_bits and one matrix per bit assignment, keyed in binary."""
    if isinstance(t, LocalOperator):
        return {"qubits": list(t.support), "matrix": _matrix_to_json(t.block),
                "dim": 2 ** len(t.support)}
    l = len(t.random_bits)
    return {"qubits": list(t.support), "dim": len(t.tables[0]),
            "random_bits": list(t.random_bits),
            "tables": {format(a, f"0{l}b") if l else "": _matrix_to_json(t.tables[a])
                       for a in range(2**l)}}


def _term_from_json(doc, template: bool):
    """Inverse of _term_to_json: a TermTemplate if ``template``."""
    qubits = tuple(json_int(q, "qubit") for q in doc["qubits"])
    dim = json_int(doc["dim"], "dim")
    if not template:
        return LocalOperator(qubits, _matrix_from_json(doc["matrix"], dim))
    tables = {int(key, 2) if key else 0: _matrix_from_json(flat, dim)
              for key, flat in doc["tables"].items()}
    return TermTemplate(qubits, tuple(json_int(b, "random bit")
                                      for b in doc["random_bits"]), tables)


def json_int(value, name: str) -> int:
    """``value`` if it is a JSON integer, else SchemaError: int() would
    truncate 1.9 and take true as 1 and "3" as 3."""
    if type(value) is not int:
        raise SchemaError(f"{name} must be an integer, got {value!r}")
    return value


def json_float(value, name: str) -> float:
    """``value`` as a float if it is a JSON number, else SchemaError:
    float() would take "0.5" as 0.5 and true as 1.0."""
    if type(value) not in (int, float):
        raise SchemaError(f"{name} must be a number, got {value!r}")
    return float(value)


# kind -> (class, {each field between n and the terms: its parser, called
# with the value and the field name}, terms attribute)
_KINDS = {
    "stoq-sat": (StoqSatInstance, {"epsilon": json_float}, "projectors"),
    "lh-min": (LhMinInstance, {"lambda_yes": json_float,
                               "lambda_no": json_float}, "terms"),
    "ensemble": (DisorderEnsemble, {"m": json_int}, "templates"),
}


def to_document(instance) -> dict:
    for kind, (cls, fields, terms) in _KINDS.items():
        if isinstance(instance, cls):
            return {"version": SCHEMA_VERSION, "kind": kind, "n": instance.n,
                    **{f: getattr(instance, f) for f in fields},
                    "terms": [_term_to_json(t) for t in getattr(instance, terms)],
                    "metadata": instance.metadata}
    raise TypeError(f"cannot serialize {type(instance).__name__}")


@contextlib.contextmanager
def document_boundary(doc, what: str, version: int, schema="schema"):
    """The one home of the boundary checks around reading a ``what`` from
    ``doc``: SchemaError if it is no JSON object, its version is not the
    integer ``version``, or the body misses a field or meets a bad value."""
    if not isinstance(doc, dict):
        raise SchemaError(f"{what} document is not a JSON object")
    try:
        found = doc.get("version")
        if type(found) is not int or found != version:
            raise SchemaError(f"unsupported {schema} version {found}")
        yield
    except KeyError as exc:
        raise SchemaError(f"{what} document has no {exc} field") from None
    except (TypeError, AttributeError, OverflowError) as exc:
        raise SchemaError(f"malformed {what} document: {exc}") from None


def from_document(doc: dict):
    """The instance a JSON document holds; SchemaError (or ValueError for
    a value that does not parse) if it is malformed or invalid."""
    if isinstance(doc, dict) and not isinstance(doc.get("metadata", {}), dict):
        raise SchemaError("instance metadata is not a JSON object")
    with document_boundary(doc, "instance", SCHEMA_VERSION):
        kind = doc.get("kind")
        if not isinstance(kind, str) or kind not in _KINDS:
            raise SchemaError(f"unknown instance kind {kind!r}")
        cls, fields, terms = _KINDS[kind]
        inst = cls(n=json_int(doc["n"], "n"),
                   **{f: parse(doc[f], f) for f, parse in fields.items()},
                   **{terms: tuple(_term_from_json(t, cls is DisorderEnsemble)
                                   for t in doc["terms"])},
                   metadata=doc.get("metadata", {}))
    return require_valid(inst)


@contextlib.contextmanager
def open_output(path):
    """The file ``path`` opened to write UTF-8 text in place, with no
    newline translation: the one opener of an output file.

    It is not truncated to zero on opening, since on ext4 that makes
    ``close()`` allocate and flush the blocks of every overwrite.  The
    file keeps its inode, a symlink is followed, and a new file gets
    ``open(path, "w")``'s mode.  After the last write a regular file is
    cut to the written length; a device or FIFO is never truncated.  If
    the body raises, the file is discarded, so none is left holding new
    bytes followed by old ones."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        with open(fd, "w", encoding="utf-8", newline="") as fh:
            yield fh
            fh.flush()
            st = os.fstat(fd)
            if stat.S_ISREG(st.st_mode):
                end = os.lseek(fd, 0, os.SEEK_CUR)
                if st.st_size > end:
                    os.ftruncate(fd, end)
    except BaseException:
        discard_output(path)
        raise


def discard_output(path) -> None:
    """Remove ``path`` if it is a regular file, emptied first so that no
    other link to it keeps the bytes; any other file is left alone."""
    with contextlib.suppress(OSError):
        if stat.S_ISREG(os.stat(path).st_mode):
            os.truncate(path, 0)
            os.remove(path)


def write_text(path, text: str) -> None:
    """``text`` on stdout if ``path`` is "-", else into the file ``path``."""
    if path == "-":
        sys.stdout.write(text)
        return
    with open_output(path) as fh:
        fh.write(text)


def write_json(path, doc) -> None:
    """One line of JSON (unindented: only that runs the C encoder)."""
    write_text(path, json.dumps(doc) + "\n")


def save(instance, path) -> None:
    write_json(path, to_document(instance))


def load(path):
    with open(path, encoding="utf-8") as fh:
        return from_document(json.load(fh))
