"""The four benchmark workloads: inputs made from a seed, and their operations.

Each workload's ``setup(seed, workdir)`` generates its inputs from the
seed alone, writes the instance and circuit files into ``workdir`` and
returns the list of operations one pass runs.  Shapes follow the
acceptance criteria of ``tests/test_acceptance.py`` (criteria 1, 2, 5,
6 and 7), scaled so that one pass takes a few seconds on one core; the
reasons for each cut are in ``bench/README.md``.
"""

from __future__ import annotations

import csv
import functools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.linalg

# Operations call through the module attributes (walk.acceptance_rate,
# not a name imported here), so the tracing wrappers, which rebind
# those attributes, see every call.
from stoqbench import cli, clock, estimators, walk
from stoqbench import (DisorderEnsemble, Gate, LhMinInstance, LocalOperator,
                       StoqSatInstance, TermTemplate, VerifierCircuit,
                       WalkConfig, WalkRunner, assemble_sparse,
                       build_G, circuit_from_document, cnf_ensemble_from_dimacs,
                       compile_circuit, export_6sat, from_dimacs,
                       predicted_min_eigenvalue, required_steps, save,
                       save_circuit, sbp_matrix)
from stoqbench.circuits import acceptance_probability

from harness import INTERPRETER, LAPACK, Op

X = np.array([[0.0, 1.0], [1.0, 0.0]])


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    dominant: str  # the layer expected to hold the largest self time
    known_defects: str  # defects at the seed commit that audits report
    setup: object  # (seed, workdir) -> list of Op
    chunk: object  # harness.Chunk whose work resembles the workload's


# ---------------------------------------------------------------------------
# input generators


def planted_sat_dimacs(n: int, m: int, rng) -> str:
    """Random 3-CNF made satisfiable by a planted assignment."""
    plant = int(rng.integers(0, 2**n))
    lines = [f"p cnf {n} {m}"]
    for _ in range(m):
        vs = rng.choice(n, size=3, replace=False) + 1
        lits = [int(v) if rng.random() < 0.5 else -int(v) for v in vs]
        if not any((lit > 0) == bool((plant >> (abs(lit) - 1)) & 1)
                   for lit in lits):
            lits[0] = -lits[0]
        lines.append(" ".join(str(lit) for lit in lits) + " 0")
    return "\n".join(lines) + "\n"


def unsat_dimacs(n: int, extra: int, rng) -> str:
    """Unsatisfiable core on variables 1 and 2 plus random padding clauses."""
    lines = [f"p cnf {n} {4 + extra}", "1 2 0", "-1 2 0", "1 -2 0", "-1 -2 0"]
    for _ in range(extra):
        vs = rng.choice(n, size=3, replace=False) + 1
        lits = [int(v) if rng.random() < 0.5 else -int(v) for v in vs]
        lines.append(" ".join(str(lit) for lit in lits) + " 0")
    return "\n".join(lines) + "\n"


def plus_instance(n: int, group: int, rng) -> StoqSatInstance:
    """|+..+><+..+| projectors on a random partition of the qubits into
    groups of ``group``: a yes-instance whose G is not diagonal."""
    order = rng.permutation(n)
    projectors = []
    for i in range(0, n - group + 1, group):
        support = tuple(sorted(int(q) for q in order[i:i + group]))
        dim = 2**group
        projectors.append(LocalOperator(support, np.full((dim, dim), 1.0 / dim),
                                        tag=f"plus{support}"))
    return StoqSatInstance(n=n, epsilon=0.5, projectors=tuple(projectors),
                           metadata={"source": "plus"})


def rejecting_circuits():
    """Criterion-2 circuits: input bit 1 reaches the |0>-basis output."""
    def zero(n, n_w, n_0, gates):
        return VerifierCircuit(n, n_w, n_0, 0, gates, out_basis="zero")

    return [
        zero(1, 0, 1, (Gate("X", (1,)), Gate("X", (1,)))),
        zero(1, 1, 1, (Gate("X", (2,)), Gate("X", (2,)))),
        zero(1, 0, 1, (Gate("CNOT", (0, 1)), Gate("CNOT", (0, 1)),
                       Gate("X", (1,)), Gate("X", (1,)))),
        zero(1, 1, 1, (Gate("X", (2,)), Gate("X", (2,)), Gate("CNOT", (1, 2)))),
        zero(1, 1, 2, (Gate("TOFFOLI", (1, 2, 3)), Gate("TOFFOLI", (1, 2, 3)))),
        zero(1, 0, 1, (Gate("X", (1,)), Gate("CNOT", (0, 1)), Gate("X", (1,)),
                       Gate("CNOT", (0, 1)))),
        zero(1, 2, 1, (Gate("CNOT", (1, 3)), Gate("CNOT", (1, 3)),
                       Gate("X", (3,)), Gate("X", (3,)))),
        zero(1, 1, 1, (Gate("X", (2,)),) * 4),
    ]


def clock_circuits(rng):
    """Criterion-5 circuits (N = 5..11) plus one seed-drawn N = 11 circuit."""
    fixed = [
        VerifierCircuit(0, 0, 0, 1, (Gate("X", (0,)), Gate("X", (0,)))),
        VerifierCircuit(0, 1, 0, 1, (Gate("CNOT", (0, 1)), Gate("CNOT", (1, 0)),
                                     Gate("CNOT", (0, 1))), out_basis="zero"),
        VerifierCircuit(1, 2, 1, 0, (Gate("CNOT", (1, 3)), Gate("X", (0,))),
                        out_basis="zero"),
        VerifierCircuit(0, 2, 1, 1, (Gate("TOFFOLI", (0, 1, 2)),
                                     Gate("CNOT", (2, 3)), Gate("X", (1,)))),
        VerifierCircuit(1, 1, 1, 1, (Gate("X", (2,)), Gate("CNOT", (2, 0)),
                                     Gate("X", (2,)), Gate("X", (3,)),
                                     Gate("X", (3,)))),
        VerifierCircuit(1, 2, 0, 0, (Gate("CNOT", (0, 1)), Gate("X", (2,)),
                                     Gate("CNOT", (2, 1)), Gate("X", (0,)),
                                     Gate("CNOT", (1, 2)), Gate("X", (1,))),
                        out_basis="zero"),
    ]
    pool = ([Gate("X", (q,)) for q in range(5)]
            + [Gate("CNOT", (a, b)) for a in range(5) for b in range(5) if a != b]
            + [Gate("TOFFOLI", (a, b, c)) for a in range(5) for b in range(5)
               for c in range(5) if len({a, b, c}) == 3])
    gates = tuple(pool[int(i)] for i in rng.integers(0, len(pool), size=4))
    drawn = VerifierCircuit(1, 2, 1, 1, gates,
                            out_basis="plus" if rng.random() < 0.5 else "zero")
    return fixed + [drawn]


def random_stoquastic_block(rng, k: int) -> np.ndarray:
    dim = 2**k
    m = -np.abs(rng.normal(size=(dim, dim)))
    m = (m + m.T) / 2.0
    m[np.diag_indices(dim)] = rng.normal(size=dim)
    return m


def random_lhmin_terms(n: int, n_terms: int, rng) -> tuple:
    terms = []
    for _ in range(n_terms):
        k = 1 if n == 1 else int(rng.integers(1, 3))
        sup = tuple(sorted(rng.choice(n, size=k, replace=False).tolist()))
        terms.append(LocalOperator(sup, random_stoquastic_block(rng, k)))
    return tuple(terms)


ALLSAT_CNF = "p cnf 2 2\n1 2 0\n1 -2 0\n"
BIASED_CNF = "p cnf 3 4\n2 1 0\n2 -1 0\n3 1 0\n3 -1 0\n"


def scaling_ensembles():
    """The five criterion-7 disorder ensembles."""
    zero2 = np.zeros((2, 2))
    return [
        DisorderEnsemble(1, 1, (
            TermTemplate((0,), (), {0: -X}),
            TermTemplate((0,), (0,), {0: zero2, 1: np.diag([2.0, 0.0])}))),
        DisorderEnsemble(1, 1, (
            TermTemplate((0,), (), {0: -X}),
            TermTemplate((0,), (0,), {0: zero2, 1: np.diag([0.0, 1.0])}))),
        DisorderEnsemble(2, 2, (
            TermTemplate((0, 1), (), {0: -np.kron(X, X)}),
            TermTemplate((0,), (0,), {0: zero2, 1: np.diag([1.5, 0.0])}),
            TermTemplate((1,), (1,), {0: zero2, 1: np.diag([0.0, 0.5])}))),
        cnf_ensemble_from_dimacs(BIASED_CNF, q_vars=[2, 3]),
        DisorderEnsemble(2, 2, (
            TermTemplate((0,), (0,), {0: -X, 1: np.diag([1.0, 0.0])}),
            TermTemplate((1,), (1,), {0: np.diag([0.0, 1.0]), 1: -X}))),
    ]


# ---------------------------------------------------------------------------
# helpers for operations and checks


def cli_op(name, argv, check, outputs=()) -> Op:
    """An in-process ``stoqbench`` CLI call; the check sees the exit code."""
    return Op(name, lambda: cli.main([str(a) for a in argv]), check,
              outputs=tuple(outputs))


def exit_ok(code):
    return None if code == 0 else f"exit code {code}, expected 0"


def read_csv(path) -> list:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def rate_row(path) -> dict:
    """The summary row of a ``verify`` CSV."""
    last = read_csv(path)[-1]
    if last[0] != "rate":
        raise ValueError(f"last row is {last[:1]}, not the rate row")
    return {"rate": float(last[1]), "lower": float(last[2]),
            "upper": float(last[3]), "accepted": int(last[4]),
            "trials": int(last[5])}


def wilson_half(lower: float, upper: float) -> float:
    return (upper - lower) / 2.0


def dense(op) -> np.ndarray:
    """The matrix of an OperatorSum, built independently of ``ops``.

    <x|w Pi|y> = w B[local(x), local(y)] when x and y agree outside the
    support of Pi, 0 otherwise.
    """
    xs = np.arange(2**op.n)
    out = np.zeros((2**op.n, 2**op.n))
    for w, t in zip(op.weights, op.terms):
        local = np.zeros_like(xs)
        mask = 0
        for i, q in enumerate(t.support):
            local |= ((xs >> q) & 1) << i
            mask |= 1 << q
        rest = xs & ~mask
        out += w * t.block[local[:, None], local[None, :]] \
            * (rest[:, None] == rest[None, :])
    return out


def exact_trace(g: np.ndarray, L: int) -> float:
    """tr(G^L) for even L as ||G^(L/2)||_F^2."""
    half = np.linalg.matrix_power(g, L // 2)
    return float(np.sum(half * half))


# ---------------------------------------------------------------------------
# workload 1: sat-prove-verify


SAT_SIZES = (10, 11, 11)
PLUS_SHAPES = ((6, 2), (8, 2))
VERIFY_TRIALS = 1000


def setup_sat_prove_verify(seed: int, workdir: Path) -> list:
    rng = np.random.default_rng([seed, 1])
    ops = []
    cases = []
    for i, n in enumerate(SAT_SIZES):
        dimacs = workdir / f"planted{i}_n{n}.cnf"
        dimacs.write_text(planted_sat_dimacs(n, 2 * n, rng), encoding="utf-8")
        cases.append((f"planted{i}_n{n}", dimacs))
    for n, group in PLUS_SHAPES:
        inst = workdir / f"plus_n{n}.json"
        save(plus_instance(n, group, rng), inst)
        cases.append((f"plus_n{n}", None))

    for label, dimacs in cases:
        inst = workdir / f"{label}.json"
        wit = workdir / f"{label}.witness.json"
        out = workdir / f"{label}.verify.csv"
        if dimacs is not None:
            ops.append(cli_op(f"gen {label}",
                              ["gen", "from-dimacs", "--dimacs", dimacs, "--out", inst],
                              _check_gen(inst), outputs=[inst]))
        ops.append(cli_op(f"prove {label}",
                          ["prove", "--instance", inst, "--out", wit],
                          _check_prove(wit), outputs=[wit]))
        ops.append(cli_op(f"verify {label}",
                          ["verify", "--instance", inst, "--witness", wit,
                           "--trials", VERIFY_TRIALS, "--seed", seed, "--out", out],
                          _check_verify_complete(out), outputs=[out]))
    return ops


def _check_gen(inst):
    def check(code):
        if code != 0:
            return exit_ok(code)
        doc = json.loads(Path(inst).read_text(encoding="utf-8"))
        if doc.get("kind") != "stoq-sat":
            return f"instance kind {doc.get('kind')!r}"
        return None
    return check


def _check_prove(wit):
    def check(code):
        if code != 0:
            return exit_ok(code)
        doc = json.loads(Path(wit).read_text(encoding="utf-8"))
        if doc["looks_unsat"]:
            return f"prover reports looks_unsat (eigenvalue {doc['eigenvalue']})"
        return None
    return check


def _check_verify_complete(out):
    def check(code):
        if code != 0:
            return exit_ok(code)
        row = rate_row(out)
        if row["rate"] != 1.0 or row["accepted"] != VERIFY_TRIALS \
                or row["trials"] != VERIFY_TRIALS:
            return f"honest witness accepted {row['accepted']}/{row['trials']}"
        return None
    return check


# ---------------------------------------------------------------------------
# workload 2: unsat-soundness


UNSAT_SHAPES = ((8, 7), (9, 8), (10, 9))
SOUND_TRIALS = 80
CLI_SOUND_TRIALS = 1000


def setup_unsat_soundness(seed: int, workdir: Path) -> list:
    rng = np.random.default_rng([seed, 2])
    cases = [(f"unsat_n{n}", from_dimacs(unsat_dimacs(n, extra, rng)))
             for n, extra in UNSAT_SHAPES]
    circuits = rejecting_circuits()
    exports = [export_6sat(compile_circuit(v, 1)) for v in circuits]
    cases += [(f"export{i}_N{inst.n}", inst) for i, inst in enumerate(exports)]

    ops = []
    for i, v in enumerate(circuits):
        ops.append(Op(f"export circuit{i}",
                      lambda v=v: clock.export_6sat(clock.compile_circuit(v, 1)),
                      _check_export))
    # Trial i of every acceptance_rate call draws from the child seed
    # (config.seed, i), so one walk seed for all witnesses would share 80
    # random streams across the whole pass and make its cost swing with
    # the seed.  Each witness gets its own walk seed instead.
    for label, inst in cases:
        steps = required_steps(inst.n, inst.epsilon, inst.m)
        shared = {}
        for w in range(2**inst.n):
            config = WalkConfig(steps=steps, seed=int(rng.integers(2**63)))
            ops.append(Op(f"soundness {label} w={w}",
                          functools.partial(_soundness, inst, w, config, shared),
                          _check_sound_report))

    # the CLI verify runs on the export with the longest walk, from the
    # start string with the largest survival bound 2^(n/2) <w|G^L|+>
    longest = max(exports, key=lambda e: required_steps(e.n, e.epsilon, e.m))
    steps = required_steps(longest.n, longest.epsilon, longest.m)
    g = assemble_sparse(build_G(longest))
    survival = np.ones(2**longest.n)
    for _ in range(steps):
        survival = g @ survival
    witness = int(np.argmax(survival))
    inst_path = workdir / f"export_L{steps}.json"
    save(longest, inst_path)
    out = workdir / f"export_L{steps}.verify.csv"
    ops.append(cli_op(f"verify export_L{steps} w={witness}",
                      ["verify", "--instance", inst_path, "--witness", witness,
                       "--trials", CLI_SOUND_TRIALS, "--seed", seed, "--out", out],
                      _check_verify_sound(out), outputs=[out]))
    return ops


def _soundness(inst, w, config, shared):
    """One acceptance_rate call; the instance's first witness starts a
    fresh WalkRunner, so no pass inherits another pass's cached rows."""
    if w == 0:
        shared["runner"] = WalkRunner(inst)
    return walk.acceptance_rate(inst, w, SOUND_TRIALS, config,
                                runner=shared["runner"])


def _check_export(inst):
    lam = inst.metadata.get("lambda_max")
    if lam is None or not lam < 1.0 - 1e-6:
        return f"export lambda_max {lam} not below 1 - 1e-6"
    return None


def _check_sound_report(rep):
    if rep.rate > 1.0 / 3.0 + wilson_half(rep.lower, rep.upper):
        return f"acceptance {rep.rate} above 1/3 + Wilson half-width"
    return None


def _check_verify_sound(out):
    def check(code):
        if code != 0:
            return exit_ok(code)
        row = rate_row(out)
        if row["trials"] != CLI_SOUND_TRIALS:
            return f"{row['trials']} trials in the rate row"
        if row["rate"] > 1.0 / 3.0 + wilson_half(row["lower"], row["upper"]):
            return f"acceptance {row['rate']} above 1/3 + Wilson half-width"
        return None
    return check


# ---------------------------------------------------------------------------
# workload 3: clock-spectrum


PERTURB_DELTA = 1e-3


def setup_clock_spectrum(seed: int, workdir: Path) -> list:
    rng = np.random.default_rng([seed, 3])
    ops = []
    circuits = clock_circuits(rng)
    for i, v in enumerate(circuits):
        circ = workdir / f"circuit{i}.json"
        save_circuit(v, circ)
        clock_path = workdir / f"circuit{i}.clock.json"
        out = workdir / f"circuit{i}.spectrum.csv"
        ops.append(cli_op(f"compile circuit{i}",
                          ["compile", "--circuit", circ, "--to", "clock",
                           "--out", clock_path], exit_ok, outputs=[clock_path]))
        ops.append(cli_op(f"spectrum circuit{i}",
                          ["spectrum", "--instance", clock_path, "--out", out],
                          _check_clock_spectrum(out, 2**v.n_w), outputs=[out]))
    # the criterion-5 coin circuit under a measurement perturbation
    coin = workdir / "circuit1.json"
    clock_path = workdir / "coin.perturbed.json"
    out = workdir / "coin.perturbed.spectrum.csv"
    ops.append(cli_op("compile coin --delta",
                      ["compile", "--circuit", coin, "--to", "clock",
                       "--delta", PERTURB_DELTA, "--out", clock_path],
                      exit_ok, outputs=[clock_path]))
    ops.append(cli_op("spectrum coin perturbed",
                      ["spectrum", "--instance", clock_path, "--out", out],
                      _check_perturbed(out, coin), outputs=[out]))
    return ops


def _spectrum_rows(path) -> dict:
    return {row[0]: float(row[1]) for row in read_csv(path)[1:]}


def _check_clock_spectrum(out, ground_dim):
    def check(code):
        if code != 0:
            return exit_ok(code)
        rows = _spectrum_rows(out)
        if abs(rows["min"]) > 1e-10:
            return f"ground energy {rows['min']:.3e}, expected 0"
        if int(rows["ground_dim"]) != ground_dim:
            return f"ground dim {int(rows['ground_dim'])}, expected {ground_dim}"
        return None
    return check


def _check_perturbed(out, coin):
    def check(code):
        if code != 0:
            return exit_ok(code)
        doc = json.loads(Path(coin).read_text(encoding="utf-8"))
        L = len(circuit_from_document(doc).gates)
        want = predicted_min_eigenvalue(PERTURB_DELTA, L, 0.5)
        got = _spectrum_rows(out)["min"]
        if abs(got - want) > PERTURB_DELTA**2:
            return f"perturbed minimum {got:.6e}, predicted {want:.6e}"
        return None
    return check


# ---------------------------------------------------------------------------
# workload 4: sbp-ensemble


SBP_INSTANCES = 36  # n = 2..10, four times, alternating yes and no
SAMPLED_PATHS = 4000
L4_SIZES = (4, 5, 6, 7, 8)
VERIFIER_MAX_N = 6
ENSEMBLE_SAMPLES = 500
# Sampled trace_power draws closed paths uniformly.  The paths that carry
# most of tr(G^L) are rare among them, so the estimate is heavy-tailed:
# it falls outside 3 stderr of the exact value, or is 0 +- 0.  This is
# the defect named in ROADMAP items 3 and 4.  The 3-stderr test is an
# audit: its misses are reported (estimators.trace_power.sampled.miss_frac)
# rather than failed, since even a sound estimator misses it sometimes.
SAMPLER_DEFECT = {
    2: "uniform closed-path sampler: at L=2 the diagonal paths that carry "
       "most of tr(G^2) are hit a few times in 4000, so some seeds miss "
       "by more than 3 stderr (53 of 3600 over seeds 1-100, 29 of them at n=10)",
    4: "uniform closed-path sampler: at L=4 almost no path has nonzero "
       "weight, so it returns 0 +- 0 or a value far outside 3 stderr",
}


def setup_sbp_ensemble(seed: int, workdir: Path) -> list:
    rng = np.random.default_rng([seed, 4])
    ops = []
    instances = []
    for i in range(SBP_INSTANCES):
        n = 2 + i % 9
        terms = random_lhmin_terms(n, max(2, n - 1), rng)
        h = dense(LhMinInstance(n, terms, 0.0, 1.0).operator())
        lam_min = float(scipy.linalg.eigvalsh(h, subset_by_index=[0, 0])[0])
        is_yes = i % 2 == 0
        lo, hi = ((lam_min + 0.1, lam_min + 2.1) if is_yes
                  else (lam_min - 2.1, lam_min - 0.1))
        inst = LhMinInstance(n, terms, lo, hi)
        path = workdir / f"lhmin{i}_n{n}.json"
        save(inst, path)
        instances.append((i, inst, path, is_yes, h))

    for i, inst, path, is_yes, _ in instances:
        out = workdir / f"lhmin{i}.trace.csv"
        ops.append(cli_op(f"trace exact lhmin{i} n={inst.n}",
                          ["trace", "--instance", path, "--out", out],
                          _check_trace_class(out, is_yes), outputs=[out]))
    for i, inst, _, _, h in instances:
        ops.append(_sampled_op(f"trace sampled L=2 lhmin{i} n={inst.n}",
                               inst, h, 2, seed + i))
    for n in L4_SIZES:
        i, inst, _, _, h = next(c for c in instances if c[1].n == n)
        ops.append(_sampled_op(f"trace sampled L=4 lhmin{i} n={n}",
                               inst, h, 4, seed + 100 + i))
    for i, inst, path, _, h in instances:
        if inst.n > VERIFIER_MAX_N:
            continue
        out = workdir / f"lhmin{i}.verifier.json"
        ops.append(cli_op(f"compile verifier lhmin{i} n={inst.n}",
                          ["compile", "--instance", path, "--to", "verifier",
                           "--out", out],
                          _check_verifier(out, h, seed + i), outputs=[out]))
    for j, ens in enumerate(scaling_ensembles()):
        ops.append(Op(f"lambda_stats ensemble{j} N=1,4,16",
                      lambda ens=ens, j=j: [
                          estimators.lambda_stats(
                              estimators.replica_ensemble(ens, r,
                                                          qubit_ceiling=10**9),
                              ENSEMBLE_SAMPLES, seed=seed + j)
                          for r in (1, 4, 16)],
                      _check_replica_scaling))
    yes = cnf_ensemble_from_dimacs(ALLSAT_CNF, q_vars=[2])
    no = cnf_ensemble_from_dimacs(BIASED_CNF, q_vars=[2, 3])
    ops.append(Op("av_decide yes",
                  lambda: estimators.av_decide(yes, 0.0, 2.0 / 3.0, samples=200,
                                               seed=seed),
                  _check_decision("yes")))
    ops.append(Op("av_decide no",
                  lambda: estimators.av_decide(no, 0.0, 2.0 / 3.0, samples=200,
                                               seed=seed, sigma_margin=30.0),
                  _check_decision("no")))
    return ops


def _check_trace_class(out, is_yes):
    def check(code):
        if code != 0:
            return exit_ok(code)
        header, row = read_csv(out)[:2]
        rec = dict(zip(header, row))
        value = float(rec["value"])
        b_yes, b_no = float(rec["bound_yes"]), float(rec["bound_no"])
        ok = (value >= b_yes and value > b_no) if is_yes \
            else (value <= b_no and value < b_yes)
        if not ok:
            return (f"trace {value:.4e} misclassifies a "
                    f"{'yes' if is_yes else 'no'} instance "
                    f"(bounds {b_yes:.4e}, {b_no:.4e})")
        return None
    return check


def _sampled_op(name, inst, h, L, seed) -> Op:
    """Checked for a well-formed, reproducible report; audited against
    the exact trace (see SAMPLER_DEFECT)."""
    g, p = sbp_matrix(inst)  # G = I/2 - H/(2p), kept term-wise
    reference = exact_trace(0.5 * np.eye(len(h)) - (0.5 / p) * h, L)

    def check(rep):
        if rep.mode != "sampled" or rep.L != L:
            return f"report of mode {rep.mode!r}, L={rep.L}"
        if not (math.isfinite(rep.value) and math.isfinite(rep.stderr)
                and rep.stderr >= 0.0):
            return f"sampled {rep.value} +- {rep.stderr}"
        return None

    def audit(rep):
        if not rep.stderr > 0.0 or abs(rep.value - reference) > 3.0 * rep.stderr:
            return (f"sampled {rep.value:.4g} +- {rep.stderr:.2g}, "
                    f"exact {reference:.4g}")
        return None

    return Op(name, lambda: estimators.trace_power(g, L, mode="sampled",
                                                   paths=SAMPLED_PATHS, seed=seed),
              check, digest=lambda rep: f"{rep.value!r} +- {rep.stderr!r}",
              audit=audit)


def _check_verifier(out, h, seed):
    def check(code):
        if code != 0:
            return exit_ok(code)
        doc = json.loads(Path(out).read_text(encoding="utf-8"))
        parts = [(p["p"], circuit_from_document(p["circuit"]))
                 for p in doc["parts"]]
        psi = np.random.default_rng(seed).normal(size=len(h))
        psi /= np.linalg.norm(psi)
        got = sum(p * acceptance_probability(v, 0, psi) for p, v in parts)
        want = -doc["alpha"] * float(psi @ h @ psi) + doc["beta_prime"]
        budget = 1e-8 + len(parts) * 2.0**-20
        if abs(got - want) > budget:
            return f"Pr(V; psi) {got:.10f}, expected {want:.10f}"
        return None
    return check


def _check_replica_scaling(stats):
    scaled = [s.std * math.sqrt(s.replicas) for s in stats]
    if min(scaled) <= 0.0 or max(scaled) / min(scaled) > 1.15:
        return f"sigma' * sqrt(N) spread {scaled}"
    return None


def _check_decision(want):
    def check(result):
        if result.decision != want:
            return f"decided {result.decision}, expected {want}"
        return None
    return check


# ---------------------------------------------------------------------------


WORKLOADS = {w.name: w for w in (
    Workload(
        "sat-prove-verify",
        "Yes side via CLI: gen->prove->verify on planted 3-CNF n=10,11,11 and "
        "|+> instances n=6,8; dense top eigenpair in honest_witness dominates; "
        "none should fail",
        "prover", "none", setup_sat_prove_verify, LAPACK),
    Workload(
        "unsat-soundness",
        "No side via library: every basis witness x80 trials on unsat CNFs "
        "n=8-10 and 8 clock exports (L<=651), plus one CLI verify; the walk "
        "dominates; none should fail",
        "walk", "none", setup_unsat_soundness, INTERPRETER),
    Workload(
        "clock-spectrum",
        "Circuit->clock Hamiltonian via CLI: compile+spectrum on 7 circuits "
        "(N=5-11) and a perturbed coin clock; full dense spectra dominate; "
        "none should fail",
        "spectral", "none", setup_clock_spectrum, LAPACK),
    Workload(
        "sbp-ensemble",
        "LH-MIN side: exact+sampled SBP traces, verifier compilation, "
        "replica lambda_stats, av_decide; estimator loops dominate; none "
        "should fail; sampled traces audited against exact",
        "estimators",
        "the sampled traces miss the 3-stderr audit: 4-5 of the 5 at L=4 "
        "(n=4-8), 0-2 of the 36 at L=2 depending on the seed; "
        + SAMPLER_DEFECT[2] + "; " + SAMPLER_DEFECT[4],
        setup_sbp_ensemble, INTERPRETER),
)}
