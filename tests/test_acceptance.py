"""End-to-end acceptance suite: one pass/fail line per criterion."""

import math

import numpy as np
import pytest
import scipy.sparse.linalg as sla

from stoqbench import (DisorderEnsemble, Gate, LhMinInstance, LocalOperator,
                       OperatorSum, TermTemplate, VerifierCircuit, WalkConfig,
                       WalkRunner, acceptance_rate, assemble_dense,
                       assemble_sparse, av_decide, block_decompose, build_G,
                       cnf_ensemble_from_dimacs,
                       compile_circuit, decompose_stoquastic, export_6sat,
                       extreme_eigenvalue, from_dimacs,
                       hamiltonian_to_verifier, history_state, honest_witness,
                       lambda_stats, make_block_projector,
                       perturbed_hamiltonian, predicted_min_eigenvalue,
                       replica_ensemble, required_steps, sbp_matrix,
                       trace_power, trace_report, x_projector_isometry,
                       zero_projector_isometry)
from stoqbench.cli import main as cli_main
from stoqbench.ops import BlockComponent, circuit_permutation
from conftest import plus_instance, random_stoquastic_block

X = np.array([[0.0, 1.0], [1.0, 0.0]])


def report(num, name, ok, detail):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {num} ({name}): {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


# ---------------------------------------------------------------------------
# fixture generators


def planted_sat_dimacs(n, m, rng):
    """Random 3-CNF guaranteed satisfiable by a planted assignment."""
    plant = int(rng.integers(0, 2**n))
    lines = [f"p cnf {n} {m}"]
    for _ in range(m):
        vs = rng.choice(n, size=3, replace=False) + 1
        lits = [int(v) if rng.random() < 0.5 else -int(v) for v in vs]
        if not any((lit > 0) == bool((plant >> (abs(lit) - 1)) & 1)
                   for lit in lits):
            lits[0] = -lits[0]
        lines.append(" ".join(str(l) for l in lits) + " 0")
    return "\n".join(lines) + "\n", plant


def unsat_dimacs(n, extra, rng):
    """Unsat core on variables 1,2 plus random satisfied-or-not padding."""
    lines = [f"p cnf {n} {4 + extra}",
             "1 2 0", "-1 2 0", "1 -2 0", "-1 -2 0"]
    for _ in range(extra):
        vs = rng.choice(n, size=min(3, n), replace=False) + 1
        lits = [int(v) if rng.random() < 0.5 else -int(v) for v in vs]
        lines.append(" ".join(str(l) for l in lits) + " 0")
    return "\n".join(lines) + "\n"


def accepting_circuits():
    """Permutation circuits on all-|+> registers: accept with probability 1."""
    return [
        VerifierCircuit(0, 0, 0, 1, (Gate("X", (0,)), Gate("X", (0,)))),
        VerifierCircuit(0, 0, 0, 1, (Gate("X", (0,)),) * 4),
        VerifierCircuit(0, 0, 0, 2, (Gate("CNOT", (0, 1)),
                                     Gate("CNOT", (1, 0)))),
        VerifierCircuit(0, 0, 0, 3, (Gate("TOFFOLI", (0, 1, 2)),
                                     Gate("CNOT", (1, 2)), Gate("X", (2,)))),
        VerifierCircuit(0, 0, 0, 2, (Gate("X", (0,)), Gate("CNOT", (0, 1)),
                                     Gate("X", (1,)), Gate("CNOT", (1, 0)),
                                     Gate("X", (0,)), Gate("X", (1,)))),
    ]


def rejecting_circuits():
    """Input bit 1 is routed to the |0>-basis output: reject every witness."""
    return [
        (VerifierCircuit(1, 0, 1, 0, (Gate("X", (1,)), Gate("X", (1,))),
                         out_basis="zero"), 1),
        (VerifierCircuit(1, 1, 1, 0, (Gate("X", (2,)), Gate("X", (2,))),
                         out_basis="zero"), 1),
        (VerifierCircuit(1, 0, 1, 0, (Gate("CNOT", (0, 1)),
                                      Gate("CNOT", (0, 1)),
                                      Gate("X", (1,)), Gate("X", (1,))),
                         out_basis="zero"), 1),
        (VerifierCircuit(1, 1, 1, 0, (Gate("X", (2,)), Gate("X", (2,)),
                                      Gate("CNOT", (1, 2))),
                         out_basis="zero"), 1),
        (VerifierCircuit(1, 1, 2, 0, (Gate("TOFFOLI", (1, 2, 3)),
                                      Gate("TOFFOLI", (1, 2, 3))),
                         out_basis="zero"), 1),
        (VerifierCircuit(1, 0, 1, 0, (Gate("X", (1,)), Gate("CNOT", (0, 1)),
                                      Gate("X", (1,)), Gate("CNOT", (0, 1))),
                         out_basis="zero"), 1),
        (VerifierCircuit(1, 2, 1, 0, (Gate("CNOT", (1, 3)),
                                      Gate("CNOT", (1, 3)),
                                      Gate("X", (3,)), Gate("X", (3,))),
                         out_basis="zero"), 1),
        (VerifierCircuit(1, 1, 1, 0, (Gate("X", (2,)),) * 4,
                         out_basis="zero"), 1),
    ]


def random_lhmin(n, n_terms, rng, lo=0.0, hi=1.0):
    terms = []
    for _ in range(n_terms):
        k = 1 if n == 1 else int(rng.integers(1, 3))
        sup = tuple(sorted(rng.choice(n, size=k, replace=False).tolist()))
        terms.append(LocalOperator(sup, random_stoquastic_block(rng, k)))
    return LhMinInstance(n, tuple(terms), lo, hi)


# ---------------------------------------------------------------------------


def completeness_fixtures():
    """Criterion 1's yes-instances as (kind, instance): planted CNFs, |+>
    instances and the clock exports of accepting circuits."""
    fixtures = []
    rng = np.random.default_rng(101)
    for n in (4, 6, 8, 9, 10, 11, 12, 12):
        text, _ = planted_sat_dimacs(n, 2 * n, rng)
        fixtures.append(("dimacs", from_dimacs(text)))
    fixtures.append(("plus", plus_instance(2, [(0, 1)])))
    fixtures.append(("plus", plus_instance(3, [(0, 1), (1, 2)])))
    fixtures.append(("plus", plus_instance(4, [(0, 1), (1, 2), (2, 3)])))
    fixtures.append(("plus", plus_instance(5, [(0, 1, 2), (2, 3, 4)])))
    fixtures.append(("plus", plus_instance(6, [(0, 1), (2, 3), (4, 5)])))
    fixtures.append(("plus", plus_instance(6, [(0, 1, 2), (1, 3, 5),
                                               (0, 2, 4)])))
    fixtures.append(("plus", plus_instance(8, [(0, 3), (1, 4), (2, 5),
                                               (6, 7)])))
    for v in accepting_circuits():
        assert v.num_gates <= 6
        fixtures.append(("export", export_6sat(compile_circuit(v, 0))))
    return fixtures


def test_criterion_1_completeness():
    fixtures = completeness_fixtures()
    assert len(fixtures) >= 20
    failures = []
    for kind, inst in fixtures:
        hw = honest_witness(inst)
        if hw.looks_unsat:
            failures.append(f"{kind} n={inst.n}: prover flags unsat")
            continue
        steps = required_steps(inst.n, inst.epsilon, inst.m)
        rep = acceptance_rate(inst, hw.argmax, 1000,
                              WalkConfig(steps=steps, seed=11))
        if rep.rate != 1.0:
            failures.append(f"{kind} n={inst.n}: rate {rep.rate}")
    report(1, "completeness", not failures,
           f"{len(fixtures)} yes-instances, honest acceptance 1.0 over "
           f"1000 trials each" + ("; " + "; ".join(failures) if failures
                                  else ""))


def soundness_fixtures():
    """Criterion 2's no-instances as (kind, instance): unsat CNFs and the
    clock exports of rejecting circuits."""
    fixtures = []
    rng = np.random.default_rng(202)
    for n, extra in [(2, 0), (3, 2), (4, 3), (5, 4), (6, 5), (6, 8), (7, 6),
                     (8, 7), (8, 10), (9, 8), (10, 9), (10, 14)]:
        fixtures.append(("dimacs", from_dimacs(unsat_dimacs(n, extra, rng))))
    for v, x in rejecting_circuits():
        inst = export_6sat(compile_circuit(v, x))
        assert inst.metadata["lambda_max"] < 1.0 - 1e-6
        fixtures.append(("export", inst))
    assert len(fixtures) >= 20
    return fixtures


def test_criterion_2_soundness():
    fixtures = soundness_fixtures()
    failures = []
    worst = 0.0
    for kind, inst in fixtures:
        n = inst.n
        assert n <= 10
        steps = required_steps(n, inst.epsilon, inst.m)
        runner = WalkRunner(inst)
        config = WalkConfig(steps=steps, seed=22)
        dense = assemble_dense(build_G(inst))
        evals, evecs = np.linalg.eigh(dense)
        # dense bound per start string: 2^(n/2) <x0| G^L |+> = row sum of G^L
        row_sums = evecs @ (evals**steps * (evecs.T @ np.ones(2**n)))
        for w in range(2**n):
            rep = acceptance_rate(inst, w, 200, config, runner=runner)
            half = (rep.upper - rep.lower) / 2.0
            sigma = math.sqrt(rep.rate * (1 - rep.rate) / rep.trials) \
                + 1.0 / rep.trials
            worst = max(worst, rep.rate)
            if rep.rate > 1.0 / 3.0 + half:
                failures.append(f"{kind} n={n} w={w}: rate {rep.rate}")
            if rep.rate > row_sums[w] + 3.0 * sigma:
                failures.append(f"{kind} n={n} w={w}: rate {rep.rate} "
                                f"above dense bound {row_sums[w]:.3g}")
    report(2, "soundness", not failures,
           f"{len(fixtures)} no-instances, all basis witnesses, worst "
           f"rate {worst:.4f} <= 1/3 + Wilson half-width"
           + ("; " + "; ".join(failures[:5]) if failures else ""))


def test_criterion_2_exact_soundness():
    """Criterion 2's walking witnesses, those that neither reject at once
    nor are fixed points, each get a deterministic report, an acceptance
    <= 1/3 that no trial ran for."""
    walking, worst, failures = 0, 0.0, []
    for kind, inst in soundness_fixtures():
        steps = required_steps(inst.n, inst.epsilon, inst.m)
        runner = WalkRunner(inst)
        config = WalkConfig(steps=steps, seed=22)
        for w in range(2**inst.n):
            if runner.sweep(w, config, 200)[0] is not None:
                continue
            rep = acceptance_rate(inst, w, 200, config, runner=runner)
            walking += 1
            worst = max(worst, rep.rate)
            if not rep.deterministic or rep.rate > 1.0 / 3.0:
                failures.append(f"{kind} n={inst.n} w={w}: {rep}")
    report(2, "exact soundness", walking and not failures,
           f"{walking} walking basis witnesses, worst exact acceptance "
           f"{worst:.4f} <= 1/3" + ("; " + "; ".join(failures[:5])
                                    if failures else ""))


def random_block_projector(rng):
    k = int(rng.integers(1, 5))
    dim = 2**k
    strings = rng.permutation(dim)
    n_used = int(rng.integers(1, dim + 1))
    used = strings[:n_used]
    n_comp = int(rng.integers(1, n_used + 1))
    splits = np.sort(rng.choice(np.arange(1, n_used), size=n_comp - 1,
                                replace=False)) if n_comp > 1 else []
    comps = []
    for members in np.split(used, splits):
        amps = rng.random(len(members)) + 0.05
        amps /= np.linalg.norm(amps)
        comps.append(BlockComponent(frozenset(int(s) for s in members),
                                    {int(s): float(a)
                                     for s, a in zip(members, amps)}))
    return make_block_projector(comps, dim), comps, dim


def test_criterion_3_block_decomposition():
    rng = np.random.default_rng(303)
    failures = []
    for i in range(1000):
        mat, true_comps, dim = random_block_projector(rng)
        comps = block_decompose(mat)
        recon = make_block_projector(comps, dim)
        if np.max(np.abs(recon - mat)) > 1e-10:
            failures.append(f"#{i}: reconstruction residual")
        rank = int(np.linalg.matrix_rank(mat, tol=1e-8))
        if not (len(comps) == rank
                and abs(float(np.trace(mat)) - len(comps)) <= 1e-8):
            failures.append(f"#{i}: count {len(comps)} rank {rank} "
                            f"trace {np.trace(mat)}")
        evals, evecs = np.linalg.eigh(mat)
        for idx in np.nonzero(np.abs(evals - 1.0) < 1e-10)[0]:
            v = evecs[:, idx]
            for comp in comps:
                members = [x for x in sorted(comp.support_set)
                           if abs(v[x]) > 1e-3]
                x0 = members[0] if members else None
                for y in members[1:]:
                    want = abs(v[y] / v[x0])
                    got = comp.amplitude[y] / comp.amplitude[x0]
                    if abs(got - want) > 1e-9:
                        failures.append(f"#{i}: ratio {got} vs {want}")
    report(3, "block decomposition", not failures,
           "1000 random projectors (k<=4): reconstruction <= 1e-10, "
           "count = rank = trace, amplitude ratios match eigenvectors"
           + ("; " + "; ".join(failures[:5]) if failures else ""))


def _isometry_exact(k):
    """Both ladder identities as dense matrix equalities.

    The only rounding is the |+> amplitude (1/sqrt(2))^2 != 0.5 exactly,
    so 'exact' is machine precision: residual <= 4 eps.
    """
    def dense(gates, n):
        perm = circuit_permutation(gates, {q: q for q in range(n)}, 2**n)
        mat = np.zeros((2**n, 2**n))
        mat[perm, np.arange(2**n)] = 1.0
        return mat

    def embed(k, n_0, n_plus):
        cols = np.zeros((2 ** (k + n_0 + n_plus), 2**k))
        plus = np.full(2**n_plus, 2.0 ** (-n_plus / 2.0))
        for w in range(2**k):
            state = np.zeros(2**k)
            state[w] = 1.0
            if n_0:
                zeros = np.zeros(2**n_0)
                zeros[0] = 1.0
                state = np.kron(zeros, state)
            state = np.kron(plus, state)
            cols[:, w] = state
        return cols

    gates, n_0, n_plus, meas = zero_projector_isometry(k)
    total = k + n_0 + n_plus
    w = dense(gates, total)
    x_meas = assemble_dense(OperatorSum(total, (LocalOperator((meas,), X),)))
    v = embed(k, n_0, n_plus)
    target = np.zeros((2**k, 2**k))
    target[0, 0] = 1.0
    if np.max(np.abs(v.T @ w.T @ x_meas @ w @ v - target)) > 4 * np.finfo(float).eps:
        return False
    gates, n_0, n_plus, meas = x_projector_isometry(k)
    total = k + n_0
    w = dense(gates, total) if gates else np.eye(2**total)
    x_meas = assemble_dense(OperatorSum(total, (LocalOperator((meas,), X),)))
    v = embed(k, n_0, 0)
    target = np.zeros((2**k, 2**k))
    target[0, 1] = target[1, 0] = 1.0
    return np.max(np.abs(v.T @ w.T @ x_meas @ w @ v - target)) \
        <= 4 * np.finfo(float).eps


def test_criterion_4_verifier_reduction():
    failures = []
    for k in (1, 2, 3):
        if not _isometry_exact(k):
            failures.append(f"isometry identity not exact at k={k}")
    rng = np.random.default_rng(404)
    worst = 0.0
    for i in range(100):
        n = int(rng.integers(2, 5))
        inst = random_lhmin(n, int(rng.integers(2, 5)), rng)
        dec = decompose_stoquastic(inst)
        acc = np.zeros((2**n, 2**n))
        for p, part in dec.parts:
            local = LocalOperator(part.support, dec.part_operator(part))
            acc += p * assemble_dense(OperatorSum(n, (local,)))
        h = assemble_dense(OperatorSum(n, inst.terms))
        resid = np.max(np.abs(acc - (dec.gamma * h + dec.beta * np.eye(2**n))))
        if resid > 1e-10:
            failures.append(f"#{i}: decomposition residual {resid:.2e}")
            continue
        verifier, alpha, beta_prime = hamiltonian_to_verifier(inst)
        a_op = verifier.acceptance_operator(0)
        target = -alpha * h + beta_prime * np.eye(2**n)
        budget = 1e-8 + len(verifier.parts) * 2.0**-20
        for _ in range(100):
            psi = rng.normal(size=2**n)
            psi /= np.linalg.norm(psi)
            err = abs(psi @ a_op @ psi - psi @ target @ psi)
            worst = max(worst, err)
            if err > budget:
                failures.append(f"#{i}: Pr error {err:.2e} > {budget:.2e}")
                break
    report(4, "verifier reduction", not failures,
           "100 random 2-local stoquastic Hamiltonians (n<=4): "
           "reconstruction <= 1e-10, ladders exact (machine precision) "
           "for k in 1..3, "
           f"Pr identity within budget (worst {worst:.2e})"
           + ("; " + "; ".join(failures[:5]) if failures else ""))


def _clock_fixtures():
    return [
        VerifierCircuit(0, 0, 0, 1, (Gate("X", (0,)), Gate("X", (0,)))),
        VerifierCircuit(0, 1, 0, 1, (Gate("CNOT", (0, 1)),
                                     Gate("CNOT", (1, 0)),
                                     Gate("CNOT", (0, 1))),
                        out_basis="zero"),
        VerifierCircuit(1, 2, 1, 0, (Gate("CNOT", (1, 3)), Gate("X", (0,))),
                        out_basis="zero"),
        VerifierCircuit(0, 2, 1, 1, (Gate("TOFFOLI", (0, 1, 2)),
                                     Gate("CNOT", (2, 3)),
                                     Gate("X", (1,)))),
        VerifierCircuit(1, 1, 1, 1, (Gate("X", (2,)), Gate("CNOT", (2, 0)),
                                     Gate("X", (2,)), Gate("X", (3,)),
                                     Gate("X", (3,)))),
        VerifierCircuit(1, 2, 0, 0, (Gate("CNOT", (0, 1)), Gate("X", (2,)),
                                     Gate("CNOT", (2, 1)), Gate("X", (0,)),
                                     Gate("CNOT", (1, 2)), Gate("X", (1,))),
                        out_basis="zero"),
    ]


def test_criterion_5_clock_spectrum():
    failures = []
    for v in _clock_fixtures():
        clock = compile_circuit(v, 0)
        assert clock.L <= 6 and clock.N <= 14
        evals = np.linalg.eigvalsh(
            assemble_dense(clock.hamiltonian().operator()))
        dim = int(np.sum(evals < 1e-8))
        if evals[0] > 1e-10:
            failures.append(f"N={clock.N}: lambda_min {evals[0]:.2e}")
        if dim != 2**v.n_w:
            failures.append(f"N={clock.N}: ground dim {dim} != {2**v.n_w}")
    # N = 16 fixture through the sparse path
    big = VerifierCircuit(2, 3, 2, 1,
                          (Gate("X", (0,)), Gate("CNOT", (2, 5)),
                           Gate("TOFFOLI", (3, 4, 6)), Gate("CNOT", (4, 1)),
                           Gate("X", (7,)), Gate("CNOT", (7, 5))),
                          out_basis="zero")
    clock = compile_circuit(big, 1)
    assert clock.N == 16 and clock.L == 6
    h = assemble_sparse(clock.hamiltonian().operator()).tocsc()
    vals = np.sort(sla.eigsh(h, k=2**big.n_w + 1, which="SA", maxiter=20000,
                             tol=1e-12, return_eigenvectors=False))
    if vals[0] > 1e-10 or np.any(vals[:2**big.n_w] > 1e-8) \
            or vals[2**big.n_w] < 1e-6:
        failures.append(f"N=16: low spectrum {vals}")

    # spectrum shape-invariance across 5 random circuits of one shape
    rng = np.random.default_rng(505)
    pool = [Gate("X", (q,)) for q in range(4)] + \
        [Gate("CNOT", (a, b)) for a in range(4) for b in range(4) if a != b]
    spectra = []
    for _ in range(5):
        gates = tuple(pool[i] for i in rng.integers(0, len(pool), size=2))
        v = VerifierCircuit(1, 2, 1, 0, gates, out_basis="zero")
        spectra.append(np.linalg.eigvalsh(
            assemble_dense(compile_circuit(v, 0).hamiltonian().operator())))
    diff = max(float(np.max(np.abs(s - spectra[0]))) for s in spectra[1:])
    if diff > 1e-8:
        failures.append(f"shape-dependent spectrum: diff {diff:.2e}")

    # perturbation: prediction residual shrinks 4x when delta halves
    coin = VerifierCircuit(0, 1, 0, 1, (Gate("CNOT", (0, 1)),
                                        Gate("CNOT", (1, 0)),
                                        Gate("CNOT", (0, 1))),
                           out_basis="zero")
    clock = compile_circuit(coin, 0)
    resid = []
    for delta in (1e-3, 5e-4):
        lam = float(np.linalg.eigvalsh(assemble_dense(
            perturbed_hamiltonian(clock, delta).operator()))[0])
        resid.append(abs(lam - predicted_min_eigenvalue(delta, clock.L, 0.5)))
    ratio = resid[0] / resid[1]
    if not 3.5 <= ratio <= 4.5:
        failures.append(f"perturbation residual ratio {ratio:.3f}")
    report(5, "clock spectrum", not failures,
           "7 circuits (L<=6, N<=16): lambda_min <= 1e-10, ground dim "
           f"2^n_w, shape-invariant spectra (diff {diff:.1e}), "
           f"delta-residual ratio {ratio:.3f} in [3.5, 4.5]"
           + ("; " + "; ".join(failures[:5]) if failures else ""))


def test_criterion_6_sbp_bounds():
    rng = np.random.default_rng(606)
    failures = []
    for i in range(50):
        n = 2 + i % 9  # 2..10
        inst0 = random_lhmin(n, max(2, n - 1), rng)
        h = assemble_dense(OperatorSum(n, inst0.terms))
        lam_min = float(np.linalg.eigvalsh(h)[0])
        is_yes = i % 2 == 0
        if is_yes:
            lo, hi = lam_min + 0.1, lam_min + 2.1
        else:
            lo, hi = lam_min - 2.1, lam_min - 0.1
        inst = LhMinInstance(n, inst0.terms, lo, hi)
        rep = trace_report(inst)
        if is_yes:
            ok = rep.value >= rep.bound_yes and rep.value > rep.bound_no
        else:
            ok = rep.value <= rep.bound_no and rep.value < rep.bound_yes
        if not ok:
            failures.append(f"#{i} n={n} L={rep.L}: trace {rep.value:.3e} "
                            f"bounds ({rep.bound_yes:.3e}, {rep.bound_no:.3e})")
        g, p = sbp_matrix(inst)
        exact = trace_power(g, 2).value
        samp = trace_power(g, 2, mode="sampled", paths=4000, seed=60 + i)
        if samp.stderr <= 0.0 or abs(samp.value - exact) > 3.0 * samp.stderr:
            failures.append(f"#{i} n={n}: sampled {samp.value:.4g} vs "
                            f"exact {exact:.4g} (stderr {samp.stderr:.2g})")
    report(6, "SBP trace bounds", not failures,
           "50 fixtures (n<=10): exact trace classifies yes/no at the "
           "auto-selected L; path-sampled trace within 3 stderr of exact"
           + ("; " + "; ".join(failures[:5]) if failures else ""))


ALLSAT_CNF = "p cnf 2 2\n1 2 0\n1 -2 0\n"
BIASED_CNF = "p cnf 3 4\n2 1 0\n2 -1 0\n3 1 0\n3 -1 0\n"


def _scaling_ensembles():
    one = DisorderEnsemble(1, 1, (
        TermTemplate((0,), (), {0: -X}),
        TermTemplate((0,), (0,), {0: np.zeros((2, 2)),
                                  1: np.diag([2.0, 0.0])}),
    ))
    soft = DisorderEnsemble(1, 1, (
        TermTemplate((0,), (), {0: -X}),
        TermTemplate((0,), (0,), {0: np.zeros((2, 2)),
                                  1: np.diag([0.0, 1.0])}),
    ))
    two = DisorderEnsemble(2, 2, (
        TermTemplate((0, 1), (), {0: -np.kron(X, X)}),
        TermTemplate((0,), (0,), {0: np.zeros((2, 2)),
                                  1: np.diag([1.5, 0.0])}),
        TermTemplate((1,), (1,), {0: np.zeros((2, 2)),
                                  1: np.diag([0.0, 0.5])}),
    ))
    biased = cnf_ensemble_from_dimacs(BIASED_CNF, q_vars=[2, 3])
    mixed = DisorderEnsemble(2, 2, (
        TermTemplate((0,), (0,), {0: -X, 1: np.diag([1.0, 0.0])}),
        TermTemplate((1,), (1,), {0: np.diag([0.0, 1.0]), 1: -X}),
    ))
    return [one, soft, two, biased, mixed]


def test_criterion_7_replica_scaling():
    failures = []
    ratios = []
    for idx, ens in enumerate(_scaling_ensembles()):
        scaled = []
        for n_rep in (1, 4, 16):
            rep = replica_ensemble(ens, n_rep, qubit_ceiling=10**9)
            stats = lambda_stats(rep, 500, seed=70 + idx)
            scaled.append(stats.std * math.sqrt(n_rep))
        spread = max(scaled) / min(scaled)
        ratios.append(spread)
        if spread > 1.15:
            failures.append(f"ensemble #{idx}: sigma'*sqrt(N) spread "
                            f"{spread:.3f}")
    yes = av_decide(cnf_ensemble_from_dimacs(ALLSAT_CNF, q_vars=[2]),
                    lambda_yes=0.0, lambda_no=2.0 / 3.0, samples=200, seed=7)
    if yes.decision != "yes":
        failures.append(f"all-satisfiable ensemble decided {yes.decision}")
    no = av_decide(cnf_ensemble_from_dimacs(BIASED_CNF, q_vars=[2, 3]),
                   lambda_yes=0.0, lambda_no=2.0 / 3.0, samples=200, seed=7,
                   sigma_margin=30.0)
    if no.decision != "no":
        failures.append(f"unsat-biased ensemble decided {no.decision}")
    report(7, "replica scaling", not failures,
           "5 ensembles: sigma'*sqrt(N) constant within 15% for N in "
           f"{{1,4,16}} (worst spread {max(ratios):.3f}); av_decide yes on "
           "the satisfiable ensemble, no on the unsat-biased one"
           + ("; " + "; ".join(failures) if failures else ""))


def test_criterion_8_determinism(tmp_path):
    dimacs = tmp_path / "f.cnf"
    dimacs.write_text("p cnf 3 3\n1 2 0\n-1 3 0\n2 -3 0\n")
    inst = str(tmp_path / "inst.json")
    assert cli_main(["gen", "from-dimacs", "--dimacs", str(dimacs),
                     "--out", inst]) == 0
    cnf = tmp_path / "e.cnf"
    cnf.write_text(BIASED_CNF)
    ens = str(tmp_path / "ens.json")
    assert cli_main(["gen", "cnf-ensemble", "--cnf", str(cnf),
                     "--q-vars", "2,3", "--out", ens]) == 0
    lhm = str(tmp_path / "h.json")
    from stoqbench import save
    save(LhMinInstance(1, (LocalOperator((0,), -X),), -1.0 - 1e-6, 0.0), lhm)

    runs = [
        ["verify", "--instance", inst, "--witness", "6", "--trials", "50",
         "--seed", "3"],
        ["verify", "--instance", inst, "--witness", "0", "--trials", "50",
         "--seed", "3"],
        ["ensemble", "--instance", ens, "--samples", "80", "--replicas", "4",
         "--seed", "5"],
        ["trace", "--instance", lhm, "--power", "3", "--paths", "2000",
         "--seed", "9"],
    ]
    failures = []
    for j, cmd in enumerate(runs):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"run{j}{tag}.csv"
            code = cli_main(cmd + ["--out", str(out)])
            assert code == 0, cmd
            outs.append(out.read_bytes())
        if outs[0] != outs[1]:
            failures.append(f"run {j} ({cmd[0]}) not byte-identical")
    report(8, "determinism", not failures,
           f"{len(runs)} stochastic CLI runs byte-identical under fixed seeds"
           + ("; " + "; ".join(failures) if failures else ""))
