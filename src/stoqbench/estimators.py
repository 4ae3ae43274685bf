"""SBP trace functional and disorder-averaged replica machinery."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ops import LocalOperator, OperatorSum, assemble_dense, dense_limit, matrix_elements
from .instances import (DisorderEnsemble, LhMinInstance, TermTemplate,
                        parse_dimacs, validate)
from .spectral import dense_spectrum, extreme_eigenvalue

# Random integers drawn per block by the samplers, which bounds their
# temporary arrays.  Numpy's PCG64 serves bounded integers from
# consecutive words of one stream, so a draw split into blocks of any
# size, or into one call per value, yields the same values in order.
DRAW_CHUNK = 1 << 14


@dataclass
class TraceReport:
    L: int
    value: float
    stderr: float  # 0 in exact mode
    mode: str
    mu_yes: float = None
    mu_no: float = None
    bound_yes: float = None
    bound_no: float = None


@dataclass
class EnsembleStats:
    samples: int
    mean: float
    std: float
    lambdas: list
    replicas: int = 1
    rs: list = None  # per sample: tuple of the replica r draws


def sbp_matrix(h: LhMinInstance):
    """G = (I - H/p)/2 with p chosen so every entry of G lies in [0, 1].

    Returned term-wise: an identity term of weight 1/2 plus the negated,
    rescaled terms of H.
    """
    problems = validate(h)
    if problems:
        raise ValueError("not a valid stoquastic instance: " + "; ".join(problems))
    p = 1.0 + sum((2**t.k) * float(np.max(np.abs(t.block))) for t in h.terms)
    ident = LocalOperator((0,), np.eye(2), tag="identity")
    terms = (ident,) + h.terms
    weights = (0.5,) + tuple(-0.5 / p for _ in h.terms)
    return OperatorSum(h.n, terms, weights), p


def trace_power(g: OperatorSum, L: int, mode: str = "exact",
                paths: int = 0, seed: int = 0) -> TraceReport:
    """tr(G^L), exactly (dense powers) or by uniform closed-path sampling."""
    if L < 1:
        raise ValueError("L must be >= 1")
    if mode == "exact":
        mat = assemble_dense(g)
        evals = np.linalg.eigvalsh(mat)
        value = float(np.sum(evals**L))
        return TraceReport(L=L, value=value, stderr=0.0, mode="exact")
    if mode != "sampled":
        raise ValueError("mode must be 'exact' or 'sampled'")
    if paths < 1:
        raise ValueError("sampled mode needs paths >= 1")
    rng = np.random.default_rng(seed)
    n = g.n
    scale = 2.0 ** (n * L)
    rows = max(1, DRAW_CHUNK // L)
    vals = np.empty(paths)
    for start in range(0, paths, rows):
        xs = rng.integers(0, 2**n, size=(min(rows, paths - start), L))
        prod = np.ones(len(xs))
        for j in range(L):
            prod *= matrix_elements(g, xs[:, j], xs[:, (j + 1) % L])
        vals[start:start + len(xs)] = scale * prod
    value = float(np.mean(vals))
    stderr = float(np.std(vals, ddof=1) / math.sqrt(paths)) if paths > 1 else 0.0
    return TraceReport(L=L, value=value, stderr=stderr, mode="sampled")


def sbp_bounds(lambda_yes: float, lambda_no: float, p: float, n: int,
               target_ratio: float = 0.5):
    """Thresholds mu = (1 - lambda/p)/2 and the L separating the trace bounds."""
    if not lambda_yes < lambda_no:
        raise ValueError("lambda_yes must be below lambda_no")
    mu_yes = 0.5 * (1.0 - lambda_yes / p)
    mu_no = 0.5 * (1.0 - lambda_no / p)
    if mu_no >= mu_yes:
        raise ValueError("thresholds inverted: mu_no >= mu_yes")
    if mu_no <= 0:
        return mu_yes, mu_no, 1
    ratio = mu_no / mu_yes
    L = 1
    while (2.0**n) * ratio**L > target_ratio:
        L += 1
    return mu_yes, mu_no, L


def trace_report(h: LhMinInstance, L: int = None, mode: str = "exact",
                 paths: int = 0, seed: int = 0) -> TraceReport:
    """Full SBP report for an LH-MIN instance: trace of G^L plus bounds."""
    g, p = sbp_matrix(h)
    mu_yes, mu_no, l_auto = sbp_bounds(h.lambda_yes, h.lambda_no, p, h.n)
    if L is None:
        L = l_auto
    rep = trace_power(g, L, mode=mode, paths=paths, seed=seed)
    rep.mu_yes = mu_yes
    rep.mu_no = mu_no
    rep.bound_yes = mu_yes**L
    rep.bound_no = (2.0**h.n) * mu_no**L
    return rep


# ---------------------------------------------------------------------------
# disorder ensembles


def replica_ensemble(ens: DisorderEnsemble, n_replicas: int,
                     qubit_ceiling: int = 24) -> DisorderEnsemble:
    """N independent copies averaged: same mean, std shrinks by sqrt(N)."""
    if n_replicas < 1:
        raise ValueError("replica count must be >= 1")
    if n_replicas == 1:
        return ens
    if ens.n * n_replicas > qubit_ceiling:
        raise ValueError(
            f"replica register needs {ens.n * n_replicas} qubits "
            f"(ceiling {qubit_ceiling})")
    templates = []
    for j in range(n_replicas):
        for t in ens.templates:
            templates.append(TermTemplate(
                tuple(q + j * ens.n for q in t.support),
                tuple(b + j * ens.m for b in t.random_bits),
                {a: block / n_replicas for a, block in t.tables.items()},
            ))
    return DisorderEnsemble(
        n=ens.n * n_replicas, m=ens.m * n_replicas, templates=tuple(templates),
        metadata={**ens.metadata, "replicas": n_replicas},
        replica_of=(ens, n_replicas),
    )


class _LambdaSolver:
    """Ground-energy evaluation with a per-r cache.

    Replica ensembles are evaluated replica by replica: disjoint
    registers make the ground energy additive, so the full 2^(nN)
    problem never has to be assembled.
    """

    def __init__(self, base: DisorderEnsemble, replicas: int):
        self.base, self.replicas = base, replicas
        self._cache: dict = {}

    def base_lambda(self, r: int) -> float:
        """Ground energy of the base ensemble's realisation r."""
        inst = self.base.realize(r)
        op = inst.operator()
        if inst.n <= dense_limit():
            return float(dense_spectrum(op)[0])
        return extreme_eigenvalue(op, which="min").value

    def stats(self, samples: int, seed: int) -> EnsembleStats:
        """Mean ground energy of ``replicas`` draws of r, ``samples`` times.

        The draws come sample-major from one stream, whole samples at a
        time.  Each distinct r is solved once; a sample adds its
        replicas' energies left to right from 0.0 (an accumulate: the
        pairwise ``np.sum`` rounds differently) and divides by the
        replica count.
        """
        if samples < 1:
            raise ValueError("samples must be >= 1")
        rng = np.random.default_rng(seed)
        N = self.replicas
        rows = max(1, DRAW_CHUNK // N)
        lams, rs = [], []
        for start in range(0, samples, rows):
            r = rng.integers(0, 2**self.base.m,
                             size=(min(rows, samples - start), N))
            keys, where = np.unique(r, return_inverse=True)
            keys = keys.tolist()
            for x in keys:
                if x not in self._cache:
                    self._cache[x] = self.base_lambda(x)
            table = np.array([self._cache[x] for x in keys])
            lam = np.hstack([np.zeros((len(r), 1)), table[where.reshape(r.shape)]])
            lams.extend((np.add.accumulate(lam, axis=1)[:, -1] / N).tolist())
            rs.extend(map(tuple, r.tolist()))
        arr = np.asarray(lams)
        std = float(np.std(arr, ddof=1)) if samples > 1 else 0.0
        return EnsembleStats(samples=samples, mean=float(np.mean(arr)), std=std,
                             lambdas=lams, replicas=N, rs=rs)


def lambda_stats(ens: DisorderEnsemble, samples: int, seed: int = 0) -> EnsembleStats:
    """Sampled mean and std of the ground energy over the disorder."""
    base, replicas = ens.replica_of or (ens, 1)
    return _LambdaSolver(base, replicas).stats(samples, seed)


@dataclass
class AvDecision:
    decision: str  # yes | no | inconclusive
    replicas: int
    sigma_prime: float
    threshold_yes: float
    threshold_no: float
    frac_below_yes: float
    frac_above_no: float
    stats: EnsembleStats


def av_decide(ens: DisorderEnsemble, lambda_yes: float, lambda_no: float,
              samples: int = 200, seed: int = 0, pilot: int = 30,
              sigma_margin: float = 100.0, sigma_shift: float = 10.0,
              confidence: float = 0.99, max_replicas: int = 1 << 20) -> AvDecision:
    """Replica-averaged classification against shifted thresholds.

    Picks N so the replica std is below (lambda_no - lambda_yes) /
    sigma_margin, shifts both thresholds inward by sigma_shift stds, and
    classifies by which Chebyshev prediction the samples satisfy.
    """
    gap = lambda_no - lambda_yes
    if gap <= 0:
        raise ValueError("lambda_no must exceed lambda_yes")
    pilot_stats = lambda_stats(ens, pilot, seed=seed + 1)
    sigma = pilot_stats.std
    target = gap / sigma_margin
    n_replicas = 1 if sigma <= target else math.ceil((sigma / target) ** 2)
    if n_replicas > max_replicas:
        raise ValueError(f"would need {n_replicas} replicas (cap {max_replicas})")
    if n_replicas == 1:
        stats = lambda_stats(ens, samples, seed=seed)
    else:
        # what lambda_stats(replica_ensemble(ens, n_replicas)) computes,
        # without building n_replicas copies of the templates
        stats = _LambdaSolver(ens, n_replicas).stats(samples, seed)
    sigma_prime = sigma / math.sqrt(n_replicas)
    thr_yes = lambda_yes + sigma_shift * sigma_prime
    thr_no = lambda_no - sigma_shift * sigma_prime
    arr = np.asarray(stats.lambdas)
    frac_yes = float(np.mean(arr <= thr_yes))
    frac_no = float(np.mean(arr >= thr_no))
    if frac_yes >= confidence:
        decision = "yes"
    elif frac_no >= confidence:
        decision = "no"
    else:
        decision = "inconclusive"
    return AvDecision(decision=decision, replicas=n_replicas,
                      sigma_prime=sigma_prime, threshold_yes=thr_yes,
                      threshold_no=thr_no, frac_below_yes=frac_yes,
                      frac_above_no=frac_no, stats=stats)


# ---------------------------------------------------------------------------
# CNF ensembles (clauses over work bits w,z and at most one random bit q each)


def cnf_ensemble(num_vars: int, clauses, q_vars) -> DisorderEnsemble:
    """Diagonal (3,1)-local ensemble from a CNF with designated random bits.

    ``q_vars`` lists the 1-based DIMACS variables treated as random
    bits; all other variables become qubits.  Each clause contributes a
    diagonal projector onto its violating work assignment, tabulated
    over its (single) random bit.
    """
    q_set = set(q_vars)
    work_vars = [v for v in range(1, num_vars + 1) if v not in q_set]
    qubit_of = {v: i for i, v in enumerate(work_vars)}
    bit_of = {v: i for i, v in enumerate(sorted(q_set))}
    templates = []
    for clause in clauses:
        q_lits = [lit for lit in clause if abs(lit) in q_set]
        w_lits = [lit for lit in clause if abs(lit) not in q_set]
        if len({abs(l) for l in q_lits}) > 1:
            raise ValueError(f"clause {clause} touches more than one random bit")
        if not w_lits:
            raise ValueError(f"clause {clause} has no work variables")
        w_vars = sorted({abs(l) for l in w_lits})
        if len(w_vars) > 3:
            raise ValueError(f"clause {clause} wider than 3 work variables")
        support = tuple(qubit_of[v] for v in w_vars)
        dim = 2 ** len(support)
        # violating work assignment: all work literals false
        sign = {}
        tautology = False
        for lit in w_lits:
            v, s = abs(lit), lit > 0
            if v in sign and sign[v] != s:
                tautology = True
            sign[v] = s
        violating = np.zeros((dim, dim))
        if not tautology:
            b = 0
            for i, v in enumerate(w_vars):
                if not sign[v]:
                    b |= 1 << i
            violating[b, b] = 1.0
        if q_lits:
            lit = q_lits[0]
            bit = bit_of[abs(lit)]
            satisfied_when = 1 if lit > 0 else 0
            tables = {
                satisfied_when: np.zeros((dim, dim)),
                1 - satisfied_when: violating,
            }
            templates.append(TermTemplate(support, (bit,), tables))
        else:
            templates.append(TermTemplate(support, (), {0: violating}))
    return DisorderEnsemble(
        n=len(work_vars), m=len(q_set), templates=tuple(templates),
        metadata={"source": "cnf", "clauses": len(templates)},
    )


def cnf_ensemble_from_dimacs(text: str, q_vars) -> DisorderEnsemble:
    num_vars, clauses = parse_dimacs(text)
    return cnf_ensemble(num_vars, clauses, q_vars)
