"""SBP trace functional and disorder-averaged replica machinery."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .ops import DenseLimitError, LocalOperator, OperatorSum, matrix_elements
from .instances import (DisorderEnsemble, LhMinInstance, TermTemplate,
                        clause_projector, parse_dimacs, require_valid)
from .spectral import dense_spectrum, extreme_eigenvalue
from .walk import smallest_power

# Random integers drawn per block by the samplers, which bounds their
# temporary arrays.  Numpy's PCG64 serves bounded integers from
# consecutive words of one stream, so a draw split into blocks of any
# size, or into one call per value, yields the same values in order.
DRAW_CHUNK = 1 << 14


def draw_blocks(seed: int, high: int, count: int, width: int):
    """``count`` rows of ``width`` integers in [0, high) from default_rng(seed),
    in blocks of at most DRAW_CHUNK integers (one row if a row is longer)."""
    rng = np.random.default_rng(seed)
    rows = max(1, DRAW_CHUNK // width)
    for start in range(0, count, rows):
        yield rng.integers(0, high, size=(min(rows, count - start), width))


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
    rs: np.ndarray = None  # int64 (samples, replicas): each sample's r draws


def sbp_matrix(h: LhMinInstance):
    """G = (I - H/p)/2 with p chosen so every entry of G lies in [0, 1].

    Returned term-wise: an identity term of weight 1/2 plus the negated,
    rescaled terms of H.
    """
    require_valid(h)
    p = 1.0 + float(h.operator().norm_bound())
    ident = LocalOperator((), np.eye(1), tag="identity")
    terms = (ident,) + h.terms
    weights = (0.5,) + tuple(-0.5 / p for _ in h.terms)
    return OperatorSum(h.n, terms, weights), p


def trace_power(g: OperatorSum, L: int, mode: str = "exact",
                paths: int = 0, seed: int = 0) -> TraceReport:
    """tr(G^L), exactly (from the spectrum) or by uniform closed-path sampling."""
    if L < 1:
        raise ValueError("L must be >= 1")
    if mode == "exact":
        value = float(np.sum(dense_spectrum(g)**L))
        return TraceReport(L=L, value=value, stderr=0.0, mode="exact")
    if mode != "sampled":
        raise ValueError("mode must be 'exact' or 'sampled'")
    if paths < 2:  # one path has no standard error
        raise ValueError("sampled mode needs paths >= 2")
    n = g.n
    if n * L >= sys.float_info.max_exp:
        raise ValueError(f"sampled trace at L={L} on n={n} qubits needs the "
                         f"path weight 2**(n*L) = 2**{n * L}, beyond a float; "
                         f"n*L must stay below {sys.float_info.max_exp}")
    scale = 2.0 ** (n * L)
    blocks = []
    for xs in draw_blocks(seed, 2**n, paths, L):
        # G(x_j, x_{j+1}) for every step of every path in one read
        steps = matrix_elements(g, xs, np.roll(xs, -1, axis=1))
        prod = np.ones(len(xs))
        for column in steps.T:
            prod *= column
        blocks.append(scale * prod)
    vals = np.concatenate(blocks)
    value = float(np.mean(vals))
    stderr = float(np.std(vals, ddof=1) / math.sqrt(paths))
    return TraceReport(L=L, value=value, stderr=stderr, mode="sampled")


def sbp_bounds(lambda_yes: float, lambda_no: float, p: float, n: int):
    """Thresholds mu = (1 - lambda/p)/2 and the smallest L at which the no
    bound 2^n mu_no^L is at most half the yes bound mu_yes^L."""
    if not lambda_yes < lambda_no:
        raise ValueError("lambda_yes must be below lambda_no")
    mu_yes = 0.5 * (1.0 - lambda_yes / p)
    mu_no = 0.5 * (1.0 - lambda_no / p)
    if mu_no >= mu_yes:
        raise ValueError("thresholds inverted: mu_no >= mu_yes")
    if mu_no <= 0:
        return mu_yes, mu_no, 1
    return mu_yes, mu_no, smallest_power(n, mu_no / mu_yes, 0.5)


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
    """Ground-energy evaluation of a base ensemble with a per-r cache.

    Replica ensembles are evaluated replica by replica: disjoint
    registers make the ground energy additive, so the full 2^(nN)
    problem never has to be assembled.
    """

    def __init__(self, base: DisorderEnsemble):
        self.base = base
        self._cache: dict = {}

    def base_lambda(self, r: int) -> float:
        """Ground energy of the base ensemble's realisation r."""
        op = self.base.realize(r).operator()
        try:
            return float(dense_spectrum(op)[0])
        except DenseLimitError:
            return extreme_eigenvalue(op, which="min").value

    def stats(self, samples: int, seed: int, replicas: int) -> EnsembleStats:
        """Mean ground energy of ``replicas`` draws of r, ``samples`` times.

        The draws come sample-major from one stream, whole samples at a
        time.  Each distinct r is solved once; a sample adds its
        replicas' energies left to right from 0.0 (an accumulate: the
        pairwise ``np.sum`` rounds differently) and divides by the
        replica count.
        """
        if samples < 1:
            raise ValueError("samples must be >= 1")
        lams, rs = [], np.empty((samples, replicas), dtype=np.int64)
        for r in draw_blocks(seed, 2**self.base.m, samples, replicas):
            rs[len(lams):len(lams) + len(r)] = r
            keys, where = np.unique(r, return_inverse=True)
            keys = keys.tolist()
            for x in keys:
                if x not in self._cache:
                    self._cache[x] = self.base_lambda(x)
            table = np.array([self._cache[x] for x in keys])
            lam = np.hstack([np.zeros((len(r), 1)), table[where.reshape(r.shape)]])
            lams.extend((np.add.accumulate(lam, axis=1)[:, -1] / replicas).tolist())
        arr = np.asarray(lams)
        std = float(np.std(arr, ddof=1)) if samples > 1 else 0.0
        return EnsembleStats(samples=samples, mean=float(np.mean(arr)), std=std,
                             lambdas=lams, replicas=replicas, rs=rs)


def lambda_stats(ens: DisorderEnsemble, samples: int, seed: int = 0) -> EnsembleStats:
    """Sampled mean and std of the ground energy over the disorder."""
    base, replicas = ens.replica_of or (ens, 1)
    return _LambdaSolver(base).stats(samples, seed, replicas)


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
              samples: int = 200, seed: int = 0,
              sigma_margin: float = 100.0) -> AvDecision:
    """Replica-averaged classification against shifted thresholds.

    A pilot of 30 samples measures the std sigma; N, at most 2^20, is
    picked so the replica std is below (lambda_no - lambda_yes) /
    sigma_margin.  Both thresholds shift inward by 10 replica stds, and
    the decision is the side that holds at least 99% of the samples.
    A replica ensemble of k copies is drawn as k N base replicas.
    """
    gap = lambda_no - lambda_yes
    if not gap > 0:
        raise ValueError("lambda_no must exceed lambda_yes")
    base, k = ens.replica_of or (ens, 1)
    solver = _LambdaSolver(base)  # the pilot's solves serve the main draw
    sigma = solver.stats(30, seed + 1, k).std
    target = gap / sigma_margin
    n_replicas = 1 if sigma <= target else math.ceil((sigma / target) ** 2)
    if n_replicas > 1 << 20:
        raise ValueError(f"would need {n_replicas} replicas (cap {1 << 20})")
    # what lambda_stats(replica_ensemble(base, k * n_replicas)) computes,
    # without building that many copies of the templates
    stats = solver.stats(samples, seed, k * n_replicas)
    sigma_prime = sigma / math.sqrt(n_replicas)
    thr_yes = lambda_yes + 10.0 * sigma_prime
    thr_no = lambda_no - 10.0 * sigma_prime
    arr = np.asarray(stats.lambdas)
    frac_yes = float(np.mean(arr <= thr_yes))
    frac_no = float(np.mean(arr >= thr_no))
    if frac_yes >= 0.99:
        decision = "yes"
    elif frac_no >= 0.99:
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
    if not q_set <= set(range(1, num_vars + 1)):
        raise ValueError(f"random bits {sorted(q_set)} must be variables "
                         f"1..{num_vars} of the CNF")
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
        # I - |b><b| for the violating work assignment b; None for a
        # tautology
        proj = clause_projector(w_lits, num_vars)
        violating = np.eye(dim) - proj.block if proj else np.zeros((dim, dim))
        if q_lits:
            # bit value b satisfies the clause if any random literal
            # holds at b: q at 1, not q at 0, both at either
            tables = {b: np.zeros((dim, dim))
                      if any((lit > 0) == b for lit in q_lits) else violating
                      for b in (0, 1)}
            templates.append(TermTemplate(support, (bit_of[abs(q_lits[0])],),
                                          tables))
        else:
            templates.append(TermTemplate(support, (), {0: violating}))
    return DisorderEnsemble(
        n=len(work_vars), m=len(q_set), templates=tuple(templates),
        metadata={"source": "cnf", "clauses": len(templates)},
    )


def cnf_ensemble_from_dimacs(text: str, q_vars) -> DisorderEnsemble:
    num_vars, clauses = parse_dimacs(text)
    return cnf_ensemble(num_vars, clauses, q_vars)
