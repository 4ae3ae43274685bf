"""Random-walk verification protocol for stoquastic SAT.

The verifier walks on bit strings with transition weights taken from the
instance's averaged projector G, checking at every step that the local
diagonals are positive, that the transition weights sum to one, and at
the end that the accumulated amplitude-ratio product does not exceed
one.  Yes-instances pass all three tests with probability 1; for
no-instances the probability of surviving L steps decays like the L-th
power of the top eigenvalue of G.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .ops import OperatorSum, apply_to_basis
from .instances import StoqSatInstance


@dataclass(frozen=True)
class WalkConfig:
    steps: int
    seed: int = 0
    eta_walk: float = 1e-9

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.eta_walk <= 0:
            raise ValueError("eta_walk must be positive")


@dataclass
class WalkTranscript:
    visited: list
    log_r_sum: float
    accepted: bool
    reject_step: int = None
    reject_reason: str = None  # diag-zero | unnormalized | product-exceeds-one
    rng_draws: int = 0
    sampling_delta: float = 0.0

    def to_json(self) -> str:
        return json.dumps({
            "visited": self.visited,
            "log_r_sum": self.log_r_sum,
            "accepted": self.accepted,
            "reject_step": self.reject_step,
            "reject_reason": self.reject_reason,
            "rng_draws": self.rng_draws,
            "sampling_delta": self.sampling_delta,
        })


def build_G(instance: StoqSatInstance) -> OperatorSum:
    """G = (1/M) sum of projectors, kept term-wise (never assembled here)."""
    m = instance.m
    return OperatorSum(instance.n, instance.projectors, (1.0 / m,) * m)


def required_steps(n: int, epsilon: float, m: int) -> int:
    """Smallest L with 2^(n/2) (1 - epsilon/M)^L <= 1/3."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if m < 1:
        raise ValueError("M must be >= 1")
    base = 1.0 - epsilon / m
    if base <= 0.0:
        return 1
    # ln(3 * 2^(n/2)) / -ln(base), then fix rounding by direct check
    est = (math.log(3.0) + 0.5 * n * math.log(2.0)) / (-math.log(base))
    L = max(1, math.ceil(est) - 2)
    while 2 ** (n / 2.0) * base**L > 1.0 / 3.0:
        L += 1
    return L


class WalkRunner:
    """Protocol executor: one trial engine over compiled rows of G.

    The per-string work (diagonal checks, neighborhoods, transition
    weights) is deterministic, so each string is compiled once, on its
    first visit, and every later trial walks the cached row.
    """

    def __init__(self, instance: StoqSatInstance, eta_walk: float = 1e-9):
        self.instance = instance
        self.eta = eta_walk
        self.g = build_G(instance)
        self._dim = 2**instance.n
        # compiled rows and reject reasons are kept apart so that the
        # per-step lookup of a cached row is one dict get
        self._rows: dict = {}
        self._rejects: dict = {}

    # -- per-string protocol data ------------------------------------------

    def diag_positive(self, x: int) -> bool:
        """Step 2: <x|Pi_a|x> > 0 for every projector."""
        return all(p.diag(x) > self.eta for p in self.instance.projectors)

    def neighborhood(self, x: int) -> list:
        """Step 3: all y with G_{x,y} above tolerance, with the entries."""
        row = apply_to_basis(self.g, x)
        return sorted((y, v) for y, v in row.items() if v > self.eta)

    def transition_probabilities(self, x: int):
        """Steps 3-5: returns (ys, ps, rs, alphas) in ascending y order.

        r = P/G is the amplitude ratio sqrt(<y|Pi|y>/<x|Pi|x>) for the
        smallest projector index with <y|Pi|x> > 0.
        """
        neigh = self.neighborhood(x)
        ys, ps, rs, alphas = [], [], [], []
        for y, gxy in neigh:
            alpha = None
            for a, p in enumerate(self.instance.projectors):
                if p.element(y, x) > self.eta:
                    alpha = a
                    break
            if alpha is None:
                # G_{x,y} > 0 forces some cross element > 0; tolerance split
                # can lose it, treat as an unnormalizable direction
                ys.append(y)
                ps.append(0.0)
                rs.append(0.0)
                alphas.append(-1)
                continue
            p = self.instance.projectors[alpha]
            dx, dy = p.diag(x), p.diag(y)
            if dx <= self.eta:
                ys.append(y)
                ps.append(0.0)
                rs.append(0.0)
                alphas.append(alpha)
                continue
            r = math.sqrt(dy / dx)
            ys.append(y)
            ps.append(gxy * r)
            rs.append(r)
            alphas.append(alpha)
        return ys, ps, rs, alphas

    def _row(self, x: int):
        """The compiled row of string x, or the reason the walk rejects there.

        Each string is compiled once, on its first visit.  A row is
        (bounds, moves, delta): the cumulative transition weights without
        the last one, so that bisect_left over them picks the same
        neighbour as np.searchsorted over all of them clamped to the last;
        one (y, log r) pair per neighbour in ascending y order, with log r
        None where r <= 0, which rejects as unnormalized when drawn; and
        the per-step sampling error bound len(ys) * 2^-53.
        """
        reason = self._rejects.get(x)
        if reason is not None:
            return reason
        if not self.diag_positive(x):
            reason = "diag-zero"
        else:
            ys, ps, rs, _ = self.transition_probabilities(x)
            if (abs(sum(ps) - 1.0) <= self.eta * max(1, len(ys))
                    and all(p >= 0.0 for p in ps)):
                row = (np.cumsum(ps).tolist()[:-1],
                       [(y, math.log(r) if r > 0.0 else None)
                        for y, r in zip(ys, rs)],
                       len(ys) * 2.0**-53)
                self._rows[x] = row
                return row
            reason = "unnormalized"
        self._rejects[x] = reason
        return reason

    # -- protocol ----------------------------------------------------------

    def run(self, witness: int, config: WalkConfig) -> WalkTranscript:
        rng = np.random.default_rng(
            np.random.SeedSequence(config.seed))
        return self._run_with_rng(witness, config, rng)

    def trials(self, witness: int, config: WalkConfig, count: int,
               majority: int = 1):
        """Yield trials 0..count-1, each as the list of its ``majority``
        transcripts; vote v of trial i walks on the child seed
        (config.seed, i, v), so every trial is a pure function of
        (instance, witness, config, i, v)."""
        if count < 1:
            raise ValueError("trials must be >= 1")
        for i in range(count):
            yield [self._run_with_rng(witness, config, np.random.default_rng(
                np.random.SeedSequence(config.seed, spawn_key=(i, v))))
                for v in range(majority)]

    def _run_with_rng(self, witness: int, config: WalkConfig, rng) -> WalkTranscript:
        """One trial, Steps 1-11: the protocol's only per-step loop."""
        if not 0 <= witness < self._dim:
            raise ValueError(f"witness {witness} out of range "
                             f"[0, 2^{self.instance.n})")
        rows = self._rows
        L = config.steps
        x = witness
        visited = [x]
        log_r_sum = 0.0
        delta = 0.0
        row = rows.get(x) or self._row(x)
        if isinstance(row, str):
            return WalkTranscript(visited, log_r_sum, False, 0, row, 0, delta)
        for j, u in enumerate(chain.from_iterable(_uniforms(rng, L))):
            bounds, moves, d = row
            # Step 8: seeded inverse CDF over the checked distribution
            x, log_r = moves[bisect_left(bounds, u)]
            delta += d
            if log_r is None:
                return WalkTranscript(visited, log_r_sum, False, j,
                                      "unnormalized", j + 1, delta)
            log_r_sum += log_r
            visited.append(x)
            row = rows.get(x)
            if row is None:
                row = self._row(x)
                if isinstance(row, str):
                    return WalkTranscript(visited, log_r_sum, False, j + 1,
                                          row, j + 1, delta)
        if log_r_sum > config.eta_walk * L:
            return WalkTranscript(visited, log_r_sum, False, L,
                                  "product-exceeds-one", L, delta)
        return WalkTranscript(visited, log_r_sum, True, rng_draws=L,
                              sampling_delta=delta)


def _uniforms(rng, L: int):
    """Yield a trial's L uniforms as lists of doubling length from 32, so a
    walk that stops early draws few.  The floats are those of L scalar
    rng.random() calls."""
    start, size = 0, 32
    while start < L:
        yield rng.random(min(size, L - start)).tolist()
        start += size
        size *= 2


def run_walk(instance: StoqSatInstance, witness: int,
             config: WalkConfig) -> WalkTranscript:
    """Single protocol run (Steps 1-11)."""
    return WalkRunner(instance, config.eta_walk).run(witness, config)


def wilson_interval(successes: int, trials: int, z: float = 1.959963984540054):
    """Wilson score interval for a binomial proportion."""
    if trials == 0:
        return 0.0, 0.0, 1.0
    p = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z2 / (4 * trials * trials)) / denom
    # at p = 0 and p = 1 center - half and center + half are exactly 0
    # and 1; in floating point they miss by an ulp of the terms
    lower = 0.0 if successes == 0 else max(0.0, center - half)
    upper = 1.0 if successes == trials else min(1.0, center + half)
    return p, lower, upper


@dataclass
class AcceptanceReport:
    rate: float
    lower: float
    upper: float
    trials: int
    accepted: int
    deterministic: bool = False


def acceptance_rate(instance: StoqSatInstance, witness: int, trials: int,
                    config: WalkConfig, runner: WalkRunner = None,
                    majority: int = 1) -> AcceptanceReport:
    """Monte Carlo acceptance over seeded independent trials.

    Trial i uses the child seed (config.seed, i), so results are a pure
    function of (instance, witness, trials, seed).  ``majority`` > 1
    repeats each trial and takes a majority vote (the amplification
    wrapper for delta-perturbed sampling).
    """
    if runner is None:
        runner = WalkRunner(instance, config.eta_walk)
    accepted = 0
    for i, votes in enumerate(runner.trials(witness, config, trials, majority)):
        outcome = sum(t.accepted for t in votes) * 2 > majority
        if i == 0 and not any(t.rng_draws for t in votes):
            # no randomness consumed: every trial is identical
            acc = trials if outcome else 0
            rate, lo, hi = (1.0, 1.0, 1.0) if outcome else (0.0, 0.0, 0.0)
            return AcceptanceReport(rate, lo, hi, trials, acc, deterministic=True)
        accepted += int(outcome)
    rate, lo, hi = wilson_interval(accepted, trials)
    return AcceptanceReport(rate, lo, hi, trials, accepted)
