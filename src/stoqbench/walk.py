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
from itertools import accumulate, chain
from typing import NamedTuple

import numpy as np

from .ops import ETA, OperatorSum, apply_to_basis, column
from .instances import StoqSatInstance

# exact_acceptance leaves a closure of more strings than this to the Monte
# Carlo: P^L on the closure costs (strings)^3 log L.
EXACT_CLOSURE_CAP = 64

# The most by which an edge's log r may miss phi(y) - phi(x) in
# exact_acceptance: far below ETA, so that the drift it allows over L
# steps stays clear of the ETA * L threshold.
PHI_TOL = 1e-12


@dataclass(frozen=True)
class WalkConfig:
    steps: int
    seed: int = 0

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


class TrialRecord(NamedTuple):
    """One trial as the loop leaves it.  ``steps`` is the steps taken (L
    for a trial that reached the product test), ``reject_step`` is None
    for an accepted trial, and ``moves`` is the (step, string) of each
    draw that left the lazy-step lane, the walk being at that string after
    the step; a lazy step records nothing.  WalkRunner.transcript expands
    it into the WalkTranscript."""
    accepted: bool
    steps: int
    reject_step: int
    reject_reason: str
    log_r_sum: float
    rng_draws: int
    moves: list


# the record of a trial rejected at its witness, by reason: its moves are
# an empty tuple, so it cannot change, and every such trial returns it
_REJECTED_AT_START = {reason: TrialRecord(False, 0, 0, reason, 0.0, 0, ())
                      for reason in ("diag-zero", "unnormalized")}


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
        # the fields in declaration order; dataclasses.asdict would deep-copy
        # ``visited`` first
        return json.dumps(vars(self))


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
    return smallest_power(n / 2.0, base, 1.0 / 3.0)


def smallest_power(log2_scale: float, base: float, bound: float) -> int:
    """Smallest L >= 1 with 2^log2_scale * base^L <= bound, for 0 < base < 1.

    The search runs on scale = 2^log2_scale itself while scale / bound is
    a finite double, and on logarithms where it would overflow."""
    if not 0.0 < base < 1.0:
        raise ValueError(f"the per-step decay {base!r} is not below 1 in "
                         "double precision, so no power of it reaches the "
                         "bound")
    scale = 2.0**log2_scale if log2_scale < 1024 else math.inf
    if scale / bound < math.inf:
        # ln(scale / bound) / -ln(base), then fix rounding by direct check
        L = max(1, math.ceil(math.log(scale / bound) / -math.log(base)) - 2)
        while scale * base**L > bound:
            L += 1
        return L
    # the same search on ln(scale / bound) + L ln(base)
    log_excess = log2_scale * math.log(2.0) - math.log(bound)
    L = max(1, math.ceil(log_excess / -math.log(base)) - 2)
    while log_excess + L * math.log(base) > 0.0:
        L += 1
    return L


class WalkRunner:
    """Protocol executor: one trial engine over compiled rows of G.

    The per-string work (diagonal checks, neighborhoods, transition
    weights) is deterministic, so each string is compiled once, on its
    first visit, and every later trial walks the cached row.  Every
    positivity, normalization and product test is against ETA.
    """

    def __init__(self, instance: StoqSatInstance):
        self.instance = instance
        self.g = build_G(instance)
        # compiled rows and reject reasons are kept apart so that the
        # per-step lookup of a cached row is one dict get
        self._rows: dict = {}
        self._rejects: dict = {}
        # per projector, its columns <.|Pi|x> keyed by x's bits on its
        # support, each built by ops.column on first use
        self._columns = tuple((w, p, {}) for w, p in
                              zip(self.g.weights, self.g.terms))

    # -- per-string protocol data ------------------------------------------

    @staticmethod
    def _fill(p, columns: dict, key: int):
        """Projector p's column at the strings whose bits on its support
        are ``key``, built by ops.column and kept in ``columns``."""
        col = columns[key] = column(p, key)
        return col

    def diag_positive(self, x: int) -> bool:
        """Step 2: <x|Pi_a|x> > 0 for every projector, checked in index
        order up to the first that fails."""
        for _, p, columns in self._columns:
            key = x & p.mask
            if not (columns.get(key) or self._fill(p, columns, key))[0] > ETA:
                return False
        return True

    def neighborhood(self, x: int) -> list:
        """Step 3: all y with G_{x,y} above tolerance, with the entries."""
        row = apply_to_basis(self.g, x)
        return sorted((y, v) for y, v in row.items() if v > ETA)

    def transition_probabilities(self, x: int):
        """Steps 3-5: returns (ys, ps, rs) in ascending y order.

        r = P/G is the amplitude ratio sqrt(<y|Pi|y>/<x|Pi|x>) for the
        smallest projector index with <y|Pi|x> > 0.  One pass over the
        projectors' columns at x in index order sums G_{x,y} as
        apply_to_basis does and takes r from the first entry above ETA.
        """
        g, r = {}, {}
        for w, p, columns in self._columns:
            key = x & p.mask
            dx, entries = columns.get(key) or self._fill(p, columns, key)
            base = x ^ key
            for s, v, dy in entries:
                y = base | s
                g[y] = g.get(y, 0.0) + w * v
                if v > ETA and y not in r:
                    r[y] = math.sqrt(dy / dx) if dx > ETA else 0.0
        # G_{x,y} > 0 forces some cross element > 0; a tolerance split can
        # lose it, and r = 0 marks that unnormalizable direction
        ys = sorted(y for y, v in g.items() if v > ETA)
        rs = [r.get(y, 0.0) for y in ys]
        return ys, [g[y] * ry for y, ry in zip(ys, rs)], rs

    def _row(self, x: int):
        """The compiled row of string x, or the reason the walk rejects there.

        Each string is compiled once, on its first visit.  A row is
        (bounds, moves, delta, lo, hi): the cumulative transition weights
        without the last one, so that bisect_left over them picks the same
        neighbour as np.searchsorted over all of them clamped to the last;
        one (y, log r) pair per neighbour in ascending y order, with log r
        None where r <= 0, which rejects as unnormalized when drawn; the
        per-step sampling error bound len(ys) * 2^-53; and the lazy-step
        lane, the interval (lo, hi] of uniforms for which bisect_left picks
        the self move x -> x.  The lane is empty (lo = hi = inf) unless
        that move exists with log r exactly 0.0, so that taking it adds
        nothing to the log-ratio sum (r = sqrt(diag(x)/diag(x)) is 1).
        """
        reason = self._rejects.get(x)
        if reason is not None:
            return reason
        if not self.diag_positive(x):
            reason = "diag-zero"
        else:
            ys, ps, rs = self.transition_probabilities(x)
            if (abs(sum(ps) - 1.0) <= ETA * max(1, len(ys))
                    and all(p >= 0.0 for p in ps)):
                bounds = list(accumulate(ps))[:-1]
                moves = [(y, math.log(r) if r > 0.0 else None)
                         for y, r in zip(ys, rs)]
                lo = hi = math.inf
                k = bisect_left(ys, x)
                if k < len(ys) and moves[k] == (x, 0.0):
                    lo = bounds[k - 1] if k else -math.inf
                    hi = bounds[k] if k < len(bounds) else math.inf
                row = (bounds, moves, len(ys) * 2.0**-53, lo, hi)
                self._rows[x] = row
                return row
            reason = "unnormalized"
        self._rejects[x] = reason
        return reason

    # -- protocol ----------------------------------------------------------

    def run(self, witness: int, config: WalkConfig) -> WalkTranscript:
        rng = next(_generators(config.seed, 1, 1))
        record = self._run_with_rng(witness, config, rng)
        return self.transcript(witness, record)

    def transcript(self, witness: int, record: TrialRecord) -> WalkTranscript:
        """The transcript of a trial from ``witness`` that this runner
        walked, expanded from its record: ``visited`` holds each string
        again for every lazy step up to the next move, and
        ``sampling_delta`` adds, left to right from 0.0 with one addition
        per draw, the row bound d of the string at each of the first
        ``rng_draws`` steps (no sum or fsum, whose rounding differs)."""
        visited = [witness]
        for j, y in record.moves:
            visited += [visited[-1]] * (j - len(visited) + 1)
            visited.append(y)
        visited += [visited[-1]] * (record.steps + 1 - len(visited))
        rows = self._rows
        delta = 0.0
        for x in visited[:record.rng_draws]:
            delta += rows[x][2]
        return WalkTranscript(visited, record.log_r_sum, record.accepted,
                              record.reject_step, record.reject_reason,
                              record.rng_draws, delta)

    def sweep(self, witness: int, config: WalkConfig, count: int,
              majority: int = 1):
        """``count`` trials of ``majority`` votes each, as (first, votes) of
        TrialRecords.

        When no draw can change a record, ``first`` is trial 0's record,
        run once, which every vote of every trial would give, and
        ``votes`` is empty: the walk rejects at the witness before its
        first draw, or the witness is a fixed point (G_ww = 1, as every
        satisfying string of a CNF), whose row is the one move w -> w with
        log r = 0, which bisect_left over the empty bounds picks for every
        uniform.  Otherwise ``first`` is None and ``votes`` lazily yields
        each trial as the list of its ``majority`` records; vote v of
        trial i draws numpy's Philox stream with the key of
        Philox(config.seed) and counter [0, 0, i, v], so every trial is a
        pure function of (instance, witness, config, i, v).  A witness
        that ``certain`` accepts still yields votes here, since its
        records' moves follow the draws; a caller that needs only the
        tally asks ``certain`` instead.
        """
        _check_counts(count, majority)
        row = self._start(witness)
        if isinstance(row, str):
            return self._run_with_rng(witness, config, None), ()
        fixed = row[1] == [(witness, 0.0)]
        rngs = _generators(config.seed, 1 if fixed else count, majority)
        if fixed:  # trial 0's stream, which run draws
            return self._run_with_rng(witness, config, next(rngs)), ()
        return None, ([self._run_with_rng(witness, config, next(rngs))
                       for _ in range(majority)] for _ in range(count))

    def certain(self, witness: int, cap: int) -> bool:
        """True when every trial from ``witness`` is accepted, whatever it
        draws: every string reachable from it has a compiled row, and every
        move of those rows has log r exactly 0.0, so a trial takes its L
        steps adding only 0.0 to log_r_sum (as on |+> projectors, where
        theta is flat on the witness's support).  False when the ``flat``
        closure pass stops: at the first rejecting row, the first move
        whose log r is not 0.0 (None included), or once the closure would
        pass ``cap`` strings.
        """
        return self._closure(witness, cap, flat=True) is not None

    def exact_acceptance(self, witness: int, steps: int, cap: int):
        """The probability that a trial of ``steps`` steps from ``witness``
        is accepted, summed over its closure, or None.

        The walk is a Markov chain P on the closure: string x moves to the
        y of its k-th move with probability bounds[k] - bounds[k-1], the
        differences of [0, *bounds, 1], as bisect_left draws it for a
        uniform.  A move whose log r is None, or into a rejecting string,
        carries rejection mass and has no entry in P.  log_r_sum
        telescopes on the potential phi(y) = phi(x) + log r(x, y), with
        phi(witness) = 0, so a trial that survives is accepted when its
        end string has phi <= ETA * steps.  The answer is the mass that
        row ``witness`` of P^steps puts on those strings, clamped to [0, 1];
        exactly 1.0 when no closure string rejects, no move has log r None
        and every end string passes, and 0.0 when the walk rejects at the
        witness.  None when the closure would pass ``cap`` strings, when an
        edge breaks phi by more than PHI_TOL, or when an end string's phi
        is so close to ETA * steps that a trial's rounded log_r_sum could
        fall on either side.
        """
        closure = self._closure(witness, cap)
        if closure is None:
            return None
        live = {x: row for x, row in closure if isinstance(row, tuple)}
        if witness not in live:  # every trial rejects at the witness
            return 0.0
        index = {x: i for i, x in enumerate(live)}  # the witness is 0
        P = np.zeros((len(index), len(index)))
        phi = {witness: 0.0}
        sure = len(live) == len(closure)
        # closure order is discovery order: phi[x] is set before x's row
        for x, (bounds, moves, *_) in live.items():
            for (y, log_r), lo, hi in zip(moves, [0.0, *bounds],
                                          [*bounds, 1.0]):
                if log_r is None or y not in index:
                    sure = False
                    continue
                P[index[x], index[y]] = hi - lo
                f = phi.setdefault(y, phi[x] + log_r)
                if abs(phi[x] + log_r - f) > PHI_TOL:
                    return None
        mass = np.linalg.matrix_power(P, steps)[0]
        ends = [(m, phi[x]) for x, m in zip(index, mass.tolist()) if m > 0.0]
        # a trial's log_r_sum is its end string's phi, off by at most
        # PHI_TOL per step and the rounding of its running sum
        threshold = ETA * steps
        span = max(abs(f) for f in phi.values())
        margin = steps * (PHI_TOL + 2.0**-51 * (span + steps * PHI_TOL))
        if any(abs(f - threshold) <= margin for _, f in ends):
            return None
        passed = [m for m, f in ends if f <= threshold]
        if sure and len(passed) == len(ends):
            return 1.0
        return min(1.0, max(0.0, math.fsum(passed)))

    def _closure(self, witness: int, cap: int, flat: bool = False):
        """Depth-first pass over the strings that a walk from ``witness``
        can reach, filling the row cache: the list of (x, row) in the order
        of each string's first visit, row its compiled row or the reason
        the walk rejects there; None once the closure would pass ``cap``
        strings.  A move whose log r is None is not followed: the walk
        rejects on drawing it.  With ``flat`` the pass also returns None at
        the first rejecting row and at the first move whose log r is not
        0.0, before it compiles another row."""
        self._start(witness)
        rows = self._rows
        seen, todo, out = {witness}, [witness], []
        while todo:
            x = todo.pop()
            row = rows.get(x) or self._row(x)
            out.append((x, row))
            if isinstance(row, str):
                if flat:
                    return None
                continue
            for y, log_r in row[1]:
                if log_r != 0.0:
                    if flat:
                        return None
                    if log_r is None:
                        continue
                if y not in seen:
                    if len(seen) >= cap:
                        return None
                    seen.add(y)
                    todo.append(y)
        return out

    def _start(self, witness: int):
        """The compiled row of the witness, or the reason the walk rejects
        there, after checking the witness is a basis string."""
        if witness < 0 or witness >> self.instance.n:
            raise ValueError(f"witness {witness} out of range "
                             f"[0, 2^{self.instance.n})")
        return self._rows.get(witness) or self._row(witness)

    def _run_with_rng(self, witness: int, config: WalkConfig, rng) -> TrialRecord:
        """One trial, Steps 1-11: the protocol's only per-step loop.  A
        lazy step costs only the test of u against the row's lane."""
        rows = self._rows
        # a string in either cache is a basis string: _start checked it
        row = (rows.get(witness) or self._rejects.get(witness)
               or self._start(witness))
        if isinstance(row, str):
            return _REJECTED_AT_START[row]
        L = config.steps
        log_r_sum = 0.0
        taken = []
        bounds, moves, _, lo, hi = row
        for j, u in enumerate(chain.from_iterable(_uniforms(rng, L))):
            if lo < u <= hi:
                # the lazy step x -> x: bisect_left would pick it, and its
                # log r of 0.0 leaves log_r_sum and the row as they are
                continue
            # Step 8: seeded inverse CDF over the checked distribution
            x, log_r = moves[bisect_left(bounds, u)]
            if log_r is None:
                return TrialRecord(False, j, j, "unnormalized", log_r_sum,
                                   j + 1, taken)
            log_r_sum += log_r
            taken.append((j, x))
            row = rows.get(x)
            if row is None:
                row = self._row(x)
                if isinstance(row, str):
                    return TrialRecord(False, j + 1, j + 1, row, log_r_sum,
                                       j + 1, taken)
            bounds, moves, _, lo, hi = row
        if log_r_sum > ETA * L:
            return TrialRecord(False, L, L, "product-exceeds-one", log_r_sum,
                               L, taken)
        return TrialRecord(True, L, None, None, log_r_sum, L, taken)


def _check_counts(count: int, majority: int) -> None:
    if count < 1:
        raise ValueError("trials must be >= 1")
    if majority < 1:
        raise ValueError("majority must be >= 1")


def _uniforms(rng, L: int):
    """Yield a trial's L uniforms as lists of doubling length from 32, so a
    walk that stops early draws few.  The floats are those of L scalar
    rng.random() calls."""
    start, size = 0, 32
    while start < L:
        yield rng.random(min(size, L - start)).tolist()
        start += size
        size *= 2


def _generators(seed: int, count: int, majority: int):
    """Yield one Generator per vote, i major: vote v of trial i draws
    numpy's Generator(Philox(key=k, counter=[0, 0, i, v])), where k is the
    key Philox(seed) derives, so every vote owns a counter block.  One
    Philox is built per call and the same Generator is yielded every time,
    reset, so it must be used up before the next one is drawn."""
    rng = np.random.Generator(np.random.Philox(seed))
    bitgen = rng.bit_generator
    # the initial state has buffer_pos 4: no buffered word carries over
    state = bitgen.state
    for i in range(count):
        for v in range(majority):
            state["state"]["counter"] = [0, 0, i, v]
            bitgen.state = state
            yield rng


def wilson_interval(successes: int, trials: int):
    """95% Wilson score interval for a binomial proportion (z = 1.95996...)."""
    if trials == 0:
        return 0.0, 0.0, 1.0
    p = successes / trials
    z = 1.959963984540054
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
    accepted: int  # None in an exact report, which runs no trial
    deterministic: bool = False
    exact: bool = False


def acceptance_rate(instance: StoqSatInstance, witness: int, trials: int,
                    config: WalkConfig, runner: WalkRunner = None,
                    majority: int = 1) -> AcceptanceReport:
    """Acceptance probability of a witness: exact where the closure allows,
    else Monte Carlo over seeded independent trials.

    The trials are those of WalkRunner.sweep: vote v of trial i draws the
    Philox stream with counter [0, 0, i, v], so results are a pure
    function of (instance, witness, trials, seed).  When no draw can
    change the tally the report is marked deterministic and at most trial
    0 runs: 0 <= 0 <= 0 for a rejection at step 0, and the Wilson
    interval of all trials accepted, as the Monte Carlo would give it,
    for a fixed point or a witness that ``WalkRunner.certain`` accepts
    within trials x majority x steps strings.  Otherwise, when
    ``WalkRunner.exact_acceptance`` gives the probability p within
    EXACT_CLOSURE_CAP strings, no trial runs and the report is marked
    exact: rate = lower = upper = the chance that more than half of
    ``majority`` independent votes accept, p itself for one vote, with
    ``accepted`` None.  ``majority`` > 1 repeats each trial and takes a
    majority vote (the amplification wrapper for delta-perturbed
    sampling).
    """
    if runner is None:
        runner = WalkRunner(instance)
    elif runner.instance is not instance:
        raise ValueError("runner was built for another instance")
    first, votes = runner.sweep(witness, config, trials, majority)
    if first is not None and not first.accepted:
        return AcceptanceReport(0.0, 0.0, 0.0, trials, 0, deterministic=True)
    if first is not None or runner.certain(
            witness, trials * majority * config.steps):
        return AcceptanceReport(*wilson_interval(trials, trials), trials,
                                trials, deterministic=True)
    p = runner.exact_acceptance(witness, config.steps, EXACT_CLOSURE_CAP)
    if p is not None:
        p = _majority_tail(p, majority)
        return AcceptanceReport(p, p, p, trials, None, exact=True)
    accepted = 0
    for trial in votes:
        accepted += sum(t.accepted for t in trial) * 2 > majority
    rate, lo, hi = wilson_interval(accepted, trials)
    return AcceptanceReport(rate, lo, hi, trials, accepted)


def _majority_tail(p: float, majority: int) -> float:
    """The chance that more than half of ``majority`` independent votes,
    each accepted with probability p, accept: the binomial tail, its terms
    in log space so that no binomial coefficient overflows a double."""
    if majority == 1 or p in (0.0, 1.0):
        return p
    log_p, log_q, top = math.log(p), math.log1p(-p), math.lgamma(majority + 1)
    return min(1.0, math.fsum(
        math.exp(top - math.lgamma(k + 1) - math.lgamma(majority - k + 1)
                 + k * log_p + (majority - k) * log_q)
        for k in range(majority // 2 + 1, majority + 1)))
