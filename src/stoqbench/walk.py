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
from itertools import chain, repeat

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
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


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
        """Steps 3-5: returns (ys, ps, rs) in ascending y order.

        r = P/G is the amplitude ratio sqrt(<y|Pi|y>/<x|Pi|x>) for the
        smallest projector index with <y|Pi|x> > 0.
        """
        ys, ps, rs = [], [], []
        for y, gxy in self.neighborhood(x):
            # G_{x,y} > 0 forces some cross element > 0; a tolerance split
            # can lose it, and r = 0 marks that unnormalizable direction
            p = next((p for p in self.instance.projectors
                      if p.element(y, x) > self.eta), None)
            r = 0.0
            if p is not None and p.diag(x) > self.eta:
                r = math.sqrt(p.diag(y) / p.diag(x))
            ys.append(y)
            ps.append(gxy * r)
            rs.append(r)
        return ys, ps, rs

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
            ys, ps, rs = self.transition_probabilities(x)
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
        rng = next(_generators(config.seed, [np.zeros((1, 0), np.uint32)]))
        return self._run_with_rng(witness, config, rng)

    def trials(self, witness: int, config: WalkConfig, count: int,
               majority: int = 1):
        """Yield trials 0..count-1, each as the list of its ``majority``
        transcripts; vote v of trial i draws the PCG64 stream of numpy's
        seed sequence with entropy config.seed and spawn key (i, v), so
        every trial is a pure function of (instance, witness, config, i,
        v)."""
        if count < 1:
            raise ValueError("trials must be >= 1")
        if majority < 1:
            raise ValueError("majority must be >= 1")
        if count > _KEY_LIMIT or majority > _KEY_LIMIT:
            # a larger i or v would be a two-word spawn key
            raise ValueError("trials and majority must be <= 2^32")
        if isinstance(self._start(witness), str):
            # the walk rejects before its first draw, so no trial draws
            rngs = repeat(None)
        else:
            rngs = _generators(config.seed, _trial_keys(count, majority))
        for _ in range(count):
            yield [self._run_with_rng(witness, config, next(rngs))
                   for _ in range(majority)]

    def _start(self, witness: int):
        """The compiled row of the witness, or the reason the walk rejects
        there, after checking the witness is a basis string."""
        if not 0 <= witness < self._dim:
            raise ValueError(f"witness {witness} out of range "
                             f"[0, 2^{self.instance.n})")
        return self._rows.get(witness) or self._row(witness)

    def _run_with_rng(self, witness: int, config: WalkConfig, rng) -> WalkTranscript:
        """One trial, Steps 1-11: the protocol's only per-step loop."""
        row = self._start(witness)
        rows = self._rows
        L = config.steps
        x = witness
        visited = [x]
        log_r_sum = 0.0
        delta = 0.0
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


# Trial streams.  Vote v of trial i draws the PCG64 stream of numpy's seed
# sequence with entropy ``seed`` and spawn key (i, v).  Building that seed
# sequence and a generator costs about 20 us per trial, so the hash is
# rebuilt here: the seed's words are mixed into the pool once, in Python
# ints, the spawn-key words are finished for a block of keys at a time as
# uint32 arrays, and each key's PCG64 state is assigned to one reused
# Generator.  The constants are those of numpy/random/bit_generator.pyx
# and of PCG64's 128-bit LCG; tests compare every step with numpy's.
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_KEY_LIMIT = 2**32
_KEY_BLOCK = 4096


def _hash_constants(const: int, mult: int):
    """The successive (xor, multiply) constant pairs of the seed hash."""
    while True:
        nxt = const * mult & _MASK32
        yield const, nxt
        const = nxt


def _hashmix(value, xor, mult):
    """One hash step, on Python ints or on uint32 arrays (which wrap)."""
    value = (value ^ xor) * mult & _MASK32
    return value ^ value >> 16


def _mix(x, y):
    r = (_MIX_L * x - _MIX_R * y) & _MASK32
    return r ^ r >> 16


def _absorb(pool, consts, words):
    """Mix entropy words past the pool size into every word of the (4, 1)
    or (4, k) uint32 pool; a word is an int or a column of k key words."""
    for word in words:
        xor, mult = np.array([next(consts) for _ in range(_POOL)],
                             np.uint32).T[..., None]
        pool = _mix(pool, _hashmix(word, xor, mult))
    return pool


def _seed_pool(seed: int):
    """The seed sequence's pool after mixing in the seed's 32-bit words (zero
    padded to the pool size) as a (4, 1) uint32 array, and the hash
    constant it ends on."""
    seed = int(seed)
    words = [seed & _MASK32]
    while seed > _MASK32:
        seed >>= 32
        words.append(seed & _MASK32)
    words += [0] * (_POOL - len(words))
    consts = _hash_constants(_INIT_A, _MULT_A)
    pool = [_hashmix(word, *next(consts)) for word in words[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst],
                                 _hashmix(pool[src], *next(consts)))
    pool = _absorb(np.array(pool, np.uint32)[:, None], consts,
                   words[_POOL:])
    return pool, next(consts)[0]


def _pcg64_words(pool, const: int, keys):
    """The seed sequence's generate_state(4, uint64) for spawn key ``key``,
    for each row of the uint32 array ``keys``, as lists of four ints, from
    the seed's (pool, const)."""
    pool = _absorb(pool, _hash_constants(const, _MULT_A), keys.T)
    consts = _hash_constants(_INIT_B, _MULT_B)
    xor, mult = np.array([next(consts) for _ in range(2 * _POOL)],
                         np.uint32).T[..., None]
    words = _hashmix(np.tile(pool, (2, 1)), xor, mult).astype(np.uint64)
    return (words[0::2] | words[1::2] << 32).T.tolist()


def _generators(seed: int, key_blocks):
    """Yield one Generator per spawn key, in the state numpy seeds a new
    PCG64 with from entropy ``seed`` and that key; ``key_blocks`` yields
    uint32 arrays with one key per row.  The same Generator is yielded
    every time, re-seeded, so it must be used up before the next one is
    drawn."""
    pool, const = _seed_pool(seed)
    rng = np.random.Generator(np.random.PCG64(0))
    bitgen = rng.bit_generator
    for keys in key_blocks:
        for hi0, lo0, hi1, lo1 in _pcg64_words(pool, const, keys):
            # PCG64 seeding: inc = 2 initseq + 1, then two LCG steps
            inc = (hi1 << 65 | lo1 << 1 | 1) & _MASK128
            state = ((hi0 << 64 | lo0) + inc) * _PCG_MULT + inc & _MASK128
            bitgen.state = {"bit_generator": "PCG64",
                            "state": {"state": state, "inc": inc},
                            "has_uint32": 0, "uinteger": 0}
            yield rng


def _trial_keys(count: int, majority: int):
    """Spawn keys (i, v) for i < count and v < majority, i major, in blocks
    of at most _KEY_BLOCK keys (one trial's votes if majority is larger)."""
    per = max(1, _KEY_BLOCK // majority)
    votes = np.arange(majority, dtype=np.uint32)
    for start in range(0, count, per):
        trials = np.arange(start, min(start + per, count)).astype(np.uint32)
        yield np.column_stack([np.repeat(trials, majority),
                               np.tile(votes, len(trials))])


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

    Vote v of trial i draws the stream of numpy's seed sequence with
    entropy config.seed and spawn key (i, v), so results are a pure
    function of (instance, witness, trials, seed); a witness rejected at
    step 0 gives the same transcript in every trial, so only trial 0
    runs.  ``majority`` > 1
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
