import csv
import dataclasses
import decimal
import functools
import hashlib
import io
import itertools
import math
from bisect import bisect_left

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stoqbench import ops, spectral, walk
from stoqbench import (AcceptanceReport, Gate, LocalOperator, StoqSatInstance,
                       VerifierCircuit, WalkConfig, WalkRunner, WalkTranscript,
                       acceptance_rate, assemble_dense,
                       build_G, compile_circuit, export_6sat, from_dimacs,
                       honest_witness, random_projector_instance,
                       required_steps, save, save_circuit,
                       wilson_interval)
from stoqbench.cli import main as cli_main
from stoqbench.ops import ETA
from conftest import plus_instance
from test_acceptance import (completeness_fixtures, planted_sat_dimacs,
                             rejecting_circuits, soundness_fixtures)
from refs import ref_element

PLUS = np.array([[0.5, 0.5], [0.5, 0.5]])
SAT_3 = "p cnf 3 3\n1 2 0\n-1 3 0\n2 -3 0\n"
UNSAT_2 = "p cnf 2 4\n1 2 0\n-1 2 0\n1 -2 0\n-1 -2 0\n"


class TestBuildG:
    def test_single_term_passthrough(self):
        inst = StoqSatInstance(1, 1.0, (LocalOperator((0,), PLUS),))
        g = build_G(inst)
        assert np.array_equal(assemble_dense(g), PLUS)

    def test_duplicate_terms_average(self):
        p = LocalOperator((0,), PLUS)
        inst = StoqSatInstance(1, 1.0, (p, p))
        assert np.allclose(assemble_dense(build_G(inst)), PLUS)

    def test_diagonal_counts_satisfied_clauses(self):
        inst = from_dimacs(SAT_3)
        dense = assemble_dense(build_G(inst))
        for x in range(8):
            bits = [(x >> i) & 1 for i in range(3)]
            sat = sum([
                bits[0] or bits[1],
                (not bits[0]) or bits[2],
                bits[1] or (not bits[2]),
            ])
            assert dense[x, x] == pytest.approx(sat / 3.0)


class TestRequiredSteps:
    def test_epsilon_one_single_term(self):
        assert required_steps(1, 1.0, 1) == 1

    def test_half_epsilon_two_qubits(self):
        # smallest L with 2 * (1/2)^L <= 1/3
        assert required_steps(2, 0.5, 1) == 3

    def test_large_instance(self):
        assert required_steps(10, 0.1, 10) == 455

    def test_bad_epsilon_rejected(self):
        with pytest.raises(ValueError):
            required_steps(3, 0.0, 2)

    @staticmethod
    def product_search(n, epsilon, m):
        """required_steps as a search on 2^(n/2) itself, which overflows a
        double from n = 2045 on."""
        base = 1.0 - epsilon / m
        if base <= 0.0:
            return 1
        scale = 2 ** (n / 2.0)
        L = max(1, math.ceil(math.log(scale / (1.0 / 3.0))
                             / -math.log(base)) - 2)
        while scale * base**L > 1.0 / 3.0:
            L += 1
        return L

    def test_matches_product_search_where_it_is_finite(self):
        ns = sorted({*range(1, 2047, 5), *range(2030, 2047)})
        epsilons = (1e-3, 0.04894348370484802, 0.13397459621556085, 0.5, 1.0)
        finite = 0
        for n in ns:
            for m in range(1, 51):
                for eps in epsilons:
                    try:
                        want = self.product_search(n, eps, m)
                    except OverflowError:
                        assert n >= 2045 and eps / m < 1.0
                        continue
                    assert required_steps(n, eps, m) == want, (n, m, eps)
                    finite += 1
        # all but n = 2045 and 2046, where only M = 1 with epsilon = 1
        # (L = 1) avoids the product
        assert finite == len(ns) * 50 * len(epsilons) - 2 * 50 * 5 + 2

    @pytest.mark.parametrize("n", [2044, 2045, 2048, 2100, 4097, 10**6])
    @pytest.mark.parametrize("epsilon, m", [(1.0, 2), (0.5, 7), (1e-3, 50)])
    def test_smallest_L_beyond_the_double_range(self, n, epsilon, m):
        # checked in 50-digit decimal logarithms: 2^(n/2) base^L <= 1/3
        # holds at L and fails at L - 1
        with decimal.localcontext(decimal.Context(prec=50)):
            log_base = decimal.Decimal(1.0 - epsilon / m).ln()
            def log_bound(L):
                return (decimal.Decimal(n) / 2 * decimal.Decimal(2).ln()
                        + L * log_base - decimal.Decimal(1.0 / 3.0).ln())
            L = required_steps(n, epsilon, m)
            assert log_bound(L) <= 0 < log_bound(L - 1)

    def test_steps_grow_across_the_double_range(self):
        Ls = [required_steps(n, 0.5, 3) for n in range(2030, 2070)]
        assert Ls == sorted(Ls) and len(set(Ls)) > 1

    @pytest.mark.parametrize("epsilon", [1e-17, 1e-300])
    def test_decay_rounding_to_one_rejected(self, epsilon):
        with pytest.raises(ValueError, match="not below 1"):
            required_steps(3, epsilon, 2)


class TestTransitionProbabilities:
    def test_plus_projector_splits_evenly(self):
        inst = StoqSatInstance(1, 1.0, (LocalOperator((0,), PLUS),))
        runner = WalkRunner(inst)
        ys, ps, rs = runner.transition_probabilities(0)
        assert ys == [0, 1]
        assert ps == pytest.approx([0.5, 0.5])
        assert sum(ps) == pytest.approx(1.0)

    def test_skewed_rank_one_projector(self):
        psi = np.array([1.0, 2.0]) / math.sqrt(5.0)
        inst = StoqSatInstance(1, 1.0,
                               (LocalOperator((0,), np.outer(psi, psi)),))
        ys, ps, rs = WalkRunner(inst).transition_probabilities(0)
        assert ps == pytest.approx([0.2, 0.8])

    def test_two_projector_mix_normalizes(self):
        inst = StoqSatInstance(1, 0.5, (
            LocalOperator((0,), np.diag([1.0, 0.0])),
            LocalOperator((0,), PLUS),
        ))
        runner = WalkRunner(inst)
        ys, ps, rs = runner.transition_probabilities(0)
        assert sum(ps) == pytest.approx(1.0)

    def test_neighborhood_matches_dense_row(self):
        inst = plus_instance(3, [(0, 1), (1, 2)])
        runner = WalkRunner(inst)
        dense = assemble_dense(build_G(inst))
        for x in range(8):
            neigh = dict(runner.neighborhood(x))
            expect = {y: dense[x, y] for y in range(8) if dense[x, y] > 1e-9}
            assert neigh.keys() == expect.keys()
            for y in neigh:
                assert neigh[y] == pytest.approx(expect[y])


def reference_transition_probabilities(runner, x):
    """The per-neighbour scan the one-pass column table replaced: G's row
    through apply_to_basis, then r from the first projector in index order
    whose element <y|Pi|x> is above ETA, each element read by the test's
    own ref_element."""
    ys, ps, rs = [], [], []
    for y, gxy in runner.neighborhood(x):
        p = next((p for p in runner.instance.projectors
                  if ref_element(p, y, x) > ETA), None)
        r = 0.0
        if p is not None and ref_element(p, x, x) > ETA:
            r = math.sqrt(ref_element(p, y, y) / ref_element(p, x, x))
        ys.append(y)
        ps.append(gxy * r)
        rs.append(r)
    return ys, ps, rs


def reference_row(runner, x):
    """_row as it was compiled from the reference scan, with the
    cumulative weights from np.cumsum and Step 2 on ref_element."""
    if not all(ref_element(p, x, x) > ETA for p in runner.instance.projectors):
        return "diag-zero"
    ys, ps, rs = reference_transition_probabilities(runner, x)
    if not (abs(sum(ps) - 1.0) <= ETA * max(1, len(ys))
            and all(p >= 0.0 for p in ps)):
        return "unnormalized"
    bounds = np.cumsum(ps).tolist()[:-1]
    moves = [(y, math.log(r) if r > 0.0 else None) for y, r in zip(ys, rs)]
    lo = hi = math.inf
    k = bisect_left(ys, x)
    if k < len(ys) and moves[k] == (x, 0.0):
        lo = bounds[k - 1] if k else -math.inf
        hi = bounds[k] if k < len(bounds) else math.inf
    return bounds, moves, len(ys) * 2.0**-53, lo, hi


@st.composite
def row_instances(draw):
    """Plus and CNF instances, random projectors with k <= 4 and the two
    soundness exports."""
    kind = draw(st.sampled_from(["cnf", "plus", "random", "export"]))
    if kind == "export":
        return draw(st.sampled_from(soundness_exports()))
    n = draw(st.integers(3 if kind == "cnf" else 1, 6))
    if kind == "cnf":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        text, _ = planted_sat_dimacs(n, draw(st.integers(1, 2 * n)), rng)
        return from_dimacs(text)
    if kind == "plus":
        supports = draw(st.lists(
            st.lists(st.integers(0, n - 1), min_size=1, max_size=4,
                     unique=True), min_size=1, max_size=5))
        return plus_instance(n, supports)
    return random_projector_instance(n, draw(st.integers(1, min(4, n))),
                                     draw(st.integers(1, 6)),
                                     draw(st.integers(0, 2**32 - 1)))


class TestOnePassRows:
    """transition_probabilities reads each projector's column at x once,
    in index order, and gives the reference scan's rows bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(row_instances())
    def test_matches_reference_scan(self, inst):
        runner, ref = WalkRunner(inst), WalkRunner(inst)
        for x in range(2**inst.n):
            assert runner.transition_probabilities(x) \
                == reference_transition_probabilities(ref, x), x

    @settings(max_examples=60, deadline=None)
    @given(row_instances())
    def test_compiled_rows_and_reject_reasons(self, inst):
        runner, ref = WalkRunner(inst), WalkRunner(inst)
        for x in range(2**inst.n):
            assert runner._row(x) == reference_row(ref, x), x
        assert len(runner._rows) + len(runner._rejects) == 2**inst.n

    @pytest.mark.parametrize("m", [2, 3, 5, 9, 10, 11])
    def test_entry_from_elements_at_eta(self, m):
        """m cross elements of exactly ETA average to a G entry just above
        ETA (m = 5, 10, 11), at it (2) or just below it (3, 9): above, the
        move is in the row with r = 0; otherwise it is not in the row."""
        block = np.array([[1.0, ETA], [ETA, ETA * ETA]])
        inst = StoqSatInstance(1, 0.5, (LocalOperator((0,), block),) * m)
        runner = WalkRunner(inst)
        got = runner.transition_probabilities(0)
        assert got == reference_transition_probabilities(WalkRunner(inst), 0)
        entry = sum(itertools.repeat(1.0 / m * ETA, m))  # as G sums it
        assert (entry > ETA) == (m in (5, 10, 11))
        ys, ps, rs = got
        if entry > ETA:
            assert ys == [0, 1] and rs == [1.0, 0.0] and ps[1] == 0.0
        else:
            assert ys == [0] and rs == [1.0]
        assert runner._row(0) == reference_row(WalkRunner(inst), 0)

    def test_cross_element_above_eta_with_diag_at_eta(self):
        """For y = 1 the first projector with <y|Pi|x> > ETA has
        <x|Pi|x> <= ETA, so r = 0 even though a later projector has both
        above ETA; for y = x the first one's element is <x|Pi|x> itself."""
        psi = np.array([1e-5, math.sqrt(1.0 - 1e-10)])
        low = np.outer(psi, psi)  # <0|Pi|0> = 1e-10, <1|Pi|0> about 1e-5
        inst = StoqSatInstance(1, 0.5, (LocalOperator((0,), low),
                                        LocalOperator((0,), PLUS)))
        runner = WalkRunner(inst)
        got = runner.transition_probabilities(0)
        assert got == reference_transition_probabilities(WalkRunner(inst), 0)
        ys, ps, rs = got
        assert ys == [0, 1] and rs == [1.0, 0.0] and ps[1] == 0.0
        assert runner._row(0) == "diag-zero"
        assert runner._row(1) == reference_row(WalkRunner(inst), 1)

    def test_reads_no_element_and_no_assembled_row(self, monkeypatch):
        inst = random_projector_instance(4, 3, 5, 1)
        expect = [WalkRunner(inst).transition_probabilities(x)
                  for x in range(16)]

        def forbidden(*args):
            raise AssertionError("called")

        monkeypatch.setattr(ops, "matrix_elements", forbidden)
        monkeypatch.setattr(walk, "apply_to_basis", forbidden)
        runner = WalkRunner(inst)
        assert [runner.transition_probabilities(x) for x in range(16)] \
            == expect

    def test_runners_share_no_column_table(self):
        inst = plus_instance(3, [(0, 1), (1, 2)])
        first, second = WalkRunner(inst), WalkRunner(inst)
        for x in range(8):
            first.transition_probabilities(x)
        assert all(columns for _, _, columns in first._columns)
        assert not any(columns for _, _, columns in second._columns)
        second.transition_probabilities(0)
        for (_, _, a), (_, _, b) in zip(first._columns, second._columns):
            assert a is not b
            assert all(a[key] is not column for key, column in b.items())
        assert not any(columns for _, _, columns in
                       WalkRunner(inst)._columns)


class TestRunWalk:
    def test_satisfying_assignment_walks_in_place(self):
        inst = from_dimacs(SAT_3)
        config = WalkConfig(steps=4, seed=1)
        t = WalkRunner(inst).run(0b110, config)
        assert t.accepted
        assert t.visited == [0b110] * 5
        assert t.log_r_sum == 0.0

    def test_unsat_rejects_every_witness_immediately(self):
        inst = from_dimacs(UNSAT_2)
        config = WalkConfig(steps=3, seed=0)
        for w in range(4):
            t = WalkRunner(inst).run(w, config)
            assert not t.accepted
            assert t.reject_step == 0
            assert t.reject_reason == "diag-zero"

    def test_plus_instance_accepts_across_seeds(self):
        inst = plus_instance(3, [(0, 1), (1, 2), (0, 2)])
        steps = required_steps(inst.n, inst.epsilon, inst.m)
        for seed in range(10):
            t = WalkRunner(inst).run(0, WalkConfig(steps=steps, seed=seed))
            assert t.accepted, t.reject_reason

    def test_same_seed_same_transcript(self):
        inst = plus_instance(2, [(0, 1)])
        a = WalkRunner(inst).run(0, WalkConfig(steps=8, seed=42))
        b = WalkRunner(inst).run(0, WalkConfig(steps=8, seed=42))
        assert a.visited == b.visited and a.log_r_sum == b.log_r_sum

    def test_log_ratio_telescopes_to_amplitude_ratio(self):
        inst = plus_instance(3, [(0, 1), (1, 2)])
        hw = honest_witness(inst)
        amps = hw.vector.amplitudes
        t = WalkRunner(inst).run(hw.argmax, WalkConfig(steps=12, seed=5))
        assert t.accepted
        expect = math.log(amps[t.visited[-1]] / amps[t.visited[0]])
        assert t.log_r_sum == pytest.approx(expect, abs=1e-6)

    def test_transcript_serializes(self):
        inst = plus_instance(2, [(0, 1)])
        t = WalkRunner(inst).run(0, WalkConfig(steps=2, seed=0))
        assert '"accepted": true' in t.to_json()

    @pytest.mark.parametrize("witness", [0, 5])
    def test_run_is_trial_zero(self, witness):
        inst = plus_instance(3, [(0, 1), (1, 2)])
        config = WalkConfig(steps=30, seed=11)
        runner = WalkRunner(inst)
        _, records = runner.sweep(witness, config, 1)
        first = next(records)
        t = WalkRunner(inst).run(witness, config)
        assert dataclasses.asdict(t) \
            == dataclasses.asdict(runner.transcript(witness, first))

    def test_out_of_range_witness_rejected(self):
        inst = plus_instance(2, [(0, 1)])
        with pytest.raises(ValueError):
            WalkRunner(inst).run(4, WalkConfig(steps=1, seed=0))


class TestAcceptanceRate:
    def test_yes_instance_rate_one(self):
        inst = plus_instance(2, [(0, 1)])
        rep = acceptance_rate(inst, 0, 200, WalkConfig(steps=5, seed=9))
        assert rep == AcceptanceReport(1.0, 1.0, 1.0, 200, None,
                                       deterministic=True)

    @pytest.mark.parametrize("trials, steps", [(1, 2), (1, 20), (100, 10)])
    def test_certain_witness_has_one_form_at_every_budget(self, trials, steps):
        """``certain`` settles witness 0 within trials x steps strings at
        the last two budgets, and gives up at the first, where exact
        acceptance answers: the report has the one form at all three."""
        inst = plus_instance(4, [(0, 1), (2, 3)])
        runner = WalkRunner(inst)
        assert runner.certain(0, trials * steps) == (trials * steps > 2)
        rep = acceptance_rate(inst, 0, trials, WalkConfig(steps, seed=1),
                              runner=runner)
        assert rep == AcceptanceReport(1.0, 1.0, 1.0, trials, None,
                                       deterministic=True)

    def test_deterministic_rejection_short_circuits(self):
        inst = from_dimacs(UNSAT_2)
        rep = acceptance_rate(inst, 0, 1000, WalkConfig(steps=3, seed=0))
        assert rep.rate == 0.0 and rep.deterministic

    def test_same_seed_reproduces(self):
        inst = plus_instance(2, [(0,), (1,)])
        a = acceptance_rate(inst, 1, 50, WalkConfig(steps=6, seed=3))
        b = acceptance_rate(inst, 1, 50, WalkConfig(steps=6, seed=3))
        assert (a.rate, a.accepted) == (b.rate, b.accepted)

    @pytest.mark.parametrize("witness, reason", [(1, "diag-zero"),
                                                 (3, "unnormalized")])
    def test_deterministic_witness_derives_no_streams(self, monkeypatch,
                                                      witness, reason):
        inst = random_projector_instance(3, 2, 3, 0)
        calls = []
        philox = np.random.Philox
        monkeypatch.setattr(np.random, "Philox",
                            lambda *a, **k: calls.append(a) or philox(*a, **k))
        config = WalkConfig(steps=5, seed=4)
        assert WalkRunner(inst)._start(witness) == reason
        rep = acceptance_rate(inst, witness, 300, config)
        assert rep == AcceptanceReport(0.0, 0.0, 0.0, 300, None,
                                       deterministic=True)
        assert calls == []
        # a witness that walks is summed exactly over its closure and
        # derives none either; one left to the Monte Carlo derives them,
        # one Philox per call
        rep = acceptance_rate(inst, 0, 300, config)
        assert rep.deterministic and rep.accepted is None
        assert calls == []
        monkeypatch.setattr(walk, "EXACT_CLOSURE_CAP", 1)
        acceptance_rate(inst, 0, 300, config)
        assert len(calls) == 1

    def test_rejection_at_the_witness_checks_it_once(self, monkeypatch):
        """A witness rejected at its first string is range-checked and
        looked up by one _start call, and its one trial is a record."""
        inst = random_projector_instance(3, 2, 3, 0)
        runner = WalkRunner(inst)
        starts = []
        start = runner._start
        monkeypatch.setattr(runner, "_start",
                            lambda w: starts.append(w) or start(w))
        rep = acceptance_rate(inst, 1, 300, WalkConfig(steps=5, seed=4),
                              runner=runner)
        assert rep.deterministic and rep.rate == 0.0
        assert starts == [1]
        first, records = runner.sweep(1, WalkConfig(steps=5, seed=4), 3)
        assert first == walk.TrialRecord(False, 0, 0, "diag-zero", 0.0, 0, ())
        assert records == () and starts == [1, 1]

    def test_runner_of_another_instance_rejected(self):
        inst = plus_instance(2, [(0, 1)])
        runner = WalkRunner(plus_instance(2, [(0, 1)]))
        with pytest.raises(ValueError, match="another instance"):
            acceptance_rate(inst, 0, 10, WalkConfig(steps=3), runner=runner)
        rep = acceptance_rate(runner.instance, 0, 10, WalkConfig(steps=3),
                              runner=runner)
        assert rep == AcceptanceReport(1.0, 1.0, 1.0, 10, None,
                                       deterministic=True)


def reference_trials(runner, witness, config, count):
    """The trials before fixed points ran once: every trial walks its own
    Philox stream (a rejecting start draws nothing), each expanded into
    its transcript."""
    for i in range(count):
        yield runner.transcript(witness, runner._run_with_rng(
            witness, config, philox_stream(config.seed, i)))


def swept_trials(runner, witness, config, count):
    """WalkRunner.sweep's trials as count transcripts, expanded from its
    records: its ``first`` for every trial when it has one, else its
    records."""
    first, records = runner.sweep(witness, config, count)
    if first is not None:
        return [runner.transcript(witness, first)] * count
    return [runner.transcript(witness, t) for t in records]


def reference_acceptance_rate(runner, witness, trials, config):
    """acceptance_rate's Monte Carlo with every trial run on its own
    stream: the Wilson report of the tally."""
    accepted = sum(t.accepted for t in reference_trials(runner, witness,
                                                        config, trials))
    rate, lo, hi = wilson_interval(accepted, trials)
    return AcceptanceReport(rate, lo, hi, trials, accepted)


@st.composite
def cnf_yes_witnesses(draw):
    """(instance, witness): a planted 3-CNF on 3-7 variables and one of
    its satisfying strings, a fixed point of the walk."""
    n = draw(st.integers(3, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    text, _ = planted_sat_dimacs(n, draw(st.integers(1, 3 * n)), rng)
    inst = from_dimacs(text)
    clauses = [[int(v) for v in line.split()[:-1]]
               for line in text.splitlines()[1:]]
    satisfying = [x for x in range(2**n) if all(
        any((lit > 0) == bool((x >> (abs(lit) - 1)) & 1) for lit in c)
        for c in clauses)]
    return inst, draw(st.sampled_from(satisfying))


@st.composite
def cnf_and_plus_registers(draw):
    """(instance, witness): a planted 3-CNF on 3-7 variables, whose
    strings are fixed points or reject at once, or a |+> or random
    projector instance from plus_and_random_instances; the witness is any
    string."""
    if draw(st.booleans()):
        inst, _ = draw(cnf_yes_witnesses())
    else:
        inst = draw(plus_and_random_instances())
    return inst, draw(st.integers(0, 2**inst.n - 1))


class TestFixedPointWitness:
    """A satisfying string of a CNF is a fixed point of the walk (G_ww = 1,
    its row the one move w -> w with log r = 0, whose lazy-step lane takes
    every uniform): every trial gives the same record, so WalkRunner.sweep
    builds it without a stream and returns it with no records."""

    @settings(max_examples=60, deadline=None)
    @given(cnf_yes_witnesses(), st.integers(1, 6), st.integers(1, 40),
           st.integers(0, 2**63 - 1))
    def test_matches_per_trial_reference(self, case, count, steps, seed):
        inst, w = case
        config = WalkConfig(steps=steps, seed=seed)
        runner = WalkRunner(inst)
        assert runner._start(w)[1] == [(w, 0.0)]
        first, records = runner.sweep(w, config, count)
        assert records == ()
        want = [dataclasses.asdict(t)
                for t in reference_trials(WalkRunner(inst), w, config, count)]
        assert want == [dataclasses.asdict(runner.transcript(w, first))] \
            * count
        rep = acceptance_rate(inst, w, count, config, runner=runner)
        ref = reference_acceptance_rate(WalkRunner(inst), w, count, config)
        assert (ref.rate, ref.accepted, ref.upper) == (1.0, count, 1.0)
        assert rep == AcceptanceReport(1.0, 1.0, 1.0, count, None,
                                       deterministic=True)

    @settings(max_examples=80, deadline=None)
    @given(cnf_and_plus_registers(), st.integers(1, 12), st.integers(1, 40),
           st.integers(0, 2**63 - 1))
    def test_first_is_every_trials_record(self, case, count, steps, seed):
        """Whenever sweep gives ``first``, the trial loop on each of the
        first trials' own streams returns that record, field for field."""
        inst, w = case
        config = WalkConfig(steps=steps, seed=seed)
        first, _ = WalkRunner(inst).sweep(w, config, count)
        if first is None:
            return
        runner = WalkRunner(inst)
        for i, rng in enumerate(walk._generators(seed, min(count, 6))):
            assert runner._run_with_rng(w, config, rng)._asdict() \
                == first._asdict(), i

    @pytest.mark.parametrize("witness", [0b110, 0b000], ids=["fixed-point",
                                                             "diag-zero"])
    def test_deterministic_witness_yields_first_and_no_votes(self, witness):
        runner = WalkRunner(from_dimacs(SAT_3))
        config = WalkConfig(steps=6, seed=7)
        first, records = runner.sweep(witness, config, 4)
        assert first.reject_reason == (None if witness else "diag-zero")
        assert runner.transcript(witness, first).visited \
            == ([witness] * 7 if witness else [witness])
        assert records == ()
        # a walking witness has no first, and one record per trial
        runner = WalkRunner(plus_instance(2, [(0, 1)]))
        first, records = runner.sweep(0, config, 4)
        assert first is None
        assert [type(r) for r in records] == [walk.TrialRecord] * 4

    def test_fixed_point_builds_no_philox(self, monkeypatch, tmp_path):
        """sweep, acceptance_rate and verify, with and without
        --transcripts, take a fixed point's record without a stream."""
        inst = from_dimacs(SAT_3)
        sat = str(tmp_path / "sat.json")
        save(inst, sat)

        def no_philox(*args, **kwargs):
            raise AssertionError("a fixed point needs no stream")

        monkeypatch.setattr(np.random, "Philox", no_philox)
        config = WalkConfig(steps=6, seed=4)
        runner = WalkRunner(inst)
        first, records = runner.sweep(0b110, config, 300)
        assert first.accepted and records == ()
        rep = acceptance_rate(inst, 0b110, 300, config, runner=runner)
        assert rep == AcceptanceReport(1.0, 1.0, 1.0, 300, None,
                                       deterministic=True)
        for extra in ([], ["--transcripts", str(tmp_path / "t.jsonl")]):
            assert cli_main(["verify", "--instance", sat, "--witness", "6",
                             "--trials", "300", "--seed", "4", "--out",
                             str(tmp_path / "v.csv"), *extra]) == 0

    def test_huge_trial_counts_return_at_once(self, monkeypatch):
        inst = from_dimacs(SAT_3)
        config = WalkConfig(steps=6, seed=1)
        runner = WalkRunner(inst)
        runs = []
        monkeypatch.setattr(runner, "_run_with_rng",
                            lambda *args: runs.append(args))
        first, records = runner.sweep(0b110, config, 2**64)
        assert first.accepted
        assert runner.transcript(0b110, first).visited == [0b110] * 7
        assert records == ()
        rep = acceptance_rate(inst, 0b110, 2**64, config, runner=runner)
        assert rep == AcceptanceReport(1.0, 1.0, 1.0, 2**64, None,
                                       deterministic=True)
        assert runs == []  # no trial runs

    def test_verify_runs_a_fixed_point_once(self, monkeypatch, tmp_path):
        """verify sweeps once, walks no trial and copies no transcript for
        its 1,000 rows."""
        sat = str(tmp_path / "sat.json")
        save(from_dimacs(SAT_3), sat)
        sweeps, runs, copies = [], [], []
        sweep, trial = WalkRunner.sweep, WalkRunner._run_with_rng
        replace = dataclasses.replace
        monkeypatch.setattr(WalkRunner, "sweep",
                            lambda *a: sweeps.append(a) or sweep(*a))
        monkeypatch.setattr(WalkRunner, "_run_with_rng",
                            lambda *a: runs.append(a) or trial(*a))
        monkeypatch.setattr(dataclasses, "replace",
                            lambda *a, **k: copies.append(a) or replace(*a, **k))
        out, logs = tmp_path / "v.csv", tmp_path / "t.jsonl"
        assert cli_main(["verify", "--instance", sat, "--witness", "0b110",
                         "--trials", "1000", "--seed", "7", "--out", str(out),
                         "--transcripts", str(logs)]) == 0
        assert (len(sweeps), len(runs), len(copies)) == (1, 0, 0)
        rows = out.read_text().splitlines()
        assert len(rows) == 1002 and rows[1] == "0,1,6,,,0"
        assert rows[-1].startswith("rate,1,") and rows[-1].endswith(",1,1000,1000")
        assert len(set(logs.read_text().splitlines())) == 1

    @pytest.mark.parametrize("witness", [0b110, 0b000], ids=["fixed-point",
                                                             "diag-zero"])
    def test_run_builds_no_philox(self, witness, monkeypatch):
        """run takes trial 0 from sweep, so a fixed point or a witness
        rejected at once gives the transcript its own stream would give,
        with no stream built."""
        inst = from_dimacs(SAT_3)
        config = WalkConfig(steps=6, seed=4)
        want = next(reference_trials(WalkRunner(inst), witness, config, 1))

        def no_philox(*args, **kwargs):
            raise AssertionError("this witness needs no stream")

        monkeypatch.setattr(np.random, "Philox", no_philox)
        t = WalkRunner(inst).run(witness, config)
        assert dataclasses.asdict(t) == dataclasses.asdict(want)

    def test_walking_witness_settled_by_exact_acceptance(self, monkeypatch):
        # the honest witness 1 of a skewed rank-one projector moves to 0
        # with r = 1/2, so it walks and ``certain`` does not settle it;
        # exact acceptance does, and no trial runs
        psi = np.array([1.0, 2.0]) / math.sqrt(5.0)
        inst = StoqSatInstance(1, 1.0,
                               (LocalOperator((0,), np.outer(psi, psi)),))
        config = WalkConfig(steps=4, seed=2)
        runner = WalkRunner(inst)
        assert runner.sweep(1, config, 20)[0] is None
        assert not runner.certain(1, 80)

        def no_philox(*args, **kwargs):
            raise AssertionError("an exact report needs no stream")

        monkeypatch.setattr(np.random, "Philox", no_philox)
        rep = acceptance_rate(inst, 1, 20, config)
        assert rep == AcceptanceReport(1.0, 1.0, 1.0, 20, None,
                                       deterministic=True)

    def test_certain_plus_witness_is_deterministic(self, monkeypatch):
        """|+> rows have moves of r = 1 only, so every trial is accepted
        whatever it draws: the report is deterministic, with rate = lower
        = upper = 1.0 and ``accepted`` None, and no trial runs."""
        inst = plus_instance(2, [(0, 1)])
        config = WalkConfig(steps=4, seed=2)
        ref = reference_acceptance_rate(WalkRunner(inst), 0, 20, config)
        assert ref.accepted == 20
        runs = []
        trial = WalkRunner._run_with_rng
        monkeypatch.setattr(WalkRunner, "_run_with_rng",
                            lambda *a: runs.append(a) or trial(*a))
        rep = acceptance_rate(inst, 0, 20, config)
        assert rep == AcceptanceReport(1.0, 1.0, 1.0, 20, None,
                                       deterministic=True)
        assert runs == []


def rank_one(*amplitudes):
    """|psi><psi| for psi proportional to ``amplitudes``."""
    psi = np.array(amplitudes, dtype=float)
    psi /= np.linalg.norm(psi)
    return np.outer(psi, psi)


def skewed_instance(n):
    """The rank-one projector on (1, 2)/sqrt(5) on each of n qubits: every
    string walks, and every move's log r is 0 or +-log(2)."""
    return StoqSatInstance(n, 0.5, tuple(LocalOperator((q,), rank_one(1, 2))
                                         for q in range(n)))


class TestExactAcceptance:
    """WalkRunner.exact_acceptance sums a trial's acceptance over P^L on the
    witness's closure; acceptance_rate reports it in place of the Monte
    Carlo, or runs today's Monte Carlo where it gives None."""

    # |u><u| + |v><v| with u on 00, 11 and v on 01, 10 flips both qubits
    # with r = 1, while the first projector flips qubit 0 with r = 2 or
    # 1/2: every row normalizes, but a cycle 00 -> 01 -> 10 -> 11 -> 00
    # sums log r to 2 log 2, so no potential phi exists
    BROKEN = StoqSatInstance(2, 0.5, (
        LocalOperator((0,), rank_one(1, 2)),
        LocalOperator((0, 1), rank_one(1, 0, 0, 1) + rank_one(0, 1, 1, 0))))

    @staticmethod
    def tied(steps):
        """A one-qubit rank-one projector whose move 0 -> 1 has log r
        within rounding of ETA * steps, the product test's threshold."""
        return StoqSatInstance(1, 1.0, (LocalOperator(
            (0,), rank_one(1, math.exp(ETA * steps))),))

    def test_closure_that_cannot_reject_is_exactly_one(self):
        # the instance of test_walking_witness_settled_by_exact_acceptance:
        # witness 1 moves to 0 with r = 1/2, no string rejects and every
        # end string passes, so the sum, which rounds to 1 + 2^-52 there,
        # is not used
        psi = np.array([1.0, 2.0]) / math.sqrt(5.0)
        inst = StoqSatInstance(1, 1.0,
                               (LocalOperator((0,), np.outer(psi, psi)),))
        runner = WalkRunner(inst)
        assert not runner.certain(1, 100)
        assert runner.exact_acceptance(1, 4) == 1.0
        rep = acceptance_rate(inst, 1, 20, WalkConfig(steps=4, seed=2))
        assert rep == AcceptanceReport(1.0, 1.0, 1.0, 20, None,
                                       deterministic=True)
        # from 0 an end string at 1 fails the product test (phi = log 2),
        # and each step lands on 0 with probability 1/5 from either string
        p = runner.exact_acceptance(0, 4)
        assert p == pytest.approx(0.2, rel=1e-12)

    def test_honest_argmax_is_exactly_one(self, monkeypatch):
        """The honest prover's argmax is accepted with probability exactly
        1.0: on every criterion-1 fixture, summed over its whole closure,
        and on all 58 yes instances among random projector instances of
        six shapes at seeds 0-59, within EXACT_CLOSURE_CAP.  Only the
        argmax is tested.  A trial's log_r_sum is log psi(x_L) -
        log psi(x_0) for the honest vector psi, so the product test needs
        psi(x_L) <= psi(x_0) up to ETA * L, which the argmax alone meets
        for every end string; 594 of the 730 other strings of those
        random instances' honest supports are accepted with probability
        below 1."""
        for kind, inst in completeness_fixtures():
            hw = honest_witness(inst)
            steps = required_steps(inst.n, inst.epsilon, inst.m)
            with monkeypatch.context() as patch:
                patch.setattr(walk, "EXACT_CLOSURE_CAP", 2**inst.n)
                assert WalkRunner(inst).exact_acceptance(
                    hw.argmax, steps) == 1.0, (kind, inst.n)
        yes = 0
        for shape in [(3, 2, 2), (4, 2, 3), (5, 3, 3), (4, 1, 4), (6, 2, 4),
                      (5, 2, 2)]:
            for seed in range(60):
                inst = random_projector_instance(*shape, seed)
                hw = honest_witness(inst)
                if hw.looks_unsat:
                    continue
                yes += 1
                steps = required_steps(inst.n, inst.epsilon, inst.m)
                assert WalkRunner(inst).exact_acceptance(
                    hw.argmax, steps) == 1.0, (shape, seed)
        assert yes == 58

    @pytest.mark.parametrize("case", ["cap", "broken-phi", "tie"])
    def test_none_gives_the_monte_carlo_report(self, case, monkeypatch):
        if case == "cap":
            # 2^7 strings reachable from every witness
            inst, witness, steps = skewed_instance(7), 0b1111111, 6
            with monkeypatch.context() as patch:
                patch.setattr(walk, "EXACT_CLOSURE_CAP", 128)
                assert WalkRunner(inst).exact_acceptance(witness, steps) \
                    == 1.0
        elif case == "broken-phi":
            inst, witness, steps = self.BROKEN, 0, 5
        else:
            inst, witness, steps = self.tied(6), 0, 6
        runner = WalkRunner(inst)
        assert not runner.certain(witness, 10**6)
        assert runner.exact_acceptance(witness, steps) is None
        config = WalkConfig(steps=steps, seed=3)
        rep = acceptance_rate(inst, witness, 60, config, runner=runner)
        assert not rep.deterministic
        assert rep == reference_acceptance_rate(WalkRunner(inst), witness, 60,
                                                config)

    def test_each_edge_checked_against_phi(self, monkeypatch):
        # the broken instance gives None from every string, within any cap
        runner = WalkRunner(self.BROKEN)
        monkeypatch.setattr(walk, "EXACT_CLOSURE_CAP", 4)
        for w in range(4):
            assert isinstance(runner._start(w), tuple)
            assert runner.exact_acceptance(w, 5) is None
        # without the first projector every move has r = 1: phi is flat
        runner = WalkRunner(StoqSatInstance(2, 0.5, (LocalOperator(
            (0, 1), rank_one(1, 0, 0, 1) + rank_one(0, 1, 1, 0)),)))
        assert runner.certain(0, 4)

    # a block that passes validate only within ETA, with <1|Pi|1> < 0, on
    # qubit 0 and |+> on qubit 1: G's cross entries 1.5e-9 pass ETA, so
    # 0 -> 1 and 2 -> 3 are moves with r = 0 (log r None) and, as the
    # bounds tie, probability 0; strings 1 and 3 reject as diag-zero
    WITHIN_ETA = StoqSatInstance(2, 0.5, (
        LocalOperator((0,), np.array([[1.0, 3e-9], [3e-9, -5e-10]])),
        LocalOperator((1,), PLUS)))

    def test_move_without_log_r_is_not_followed(self):
        inst = self.WITHIN_ETA
        runner = WalkRunner(inst)
        assert (1, None) in runner._start(0)[1]
        assert not runner.certain(0, 100)
        assert [x for x, _ in runner._closure(0, 100)] == [0, 2]
        config = WalkConfig(steps=required_steps(inst.n, inst.epsilon,
                                                 inst.m), seed=1)
        rep = acceptance_rate(inst, 0, 400, config, runner=runner)
        assert rep.deterministic and rep.rate == rep.lower == rep.upper
        first, records = WalkRunner(inst).sweep(0, config, 400)
        assert first is None
        lo, hi = wilson_interval(sum(r.accepted for r in records), 400)[1:]
        assert lo <= rep.rate <= hi

    @pytest.mark.parametrize("witness", [1, 3])
    def test_rejecting_witness_is_exactly_zero(self, witness):
        runner = WalkRunner(self.WITHIN_ETA)
        assert runner._start(witness) == "diag-zero"
        assert runner.exact_acceptance(witness, 7) == 0.0

    def test_exact_above_the_dense_limit_from_the_closure_alone(
            self, monkeypatch):
        """A clock export of N = 15 qubits, past the default dense limit:
        witness 16380 gets an exact report from its closure, with every
        assembly and dense solve patched to raise during the call, and the
        value lies in the Wilson interval of 400 walked trials."""
        v = VerifierCircuit(1, 1, 1, 0, (Gate("X", (2,)),) * 10,
                            out_basis="zero")
        inst = export_6sat(compile_circuit(v, 1))
        assert inst.n == 15 > ops.DEFAULT_DENSE_LIMIT
        config = WalkConfig(steps=required_steps(inst.n, inst.epsilon,
                                                 inst.m), seed=3)

        def no_matrix(*args, **kwargs):
            raise AssertionError("the exact value needs no matrix")

        with monkeypatch.context() as patch:
            for module in (ops, spectral):
                patch.setattr(module, "assemble_sparse", no_matrix)
                patch.setattr(module, "assemble_dense", no_matrix)
            patch.setattr(spectral, "dense_spectrum", no_matrix)
            rep = acceptance_rate(inst, 16380, 400, config)
        assert rep.deterministic
        assert rep.rate == pytest.approx(0.00126, rel=0.01)
        first, records = WalkRunner(inst).sweep(16380, config, 400)
        assert first is None
        lo, hi = wilson_interval(sum(r.accepted for r in records), 400)[1:]
        assert lo <= rep.rate <= hi

    def test_exact_value_inside_monte_carlo_interval(self):
        """Criterion 2's walking witnesses, the i-th walked by the per-trial
        reference at seed i: the exact value lies in the 200-trial Wilson
        interval for at least 95% of them (184 of 189 here; at these
        values the binomial gives 96.2% +- 1.4% on average), and the
        pooled count of accepted trials is within 4 standard deviations of
        200 times the sum of the exact values."""
        cases = []
        for _, inst in soundness_fixtures():
            runner = WalkRunner(inst)
            steps = required_steps(inst.n, inst.epsilon, inst.m)
            for w in range(2**inst.n):
                row = runner._start(w)
                if isinstance(row, tuple) and row[1] != [(w, 0.0)] and \
                        not runner.certain(w, 10**6):
                    cases.append((runner, w, steps,
                                  runner.exact_acceptance(w, steps)))
        assert len(cases) == 189
        inside = accepted = 0
        for i, (runner, w, steps, p) in enumerate(cases):
            ref = reference_acceptance_rate(runner, w, 200,
                                            WalkConfig(steps=steps, seed=i))
            inside += ref.lower <= p <= ref.upper
            accepted += ref.accepted
        assert inside >= 0.95 * len(cases), inside
        mean = 200 * math.fsum(p for *_, p in cases)
        sd = math.sqrt(200 * math.fsum(p * (1 - p) for *_, p in cases))
        assert abs(accepted - mean) <= 4 * sd, (accepted, mean, sd)


def reference_verify_csv(inst, witness, steps, trials, seed):
    """verify's CSV as csv.writer wrote it from one walked transcript per
    trial, each on its own Philox stream."""
    config = WalkConfig(steps=steps, seed=seed)
    walked = list(reference_trials(WalkRunner(inst), witness, config, trials))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["trial", "accepted", "steps_taken", "reject_step",
                     "reject_reason", "log_r_sum"])
    for i, t in enumerate(walked):
        writer.writerow([i, int(t.accepted), len(t.visited) - 1,
                         "" if t.reject_step is None else t.reject_step,
                         t.reject_reason or "", format(t.log_r_sum, ".17g")])
    accepted = sum(t.accepted for t in walked)
    writer.writerow(["rate", *(format(v, ".17g") for v in
                               wilson_interval(accepted, trials)),
                     accepted, trials])
    return buf.getvalue()


def verify_outputs(inst, witness, steps, trials, seed, workdir):
    """verify's CSV bytes without and with --transcripts."""
    path = str(workdir / "inst.json")
    save(inst, path)
    outs = []
    for extra in ([], ["--transcripts", str(workdir / "t.jsonl")]):
        out = workdir / "v.csv"
        assert cli_main(["verify", "--instance", path, "--witness",
                         str(witness), "--steps", str(steps), "--trials",
                         str(trials), "--seed", str(seed), "--out", str(out),
                         *extra]) == 0
        outs.append(out.read_bytes())
    return outs


@st.composite
def plus_and_random_instances(draw):
    """A |+> instance, every witness certain, or a random projector
    instance, whose witnesses mostly walk or reject, on 1-6 qubits."""
    n = draw(st.integers(1, 6))
    if draw(st.booleans()):
        return plus_instance(n, draw(st.lists(
            st.lists(st.integers(0, n - 1), min_size=1, max_size=3,
                     unique=True), min_size=1, max_size=3)))
    return random_projector_instance(n, draw(st.integers(1, min(3, n))),
                                     draw(st.integers(1, 4)),
                                     draw(st.integers(0, 2**32 - 1)))


def reference_certain(runner, witness, cap):
    """WalkRunner.certain as its own depth-first loop, before it shared
    the closure pass with exact_acceptance."""
    runner._start(witness)
    seen, todo = {witness}, [witness]
    while todo:
        x = todo.pop()
        row = runner._rows.get(x) or runner._row(x)
        if isinstance(row, str):
            return False
        for y, log_r in row[1]:
            if log_r != 0.0:
                return False
            if y not in seen:
                if len(seen) >= cap:
                    return False
                seen.add(y)
                todo.append(y)
    return True


class TestCertainWitness:
    """verify without --transcripts runs no trial for a witness that
    WalkRunner.certain accepts, and formats a row that no draw can change
    once; its CSV must be the bytes of every trial walked."""

    CASES = {
        "diag-zero": (random_projector_instance(3, 2, 3, 0), 1),
        "fixed-point": (from_dimacs(SAT_3), 0b110),
        "certain": (plus_instance(3, [(0, 1), (1, 2)]), 0b101),
        "walks": (random_projector_instance(3, 2, 3, 0), 0),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_matches_walked_trials(self, case, tmp_path, monkeypatch):
        inst, witness = self.CASES[case]
        checks, runs = [], []
        certain, trial = WalkRunner.certain, WalkRunner._run_with_rng
        monkeypatch.setattr(WalkRunner, "certain", lambda *a: checks.append(
            certain(*a)) or checks[-1])
        monkeypatch.setattr(WalkRunner, "_run_with_rng",
                            lambda *a: runs.append(a) or trial(*a))
        bare, logged = verify_outputs(inst, witness, 7, 40, 5, tmp_path)
        # only a witness that sweep leaves walking is checked, and only
        # without --transcripts; a certain one walks only with them
        assert checks == {"certain": [True], "walks": [False]}.get(case, [])
        if case == "certain":
            assert len(runs) == 40
        assert bare == logged == reference_verify_csv(inst, witness, 7, 40,
                                                      5).encode()

    def test_cap_gives_up_with_output_unchanged(self, tmp_path, monkeypatch):
        inst, witness = self.CASES["certain"]
        runner = WalkRunner(inst)
        assert not runner.certain(witness, 7)
        assert runner.certain(witness, 8)  # the closure is all 8 strings
        expect = verify_outputs(inst, witness, 7, 40, 5, tmp_path)
        gave_up = []
        certain = WalkRunner.certain
        monkeypatch.setattr(WalkRunner, "certain", lambda self, w, cap: (
            gave_up.append(not certain(self, w, 2)) or not gave_up[-1]))
        assert verify_outputs(inst, witness, 7, 40, 5, tmp_path) == expect
        assert gave_up == [True]

    @settings(max_examples=60, deadline=None)
    @given(plus_and_random_instances(), st.data())
    def test_random_registers(self, tmp_path_factory, inst, data):
        witness = data.draw(st.integers(0, 2**inst.n - 1), label="witness")
        steps = data.draw(st.integers(1, 12), label="steps")
        trials = data.draw(st.integers(1, 12), label="trials")
        seed = data.draw(st.integers(0, 2**63 - 1), label="seed")
        bare, logged = verify_outputs(inst, witness, steps, trials, seed,
                                      tmp_path_factory.mktemp("verify"))
        assert bare == logged == reference_verify_csv(inst, witness, steps,
                                                      trials, seed).encode()

    @settings(max_examples=80, deadline=None)
    @given(plus_and_random_instances(), st.data())
    def test_matches_its_loop_and_fills_the_same_rows(self, inst, data):
        """Same answers, and the row cache and reject reasons filled with
        the same strings in the same order, over a run of witnesses and
        caps on one runner."""
        runner, ref = WalkRunner(inst), WalkRunner(inst)
        for _ in range(data.draw(st.integers(1, 6), label="calls")):
            witness = data.draw(st.integers(0, 2**inst.n - 1),
                                label="witness")
            cap = data.draw(st.integers(1, 2**inst.n + 1), label="cap")
            assert runner.certain(witness, cap) \
                == reference_certain(ref, witness, cap)
            assert list(runner._rows) == list(ref._rows)
            assert list(runner._rejects) == list(ref._rejects)


def philox_stream(seed, i=0):
    """numpy's own generator for trial i: the key Philox(seed) derives
    from the seed sequence, and counter [0, 0, i, 0]."""
    key = np.random.Philox(seed).state["state"]["key"]
    return np.random.Generator(np.random.Philox(
        key=key, counter=np.array([0, 0, i, 0], np.uint64)))


class TestTrialStreams:
    """Trial i must draw numpy's Generator(Philox(key=k, counter=[0, 0, i,
    0])), k the key Philox(seed) derives; a numpy release that changes
    Philox or its seeding fails here rather than silently changing verify
    CSVs."""

    SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**128 + 12345, 3**200]
    # doubles drawn per stream, in turn, so a buffered word that leaked
    # into the next stream would shift it
    DRAWS = (1, 3, 64)

    @classmethod
    def assert_streams_match(cls, seed, count, stop):
        """The first ``stop`` streams of _generators(seed, count) are those
        of trials 0, 1, ..., in order."""
        rngs = walk._generators(seed, count)
        for i in range(stop):
            n = cls.DRAWS[i % len(cls.DRAWS)]
            expect = philox_stream(seed, i).random(n)
            assert np.array_equal(next(rngs).random(n), expect), i

    @pytest.mark.parametrize("seed", SEEDS)
    def test_trial_keys_match_seed_sequence(self, seed):
        # Philox(seed) keys every stream with the seed sequence's state
        assert np.array_equal(
            np.random.Philox(seed).state["state"]["key"],
            np.random.SeedSequence(seed).generate_state(2, np.uint64))
        for count in (1, 5):
            self.assert_streams_match(seed, count, count)
            assert len(list(walk._generators(seed, count))) == count
        # a long run of resets on the one generator
        self.assert_streams_match(seed, 5002, 5002)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_empty_key_matches_run_seed(self, seed):
        # run takes no trial index: it draws trial 0, the zero counter,
        # which is Generator(Philox(seed))
        inst = plus_instance(2, [(0, 1)])
        config = WalkConfig(steps=40, seed=seed)
        self.assert_streams_match(seed, 1, 1)
        expect = np.random.Generator(np.random.Philox(seed)).random(64)
        assert np.array_equal(philox_stream(seed).random(64), expect)
        ref = reference_trial(WalkRunner(inst), 0, config,
                              np.random.Generator(np.random.Philox(seed)))
        assert dataclasses.asdict(WalkRunner(inst).run(0, config)) \
            == dataclasses.asdict(ref)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**256), st.integers(1, 24), st.integers(0, 30))
    def test_random_seeds_and_keys(self, seed, count, stop):
        self.assert_streams_match(seed, count, min(count, stop))

    @pytest.mark.parametrize("count, stop", [(1, 1), (5, 3), (4097, 1),
                                             (3, 5000)])
    def test_trial_keys_in_order_and_bounded(self, count, stop):
        # one Generator, reset to counter [0, 0, i, 0]; the stream is
        # lazy, so a prefix is drawn without the rest, and it ends after
        # ``count`` trials
        seen = []
        for rng in itertools.islice(walk._generators(5, count), stop):
            seen.append(tuple(rng.bit_generator.state["state"]["counter"]))
            rng.random(2)
        assert seen == [(0, 0, i, 0) for i in range(min(count, stop))]

    def test_key_limit(self):
        inst = plus_instance(2, [(0, 1)])
        config = WalkConfig(steps=3, seed=1)
        runner = WalkRunner(inst)
        # a 64-bit counter word holds every trial index; trial 0 is drawn
        # without the others
        first, records = runner.sweep(0, config, 2**64)
        assert first is None
        first = next(records)
        expect = reference_trial(WalkRunner(inst), 0, config,
                                 philox_stream(1, 0))
        assert dataclasses.asdict(runner.transcript(0, first)) \
            == dataclasses.asdict(expect)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            WalkConfig(steps=1, seed=-1)


class TestWilson:
    def test_contains_point_estimate(self):
        p, lo, hi = wilson_interval(40, 100)
        assert lo <= p <= hi
        assert 0.0 <= lo and hi <= 1.0

    def test_degenerate_counts(self):
        assert wilson_interval(0, 50)[0] == 0.0
        assert wilson_interval(50, 50)[0] == 1.0

    @pytest.mark.parametrize("trials", [1, 7, 50, 80, 200, 1000, 10**6])
    def test_endpoints_exact_at_zero_and_all(self, trials):
        # the rounding of center - half left 2.2e-19 at (0, 1000) and
        # center + half 0.9999999999999999 at (80, 80)
        assert wilson_interval(0, trials)[1] == 0.0
        assert wilson_interval(trials, trials)[2] == 1.0

    def test_width_shrinks_with_trials(self):
        _, lo1, hi1 = wilson_interval(10, 20)
        _, lo2, hi2 = wilson_interval(1000, 2000)
        assert (hi2 - lo2) < (hi1 - lo1)


def reference_trial(runner, witness, config, rng):
    """The trial loop the compiled-row engine replaced: transition data per
    step, np.searchsorted over the cumulative weights and one scalar draw
    per step.  Per-string data is memoized only to keep the test fast."""
    if not 0 <= witness < 2**runner.instance.n:
        raise ValueError("witness out of range")
    data = {}
    L = config.steps
    x = witness
    visited = [x]
    log_r_sum = 0.0
    draws = 0
    delta = 0.0
    for j in range(L + 1):
        if x not in data:
            diag_ok = runner.diag_positive(x)
            data[x] = (diag_ok, *(runner.transition_probabilities(x)
                                  if diag_ok else ([], [], [])))
        diag_ok, ys, ps, rs = data[x]
        if not diag_ok:
            return WalkTranscript(visited, log_r_sum, False, j, "diag-zero",
                                  draws, delta)
        if not (abs(sum(ps) - 1.0) <= ETA * max(1, len(ys))
                and all(p >= 0.0 for p in ps)):
            return WalkTranscript(visited, log_r_sum, False, j,
                                  "unnormalized", draws, delta)
        if j == L:
            break
        u = rng.random()
        draws += 1
        idx = int(np.searchsorted(np.cumsum(ps), u, side="left"))
        if idx >= len(ys):
            idx = len(ys) - 1
        delta += len(ys) * 2.0**-53
        r = rs[idx]
        if r <= 0.0:
            return WalkTranscript(visited, log_r_sum, False, j,
                                  "unnormalized", draws, delta)
        log_r_sum += math.log(r)
        x = ys[idx]
        visited.append(x)
    if log_r_sum > ETA * L:
        return WalkTranscript(visited, log_r_sum, False, L,
                              "product-exceeds-one", draws, delta)
    return WalkTranscript(visited, log_r_sum, True, rng_draws=draws,
                          sampling_delta=delta)


@functools.lru_cache(maxsize=None)
def soundness_exports():
    """Two of the clock exports of acceptance criterion 2."""
    return tuple(export_6sat(compile_circuit(v, x))
                 for v, x in rejecting_circuits()[1:3])


@st.composite
def small_instances(draw):
    kind = draw(st.sampled_from(["cnf", "plus", "random"]))
    n = draw(st.integers(3 if kind == "cnf" else 2, 6))
    if kind == "cnf":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        text, _ = planted_sat_dimacs(n, draw(st.integers(1, 2 * n)), rng)
        return from_dimacs(text)
    if kind == "plus":
        supports = draw(st.lists(
            st.lists(st.integers(0, n - 1), min_size=1, max_size=3,
                     unique=True), min_size=1, max_size=4))
        return plus_instance(n, supports)
    return random_projector_instance(n, draw(st.integers(1, min(3, n))),
                                     draw(st.integers(1, 4)),
                                     draw(st.integers(0, 2**32 - 1)))


@functools.lru_cache(maxsize=None)
def longest_export():
    """The criterion-2 clock export with the longest walk, L = 651, and
    the 60 of its 1,024 strings at which a walk can start."""
    inst = export_6sat(compile_circuit(*rejecting_circuits()[6]))
    runner = WalkRunner(inst)
    return inst, tuple(w for w in range(2**inst.n)
                       if not isinstance(runner._start(w), str))


def assert_engine_matches_reference(inst, data, max_steps=200,
                                    witnesses=None):
    witness = data.draw(st.integers(0, 2**inst.n - 1) if witnesses is None
                        else st.sampled_from(witnesses), label="witness")
    config = WalkConfig(steps=data.draw(st.integers(1, max_steps),
                                        label="steps"),
                        seed=data.draw(st.integers(0, 2**63 - 1), label="seed"))
    count = data.draw(st.integers(1, 3), label="trials")
    runner = WalkRunner(inst)
    ref = WalkRunner(inst)
    trials = swept_trials(runner, witness, config, count)
    assert len(trials) == count
    for i, t in enumerate(trials):
        expect = reference_trial(ref, witness, config,
                                 philox_stream(config.seed, i))
        assert dataclasses.asdict(t) == dataclasses.asdict(expect)
    expect = reference_trial(ref, witness, config, np.random.Generator(
        np.random.Philox(config.seed)))
    assert dataclasses.asdict(runner.run(witness, config)) \
        == dataclasses.asdict(expect)


class TestEngineEquivalence:
    @settings(max_examples=80, deadline=None)
    @given(small_instances(), st.data())
    def test_matches_reference_loop(self, inst, data):
        assert_engine_matches_reference(inst, data)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([0, 1]), st.data())
    def test_matches_reference_loop_on_clock_exports(self, which, data):
        assert_engine_matches_reference(soundness_exports()[which], data)

    def test_verify_output_pinned(self, tmp_path):
        """verify CSV and transcripts of a clock export on the Philox trial
        streams (the compiled-row engine left the earlier pin unchanged)."""
        circ = str(tmp_path / "c.json")
        save_circuit(VerifierCircuit(1, 1, 1, 0, (Gate("X", (2,)),
                                                  Gate("X", (2,))),
                                     out_basis="zero"), circ)
        sat = str(tmp_path / "sat.json")
        assert cli_main(["compile", "--circuit", circ, "--to", "6sat",
                         "--input", "1", "--out", sat]) == 0
        out, logs = tmp_path / "v.csv", tmp_path / "t.jsonl"
        assert cli_main(["verify", "--instance", sat, "--witness", "24",
                         "--steps", "24", "--trials", "200", "--seed", "7",
                         "--out", str(out), "--transcripts", str(logs)]) == 0
        digest = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                  for p in (out, logs)}
        assert digest == {
            "v.csv": "8a5081bd9d90b251ecedb783512bf4be8d20920b"
                     "1a7c5a8cb5cd62f48e36e791",
            "t.jsonl": "bd94c00fdd2b280fe41551b0a26a906eb67573d5"
                       "e4b37ead25305495aa81e4bb",
        }

    def test_walking_export_verify_output_pinned(self, tmp_path):
        """verify CSV, without and with --transcripts, and the transcripts
        of a witness that walks on the L = 651 export, as the per-step
        transcript loop wrote them: every trial is rejected, at steps
        spread over the walk, so the records expand into transcripts of
        many lengths."""
        inst, witnesses = longest_export()
        assert 496 in witnesses
        sat = str(tmp_path / "sat.json")
        save(inst, sat)
        out, logs = tmp_path / "v.csv", tmp_path / "t.jsonl"
        argv = ["verify", "--instance", sat, "--witness", "496",
                "--trials", "200", "--seed", "7", "--out", str(out)]
        assert cli_main(argv) == 0
        bare = out.read_bytes()
        assert cli_main([*argv, "--transcripts", str(logs)]) == 0
        assert out.read_bytes() == bare
        digest = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                  for p in (out, logs)}
        assert digest == {
            "v.csv": "0fc1a26dd68b748b9c6fe32ebfb78c91b9eed64f"
                     "0d89f8365fa751fded89730d",
            "t.jsonl": "9fd4c26e3f7635607698b366e4e5d67456b5b64d"
                       "0940530d3ce766bf4701d8d9",
        }

    def test_classical_verify_output_pinned(self, tmp_path):
        """verify CSV and transcripts of a satisfying string of a CNF, a
        fixed point of the walk, as the per-trial loop wrote them."""
        sat = str(tmp_path / "sat.json")
        save(from_dimacs(SAT_3), sat)
        out, logs = tmp_path / "v.csv", tmp_path / "t.jsonl"
        assert cli_main(["verify", "--instance", sat, "--witness", "0b110",
                         "--trials", "200", "--seed", "7",
                         "--out", str(out), "--transcripts", str(logs)]) == 0
        digest = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                  for p in (out, logs)}
        assert digest == {
            "v.csv": "4475d4b404505a3c039d356df1c655b4b180890b"
                     "0307c6a3e84f2a60bb5d9e98",
            "t.jsonl": "d6d17ad85990fa27cff3e10b5311348108ee458a"
                       "7a97bfde6ec96fbaef4128cc",
        }


def probes(bounds):
    """0.0, and every bound with the doubles on either side of it."""
    return [0.0] + [v for b in bounds for v in (math.nextafter(b, -math.inf),
                                                b, math.nextafter(b, math.inf))]


def assert_lane_matches_bisect(x, row):
    """The row's lane (lo, hi] holds exactly the uniforms for which
    bisect_left picks the self move x -> x with log r 0.0."""
    bounds, moves, _, lo, hi = row
    for u in probes(bounds):
        assert (lo < u <= hi) == (moves[bisect_left(bounds, u)] == (x, 0.0)), u


class Uniforms:
    """A stand-in Generator that draws the given floats in order."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, size=None):
        if size is None:
            return self.values.pop(0)
        out, self.values = self.values[:size], self.values[size:]
        return np.array(out)


class TestLazyStepLane:
    """Each compiled row carries the interval of uniforms that pick its
    self move, which the trial loop tests before any bisect."""

    @staticmethod
    def runner(ys, ps, rs):
        """A runner whose every string has the row (ys, ps, rs)."""
        runner = WalkRunner(plus_instance(3, [(0, 1)]))
        runner.diag_positive = lambda x: True
        runner.transition_probabilities = lambda x: (ys, ps, rs)
        return runner

    def compiled(self, ys, ps, rs):
        """String 2's compiled row, after one step from 2 at each probe
        uniform matches the reference loop's step."""
        runner = self.runner(ys, ps, rs)
        row = runner._row(2)
        config = WalkConfig(steps=1)
        for u in probes(row[0]):
            got = runner.transcript(2, runner._run_with_rng(
                2, config, Uniforms([u])))
            expect = reference_trial(self.runner(ys, ps, rs), 2, config,
                                     Uniforms([u]))
            assert dataclasses.asdict(got) == dataclasses.asdict(expect), u
        return row

    @pytest.mark.parametrize("ys, ps, rs, lane", [
        ([2], [1.0], [1.0], (-math.inf, math.inf)),
        ([2, 3, 5], [0.5, 0.25, 0.25], [1.0] * 3, (-math.inf, 0.5)),
        ([0, 1, 2], [0.25, 0.25, 0.5], [1.0] * 3, (0.5, math.inf)),
        ([1, 2, 3], [0.25, 0.5, 0.25], [1.0] * 3, (0.25, 0.75)),
        # a zero-weight move (r = 0, log r None) duplicates a bound
        ([0, 1, 2, 3], [0.25, 0.0, 0.5, 0.25], [1.0, 0.0, 1.0, 1.0],
         (0.25, 0.75)),
        ([1, 2, 3, 4], [0.25, 0.5, 0.0, 0.25], [1.0, 1.0, 0.0, 1.0],
         (0.25, 0.75)),
        ([0, 1, 2], [0.5, 0.0, 0.5], [1.0, 0.0, 1.0], (0.5, math.inf)),
        ([2, 3], [0.5, 0.5], [1.0, 1.0], (-math.inf, 0.5)),
    ], ids=["only", "first", "last", "middle", "after-zero-weight",
            "before-zero-weight", "last-after-zero-weight", "first-of-two"])
    def test_self_move_interval(self, ys, ps, rs, lane):
        row = self.compiled(ys, ps, rs)
        assert row[3:] == lane
        assert_lane_matches_bisect(2, row)

    @pytest.mark.parametrize("ys, ps, rs", [
        ([0, 1, 3], [0.25, 0.5, 0.25], [1.0] * 3),
        ([1, 2, 3], [0.5, 0.0, 0.5], [1.0, 0.0, 1.0]),
        ([2, 3], [0.0, 1.0], [0.0, 1.0]),
        # a self move whose r is not 1 would move log_r_sum
        ([1, 2], [0.5, 0.5], [1.0, 2.0]),
    ], ids=["no-self-move", "self-log-r-none", "first-log-r-none",
            "self-r-not-one"])
    def test_lane_empty(self, ys, ps, rs):
        row = self.compiled(ys, ps, rs)
        assert not row[3] < row[4]
        assert_lane_matches_bisect(2, row)

    @pytest.mark.parametrize("inst", [
        plus_instance(1, [(0,)]), plus_instance(3, [(0, 1), (1, 2)]),
        from_dimacs(SAT_3), random_projector_instance(4, 2, 3, 0),
        *soundness_exports()], ids=["plus1", "plus3", "cnf", "random",
                                    "export1", "export2"])
    def test_every_compiled_row(self, inst):
        runner = WalkRunner(inst)
        for w in range(2**inst.n):
            swept_trials(runner, w, WalkConfig(steps=30, seed=w), 3)
        assert runner._rows
        for x, row in runner._rows.items():
            assert_lane_matches_bisect(x, row)
            # a self move with r > 0 has r = sqrt(diag(x)/diag(x)) = 1
            if any(y == x and log_r is not None for y, log_r in row[1]):
                assert row[3] < row[4]

    def test_bisects_only_on_departures(self, monkeypatch):
        """On the L = 651 export every draw that keeps the walk in place
        takes the lane; only a move to another string bisects."""
        inst, witnesses = longest_export()
        runner = WalkRunner(inst)
        config = WalkConfig(steps=required_steps(inst.n, inst.epsilon, inst.m),
                            seed=17)

        def run():
            return [t for w in witnesses
                    for t in swept_trials(runner, w, config, 4)]

        expect = run()  # compiles every row the trials visit
        calls = []

        def counting(bounds, u):
            calls.append(u)
            return bisect_left(bounds, u)

        monkeypatch.setattr(walk, "bisect_left", counting)
        got = run()
        assert [dataclasses.asdict(t) for t in got] \
            == [dataclasses.asdict(t) for t in expect]
        departures = sum(a != b for t in got
                         for a, b in zip(t.visited, t.visited[1:]))
        lazy = sum(a == b for t in got
                   for a, b in zip(t.visited, t.visited[1:]))
        # a draw of a move with log r None bisects and leaves visited as is
        unnormalized = sum(t.rng_draws == t.reject_step + 1 for t in got
                           if not t.accepted)
        assert len(calls) == departures + unnormalized
        assert lazy > departures > 0
        # a record keeps only the moves that left the lane
        records = [t for w in witnesses for t in runner.sweep(w, config, 4)[1]]
        assert sum(len(r.moves) for r in records) == departures

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_matches_reference_loop_on_the_longest_export(self, data):
        inst, witnesses = longest_export()
        assert_engine_matches_reference(inst, data, max_steps=651,
                                        witnesses=witnesses)
