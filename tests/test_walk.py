import dataclasses
import functools
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stoqbench import walk
from stoqbench import (AcceptanceReport, Gate, LocalOperator, StoqSatInstance,
                       VerifierCircuit, WalkConfig, WalkRunner, WalkTranscript,
                       acceptance_rate, assemble_dense,
                       build_G, compile_circuit, export_6sat, from_dimacs,
                       honest_witness, random_projector_instance,
                       required_steps, run_walk, save_circuit,
                       wilson_interval)
from stoqbench.cli import main as cli_main
from conftest import plus_instance
from test_acceptance import planted_sat_dimacs, rejecting_circuits

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


class TestRunWalk:
    def test_satisfying_assignment_walks_in_place(self):
        inst = from_dimacs(SAT_3)
        config = WalkConfig(steps=4, seed=1)
        t = run_walk(inst, 0b110, config)
        assert t.accepted
        assert t.visited == [0b110] * 5
        assert t.log_r_sum == 0.0

    def test_unsat_rejects_every_witness_immediately(self):
        inst = from_dimacs(UNSAT_2)
        config = WalkConfig(steps=3, seed=0)
        for w in range(4):
            t = run_walk(inst, w, config)
            assert not t.accepted
            assert t.reject_step == 0
            assert t.reject_reason == "diag-zero"

    def test_plus_instance_accepts_across_seeds(self):
        inst = plus_instance(3, [(0, 1), (1, 2), (0, 2)])
        steps = required_steps(inst.n, inst.epsilon, inst.m)
        for seed in range(10):
            t = run_walk(inst, 0, WalkConfig(steps=steps, seed=seed))
            assert t.accepted, t.reject_reason

    def test_same_seed_same_transcript(self):
        inst = plus_instance(2, [(0, 1)])
        a = run_walk(inst, 0, WalkConfig(steps=8, seed=42))
        b = run_walk(inst, 0, WalkConfig(steps=8, seed=42))
        assert a.visited == b.visited and a.log_r_sum == b.log_r_sum

    def test_log_ratio_telescopes_to_amplitude_ratio(self):
        inst = plus_instance(3, [(0, 1), (1, 2)])
        hw = honest_witness(inst)
        amps = hw.vector.amplitudes
        t = run_walk(inst, hw.argmax, WalkConfig(steps=12, seed=5))
        assert t.accepted
        expect = math.log(amps[t.visited[-1]] / amps[t.visited[0]])
        assert t.log_r_sum == pytest.approx(expect, abs=1e-6)

    def test_transcript_serializes(self):
        inst = plus_instance(2, [(0, 1)])
        t = run_walk(inst, 0, WalkConfig(steps=2, seed=0))
        assert '"accepted": true' in t.to_json()

    def test_out_of_range_witness_rejected(self):
        inst = plus_instance(2, [(0, 1)])
        with pytest.raises(ValueError):
            run_walk(inst, 4, WalkConfig(steps=1, seed=0))


class TestAcceptanceRate:
    def test_yes_instance_rate_one(self):
        inst = plus_instance(2, [(0, 1)])
        rep = acceptance_rate(inst, 0, 200, WalkConfig(steps=5, seed=9))
        assert rep.rate == 1.0 and rep.accepted == 200

    def test_deterministic_rejection_short_circuits(self):
        inst = from_dimacs(UNSAT_2)
        rep = acceptance_rate(inst, 0, 1000, WalkConfig(steps=3, seed=0))
        assert rep.rate == 0.0 and rep.deterministic

    def test_same_seed_reproduces(self):
        inst = plus_instance(2, [(0,), (1,)])
        a = acceptance_rate(inst, 1, 50, WalkConfig(steps=6, seed=3))
        b = acceptance_rate(inst, 1, 50, WalkConfig(steps=6, seed=3))
        assert (a.rate, a.accepted) == (b.rate, b.accepted)

    def test_majority_vote_wrapper(self):
        inst = plus_instance(2, [(0, 1)])
        rep = acceptance_rate(inst, 0, 20, WalkConfig(steps=4, seed=2),
                              majority=3)
        assert rep.rate == 1.0

    @pytest.mark.parametrize("witness, reason", [(1, "diag-zero"),
                                                 (3, "unnormalized")])
    def test_deterministic_witness_derives_no_streams(self, monkeypatch,
                                                      witness, reason):
        inst = random_projector_instance(3, 2, 3, 0)
        calls = []
        derive = walk._pcg64_words
        monkeypatch.setattr(walk, "_pcg64_words",
                            lambda *a: calls.append(a) or derive(*a))
        config = WalkConfig(steps=5, seed=4)
        assert WalkRunner(inst)._start(witness) == reason
        rep = acceptance_rate(inst, witness, 300, config, majority=3)
        assert rep == AcceptanceReport(0.0, 0.0, 0.0, 300, 0,
                                       deterministic=True)
        assert calls == []
        # a witness whose walk draws does derive them, one block per call
        acceptance_rate(inst, 0, 300, config, majority=3)
        assert len(calls) == 1

    @pytest.mark.parametrize("majority", [0, -1])
    @pytest.mark.parametrize("witness", [1, 0], ids=["diag-zero", "walks"])
    def test_nonpositive_majority_rejected(self, witness, majority):
        # witness 1 is rejected at step 0; witness 0 walks and draws
        inst = random_projector_instance(3, 2, 3, 0)
        config = WalkConfig(steps=5, seed=4)
        with pytest.raises(ValueError, match="majority must be >= 1"):
            acceptance_rate(inst, witness, 10, config, majority=majority)


class TestTrialStreams:
    """Trial (i, v) must draw numpy's default_rng(SeedSequence(seed,
    spawn_key=(i, v))) stream; a numpy release that changes its seeding
    fails here rather than silently changing verify CSVs."""

    SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**128 + 12345, 3**200]
    KEYS = [(0, 0), (0, 1), (1, 0), (7, 2), (2**31, 1), (2**32 - 1, 2)]

    @staticmethod
    def assert_streams_match(seed, keys):
        keys = np.array(keys, dtype=np.uint32).reshape(len(keys), -1)
        words = walk._pcg64_words(*walk._seed_pool(seed), keys)
        rngs = walk._generators(seed, [keys])
        for key, got, rng in zip(keys.tolist(), words, rngs):
            seq = np.random.SeedSequence(seed, spawn_key=key)
            assert got == seq.generate_state(4, np.uint64).tolist()
            expect = np.random.default_rng(seq).random(64)
            assert np.array_equal(rng.random(64), expect)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_trial_keys_match_seed_sequence(self, seed):
        self.assert_streams_match(seed, self.KEYS)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_empty_key_matches_run_seed(self, seed):
        self.assert_streams_match(seed, [()])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**256), st.lists(
        st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2)),
        min_size=1, max_size=5))
    def test_random_seeds_and_keys(self, seed, keys):
        self.assert_streams_match(seed, keys)

    @pytest.mark.parametrize("count, majority", [(1, 1), (5, 3), (4097, 1),
                                                 (3, 5000)])
    def test_trial_keys_in_order_and_bounded(self, count, majority):
        blocks = list(walk._trial_keys(count, majority))
        assert all(len(b) <= max(walk._KEY_BLOCK, majority) for b in blocks)
        assert np.concatenate(blocks).tolist() == [
            [i, v] for i in range(count) for v in range(majority)]

    def test_key_limit(self):
        inst = plus_instance(2, [(0, 1)])
        config = WalkConfig(steps=3, seed=1)
        runner = WalkRunner(inst)
        # 2^32 trials keep every i in one spawn-key word; trial 0 is
        # drawn from the first block alone
        [first] = next(runner.trials(0, config, 2**32))
        seq = np.random.SeedSequence(1, spawn_key=(0, 0))
        expect = reference_trial(WalkRunner(inst), 0, config,
                                 np.random.default_rng(seq))
        assert dataclasses.asdict(first) == dataclasses.asdict(expect)
        for count, majority in [(2**32 + 1, 1), (1, 2**32 + 1)]:
            with pytest.raises(ValueError, match="2\\^32"):
                next(runner.trials(0, config, count, majority))

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
        if not (abs(sum(ps) - 1.0) <= runner.eta * max(1, len(ys))
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
    if log_r_sum > config.eta_walk * L:
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


def assert_engine_matches_reference(inst, data):
    witness = data.draw(st.integers(0, 2**inst.n - 1), label="witness")
    config = WalkConfig(steps=data.draw(st.integers(1, 200), label="steps"),
                        seed=data.draw(st.integers(0, 2**63 - 1), label="seed"))
    count = data.draw(st.integers(1, 3), label="trials")
    majority = data.draw(st.integers(1, 3), label="majority")
    runner = WalkRunner(inst)
    ref = WalkRunner(inst)
    for i, votes in enumerate(runner.trials(witness, config, count, majority)):
        assert len(votes) == majority
        for v, t in enumerate(votes):
            rng = np.random.default_rng(
                np.random.SeedSequence(config.seed, spawn_key=(i, v)))
            expect = reference_trial(ref, witness, config, rng)
            assert dataclasses.asdict(t) == dataclasses.asdict(expect)
    expect = reference_trial(ref, witness, config, np.random.default_rng(
        np.random.SeedSequence(config.seed)))
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
        """verify CSV and transcripts of a clock export, as written before
        the compiled-row engine."""
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
            "v.csv": "895cc8aa318b355722cb0fd91c5ed4149b1edc7a"
                     "3f5e094fe877412e4ddb8ce6",
            "t.jsonl": "0e1444105475b4c05872505939da81430da6b864"
                       "900684f8070668364a7242a5",
        }
