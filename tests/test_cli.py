import hashlib
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

import stoqbench
from stoqbench import Gate, VerifierCircuit, cli, load, save_circuit
from stoqbench.cli import EXIT_ERROR, EXIT_OK, EXIT_PROMISE, main
from stoqbench.ops import DEFAULT_DENSE_LIMIT

SAT_3 = "p cnf 3 3\n1 2 0\n-1 3 0\n2 -3 0\n"
UNSAT_2 = "p cnf 2 4\n1 2 0\n-1 2 0\n1 -2 0\n-1 -2 0\n"
UNSAT_BIASED = "p cnf 3 4\n1 3 0\n1 -3 0\n2 3 0\n2 -3 0\n"


def write(path, text):
    path.write_text(text)
    return str(path)


@pytest.fixture
def sat_instance(tmp_path):
    dimacs = write(tmp_path / "f.cnf", SAT_3)
    out = str(tmp_path / "inst.json")
    assert main(["gen", "from-dimacs", "--dimacs", dimacs, "--out", out]) \
        == EXIT_OK
    return out


class TestGen:
    def test_from_dimacs_writes_instance_and_manifest(self, sat_instance):
        inst = load(sat_instance)
        assert inst.n == 3 and inst.m == 3
        manifest = json.loads(open(sat_instance + ".manifest.json").read())
        assert manifest["tool"] == "stoqbench"
        assert len(manifest["inputs"]) == 1

    def test_random_deterministic(self, tmp_path):
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        for out in (a, b):
            assert main(["gen", "random", "--n", "4", "--k", "2",
                         "--terms", "3", "--seed", "5", "--out", out]) == EXIT_OK
        assert open(a).read() == open(b).read()

    def test_cnf_ensemble(self, tmp_path):
        cnf = write(tmp_path / "e.cnf", UNSAT_BIASED)
        out = str(tmp_path / "ens.json")
        assert main(["gen", "cnf-ensemble", "--cnf", cnf, "--q-vars", "3",
                     "--out", out]) == EXIT_OK
        ens = load(out)
        assert ens.n == 2 and ens.m == 1

    def test_missing_file_is_error(self, tmp_path):
        assert main(["gen", "from-dimacs", "--dimacs",
                     str(tmp_path / "nope.cnf"),
                     "--out", str(tmp_path / "o.json")]) == EXIT_ERROR


class TestPipeline:
    def test_prove_then_verify_sat(self, sat_instance, tmp_path):
        wit = str(tmp_path / "wit.json")
        assert main(["prove", "--instance", sat_instance, "--out", wit]) \
            == EXIT_OK
        doc = json.loads(open(wit).read())
        assert not doc["looks_unsat"]
        out = str(tmp_path / "verify.csv")
        assert main(["verify", "--instance", sat_instance, "--witness", wit,
                     "--trials", "20", "--seed", "1", "--out", out]) == EXIT_OK
        lines = open(out).read().splitlines()
        assert lines[0].startswith("trial,accepted")
        rate_row = [l for l in lines if l.startswith("rate")][0]
        assert rate_row.split(",")[1] == "1"

    def test_prove_unsat_returns_promise_code(self, tmp_path):
        dimacs = write(tmp_path / "u.cnf", UNSAT_2)
        inst = str(tmp_path / "u.json")
        main(["gen", "from-dimacs", "--dimacs", dimacs, "--out", inst])
        wit = str(tmp_path / "wit.json")
        assert main(["prove", "--instance", inst, "--out", wit]) \
            == EXIT_PROMISE
        assert json.loads(open(wit).read())["looks_unsat"]

    def test_verify_literal_witness_and_transcripts(self, sat_instance,
                                                    tmp_path):
        out = str(tmp_path / "v.csv")
        logs = str(tmp_path / "t.jsonl")
        assert main(["verify", "--instance", sat_instance, "--witness", "0b110",
                     "--trials", "5", "--seed", "0", "--out", out,
                     "--transcripts", logs]) == EXIT_OK
        records = [json.loads(l) for l in open(logs).read().splitlines()]
        assert len(records) == 5
        assert all(r["accepted"] for r in records)

    def test_spectrum_of_instance(self, sat_instance, tmp_path):
        out = str(tmp_path / "s.csv")
        assert main(["spectrum", "--instance", sat_instance, "--out", out]) \
            == EXIT_OK
        rows = dict(l.split(",")[:2] for l in
                    open(out).read().splitlines()[1:])
        assert float(rows["max"]) == pytest.approx(1.0, abs=1e-12)
        assert 0.0 <= float(rows["min"]) <= 1.0


class TestCompile:
    def circuit_path(self, tmp_path):
        v = VerifierCircuit(n=0, n_w=0, n_0=0, n_plus=1,
                            gates=(Gate("X", (0,)), Gate("X", (0,))))
        path = str(tmp_path / "circ.json")
        save_circuit(v, path)
        return path

    def test_compile_clock_and_spectrum(self, tmp_path):
        circ = self.circuit_path(tmp_path)
        out = str(tmp_path / "clock.json")
        assert main(["compile", "--circuit", circ, "--to", "clock",
                     "--out", out]) == EXIT_OK
        s = str(tmp_path / "spec.csv")
        assert main(["spectrum", "--instance", out, "--out", s]) == EXIT_OK
        rows = dict(l.split(",")[:2] for l in open(s).read().splitlines()[1:])
        assert abs(float(rows["min"])) <= 1e-10

    def test_spectrum_above_dense_limit(self, sat_instance, tmp_path,
                                        monkeypatch):
        clock = str(tmp_path / "clock.json")
        assert main(["compile", "--circuit", self.circuit_path(tmp_path),
                     "--to", "clock", "--out", clock]) == EXIT_OK
        # one 16-row component; the CNF's G is diagonal, so its one-row
        # components stay on the dense path at any limit
        rand = str(tmp_path / "rand.json")
        assert main(["gen", "random", "--n", "4", "--k", "2", "--terms", "3",
                     "--seed", "5", "--out", rand]) == EXIT_OK
        dense, diag = str(tmp_path / "d.csv"), str(tmp_path / "g.csv")
        assert main(["spectrum", "--instance", sat_instance, "--out", dense]) \
            == EXIT_OK
        monkeypatch.setenv("STOQ_DENSE_LIMIT", "0")
        assert main(["spectrum", "--instance", sat_instance, "--out", diag]) \
            == EXIT_OK
        monkeypatch.delenv("STOQ_DENSE_LIMIT")
        assert open(diag).read() == open(dense).read()
        for inst in (rand, clock):
            dense, sparse = str(tmp_path / "d.csv"), str(tmp_path / "s.csv")
            assert main(["spectrum", "--instance", inst, "--out", dense]) \
                == EXIT_OK
            monkeypatch.setenv("STOQ_DENSE_LIMIT", "1")
            assert main(["spectrum", "--instance", inst, "--out", sparse]) \
                == EXIT_OK
            monkeypatch.delenv("STOQ_DENSE_LIMIT")
            want = dict(l.split(",") for l in open(dense).read().split()[1:])
            got = dict(l.split(",") for l in open(sparse).read().split()[1:])
            assert sorted(got) == ["max", "min"]
            for q in got:
                assert float(got[q]) == pytest.approx(float(want[q]), abs=1e-9)

    def test_compile_6sat_then_verify(self, tmp_path):
        circ = self.circuit_path(tmp_path)
        out = str(tmp_path / "sat.json")
        assert main(["compile", "--circuit", circ, "--to", "6sat",
                     "--out", out]) == EXIT_OK
        inst = load(out)
        assert inst.epsilon == 1.0  # accepting circuit exports a yes-instance
        v = str(tmp_path / "v.csv")
        wit = str(tmp_path / "wit.json")
        assert main(["prove", "--instance", out, "--out", wit]) == EXIT_OK
        assert main(["verify", "--instance", out, "--witness", wit,
                     "--trials", "10", "--seed", "2", "--out", v]) == EXIT_OK
        rate_row = [l for l in open(v).read().splitlines()
                    if l.startswith("rate")][0]
        assert rate_row.split(",")[1] == "1"

    def test_compile_verifier_from_lhmin(self, tmp_path):
        from stoqbench import LhMinInstance, LocalOperator, save
        x = np.array([[0.0, -1.0], [-1.0, 0.0]])
        inst = LhMinInstance(1, (LocalOperator((0,), x),), -1.0 - 1e-6, 0.0)
        path = str(tmp_path / "h.json")
        save(inst, path)
        out = str(tmp_path / "ver.json")
        assert main(["compile", "--instance", path, "--to", "verifier",
                     "--out", out]) == EXIT_OK
        doc = json.loads(open(out).read())
        assert doc["kind"] == "mixed-verifier"
        assert sum(p["p"] for p in doc["parts"]) == pytest.approx(1.0)


class TestTraceAndEnsemble:
    def lhmin_path(self, tmp_path):
        from stoqbench import LhMinInstance, LocalOperator, save
        x = np.array([[0.0, -1.0], [-1.0, 0.0]])
        inst = LhMinInstance(1, (LocalOperator((0,), x),), -1.0 - 1e-6, 0.0)
        path = str(tmp_path / "h.json")
        save(inst, path)
        return path

    def test_trace_exact(self, tmp_path):
        out = str(tmp_path / "tr.csv")
        assert main(["trace", "--instance", self.lhmin_path(tmp_path),
                     "--power", "2", "--out", out]) == EXIT_OK
        row = open(out).read().splitlines()[1].split(",")
        assert float(row[1]) == pytest.approx(5.0 / 9.0)
        assert row[3] == "exact"

    def test_sampled_trace_without_weighted_path_is_promise_exit(
            self, tmp_path, capsys):
        from stoqbench import LhMinInstance, LocalOperator, save
        z = np.diag([0.0, 1.0])
        inst = LhMinInstance(6, tuple(LocalOperator((q,), z) for q in range(6)),
                             0.0, 1.0)
        path = str(tmp_path / "h.json")
        save(inst, path)
        exact = str(tmp_path / "exact.csv")
        assert main(["trace", "--instance", path, "--power", "2",
                     "--out", exact]) == EXIT_OK
        assert float(open(exact).read().splitlines()[1].split(",")[1]) > 0
        capsys.readouterr()
        out = tmp_path / "sampled.csv"
        assert main(["trace", "--instance", path, "--power", "2", "--paths",
                     "10", "--seed", "0", "--out", str(out)]) == EXIT_PROMISE
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not out.exists()
        assert not (tmp_path / "sampled.csv.manifest.json").exists()

    def ensemble_path(self, tmp_path):
        cnf = write(tmp_path / "e.cnf", UNSAT_BIASED)
        out = str(tmp_path / "ens.json")
        main(["gen", "cnf-ensemble", "--cnf", cnf, "--q-vars", "3",
              "--out", out])
        return out

    def test_ensemble_stats_deterministic(self, tmp_path):
        ens = self.ensemble_path(tmp_path)
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        for out in (a, b):
            assert main(["ensemble", "--instance", ens, "--samples", "50",
                         "--seed", "4", "--out", out]) == EXIT_OK
        assert open(a).read() == open(b).read()
        lines = open(a).read().splitlines()
        assert lines[0] == "sample_index,r,lambda"

    def test_ensemble_decide_yes(self, tmp_path):
        # all realizations satisfiable: lambda identically 0
        ens = self.ensemble_path(tmp_path)
        out = str(tmp_path / "d.csv")
        assert main(["ensemble", "--instance", ens, "--samples", "60",
                     "--seed", "0", "--decide", "--lambda-yes", "1e-9",
                     "--lambda-no", "0.5", "--out", out]) == EXIT_OK
        assert "decision,,yes" in open(out).read()

    def test_ensemble_decide_inconclusive_code(self, tmp_path):
        # thresholds placed so the zero lambda falls between them
        ens = self.ensemble_path(tmp_path)
        out = str(tmp_path / "d.csv")
        assert main(["ensemble", "--instance", ens, "--samples", "40",
                     "--seed", "0", "--decide", "--lambda-yes", "-2.0",
                     "--lambda-no", "2.0", "--out", out]) == EXIT_PROMISE
        assert "decision,,inconclusive" in open(out).read()


class TestRobustness:
    @pytest.mark.parametrize("witness", ["8", "99", "-1"])
    def test_verify_witness_out_of_range(self, sat_instance, tmp_path, capsys,
                                         witness):
        out = tmp_path / "v.csv"
        assert main(["verify", "--instance", sat_instance, "--witness",
                     witness, "--trials", "5", "--seed", "0",
                     "--out", str(out)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert "out of range" in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_verify_nonpositive_trials(self, sat_instance, tmp_path, capsys,
                                       trials):
        out = tmp_path / "v.csv"
        assert main(["verify", "--instance", sat_instance, "--witness", "6",
                     "--trials", trials, "--seed", "0",
                     "--out", str(out)]) == EXIT_ERROR
        assert capsys.readouterr().err.count("\n") == 1
        assert not out.exists()
        assert not (tmp_path / "v.csv.manifest.json").exists()

    def test_trace_above_dense_limit_is_one_line_error(self, tmp_path, capsys,
                                                       monkeypatch):
        from stoqbench import LhMinInstance, LocalOperator, save
        # -X on every qubit connects all 16 strings into one component
        x = np.array([[0.0, -1.0], [-1.0, 0.0]])
        path = str(tmp_path / "h.json")
        save(LhMinInstance(4, tuple(LocalOperator((q,), x) for q in range(4)),
                           -4.0, -3.0), path)
        monkeypatch.setenv("STOQ_DENSE_LIMIT", "2")
        out = tmp_path / "t.csv"
        assert main(["trace", "--instance", path, "--out", str(out)]) \
            == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "dense limit" in err
        assert not out.exists()
        assert not (tmp_path / "t.csv.manifest.json").exists()

    def test_manifest_records_argv_of_main(self, sat_instance, tmp_path):
        out = str(tmp_path / "v.csv")
        argv = ["verify", "--instance", sat_instance, "--witness", "6",
                "--trials", "3", "--seed", "1", "--out", out]
        assert main(argv) == EXIT_OK
        manifest = json.loads(open(out + ".manifest.json").read())
        assert manifest["command"] == argv

    @pytest.mark.parametrize("limit", [None, "12"])
    def test_manifest_records_versions_and_dense_limit(
            self, sat_instance, tmp_path, monkeypatch, limit):
        if limit is None:
            monkeypatch.delenv("STOQ_DENSE_LIMIT", raising=False)
        else:
            monkeypatch.setenv("STOQ_DENSE_LIMIT", limit)
        out = str(tmp_path / "v.csv")
        assert main(["verify", "--instance", sat_instance, "--witness", "6",
                     "--trials", "3", "--seed", "1", "--out", out]) == EXIT_OK
        manifest = json.loads(open(out + ".manifest.json").read())
        assert manifest["python"] == platform.python_version()
        assert manifest["numpy"] == np.__version__
        assert manifest["scipy"] == scipy.__version__
        assert manifest["STOQ_DENSE_LIMIT"] == (DEFAULT_DENSE_LIMIT if limit is None
                                            else 12)

    def test_manifest_records_elapsed_time(self, sat_instance, tmp_path,
                                          capsys):
        out = tmp_path / "v.csv"
        argv = ["verify", "--instance", sat_instance, "--witness", "6",
                "--trials", "20", "--seed", "3"]
        assert main(argv + ["--out", str(out)]) == EXIT_OK
        manifest = json.loads((tmp_path / "v.csv.manifest.json").read_text())
        elapsed = manifest["elapsed_s"]
        assert type(elapsed) is float and math.isfinite(elapsed)
        assert elapsed >= 0.0
        assert manifest["seed"] == 3
        assert json.loads(open(sat_instance + ".manifest.json").read())[
            "seed"] is None
        # the CSV carries no timing: it matches stdout, which gets no
        # manifest, and the bytes written before manifests timed the run
        capsys.readouterr()
        assert main(argv) == EXIT_OK
        assert out.read_text() == capsys.readouterr().out
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "4b62eb8ae7c33c36d5b9c27c7f077e9c0da7a8b0ad2593ef07baaee20c31ea1e")

    @pytest.mark.parametrize("replicas", ["0", "-3"])
    def test_ensemble_nonpositive_replicas(self, tmp_path, capsys, replicas):
        cnf = write(tmp_path / "e.cnf", UNSAT_BIASED)
        ens = str(tmp_path / "ens.json")
        assert main(["gen", "cnf-ensemble", "--cnf", cnf, "--q-vars", "3",
                     "--out", ens]) == EXIT_OK
        out = tmp_path / "e.csv"
        assert main(["ensemble", "--instance", ens, "--samples", "10",
                     "--replicas", replicas, "--seed", "0",
                     "--out", str(out)]) == EXIT_ERROR
        assert capsys.readouterr().err == \
            "error: replica count must be >= 1\n"
        assert not out.exists()
        assert not (tmp_path / "e.csv.manifest.json").exists()

    @pytest.mark.parametrize("argv", [
        ["gen", "random", "--n", "3", "--terms", "2", "--out", "o.json"],
        ["verify", "--instance", "i.json", "--witness", "1"],
        ["trace", "--instance", "h.json"],
        ["ensemble", "--instance", "e.json"],
    ])
    @pytest.mark.parametrize("seed", ["-1", "-0x10", "1.5"])
    def test_bad_seed_names_the_flag(self, argv, seed, tmp_path, capsys,
                                     monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(argv + ["--seed", seed]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: argument --seed: ")
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_python_dash_m(self, tmp_path):
        src = str(Path(stoqbench.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
        run = [sys.executable, "-m", "stoqbench"]
        ok = subprocess.run(run + ["verify", "--help"], env=env,
                            capture_output=True, text=True, timeout=60)
        assert ok.returncode == EXIT_OK and "--witness" in ok.stdout
        bad = subprocess.run(run + ["verify", "--instance", "i.json",
                                    "--witness", "1", "--seed", "-1"],
                             env=env, cwd=tmp_path, capture_output=True,
                             text=True, timeout=60)
        assert bad.returncode == EXIT_ERROR
        assert bad.stderr.startswith("error: argument --seed: ")

    @pytest.mark.parametrize("argv", [
        ["verify", "--instance", "i.json", "--witness", "1", "--seed", "0",
         "--jobs", "2"],
        ["verify", "--instance", "i.json", "--witness", "1"],
        ["verify", "--instance", "i.json", "--witness", "1", "--seed", "x"],
        ["prove", "--instance", "i.json", "--out", "w.json", "--seed", "1"],
        ["frobnicate"],
        [],
    ])
    def test_usage_error_exits_1(self, argv, capsys):
        assert main(argv) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--help"])
        assert exc.value.code == 0
        assert "--witness" in capsys.readouterr().out

    @pytest.mark.parametrize("doc", ['{"eigenvalue": 1.0}', '{"argmax": "6"}',
                                     '{"argmax": true}', '[6]'])
    def test_witness_file_without_argmax(self, sat_instance, tmp_path,
                                         capsys, doc):
        wit = write(tmp_path / "wit.json", doc)
        out = tmp_path / "v.csv"
        assert main(["verify", "--instance", sat_instance, "--witness", wit,
                     "--trials", "3", "--seed", "0",
                     "--out", str(out)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert "argmax" in err and err.count("\n") == 1
        assert not out.exists()

    def test_wrong_instance_kind(self, sat_instance, tmp_path):
        assert main(["trace", "--instance", sat_instance,
                     "--out", str(tmp_path / "t.csv")]) == EXIT_ERROR

    def test_corrupt_json(self, tmp_path):
        bad = write(tmp_path / "bad.json", "{not json")
        assert main(["spectrum", "--instance", bad,
                     "--out", str(tmp_path / "s.csv")]) == EXIT_ERROR


class TestParserReuse:
    """main() parses with one parser per process; no call may see the
    options, defaults or errors of an earlier one."""

    def verify(self, instance, out, *extra):
        return main(["verify", "--instance", instance, "--witness", "5",
                     "--trials", "8", "--seed", "2", "--out", str(out),
                     *extra])

    def test_one_parser_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_usage_error_leaves_parser_intact(self, sat_instance, tmp_path,
                                              capsys):
        cli.build_parser.cache_clear()
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        assert self.verify(sat_instance, first) == EXIT_OK
        assert main(["verify"]) == EXIT_ERROR
        assert capsys.readouterr().err.startswith("error: ")
        assert self.verify(sat_instance, second) == EXIT_OK
        assert first.read_bytes() == second.read_bytes()

    def test_option_value_does_not_leak(self, sat_instance, tmp_path):
        logs = tmp_path / "t.jsonl"
        assert self.verify(sat_instance, tmp_path / "a.csv",
                           "--transcripts", str(logs)) == EXIT_OK
        assert len(logs.read_text().splitlines()) == 8
        logs.unlink()
        assert self.verify(sat_instance, tmp_path / "b.csv") == EXIT_OK
        assert not logs.exists()

    def test_rebound_command_runs(self, sat_instance, tmp_path, monkeypatch):
        cli.build_parser()
        calls = []
        original = cli.cmd_verify
        monkeypatch.setattr(cli, "cmd_verify", lambda args, argv: calls.append(
            args.trials) or original(args, argv))
        assert self.verify(sat_instance, tmp_path / "v.csv") == EXIT_OK
        assert calls == [8]

    def test_help_then_call(self, sat_instance, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "verify" in capsys.readouterr().out
        out = tmp_path / "v.csv"
        assert self.verify(sat_instance, out) == EXIT_OK
        assert out.read_text().splitlines()[-1].startswith("rate,0,")
