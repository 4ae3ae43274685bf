import argparse
import ast
import hashlib
import json
import math
import os
import platform
import stat
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy

import stoqbench
from stoqbench import (DisorderEnsemble, Gate, LhMinInstance, LocalOperator,
                       TermTemplate, VerifierCircuit, circuits, cli, instances,
                       load, load_circuit, random_projector_instance, save,
                       save_circuit)
from stoqbench.cli import EXIT_ERROR, EXIT_OK, EXIT_PROMISE, main
from stoqbench.ops import DEFAULT_DENSE_LIMIT

from conftest import random_stoquastic_block

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
        manifest = json.loads(
            Path(sat_instance + ".manifest.json").read_text())
        assert manifest["tool"] == "stoqbench"
        assert len(manifest["inputs"]) == 1

    def test_random_deterministic(self, tmp_path):
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        for out in (a, b):
            assert main(["gen", "random", "--n", "4", "--k", "2",
                         "--terms", "3", "--seed", "5", "--out", out]) == EXIT_OK
        assert Path(a).read_text() == Path(b).read_text()

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
        doc = json.loads(Path(wit).read_text())
        assert not doc["looks_unsat"]
        out = str(tmp_path / "verify.csv")
        assert main(["verify", "--instance", sat_instance, "--witness", wit,
                     "--trials", "20", "--seed", "1", "--out", out]) == EXIT_OK
        lines = Path(out).read_text().splitlines()
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
        assert json.loads(Path(wit).read_text())["looks_unsat"]

    def test_verify_literal_witness_and_transcripts(self, sat_instance,
                                                    tmp_path):
        out = str(tmp_path / "v.csv")
        logs = str(tmp_path / "t.jsonl")
        assert main(["verify", "--instance", sat_instance, "--witness", "0b110",
                     "--trials", "5", "--seed", "0", "--out", out,
                     "--transcripts", logs]) == EXIT_OK
        records = [json.loads(l) for l in Path(logs).read_text().splitlines()]
        assert len(records) == 5
        assert all(r["accepted"] for r in records)

    def test_spectrum_of_instance(self, sat_instance, tmp_path):
        out = str(tmp_path / "s.csv")
        assert main(["spectrum", "--instance", sat_instance, "--out", out]) \
            == EXIT_OK
        rows = dict(l.split(",")[:2] for l in
                    Path(out).read_text().splitlines()[1:])
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
        rows = dict(l.split(",")[:2]
                    for l in Path(s).read_text().splitlines()[1:])
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
        assert Path(diag).read_text() == Path(dense).read_text()
        for inst in (rand, clock):
            dense, sparse = str(tmp_path / "d.csv"), str(tmp_path / "s.csv")
            assert main(["spectrum", "--instance", inst, "--out", dense]) \
                == EXIT_OK
            monkeypatch.setenv("STOQ_DENSE_LIMIT", "1")
            assert main(["spectrum", "--instance", inst, "--out", sparse]) \
                == EXIT_OK
            monkeypatch.delenv("STOQ_DENSE_LIMIT")
            want = dict(l.split(",")
                        for l in Path(dense).read_text().split()[1:])
            got = dict(l.split(",")
                       for l in Path(sparse).read_text().split()[1:])
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
        rate_row = [l for l in Path(v).read_text().splitlines()
                    if l.startswith("rate")][0]
        assert rate_row.split(",")[1] == "1"

    def test_compile_verifier_from_lhmin(self, tmp_path):
        """The written parts accept psi with -alpha <psi|H|psi> + beta',
        within the mixing budget, for n <= 4."""
        x = np.array([[0.0, -1.0], [-1.0, 0.0]])
        rng = np.random.default_rng(15)
        cases = [LhMinInstance(1, (LocalOperator((0,), x),), -1.0 - 1e-6, 0.0)]
        for n in (2, 3, 4):
            terms = tuple(
                LocalOperator(sup, random_stoquastic_block(rng, len(sup)))
                for sup in [(0,), (n - 1,), (0, n - 1), (1, n - 1)][:n + 1])
            cases.append(LhMinInstance(n, terms, -1.0, 1.0))
        path = str(tmp_path / "h.json")
        out = str(tmp_path / "ver.json")
        for inst in cases:
            save(inst, path)
            assert main(["compile", "--instance", path, "--to", "verifier",
                         "--out", out]) == EXIT_OK
            doc = json.loads(Path(out).read_text())
            assert doc["kind"] == "mixed-verifier"
            parts = [(p["p"], circuits.circuit_from_document(p["circuit"]))
                     for p in doc["parts"]]
            assert sum(p for p, _ in parts) == 1.0
            h = stoqbench.assemble_dense(inst.operator())
            budget = 1e-8 + len(parts) * 2.0**-20
            for _ in range(4):
                psi = rng.normal(size=2**inst.n)
                psi /= np.linalg.norm(psi)
                got = sum(p * circuits.acceptance_probability(v, 0, psi)
                          for p, v in parts)
                want = -doc["alpha"] * float(psi @ h @ psi) + doc["beta_prime"]
                assert abs(got - want) <= budget


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
        row = Path(out).read_text().splitlines()[1].split(",")
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
        assert float(Path(exact).read_text().splitlines()[1].split(",")[1]) > 0
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
        assert Path(a).read_text() == Path(b).read_text()
        lines = Path(a).read_text().splitlines()
        assert lines[0] == "sample_index,r,lambda"

    def test_ensemble_decide_yes(self, tmp_path):
        # all realizations satisfiable: lambda identically 0
        ens = self.ensemble_path(tmp_path)
        out = str(tmp_path / "d.csv")
        assert main(["ensemble", "--instance", ens, "--samples", "60",
                     "--seed", "0", "--decide", "--lambda-yes", "1e-9",
                     "--lambda-no", "0.5", "--out", out]) == EXIT_OK
        assert "decision,,yes" in Path(out).read_text()

    def test_ensemble_decide_inconclusive_code(self, tmp_path):
        # thresholds placed so the zero lambda falls between them
        ens = self.ensemble_path(tmp_path)
        out = str(tmp_path / "d.csv")
        assert main(["ensemble", "--instance", ens, "--samples", "40",
                     "--seed", "0", "--decide", "--lambda-yes", "-2.0",
                     "--lambda-no", "2.0", "--out", out]) == EXIT_PROMISE
        assert "decision,,inconclusive" in Path(out).read_text()

    def test_ensemble_decide_reads_the_threshold_defaults(self, tmp_path):
        ens = self.ensemble_path(tmp_path)
        outs = []
        for given in ([], ["--lambda-yes", "0", "--lambda-no", "1"]):
            out = tmp_path / f"d{len(outs)}.csv"
            assert main(["ensemble", "--instance", ens, "--samples", "20",
                         "--seed", "0", "--decide", *given, "--out",
                         str(out)]) in (EXIT_OK, EXIT_PROMISE)
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] and b"decision," in outs[0]


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

    @pytest.mark.parametrize("bad", ["out", "transcripts"])
    def test_verify_bad_output_path_leaves_no_file(self, sat_instance, tmp_path,
                                                   capsys, bad):
        """Either output path missing its directory: exit 1, and neither
        file nor a manifest is left, whichever is written first."""
        paths = {"out": tmp_path / "v.csv", "transcripts": tmp_path / "t.jsonl"}
        paths[bad] = tmp_path / "nodir" / paths[bad].name
        before = sorted(tmp_path.iterdir())
        assert main(["verify", "--instance", sat_instance, "--witness", "6",
                     "--trials", "5", "--seed", "0", "--out", str(paths["out"]),
                     "--transcripts", str(paths["transcripts"])]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert "No such file or directory" in err and err.count("\n") == 1
        assert sorted(tmp_path.iterdir()) == before

    def test_trace_above_dense_limit_is_one_line_error(self, tmp_path, capsys,
                                                       monkeypatch):
        from stoqbench import LhMinInstance, LocalOperator, save
        # -X on qubit 0 and -XX on each neighbour pair connect all 16
        # strings of one qubit group into one component
        x = np.array([[0.0, -1.0], [-1.0, 0.0]])
        path = str(tmp_path / "h.json")
        save(LhMinInstance(4, (LocalOperator((0,), x),) + tuple(
            LocalOperator((q, q + 1), np.kron(x, -x)) for q in range(3)),
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

    def test_one_group_above_dense_limit(self, tmp_path, capsys, monkeypatch):
        """Qubits 0-3 are one group with a 16-row component, qubit 4 a
        second group and qubit 5 a free one: under STOQ_DENSE_LIMIT=2 the
        first group's component is too large, so spectrum falls back to
        the LOBPCG min and max rows and trace exits 1."""
        from stoqbench import LhMinInstance, LocalOperator, save
        x = np.array([[0.0, -1.0], [-1.0, 0.0]])
        path = str(tmp_path / "h.json")
        save(LhMinInstance(6, (LocalOperator((0,), x),) + tuple(
            LocalOperator((q, q + 1), np.kron(x, -x)) for q in range(3)) + (
            LocalOperator((4,), 0.5 * x),), -4.0, -3.0), path)
        dense, sparse = tmp_path / "d.csv", tmp_path / "s.csv"
        assert main(["spectrum", "--instance", path, "--out", str(dense)]) \
            == EXIT_OK
        monkeypatch.setenv("STOQ_DENSE_LIMIT", "2")
        assert main(["spectrum", "--instance", path, "--out", str(sparse)]) \
            == EXIT_OK
        want = dict(l.split(",") for l in dense.read_text().split()[1:])
        got = dict(l.split(",") for l in sparse.read_text().split()[1:])
        assert sorted(want) == ["gap", "ground_dim", "max", "min"]
        assert sorted(got) == ["max", "min"]
        for q in got:
            assert float(got[q]) == pytest.approx(float(want[q]), abs=1e-9)
        capsys.readouterr()
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
        manifest = json.loads(Path(out + ".manifest.json").read_text())
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
        manifest = json.loads(Path(out + ".manifest.json").read_text())
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
        assert json.loads(Path(sat_instance + ".manifest.json").read_text())[
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

    @pytest.mark.parametrize("argv, flag", [
        (["gen", "random", "--n", "0", "--terms", "2"], "--n"),
        (["gen", "random", "--n", "-1", "--terms", "2"], "--n"),
        (["gen", "random", "--n", "3", "--terms", "0"], "--terms"),
        (["gen", "random", "--n", "3", "--k", "4", "--terms", "2"], "--k"),
        (["gen", "random", "--n", "8", "--k", "7", "--terms", "2"], "--k"),
        (["gen", "random", "--n", "3", "--k", "0", "--terms", "2"], "--k"),
    ])
    def test_gen_random_bad_count_names_the_flag(self, argv, flag, tmp_path,
                                                 capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(argv + ["--seed", "0", "--out", "g.json"]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"error: argument {flag}: ")
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, flag", [
        (["compile", "--to", "clock"], "--circuit"),
        (["compile", "--to", "6sat"], "--circuit"),
        (["compile", "--to", "verifier"], "--instance"),
    ])
    def test_compile_without_input_names_the_flag(self, argv, flag, tmp_path,
                                                  capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(argv + ["--out", "c.json"]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err == f"error: {' '.join(argv[:3])} needs {flag}\n"
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

    @staticmethod
    def one_line_error(argv, tmp_path, capsys, monkeypatch, inputs=()):
        """main(argv) in tmp_path exits 1 with one ``error:`` line on
        stderr, and writes nothing there but ``inputs``."""
        monkeypatch.chdir(tmp_path)
        capsys.readouterr()
        assert main(argv) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(inputs)
        return err

    # per command: argv without --instance, a kind it takes, a kind it
    # rejects, and the kinds its error message names
    KIND_ARGV = {
        "compile": (["compile", "--to", "verifier", "--out", "o.json"],
                    "lh-min", "stoq-sat", "lh-min"),
        "spectrum": (["spectrum", "--out", "o.csv"], "stoq-sat", "ensemble",
                     "stoq-sat or lh-min"),
        "prove": (["prove", "--out", "o.json"], "stoq-sat", "lh-min",
                  "stoq-sat"),
        "verify": (["verify", "--witness", "1", "--trials", "2", "--seed", "0",
                    "--out", "o.csv"], "stoq-sat", "ensemble", "stoq-sat"),
        "trace": (["trace", "--out", "o.csv"], "lh-min", "stoq-sat",
                  "lh-min"),
        "ensemble": (["ensemble", "--samples", "2", "--seed", "0",
                      "--out", "o.csv"], "ensemble", "lh-min", "ensemble"),
    }

    @staticmethod
    def instance_of_kind(kind):
        x = np.array([[0.0, -1.0], [-1.0, 0.0]])
        if kind == "stoq-sat":
            return random_projector_instance(2, 1, 2, seed=0)
        if kind == "lh-min":
            return LhMinInstance(1, (LocalOperator((0,), x),), -1.0 - 1e-6, 0.0)
        return DisorderEnsemble(1, 1, (TermTemplate((0,), (0,), {
            0: x, 1: np.diag([0.0, 1.0])}),))

    @pytest.mark.parametrize("command", sorted(KIND_ARGV))
    def test_wrong_instance_kind_is_one_line(self, command, tmp_path, capsys,
                                             monkeypatch):
        argv, right, wrong, needs = self.KIND_ARGV[command]
        for kind in (right, wrong):
            save(self.instance_of_kind(kind), tmp_path / f"{kind}.json")
        inputs = [f"{right}.json", f"{wrong}.json"]
        err = self.one_line_error(argv + ["--instance", f"{wrong}.json"],
                                  tmp_path, capsys, monkeypatch, inputs)
        assert err == f"error: {command} reads {needs} instances, not {wrong}\n"
        # the right kind passes the check
        assert main(argv + ["--instance", f"{right}.json"]) in (EXIT_OK,
                                                               EXIT_PROMISE)

    # per case: an input file, its text, the argv that reads it and the
    # message of its one error line
    BOUNDARY = {
        "dimacs-bad-header": (
            "f.cnf", "p cnf 3\n1 2 0\n",
            ["gen", "from-dimacs", "--dimacs", "f.cnf"],
            "bad DIMACS header: 'p cnf 3'"),
        "dimacs-all-tautologies": (
            "f.cnf", "p cnf 2 2\n1 -1 0\n2 -2 0\n",
            ["gen", "from-dimacs", "--dimacs", "f.cnf"],
            "all clauses were tautologies"),
        "cnf-clause-without-work-variable": (
            "f.cnf", "p cnf 2 2\n1 2 0\n-2 0\n",
            ["gen", "cnf-ensemble", "--cnf", "f.cnf", "--q-vars", "2"],
            "clause (-2,) has no work variables"),
        "cnf-clause-of-four-work-variables": (
            "f.cnf", "p cnf 5 1\n1 2 3 4 5 0\n",
            ["gen", "cnf-ensemble", "--cnf", "f.cnf", "--q-vars", "5"],
            "clause (1, 2, 3, 4, 5) wider than 3 work variables"),
        "stoq-sat-support-outside-n": (
            "i.json", json.dumps({
                "version": 1, "kind": "stoq-sat", "n": 1, "epsilon": 0.5,
                "terms": [{"qubits": [1], "dim": 2,
                           "matrix": [1.0, 0.0, 0.0, 0.0]}]}),
            ["spectrum", "--instance", "i.json"],
            "not a valid stoquastic instance: term 0: support outside 1 "
            "qubits"),
        "non-stoquastic-template": (
            "i.json", json.dumps({
                "version": 1, "kind": "ensemble", "n": 1, "m": 1,
                "terms": [{"qubits": [0], "random_bits": [0], "dim": 2,
                           "tables": {"0": [0.0, 1.0, 1.0, 0.0],
                                      "1": [0.0, 0.0, 0.0, 0.0]}}]}),
            ["ensemble", "--instance", "i.json", "--samples", "2", "--seed",
             "0"],
            "not a valid stoquastic instance: template 0, assignment 0: "
            "positive off-diagonal 1"),
    }

    @pytest.mark.parametrize("case", sorted(BOUNDARY))
    def test_boundary_case_is_one_line(self, case, tmp_path, capsys,
                                       monkeypatch):
        name, text, argv, message = self.BOUNDARY[case]
        write(tmp_path / name, text)
        err = self.one_line_error(argv + ["--out", "o"], tmp_path, capsys,
                                  monkeypatch, [name])
        assert err == f"error: {message}\n"

    def test_dimacs_last_clause_needs_no_terminating_zero(self, tmp_path,
                                                          monkeypatch):
        monkeypatch.chdir(tmp_path)
        for name, text in (("a", "p cnf 2 2\n1 0\n-1 2"),
                           ("b", "p cnf 2 2\n1 0\n-1 2 0\n")):
            write(tmp_path / f"{name}.cnf", text)
            assert main(["gen", "from-dimacs", "--dimacs", f"{name}.cnf",
                         "--out", f"{name}.json"]) == EXIT_OK
        assert Path("a.json").read_bytes() == Path("b.json").read_bytes()

    LH_MIN = {"version": 1, "kind": "lh-min", "n": 1, "lambda_yes": -1.5,
              "lambda_no": 0.0, "metadata": {},
              "terms": [{"qubits": [0], "dim": 2,
                         "matrix": [0.0, -1.0, -1.0, 0.0]}]}
    CIRCUIT = {"version": 1, "n": 0, "n_w": 0, "n_0": 0, "n_plus": 1,
               "out_basis": "plus",
               "gates": [{"kind": "X", "qubits": [0]},
                         {"kind": "X", "qubits": [0]}]}

    @pytest.mark.parametrize("doc", [
        pytest.param({k: v for k, v in LH_MIN.items() if k != "n"}, id="no-n"),
        pytest.param({**LH_MIN, "terms": 5}, id="terms-5"),
        pytest.param({**LH_MIN, "terms": [
            {"dim": 2, "matrix": [0.0, -1.0, -1.0, 0.0]}]},
            id="term-without-qubits"),
        pytest.param({**LH_MIN, "terms": [
            {"qubits": [-1], "dim": 2, "matrix": [0.0, -1.0, -1.0, 0.0]}]},
            id="term-on-qubit-minus-1"),
        pytest.param([LH_MIN], id="top-level-list"),
    ])
    @pytest.mark.parametrize("command", [
        ["spectrum", "--out", "o.csv"],
        ["compile", "--to", "verifier", "--out", "o.json"],
    ], ids=["spectrum", "compile"])
    def test_malformed_instance_is_one_line(self, doc, command, tmp_path,
                                            capsys, monkeypatch):
        (tmp_path / "h.json").write_text(json.dumps(doc))
        self.one_line_error(command + ["--instance", "h.json"], tmp_path,
                            capsys, monkeypatch, ["h.json"])

    @pytest.mark.parametrize("doc", [
        pytest.param({k: v for k, v in CIRCUIT.items() if k != "gates"},
                     id="no-gates"),
        pytest.param({**CIRCUIT, "gates": [{"qubits": [0]}]},
                     id="gate-without-kind"),
        pytest.param({**CIRCUIT, "gates": [{"kind": 5, "qubits": [0]}]},
                     id="gate-kind-5"),
        pytest.param({**CIRCUIT, "gates": [{"kind": "x", "qubits": [0]}]},
                     id="gate-kind-lowercase"),
        pytest.param({**CIRCUIT, "gates": [{"kind": "X", "qubits": [-1]}]},
                     id="gate-on-qubit-minus-1"),
        pytest.param([CIRCUIT], id="top-level-list"),
    ])
    @pytest.mark.parametrize("target", ["clock", "6sat"])
    def test_malformed_circuit_is_one_line(self, doc, target, tmp_path,
                                           capsys, monkeypatch):
        (tmp_path / "c.json").write_text(json.dumps(doc))
        self.one_line_error(["compile", "--to", target, "--circuit", "c.json",
                             "--out", "o.json"], tmp_path, capsys,
                            monkeypatch, ["c.json"])

    @pytest.mark.parametrize("registers", [(-1, 1, 1, 2), (1, -1, 1, 2),
                                           (1, 1, -1, 2), (1, 1, 2, -1)])
    def test_negative_register_is_one_line(self, registers, tmp_path, capsys,
                                           monkeypatch):
        # each total is 3 qubits, enough for the gates on qubit 0
        sizes = dict(zip(("n", "n_w", "n_0", "n_plus"), registers))
        (tmp_path / "c.json").write_text(json.dumps({**self.CIRCUIT, **sizes}))
        err = self.one_line_error(["compile", "--to", "clock", "--circuit",
                                   "c.json", "--out", "o.json"], tmp_path,
                                  capsys, monkeypatch, ["c.json"])
        field = next(k for k, v in sizes.items() if v < 0)
        assert err == f"error: {field} must be >= 0, got -1\n"

    @pytest.mark.parametrize("n", [10**6, 1e300])
    @pytest.mark.parametrize("target", ["clock", "6sat"])
    def test_huge_work_register_is_one_line(self, n, target, tmp_path, capsys,
                                            monkeypatch):
        # an integer circuit loads, but compiling it is bounded at the 62
        # qubits of int64 basis indices before 2**n or one init term per
        # input qubit; a float one, 1e300, is not a register size at all
        doc = {**self.CIRCUIT, "n": n}
        if type(n) is int:
            assert circuits.circuit_from_document(doc).total_qubits == n + 1
            want = f"{n + 1} qubits exceed the 62 of int64 basis indices"
        else:
            want = f"n must be an integer, got {n!r}"
        (tmp_path / "c.json").write_text(json.dumps(doc))
        err = self.one_line_error(["compile", "--to", target, "--circuit",
                                   "c.json", "--out", "o.json"], tmp_path,
                                  capsys, monkeypatch, ["c.json"])
        assert err == f"error: {want}\n"

    @pytest.mark.parametrize("value", [1.9, True, "3"],
                             ids=["float", "bool", "string"])
    @pytest.mark.parametrize("field", ["n", "n_w", "n_0", "n_plus", "qubit"])
    def test_circuit_integer_field_is_one_line(self, field, value, tmp_path,
                                               capsys, monkeypatch):
        """int() would truncate 1.9 and take true as 1 and "3" as 3."""
        doc = {**self.CIRCUIT, "n": 1}
        if field == "qubit":
            doc["gates"] = [{"kind": "X", "qubits": [value]}]
        else:
            doc[field] = value
        (tmp_path / "c.json").write_text(json.dumps(doc))
        err = self.one_line_error(["compile", "--to", "clock", "--circuit",
                                   "c.json", "--out", "o.json"], tmp_path,
                                  capsys, monkeypatch, ["c.json"])
        name = "gate qubit" if field == "qubit" else field
        assert err == f"error: {name} must be an integer, got {value!r}\n"

    @staticmethod
    def with_integer_field(field, value):
        """An instance document with ``field`` set to ``value``: n, a
        term's dim or qubit, or an ensemble's m or random bit."""
        if field in ("m", "random_bit"):
            doc = instances.to_document(
                TestRobustness.instance_of_kind("ensemble"))
        else:
            doc = instances.to_document(instances.from_dimacs(SAT_3))
        term = doc["terms"][0]
        if field == "qubit":
            term["qubits"][0] = value
        elif field == "random_bit":
            term["random_bits"][0] = value
        elif field == "dim":
            term["dim"] = value
        else:
            doc[field] = value
        return doc

    @pytest.mark.parametrize("value", [1.9, True, "3"],
                             ids=["float", "bool", "string"])
    @pytest.mark.parametrize("field", ["n", "dim", "qubit", "m",
                                       "random_bit"])
    def test_instance_integer_field_is_one_line(self, field, value, tmp_path,
                                                capsys, monkeypatch):
        doc = self.with_integer_field(field, value)
        (tmp_path / "i.json").write_text(json.dumps(doc))
        err = self.one_line_error(["spectrum", "--instance", "i.json",
                                   "--out", "o.csv"], tmp_path, capsys,
                                  monkeypatch, ["i.json"])
        name = field.replace("_", " ")
        assert err == f"error: {name} must be an integer, got {value!r}\n"

    @staticmethod
    def with_float_field(field, value):
        """An instance document with ``field`` set to ``value``: a stoq-sat
        epsilon or matrix entry, an lh-min lambda or an ensemble table
        entry."""
        if field in ("epsilon", "matrix"):
            doc = instances.to_document(instances.from_dimacs(SAT_3))
        elif field == "table":
            doc = instances.to_document(
                TestRobustness.instance_of_kind("ensemble"))
        else:
            doc = json.loads(json.dumps(TestRobustness.LH_MIN))
        if field == "matrix":
            doc["terms"][0]["matrix"][0] = value
        elif field == "table":
            doc["terms"][0]["tables"]["0"][0] = value
        else:
            doc[field] = value
        return doc

    @pytest.mark.parametrize("value", ["0.5", True, [0.5]],
                             ids=["string", "bool", "list"])
    @pytest.mark.parametrize("field", ["epsilon", "lambda_yes", "lambda_no",
                                       "matrix", "table"])
    def test_instance_float_field_is_one_line(self, field, value, tmp_path,
                                              capsys, monkeypatch):
        """float() would take "0.5" as 0.5 and true as 1.0."""
        doc = self.with_float_field(field, value)
        (tmp_path / "i.json").write_text(json.dumps(doc))
        err = self.one_line_error(["spectrum", "--instance", "i.json",
                                   "--out", "o.csv"], tmp_path, capsys,
                                  monkeypatch, ["i.json"])
        if field in ("matrix", "table"):
            assert err == "error: matrix must be a flat list of numbers\n"
        else:
            assert err == f"error: {field} must be a number, got {value!r}\n"

    @pytest.mark.parametrize("version", [True, 1.0, "1"],
                             ids=["bool", "float", "string"])
    def test_version_is_the_integer_1(self, version, tmp_path, capsys,
                                      monkeypatch):
        doc = {**self.LH_MIN, "version": version}
        (tmp_path / "i.json").write_text(json.dumps(doc))
        err = self.one_line_error(["spectrum", "--instance", "i.json",
                                   "--out", "o.csv"], tmp_path, capsys,
                                  monkeypatch, ["i.json"])
        assert err == f"error: unsupported schema version {version}\n"

    @pytest.mark.parametrize("version", [True, 1.0, "1"],
                             ids=["bool", "float", "string"])
    def test_circuit_version_is_the_integer_1(self, version, tmp_path, capsys,
                                              monkeypatch):
        (tmp_path / "c.json").write_text(json.dumps({**self.CIRCUIT,
                                                     "version": version}))
        err = self.one_line_error(["compile", "--to", "clock", "--circuit",
                                   "c.json", "--out", "o.json"], tmp_path,
                                  capsys, monkeypatch, ["c.json"])
        assert err == f"error: unsupported circuit schema version {version}\n"

    # a document of each kind on -1 qubits whose one term acts on no qubit,
    # so that no support bound rejects it, with each command reading it
    NO_QUBIT_TERM = {"qubits": [], "dim": 1, "matrix": [1.0]}
    NEGATIVE_N = {
        "stoq-sat": {"version": 1, "kind": "stoq-sat", "n": -1,
                     "epsilon": 0.5, "terms": [NO_QUBIT_TERM]},
        "lh-min": {**LH_MIN, "n": -1, "terms": [NO_QUBIT_TERM]},
        "ensemble": {"version": 1, "kind": "ensemble", "n": -1, "m": 1,
                     "terms": [{"qubits": [], "dim": 1, "random_bits": [0],
                                "tables": {"0": [1.0], "1": [0.0]}}]},
    }

    @pytest.mark.parametrize("kind, command", [
        ("stoq-sat", ["spectrum"]), ("stoq-sat", ["prove"]),
        ("stoq-sat", ["verify", "--witness", "0", "--trials", "2",
                      "--seed", "0"]),
        ("lh-min", ["spectrum"]), ("lh-min", ["trace"]),
        ("ensemble", ["ensemble", "--samples", "2", "--seed", "0"]),
    ], ids=["stoq-sat-spectrum", "stoq-sat-prove", "stoq-sat-verify",
            "lh-min-spectrum", "lh-min-trace", "ensemble-ensemble"])
    def test_negative_register_size_is_one_line(self, kind, command, tmp_path,
                                                capsys, monkeypatch):
        (tmp_path / "i.json").write_text(json.dumps(self.NEGATIVE_N[kind]))
        err = self.one_line_error(command + ["--instance", "i.json",
                                             "--out", "o"], tmp_path, capsys,
                                  monkeypatch, ["i.json"])
        assert err == ("error: not a valid stoquastic instance: register "
                       "size n=-1 is negative\n")
        # the same document on 1 qubit is valid
        doc = {**self.NEGATIVE_N[kind], "n": 1}
        assert instances.from_document(doc).n == 1

    @pytest.mark.parametrize("flag", ["--lambda-yes", "--lambda-no"])
    def test_ensemble_decide_nan_threshold_is_one_line(self, flag, tmp_path,
                                                       capsys, monkeypatch):
        save(self.instance_of_kind("ensemble"), tmp_path / "e.json")
        thresholds = {"--lambda-yes": "-1.0", "--lambda-no": "0.5", flag: "nan"}
        err = self.one_line_error(
            ["ensemble", "--instance", "e.json", "--samples", "2", "--seed",
             "0", "--decide", *(x for kv in thresholds.items() for x in kv),
             "--out", "o.csv"], tmp_path, capsys, monkeypatch, ["e.json"])
        assert err == "error: lambda_no must exceed lambda_yes\n"

    @pytest.mark.parametrize("field, value", [
        ("epsilon", 1), ("lambda_yes", -2), ("lambda_no", 0), ("matrix", 0)])
    def test_instance_float_field_takes_an_integer(self, field, value,
                                                   tmp_path):
        doc = self.with_float_field(field, value)
        (tmp_path / "i.json").write_text(json.dumps(doc))
        inst = load(tmp_path / "i.json")
        got = (inst.projectors[0].block[0, 0] if field == "matrix"
               else getattr(inst, field))
        assert type(got) in (float, np.float64) and got == value
        assert main(["spectrum", "--instance", str(tmp_path / "i.json"),
                     "--out", str(tmp_path / "o.csv")]) == EXIT_OK

    @pytest.mark.parametrize("steps", ["0", "-3"])
    def test_verify_nonpositive_steps(self, sat_instance, tmp_path, capsys,
                                      monkeypatch, steps):
        """--steps 0 once meant the automatic walk length."""
        inputs = [p.name for p in tmp_path.iterdir()]
        err = self.one_line_error(
            ["verify", "--instance", sat_instance, "--witness", "6",
             "--steps", steps, "--trials", "2", "--seed", "0",
             "--out", "v.csv", "--transcripts", "t.jsonl"],
            tmp_path, capsys, monkeypatch, inputs)
        assert err == f"error: argument --steps: expected at least 1, got " \
                      f"{steps}\n"

    @pytest.mark.parametrize("transcripts", [
        "v.csv", "./v.csv", "v.csv.manifest.json",
        "../{dir}/v.csv.manifest.json"])
    def test_verify_transcripts_on_an_output_path(
            self, sat_instance, tmp_path, capsys, monkeypatch, transcripts):
        """--transcripts naming the CSV of --out, or its manifest, however
        spelt, once overwrote it and exited 0."""
        inputs = [p.name for p in tmp_path.iterdir()]
        transcripts = transcripts.format(dir=tmp_path.name)
        err = self.one_line_error(
            ["verify", "--instance", sat_instance, "--witness", "6",
             "--trials", "2", "--seed", "0", "--out", "v.csv",
             "--transcripts", transcripts],
            tmp_path, capsys, monkeypatch, inputs)
        assert err == f"error: argument --transcripts: {transcripts} would " \
                      f"overwrite --out v.csv or its manifest\n"

    # argv, then the head of the one error line
    OVERWRITES = {
        "spectrum-out": (["spectrum", "--instance", "orig.json", "--out",
                          "orig.json"], "argument --out: orig.json would "
                         "overwrite --instance orig.json"),
        "verify-transcripts": (
            ["verify", "--instance", "inst.json", "--witness", "6",
             "--trials", "2", "--seed", "0", "--out", "v.csv",
             "--transcripts", "inst.json"],
            "argument --transcripts: inst.json would overwrite --instance"),
        "manifest": (["prove", "--instance", "inst.json.manifest.json",
                      "--out", "./inst.json"], "argument --out: its manifest"),
        "witness-file": (["verify", "--instance", "inst.json", "--witness",
                          "w.json", "--seed", "0", "--out", "w.json"],
                         "argument --out: w.json would overwrite --witness"),
        "dimacs": (["gen", "from-dimacs", "--dimacs", "f.cnf", "--out",
                    "../{dir}/f.cnf"], "argument --out: ../"),
        "circuit": (["compile", "--to", "clock", "--circuit", "c.json",
                     "--out", "c.json"], "argument --out: c.json"),
    }

    @pytest.mark.parametrize("case", OVERWRITES)
    def test_output_path_names_an_input(self, case, tmp_path, capsys,
                                        monkeypatch):
        """An output path that names one of the command's inputs, however
        spelt, once overwrote it and exited 0: now exit 1 with one line,
        before any file is read or written, the input's bytes unchanged."""
        save(instances.from_dimacs(SAT_3), tmp_path / "orig.json")
        save(instances.from_dimacs(SAT_3), tmp_path / "inst.json")
        write(tmp_path / "inst.json.manifest.json",
              (tmp_path / "inst.json").read_text())
        write(tmp_path / "w.json", '{"argmax": 6}')
        write(tmp_path / "f.cnf", SAT_3)
        save_circuit(VerifierCircuit(0, 0, 0, 1, (Gate("X", (0,)),)),
                     tmp_path / "c.json")
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        argv, head = self.OVERWRITES[case]
        argv = [a.format(dir=tmp_path.name) for a in argv]
        err = self.one_line_error(argv, tmp_path, capsys, monkeypatch,
                                  list(before))
        assert err.startswith(f"error: {head.format(dir=tmp_path.name)}")
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_witness_literal_is_not_a_path(self, sat_instance, tmp_path,
                                           monkeypatch):
        # --witness 6 names no file, so an output called 6 is allowed
        monkeypatch.chdir(tmp_path)
        assert main(["verify", "--instance", sat_instance, "--witness", "6",
                     "--trials", "2", "--seed", "0", "--out", "6"]) == EXIT_OK
        assert (tmp_path / "6").read_text().startswith("trial,")

    def test_verify_transcripts_beside_stdout(self, sat_instance, tmp_path,
                                              capsys, monkeypatch):
        # with --out - there is no output file to overwrite
        monkeypatch.chdir(tmp_path)
        assert main(["verify", "--instance", sat_instance, "--witness", "6",
                     "--trials", "2", "--seed", "0", "--out", "-",
                     "--transcripts=-.manifest.json"]) == EXIT_OK
        assert capsys.readouterr().out.startswith("trial,")
        assert (tmp_path / "-.manifest.json").read_text().count("\n") == 2

    def test_malformed_cases_start_from_valid_documents(self, tmp_path):
        (tmp_path / "h.json").write_text(json.dumps(self.LH_MIN))
        (tmp_path / "c.json").write_text(json.dumps(self.CIRCUIT))
        assert isinstance(load(tmp_path / "h.json"), LhMinInstance)
        assert load_circuit(tmp_path / "c.json").num_gates == 2

    @pytest.mark.parametrize("epsilon", ["0", "2.5", "-1", "nan"])
    def test_compile_6sat_epsilon_outside_unit_interval(
            self, epsilon, tmp_path, capsys, monkeypatch):
        save_circuit(VerifierCircuit(0, 0, 0, 1, (Gate("X", (0,)),)),
                     tmp_path / "c.json")
        err = self.one_line_error(
            ["compile", "--to", "6sat", "--circuit", "c.json",
             "--epsilon", epsilon, "--out", "o.json"],
            tmp_path, capsys, monkeypatch, ["c.json"])
        assert "outside (0, 1]" in err
        assert main(["compile", "--to", "6sat", "--circuit", "c.json",
                     "--epsilon", "0.5", "--out", "o.json"]) == EXIT_OK

    @pytest.mark.parametrize("delta", ["nan", "inf"])
    def test_compile_clock_non_finite_delta(self, delta, tmp_path, capsys,
                                            monkeypatch):
        save_circuit(VerifierCircuit(0, 0, 0, 1, (Gate("X", (0,)),)),
                     tmp_path / "c.json")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            err = self.one_line_error(
                ["compile", "--to", "clock", "--circuit", "c.json",
                 "--delta", delta, "--out", "o.json"],
                tmp_path, capsys, monkeypatch, ["c.json"])
        assert caught == []
        assert err == f"error: delta must be positive and finite, got {delta}\n"

    @pytest.mark.parametrize("argv, flag", [
        (["--instance", "h.json", "--to", "verifier", "--delta", "-5",
          "--epsilon", "7", "--input", "9"], "--delta"),
        (["--instance", "h.json", "--to", "verifier", "--input", "0"],
         "--input"),
        (["--circuit", "c.json", "--instance", "h.json", "--to", "verifier"],
         "--circuit"),
        (["--to", "6sat", "--delta", "-3"], "--delta"),
        (["--circuit", "c.json", "--to", "6sat", "--delta", "0"], "--delta"),
        (["--to", "clock", "--epsilon", "-3", "--instance", "missing.json"],
         "--epsilon"),
        (["--circuit", "c.json", "--to", "clock", "--instance", "h.json"],
         "--instance"),
    ])
    def test_compile_refuses_a_flag_its_target_does_not_read(
            self, argv, flag, tmp_path, capsys, monkeypatch):
        save_circuit(VerifierCircuit(0, 0, 0, 1, (Gate("X", (0,)),)),
                     tmp_path / "c.json")
        save(LhMinInstance(1, (LocalOperator((0,), -np.eye(2)),), 0.0, 1.0),
             tmp_path / "h.json")
        err = self.one_line_error(["compile", *argv, "--out", "o.json"],
                                  tmp_path, capsys, monkeypatch,
                                  ["c.json", "h.json"])
        target = argv[argv.index("--to") + 1]
        assert err == (f"error: argument {flag}: compile --to {target} "
                       "does not read it\n")

    @pytest.mark.parametrize("given", [
        ["--lambda-yes", "0.1"], ["--lambda-no", "0.5"],
        ["--lambda-no", "0.5", "--lambda-yes", "0"]])
    def test_ensemble_refuses_thresholds_without_decide(
            self, given, tmp_path, capsys, monkeypatch):
        write(tmp_path / "e.cnf", UNSAT_BIASED)
        assert main(["gen", "cnf-ensemble", "--cnf", str(tmp_path / "e.cnf"),
                     "--q-vars", "3", "--out", str(tmp_path / "ens.json")]) \
            == EXIT_OK
        err = self.one_line_error(
            ["ensemble", "--instance", "ens.json", "--samples", "2", "--seed",
             "0", *given, "--out", "o.csv"], tmp_path, capsys, monkeypatch,
            ["e.cnf", "ens.json", "ens.json.manifest.json"])
        flag = "--lambda-yes" if "--lambda-yes" in given else "--lambda-no"
        assert err == (f"error: argument {flag}: ensemble reads it only with "
                       "--decide\n")

    @pytest.mark.parametrize("target, given", [
        ("clock", ["--input", "0", "--delta", "0"]),
        ("6sat", ["--input", "0"]),
    ])
    def test_compile_flags_at_their_defaults_write_the_same_bytes(
            self, target, given, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        save_circuit(VerifierCircuit(1, 0, 0, 1, (Gate("CNOT", (0, 1)),)),
                     "c.json")
        base = ["compile", "--circuit", "c.json", "--to", target, "--out"]
        assert main(base + ["a.json"]) == EXIT_OK
        assert main(base + ["b.json", *given]) == EXIT_OK
        assert Path("a.json").read_bytes() == Path("b.json").read_bytes()

    @pytest.mark.parametrize("witness", ["0", "1", "2", "3"])
    def test_projector_within_eta_walks_without_a_math_error(
            self, witness, tmp_path, capsys):
        """A block that passes validate only within ETA has a negative
        <y|Pi|y>; the walk gives that move r = 0, not sqrt of a negative."""
        doc = {"version": 1, "kind": "stoq-sat", "n": 2, "epsilon": 0.5,
               "terms": [{"qubits": [0], "dim": 2,
                          "matrix": [1.0, 2e-9, 2e-9, -5e-10]},
                         {"qubits": [1], "dim": 2,
                          "matrix": [0.5, 0.5, 0.5, 0.5]}]}
        assert instances.validate(instances.from_document(doc)) == []
        path = write(tmp_path / "eta.json", json.dumps(doc))
        out = tmp_path / "v.csv"
        assert main(["verify", "--instance", path, "--witness", witness,
                     "--trials", "5", "--seed", "1", "--out", str(out)]) \
            == EXIT_OK, capsys.readouterr().err
        assert out.read_text().splitlines()[-1].startswith("rate,")

    @pytest.mark.parametrize("command", ["spectrum", "prove", "trace"])
    def test_register_too_large_is_one_line(self, command, tmp_path, capsys,
                                            monkeypatch):
        # a 2^50-entry index array (8 PiB) is beyond any address space,
        # so its allocation fails at once
        x = np.array([[0.0, -1.0], [-1.0, 0.0]])
        inst = (LhMinInstance(50, (LocalOperator((0,), x),), -1.5, 0.0)
                if command == "trace" else random_projector_instance(50, 2, 3, 0))
        save(inst, tmp_path / "big.json")
        self.one_line_error([command, "--instance", "big.json", "--out", "o"],
                            tmp_path, capsys, monkeypatch, ["big.json"])

    @pytest.mark.parametrize("paths", ["1", "-1"])
    def test_trace_paths_below_two(self, paths, tmp_path, capsys, monkeypatch):
        x = np.array([[0.0, -1.0], [-1.0, 0.0]])
        save(LhMinInstance(2, (LocalOperator((0,), x), LocalOperator((1,), x)),
                           -2.5, -1.5), tmp_path / "h.json")
        err = self.one_line_error(
            ["trace", "--instance", "h.json", "--power", "2", "--paths", paths,
             "--seed", "0", "--out", "o.csv"],
            tmp_path, capsys, monkeypatch, ["h.json"])
        # the library's check, the one home of the rule
        assert err == f"error: sampled mode needs paths >= 2, got {paths}\n"

    def test_cnf_ensemble_random_bit_outside_cnf(self, tmp_path, capsys,
                                                 monkeypatch):
        write(tmp_path / "f.cnf", "p cnf 2 2\n1 2 0\n-1 2 0\n")
        for q_vars in ("7", "2,3"):
            self.one_line_error(["gen", "cnf-ensemble", "--cnf", "f.cnf",
                                 "--q-vars", q_vars, "--out", "e.json"],
                                tmp_path, capsys, monkeypatch, ["f.cnf"])

    def test_verify_manifest_hashes_witness_file(self, sat_instance, tmp_path):
        wit = str(tmp_path / "wit.json")
        assert main(["prove", "--instance", sat_instance, "--out", wit]) \
            == EXIT_OK
        for witness, inputs in ((wit, [sat_instance, wit]),
                                ("0b110", [sat_instance])):
            out = str(tmp_path / "v.csv")
            assert main(["verify", "--instance", sat_instance, "--witness",
                         witness, "--trials", "3", "--seed", "0",
                         "--out", out]) == EXIT_OK
            manifest = json.loads(Path(out + ".manifest.json").read_text())
            assert manifest["inputs"] == {
                p: hashlib.sha256(Path(p).read_bytes()).hexdigest()
                for p in inputs}


    def test_non_object_metadata_is_one_line(self, tmp_path, capsys,
                                             monkeypatch):
        doc = instances.to_document(self.instance_of_kind("ensemble"))
        (tmp_path / "e.json").write_text(json.dumps({**doc, "metadata": 5}))
        err = self.one_line_error(
            ["ensemble", "--instance", "e.json", "--replicas", "2",
             "--samples", "2", "--seed", "0", "--out", "o.csv"],
            tmp_path, capsys, monkeypatch, ["e.json"])
        assert err == "error: instance metadata is not a JSON object\n"

    def test_sampled_trace_overflow_is_one_line(self, tmp_path, capsys,
                                                monkeypatch):
        x = np.array([[0.0, -1.0], [-1.0, 0.0]])
        save(LhMinInstance(2, (LocalOperator((0,), x), LocalOperator((1,), x)),
                           -2.5, -1.5), tmp_path / "h.json")
        err = self.one_line_error(
            ["trace", "--instance", "h.json", "--power", "600", "--paths", "10",
             "--seed", "0", "--out", "o.csv"],
            tmp_path, capsys, monkeypatch, ["h.json"])
        assert "L=600" in err and "n=2" in err
        assert main(["trace", "--instance", "h.json", "--power", "600",
                     "--out", "o.csv"]) == EXIT_OK


    def test_verify_register_beyond_the_double_range(self, tmp_path):
        # 2^(n/2) overflows a double at n = 2100; the step count does not
        dimacs = write(tmp_path / "f.cnf", "p cnf 2100 2\n1 2 3 0\n-1 2 0\n")
        inst = str(tmp_path / "inst.json")
        assert main(["gen", "from-dimacs", "--dimacs", dimacs,
                     "--out", inst]) == EXIT_OK
        out = tmp_path / "v.csv"
        assert main(["verify", "--instance", inst, "--witness", "2",
                     "--trials", "3", "--seed", "0", "--out", str(out)]) \
            == EXIT_OK
        rows = out.read_text().splitlines()
        assert rows[1:4] == [f"{i},1,1052,,,0" for i in range(3)]

    def test_verify_decay_rounding_to_one_is_one_line(self, tmp_path, capsys,
                                                      monkeypatch):
        doc = instances.to_document(instances.from_dimacs(SAT_3))
        doc["epsilon"] = 1e-17
        (tmp_path / "i.json").write_text(json.dumps(doc))
        err = self.one_line_error(
            ["verify", "--instance", "i.json", "--witness", "6",
             "--trials", "2", "--seed", "0", "--out", "v.csv"],
            tmp_path, capsys, monkeypatch, ["i.json"])
        assert "not below 1" in err
        assert main(["verify", "--instance", "i.json", "--witness", "6",
                     "--steps", "4", "--trials", "2", "--seed", "0",
                     "--out", "v.csv"]) == EXIT_OK

    @pytest.mark.parametrize("paths", ["0", "4"])
    def test_trace_register_beyond_the_double_range(self, paths, tmp_path,
                                                    capsys, monkeypatch):
        # the automatic L needs 2^n, which overflows a double at n = 1100
        x = np.array([[1.0, -0.5], [-0.5, 1.0]])
        save(LhMinInstance(1100, (LocalOperator((0,), x),), 0.2, 0.6),
             tmp_path / "h.json")
        self.one_line_error(
            ["trace", "--instance", "h.json", "--paths", paths,
             "--seed", "0", "--out", "o.csv"],
            tmp_path, capsys, monkeypatch, ["h.json"])


class TestRunEnvelope:
    """main writes the one manifest of a file-producing run; a run to
    stdout, an exit 1 and a PromiseError exit 2 leave none."""

    # per run: argv without --out, the files it reads, its exit code
    RUNS = {
        "gen-from-dimacs": (["gen", "from-dimacs", "--dimacs", "f.cnf"],
                            ["f.cnf"], EXIT_OK),
        "gen-random": (["gen", "random", "--n", "4", "--k", "2", "--terms",
                        "3", "--seed", "5"], [], EXIT_OK),
        "gen-cnf-ensemble": (["gen", "cnf-ensemble", "--cnf", "e.cnf",
                              "--q-vars", "3"], ["e.cnf"], EXIT_OK),
        "compile-clock": (["compile", "--circuit", "c.json", "--to", "clock"],
                          ["c.json"], EXIT_OK),
        "compile-6sat": (["compile", "--circuit", "c.json", "--to", "6sat"],
                         ["c.json"], EXIT_OK),
        "compile-verifier": (["compile", "--instance", "h.json", "--to",
                              "verifier"], ["h.json"], EXIT_OK),
        "spectrum": (["spectrum", "--instance", "sat.json"], ["sat.json"],
                     EXIT_OK),
        "prove": (["prove", "--instance", "sat.json"], ["sat.json"], EXIT_OK),
        "prove-unsat": (["prove", "--instance", "unsat.json"], ["unsat.json"],
                        EXIT_PROMISE),
        "verify": (["verify", "--instance", "sat.json", "--witness", "w.json",
                    "--trials", "5", "--seed", "1"], ["sat.json", "w.json"],
                   EXIT_OK),
        "trace": (["trace", "--instance", "h.json", "--power", "2"],
                  ["h.json"], EXIT_OK),
        "ensemble": (["ensemble", "--instance", "ens.json", "--samples", "20",
                      "--seed", "4"], ["ens.json"], EXIT_OK),
        "ensemble-inconclusive": (
            ["ensemble", "--instance", "ens.json", "--samples", "40", "--seed",
             "0", "--decide", "--lambda-yes", "-2.0", "--lambda-no", "2.0"],
            ["ens.json"], EXIT_PROMISE),
    }

    @pytest.fixture
    def workdir(self, tmp_path, monkeypatch):
        """tmp_path as the working directory, holding every input of RUNS
        and no manifest."""
        monkeypatch.chdir(tmp_path)
        for name, text in (("f.cnf", SAT_3), ("e.cnf", UNSAT_BIASED),
                           ("w.json", '{"argmax": 6}')):
            write(tmp_path / name, text)
        save(instances.from_dimacs(SAT_3), "sat.json")
        save(instances.from_dimacs(UNSAT_2), "unsat.json")
        save(LhMinInstance(1, (LocalOperator((0,), np.array(
            [[0.0, -1.0], [-1.0, 0.0]])),), -1.0 - 1e-6, 0.0), "h.json")
        save(stoqbench.estimators.cnf_ensemble_from_dimacs(UNSAT_BIASED, [3]),
             "ens.json")
        save_circuit(VerifierCircuit(0, 0, 0, 1, (Gate("X", (0,)),
                                                  Gate("X", (0,)))), "c.json")
        return tmp_path

    @pytest.mark.parametrize("run", sorted(RUNS))
    def test_file_gets_one_manifest(self, run, workdir):
        argv, inputs, code = self.RUNS[run]
        before = set(os.listdir())
        assert main(argv + ["--out", "out"]) == code
        assert set(os.listdir()) - before == {"out", "out.manifest.json"}
        manifest = json.loads(Path("out.manifest.json").read_text())
        assert manifest["command"] == argv + ["--out", "out"]
        assert manifest["output"] == "out"
        assert manifest["inputs"] == {
            p: hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in inputs}

    @pytest.mark.parametrize("run", sorted(RUNS))
    def test_stdout_gets_no_manifest(self, run, workdir, capsys):
        argv, inputs, code = self.RUNS[run]
        assert main(argv + ["--out", "out"]) == code
        capsys.readouterr()
        before = sorted(os.listdir())
        assert main(argv + ["--out", "-"]) == code
        # the bytes of the file, and no file named "-" or "-.manifest.json"
        assert capsys.readouterr().out == Path("out").read_text()
        assert sorted(os.listdir()) == before

    @pytest.mark.parametrize("limit", ["abc", "-3"])
    @pytest.mark.parametrize("run", sorted(RUNS))
    def test_bad_dense_limit_writes_nothing(self, run, limit, workdir, capsys,
                                            monkeypatch):
        argv, inputs, code = self.RUNS[run]
        before = sorted(os.listdir())
        monkeypatch.setenv("STOQ_DENSE_LIMIT", limit)
        assert main(argv + ["--out", "out"]) == EXIT_ERROR
        assert capsys.readouterr().err == ("error: STOQ_DENSE_LIMIT must be a "
                                           f"non-negative integer, got {limit!r}\n")
        assert sorted(os.listdir()) == before


def test_every_flag_is_read():
    """Every option and subcommand dest is read as ``args.<dest>`` in the
    cli module, so no flag goes unread."""
    def dests(parser):
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                yield action.dest
                for sub in action.choices.values():
                    yield from dests(sub)
            elif not isinstance(action, argparse._HelpAction):
                yield action.dest

    flags = set(dests(cli.build_parser()))
    assert {"command", "gen_kind", "q_vars", "lambda_no", "out"} <= flags
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    read = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "args"}
    assert not flags - read, f"flags nothing reads: {sorted(flags - read)}"


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
        monkeypatch.setattr(cli, "cmd_verify", lambda args: calls.append(
            args.trials) or original(args))
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


class TestJsonArtifacts:
    """Every JSON file is one compact line holding exactly its document,
    and files pretty-printed by earlier versions still load."""

    def test_every_writer_writes_one_line(self, sat_instance, tmp_path,
                                          monkeypatch):
        docs = {}
        write_json = instances.write_json

        def spy(path, doc):
            docs[str(path)] = doc
            write_json(path, doc)

        monkeypatch.setattr(instances, "write_json", spy)
        monkeypatch.setattr(circuits, "write_json", spy)
        x = np.array([[0.0, -1.0], [-1.0, 0.0]])
        lhmin = str(tmp_path / "h.json")
        save(LhMinInstance(1, (LocalOperator((0,), x),), -1.0 - 1e-6, 0.0),
             lhmin)
        circ = str(tmp_path / "circ.json")
        save_circuit(VerifierCircuit(n=0, n_w=0, n_0=0, n_plus=1,
                                     gates=(Gate("X", (0,)),)), circ)
        cnf = write(tmp_path / "e.cnf", UNSAT_BIASED)
        for argv in (
                ["gen", "random", "--n", "4", "--k", "2", "--terms", "3",
                 "--seed", "5", "--out", str(tmp_path / "rand.json")],
                ["gen", "cnf-ensemble", "--cnf", cnf, "--q-vars", "3",
                 "--out", str(tmp_path / "ens.json")],
                ["compile", "--instance", lhmin, "--to", "verifier",
                 "--out", str(tmp_path / "ver.json")],
                ["prove", "--instance", sat_instance,
                 "--out", str(tmp_path / "wit.json")]):
            assert main(argv) == EXIT_OK
        kinds = set()
        for path, doc in docs.items():
            text = Path(path).read_text(encoding="utf-8")
            assert text.endswith("\n") and text.count("\n") == 1, path
            assert json.loads(text) == doc, path
            kinds.add(doc.get("kind") or doc.get("tool") or "circuit")
        assert kinds == {"stoq-sat", "lh-min", "ensemble", "circuit",
                         "mixed-verifier", "witness", "stoqbench"}

    def test_round_trip_is_bitwise(self, tmp_path):
        rng = np.random.default_rng(4)
        block = -np.abs(rng.normal(size=(4, 4)))
        block = block + block.T
        block[0, 3] = block[3, 0] = -0.0
        tables = {0: np.diag([0.1, 0.2]), 1: np.array([[1.0 / 3, -0.7],
                                                       [-0.7, 0.0]])}
        for inst, blocks in (
                (random_projector_instance(5, 3, 4, seed=9),
                 lambda i: [p.block for p in i.projectors]),
                (LhMinInstance(3, (LocalOperator((0, 2), block),), -1.0, 0.5),
                 lambda i: [t.block for t in i.terms]),
                (DisorderEnsemble(2, 1, (TermTemplate((1,), (0,), tables),)),
                 lambda i: list(i.templates[0].tables.values()))):
            path = tmp_path / "inst.json"
            save(inst, path)
            back = load(path)
            assert [b.tobytes() for b in blocks(back)] == \
                [b.tobytes() for b in blocks(inst)]
        v = VerifierCircuit(1, 1, 1, 0, (Gate("TOFFOLI", (0, 1, 2)),
                                         Gate("X", (2,))), out_basis="zero")
        save_circuit(v, tmp_path / "c.json")
        assert load_circuit(tmp_path / "c.json") == v

    def test_indented_files_still_load(self, tmp_path):
        inst = random_projector_instance(4, 2, 3, seed=2)
        v = VerifierCircuit(0, 0, 0, 1, (Gate("X", (0,)),))
        for doc, name in ((instances.to_document(inst), "inst.json"),
                          (circuits.circuit_to_document(v), "c.json")):
            with open(tmp_path / name, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=1)
                fh.write("\n")
        back = load(tmp_path / "inst.json")
        assert [p.block.tobytes() for p in back.projectors] == \
            [p.block.tobytes() for p in inst.projectors]
        assert load_circuit(tmp_path / "c.json") == v

    def test_one_json_writer(self):
        """No module but the helper writes JSON: ``json.dump`` and any
        ``indent=`` run the pure-Python encoder."""
        src = Path(stoqbench.__file__).parent
        found = []
        for path in sorted(src.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if (isinstance(node, ast.Attribute) and node.attr == "dump"
                        and isinstance(node.value, ast.Name)
                        and node.value.id == "json") or (
                        isinstance(node, ast.keyword) and node.arg == "indent"):
                    found.append(f"{path.name}:{node.lineno}")
        assert not found, f"JSON written outside instances.write_json: {found}"


class TestOutputsInPlace:
    """Every output goes through ``instances.open_output``, which rewrites
    an existing file in place: exactly the new bytes, the same inode, a
    symlink's target, ``open(path, "w")``'s mode for a new file, and no
    truncation of a device.  A writer that skips a step (no truncation,
    unlink and create, a temporary file and ``os.replace``, a fixed mode,
    an unconditional ``ftruncate``) fails one of these tests."""

    # per output: argv without --out, run in a directory holding sat.json
    RUNS = {
        "csv": ["spectrum", "--instance", "sat.json"],
        "json": ["prove", "--instance", "sat.json"],
        "verify-csv": ["verify", "--instance", "sat.json", "--witness", "6",
                       "--trials", "3", "--seed", "2"],
    }

    @pytest.fixture
    def workdir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        save(instances.from_dimacs(SAT_3), "sat.json")
        return tmp_path

    @staticmethod
    def fresh(argv):
        """The bytes main(argv) writes to a new --out file."""
        os.makedirs("fresh", exist_ok=True)
        assert main(argv + ["--out", "fresh/out"]) == EXIT_OK
        return Path("fresh/out").read_bytes()

    @pytest.mark.parametrize("run", sorted(RUNS))
    def test_shorter_rewrite_leaves_only_new_bytes(self, run, workdir):
        argv = self.RUNS[run]
        want = self.fresh(argv)
        for name in ("out", "out.manifest.json"):
            write(workdir / name, "#" * 20000)
        assert main(argv + ["--out", "out"]) == EXIT_OK
        assert Path("out").read_bytes() == want
        text = Path("out.manifest.json").read_text(encoding="utf-8")
        assert json.loads(text)["output"] == "out"  # no trailing old bytes
        assert os.path.getsize("out.manifest.json") == len(text.encode())

    def test_shorter_transcripts_leave_only_new_lines(self, workdir):
        argv = self.RUNS["verify-csv"]
        write(workdir / "t.jsonl", "#" * 20000)
        assert main(argv + ["--out", "out", "--transcripts", "t.jsonl"]) \
            == EXIT_OK
        lines = Path("t.jsonl").read_text(encoding="utf-8").split("\n")
        assert lines[-1] == "" and len(lines) == 4
        assert all(json.loads(line)["accepted"] for line in lines[:-1])

    @pytest.mark.parametrize("run", sorted(RUNS))
    def test_symlink_writes_its_target(self, run, workdir):
        argv = self.RUNS[run]
        want = self.fresh(argv)
        write(workdir / "target", "#" * 20000)
        os.symlink("target", "out")
        assert main(argv + ["--out", "out"]) == EXIT_OK
        assert Path("out").is_symlink()
        assert Path("target").read_bytes() == want

    @pytest.mark.parametrize("run", sorted(RUNS))
    def test_hard_link_keeps_its_inode(self, run, workdir):
        argv = self.RUNS[run]
        want = self.fresh(argv)
        write(workdir / "out", "#" * 20000)
        os.link("out", "other")
        inode = os.stat("out").st_ino
        assert main(argv + ["--out", "out"]) == EXIT_OK
        assert os.stat("out").st_ino == inode
        assert Path("other").read_bytes() == want

    @pytest.mark.parametrize("umask", [0o002, 0o022, 0o077])
    def test_new_file_gets_the_mode_of_open_w(self, umask, workdir):
        old = os.umask(umask)
        try:
            assert main(self.RUNS["csv"] + ["--out", "out"]) == EXIT_OK
            with open("ref", "w", encoding="utf-8"):
                pass
        finally:
            os.umask(old)
        want = stat.S_IMODE(os.stat("ref").st_mode)
        assert want == 0o666 & ~umask
        for name in ("out", "out.manifest.json"):
            assert stat.S_IMODE(os.stat(name).st_mode) == want, name

    def test_device_is_never_truncated(self, tmp_path):
        """A FIFO made here, with a reader held open, stands in for a
        device: both writes reach the reader, and the path stays a FIFO
        (truncating it would raise, replacing it would not be read)."""
        fifo = str(tmp_path / "fifo")
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            with instances.open_output(fifo) as fh:
                fh.write("first\n")
            instances.write_text(fifo, "x" * 100)
            assert os.read(reader, 1000) == b"first\n" + b"x" * 100
        finally:
            os.close(reader)
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)

    def test_verify_without_transcripts_opens_only_out_and_manifest(
            self, workdir, monkeypatch):
        opened = []
        open_output = instances.open_output

        def spy(path):
            opened.append(path)
            return open_output(path)

        monkeypatch.setattr(instances, "open_output", spy)
        argv = self.RUNS["verify-csv"] + ["--out", "out"]
        assert main(argv) == EXIT_OK
        assert opened == ["out", "out.manifest.json"]
        assert Path("out").read_text().startswith("trial,")


class TestExitOneLeavesNoOutput:
    """An exit 1 after an output was opened leaves neither it nor a
    manifest; one before any output was opened leaves an existing --out
    untouched."""

    LONG = "a" * 248 + ".csv"  # its manifest's name is too long

    @pytest.fixture
    def workdir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        save(instances.from_dimacs(SAT_3), "sat.json")
        return tmp_path

    @pytest.mark.parametrize("existing", [False, True])
    @pytest.mark.parametrize("argv", [
        ["spectrum", "--instance", "sat.json"],
        ["prove", "--instance", "sat.json"],
        ["verify", "--instance", "sat.json", "--witness", "6", "--trials",
         "3", "--seed", "0", "--transcripts", "t.jsonl"],
    ], ids=["spectrum", "prove", "verify"])
    def test_manifest_failure_removes_the_outputs(self, argv, existing,
                                                  workdir, capsys):
        outputs = {self.LONG} | ({"t.jsonl"} if "--transcripts" in argv
                                 else set())
        if existing:
            for name in outputs:
                write(workdir / name, "#" * 20000)
        before = set(os.listdir())
        assert main(argv + ["--out", self.LONG]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert "File name too long" in err and err.count("\n") == 1
        assert set(os.listdir()) == before - outputs == {"sat.json"}

    def test_raising_write_discards_the_file(self, workdir):
        write(workdir / "out", "old bytes " * 2000)
        os.link("out", "other")
        with pytest.raises(UnicodeEncodeError):
            with instances.open_output("out") as fh:
                fh.write("new bytes\n")
                fh.flush()
                fh.write("\ud800")  # a lone surrogate has no UTF-8 form
        assert not os.path.exists("out")
        assert Path("other").read_bytes() == b""  # no new bytes before old

    def test_raising_body_discards_a_new_file(self, workdir):
        with pytest.raises(RuntimeError):
            with instances.open_output("out") as fh:
                fh.write("partial")
                raise RuntimeError
        assert not os.path.exists("out")

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--instance", "bad.json"],
        ["trace", "--instance", "sat.json"],
        ["trace", "--instance", "sat.json", "--paths", "1"],
        ["verify", "--instance", "sat.json", "--witness", "6", "--trials",
         "0", "--seed", "0"],
        ["spectrum", "--instance", "sat.json", "--no-such-flag"],
    ], ids=["corrupt-instance", "wrong-kind", "bad-paths", "bad-trials",
            "bad-flag"])
    def test_early_exit_keeps_an_existing_output(self, argv, workdir):
        write(workdir / "bad.json", "{not json")
        write(workdir / "out", "kept\n")
        write(workdir / "out.manifest.json", "{}\n")
        before = {p: Path(p).read_bytes() for p in os.listdir()}
        assert main(argv + ["--out", "out"]) == EXIT_ERROR
        assert {p: Path(p).read_bytes() for p in os.listdir()} == before
