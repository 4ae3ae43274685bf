"""Batch command-line front end.

Every stochastic command takes an explicit non-negative --seed and is a
pure function of (inputs, seed); tabular results go to RFC-4180 CSV with
17 significant digits.  Each ``cmd_*`` writes ``--out`` (``-`` is stdout)
and returns its exit code and the files it read; ``main`` alone writes
the sidecar ``<out>.manifest.json`` of a file: command line, input
hashes, seed, tool version, Python/numpy/scipy versions, dense limit
and wall time.

Exit codes: 0 completed, 1 usage or IO error, 2 promise violation
(``PromiseError``, no output) or inconclusive result.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import json
import os
import platform
import sys
import time

import numpy as np
import scipy

from . import __version__
from . import circuits, clock, estimators, instances, prover, spectral, walk
from .ops import DenseLimitError, dense_limit

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_PROMISE = 2


def _fmt(v) -> str:
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


class PromiseError(Exception):
    """The input is valid but outside the command's promise: exit 2."""


def _write_manifest(args, argv, inputs, started):
    """Write the sidecar of ``args.out``.  The seed is ``args.seed`` where
    the command takes one, and ``elapsed_s`` counts from ``started``,
    main's entry time."""
    manifest = {
        "tool": "stoqbench",
        "version": __version__,
        "command": list(argv),
        "inputs": {str(p): _sha256(p) for p in inputs},
        "seed": getattr(args, "seed", None),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "STOQ_DENSE_LIMIT": dense_limit(),
        "wall_clock_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "elapsed_s": time.perf_counter() - started,
        "output": str(args.out),
    }
    instances.write_json(str(args.out) + ".manifest.json", manifest)


def _csv(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(
        [_fmt(v) for v in row] for row in rows)
    return buf.getvalue()


def _write_csv(path, header, rows):
    instances.write_text(path, _csv([header, *rows]))


def _seed(text: str) -> int:
    """argparse type of every --seed: a non-negative integer."""
    try:
        value = int(text)
        if value >= 0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"expected a non-negative integer, got {text!r}")


_KINDS = {instances.StoqSatInstance: "a stoq-sat",
          instances.LhMinInstance: "an lh-min",
          instances.DisorderEnsemble: "an ensemble"}


# the flags that name a file a command reads (compile's --input is the
# circuit's input string, not a path)
_INPUT_FLAGS = ("instance", "witness", "dimacs", "cnf", "circuit")


def _file_id(path):
    """(device, inode) of the file at ``path``, or None if there is none."""
    try:
        st = os.stat(path)
    except OSError:
        return None
    return st.st_dev, st.st_ino


def _check_outputs(args):
    """Raise ValueError when --transcripts is --out or its manifest, by
    real path, or when a file the command would write is, by device and
    inode, a file it reads."""
    outs = [] if args.out == "-" else [
        ("argument --out:", args.out),
        ("argument --out: its manifest", f"{args.out}.manifest.json")]
    transcripts = getattr(args, "transcripts", "")
    if transcripts:
        real = os.path.realpath
        if real(transcripts) in {real(p) for _, p in outs}:
            raise ValueError(f"argument --transcripts: {transcripts} would "
                             f"overwrite --out {args.out} or its manifest")
        outs.append(("argument --transcripts:", transcripts))
    written = {_file_id(p): f"{what} {p}" for what, p in outs}
    written.pop(None, None)  # an output not yet written is no input
    if not written:
        return
    for flag in _INPUT_FLAGS:
        path = getattr(args, flag, None)
        if path is None or flag == "witness" and _literal(path) is not None:
            continue
        what = written.get(_file_id(path))
        if what is not None:
            raise ValueError(f"{what} would overwrite --{flag} {path}")


def _load(args, *kinds):
    """The instance at ``args.instance``, which must be one of ``kinds``,
    classes that _KINDS names."""
    inst = instances.load(args.instance)
    if not isinstance(inst, kinds):
        raise ValueError(f"{args.command} needs "
                         f"{' or '.join(_KINDS[k] for k in kinds)} instance")
    return inst


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen(args):
    if args.gen_kind == "from-dimacs":
        with open(args.dimacs, encoding="utf-8") as fh:
            inst = instances.from_dimacs(fh.read())
        inputs = [args.dimacs]
    elif args.gen_kind == "random":
        try:
            inst = instances.random_projector_instance(
                args.n, args.k, args.terms, args.seed)
        except ValueError as exc:  # "<argument>=<value> must ...", --<argument>
            flag = str(exc).partition("=")[0]
            raise ValueError(f"argument --{flag}: {exc}") from None
        inputs = []
    else:  # cnf-ensemble
        with open(args.cnf, encoding="utf-8") as fh:
            text = fh.read()
        q_vars = [int(v) for v in args.q_vars.split(",")] if args.q_vars else []
        inst = estimators.cnf_ensemble_from_dimacs(text, q_vars)
        inputs = [args.cnf]
    instances.save(inst, args.out)
    return EXIT_OK, inputs


def cmd_compile(args):
    needs = "instance" if args.to == "verifier" else "circuit"
    if getattr(args, needs) is None:
        raise ValueError(f"compile --to {args.to} needs --{needs}")
    if args.to in ("clock", "6sat"):
        circ = circuits.load_circuit(args.circuit)
        compiled = clock.compile_circuit(circ, x=args.input)
        if args.to == "clock":
            inst = compiled.hamiltonian()
            if args.delta:
                inst = clock.perturbed_hamiltonian(compiled, args.delta)
        else:
            inst = clock.export_6sat(compiled, epsilon=args.epsilon)
        instances.save(inst, args.out)
    else:
        h = _load(args, instances.LhMinInstance)
        verifier, alpha, beta_prime = circuits.hamiltonian_to_verifier(h)
        doc = {
            "version": 1,
            "kind": "mixed-verifier",
            "alpha": alpha,
            "beta_prime": beta_prime,
            "n_w": verifier.n_w,
            "metadata": verifier.metadata,
            "parts": [
                {"p": p, "circuit": circuits.circuit_to_document(v)}
                for p, v in verifier.parts
            ],
        }
        instances.write_json(args.out, doc)
    return EXIT_OK, [getattr(args, needs)]


def cmd_spectrum(args):
    inst = _load(args, instances.StoqSatInstance, instances.LhMinInstance)
    if isinstance(inst, instances.StoqSatInstance):
        op = walk.build_G(inst)
    else:
        op = inst.operator()
    try:
        evals = spectral.dense_spectrum(op)
    except DenseLimitError:
        rows = [[which, spectral.extreme_eigenvalue(op, which).value]
                for which in ("min", "max")]
    else:
        rows = [["min", float(evals[0])], ["max", float(evals[-1])],
                ["gap", spectral.level_gap(evals)],
                ["ground_dim",
                 int(np.sum(evals < evals[0] + spectral.LEVEL_MERGE))]]
    _write_csv(args.out, ["quantity", "value"], rows)
    return EXIT_OK, [args.instance]


def cmd_prove(args):
    inst = _load(args, instances.StoqSatInstance)
    hw = prover.honest_witness(inst)
    doc = {
        "version": 1,
        "kind": "witness",
        "argmax": hw.argmax,
        "eigenvalue": hw.eigenvalue,
        "looks_unsat": hw.looks_unsat,
        "amplitudes": {str(x): a for x, a in
                       sorted(hw.vector.amplitudes.items())},
    }
    instances.write_json(args.out, doc)
    return EXIT_PROMISE if hw.looks_unsat else EXIT_OK, [args.instance]


def _literal(text: str):
    """``text`` as an int literal (0b.., 0x.. or decimal), else None."""
    try:
        return int(text, 0)
    except ValueError:
        return None


def _load_witness(text: str):
    """The witness and the files it came from: ``text`` is an int literal
    or the path of a witness file."""
    value = _literal(text)
    if value is not None:
        return value, []
    with open(text, encoding="utf-8") as fh:
        doc = json.load(fh)
    argmax = doc.get("argmax") if isinstance(doc, dict) else None
    if type(argmax) is not int:
        raise ValueError(f"witness file {text} has no integer \"argmax\"")
    return argmax, [text]


def cmd_verify(args):
    if args.steps is not None and args.steps < 1:
        raise ValueError(f"argument --steps: expected at least 1, got "
                         f"{args.steps}")
    inst = _load(args, instances.StoqSatInstance)
    witness, witness_files = _load_witness(args.witness)
    steps = args.steps or walk.required_steps(inst.n, inst.epsilon, inst.m)
    config = walk.WalkConfig(steps=steps, seed=args.seed)
    runner = walk.WalkRunner(inst)
    first, votes = runner.sweep(witness, config, args.trials)
    if first is not None:
        tail = _trial_fields(first)
    elif not args.transcripts and runner.certain(witness, args.trials * steps):
        tail = [1, steps, "", "", 0.0]  # L steps of log r 0.0, accepted
    else:
        tail = None
    if tail is None:
        records = [trial[0] for trial in votes]
        body = _csv([i, *_trial_fields(r)] for i, r in enumerate(records))
        accepted = sum(r.accepted for r in records)
    else:
        # no draw changes a row: its fields are formatted once, and need
        # no quoting, so each row is the index and that text
        text = _csv([tail])
        body = "".join(f"{i},{text}" for i in range(args.trials))
        accepted = tail[0] * args.trials
    rate, lo, hi = walk.wilson_interval(accepted, args.trials)
    text = (_csv([["trial", "accepted", "steps_taken", "reject_step",
                   "reject_reason", "log_r_sum"]]) + body
            + _csv([["rate", rate, lo, hi, accepted, args.trials]]))
    # --transcripts is opened first and removed if writing --out fails, so
    # an exit 1 leaves neither file, whichever path is bad
    with open(args.transcripts or os.devnull, "w", encoding="utf-8") as fh:
        try:
            instances.write_text(args.out, text)
        except OSError:
            if args.transcripts:
                os.remove(args.transcripts)
            raise
        if args.transcripts and first is not None:
            line = runner.transcript(witness, first).to_json() + "\n"
            fh.write(line * args.trials)
        elif args.transcripts:
            fh.writelines(runner.transcript(witness, r).to_json() + "\n"
                          for r in records)
    return EXIT_OK, [args.instance, *witness_files]


def _trial_fields(r) -> list:
    """A verify CSV row after its trial index, from the trial's record:
    accepted, steps taken, reject step, reject reason and log_r_sum."""
    return [int(r.accepted), r.steps,
            r.reject_step if r.reject_step is not None else "",
            r.reject_reason or "", r.log_r_sum]


def cmd_trace(args):
    if args.paths < 0 or args.paths == 1:  # one path has no stderr
        raise ValueError(f"argument --paths: expected 0 (exact) or at least "
                         f"2, got {args.paths}")
    inst = _load(args, instances.LhMinInstance)
    mode = "sampled" if args.paths else "exact"
    rep = estimators.trace_report(inst, L=args.power, mode=mode,
                                  paths=args.paths, seed=args.seed)
    if mode == "sampled" and rep.value == 0.0:
        # G is entrywise non-negative: a zero mean means no path carried
        # weight, and 0 +- 0 would misstate a nonzero trace
        raise PromiseError(f"none of the {args.paths} sampled paths has "
                           "nonzero weight; raise --paths or use the exact "
                           "trace")
    rows = [[rep.L, rep.value, rep.stderr, rep.mode, rep.mu_yes, rep.mu_no,
             rep.bound_yes, rep.bound_no]]
    _write_csv(args.out, ["L", "value", "stderr", "mode", "mu_yes", "mu_no",
                          "bound_yes", "bound_no"], rows)
    return EXIT_OK, [args.instance]


def cmd_ensemble(args):
    ens = estimators.replica_ensemble(
        _load(args, instances.DisorderEnsemble), args.replicas)
    if args.decide:
        result = estimators.av_decide(ens, args.lambda_yes, args.lambda_no,
                                      samples=args.samples, seed=args.seed)
        stats, decision = result.stats, result.decision
    else:
        stats = estimators.lambda_stats(ens, args.samples, seed=args.seed)
        decision = ""
    rows = []
    for i, (lam, r) in enumerate(zip(stats.lambdas, stats.rs)):
        rows.append([i, "-".join(format(x, "x") for x in r.tolist()), lam])
    rows.append(["mean", "", stats.mean])
    rows.append(["std", "", stats.std])
    if decision:
        rows.append(["decision", "", decision])
    _write_csv(args.out, ["sample_index", "r", "lambda"], rows)
    code = EXIT_PROMISE if decision == "inconclusive" else EXIT_OK
    return code, [args.instance]


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage, the code of promise violations
    def error(self, message):
        raise ValueError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on first use and shared by every main() call."""
    p = _Parser(
        prog="stoqbench",
        description="Stoquastic SAT / LH-MIN numerical workbench")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate instance files")
    gsub = g.add_subparsers(dest="gen_kind", required=True)
    gd = gsub.add_parser("from-dimacs")
    gd.add_argument("--dimacs", required=True)
    gd.add_argument("--out", required=True)
    gr = gsub.add_parser("random")
    gr.add_argument("--n", type=int, required=True)
    gr.add_argument("--k", type=int, default=2)
    gr.add_argument("--terms", type=int, required=True)
    gr.add_argument("--seed", type=_seed, required=True)
    gr.add_argument("--out", required=True)
    gc = gsub.add_parser("cnf-ensemble")
    gc.add_argument("--cnf", required=True)
    gc.add_argument("--q-vars", default="", help="comma list of DIMACS vars "
                    "treated as random bits")
    gc.add_argument("--out", required=True)

    c = sub.add_parser("compile", help="circuit->clock|6sat, hamiltonian->verifier")
    c.add_argument("--circuit")
    c.add_argument("--instance")
    c.add_argument("--to", required=True, choices=["clock", "6sat", "verifier"])
    c.add_argument("--input", type=lambda s: int(s, 0), default=0)
    c.add_argument("--delta", type=float, default=0.0)
    c.add_argument("--epsilon", type=float, default=None)
    c.add_argument("--out", required=True)

    s = sub.add_parser("spectrum", help="eigenvalue report")
    s.add_argument("--instance", required=True)
    s.add_argument("--out", default="-")

    pr = sub.add_parser("prove", help="honest witness for a stoq-sat instance")
    pr.add_argument("--instance", required=True)
    pr.add_argument("--out", required=True)

    v = sub.add_parser("verify", help="run the walk protocol")
    v.add_argument("--instance", required=True)
    v.add_argument("--witness", required=True,
                   help="witness int (0b.., 0x.., decimal) or witness file")
    v.add_argument("--trials", type=int, default=100)
    v.add_argument("--steps", type=int)  # None: required_steps
    v.add_argument("--seed", type=_seed, required=True)
    v.add_argument("--transcripts", default="", help="JSONL transcript path")
    v.add_argument("--out", default="-")

    t = sub.add_parser("trace", help="SBP trace functional")
    t.add_argument("--instance", required=True)
    t.add_argument("--power", type=int, default=None)
    t.add_argument("--paths", type=int, default=0,
                   help="sampled mode with this many (>= 2) closed paths")
    t.add_argument("--seed", type=_seed, default=0)
    t.add_argument("--out", default="-")

    e = sub.add_parser("ensemble", help="disorder statistics / AV decision")
    e.add_argument("--instance", required=True)
    e.add_argument("--samples", type=int, default=100)
    e.add_argument("--replicas", type=int, default=1)
    e.add_argument("--seed", type=_seed, required=True)
    e.add_argument("--decide", action="store_true")
    e.add_argument("--lambda-yes", type=float, default=0.0)
    e.add_argument("--lambda-no", type=float, default=1.0)
    e.add_argument("--out", default="-")

    return p


def main(argv=None) -> int:
    started = time.perf_counter()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser().parse_args(argv)
        dense_limit()  # a bad STOQ_DENSE_LIMIT fails before any output
        _check_outputs(args)
        # looked up per call, not held by the once-built parser, so a
        # cmd_* rebound on this module (bench/instrument.py wraps them)
        # is the one that runs
        code, inputs = globals()[f"cmd_{args.command}"](args)
        if args.out != "-":
            _write_manifest(args, argv, inputs, started)
        return code
    except (PromiseError, OSError, ValueError, MemoryError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)  # SchemaError is a ValueError
        return EXIT_PROMISE if isinstance(exc, PromiseError) else EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
