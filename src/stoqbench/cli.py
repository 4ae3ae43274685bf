"""Batch command-line front end.

Every stochastic command takes an explicit non-negative --seed and is a
pure function of (inputs, seed); tabular results go to RFC-4180 CSV with
17 significant digits, and each output file gets a sidecar
``<out>.manifest.json`` recording the command line, input hashes, seed,
tool version, Python/numpy/scipy versions, the dense limit and the
command's wall time.

Exit codes: 0 completed, 1 usage or IO error, 2 promise violation or
inconclusive result.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import json
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


def _write_manifest(args, argv, inputs):
    """Write the sidecar of ``args.out``.  The seed is ``args.seed`` where
    the command takes one, and ``elapsed_s`` counts from ``args.started``,
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
        "elapsed_s": time.perf_counter() - args.started,
        "output": str(args.out),
    }
    with open(str(args.out) + ".manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1)
        fh.write("\n")


def _write_csv(path, header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    data = buf.getvalue()
    if path == "-":
        sys.stdout.write(data)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(data)


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


def _parse_witness(text: str) -> int:
    return int(text, 0)


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen(args, argv) -> int:
    if args.gen_kind == "from-dimacs":
        with open(args.dimacs, encoding="utf-8") as fh:
            inst = instances.from_dimacs(fh.read())
        instances.save(inst, args.out)
        _write_manifest(args, argv, [args.dimacs])
    elif args.gen_kind == "random":
        inst = instances.random_projector_instance(
            args.n, args.k, args.terms, args.seed)
        instances.save(inst, args.out)
        _write_manifest(args, argv, [])
    elif args.gen_kind == "cnf-ensemble":
        with open(args.cnf, encoding="utf-8") as fh:
            text = fh.read()
        q_vars = [int(v) for v in args.q_vars.split(",")] if args.q_vars else []
        ens = estimators.cnf_ensemble_from_dimacs(text, q_vars)
        instances.save(ens, args.out)
        _write_manifest(args, argv, [args.cnf])
    return EXIT_OK


def cmd_compile(args, argv) -> int:
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
        _write_manifest(args, argv, [args.circuit])
    elif args.to == "verifier":
        h = instances.load(args.instance)
        if not isinstance(h, instances.LhMinInstance):
            print("compile --to verifier needs an lh-min instance",
                  file=sys.stderr)
            return EXIT_ERROR
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
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
        _write_manifest(args, argv, [args.instance])
    else:
        print(f"unknown compile target {args.to!r}", file=sys.stderr)
        return EXIT_ERROR
    return EXIT_OK


def cmd_spectrum(args, argv) -> int:
    inst = instances.load(args.instance)
    if isinstance(inst, instances.StoqSatInstance):
        op = walk.build_G(inst)
    elif isinstance(inst, instances.LhMinInstance):
        op = inst.operator()
    else:
        print("spectrum needs a stoq-sat or lh-min instance", file=sys.stderr)
        return EXIT_ERROR
    try:
        evals = spectral.dense_spectrum(op)
    except DenseLimitError:
        rows = [[which, spectral.extreme_eigenvalue(op, which).value]
                for which in ("min", "max")]
    else:
        rows = [["min", float(evals[0])], ["max", float(evals[-1])],
                ["gap", spectral.level_gap(evals)],
                ["ground_dim", int(np.sum(evals < evals[0] + 1e-8))]]
    _write_csv(args.out, ["quantity", "value"], rows)
    if args.out != "-":
        _write_manifest(args, argv, [args.instance])
    return EXIT_OK


def cmd_prove(args, argv) -> int:
    inst = instances.load(args.instance)
    if not isinstance(inst, instances.StoqSatInstance):
        print("prove needs a stoq-sat instance", file=sys.stderr)
        return EXIT_ERROR
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
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    _write_manifest(args, argv, [args.instance])
    return EXIT_PROMISE if hw.looks_unsat else EXIT_OK


def _load_witness(text: str) -> int:
    try:
        return _parse_witness(text)
    except ValueError:
        with open(text, encoding="utf-8") as fh:
            doc = json.load(fh)
    argmax = doc.get("argmax") if isinstance(doc, dict) else None
    if type(argmax) is not int:
        raise ValueError(f"witness file {text} has no integer \"argmax\"")
    return argmax


def cmd_verify(args, argv) -> int:
    inst = instances.load(args.instance)
    if not isinstance(inst, instances.StoqSatInstance):
        print("verify needs a stoq-sat instance", file=sys.stderr)
        return EXIT_ERROR
    witness = _load_witness(args.witness)
    steps = args.steps or walk.required_steps(inst.n, inst.epsilon, inst.m)
    config = walk.WalkConfig(steps=steps, seed=args.seed)
    runner = walk.WalkRunner(inst, config.eta_walk)
    transcripts = [votes[0] for votes in
                   runner.trials(witness, config, args.trials)]
    rows = [[i, int(t.accepted), len(t.visited) - 1,
             t.reject_step if t.reject_step is not None else "",
             t.reject_reason or "", t.log_r_sum]
            for i, t in enumerate(transcripts)]
    accepted = sum(int(t.accepted) for t in transcripts)
    rate, lo, hi = walk.wilson_interval(accepted, args.trials)
    rows.append(["rate", rate, lo, hi, accepted, args.trials])
    _write_csv(args.out, ["trial", "accepted", "steps_taken", "reject_step",
                          "reject_reason", "log_r_sum"], rows)
    if args.transcripts:
        with open(args.transcripts, "w", encoding="utf-8") as fh:
            for t in transcripts:
                fh.write(t.to_json())
                fh.write("\n")
    if args.out != "-":
        _write_manifest(args, argv, [args.instance])
    return EXIT_OK


def cmd_trace(args, argv) -> int:
    inst = instances.load(args.instance)
    if not isinstance(inst, instances.LhMinInstance):
        print("trace needs an lh-min instance", file=sys.stderr)
        return EXIT_ERROR
    mode = "sampled" if args.paths else "exact"
    rep = estimators.trace_report(inst, L=args.power, mode=mode,
                                  paths=args.paths, seed=args.seed)
    if mode == "sampled" and rep.value == 0.0:
        # G is entrywise non-negative: a zero mean means no path carried
        # weight, and 0 +- 0 would misstate a nonzero trace
        print(f"error: none of the {args.paths} sampled paths has nonzero "
              "weight; raise --paths or use the exact trace", file=sys.stderr)
        return EXIT_PROMISE
    rows = [[rep.L, rep.value, rep.stderr, rep.mode, rep.mu_yes, rep.mu_no,
             rep.bound_yes, rep.bound_no]]
    _write_csv(args.out, ["L", "value", "stderr", "mode", "mu_yes", "mu_no",
                          "bound_yes", "bound_no"], rows)
    if args.out != "-":
        _write_manifest(args, argv, [args.instance])
    return EXIT_OK


def cmd_ensemble(args, argv) -> int:
    ens = instances.load(args.instance)
    if not isinstance(ens, instances.DisorderEnsemble):
        print("ensemble needs an ensemble instance", file=sys.stderr)
        return EXIT_ERROR
    ens = estimators.replica_ensemble(ens, args.replicas)
    code = EXIT_OK
    if args.decide:
        result = estimators.av_decide(ens, args.lambda_yes, args.lambda_no,
                                      samples=args.samples, seed=args.seed)
        stats = result.stats
        decision = result.decision
        if decision == "inconclusive":
            code = EXIT_PROMISE
    else:
        stats = estimators.lambda_stats(ens, args.samples, seed=args.seed)
        decision = ""
    rows = []
    for i, lam in enumerate(stats.lambdas):
        r_hex = "-".join(format(r, "x") for r in stats.rs[i]) if stats.rs else ""
        rows.append([i, r_hex, lam])
    rows.append(["mean", "", stats.mean])
    rows.append(["std", "", stats.std])
    if decision:
        rows.append(["decision", "", decision])
    _write_csv(args.out, ["sample_index", "r", "lambda"], rows)
    if args.out != "-":
        _write_manifest(args, argv, [args.instance])
    return code


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
    v.add_argument("--steps", type=int, default=0)
    v.add_argument("--seed", type=_seed, required=True)
    v.add_argument("--transcripts", default="", help="JSONL transcript path")
    v.add_argument("--out", default="-")

    t = sub.add_parser("trace", help="SBP trace functional")
    t.add_argument("--instance", required=True)
    t.add_argument("--power", type=int, default=None)
    t.add_argument("--paths", type=int, default=0,
                   help="sampled mode with this many closed paths")
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
        args.started = started
        # looked up per call, not held by the once-built parser, so a
        # cmd_* rebound on this module (bench/instrument.py wraps them)
        # is the one that runs
        return globals()[f"cmd_{args.command}"](args, argv)
    except (OSError, ValueError, instances.SchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
