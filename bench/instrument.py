"""Per-layer tracing of stoqbench, done from outside the package.

``instrumented(tracer)`` wraps the public entry points of every module
(and the walk's trial loop, ``WalkRunner._run_with_rng``, which both
``acceptance_rate`` and ``cli verify`` call) and rebinds each wrapper in
every stoqbench namespace that holds the original, so calls from ``cli``
into ``prover`` or from ``prover`` into ``ops`` are caught.  Hot scalar
entry points are counted, not timed.  Everything is restored on exit.
"""

from __future__ import annotations

import functools
import importlib
import os
from contextlib import contextmanager

LAYERS = ("ops", "instances", "spectral", "prover", "walk", "circuits",
          "clock", "estimators", "cli")


def _out_bytes(tr, args, kwargs, code):
    argv = [str(a) for a in args[0]]
    if "--out" in argv:
        out = argv[argv.index("--out") + 1]
        for path in (out, out + ".manifest.json"):
            if os.path.exists(path):
                tr.add("cli.bytes_written", os.path.getsize(path))


def _dim(op):
    return 2**op.n if hasattr(op, "n") else len(op)


def _trace_mode(args, kwargs):
    mode = kwargs.get("mode", args[2] if len(args) > 2 else "exact")
    return f"estimators.trace_power.{mode}"


def _trace_stats(tr, args, kwargs, rep):
    if rep.mode == "sampled":
        tr.add("estimators.trace_power.sampled.paths", kwargs.get("paths", 0))
        tr.add("estimators.trace_power.sampled.zero", int(rep.stderr == 0.0))


# (module, attribute, span name or None for a bare call count, hook)
# A hook sees (tracer, args, kwargs, result) after the call returns.
SPANS = (
    ("ops", "assemble_dense", "ops.assemble_dense",
     lambda tr, a, k, r: tr.add("ops.assemble_dense.bytes", 8 * 4**a[0].n)),
    ("ops", "assemble_sparse", "ops.assemble_sparse", None),
    ("ops", "apply_to_basis", "ops.apply_to_basis", None),
    ("ops", "matrix_element", None, None),
    ("instances", "from_dimacs", "instances.from_dimacs", None),
    ("instances", "save", "instances.save", None),
    ("instances", "load", "instances.load",
     lambda tr, a, k, r: tr.add("instances.load.bytes", os.path.getsize(a[0]))),
    ("spectral", "dense_spectrum", "spectral.dense_spectrum",
     lambda tr, a, k, r: tr.high("spectral.dense_spectrum.dim_max", _dim(a[0]))),
    ("spectral", "spectral_gap", "spectral.spectral_gap", None),
    ("spectral", "extreme_eigenvalue", "spectral.extreme_eigenvalue",
     lambda tr, a, k, r: (
         tr.add("spectral.extreme_eigenvalue.iterations", r.iterations),
         tr.add("spectral.extreme_eigenvalue.unconverged", int(not r.converged)))),
    ("prover", "honest_witness", "prover.honest_witness",
     lambda tr, a, k, r: tr.add("prover.honest_witness.support",
                                len(r.vector.amplitudes))),
    ("walk", "acceptance_rate", "walk.acceptance_rate",
     lambda tr, a, k, r: tr.add("walk.deterministic", int(r.deterministic))),
    ("walk", "WalkRunner.run", "walk.WalkRunner.run", None),
    ("walk", "WalkRunner._run_with_rng", "walk.trial", None),
    ("walk", "WalkRunner.neighborhood", "walk.neighborhood", None),
    ("walk", "WalkRunner.transition_probabilities",
     "walk.transition_probabilities", None),
    ("walk", "WalkRunner.diag_positive", None, None),
    ("circuits", "hamiltonian_to_verifier", "circuits.hamiltonian_to_verifier",
     lambda tr, a, k, r: tr.add("circuits.hamiltonian_to_verifier.parts",
                                len(r[0].parts))),
    ("circuits", "decompose_stoquastic", "circuits.decompose_stoquastic", None),
    ("clock", "compile_circuit", "clock.compile_circuit", None),
    ("clock", "local_term", "clock.local_term", None),
    ("clock", "export_6sat", "clock.export_6sat", None),
    ("estimators", "trace_power", _trace_mode, _trace_stats),
    ("estimators", "trace_report", "estimators.trace_report", None),
    ("estimators", "lambda_stats", "estimators.lambda_stats", None),
    ("estimators", "av_decide", "estimators.av_decide",
     lambda tr, a, k, r: tr.add("estimators.av_decide.replicas", r.replicas)),
    ("cli", "main", "cli.main", _out_bytes),
    ("cli", "cmd_gen", "cli.gen", None),
    ("cli", "cmd_prove", "cli.prove", None),
    ("cli", "cmd_verify", "cli.verify", None),
    ("cli", "cmd_compile", "cli.compile", None),
    ("cli", "cmd_spectrum", "cli.spectrum", None),
    ("cli", "cmd_trace", "cli.trace", None),
)


def _spanned(tracer, fn, name, hook):
    name_of = name if callable(name) else (lambda args, kwargs: name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.paused:
            return fn(*args, **kwargs)
        started = tracer.start()
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.stop(name_of(args, kwargs), started)
        if hook is not None:
            hook(tracer, args, kwargs, result)
        return result
    return wrapper


def _counted(tracer, fn, name):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.paused:
            tracer.add(name)
        return fn(*args, **kwargs)
    return wrapper


def _wrap(tracer, layer, attr, name, hook, fn):
    if name is None:
        return _counted(tracer, fn, f"{layer}.{attr.rpartition('.')[2]}.calls")
    return _spanned(tracer, fn, name, hook)


def _lambda_draws(tracer, fn):
    """Every ground-energy lookup is a draw; a cache miss is a solve."""
    @functools.wraps(fn)
    def wrapper(solver, r):
        if not tracer.paused:
            tracer.add("estimators.lambda_draws")
            tracer.add("estimators.lambda_solves", int(r not in solver._cache))
        return fn(solver, r)
    return wrapper


@contextmanager
def instrumented(tracer):
    """Install the wrappers for the duration of the block."""
    modules = [importlib.import_module("stoqbench")] + [
        importlib.import_module(f"stoqbench.{layer}") for layer in LAYERS]
    undo = []

    def rebind(owner, attr, new):
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    targets = [(layer, attr, functools.partial(_wrap, tracer, layer, attr, name, hook))
               for layer, attr, name, hook in SPANS]
    targets.append(("estimators", "_LambdaSolver.base_lambda",
                    functools.partial(_lambda_draws, tracer)))
    try:
        for layer, attr, make in targets:
            mod = importlib.import_module(f"stoqbench.{layer}")
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(mod, cls_name)
                rebind(cls, method, make(cls.__dict__[method]))
                continue
            original = getattr(mod, attr)
            wrapper = make(original)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        rebind(module, name, wrapper)
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


# name, unit, better
PER_LAYER = (
    *[(f"{layer}.self_s", "s", "lower") for layer in LAYERS],
    ("ops.assemble_dense.calls", "count", "lower"),
    ("ops.assemble_dense.self_s", "s", "lower"),
    ("ops.assemble_dense.bytes", "B", "lower"),
    ("ops.assemble_sparse.self_s", "s", "lower"),
    ("ops.apply_to_basis.calls", "count", "lower"),
    ("ops.apply_to_basis.self_s", "s", "lower"),
    ("ops.matrix_element.calls", "count", "lower"),
    ("instances.from_dimacs.self_s", "s", "lower"),
    ("instances.save.self_s", "s", "lower"),
    ("instances.load.self_s", "s", "lower"),
    ("instances.load.bytes", "B", "lower"),
    ("spectral.dense_spectrum.calls", "count", "lower"),
    ("spectral.dense_spectrum.self_s", "s", "lower"),
    ("spectral.dense_spectrum.dim_max", "count", "lower"),
    ("spectral.spectral_gap.self_s", "s", "lower"),
    ("spectral.extreme_eigenvalue.calls", "count", "lower"),
    ("spectral.extreme_eigenvalue.iterations", "count", "lower"),
    ("spectral.extreme_eigenvalue.unconverged", "count", "lower"),
    ("prover.honest_witness.calls", "count", "lower"),
    ("prover.honest_witness.self_s", "s", "lower"),
    ("prover.honest_witness.support", "count", "lower"),
    ("walk.acceptance_rate.calls", "count", "lower"),
    ("walk.acceptance_rate.self_s", "s", "lower"),
    ("walk.trials", "count", "lower"),
    ("walk.trials_per_s", "1/s", "higher"),
    ("walk.deterministic_frac", "ratio", "higher"),
    ("walk.transition_probabilities.calls", "count", "lower"),
    ("walk.transition_probabilities.self_s", "s", "lower"),
    ("walk.diag_positive.calls", "count", "lower"),
    ("circuits.hamiltonian_to_verifier.calls", "count", "lower"),
    ("circuits.hamiltonian_to_verifier.self_s", "s", "lower"),
    ("circuits.hamiltonian_to_verifier.parts", "count", "lower"),
    ("circuits.decompose_stoquastic.self_s", "s", "lower"),
    ("clock.compile_circuit.calls", "count", "lower"),
    ("clock.compile_circuit.self_s", "s", "lower"),
    ("clock.local_term.calls", "count", "lower"),
    ("clock.local_term.self_s", "s", "lower"),
    ("clock.export_6sat.self_s", "s", "lower"),
    ("estimators.trace_power.exact.self_s", "s", "lower"),
    ("estimators.trace_power.sampled.self_s", "s", "lower"),
    ("estimators.trace_power.sampled.paths", "count", "lower"),
    ("estimators.trace_power.sampled.zero_frac", "ratio", "lower"),
    ("estimators.trace_power.sampled.miss_frac", "ratio", "lower"),
    ("estimators.lambda_stats.self_s", "s", "lower"),
    ("estimators.lambda_solves", "count", "lower"),
    ("estimators.lambda_draws", "count", "lower"),
    ("estimators.av_decide.self_s", "s", "lower"),
    ("estimators.av_decide.replicas", "count", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.gen.s", "s", "lower"),
    ("cli.prove.s", "s", "lower"),
    ("cli.verify.s", "s", "lower"),
    ("cli.compile.s", "s", "lower"),
    ("cli.spectrum.s", "s", "lower"),
    ("cli.trace.s", "s", "lower"),
    ("cli.bytes_written", "B", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, wall_s: float, misses: int = 0,
                  audited: int = 0) -> dict:
    """Every per-layer metric of one traced pass, except the overhead,
    which needs the untraced passes too.  ``misses`` of ``audited``
    sampled traces missed the harness's 3-stderr audit."""
    calls, self_s, total_s, counts = (tracer.calls, tracer.self_s,
                                      tracer.total_s, tracer.counts)
    out = {f"{layer}.self_s": tracer.layer_self_s(layer) for layer in LAYERS}
    for name, unit, _ in PER_LAYER:
        if name in out or name.startswith("trace.") or name.endswith("miss_frac"):
            continue
        base, _, field = name.rpartition(".")
        if field == "calls":
            out[name] = calls.get(base, counts.get(name, 0))
        elif field == "self_s":
            out[name] = self_s.get(base, 0.0)
        elif name.startswith("cli.") and field == "s":
            out[name] = total_s.get(base, 0.0)
        else:
            out[name] = counts.get(name, 0)
    out["cli.main.self_s"] = tracer.layer_self_s("cli")
    out["walk.trials"] = calls.get("walk.trial", 0)
    out["walk.trials_per_s"] = _ratio(out["walk.trials"], out["walk.self_s"])
    out["walk.deterministic_frac"] = _ratio(counts.get("walk.deterministic", 0),
                                            calls.get("walk.acceptance_rate", 0))
    out["estimators.trace_power.sampled.zero_frac"] = _ratio(
        counts.get("estimators.trace_power.sampled.zero", 0),
        calls.get("estimators.trace_power.sampled", 0))
    out["estimators.trace_power.sampled.miss_frac"] = _ratio(misses, audited)
    out["trace.wall_s"] = wall_s
    out["trace.unattributed_s"] = wall_s - sum(out[f"{layer}.self_s"]
                                               for layer in LAYERS)
    return out
