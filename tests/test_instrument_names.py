"""The benchmark tracer wraps stoqbench entry points by name and its hooks
read result attributes; a rename or a deletion in the package must not
silently break ``bench/run.py --trace 1``."""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

from stoqbench import (DisorderEnsemble, LhMinInstance, LocalOperator,
                       TermTemplate, WalkConfig, circuits, cli, estimators,
                       instances, ops, prover, spectral, walk)
from conftest import plus_instance

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    targets = [(layer, attr) for layer, attr, _, _ in load_bench("instrument").SPANS]
    targets.append(("estimators", "_LambdaSolver.base_lambda"))
    missing = []
    for layer, attr in targets:
        obj = importlib.import_module(f"stoqbench.{layer}")
        for name in attr.split("."):
            obj = getattr(obj, name, None)
        if not callable(obj):
            missing.append(f"{layer}.{attr}")
    assert not missing, f"bench/instrument.py wraps missing names: {missing}"


def test_every_hook_records_a_value(tmp_path, monkeypatch):
    """One tiny case of each entry point whose span has a hook, run traced:
    every hook must run without error and pass a value to the tracer."""
    instrument = load_bench("instrument")
    recorded = set()

    def spy(layer, attr, hook):
        def run_hook(tracer, args, kwargs, result):
            before = len(tracer.names)
            hook(tracer, args, kwargs, result)
            if len(tracer.names) > before:
                recorded.add(f"{layer}.{attr}")
        return run_hook

    class Tracer(load_bench("harness").Tracer):
        def __init__(self):
            super().__init__()
            self.names = []

        def add(self, name, k=1):
            self.names.append(name)
            super().add(name, k)

        def high(self, name, value):
            self.names.append(name)
            super().high(name, value)

    hooked = {f"{layer}.{attr}" for layer, attr, _, hook in instrument.SPANS
              if hook is not None}
    monkeypatch.setattr(instrument, "SPANS", tuple(
        (layer, attr, name, hook and spy(layer, attr, hook))
        for layer, attr, name, hook in instrument.SPANS))
    sat = plus_instance(3, [(0, 1), (1, 2)])
    minus_x = np.array([[0.0, -1.0], [-1.0, 0.0]])
    h = LhMinInstance(2, (LocalOperator((0,), minus_x),
                          LocalOperator((1,), minus_x)), -2.0, -1.0)
    ens = DisorderEnsemble(1, 1, (TermTemplate((0,), (), {0: minus_x}),
                                  TermTemplate((0,), (0,), {
                                      0: np.zeros((2, 2)),
                                      1: np.diag([2.0, 0.0])})))
    path = str(tmp_path / "h.json")
    instances.save(h, path)
    with instrument.instrumented(Tracer()) as tracer:
        ops.assemble_dense(h.operator())
        instances.load(path)
        spectral.dense_spectrum(h.operator())
        prover.honest_witness(sat)
        walk.acceptance_rate(sat, 0, 4, WalkConfig(steps=3, seed=1))
        circuits.hamiltonian_to_verifier(h)
        estimators.trace_power(estimators.sbp_matrix(h)[0], 2,
                               mode="sampled", paths=8, seed=0)
        estimators.av_decide(ens, -1.0, -0.8, samples=20, seed=3)
        cli.main(["spectrum", "--instance", path,
                  "--out", str(tmp_path / "s.csv")])
    assert hooked - recorded == set()
    assert all(name in tracer.counts for name in tracer.names)
