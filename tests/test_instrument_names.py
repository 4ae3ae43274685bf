"""The benchmark tracer wraps stoqbench entry points by name; a rename or
a deletion in the package must not silently break ``bench/run.py --trace 1``."""

import importlib
import importlib.util
from pathlib import Path

INSTRUMENT = Path(__file__).resolve().parents[1] / "bench" / "instrument.py"


def load_instrument():
    spec = importlib.util.spec_from_file_location("bench_instrument", INSTRUMENT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    targets = [(layer, attr) for layer, attr, _, _ in load_instrument().SPANS]
    targets.append(("estimators", "_LambdaSolver.base_lambda"))
    missing = []
    for layer, attr in targets:
        obj = importlib.import_module(f"stoqbench.{layer}")
        for name in attr.split("."):
            obj = getattr(obj, name, None)
        if not callable(obj):
            missing.append(f"{layer}.{attr}")
    assert not missing, f"bench/instrument.py wraps missing names: {missing}"
