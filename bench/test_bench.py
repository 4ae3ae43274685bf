"""Tests of the benchmark harness.  Run with ``python3 -m pytest bench``.

The last test runs one traced pass of every workload on a seed other
than the default, so a claim can be re-checked on fresh inputs; it takes
about half a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
from harness import Chunk, Op, SpeedMeter, Tracer, run_pass  # noqa: E402
from instrument import LAYERS, PER_LAYER, instrumented, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_is_span_minus_children():
    clock = FakeClock()
    tr = Tracer(clock)
    outer = tr.start()                      # t = 0
    clock.now = 2.0
    child = tr.start()                      # t = 2
    clock.now = 3.0
    grandchild = tr.start()                 # t = 3
    clock.now = 4.0
    tr.stop("walk.grandchild", grandchild)  # 1 s
    clock.now = 5.0
    tr.stop("ops.child", child)             # 3 s, 1 s of it in grandchild
    clock.now = 6.0
    second = tr.start()
    clock.now = 7.0
    tr.stop("ops.child", second)            # 1 s, no children
    clock.now = 10.0
    tr.stop("walk.outer", outer)            # 10 s, 4 s of it in children

    assert tr.total_s == {"walk.grandchild": 1.0, "ops.child": 4.0,
                          "walk.outer": 10.0}
    assert tr.self_s == {"walk.grandchild": 1.0, "ops.child": 3.0,
                         "walk.outer": 6.0}
    assert tr.calls == {"walk.grandchild": 1, "ops.child": 2, "walk.outer": 1}
    assert tr.layer_self_s("walk") == 7.0
    assert tr.layer_self_s("ops") == 3.0
    # self times partition the outermost span
    assert sum(tr.self_s.values()) == tr.total_s["walk.outer"]
    # time outside every span is unattributed
    metrics = layer_metrics(tr, wall_s=12.0)
    assert metrics["trace.unattributed_s"] == 2.0


def test_failure_counting(tmp_path):
    out = tmp_path / "out.csv"

    def raises():
        raise RuntimeError("boom")

    def writes():
        out.write_text("a,b\n1,2\n")
        return 0

    ops = [
        Op("passes", lambda: 1, lambda v: None),
        Op("raises", raises, lambda v: None),
        Op("fails check", lambda: 2, lambda v: f"got {v}, expected 1"),
        Op("audited", lambda: 0.0, lambda v: None, digest=repr,
           audit=lambda v: f"{v} +- 0"),
        Op("audit passes", lambda: 1.0, lambda v: None, audit=lambda v: None),
        Op("writes", writes, lambda code: None, outputs=(out,)),
    ]
    res = run_pass(ops)
    assert res.attempted == 6
    assert res.failed == 2
    assert [name for name, _ in res.failures] == ["raises", "fails check"]
    assert "RuntimeError: boom" in res.failures[0][1]
    assert res.failures[1][1] == "got 2, expected 1"
    # an audit miss is reported, not failed
    assert res.audited == 2
    assert res.misses == [("audited", "0.0 +- 0")]
    assert res.hashes.keys() == {"result of audited", str(out)}
    assert res.hashes["result of audited"] == "0.0"
    assert res.wall_s > 0.0 and res.ref_s > 0.0


def test_speed_meter_rescales_each_segment_by_its_chunks():
    clock = FakeClock()
    chunk_s = iter([0.01, 0.03, 0.01])

    def work():
        clock.now += next(chunk_s)

    meter = SpeedMeter(Chunk(work, ref_s=0.01), clock)
    meter.start()                # chunk at the reference speed
    clock.now += 0.1
    meter.tick()                 # 0.1 s: below CHUNK_EVERY_S, no chunk
    clock.now += 0.3
    meter.tick()                 # 0.4 s, then a chunk 3x slower
    clock.now += 0.2
    meter.stop()                 # 0.2 s, then a chunk at the reference
    assert meter.work_s == pytest.approx(0.6)
    # each segment is divided by the mean of its two chunks over the reference
    assert meter.ref_s == pytest.approx(0.4 / 2.0 + 0.2 / 2.0)
    assert meter.speed() == pytest.approx(1.0)
    assert len(meter.chunks) == 3


def test_wrappers_catch_calls_between_modules_and_are_removed():
    import numpy as np
    import stoqbench
    from stoqbench import LocalOperator, OperatorSum, ops, spectral

    originals = (ops.assemble_dense, spectral.assemble_dense,
                 stoqbench.assemble_dense, spectral.dense_spectrum)
    op = OperatorSum(2, (LocalOperator((0, 1), np.eye(4)),))
    tr = Tracer()
    with instrumented(tr):
        # dense_spectrum reaches assemble_dense through spectral's namespace
        stoqbench.dense_spectrum(op)
        tr.paused = True
        ops.assemble_dense(op)
        tr.paused = False
    assert tr.calls == {"spectral.dense_spectrum": 1, "ops.assemble_dense": 1}
    assert tr.counts["ops.assemble_dense.bytes"] == 8 * 4**2
    assert tr.total_s["spectral.dense_spectrum"] >= tr.total_s["ops.assemble_dense"]
    assert (ops.assemble_dense, spectral.assemble_dense,
            stoqbench.assemble_dense, spectral.dense_spectrum) == originals


def test_benchmark_json_matches_the_code():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in doc["end_to_end"]] == [tuple(m) for m in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] \
        == [tuple(m) for m in PER_LAYER]
    assert all(len(w["why"]) <= 200 for w in doc["workloads"])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "clock-spectrum",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_second_seed_passes_and_dominant_layer_leads(name, tmp_path):
    workload = WORKLOADS[name]
    ops = workload.setup(7, tmp_path)
    tr = Tracer()
    with instrumented(tr):
        res = run_pass(ops, tr)
    assert res.failures == []
    metrics = layer_metrics(tr, res.wall_s)
    top = max(LAYERS, key=lambda layer: metrics[f"{layer}.self_s"])
    assert top == workload.dominant
