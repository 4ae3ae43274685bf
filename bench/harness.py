"""Operations, passes, the speed meter and the span tracer of the benchmark.

An operation is one call into a public stoqbench entry point plus a
check of its output.  A pass runs a workload's operations back to back
(a closed loop with one client) and hashes every file they write.
"""

from __future__ import annotations

import hashlib
import statistics
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

CHUNK_EVERY_S = 0.2
_CAL_A = np.random.default_rng(0).normal(size=(48, 48))
_CAL_B = np.random.default_rng(1).normal(size=(128, 128))
_CAL_CDF = np.cumsum(np.random.default_rng(2).random(8))
_CAL_S = np.random.default_rng(4).normal(size=(192, 192))
_CAL_S = _CAL_S + _CAL_S.T


def _interpreter_work() -> None:
    """Interpreter loops, scalar numpy calls (as in the walk's steps) and
    small matrix products."""
    total, table = 0, {}
    for i in range(25000):
        total += i * i % 7
        table[i & 255] = total
    rng = np.random.default_rng(3)
    for _ in range(2000):
        int(np.searchsorted(_CAL_CDF, rng.random()))
    for _ in range(20):
        _CAL_A @ _CAL_A
    for _ in range(4):
        _CAL_B @ _CAL_B


def _lapack_work() -> None:
    """Dense symmetric eigensolves, as in the prover and spectra."""
    for _ in range(2):
        np.linalg.eigh(_CAL_S)


@dataclass(frozen=True)
class Chunk:
    """Fixed calibration work and its time at the reference speed, close
    to its median on the 2-vCPU Xeon host in bench/README.md.  The
    reference only sets the scale; a change to it rescales every result."""
    work: Callable[[], None]
    ref_s: float


INTERPRETER = Chunk(_interpreter_work, 0.0099)
LAPACK = Chunk(_lapack_work, 0.0089)


class SpeedMeter:
    """Rescales elapsed time to the reference speed.

    On a shared host the speed of a core swings within seconds (CPU time
    swings with wall time, so it is the core, not the scheduler).  The
    meter times a calibration chunk, whose work should resemble the
    measured work, at the start of a span of work, after every operation
    once ``CHUNK_EVERY_S`` has passed since the last chunk, and at the
    end.  Each segment of work between two chunks is scaled by the
    chunk's reference time over the mean of the two chunk times, and
    ``ref_s`` sums the scaled segments.  Chunk time is never work time.
    """

    def __init__(self, chunk: Chunk = INTERPRETER,
                 clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.chunk = chunk
        self.chunks: list = []
        self.work_s = 0.0
        self.ref_s = 0.0
        self._segment_s = 0.0
        self._since = None

    def _measure(self) -> float:
        started = self.clock()
        self.chunk.work()
        ended = self.clock()
        self._since = ended
        return ended - started

    def start(self) -> None:
        self.chunks.append(self._measure())

    def tick(self, final: bool = False) -> None:
        """Close the current segment; chunk if it is long enough or final."""
        now = self.clock()
        self._segment_s += now - self._since
        self._since = now
        if not final and self._segment_s < CHUNK_EVERY_S:
            return
        before, after = self.chunks[-1], self._measure()
        self.chunks.append(after)
        self.work_s += self._segment_s
        self.ref_s += self._segment_s * self.chunk.ref_s / ((before + after) / 2.0)
        self._segment_s = 0.0

    def stop(self) -> None:
        self.tick(final=True)

    def speed(self) -> float:
        """Median chunk time over the reference: >1 means slower."""
        return statistics.median(self.chunks) / self.chunk.ref_s


class Tracer:
    """Spans and counters of one traced pass, kept in memory.

    A span's self time is its duration minus the part of it covered by
    the spans opened inside it.  While ``paused`` is set, the wrappers
    call straight through, so the benchmark's own checks do not show up
    as program work.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.calls: dict = {}
        self.total_s: dict = {}
        self.self_s: dict = {}
        self.counts: dict = {}
        self.paused = False
        self._child_s: list = []

    def start(self) -> float:
        self._child_s.append(0.0)
        return self.clock()

    def stop(self, name: str, started: float) -> None:
        duration = self.clock() - started
        child = self._child_s.pop()
        if self._child_s:
            self._child_s[-1] += duration
        self.calls[name] = self.calls.get(name, 0) + 1
        self.total_s[name] = self.total_s.get(name, 0.0) + duration
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - child

    def add(self, name: str, k=1) -> None:
        self.counts[name] = self.counts.get(name, 0) + k

    def high(self, name: str, value) -> None:
        self.counts[name] = max(self.counts.get(name, value), value)

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum(v for k, v in self.self_s.items() if k.startswith(prefix))


@dataclass
class Op:
    """One entry-point call.  ``check`` returns None or a failure message.

    ``outputs`` are the files the call writes; each is hashed after the
    call.  ``digest`` turns a library call's result into a string that
    is kept with the file hashes, so every pass must reproduce it.
    ``audit`` is a statistical test aimed at a known defect: it returns
    None or a miss message, and a miss is counted and reported, not
    failed, because a test with a false-alarm rate is not a check.
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]
    outputs: tuple = ()
    digest: Optional[Callable[[object], str]] = None
    audit: Optional[Callable[[object], Optional[str]]] = None


@dataclass
class PassResult:
    wall_s: float  # operations only; calibration chunks are left out
    ref_s: float = 0.0  # wall_s rescaled to the reference speed
    speed: float = 1.0  # median chunk time over its reference time
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)  # (op name, message)
    audited: int = 0
    misses: list = field(default_factory=list)  # (op name, message)
    hashes: dict = field(default_factory=dict)  # output or result -> digest


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _checked(op, out, result: PassResult) -> Optional[str]:
    message = op.check(out)
    if op.digest is not None:
        result.hashes[f"result of {op.name}"] = op.digest(out)
    if op.audit is not None:
        result.audited += 1
        miss = op.audit(out)
        if miss is not None:
            result.misses.append((op.name, miss))
    return message


def run_pass(ops, tracer: Optional[Tracer] = None,
             meter: Optional[SpeedMeter] = None) -> PassResult:
    """Run every operation once, in order, and check each output."""
    meter = meter or SpeedMeter()
    result = PassResult(wall_s=0.0)
    meter.start()
    for op in ops:
        result.attempted += 1
        try:
            out = op.run()
        except Exception:  # an operation that raises is a failed operation
            message = "raised " + traceback.format_exc(limit=-1).strip()
        else:
            if tracer is not None:
                tracer.paused = True
            try:
                message = _checked(op, out, result)
            except Exception:
                message = "check raised " + traceback.format_exc(limit=-1).strip()
            finally:
                if tracer is not None:
                    tracer.paused = False
        for path in op.outputs:
            try:
                result.hashes[str(path)] = sha256_file(path)
            except OSError as exc:
                message = message or f"output {path} unreadable: {exc}"
        if message is not None:
            result.failed += 1
            result.failures.append((op.name, message))
        meter.tick()
    meter.stop()
    result.wall_s, result.ref_s = meter.work_s, meter.ref_s
    result.speed = meter.speed()
    return result
