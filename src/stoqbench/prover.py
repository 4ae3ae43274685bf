"""Honest and adversarial Merlin strategies for the walk protocol."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ops import ETA
from .instances import StoqSatInstance
from .spectral import extreme_eigenvalue
from .walk import build_G


@dataclass(frozen=True)
class WitnessVector:
    """Pruned non-negative top eigenvector of G."""

    amplitudes: dict  # basis index -> positive amplitude

    def norm(self) -> float:
        return float(np.sqrt(sum(a * a for a in self.amplitudes.values())))


@dataclass(frozen=True)
class HonestWitness:
    vector: WitnessVector
    argmax: int
    eigenvalue: float
    looks_unsat: bool  # top eigenvalue fell short of 1; kept for adversaries


def honest_witness(instance: StoqSatInstance) -> HonestWitness:
    """Top eigenvector of G, pruned at eta; argmax ties go to the smallest
    basis index.  On a degenerate top eigenspace the vector is the
    all-ones vector projected onto all of it (see extreme_eigenvalue).
    The instance looks unsat when the top eigenvalue is below 1 - 1e-8."""
    res = extreme_eigenvalue(build_G(instance), "max")
    support = np.flatnonzero(res.vector > ETA)
    amplitudes = dict(zip(support.tolist(), res.vector[support].tolist()))
    norm = float(np.sqrt(sum(a * a for a in amplitudes.values())))
    amplitudes = {x: a / norm for x, a in amplitudes.items()}
    peak = max(amplitudes.values())
    argmax = min(x for x, a in amplitudes.items() if a >= peak - 1e-12)
    return HonestWitness(vector=WitnessVector(amplitudes), argmax=argmax,
                         eigenvalue=res.value,
                         looks_unsat=res.value < 1.0 - 1e-8)


def adversarial_witnesses(instance: StoqSatInstance, mode: str = "all-basis",
                          count: int = 0, seed: int = 0) -> list:
    """Candidate witness strings for soundness experiments."""
    if mode == "all-basis":
        if instance.n > 12:
            raise ValueError("all-basis enumeration limited to n <= 12")
        return list(range(2**instance.n))
    if mode == "random":
        rng = np.random.default_rng(seed)
        return [int(v) for v in rng.integers(0, 2**instance.n, size=count)]
    raise ValueError(f"unknown mode {mode!r}")
