"""Trajectory statistics: equilibration detection and Onsager comparison.

Equilibration is found by scanning candidate origins on a geometric grid
and keeping the one that maximizes the effective sample count
``(N - t0) / g(t0)``, where the statistical inefficiency g = 1 + 2*tau
comes from the integrated autocorrelation of the tail.  Standard errors of
equilibrated means always use the effective count, never the raw one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .lattice import onsager_magnetization

__all__ = [
    "Trajectory",
    "statistical_inefficiency",
    "detect_equilibration",
    "MIN_EQUILIBRATION_SAMPLES",
    "Summary",
    "summarize",
]

MIN_EQUILIBRATION_SAMPLES = 20  # shortest series detect_equilibration accepts
_EQUILIBRATION_ORIGINS = 10  # candidate origins detect_equilibration tries, at most


@dataclass
class Trajectory:
    """Per-sweep measurements of a batch of simulations.

    ``abs_m[k, s]`` and ``energy[k, s]`` belong to measurement k (taken at
    sweep ``sweeps[k]``) of simulation s, which ran at ``temperatures[s]``.
    ``meta`` holds what the run counted: its spin-flip ``attempts`` and,
    from ``run_simulations``, the ``threads`` it ran on.
    """

    sweeps: np.ndarray
    abs_m: np.ndarray
    energy: np.ndarray
    temperatures: tuple
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        n_sim = len(self.temperatures)
        if self.abs_m.shape != (self.sweeps.size, n_sim):
            raise ValueError("abs_m shape does not match sweeps x simulations")
        if self.energy.shape != self.abs_m.shape:
            raise ValueError("energy shape does not match abs_m")
        if self.sweeps.size and (np.diff(self.sweeps) <= 0).any():
            raise ValueError("measurement sweep indices must be strictly increasing")

    @property
    def n_measurements(self) -> int:
        return int(self.sweeps.size)

    @property
    def n_sim(self) -> int:
        return len(self.temperatures)

    def series(self, sim: int) -> np.ndarray:
        """|M| series of one simulation."""
        return self.abs_m[:, sim]


def statistical_inefficiency(series) -> float:
    """g = 1 + 2 * sum of normalized autocorrelations over the positive window.

    The sum truncates at the first non-positive autocorrelation estimate.
    A zero-variance series has g = 1 by convention.
    """
    a = np.asarray(series, dtype=np.float64).ravel()
    if a.size < 10:
        raise ValueError(f"need at least 10 samples, got {a.size}")
    d = a - a.mean()
    var = float((d * d).mean())
    if var == 0.0:
        return 1.0
    g = 1.0
    for k in range(1, a.size):
        c = float((d[:-k] * d[k:]).mean()) / var
        if c <= 0.0:
            break
        g += 2.0 * c
    return max(1.0, g)


def detect_equilibration(series) -> tuple[int, float, float]:
    """Origin that maximizes the effective sample count of the tail.

    Candidate origins sit on a geometric grid over the first three quarters
    of the series.  Returns ``(t0, g, n_eff)`` where g is the statistical
    inefficiency of ``series[t0:]`` and ``n_eff = (N - t0) / g``.
    """
    a = np.asarray(series, dtype=np.float64).ravel()
    if a.size < MIN_EQUILIBRATION_SAMPLES:
        raise ValueError(f"equilibration detection needs at least {MIN_EQUILIBRATION_SAMPLES} "
                         f"measurements, got {a.size}")
    if a.std() == 0.0:
        return 0, 1.0, float(a.size)
    upper = max(1, (3 * a.size) // 4)
    grid = np.unique(np.geomspace(1, upper, _EQUILIBRATION_ORIGINS - 1).astype(int))
    candidates = [0] + [int(t) for t in grid if a.size - t >= 10]
    best = (-1.0, 0, 1.0)
    for t0 in candidates:
        g = statistical_inefficiency(a[t0:])
        n_eff = (a.size - t0) / g
        if n_eff > best[0]:
            best = (n_eff, t0, g)
    n_eff, t0, g = best
    return t0, g, n_eff


@dataclass(frozen=True)
class Summary:
    """Equilibrated |M| of one simulation against the closed-form curve."""

    temperature: float
    mean_abs_m: float
    stderr: float
    onsager_abs_m: float
    deviation: float
    t0: int
    g: float
    n_eff: float
    n_used: int


def summarize(series, temperature: float, coupling: float = 1.0) -> Summary:
    """Equilibrated mean of an |M| series with its Onsager deviation.

    The standard error divides by the effective sample count, so it can
    never be smaller than the naive uncorrelated estimate.
    """
    a = np.asarray(series, dtype=np.float64).ravel()
    if a.size == 0:
        raise ValueError("empty trajectory: run longer or measure more often")
    t0, g, n_eff = detect_equilibration(a)
    tail = a[t0:]
    if tail.size == 0:
        raise ValueError("no post-equilibration data: run longer")
    mean = float(tail.mean())
    spread = float(tail.std(ddof=1)) if tail.size > 1 else 0.0
    stderr = spread / np.sqrt(n_eff)
    analytic = onsager_magnetization(temperature, coupling)
    return Summary(
        temperature=float(temperature),
        mean_abs_m=mean,
        stderr=float(stderr),
        onsager_abs_m=analytic,
        deviation=mean - analytic,
        t0=t0,
        g=g,
        n_eff=n_eff,
        n_used=int(tail.size),
    )
