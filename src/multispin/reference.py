"""Plain +/-1 oracles and the record/replay harness for bit-exact checks.

The checkerboard oracle is the ground truth the packed engine is held to:
all red sites update from pre-phase neighbor values, then all blue sites.
Replaying the engine's recorded random draws through it must reproduce the
engine's lattice spin for spin, sweep after sweep.  The single-spin sweep
is a sequential variant whose agreement is statistical only.
"""

from __future__ import annotations

import math

import numpy as np

from .lattice import (
    ALL_CODES,
    LatticeDims,
    ArrayCode,
    array_view,
    check_spins,
    neighbor_indices,
)

__all__ = [
    "acceptance_lut",
    "single_spin_sweep",
    "checkerboard_sweep_plain",
    "neighbor_sum_brute",
    "neighbor_code_brute",
    "energy",
    "magnetization",
    "RandomMap",
    "record_engine_randoms",
]


def acceptance_lut(T: float, J: float = 1.0) -> np.ndarray:
    """Metropolis ratios indexed ``[spin_is_up, neighbor_sum + 4]``.

    Free and energy-lowering flips are pinned to exactly 1.0; with draws in
    [0, 1) and a strict ``draw < ratio`` comparison that is indistinguishable
    from the unclamped exponential and cannot overflow.
    """
    if T <= 0:
        raise ValueError("temperature must be positive")
    lut = np.empty((2, 9), dtype=np.float64)
    for up, sigma in ((0, -1), (1, 1)):
        for s in range(-4, 5):
            delta_e = 2.0 * J * sigma * s
            lut[up, s + 4] = 1.0 if delta_e <= 0 else math.exp(-delta_e / T)
    return lut


def single_spin_sweep(spins: np.ndarray, T: float, rng, J: float = 1.0) -> np.ndarray:
    """Sequential Metropolis pass in ascending linear-index order, in place.

    ``rng`` supplies one unit float per site via ``next_unit_float``.
    """
    dims = check_spins(spins)
    m, n = dims.m, dims.n
    for idx in range(dims.sites):
        c, r = divmod(idx, n)
        nb = (
            int(spins[(c + 1) % m, r])
            + int(spins[(c - 1) % m, r])
            + int(spins[c, (r + 1) % n])
            + int(spins[c, (r - 1) % n])
        )
        delta_e = 2.0 * J * int(spins[c, r]) * nb
        ratio = 1.0 if delta_e <= 0 else math.exp(-delta_e / T)
        if rng.next_unit_float() < ratio:
            spins[c, r] = -spins[c, r]
    return spins


def _neighbor_sums(spins: np.ndarray) -> np.ndarray:
    s = spins.astype(np.int16)
    return (
        np.roll(s, -1, axis=0)
        + np.roll(s, 1, axis=0)
        + np.roll(s, -1, axis=1)
        + np.roll(s, 1, axis=1)
    )


def checkerboard_sweep_plain(
    spins: np.ndarray, T: float, sweep_draws: np.ndarray, J: float = 1.0
) -> np.ndarray:
    """Synchronous red-then-blue sweep gated by a prerecorded draw map, in place.

    ``sweep_draws[c, r]`` is the unit draw for site (c, r); a red site's
    entry is consumed in the red half-sweep and a blue site's in the blue
    one.  A NaN entry for a needed site is a hard error so replay can never
    silently drift out of step.
    """
    dims = check_spins(spins)
    if sweep_draws.shape != (dims.m, dims.n):
        raise ValueError(f"draw map shape {sweep_draws.shape} != lattice shape {(dims.m, dims.n)}")
    lut = acceptance_lut(T, J)
    cols = np.arange(dims.m)[:, None]
    rows = np.arange(dims.n)[None, :]
    red = (cols + rows) % 2 == 0
    for mask in (red, ~red):
        if np.isnan(sweep_draws[mask]).any():
            raise KeyError("random map is missing entries for sites of the active color")
        ratios = lut[(spins > 0).astype(np.int8), _neighbor_sums(spins) + 4]
        flip = mask & (sweep_draws < ratios)
        spins[flip] = -spins[flip]
    return spins


def neighbor_sum_brute(spins: np.ndarray, idx: int) -> int:
    """Sum of the four periodic neighbors' spin values at one site."""
    dims = check_spins(spins)
    flat = spins.reshape(-1)
    return int(sum(int(flat[k]) for k in neighbor_indices(idx, dims)))


def neighbor_code_brute(spins: np.ndarray) -> np.ndarray:
    """Per-site 4-bit codes ``8*spin_is_up + up_neighbor_count``, flat array."""
    check_spins(spins)
    up = (spins > 0).astype(np.int16)
    n_up = (
        np.roll(up, -1, axis=0)
        + np.roll(up, 1, axis=0)
        + np.roll(up, -1, axis=1)
        + np.roll(up, 1, axis=1)
    )
    return (8 * up + n_up).astype(np.uint8).reshape(-1)


def energy(spins: np.ndarray, J: float = 1.0) -> float:
    """Total bond energy, each bond counted once (right and up per site)."""
    check_spins(spins)
    s = spins.astype(np.int64)
    bonds = (s * np.roll(s, -1, axis=0)).sum() + (s * np.roll(s, -1, axis=1)).sum()
    return -J * float(bonds)


def magnetization(spins: np.ndarray) -> float:
    """Mean spin value, in [-1, 1]."""
    check_spins(spins)
    return float(spins.astype(np.int64).sum()) / spins.size


class RandomMap:
    """Engine draws keyed by the spin they gated, one (m, n) layer per sweep.

    Entries start as NaN; replay through the plain oracle fails loudly if a
    needed entry was never recorded.
    """

    def __init__(self, dims: LatticeDims, n_sweeps: int):
        self.dims = dims
        self.draws = np.full((n_sweeps, dims.m, dims.n), np.nan)

    @property
    def n_sweeps(self) -> int:
        return self.draws.shape[0]

    def for_sweep(self, sweep: int) -> np.ndarray:
        return self.draws[sweep]

    def value(self, sweep: int, red_phase: bool, idx: int) -> float:
        """Draw consumed for one spin, validating the color phase."""
        c, r = divmod(int(idx), self.dims.n)
        if ((c + r) % 2 == 0) != red_phase:
            phase = "red" if red_phase else "blue"
            raise KeyError(f"spin {idx} does not belong to the {phase} phase")
        v = float(self.draws[sweep, c, r])
        if math.isnan(v):
            raise KeyError(f"no draw recorded for sweep {sweep}, spin {idx}")
        return v

    def entries_per_sweep(self) -> int:
        return int(np.isfinite(self.draws[0]).sum()) if self.n_sweeps else 0


class _MapRecorder:
    """Engine hook writing each draw block onto the gated spins."""

    def __init__(self, random_map: RandomMap, base_sweep: int):
        self._base = base_sweep
        # One (sweeps, cells, words, 16) view of the whole map per array.
        self._views = {code: array_view(random_map.draws, code) for code in ALL_CODES}

    def record(self, sweep: int, code: ArrayCode, bit: int, draws: np.ndarray) -> None:
        self._views[code][sweep - self._base, ..., bit] = draws[0]


def record_engine_randoms(engine, n_sweeps: int) -> RandomMap:
    """Run ``n_sweeps`` engine sweeps, capturing every gating draw.

    The engine must hold a single simulation.  Each recorded layer holds
    exactly one entry per spin: red spins filled during the red phase, blue
    during the blue one.
    """
    if engine.n_sim != 1:
        raise ValueError("draw recording requires a single-simulation engine")
    random_map = RandomMap(engine.dims, n_sweeps)
    engine.recorder = _MapRecorder(random_map, engine.sweeps_done)
    try:
        for _ in range(n_sweeps):
            engine.sweep()
    finally:
        engine.recorder = None
    return random_map
