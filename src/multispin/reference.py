"""Plain +/-1 oracles and the record/replay harness for bit-exact checks.

The checkerboard oracle is the ground truth the packed engine is held to:
all red sites update from pre-phase neighbor values, then all blue sites.
Replaying the engine's draws through it must reproduce the engine's
lattice spin for spin, sweep after sweep; the draws come from a copy of the
engine's streams in the stated order, so the replay checks that order too.
The single-spin sweep is a sequential variant whose agreement is
statistical only.
"""

from __future__ import annotations

import copy
import math

import numpy as np

from .lattice import (
    ALL_CODES,
    LatticeDims,
    array_view,
    check_spins,
    check_temperature,
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

_UNIT = 2.0 ** -23  # a draw k of XoshiroStreams.unit_block stands for k * 2**-23


def acceptance_lut(T: float, J: float = 1.0) -> np.ndarray:
    """Metropolis ratios indexed ``[spin_is_up, neighbor_sum + 4]``.

    Free and energy-lowering flips are pinned to exactly 1.0; with draws in
    [0, 1) and a strict ``draw < ratio`` comparison that is indistinguishable
    from the unclamped exponential and cannot overflow.
    """
    check_temperature(T, J)
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
    lut = acceptance_lut(T, J)
    m, n = dims.m, dims.n
    for idx in range(dims.sites):
        c, r = divmod(idx, n)
        nb = (
            int(spins[(c + 1) % m, r])
            + int(spins[(c - 1) % m, r])
            + int(spins[c, (r + 1) % n])
            + int(spins[c, (r - 1) % n])
        )
        if rng.next_unit_float() < lut[int(spins[c, r] > 0), nb + 4]:
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


def record_engine_randoms(engine, n_sweeps: int) -> RandomMap:
    """Run ``n_sweeps`` engine sweeps and map every draw onto the spin it gates.

    The engine must hold a single simulation.  The draws come from a copy of
    ``engine.streams``, placed by the stated order, not by the flips: per
    color phase one ``unit_block(64)``, whose row 16q + 4i + ii gates bit
    4ii + i of quarter q's target ``ALL_CODES[4*phase + q]``.  Each layer
    holds exactly one entry per spin.

    The flips instead take one ``unit_block(16)`` per quarter and tile.  A
    stream's sequence does not depend on which column range steps it, and
    per phase the flips step each stream 8 outputs for quarter 0, then 8
    for quarter 1, and so on, so quarter q's block is rows 16q to 16q + 15
    of the single 64-row block taken here.
    """
    if engine.n_sim != 1:
        raise ValueError("draw recording requires a single-simulation engine")
    dims = engine.dims
    streams = copy.deepcopy(engine.streams)
    random_map = RandomMap(dims, n_sweeps)
    # One (sweeps, cells, words, 16) view of the whole map per array.
    views = [array_view(random_map.draws, code) for code in ALL_CODES]
    for sweep in range(n_sweeps):
        for phase in range(2):
            rows = streams.unit_block(64).reshape(4, 4, 4, dims.cells, dims.words)
            # [q, i, ii, cell, word] -> [q, cell, word, 4*ii + i]
            bits = rows.transpose(0, 3, 4, 2, 1).reshape(4, dims.cells, dims.words, 16)
            for q in range(4):
                views[4 * phase + q][sweep] = bits[q] * _UNIT
    for _ in range(n_sweeps):
        engine.sweep()
    return random_map
