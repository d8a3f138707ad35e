"""The virtual cell fabric: packed-state sweeps over independent simulations.

State is a single uint16 array of shape (n_sim, 8, cells+2, words+2); each
simulation row behaves like a strip of worker cells flanked by two moats.
A sweep runs the four red quarter-flips, re-copies the red halos, then the
four blue quarter-flips and the blue copies.  Within a phase, cells only
read the opposite color, so everything updates in lockstep with no ordering
hazards; boundary copies move data between adjacent cell columns only.

All randomness comes from one xoshiro stream per (simulation, cell, word).
A random start takes the first two outputs of each stream as the initial
bits of that (cell, word) in all eight arrays; after that each stream draws
once per spin of its word in a fixed order -- quarter, bit offset i, field
ii -- so runs are bit-identical no matter how simulations are partitioned
across threads, and a recorder can key every draw to the one spin it gated.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .bitkernels import bitwise_add4, get_bit_above, get_bit_below, nibble_compact
from .lattice import (
    ALL_CODES,
    BOUNDARY_RULES,
    ArrayCode,
    LatticeDims,
    PackedArrays,
    array_view,
    canonical_halo_source,
    check_spins,
    pack,
    unpack,
)
from .observables import Trajectory
from .rng import XoshiroStreams

__all__ = [
    "FLIP_RED",
    "FLIP_BLUE",
    "build_exp_table",
    "get_neighbors",
    "neighbor_codes",
    "refresh_boundaries",
    "Engine",
    "run_simulations",
]

_C = ArrayCode

# Quarter-flip argument tables: (target, lateral source, vertical source, up, right).
# Odd targets read the vertical source upward; the right flag says whether the
# lateral reads hit cells (gamma, gamma+1) rather than (gamma-1, gamma).
FLIP_RED = (
    (_C.RFE, _C.BFE, _C.BFO, False, False),
    (_C.RBO, _C.BBO, _C.BBE, True, False),
    (_C.RBE, _C.BBE, _C.BBO, False, True),
    (_C.RFO, _C.BFO, _C.BFE, True, True),
)
FLIP_BLUE = (
    (_C.BFE, _C.RFE, _C.RFO, False, True),
    (_C.BBO, _C.RBO, _C.RBE, True, True),
    (_C.BBE, _C.RBE, _C.RBO, False, False),
    (_C.BFO, _C.RFO, _C.RFE, True, False),
)

_RED_BOUNDARY = tuple((q[0], BOUNDARY_RULES[q[0]]) for q in FLIP_RED)
_BLUE_BOUNDARY = tuple((q[0], BOUNDARY_RULES[q[0]]) for q in FLIP_BLUE)

# Stream of (sim, cell, word): ((sim_offset+sim)*cells + cell-1)*words + word-1.
_DRAW_SCALE = 1 << 23  # a draw is k / _DRAW_SCALE, k an integer in [0, _DRAW_SCALE)
_FIELDS = np.array([0, 4, 8, 12], dtype=np.uint16).reshape(4, 1, 1, 1)  # nibble field offsets
_PARTS = np.array([0, 16, 32, 48], dtype=np.uint64).reshape(4, 1)  # 16-bit parts of an output


def build_exp_table(T: float, J: float = 1.0) -> np.ndarray:
    """Metropolis acceptance table indexed by ``8*own_bit + neighbor_up_count``.

    Flipping a spin of sign s with u of 4 neighbors up costs
    ``2*J*s*(2u - 4)``; the entry is ``min(1, exp(-cost/T))``.  Codes with
    an impossible up-count (5, 6, 7) are never read and stay 0.
    """
    if T <= 0:
        raise ValueError("temperature must be positive")
    table = np.zeros(16, dtype=np.float64)
    for own in (0, 1):
        sigma = 2 * own - 1
        for up_count in range(5):
            delta_e = 2.0 * J * sigma * (2 * up_count - 4)
            # free or energy-lowering flips are certain; exp would overflow
            table[8 * own + up_count] = 1.0 if delta_e <= 0 else math.exp(-delta_e / T)
    return table


def _draw_limits(tables: np.ndarray) -> np.ndarray:
    """Per-entry ``ceil(p * 2**23)``: the draw k accepts exactly when k < limit."""
    return np.ceil(tables * _DRAW_SCALE).astype(np.uint32)


def get_neighbors(lateral: np.ndarray, vertical: np.ndarray, up: bool, right: bool):
    """Neighbor words for every interior (cell, word) of one target array.

    ``lateral`` and ``vertical`` are the full (..., cells+2, words+2)
    matrices of the two partner arrays with current halos.  Returns
    (right, left, top, bottom) uint16 arrays of shape (..., cells, words)
    aligned with the target's interior words: the right flag selects lateral
    cells (gamma, gamma+1) versus (gamma-1, gamma); the up flag selects a
    shifted read upward versus downward for the off-parity vertical partner.
    """
    if right:
        s_r = lateral[..., 2:, 1:-1]
        s_l = lateral[..., 1:-1, 1:-1]
    else:
        s_r = lateral[..., 1:-1, 1:-1]
        s_l = lateral[..., :-2, 1:-1]
    cols = vertical[..., 1:-1, :]
    if up:
        s_t = get_bit_above(cols)
        s_b = cols[..., 1:-1]
    else:
        s_t = cols[..., 1:-1]
        s_b = get_bit_below(cols)
    return s_r, s_l, s_t, s_b


def _apply_boundary_rules(state: np.ndarray, rules, cells: int, words: int) -> None:
    """Halo/moat copies on a (..., 8, cells+2, words+2) state array."""
    for code, (partner, copy_top, fill_right) in rules:
        a = state[..., code.index, :, :]
        if copy_top:
            a[..., 1 : cells + 1, -1] = a[..., 1 : cells + 1, 1]
        else:
            a[..., 1 : cells + 1, 0] = a[..., 1 : cells + 1, words]
        p = state[..., partner.index, :, :]
        if fill_right:
            a[..., -1, 1:-1] = p[..., cells, 1:-1]
        else:
            a[..., 0, 1:-1] = p[..., 1, 1:-1]


def refresh_boundaries(packed: PackedArrays) -> PackedArrays:
    """Run both colors' boundary updates on a standalone packed state."""
    dims = packed.dims
    _apply_boundary_rules(packed.words, _RED_BOUNDARY, dims.cells, dims.words)
    _apply_boundary_rules(packed.words, _BLUE_BOUNDARY, dims.cells, dims.words)
    return packed


def _nibble_codes(state: np.ndarray, target: ArrayCode, lateral: ArrayCode,
                  vertical: ArrayCode, up: bool, right: bool):
    """Yield ``(i, codes)`` for the bit offsets i = 0..3 of one quarter-flip.

    ``state`` is a (n_sim, 8, cells+2, words+2) array with current halos;
    ``codes[f, sim, cell-1, word-1]`` is ``8*own_bit + neighbor_up_count`` of
    bit ``4*f + i`` of the target word.  One shift, one add4 and four
    compacts per quarter; the target must not change until the last yield.
    """
    neighbors = get_neighbors(state[:, lateral.index], state[:, vertical.index], up, right)
    ones, twos, fours = bitwise_add4(*neighbors)
    interior = state[:, target.index, 1:-1, 1:-1]
    for i in range(4):
        yield i, (nibble_compact(ones, twos, fours, interior, i) >> _FIELDS) & 0xF


def neighbor_codes(packed: PackedArrays) -> np.ndarray:
    """Per-spin 4-bit acceptance codes via the flips' own nibble path.

    Requires current halos.  Returns a flat array over linear spin indices
    holding ``8*own_bit + neighbor_up_count`` for every site, for auditing
    against a plain-lattice count.
    """
    out = np.empty((packed.dims.m, packed.dims.n), dtype=np.uint8)
    for quarter in FLIP_RED + FLIP_BLUE:
        lanes = array_view(out, quarter[0])
        for i, codes in _nibble_codes(packed.words[None], *quarter):
            lanes[..., i::4] = np.moveaxis(codes[:, 0], 0, -1)
    return out.reshape(-1)


class _HaloAudit:
    """Gather indices rebuilt from the canonical halo map, cached per dims."""

    def __init__(self, dims: LatticeDims):
        live_pos: list[tuple[int, int, int]] = []
        live_src: list[tuple[int, int, int]] = []
        dead_pos: list[tuple[int, int, int]] = []
        for code in ALL_CODES:
            for cell in range(dims.cols):
                for element in range(dims.vec_len):
                    interior = 1 <= cell <= dims.cells and 1 <= element <= dims.words
                    if interior:
                        continue
                    src = canonical_halo_source(code, cell, element, dims)
                    if src is None:
                        dead_pos.append((code.index, cell, element))
                    else:
                        live_pos.append((code.index, cell, element))
                        live_src.append((src.code.index, src.cell, src.word))
        self.live_pos = tuple(np.array(cols) for cols in zip(*live_pos))
        self.live_src = tuple(np.array(cols) for cols in zip(*live_src))
        self.dead_pos = tuple(np.array(cols) for cols in zip(*dead_pos))


_AUDITS: dict[LatticeDims, _HaloAudit] = {}


def _halo_audit(dims: LatticeDims) -> _HaloAudit:
    if dims not in _AUDITS:
        _AUDITS[dims] = _HaloAudit(dims)
    return _AUDITS[dims]


class Engine:
    """Packed checkerboard Monte Carlo over ``n_sim`` independent simulations.

    Parameters
    ----------
    dims : LatticeDims
        Lattice extents shared by every simulation.
    temperatures : sequence of float
        One temperature per simulation, in units of the coupling.
    seed : int
        Master seed; all stream states derive from it deterministically.
    init : "random" | "all-up"
        Initial spin configuration.  A random start takes the first two
        outputs of every flip stream, so flips draw from the third output
        on; an all-up start leaves the streams untouched.
    coupling : float
        Ferromagnetic coupling J.
    sim_offset : int
        Global index of this engine's first simulation.  Engines covering
        disjoint slices of the same run reproduce exactly the draws the
        full-width engine would have used.
    """

    def __init__(
        self,
        dims: LatticeDims,
        temperatures,
        seed: int,
        init: str = "random",
        coupling: float = 1.0,
        sim_offset: int = 0,
    ):
        self.dims = dims
        self.temperatures = tuple(float(t) for t in temperatures)
        if not self.temperatures:
            raise ValueError("need at least one simulation temperature")
        self.n_sim = len(self.temperatures)
        self.seed = int(seed)
        self.coupling = float(coupling)
        self.sim_offset = int(sim_offset)
        self.init = init

        self._limits = _draw_limits(
            np.stack([build_exp_table(t, coupling) for t in self.temperatures])).ravel()
        self._table_base = 16 * np.arange(self.n_sim)[:, None, None]  # row offsets in _limits
        self.streams = XoshiroStreams(self.seed, self.n_sim * dims.cells * dims.words,
                                      first_stream=self.sim_offset * dims.cells * dims.words)
        self.state = np.zeros((self.n_sim, len(ALL_CODES), dims.cols, dims.vec_len), np.uint16)
        interior = self.state[:, :, 1:-1, 1:-1]
        if init == "all-up":
            interior[...] = 0xFFFF
        elif init == "random":
            # Array ALL_CODES[a] takes 16-bit part a % 4 (low first) of output a // 4.
            parts = (self.streams.raw_block(2)[:, None] >> _PARTS).astype(np.uint16)
            interior[...] = np.moveaxis(
                parts.reshape(len(ALL_CODES), self.n_sim, dims.cells, dims.words), 0, 1)
        else:
            raise ValueError(f"unknown init mode {init!r} (expected 'random' or 'all-up')")

        self.sweeps_done = 0
        self.attempts = 0
        self.flips = 0
        self.recorder = None

        self.update_red_bc()
        self.update_blue_bc()

    @classmethod
    def from_lattices(cls, lattices, temperatures, seed: int, coupling: float = 1.0,
                      sim_offset: int = 0) -> "Engine":
        """Engine starting from explicit +/-1 lattices (one per simulation)."""
        lattices = [np.asarray(l) for l in lattices]
        dims = check_spins(lattices[0])
        eng = cls(dims, temperatures, seed, init="all-up", coupling=coupling,
                  sim_offset=sim_offset)
        if len(lattices) != eng.n_sim:
            raise ValueError("one lattice per temperature required")
        for s, spins in enumerate(lattices):
            if check_spins(spins) != dims:
                raise ValueError("all lattices must share the same dims")
            eng.state[s] = pack(spins).words
        eng.update_red_bc()
        eng.update_blue_bc()
        return eng

    # -- boundary updates ---------------------------------------------------

    def update_red_bc(self) -> None:
        """Refresh halos and moats of the four red arrays."""
        _apply_boundary_rules(self.state, _RED_BOUNDARY, self.dims.cells, self.dims.words)

    def update_blue_bc(self) -> None:
        """Refresh halos and moats of the four blue arrays."""
        _apply_boundary_rules(self.state, _BLUE_BOUNDARY, self.dims.cells, self.dims.words)

    # -- flips ----------------------------------------------------------------

    def _flip_quarter(self, target: ArrayCode, lateral: ArrayCode, vertical: ArrayCode,
                      up: bool, right: bool, draws: np.ndarray) -> None:
        interior = self.state[:, target.index, 1:-1, 1:-1]
        # Every lane reads only the opposite color and its own pre-quarter
        # bit, so the accepted flips of all 16 lanes apply at once.
        flipped = np.zeros_like(interior)
        for i, codes in _nibble_codes(self.state, target, lateral, vertical, up, right):
            k = draws[4 * i : 4 * i + 4]
            if self.recorder is not None:
                for ii, r in enumerate(k / _DRAW_SCALE):
                    self.recorder.record(self.sweeps_done, target, 4 * ii + i, r)
            accepted = (k < self._limits[codes + self._table_base]).astype(np.uint16)
            flipped |= np.bitwise_or.reduce(accepted << (_FIELDS + np.uint16(i)), axis=0)
        interior ^= flipped
        self.flips += int(np.bitwise_count(flipped).sum(dtype=np.int64))

    def _flip_phase(self, quarters) -> None:
        block = self.streams.unit_block(len(quarters) * 16)
        # Row 16*q + 4*i + ii of the block gates bit 4*ii + i of quarter q;
        # column (sim*cells + cell-1)*words + word-1 is that word's stream.
        draws = block.reshape(len(quarters), 16, self.n_sim, self.dims.cells, self.dims.words)
        for q, (target, lateral, vertical, up, right) in enumerate(quarters):
            self._flip_quarter(target, lateral, vertical, up, right, draws[q])

    def flip_red(self) -> None:
        """Attempt every red spin once (blue halos must be current)."""
        self._flip_phase(FLIP_RED)

    def flip_blue(self) -> None:
        """Attempt every blue spin once (red halos must be current)."""
        self._flip_phase(FLIP_BLUE)

    def sweep(self) -> None:
        """One full sweep: red flips, red copies, blue flips, blue copies."""
        self.flip_red()
        self.update_red_bc()
        self.flip_blue()
        self.update_blue_bc()
        self.sweeps_done += 1
        self.attempts += self.dims.sites * self.n_sim

    # -- observables ----------------------------------------------------------

    def packed(self, sim: int) -> PackedArrays:
        """View of one simulation's packed state."""
        return PackedArrays(self.dims, self.state[sim])

    def lattice(self, sim: int) -> np.ndarray:
        """Unpacked +/-1 lattice of one simulation."""
        return unpack(self.packed(sim))

    def abs_magnetization(self) -> np.ndarray:
        """Per-simulation |M| from interior popcounts (exact)."""
        ups = np.bitwise_count(self.state[:, :, 1:-1, 1:-1]).sum(axis=(1, 2, 3), dtype=np.int64)
        return np.abs(2.0 * ups / self.dims.sites - 1.0)

    def energy_per_spin(self) -> np.ndarray:
        """Per-simulation bond energy per spin, each bond counted once."""
        out = np.empty(self.n_sim)
        for s in range(self.n_sim):
            spins = self.lattice(s)
            bonds = (spins * np.roll(spins, -1, axis=0)).sum(dtype=np.int64) + (
                spins * np.roll(spins, -1, axis=1)
            ).sum(dtype=np.int64)
            out[s] = -self.coupling * bonds / self.dims.sites
        return out

    def halo_mismatches(self) -> int:
        """Halo/moat words differing from their canonical source (0 = clean)."""
        audit = _halo_audit(self.dims)
        st = self.state
        a, g, w = audit.live_pos
        sa, sg, sw = audit.live_src
        bad = int((st[:, a, g, w] != st[:, sa, sg, sw]).sum())
        da, dg, dw = audit.dead_pos
        bad += int((st[:, da, dg, dw] != 0).sum())
        return bad

    # -- driving ----------------------------------------------------------------

    def run(self, n_sweeps: int, measure_interval: int = 100) -> Trajectory:
        """Advance ``n_sweeps`` sweeps, measuring every ``measure_interval``.

        Records |M| and energy per spin for every simulation at each
        measurement, plus wall-clock totals for throughput reporting.
        """
        if n_sweeps < 0:
            raise ValueError("sweep count must be non-negative")
        if measure_interval < 1:
            raise ValueError("measurement interval must be positive")
        sweeps_at = []
        abs_m = []
        energy = []
        start_attempts = self.attempts
        t0 = time.perf_counter()
        for k in range(1, n_sweeps + 1):
            self.sweep()
            if k % measure_interval == 0 or k == n_sweeps:
                sweeps_at.append(self.sweeps_done)
                abs_m.append(self.abs_magnetization())
                energy.append(self.energy_per_spin())
        elapsed = time.perf_counter() - t0
        return Trajectory(
            sweeps=np.array(sweeps_at, dtype=np.int64),
            abs_m=np.array(abs_m, dtype=np.float64).reshape(len(sweeps_at), self.n_sim),
            energy=np.array(energy, dtype=np.float64).reshape(len(sweeps_at), self.n_sim),
            temperatures=self.temperatures,
            meta={
                "m": self.dims.m,
                "n": self.dims.n,
                "seed": self.seed,
                "coupling": self.coupling,
                "init": self.init,
                "sim_offset": self.sim_offset,
                "measure_interval": measure_interval,
                "sweeps_run": n_sweeps,
                "attempts": self.attempts - start_attempts,
                "elapsed_s": elapsed,
            },
        )


def run_simulations(
    dims: LatticeDims,
    temperatures,
    seed: int,
    n_sweeps: int,
    measure_interval: int = 100,
    init: str = "random",
    coupling: float = 1.0,
    threads: int = 1,
) -> Trajectory:
    """Run simulations in contiguous slices, one thread per slice.

    The ``threads`` slices (at most one per simulation) each get their own
    ``Engine`` with a matching ``sim_offset``; their trajectories are merged
    in simulation order.  Stream indices are global, so any thread count
    produces bit-identical trajectories.
    """
    temperatures = tuple(float(t) for t in temperatures)
    if not temperatures:
        raise ValueError("need at least one simulation temperature")
    if threads < 1:
        raise ValueError("thread count must be at least 1")
    t0 = time.perf_counter()
    threads = min(threads, len(temperatures))
    bounds = np.linspace(0, len(temperatures), threads + 1).astype(int)
    slices = [(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]

    def run_slice(lo: int, hi: int) -> Trajectory:
        eng = Engine(dims, temperatures[lo:hi], seed, init=init, coupling=coupling,
                     sim_offset=lo)
        return eng.run(n_sweeps, measure_interval)

    # The calling thread runs the first slice, so one slice starts no thread.
    with ThreadPoolExecutor(max_workers=max(1, len(slices) - 1)) as pool:
        rest = [pool.submit(run_slice, lo, hi) for lo, hi in slices[1:]]
        parts = [run_slice(*slices[0])] + [f.result() for f in rest]

    merged = Trajectory(
        sweeps=parts[0].sweeps,
        abs_m=np.concatenate([p.abs_m for p in parts], axis=1),
        energy=np.concatenate([p.energy for p in parts], axis=1),
        temperatures=temperatures,
        meta=dict(parts[0].meta),
    )
    merged.meta["sim_offset"] = 0
    merged.meta["attempts"] = sum(p.meta["attempts"] for p in parts)
    merged.meta["elapsed_s"] = time.perf_counter() - t0
    merged.meta["threads"] = len(slices)
    return merged
