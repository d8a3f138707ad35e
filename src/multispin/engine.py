"""The virtual cell fabric: packed-state sweeps over independent simulations.

State is a single uint16 array of shape (n_sim, 8, cells+2, words+2); each
simulation row behaves like a strip of worker cells flanked by two moats.
A sweep runs the four red quarter-flips, re-copies the red halos, then the
four blue quarter-flips and the blue copies.  Within a phase, cells only
read the opposite color, so everything updates in lockstep with no ordering
hazards; boundary copies move data between adjacent cell columns only.

A phase's flips run over tiles of consecutive simulations, each holding at
most ``_TILE_STREAMS`` streams unless one simulation alone has more.  A tile runs its
four quarters in turn, and each quarter steps only the tile's own streams
for one 16-row draw block, so the draw, step and flip scratch is sized for
one quarter of one tile whatever ``n_sim`` is.  Tiles touch disjoint
simulations and streams, and the halos are still copied once per phase, so
the tile size changes neither the draws each spin gets nor the states.

All randomness comes from one xoshiro stream per (simulation, cell, word).
A random start takes the first two outputs of each stream as the initial
bits of that (cell, word) in all eight arrays; after that each output gives
two draws, bits 32-54 then bits 0-22, and the stream's draws gate the spins
of its word in a fixed order -- quarter, bit offset i, field ii -- so runs
are bit-identical no matter how simulations are partitioned across threads,
and an oracle holding a copy of the streams can key every draw to the one
spin it gates without watching the flips.

A spin of code c (``8*own_bit + neighbor_up_count``) flips when its draw k
is below ``limit[sim, c]``.  The flips restate that comparison per draw:
each draw becomes a 16-bit mask whose bit c is ``k < limit[sim, c]``, built
from two compares because a Metropolis table has at most two limits other
than 0 and 2**23, and each spin reads bit c of its own draw's mask.  A
quarter makes one shift, one adder and four nibble compacts through this
module's names, then one ``_accept`` call -- the masks, the select, the XOR
into the target and the flip count.  Where ``rng`` builds its kernel module
(``rng.draw_path()``), all of them run its compiled entry points, and the
compiled acceptance compares each draw with its code's limit directly, from
a 16-entry table it builds from the same levels and masks; where it cannot,
they run the numpy ``bitkernels`` functions and the mask select in numpy.  Before first use, ``_compiled_matches`` runs every quarter of a
small random state on both paths and requires the same words, states and
flip counts, so both give the same states.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import bitkernels
from .lattice import (
    ALL_CODES,
    BOUNDARY_RULES,
    ArrayCode,
    LatticeDims,
    PackedArrays,
    array_view,
    canonical_halo_source,
    check_spins,
    check_temperature,
    pack,
    unpack,
)
from .observables import Trajectory
from .rng import _ROW_PAD, XoshiroStreams, _kernel, stream_states

__all__ = [
    "INIT_MODES",
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

INIT_MODES = ("random", "all-up")  # the initial spin states an Engine accepts

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
# Row 4*i + ii of a quarter's draws and codes is field ii of compact i: bit 4*ii + i.
_ROW_BITS = tuple(4 * (r % 4) + r // 4 for r in range(16))
_ROW_WEIGHTS = np.array([1 << b for b in _ROW_BITS], dtype=np.uint16).reshape(16, 1, 1, 1)
_CODE_WEIGHTS = 1 << np.arange(16)  # bit c of a code mask stands for code c
_MEASURE_SPINS = 1 << 20  # spins unpacked at once by energy_per_spin
# Streams per flip tile.  On a 2-vCPU Xeon (numpy 2.4.6), 16384 against 8192
# swept 754 simulations of 512x512 in 1.39-1.51 s against 1.55-1.92 s, and 8
# of 1024x1024 in 64 ms against 73 ms (median of three runs of 15 sweeps).
_TILE_STREAMS = 1 << 14


def _sim_ranges(n_sim: int, size: int, budget: int):
    """Consecutive ``(a, b)`` simulation ranges covering ``range(n_sim)``.

    Each range holds ``max(1, budget // size)`` simulations of ``size``
    units each (the last may hold fewer), so a range stays within the
    budget unless one simulation alone exceeds it.
    """
    step = max(1, budget // size)
    return [(a, min(a + step, n_sim)) for a in range(0, n_sim, step)]


def build_exp_table(T: float, J: float = 1.0) -> np.ndarray:
    """Metropolis acceptance table indexed by ``8*own_bit + neighbor_up_count``.

    Flipping a spin of sign s with u of 4 neighbors up costs
    ``2*J*s*(2u - 4)``; the entry is ``min(1, exp(-cost/T))``.  Codes with
    an impossible up-count (5, 6, 7) are never read and stay 0.  T must be
    finite and positive and J finite, else ValueError: a NaN entry (from a
    NaN input, or an infinite J times a zero up-count term) would cast to a
    meaningless draw limit and the engine would run on.
    """
    check_temperature(T, J)
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


def _acceptance_masks(limits) -> tuple[np.ndarray, np.ndarray]:
    """Compare levels and code masks that restate (n_sim, 16) draw limits.

    Returns ``levels`` (2, n_sim, 1, 1) uint32 and ``masks`` (3, n_sim, 1, 1)
    uint16 such that for every draw k in [0, 2**23) bit c of
    ``(k < levels[0]) * masks[0] | (k < levels[1]) * masks[1] | masks[2]``
    is ``k < limits[sim, c]``.  ``masks[2]`` holds the codes that always
    flip; a Metropolis table has at most two other non-zero limits, those of
    the 4|J| and 8|J| costs, and more than two raise ValueError.
    """
    limits = np.asarray(limits, dtype=np.int64)
    partial = np.where(limits < _DRAW_SCALE, limits, 0)
    graded = partial > 0
    levels = np.stack([np.where(graded, partial, _DRAW_SCALE).min(axis=1), partial.max(axis=1)])
    at_level = (partial == levels[:, :, None]) & graded
    if (graded & ~(at_level[0] | at_level[1])).any():
        raise ValueError("a simulation has more than two partial acceptance limits")
    masks = np.concatenate([at_level, (limits >= _DRAW_SCALE)[None]]) @ _CODE_WEIGHTS
    return (levels.astype(np.uint32).reshape(2, -1, 1, 1),
            masks.astype(np.uint16).reshape(3, -1, 1, 1))


def _shift(kernel, v: np.ndarray, up: bool) -> np.ndarray:
    """The upward or downward shift of ``v`` on ``kernel``; numpy when it is None."""
    if kernel is None:
        return (bitkernels.get_bit_above if up else bitkernels.get_bit_below)(v)
    out = np.empty((*v.shape[:-1], v.shape[-1] - 2), np.uint16)
    kernel.shift(v, out, up)
    return out


def _add4(kernel, a, b, c, d) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The adder on ``kernel``; numpy when it is None."""
    if kernel is None:
        return bitkernels.bitwise_add4(a, b, c, d)
    out = np.empty((3, *a.shape), np.uint16)
    kernel.bitwise_add4(a, b, c, d, out)
    return out[0], out[1], out[2]


def _compact(kernel, ones, twos, fours, spins, i: int) -> np.ndarray:
    """The compact of offset i on ``kernel``; numpy when it is None."""
    if kernel is None:
        return bitkernels.nibble_compact(ones, twos, fours, spins, i)
    out = np.empty(ones.shape, np.uint16)
    kernel.nibble_compact(ones, twos, fours, spins, i, out)
    return out


def get_bit_above(v: np.ndarray) -> np.ndarray:
    """``bitkernels.get_bit_above`` on the compiled kernels where they are built."""
    return _shift(_kernel(), v, True)


def get_bit_below(v: np.ndarray) -> np.ndarray:
    """``bitkernels.get_bit_below`` on the compiled kernels where they are built."""
    return _shift(_kernel(), v, False)


def bitwise_add4(a, b, c, d) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``bitkernels.bitwise_add4`` on the compiled kernels where they are built."""
    return _add4(_kernel(), a, b, c, d)


def nibble_compact(ones, twos, fours, spins, i: int) -> np.ndarray:
    """``bitkernels.nibble_compact`` on the compiled kernels where they are built."""
    return _compact(_kernel(), ones, twos, fours, spins, i)


def _accept(kernel, draws, compacts, levels, masks, first: int, target, scratch) -> int:
    """One quarter's acceptance on ``kernel``; numpy when it is None.

    XORs the flips that the (16, sims, cells, words) ``draws`` accept for the
    codes in ``compacts`` into ``target``, under the levels and masks of
    simulations [first, first + sims), and returns their count.  Each of the
    16 draw rows is C-contiguous, and rows may lie further apart than a row
    (``unit_block``'s padded rows).  ``scratch`` is three C-contiguous
    buffers shaped like the draws: uint16, uint16, bool.
    """
    if kernel is not None:
        return kernel.accept(draws, *compacts, levels, masks, first, target, scratch[0])
    selected, codes, below = scratch
    sims = slice(first, first + draws.shape[1])
    (low, high), (at_low, at_high, certain) = levels[:, sims], masks[:, sims]
    # Bit c of selected[r] is whether draw r accepts code c; codes is scratch here.
    np.less(draws, low, out=below)
    np.multiply(below, at_low, out=selected)
    np.less(draws, high, out=below)
    np.multiply(below, at_high, out=codes)
    selected |= codes
    selected |= certain
    # Every lane reads only the opposite color and its own pre-quarter
    # bit, so the accepted flips of all 16 lanes apply at once.
    selected >>= _codes(compacts, codes)
    selected &= 1
    selected *= _ROW_WEIGHTS
    flipped = np.bitwise_or.reduce(selected, axis=0)
    target ^= flipped
    return int(np.bitwise_count(flipped).sum(dtype=np.int64))


def _compiled_matches(kernel) -> bool:
    """Whether every quarter on ``kernel`` gives the numpy path's words and flips.

    Simulations [1, 4) of a random (4, 8, 5, 59) state with halos run all
    eight quarters in turn on both paths.  Rows of 57 words reach both
    passes of the compiled shift, adder and compacts, seven of 8 lanes and a
    tail of one word, and each view's runs of 3 rows, one per cell, carry
    into the next simulation as the compiled loops step through them.  The
    171 words of a simulation reach the acceptance's 16-word passes and an
    11-word tail.  The quarters run at
    levels of 0 and 2**23 among others, random code masks, draws at each
    level and one either side, and all 16 codes in every compact, with draw
    rows ``_ROW_PAD`` words further apart than a row.  The
    shift, sums, compacts, whole state after each acceptance and flip count
    must match.
    """
    # random words from splitmix64 outputs: numpy.random would cost ~5 MB of RSS
    pool = stream_states(18, 0, 1200).view(np.uint16).ravel()

    def take(*shape):
        nonlocal pool
        out, pool = pool[: math.prod(shape)].reshape(shape), pool[math.prod(shape):]
        return out

    sims, cells, words = 3, 3, 57
    levels = np.array([[0, 1 << 22, 5, 1 << 23], [1 << 23, 1 << 22, 1 << 21, 0]], np.uint32)
    masks = take(3, sims + 1, 1, 1)
    # per simulation, each of its two levels and one either side of it
    choices = np.clip(levels[:, 1:].T[:, :, None].astype(np.int64) + np.arange(-1, 2),
                      0, _DRAW_SCALE - 1).reshape(sims, 6)
    # one draw block serves all eight quarters, which keeps this check small:
    # every process that builds the kernels runs it.  Its rows lie apart as
    # unit_block's padded rows do, so the row stride is checked too.
    picks = take(16, sims, cells, words) % 6
    draws = np.empty((16, sims * cells * words + _ROW_PAD), np.uint32)[:, :-_ROW_PAD]
    draws = draws.reshape(16, sims, cells, words)
    draws[...] = choices[np.arange(sims)[:, None, None], picks]
    start = take(sims + 1, 8, cells + 2, words + 2)
    runs = []
    for k in (kernel, None):
        state, run = start.copy(), []
        scratch = tuple(np.empty(draws.shape, t) for t in (np.uint16, np.uint16, bool))
        for target, lateral, vertical, up, right in FLIP_RED + FLIP_BLUE:
            lat, cols = state[1:, lateral.index, :, 1:-1], state[1:, vertical.index, 1:-1]
            sides = (lat[:, 2:] if right else lat[:, :-2], lat[:, 1:-1])
            spins = state[1:, target.index, 1:-1, 1:-1]
            shifted = _shift(k, cols, up)
            sums = _add4(k, *sides, shifted, cols[..., 1:-1])
            compacts = [_compact(k, *sums, spins, i) for i in range(4)]
            run += [shifted, *sums, *(compact.copy() for compact in compacts)]
            for compact in compacts:  # every code in every field of every simulation
                compact[:, 0, :16] = np.arange(16) * 0x1111
            flips = _accept(k, draws, compacts, levels.reshape(2, -1, 1, 1), masks, 1, spins,
                            scratch)
            run += [state.copy(), flips]
        runs.append(run)
    return all(map(np.array_equal, *runs))


def get_neighbors(lateral: np.ndarray, vertical: np.ndarray, up: bool, right: bool):
    """Neighbor words for every interior (cell, word) of one target array.

    ``lateral`` and ``vertical`` are the full (..., cells+2, words+2)
    matrices of the two partner arrays with current halos, in the packed
    layout of ``pack`` and ``Engine.state``: uint16 words, each row (the
    last axis) contiguous; the compiled shift reads no other.  Returns
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


def _quarter_compacts(state: np.ndarray, target: ArrayCode, lateral: ArrayCode,
                      vertical: ArrayCode, up: bool, right: bool) -> list[np.ndarray]:
    """The four nibble compacts of one quarter-flip's target spins.

    ``state`` is a (n_sim, 8, cells+2, words+2) array with current halos;
    field ii of compact i holds ``8*own_bit + neighbor_up_count`` of bit
    ``4*ii + i`` of the target word.  One shift, one add4 and four compacts
    per quarter, all called through this module's names.
    """
    neighbors = get_neighbors(state[:, lateral.index], state[:, vertical.index], up, right)
    ones, twos, fours = bitwise_add4(*neighbors)
    interior = state[:, target.index, 1:-1, 1:-1]
    return [nibble_compact(ones, twos, fours, interior, i) for i in range(4)]


def _codes(compacts, out: np.ndarray) -> np.ndarray:
    """Spread four compacts into ``out``: row ``r`` holds the codes of bit ``_ROW_BITS[r]``."""
    for i, compact in enumerate(compacts):
        np.right_shift(compact, _FIELDS, out=out[4 * i : 4 * i + 4])
    out &= 0xF
    return out


def _quarter_codes(state: np.ndarray, target: ArrayCode, lateral: ArrayCode,
                   vertical: ArrayCode, up: bool, right: bool, out: np.ndarray) -> np.ndarray:
    """Write the 4-bit codes of one quarter-flip's target spins into ``out``.

    ``out[r, sim, cell-1, word-1]`` becomes ``8*own_bit +
    neighbor_up_count`` of bit ``_ROW_BITS[r]`` of the target word.
    """
    return _codes(_quarter_compacts(state, target, lateral, vertical, up, right), out)


def neighbor_codes(packed: PackedArrays) -> np.ndarray:
    """Per-spin 4-bit acceptance codes via the flips' own code path.

    Requires current halos, and ``packed.words`` in the layout that ``pack``
    and ``Engine.packed`` produce (uint16 words, each row contiguous), which
    the compiled kernels read in place.  Returns a flat array over linear
    spin indices holding ``8*own_bit + neighbor_up_count`` for every site,
    for auditing against a plain-lattice count.
    """
    dims = packed.dims
    out = np.empty((dims.m, dims.n), dtype=np.uint8)
    codes = np.empty((16, 1, dims.cells, dims.words), dtype=np.uint16)
    for quarter in FLIP_RED + FLIP_BLUE:
        _quarter_codes(packed.words[None], *quarter, out=codes)
        array_view(out, quarter[0])[..., _ROW_BITS] = np.moveaxis(codes[:, 0], 0, -1)
    return out.reshape(-1)


@functools.cache
def _halo_audit(dims: LatticeDims) -> tuple:
    """(live, source, dead) gather indices from the canonical halo map.

    Each is a tuple of (array, cell, element) index arrays: live halo and
    moat words, their canonical sources, and the words that must stay 0.
    """
    live: list[tuple[int, int, int]] = []
    source: list[tuple[int, int, int]] = []
    dead: list[tuple[int, int, int]] = []
    for code in ALL_CODES:
        for cell in range(dims.cols):
            for element in range(dims.vec_len):
                if 1 <= cell <= dims.cells and 1 <= element <= dims.words:
                    continue
                src = canonical_halo_source(code, cell, element, dims)
                if src is None:
                    dead.append((code.index, cell, element))
                else:
                    live.append((code.index, cell, element))
                    source.append((src.code.index, src.cell, src.word))
    return tuple(tuple(np.array(cols) for cols in zip(*pos)) for pos in (live, source, dead))


class Engine:
    """Packed checkerboard Monte Carlo over ``n_sim`` independent simulations.

    Parameters
    ----------
    dims : LatticeDims
        Lattice extents shared by every simulation.
    temperatures : sequence of float
        One temperature per simulation, in units of the coupling.
    seed : int
        Master seed in [0, 2**64); all stream states derive from it
        deterministically.
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
        if init not in INIT_MODES:
            raise ValueError(f"unknown init mode {init!r} (expected one of {INIT_MODES})")

        self._levels, self._code_masks = _acceptance_masks(_draw_limits(
            np.stack([build_exp_table(t, coupling) for t in self.temperatures])))
        # Flips run tile by tile; scratch sized for the widest tile is reused
        # by every quarter of every tile: per-draw masks, codes, one compare.
        # The compiled acceptance uses one row of the masks as its scratch.
        cells, words = dims.cells, dims.words
        self._tiles = _sim_ranges(self.n_sim, cells * words, _TILE_STREAMS)
        lanes = 16 * (self._tiles[0][1] - self._tiles[0][0]) * cells * words
        buffers = (np.empty(lanes, np.uint16), np.empty(lanes, np.uint16), np.empty(lanes, bool))
        self._scratch = {  # tile size k -> (masks, codes, below) views of the buffers
            k: tuple(buf[: 16 * k * cells * words].reshape(16, k, cells, words) for buf in buffers)
            for k in {b - a for a, b in self._tiles}}
        self.streams = XoshiroStreams(self.seed, self.n_sim * cells * words,
                                      first_stream=int(sim_offset) * cells * words)
        self.state = np.zeros((self.n_sim, len(ALL_CODES), dims.cols, dims.vec_len), np.uint16)
        interior = self.state[:, :, 1:-1, 1:-1]
        if init == "all-up":
            interior[...] = 0xFFFF
        else:
            # Array ALL_CODES[4o + p] takes 16-bit part p (low first) of output o,
            # read from a little-endian view of the outputs.
            parts = self.streams.raw_block(2).astype("<u8", copy=False).view("<u2")
            interior.reshape(self.n_sim, 2, 4, cells, words)[...] = np.moveaxis(
                parts.reshape(2, self.n_sim, cells, words, 4), (0, 4), (1, 2))

        self.sweeps_done = 0
        self.attempts = 0
        self.flips = 0

        self.update_red_bc()
        self.update_blue_bc()

    @classmethod
    def from_lattices(cls, lattices, temperatures, seed: int, coupling: float = 1.0,
                      sim_offset: int = 0) -> "Engine":
        """Engine starting from explicit +/-1 lattices (one per simulation)."""
        lattices = [np.asarray(l) for l in lattices]
        if not lattices:
            raise ValueError("need at least one lattice")
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

    def _flip_quarter(self, a: int, b: int, target: ArrayCode, lateral: ArrayCode,
                      vertical: ArrayCode, up: bool, right: bool, draws: np.ndarray) -> None:
        """One quarter-flip of simulations [a, b) on (16, b - a, cells, words) draws."""
        state = self.state[a:b]
        compacts = _quarter_compacts(state, target, lateral, vertical, up, right)
        self.flips += _accept(_kernel(), draws, compacts, self._levels, self._code_masks, a,
                              state[:, target.index, 1:-1, 1:-1], self._scratch[b - a])

    def _flip_phase(self, quarters) -> None:
        cells, words = self.dims.cells, self.dims.words
        for a, b in self._tiles:
            for quarter in quarters:
                # Row 4*i + ii gates bit 4*ii + i of the quarter's target: the
                # high half of the quarter's output 2*i + ii//2 for even ii, the
                # low half for odd ii.  Column ((sim-a)*cells + cell-1)*words +
                # word-1 is that word's stream.
                block = self.streams.unit_block(16, a * cells * words, b * cells * words)
                self._flip_quarter(a, b, *quarter, block.reshape(16, b - a, cells, words))

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
        """Per-simulation bond energy per spin, each bond counted once.

        Simulations unpack in chunks of at most ``_MEASURE_SPINS`` spins (at
        least one simulation each), so the ±1 scratch is bounded by the chunk,
        not by ``n_sim``.  Each lattice's unaligned bonds U are counted by
        comparing it with itself shifted along both axes, plus the two wrap
        rows; of its 2·sites bonds, the sum of s_i·s_j is 2·sites − 2U.
        """
        sites = self.dims.sites
        unaligned = np.empty(self.n_sim, np.int64)
        for a, b in _sim_ranges(self.n_sim, sites, _MEASURE_SPINS):
            lattices = unpack(PackedArrays(self.dims, self.state[a:b]))
            for s, spins in enumerate(lattices, start=a):
                unaligned[s] = (np.count_nonzero(spins[1:] != spins[:-1])
                                + np.count_nonzero(spins[0] != spins[-1])
                                + np.count_nonzero(spins[:, 1:] != spins[:, :-1])
                                + np.count_nonzero(spins[:, 0] != spins[:, -1]))
        return -self.coupling * (2 * sites - 2 * unaligned) / sites

    def halo_mismatches(self) -> int:
        """Halo/moat words differing from their canonical source (0 = clean)."""
        (a, g, w), (sa, sg, sw), (da, dg, dw) = _halo_audit(self.dims)
        st = self.state
        bad = int((st[:, a, g, w] != st[:, sa, sg, sw]).sum())
        return bad + int((st[:, da, dg, dw] != 0).sum())

    # -- driving ----------------------------------------------------------------

    def run(self, n_sweeps: int, measure_interval: int = 100) -> Trajectory:
        """Advance ``n_sweeps`` sweeps, measuring every ``measure_interval``.

        Records |M| and energy per spin for every simulation at each
        measurement and after the last sweep; ``meta["attempts"]`` counts
        the spin-flip attempts of this call.
        """
        if n_sweeps < 0:
            raise ValueError("sweep count must be non-negative")
        if measure_interval < 1:
            raise ValueError("measurement interval must be positive")
        sweeps_at = []
        abs_m = []
        energy = []
        start_attempts = self.attempts
        for k in range(1, n_sweeps + 1):
            self.sweep()
            if k % measure_interval == 0 or k == n_sweeps:
                sweeps_at.append(self.sweeps_done)
                abs_m.append(self.abs_magnetization())
                energy.append(self.energy_per_spin())
        return Trajectory(
            sweeps=np.array(sweeps_at, dtype=np.int64),
            abs_m=np.array(abs_m, dtype=np.float64).reshape(len(sweeps_at), self.n_sim),
            energy=np.array(energy, dtype=np.float64).reshape(len(sweeps_at), self.n_sim),
            temperatures=self.temperatures,
            meta={"attempts": self.attempts - start_attempts},
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
    ``Engine`` with a matching ``sim_offset``, all built in the calling
    thread before any slice sweeps, so an invalid input in any slice raises
    before the first sweep.  The trajectories are merged in simulation
    order, and ``meta`` holds the summed ``attempts`` and the ``threads``
    used.  Stream indices are global, so any thread count produces
    bit-identical trajectories.
    """
    temperatures = tuple(float(t) for t in temperatures)
    if not temperatures:
        raise ValueError("need at least one simulation temperature")
    if threads < 1:
        raise ValueError("thread count must be at least 1")
    bounds = np.linspace(0, len(temperatures), min(threads, len(temperatures)) + 1).astype(int)
    engines = [Engine(dims, temperatures[a:b], seed, init=init, coupling=coupling, sim_offset=a)
               for a, b in zip(bounds[:-1], bounds[1:])]

    # The calling thread runs the first slice, so one slice starts no thread.
    with ThreadPoolExecutor(max_workers=max(1, len(engines) - 1)) as pool:
        rest = [pool.submit(eng.run, n_sweeps, measure_interval) for eng in engines[1:]]
        parts = [engines[0].run(n_sweeps, measure_interval)] + [f.result() for f in rest]

    return Trajectory(
        sweeps=parts[0].sweeps,
        abs_m=np.concatenate([p.abs_m for p in parts], axis=1),
        energy=np.concatenate([p.energy for p in parts], axis=1),
        temperatures=temperatures,
        meta={"attempts": sum(p.meta["attempts"] for p in parts), "threads": len(parts)},
    )
