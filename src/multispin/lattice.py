"""Lattice geometry and the eight-array bit-packed representation.

A 2D Ising lattice of shape (m, n) -- m columns along the cell axis, n rows
along the memory axis -- is split into eight matrices of 16-bit words.  The
split is by checkerboard color (Red/Blue), row parity (Even/Odd), and fold
direction: columns c < m/2 keep their order (Forward) while the right half
is reversed (Backward) so that both periodic edges end up on adjacent cell
columns.  Same-parity rows of one lattice column pack 16 to a word, least
significant bit lowest; bit 1 encodes spin +1.  Each array's sites are
therefore a fixed stride pattern of the lattice, and ``array_view`` states
it once as a strided (cells, words, 16) view that packing, unpacking, the
neighbor audit and the draw recorder all read the layout from.

Every matrix is expanded by one cell column on each side (the moats) and one
word at each end of every column (the halo words), so stencil reads never
branch on the boundary.  ``canonical_halo_source`` is the ground-truth map of
what each halo/moat word must contain after a boundary update.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional

import numpy as np

__all__ = [
    "TC_OVER_J",
    "WORD_BITS",
    "ArrayCode",
    "ALL_CODES",
    "LatticeDims",
    "SpinCoord",
    "WordCoord",
    "PackedArrays",
    "BOUNDARY_RULES",
    "classify",
    "unclassify",
    "array_view",
    "pack",
    "unpack",
    "check_spins",
    "canonical_halo_source",
    "onsager_magnetization",
    "neighbor_indices",
]

# Exact critical temperature of the square-lattice Ising model, 2/asinh(1).
TC_OVER_J = 2.0 / math.log(1.0 + math.sqrt(2.0))

WORD_BITS = 16
SPIN_STRIDE = 2                       # packed rows are every other lattice row
ROWS_PER_WORD = WORD_BITS * SPIN_STRIDE


class ArrayCode(Enum):
    """Three-letter array tag: color (R/B), direction (F/B), row parity (E/O).

    Members are declared in the order the red and blue flip phases visit
    them, so ``code.index`` doubles as the array axis inside packed state.
    """

    RFE = "RFE"
    RBO = "RBO"
    RBE = "RBE"
    RFO = "RFO"
    BFE = "BFE"
    BBO = "BBO"
    BBE = "BBE"
    BFO = "BFO"

    @property
    def red(self) -> bool:
        return self.value[0] == "R"

    @property
    def forward(self) -> bool:
        return self.value[1] == "F"

    @property
    def even(self) -> bool:
        return self.value[2] == "E"

    @property
    def index(self) -> int:
        return _CODE_INDEX[self]

    def __str__(self) -> str:
        return self.value


ALL_CODES = tuple(ArrayCode)
_CODE_INDEX = {code: k for k, code in enumerate(ALL_CODES)}


@dataclass(frozen=True)
class LatticeDims:
    """Lattice extents: m columns on the cell axis, n rows on the memory axis."""

    m: int
    n: int

    def __post_init__(self) -> None:
        if self.m < 4 or self.m % 4:
            raise ValueError(
                f"m={self.m}: the cell-axis extent must be a multiple of 4 (and >= 4)"
            )
        if self.n < 32 or self.n % 32:
            raise ValueError(
                f"n={self.n}: the memory-axis extent must be a multiple of 32 (and >= 32)"
            )

    @property
    def cells(self) -> int:
        """Worker cells per array (m/4)."""
        return self.m // 4

    @property
    def words(self) -> int:
        """Interior words per cell column (n/32)."""
        return self.n // 32

    @property
    def sites(self) -> int:
        return self.m * self.n

    @property
    def cols(self) -> int:
        """Cell columns including the two moats."""
        return self.cells + 2

    @property
    def vec_len(self) -> int:
        """Words per column vector including the two halo words."""
        return self.words + 2


class SpinCoord(NamedTuple):
    """Position of one spin: array tag, 1-based cell and word, bit 0..15."""

    code: ArrayCode
    cell: int
    word: int
    bit: int


class WordCoord(NamedTuple):
    """Position of one interior word (used for whole-word halo copies)."""

    code: ArrayCode
    cell: int
    word: int


def classify(idx: int, dims: LatticeDims) -> SpinCoord:
    """Locate the spin with linear index ``idx = c*n + r`` in the eight arrays.

    Red means (c + r) even; parity is the row parity; Forward means c < m/2.
    Forward cells count up from column 0, backward cells count up from
    column m-1, so fold partners sit at equal cell indices.
    """
    if not 0 <= idx < dims.sites:
        raise IndexError(f"spin index {idx} outside [0, {dims.sites})")
    c, r = divmod(int(idx), dims.n)
    forward = c < dims.m // 2
    tag = (
        ("R" if (c + r) % 2 == 0 else "B")
        + ("F" if forward else "B")
        + ("E" if r % 2 == 0 else "O")
    )
    cell = (c // 2 if forward else (dims.m - 1 - c) // 2) + 1
    word = r // ROWS_PER_WORD + 1
    bit = r % ROWS_PER_WORD // SPIN_STRIDE
    return SpinCoord(ArrayCode(tag), cell, word, bit)


def unclassify(coord: SpinCoord, dims: LatticeDims) -> int:
    """Inverse of :func:`classify`."""
    code, cell, word, bit = coord
    if not (1 <= cell <= dims.cells and 1 <= word <= dims.words and 0 <= bit < WORD_BITS):
        raise IndexError(f"{coord} is not an interior coordinate of a {dims.m}x{dims.n} lattice")
    sites = np.arange(dims.sites).reshape(dims.m, dims.n)
    return int(array_view(sites, code)[cell - 1, word - 1, bit])


def array_view(grid: np.ndarray, code: ArrayCode) -> np.ndarray:
    """The sites of one array in a (..., m, n) grid, in packed order.

    Returns the (..., cells, words, 16) view whose entry ``[g-1, w-1, t]``
    is the site of bit t of word w in cell g.  Cell g holds lattice column
    pair g-1 (Forward) or m/2-g (Backward) and takes the column of its
    color's parity; word w holds the 16 rows of the array's parity from
    row 32*(w-1) up.  The grid is read as ``[c//2, c%2, r//2, r%2]``, so
    the result is a strided view of a contiguous grid (writes land in it)
    and a copy of any other.
    """
    *lead, m, n = grid.shape
    dims = LatticeDims(m, n)
    pairs = grid.reshape(*lead, m // 2, 2, n // 2, 2)
    cells = slice(dims.cells) if code.forward else slice(None, dims.cells - 1, -1)
    row_parity = 0 if code.even else 1
    col_parity = row_parity if code.red else 1 - row_parity
    sub = pairs[..., cells, col_parity, :, row_parity]
    return sub.reshape(*lead, dims.cells, dims.words, WORD_BITS)


class PackedArrays:
    """The eight halo-expanded word matrices of one lattice.

    ``words[a, g, w]`` is the 16-bit word of array ``ALL_CODES[a]`` at cell
    column g (0 and cells+1 are moats) and vector element w (0 and words+1
    are halo words).  Bit t of an interior word is 1 exactly when the spin at
    ``unclassify((code, g, w, t))`` is +1.
    """

    def __init__(self, dims: LatticeDims, words: Optional[np.ndarray] = None):
        shape = (len(ALL_CODES), dims.cols, dims.vec_len)
        if words is None:
            words = np.zeros(shape, dtype=np.uint16)
        words = np.asarray(words)
        if words.shape != shape or words.dtype != np.uint16:
            raise ValueError(f"expected uint16 words of shape {shape}, got {words.dtype} {words.shape}")
        self.dims = dims
        self.words = words

    def matrix(self, code: ArrayCode) -> np.ndarray:
        return self.words[code.index]

    def interior(self, code: ArrayCode) -> np.ndarray:
        return self.words[code.index, 1:-1, 1:-1]

    def copy(self) -> "PackedArrays":
        return PackedArrays(self.dims, self.words.copy())


def check_spins(spins: np.ndarray) -> LatticeDims:
    """Validate a plain +/-1 lattice and return its dimensions."""
    spins = np.asarray(spins)
    if spins.ndim != 2:
        raise ValueError("spin lattice must be 2-D (columns x rows)")
    dims = LatticeDims(*spins.shape)
    if not np.isin(spins, (-1, 1)).all():
        raise ValueError("spin values must be exactly -1 or +1")
    return dims


def pack(spins: np.ndarray) -> PackedArrays:
    """Pack a +/-1 lattice into the eight word matrices; halos start zeroed."""
    spins = np.asarray(spins)
    dims = check_spins(spins)
    packed = PackedArrays(dims)
    for code in ALL_CODES:
        bits = np.packbits(array_view(spins, code) > 0, axis=-1, bitorder="little")
        packed.interior(code)[...] = bits.view("<u2")[..., 0]
    return packed


def unpack(packed: PackedArrays) -> np.ndarray:
    """Exact inverse of :func:`pack` on the interior words; halos are ignored."""
    dims = packed.dims
    spins = np.empty((dims.m, dims.n), dtype=np.int8)
    for code in ALL_CODES:
        octets = packed.interior(code).astype("<u2", copy=False).view(np.uint8)
        bits = np.unpackbits(octets, axis=-1, bitorder="little")
        array_view(spins, code)[...] = bits.reshape(dims.cells, dims.words, WORD_BITS)
    spins *= 2
    spins -= 1
    return spins


# Boundary-update rules per array: (lateral partner, copy_top, fill_right).
# The lateral partner differs only in fold direction.  copy_top=True means
# the top halo word mirrors the first interior word (the bottom halo then
# stays zero and is never read); fill_right=True means the right moat mirrors
# the partner's last worker column (the left moat stays zero).  Even arrays
# copy the top halo, odd arrays the bottom one; which moat is live follows
# from which side the opposite color's stencils read.
BOUNDARY_RULES: dict[ArrayCode, tuple[ArrayCode, bool, bool]] = {
    ArrayCode.RFE: (ArrayCode.RBE, True, True),
    ArrayCode.RBO: (ArrayCode.RFO, False, True),
    ArrayCode.RBE: (ArrayCode.RFE, True, False),
    ArrayCode.RFO: (ArrayCode.RBO, False, False),
    ArrayCode.BFE: (ArrayCode.BBE, True, False),
    ArrayCode.BBO: (ArrayCode.BFO, False, False),
    ArrayCode.BBE: (ArrayCode.BFE, True, True),
    ArrayCode.BFO: (ArrayCode.BBO, False, True),
}


def canonical_halo_source(
    code: ArrayCode, cell: int, element: int, dims: LatticeDims
) -> Optional[WordCoord]:
    """Ground-truth source of one halo/moat word, or None for never-read zeros.

    Vertical halo words wrap periodically within their own cell column (top
    halo <- first interior word, or bottom halo <- last interior word,
    whichever side this array's readers actually touch).  Live moat columns
    mirror the fold partner's edge worker column word for word.  Every other
    boundary position is dead: it stays 0x0000 and no stencil consumes it.

    Raises ValueError when (cell, element) addresses an interior word.
    """
    top = dims.vec_len - 1
    right_moat = dims.cols - 1
    if not (0 <= cell <= right_moat and 0 <= element <= top):
        raise IndexError(f"cell {cell}, element {element} outside a {dims.m}x{dims.n} matrix")
    in_moat = cell in (0, right_moat)
    in_halo = element in (0, top)
    if not in_moat and not in_halo:
        raise ValueError(f"cell {cell}, element {element} is an interior word, not a halo position")
    if in_moat and in_halo:
        return None
    partner, copy_top, fill_right = BOUNDARY_RULES[code]
    if in_moat:
        if fill_right and cell == right_moat:
            return WordCoord(partner, dims.cells, element)
        if not fill_right and cell == 0:
            return WordCoord(partner, 1, element)
        return None
    if copy_top and element == top:
        return WordCoord(code, cell, 1)
    if not copy_top and element == 0:
        return WordCoord(code, cell, dims.words)
    return None


def onsager_magnetization(T: float, J: float = 1.0) -> float:
    """Closed-form spontaneous |M| of the infinite square lattice.

    ``[1 - sinh(2J/T)**-4] ** (1/8)`` below the critical temperature
    ``TC_OVER_J * J`` (about 2.269185 J), and exactly 0 at or above it.
    """
    if T <= 0:
        raise ValueError("temperature must be positive")
    bracket = 1.0 - math.sinh(2.0 * J / T) ** -4
    return bracket ** 0.125 if bracket > 0.0 else 0.0


def neighbor_indices(idx: int, dims: LatticeDims) -> tuple[int, int, int, int]:
    """Linear indices of the four periodic neighbors (right, left, above, below)."""
    if not 0 <= idx < dims.sites:
        raise IndexError(f"spin index {idx} outside [0, {dims.sites})")
    c, r = divmod(int(idx), dims.n)
    m, n = dims.m, dims.n
    return (
        (c + 1) % m * n + r,
        (c - 1) % m * n + r,
        c * n + (r + 1) % n,
        c * n + (r - 1) % n,
    )
