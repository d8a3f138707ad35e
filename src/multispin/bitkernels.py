"""Word-level kernels: shifted neighbor extraction and four-way bit addition.

All functions operate on unsigned 16-bit numpy arrays and treat the last
axis as the word vector, whose first and last elements are halo words.
Shifts on uint16 are logical; nothing here sign-extends.

These are the paper's kernels in numpy and the oracle for their compiled
copies, which only the engine's quarter-flips call (``engine.get_bit_above``
and its siblings, where ``rng`` builds them).  A call here always runs numpy.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "MASKS",
    "get_bit_above",
    "get_bit_below",
    "bitwise_add4",
    "nibble_compact",
]

# Every-fourth-bit selectors for offsets 0..3.
MASKS = (0x1111, 0x2222, 0x4444, 0x8888)


def _check_vector(v) -> np.ndarray:
    v = np.asarray(v)
    if v.dtype != np.uint16:
        raise TypeError(f"word vectors must be uint16, got {v.dtype}")
    if v.shape[-1] < 3:
        raise ValueError("word vector needs at least one interior element between its halo words")
    return v


def _check_same_shape(*arrays) -> tuple[np.ndarray, ...]:
    arrays = tuple(map(np.asarray, arrays))
    shape = arrays[0].shape
    for a in arrays[1:]:
        if a.shape != shape:
            raise ValueError(f"shape mismatch: {a.shape} vs {shape}")
    return arrays


def get_bit_above(v: np.ndarray) -> np.ndarray:
    """Per interior element, the partner word one packed row up.

    Element k of the result is ``(v[k+2] << 15) | (v[k+1] >> 1)``: bits 0..14
    come from shifting the same word down, bit 15 from the word above it.
    Output is two elements shorter than the input.
    """
    v = _check_vector(v)
    return (v[..., 2:] << 15) | (v[..., 1:-1] >> 1)


def get_bit_below(v: np.ndarray) -> np.ndarray:
    """Mirror of :func:`get_bit_above`.

    Element k of the result is ``(v[k] >> 15) | (v[k+1] << 1)``; bit 0 comes
    from the top bit of the word below.
    """
    v = _check_vector(v)
    return (v[..., :-2] >> 15) | (v[..., 1:-1] << 1)


def bitwise_add4(a, b, c, d) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Add four one-bit planes per lane into ones/twos/fours place values.

    For every bit lane, ``ones + 2*twos + 4*fours == a + b + c + d``.  Two
    half adders sum the pairs; their carries can never coincide with the
    cross carry of the pair sums, so the fours place reduces to an AND.
    """
    a, b, c, d = _check_same_shape(a, b, c, d)
    s1 = a ^ b
    c1 = a & b
    s2 = c ^ d
    c2 = c & d
    ones = s1 ^ s2
    c3 = s1 & s2
    twos = c1 ^ c2 ^ c3
    fours = c1 & c2
    return ones, twos, fours


def nibble_compact(ones, twos, fours, spins, i: int) -> np.ndarray:
    """Compact every fourth bit lane (offset i) into 4-bit fields.

    Field ii (bits 4*ii .. 4*ii+3) of the result describes the spin at bit
    position ``4*ii + i`` of the input words: bits 0-2 hold its neighbor
    up-count, bit 3 its own state.
    """
    if not 0 <= i < 4:
        raise IndexError(f"mask index {i} outside [0, 4)")
    ones, twos, fours, spins = _check_same_shape(ones, twos, fours, spins)
    mask = np.uint16(MASKS[i])
    ssum = (ones & mask) >> i
    ssum = ssum + (((twos & mask) >> i) << 1)
    ssum = ssum + (((fours & mask) >> i) << 2)
    ssum = ssum + (((spins & mask) >> i) << 3)
    return ssum
