"""Word-level kernels: shifted neighbor extraction and four-way bit addition.

All functions operate on unsigned 16-bit numpy arrays and treat the last
axis as the word vector, whose first and last elements are halo words.
Shifts on uint16 are logical; nothing here sign-extends.

Each function runs on the compiled kernel module that ``rng`` builds on
first use (``rng.draw_path()`` says ``native``), which reads its inputs in
place, views included, and writes one new C-contiguous array per result.
Its loops read aligned uint16 words, each row (the last axis) contiguous.
Where that module cannot be built, and for inputs of any other dtype or
layout (a misaligned buffer, a field of a packed record, a strided last
axis), the numpy bodies below run, with the same results and errors; they
are also the oracle the compiled kernels are checked against before their
first use.
"""

from __future__ import annotations

import numpy as np

from .rng import _kernel, stream_states

__all__ = [
    "MASKS",
    "get_bit_above",
    "get_bit_below",
    "bitwise_add4",
    "nibble_compact",
]

# Every-fourth-bit selectors for offsets 0..3.
MASKS = (0x1111, 0x2222, 0x4444, 0x8888)
_U16 = np.dtype(np.uint16)


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


def _ran(entry, *args) -> bool:
    """Whether the compiled ``entry`` ran on ``args``.

    The callers have checked shapes and dtypes, so the only ValueError an
    entry point raises here is for a layout its loops do not read: a
    misaligned buffer or rows whose words are not contiguous.  Those inputs
    go to the numpy bodies, with the same results and errors.
    """
    try:
        entry(*args)
    except ValueError:
        return False
    return True


def _shift(kernel, v: np.ndarray, up: bool) -> np.ndarray:
    """The upward or downward shift of a checked vector, compiled when ``kernel`` reads it."""
    if kernel is not None:
        out = np.empty((*v.shape[:-1], v.shape[-1] - 2), _U16)
        if _ran(kernel.shift, v, out, up):
            return out
    if up:
        return (v[..., 2:] << 15) | (v[..., 1:-1] >> 1)
    return (v[..., :-2] >> 15) | (v[..., 1:-1] << 1)


def _add4(kernel, a, b, c, d) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The adder on same-shaped arrays, compiled when ``kernel`` reads them."""
    if kernel is not None and a.dtype is b.dtype is c.dtype is d.dtype is _U16:
        out = np.empty((3, *a.shape), _U16)
        if _ran(kernel.bitwise_add4, a, b, c, d, out):
            return out[0], out[1], out[2]
    s1 = a ^ b
    c1 = a & b
    s2 = c ^ d
    c2 = c & d
    ones = s1 ^ s2
    c3 = s1 & s2
    twos = c1 ^ c2 ^ c3
    fours = c1 & c2
    return ones, twos, fours


def _compact(kernel, ones, twos, fours, spins, i: int) -> np.ndarray:
    """The compact of offset i, compiled when ``kernel`` reads the arrays."""
    if kernel is not None and ones.dtype is twos.dtype is fours.dtype is spins.dtype is _U16:
        out = np.empty(ones.shape, _U16)
        if _ran(kernel.nibble_compact, ones, twos, fours, spins, i, out):
            return out
    mask = np.uint16(MASKS[i])
    ssum = (ones & mask) >> i
    ssum = ssum + (((twos & mask) >> i) << 1)
    ssum = ssum + (((fours & mask) >> i) << 2)
    ssum = ssum + (((spins & mask) >> i) << 3)
    return ssum


def get_bit_above(v: np.ndarray) -> np.ndarray:
    """Per interior element, the partner word one packed row up.

    Element k of the result is ``(v[k+2] << 15) | (v[k+1] >> 1)``: bits 0..14
    come from shifting the same word down, bit 15 from the word above it.
    Output is two elements shorter than the input.
    """
    return _shift(_kernel(), _check_vector(v), True)


def get_bit_below(v: np.ndarray) -> np.ndarray:
    """Mirror of :func:`get_bit_above`.

    Element k of the result is ``(v[k] >> 15) | (v[k+1] << 1)``; bit 0 comes
    from the top bit of the word below.
    """
    return _shift(_kernel(), _check_vector(v), False)


def bitwise_add4(a, b, c, d) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Add four one-bit planes per lane into ones/twos/fours place values.

    For every bit lane, ``ones + 2*twos + 4*fours == a + b + c + d``.  Two
    half adders sum the pairs; their carries can never coincide with the
    cross carry of the pair sums, so the fours place reduces to an AND.
    """
    return _add4(_kernel(), *_check_same_shape(a, b, c, d))


def nibble_compact(ones, twos, fours, spins, i: int) -> np.ndarray:
    """Compact every fourth bit lane (offset i) into 4-bit fields.

    Field ii (bits 4*ii .. 4*ii+3) of the result describes the spin at bit
    position ``4*ii + i`` of the input words: bits 0-2 hold its neighbor
    up-count, bit 3 its own state.
    """
    if not 0 <= i < 4:
        raise IndexError(f"mask index {i} outside [0, 4)")
    return _compact(_kernel(), *_check_same_shape(ones, twos, fours, spins), i)


def _compiled_matches(kernel) -> bool:
    """Whether ``kernel``'s shift, adder and compacts give the numpy bodies' words.

    A fixed case from splitmix64 words: the strided views ``get_neighbors``
    makes from a (2, 3, 5, 59) state with halos (57 interior words per row
    leave a vector tail), 1-D vectors and 0-d words; both shifts, and the
    compacts at every offset i.
    """
    words = stream_states(20, 0, 128).view(np.uint16).ravel()
    state = words[:1770].reshape(2, 3, 5, 59)
    lateral, cols, own = state[:, 0], state[:, 1, 1:-1], state[:, 2, 1:-1, 1:-1]
    flat = words[1770:2030]
    shifted = [  # (vector to shift, lateral neighbors, own spins)
        (cols, lateral[:, 2:, 1:-1], lateral[:, 1:-1, 1:-1], own),
        (flat[:130], flat[130:258], flat[1:129], flat[132:260]),
    ]
    cases = [tuple(np.asarray(w) for w in words[2030:2035])]  # 0-d: four planes and spins
    for v, right, left, spins in shifted:
        above, below = (_shift(kernel, v, up) for up in (True, False))
        if not (np.array_equal(above, _shift(None, v, True))
                and np.array_equal(below, _shift(None, v, False))):
            return False
        cases.append((right, left, above, v[..., 1:-1], spins))
    for *planes, spins in cases:
        sums = _add4(kernel, *planes)
        if not all(map(np.array_equal, sums, _add4(None, *planes))):
            return False
        if not all(np.array_equal(_compact(kernel, *sums, spins, i), _compact(None, *sums, spins, i))
                   for i in range(4)):
            return False
    return True
