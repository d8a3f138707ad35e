"""Deterministic pseudo-random streams and the randomness-quality battery.

The generator is xoshiro256++ with splitmix64-derived stream states: one
master seed plus a stream index gives an independent 256-bit state, so any
number of cells can draw concurrently and reproducibly.  Unit floats are
shaped from the top 32 bits of each output: the low 23 of those bits become
the mantissa of a binary32 in [1, 2) and 1.0 is subtracted, yielding
``k * 2**-23`` for k in [0, 2**23).  The engine's draw blocks shape both
32-bit halves of each output the same way, high half first.

The xoshiro256++ step exists three times: on python ints (the scalar
``Xoshiro256pp``, and the oracle the others are checked against), on uint64
numpy arrays (``raw_block``), and as a small C kernel that serves
``XoshiroStreams.unit_block``.  The same C source holds the engine's
acceptance kernel, which consumes the draws.  Both are compiled with the
system C compiler on the first ``unit_block`` call of a process, never at
import, and each is checked before its first use: the draws against the
python-int step, the acceptance against its mask select restated in numpy.
Without a compiler, or when the build or either check fails, draws and
flips both run on numpy and give the same draws and states.
``draw_path()`` says which path runs.

The quality battery implements the frequency (monobit), block-frequency,
runs, longest-run-of-ones and cumulative-sums tests at significance 0.01,
plus the unit-float frequency histogram, the lag-1 joint distribution, and
median thresholding of floats back into a testable bit stream.  The tests
that need a special function import it from ``scipy.special`` on their
first call, so a process that only draws (every engine) never loads scipy.
"""

from __future__ import annotations

import ctypes
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "ALPHA",
    "MIN_BATTERY_BITS",
    "check_seed",
    "draw_path",
    "Xoshiro256pp",
    "XoshiroStreams",
    "stream_state",
    "stream_states",
    "shape_unit_float",
    "TestReport",
    "monobit_test",
    "block_frequency_test",
    "runs_test",
    "longest_run_test",
    "cusum_test",
    "run_battery",
    "HistogramReport",
    "frequency_histogram",
    "JointReport",
    "lag1_joint",
    "median_threshold_bits",
    "load_bitstream",
]

ALPHA = 0.01
MIN_BATTERY_BITS = 128  # the shortest stream run_battery accepts (longest-run test)

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4B7C15
_MANTISSA = 0x7FFFFF
_UNIT = 2.0 ** -23


def check_seed(seed) -> int:
    """The master seed as an int, or ValueError outside [0, 2**64).

    Stream states reduce the seed modulo 2**64, so a seed outside that range
    would silently replay an in-range seed's streams.
    """
    seed = int(seed)
    if not 0 <= seed <= _M64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    return seed


def _mix64(z):
    """splitmix64 output finalizer, on a python int or a uint64 array."""
    z = z & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def splitmix64(seed, count: int) -> list:
    """First ``count`` splitmix64 outputs from ``seed``, a python int or a uint64 array."""
    out = []
    z = seed & _M64
    for _ in range(count):
        z = (z + _GOLDEN) & _M64
        out.append(_mix64(z))
    return out


def stream_state(master_seed: int, stream: int) -> list[int]:
    """256-bit xoshiro state for one numbered stream of a master seed.

    The stream seed is the (stream+1)-th splitmix64 output of the master
    seed; four more splitmix64 outputs of that seed fill the state.  They
    come from four distinct inputs of a bijective finalizer, so at most one
    word is zero and the absorbing all-zero state cannot occur.
    """
    return splitmix64(_mix64(master_seed + (stream + 1) * _GOLDEN), 4)


def stream_states(master_seed: int, first_stream: int, count: int) -> np.ndarray:
    """(4, count) uint64 array; column j is ``stream_state(master_seed, first_stream + j)``."""
    streams = np.arange(first_stream + 1, first_stream + count + 1, dtype=np.uint64)
    stream_seeds = _mix64(np.uint64(master_seed & _M64) + streams * np.uint64(_GOLDEN))
    return np.array(splitmix64(stream_seeds, 4), dtype=np.uint64)


def _step_ints(state: list, count: int) -> list:
    """Next ``count`` outputs of one stream on python ints; advances ``state`` in place."""
    s0, s1, s2, s3 = state
    out = []
    for _ in range(count):
        x = (s0 + s3) & _M64
        out.append((((x << 23) | (x >> 41)) + s0) & _M64)
        t = (s1 << 17) & _M64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = ((s3 << 45) | (s3 >> 19)) & _M64
    state[:] = (s0, s1, s2, s3)
    return out


_SHIFTS = tuple(np.uint64(k) for k in (23, 41, 17, 45, 19))  # xoshiro256++ shift counts
_HIGH_HALF = np.uint64(32)  # unit_block: the high draw starts at bit 32 of an output
_DRAW_BITS = np.uint32(_MANTISSA)  # unit_block: the 23 bits of a half that make its draw


def _step_arrays(state: list, count: int, out: np.ndarray | None = None,
                 scratch: np.ndarray | None = None) -> np.ndarray:
    """(count, streams) outputs of many streams as uint64 arrays; advances ``state`` in place.

    ``state`` holds four uint64 arrays (or views), one per state word; uint64
    arithmetic wraps modulo 2**64, so no masks are needed.  The outputs go
    into ``out`` when given (a (count, streams) uint64 array), else into a
    new array; ``scratch``, a uint64 array shaped like one state word, is the
    step's only temporary and is allocated when not given.
    """
    s0, s1, s2, s3 = state
    if out is None:
        out = np.empty((count, s0.size), dtype=np.uint64)
    x = np.empty_like(s0) if scratch is None else scratch
    c23, c41, c17, c45, c19 = _SHIFTS
    for row in out:
        np.add(s0, s3, out=x)
        np.left_shift(x, c23, out=row)
        x >>= c41
        row |= x
        row += s0
        np.left_shift(s1, c17, out=x)  # t, the old s1 << 17
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= x
        np.left_shift(s3, c45, out=x)
        s3 >>= c19
        s3 |= x
    return out


# The compiled kernels, one C source built once per process:
#
# unit_block: the state words stay in registers for one step of a stream, and
# both halves go straight into the draw block.  Rows outer and streams inner,
# so the compiler vectorizes the inner loop across streams.
#
# accept: one quarter-flip's acceptance (engine.Engine._flip_quarter).  Row
# r = 4i + ii of the draws gates field ii of compact i, bit 4ii + i of the
# target word; its draw's code mask is ``(k < low) & at_low | (k < high) &
# at_high | certain`` and the spin flips when bit ``code`` of that mask is set.
# Rows are the outer loop, and each row's pass over cells * words sits in a
# function of its own, so the compiler vectorizes it with per-lane shifts.
_KERNEL_C = r"""
#include <stdint.h>
#include <string.h>

void unit_block(uint64_t *restrict s0, uint64_t *restrict s1, uint64_t *restrict s2,
                uint64_t *restrict s3, long width, long rows, uint32_t *restrict k)
{
    for (long r = 0; r < rows; r++, k += 2 * width) {
        for (long j = 0; j < width; j++) {
            uint64_t a = s0[j], b = s1[j], c = s2[j], d = s3[j];
            uint64_t x = a + d, t = b << 17;
            x = ((x << 23) | (x >> 41)) + a;
            k[j] = (uint32_t)(x >> 32) & 0x7FFFFF;
            k[width + j] = (uint32_t)x & 0x7FFFFF;
            c ^= a; d ^= b; b ^= c; a ^= d; c ^= t;
            s0[j] = a; s1[j] = b; s2[j] = c; s3[j] = (d << 45) | (d >> 19);
        }
    }
}

static void __attribute__((noinline))
accept_row(long n, const uint32_t *restrict k, const uint16_t *restrict compact,
           uint32_t field, uint32_t bit, uint32_t lo, uint32_t hi, uint32_t at_lo,
           uint32_t at_hi, uint32_t certain, uint16_t *restrict flipped)
{
    for (long j = 0; j < n; j++) {
        uint32_t x = k[j], code = ((uint32_t)compact[j] >> field) & 0xF;
        uint32_t mask = (x < lo ? at_lo : 0) | (x < hi ? at_hi : 0) | certain;
        flipped[j] |= (uint16_t)(((mask >> code) & 1) << bit);
    }
}

long accept(long sims, long cells, long words, const uint32_t *k,
            const uint16_t *c0, const uint16_t *c1, const uint16_t *c2, const uint16_t *c3,
            const uint32_t *levels, const uint16_t *masks, long n_sim, long first,
            uint16_t *target, long target_sim, long target_cell, uint16_t *restrict flipped)
{
    const uint16_t *compacts[4] = {c0, c1, c2, c3};
    long n = cells * words, count = 0;
    for (long s = 0; s < sims; s++) {
        const uint32_t *lev = levels + first + s;
        const uint16_t *msk = masks + first + s;
        memset(flipped, 0, n * sizeof *flipped);
        for (long r = 0; r < 16; r++)
            accept_row(n, k + (r * sims + s) * n, compacts[r / 4] + s * n, 4 * (r % 4),
                       4 * (r % 4) + r / 4, lev[0], lev[n_sim], msk[0], msk[n_sim],
                       msk[2 * n_sim], flipped);
        for (long c = 0; c < cells; c++) {
            uint16_t *t = target + s * target_sim + c * target_cell;
            const uint16_t *f = flipped + c * words;
            for (long w = 0; w < words; w++) {
                t[w] ^= f[w];
                count += __builtin_popcount(f[w]);
            }
        }
    }
    return count;
}
"""
# Plain -O3 targets SSE2, which has no per-lane vector shift: there a 1024x1024
# sweep took 6.6 ms, slower than the numpy acceptance's 5.5 and the 3.5 of
# -march=native (2-vCPU Xeon with AVX-512, gcc 12.2).
_CC = ("cc", "-O3", "-march=native", "-shared", "-fPIC")
_UNBUILT = object()
_kernel_handle = _UNBUILT  # the checked kernels' library, None for numpy, or _UNBUILT
_kernel_lock = threading.Lock()


def _address(a: np.ndarray) -> int:
    """Address of the first element of ``a``.

    numpy's ``ctypes`` attribute costs about 2 µs per read, a quarter of an
    accept call's overhead per pointer, so a C-contiguous writable array is
    read through the buffer protocol instead (about 0.7 µs).
    """
    if a.flags.c_contiguous and a.flags.writeable:
        return ctypes.addressof(ctypes.c_char.from_buffer(a))
    return a.ctypes.data


def _call_kernel(kernel, state: np.ndarray, lo: int, hi: int, rows: int, out: np.ndarray) -> None:
    """Step columns [lo, hi) of a C-contiguous (4, n) uint64 state ``rows`` times into
    ``out``, a C-contiguous uint32 array of at least 2 * rows * (hi - lo) elements."""
    base, stride = _address(state) + 8 * lo, 8 * state.shape[1]
    kernel(base, base + stride, base + 2 * stride, base + 3 * stride, hi - lo, rows,
           _address(out))


def _call_accept(kernel, draws, compacts, levels, code_masks, first, target, flipped) -> int:
    """One quarter's accepted flips XORed into ``target``; returns their count.

    ``draws`` is a (16, sims, cells, words) uint32 block and each of the four
    ``compacts`` a (sims, cells, words) uint16 array.  ``levels`` and
    ``code_masks`` are an engine's C-contiguous (2, n_sim, 1, 1) uint32
    compare levels and (3, n_sim, 1, 1) uint16 code masks, read in place for
    simulations [first, first + sims).  ``target`` is the (sims, cells,
    words) uint16 view of those simulations' target words, its words
    contiguous, and ``flipped`` C-contiguous uint16 scratch of at least
    cells * words elements.
    """
    sims, cells, words = shape = target.shape
    n_sim = levels.shape[1]
    draws = np.ascontiguousarray(draws)
    compacts = [np.ascontiguousarray(c) for c in compacts]
    if (draws.shape != (16, *shape) or draws.dtype != np.uint32 or len(compacts) != 4
            or any(c.shape != shape or c.dtype != np.uint16 for c in compacts)
            or levels.shape != (2, n_sim, 1, 1) or levels.dtype != np.uint32
            or code_masks.shape != (3, n_sim, 1, 1) or code_masks.dtype != np.uint16
            or not (levels.flags.c_contiguous and code_masks.flags.c_contiguous)
            or not 0 <= first <= n_sim - sims
            or target.dtype != np.uint16 or target.strides[2] != target.itemsize
            or flipped.dtype != np.uint16 or not flipped.flags.c_contiguous
            or flipped.size < cells * words):
        raise ValueError("accept: arrays of the wrong shape, dtype or layout")
    return kernel(sims, cells, words, _address(draws), *map(_address, compacts),
                  _address(levels), _address(code_masks), n_sim, first, target.ctypes.data,
                  target.strides[0] // 2, target.strides[1] // 2, _address(flipped))


def _kernel_matches(kernel) -> bool:
    """Whether ``kernel.unit_block`` steps streams [1, 38) of 40 as ``_step_ints`` does
    and no others."""
    state = stream_states(1, 0, 40)
    before = state.copy()
    out = np.zeros((6, 37), dtype=np.uint32)
    _call_kernel(kernel.unit_block, state, 1, 38, 3, out)
    for j in range(1, 38):
        s = before[:, j].tolist()
        halves = [h & _MANTISSA for x in _step_ints(s, 3) for h in (x >> 32, x)]
        if out[:, j - 1].tolist() != halves or state[:, j].tolist() != s:
            return False
    return (state[:, [0, 38, 39]] == before[:, [0, 38, 39]]).all()


def _accept_matches(kernel) -> bool:
    """Whether ``kernel.accept`` flips what the mask select restated in numpy flips.

    A fixed random case: simulations [1, 4) of a (4, 2, 5, 21) state, with
    different levels each (0 and 2**23 among them), every code in every
    field of every simulation, and draws at each level and one either side
    of it.  Only the interior of array 1 of those three simulations may
    change.
    """
    # random words from splitmix64 outputs: numpy.random would cost ~5 MB of RSS
    pool = stream_states(18, 0, 1024).view(np.uint16).ravel()

    def take(*shape):
        nonlocal pool
        out, pool = pool[: np.prod(shape)].reshape(shape), pool[np.prod(shape):]
        return out

    sims, cells, words = 3, 3, 19  # 57 words per row leave a vector tail
    levels = np.array([[0, 1 << 22, 5, 1 << 23], [1 << 23, 1 << 22, 1 << 21, 0]], np.uint32)
    masks = take(3, 4)
    # per simulation, each of its two levels and one either side of it
    choices = np.clip(levels[:, 1:].T[:, :, None].astype(np.int64) + np.arange(-1, 2),
                      0, _MANTISSA).reshape(sims, 6)
    picks = take(16, sims, cells, words) % 6
    draws = choices[np.arange(sims)[:, None, None], picks].astype(np.uint32)
    compacts = [take(sims, cells, words) for _ in range(4)]
    for compact in compacts:  # every code in every field of every simulation
        compact.reshape(sims, -1)[:, :16] = np.arange(16) * 0x1111
    state = take(sims + 1, 2, cells + 2, words + 2)
    want = state.copy()
    (lo, hi), (at_lo, at_hi, certain) = levels[:, 1:, None, None], masks[:, 1:, None, None]
    for r in range(16):
        code = (compacts[r // 4] >> 4 * (r % 4)) & 0xF
        mask = (draws[r] < lo) * at_lo | (draws[r] < hi) * at_hi | certain
        want[1:, 1, 1:-1, 1:-1] ^= ((mask >> code) & 1) << (4 * (r % 4) + r // 4)
    flips = int(np.bitwise_count(want ^ state).sum())
    count = _call_accept(kernel.accept, draws, compacts, levels[:, :, None, None],
                         masks[:, :, None, None], 1, state[1:, 1, 1:-1, 1:-1],
                         np.empty(cells * words, np.uint16))
    return count == flips and (state == want).all()


def _build_kernel():
    """Compile, load and check both kernels; None when any step fails."""
    import subprocess
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        src, lib = Path(tmp, "kernels.c"), Path(tmp, "kernels.so")
        src.write_text(_KERNEL_C)
        try:
            subprocess.run([*_CC, "-o", str(lib), str(src)], check=True, capture_output=True,
                           timeout=120)
            kernel = ctypes.CDLL(str(lib))
            draws, accept = kernel.unit_block, kernel.accept
        except (OSError, AttributeError, subprocess.SubprocessError):
            return None
    draws.argtypes = [ctypes.c_void_p] * 4 + [ctypes.c_long, ctypes.c_long, ctypes.c_void_p]
    draws.restype = None
    accept.argtypes = ([ctypes.c_long] * 3 + [ctypes.c_void_p] * 7 + [ctypes.c_long] * 2
                       + [ctypes.c_void_p] + [ctypes.c_long] * 2 + [ctypes.c_void_p])
    accept.restype = ctypes.c_long
    return kernel if _kernel_matches(kernel) and _accept_matches(kernel) else None


def _kernel():
    """The compiled kernels, built once per process on first use; None for numpy."""
    global _kernel_handle
    if _kernel_handle is _UNBUILT:
        with _kernel_lock:
            if _kernel_handle is _UNBUILT:
                _kernel_handle = _build_kernel()
    return _kernel_handle


def draw_path() -> str:
    """``"native"`` when draws and flips run on the compiled kernels, else ``"numpy"``.

    The two kernels are built, checked and given up together, so one path
    serves ``unit_block`` and the engine's acceptance alike.
    """
    return "numpy" if _kernel() is None else "native"


class Xoshiro256pp:
    """Scalar xoshiro256++ stream on python integers."""

    def __init__(self, master_seed: int, stream: int = 0):
        self.master_seed = check_seed(master_seed)
        self.stream = int(stream)
        self._s = stream_state(self.master_seed, self.stream)

    def next_raw64(self) -> int:
        return _step_ints(self._s, 1)[0]

    def next_bits(self, k: int) -> int:
        """Top k bits of the next output; one output is consumed per call."""
        if not 1 <= k <= 64:
            raise ValueError(f"bit count {k} outside [1, 64]")
        return self.next_raw64() >> (64 - k)

    def next_unit_float(self) -> float:
        """Next unit-interval float, shaped from the top 32 bits."""
        return (self.next_raw64() >> 32 & _MANTISSA) * _UNIT

    def raw64(self, count: int) -> np.ndarray:
        """Bulk 64-bit outputs as a uint64 array."""
        return np.array(_step_ints(self._s, count), dtype=np.uint64)

    def unit_floats(self, count: int) -> np.ndarray:
        """Bulk unit floats; identical to ``count`` next_unit_float calls."""
        raw = self.raw64(count)
        return ((raw >> np.uint64(32)) & np.uint64(_MANTISSA)) * _UNIT

    def bits(self, count: int) -> np.ndarray:
        """Bulk bit stream, most significant bit of each output first.

        Concatenating ``next_bits(64)`` calls reproduces the same stream.
        """
        n_words = -(-count // 64)
        raw = self.raw64(n_words)
        bits = np.unpackbits(raw.astype(">u8").view(np.uint8))
        return bits[:count]


class XoshiroStreams:
    """Many xoshiro256++ streams advanced in lockstep on uint64 arrays.

    Column j of every full-width block belongs to stream ``first_stream + j``
    and is that stream's own sequence, so a consumer bound to one column
    sees the same draws no matter how many streams run beside it, how the
    streams are partitioned across workers, or which column ranges
    ``unit_block`` steps them in.  A block row is one array step of every
    stream it covers, so the numpy calls per block do not grow with the
    streams.

    ``unit_block`` takes two draws from each output and writes them into a
    draw buffer that the set keeps and reuses, so a draw block touches no
    fresh pages: at 8192 streams, new arrays on every call took about 990
    minor page faults per call and more time than the halved stepping saved.
    The buffer grows to the largest block asked for, so a caller that steps
    a wide set one column range at a time (the engine's flip tiles) holds
    one range's block, not the whole set's.  The compiled kernel fills a
    block in one pass; the numpy step, which runs when the compiled kernels
    cannot be built (``draw_path()``), also keeps a uint64 step buffer of
    the same rows.
    """

    def __init__(self, master_seed: int, n_streams: int, first_stream: int = 0):
        if n_streams < 1:
            raise ValueError("need at least one stream")
        self.master_seed = check_seed(master_seed)
        self.n_streams = int(n_streams)
        self.first_stream = int(first_stream)
        # (4, n_streams), C-contiguous: the kernel steps it through raw pointers
        self._state = stream_states(self.master_seed, self.first_stream, self.n_streams)
        self._s = list(self._state)
        # numpy-step temporary; only the widest range stepped touches its pages
        self._x = np.empty(self.n_streams, dtype=np.uint64)
        self._raw = np.empty(0, dtype=np.uint64)  # numpy-step output buffer
        self._k = np.empty(0, dtype=np.uint32)  # unit_block draw buffer

    def raw_block(self, count: int) -> np.ndarray:
        """(count, n_streams) uint64 block; row k is every stream's k-th output."""
        return _step_arrays(self._s, count)

    def unit_block(self, count: int, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """(count, hi - lo) uint32 block of k over streams [lo, hi); the draw is k * 2**-23.

        Only the streams in the column range ``[lo, hi)`` (all of them by
        default) step, each ``ceil(count / 2)`` times; column j is stream
        ``first_stream + lo + j``.  Row ``2r`` is bits 32-54 of output r (the
        draw ``next_unit_float`` makes) and row ``2r + 1`` is bits 0-22 of
        the same output; an odd count drops the last low half.  The block
        lives in a reused buffer: it is valid until the next call.
        """
        hi = self.n_streams if hi is None else hi
        if not 0 <= lo < hi <= self.n_streams:
            raise ValueError(f"stream range [{lo}, {hi}) outside [0, {self.n_streams})")
        rows, width = -(-count // 2), hi - lo
        size = rows * width
        if self._k.size < 2 * size:
            self._k = np.empty(2 * size, dtype=np.uint32)
        kernel = _kernel()
        if kernel is not None:
            _call_kernel(kernel.unit_block, self._state, lo, hi, rows, self._k)
            return self._k[: 2 * size].reshape(2 * rows, width)[:count]
        if self._raw.size < size:
            self._raw = np.empty(size, dtype=np.uint64)
        raw = _step_arrays([s[lo:hi] for s in self._s], rows,
                           out=self._raw[:size].reshape(rows, width), scratch=self._x[:width])
        k = self._k[: 2 * size].reshape(rows, 2, width)
        np.right_shift(raw, _HIGH_HALF, out=k[:, 0], casting="unsafe")
        np.copyto(k[:, 1], raw, casting="unsafe")
        k &= _DRAW_BITS
        return k.reshape(2 * rows, width)[:count]


def shape_unit_float(raw32):
    """Shape 32-bit chunks into [0, 1) floats via exponent splicing.

    The top 9 bits are dropped with an AND against 0x7fffff, the survivors
    are OR-ed with 0x3f800000 to form a binary32 in [1, 2), and 1.0 is
    subtracted.  Accepts a scalar or an array; returns float64 values
    ``k * 2**-23`` with k in [0, 2**23).
    """
    raw = np.atleast_1d(np.asarray(raw32, dtype=np.uint32))
    pattern = (raw & np.uint32(0x007FFFFF)) | np.uint32(0x3F800000)
    shaped = (pattern.view(np.float32) - np.float32(1.0)).astype(np.float64)
    if np.ndim(raw32) == 0:
        return float(shaped[0])
    return shaped


# ---------------------------------------------------------------------------
# Bit-stream quality tests (NIST SP 800-22 subset), significance 0.01.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TestReport:
    """Outcome of one randomness test."""

    name: str
    p_value: float
    n_bits: int

    @property
    def passed(self) -> bool:
        return self.p_value >= ALPHA


def _as_bits(bits, minimum: int, test: str) -> np.ndarray:
    b = np.asarray(bits).ravel()
    if b.size < minimum:
        raise ValueError(f"{test} needs at least {minimum} bits, got {b.size}")
    b = b.astype(np.uint8)
    if ((b != 0) & (b != 1)).any():
        raise ValueError(f"{test}: bit stream contains values other than 0 and 1")
    return b


def monobit_test(bits) -> TestReport:
    """Frequency test: are ones and zeros balanced overall?"""
    from scipy.special import erfc

    b = _as_bits(bits, 100, "monobit test")
    n = b.size
    s = 2.0 * int(b.sum()) - n
    p = float(erfc(abs(s) / np.sqrt(n) / np.sqrt(2.0)))
    return TestReport("monobit", p, n)


def block_frequency_test(bits, block_size: int | None = None) -> TestReport:
    """Frequency within blocks: chi-square of per-block one-fractions.

    With no explicit block size, picks the smallest power of two that keeps
    the block count at or below 100 (and at least 128 bits per block).
    """
    from scipy.special import gammaincc

    b = _as_bits(bits, 100, "block frequency test")
    n = b.size
    if block_size is None:
        block_size = 128
        while n // block_size > 100:
            block_size *= 2
    if block_size < 1 or n // block_size < 1:
        raise ValueError(f"block size {block_size} leaves no complete block in {n} bits")
    n_blocks = n // block_size
    pi = b[: n_blocks * block_size].reshape(n_blocks, block_size).mean(axis=1)
    chi2 = 4.0 * block_size * float(((pi - 0.5) ** 2).sum())
    p = float(gammaincc(n_blocks / 2.0, chi2 / 2.0))
    return TestReport("block_frequency", p, n)


def runs_test(bits) -> TestReport:
    """Runs test: is the number of unbroken runs consistent with independence?"""
    from scipy.special import erfc

    b = _as_bits(bits, 100, "runs test")
    n = b.size
    pi = float(b.mean())
    if abs(pi - 0.5) >= 2.0 / np.sqrt(n):
        return TestReport("runs", 0.0, n)
    v = 1 + int(np.count_nonzero(b[1:] != b[:-1]))
    num = abs(v - 2.0 * n * pi * (1.0 - pi))
    den = 2.0 * np.sqrt(2.0 * n) * pi * (1.0 - pi)
    p = float(erfc(num / den))
    return TestReport("runs", p, n)


# Longest-run-of-ones reference distributions: block size -> (categories, pi).
_LONGEST_RUN_TIERS = (
    (750_000, 10_000, (10, 11, 12, 13, 14, 15, 16),
     (0.0882, 0.2092, 0.2483, 0.1933, 0.1208, 0.0675, 0.0727)),
    (6_272, 128, (4, 5, 6, 7, 8, 9),
     (0.1174, 0.2430, 0.2493, 0.1752, 0.1027, 0.1124)),
    (128, 8, (1, 2, 3, 4),
     (0.2148, 0.3672, 0.2305, 0.1875)),
)


def _longest_run_per_block(blocks: np.ndarray) -> np.ndarray:
    """Longest run of ones within each row of a 0/1 matrix."""
    n_blocks, width = blocks.shape
    run = np.zeros(n_blocks, dtype=np.int64)
    best = np.zeros(n_blocks, dtype=np.int64)
    for j in range(width):
        col = blocks[:, j]
        run = (run + col) * col
        np.maximum(best, run, out=best)
    return best


def longest_run_test(bits) -> TestReport:
    """Longest run of ones in fixed-size blocks against tabulated frequencies."""
    from scipy.special import gammaincc

    b = _as_bits(bits, MIN_BATTERY_BITS, "longest run test")
    n = b.size
    for min_n, block_size, cats, pi in _LONGEST_RUN_TIERS:
        if n >= min_n:
            break
    n_blocks = n // block_size
    longest = _longest_run_per_block(b[: n_blocks * block_size].reshape(n_blocks, block_size))
    edges = np.array(cats)
    counts = np.zeros(len(cats), dtype=np.int64)
    counts[0] = int(np.count_nonzero(longest <= edges[0]))
    for k in range(1, len(cats) - 1):
        counts[k] = int(np.count_nonzero(longest == edges[k]))
    counts[-1] = int(np.count_nonzero(longest >= edges[-1]))
    expected = n_blocks * np.asarray(pi)
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    p = float(gammaincc((len(cats) - 1) / 2.0, chi2 / 2.0))
    return TestReport("longest_run", p, n)


def cusum_test(bits, reverse: bool = False) -> TestReport:
    """Cumulative-sums test: maximal random-walk excursion of the +/-1 stream."""
    from scipy.special import ndtr

    b = _as_bits(bits, 100, "cumulative sums test")
    n = b.size
    steps = 2.0 * b.astype(np.float64) - 1.0
    if reverse:
        steps = steps[::-1]
    z = float(np.abs(np.cumsum(steps)).max())
    sqrt_n = np.sqrt(n)
    # Subtract the (4k-1, 4k+1) excursion band, add back the (4k+1, 4k+3) one.
    start1 = int(np.floor((-n / z + 1) / 4.0))
    stop = int(np.floor((n / z - 1) / 4.0))
    k1 = np.arange(start1, stop + 1, dtype=np.float64)
    term1 = (ndtr((4.0 * k1 + 1.0) * z / sqrt_n) - ndtr((4.0 * k1 - 1.0) * z / sqrt_n)).sum()
    start2 = int(np.floor((-n / z - 3) / 4.0))
    k2 = np.arange(start2, stop + 1, dtype=np.float64)
    term2 = (ndtr((4.0 * k2 + 3.0) * z / sqrt_n) - ndtr((4.0 * k2 + 1.0) * z / sqrt_n)).sum()
    p = float(1.0 - term1 + term2)
    p = min(max(p, 0.0), 1.0)
    name = "cumulative_sums_backward" if reverse else "cumulative_sums_forward"
    return TestReport(name, p, n)


def run_battery(bits) -> list[TestReport]:
    """All implemented tests over one bit stream, in a fixed order."""
    return [
        monobit_test(bits),
        block_frequency_test(bits),
        runs_test(bits),
        longest_run_test(bits),
        cusum_test(bits, reverse=False),
        cusum_test(bits, reverse=True),
    ]


# ---------------------------------------------------------------------------
# Shaped-float checks.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HistogramReport:
    """Unit-interval frequency histogram with its max/min relative spread."""

    bin_width: float
    frequencies: np.ndarray
    spread: float

    @property
    def degenerate(self) -> bool:
        return not np.isfinite(self.spread)


def frequency_histogram(floats, bin_width: float = 0.01) -> HistogramReport:
    """Bin unit floats and report the (max - min)/min frequency spread.

    An empty bin makes the spread infinite, which callers should treat as a
    failed uniformity check.
    """
    x = np.asarray(floats, dtype=np.float64).ravel()
    if x.size == 0:
        raise ValueError("frequency histogram needs a non-empty sample")
    n_bins = round(1.0 / bin_width)
    if abs(n_bins * bin_width - 1.0) > 1e-9 or n_bins < 2:
        raise ValueError(f"bin width {bin_width} does not evenly divide the unit interval")
    counts, _ = np.histogram(x, bins=n_bins, range=(0.0, 1.0))
    freq = counts / x.size
    fmin = float(freq.min())
    fmax = float(freq.max())
    spread = (fmax - fmin) / fmin if fmin > 0 else float("inf")
    return HistogramReport(bin_width, freq, spread)


@dataclass(frozen=True)
class JointReport:
    """Lag-1 joint histogram and its chi-square uniformity p-value."""

    counts: np.ndarray
    chi_square: float
    p_value: float

    @property
    def passed(self) -> bool:
        return self.p_value >= ALPHA


def lag1_joint(floats, bins: int = 100) -> JointReport:
    """Joint distribution of (x_k, x_{k+1}) pairs over a bins x bins grid."""
    from scipy.special import gammaincc

    x = np.asarray(floats, dtype=np.float64).ravel()
    if x.size < 2:
        raise ValueError("lag-1 joint distribution needs at least 2 samples")
    counts, _, _ = np.histogram2d(x[:-1], x[1:], bins=bins, range=((0.0, 1.0), (0.0, 1.0)))
    expected = (x.size - 1) / bins ** 2
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    p = float(gammaincc((bins ** 2 - 1) / 2.0, chi2 / 2.0))
    return JointReport(counts, chi2, p)


def median_threshold_bits(floats) -> np.ndarray:
    """Threshold floats at their median: bit[k] = float[k] >= median."""
    x = np.asarray(floats, dtype=np.float64).ravel()
    if x.size < 100:
        raise ValueError(f"median thresholding needs at least 100 samples, got {x.size}")
    return (x >= np.median(x)).astype(np.uint8)


def load_bitstream(path) -> np.ndarray:
    """Read a bit stream from a file, auto-detecting its encoding.

    A file of '0'/'1' characters (whitespace allowed) is parsed digit by
    digit; anything else is treated as raw binary and unpacked most
    significant bit first.
    """
    data = Path(path).read_bytes()
    if not data:
        raise ValueError(f"{path}: empty bit stream")
    ascii_like = max(data) < 128 and sum(ch in b"01" for ch in data) >= 0.5 * len(data)
    if not ascii_like:
        return np.unpackbits(np.frombuffer(data, dtype=np.uint8))
    bits: list[int] = []
    for line_no, line in enumerate(data.decode("ascii").splitlines(), start=1):
        for ch in line:
            if ch in "01":
                bits.append(ch == "1")
            elif not ch.isspace():
                raise ValueError(f"{path}:{line_no}: invalid character {ch!r} in bit stream")
    return np.array(bits, dtype=np.uint8)
