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
``XoshiroStreams.unit_block``.  That kernel is one of five entry points of
one C source, built as a CPython extension module: ``unit_block``, and the
engine's quarter-flip kernels -- the shift, adder and nibble compact that
``engine.get_bit_above``, ``get_bit_below``, ``bitwise_add4`` and
``nibble_compact`` call, and the acceptance (``accept``) that
``engine._accept`` calls.  Each takes numpy arrays through the buffer
protocol, checks their shapes and layouts in C, and runs without the
interpreter lock.  The module is compiled with the system C compiler and the
interpreter's headers on the first kernel call of a process, never at
import, and checked twice before its first use: the draws against the
python-int step, and every quarter-flip of a small random state, acceptance
included, against the engine's numpy path (``engine._compiled_matches``).
Without a compiler or the headers, or when the build or either check fails,
all five run on numpy and give the same draws and states.  ``draw_path()``
says which path runs.

The quality battery implements the frequency (monobit), block-frequency,
runs, longest-run-of-ones and cumulative-sums tests at significance 0.01,
plus the unit-float frequency histogram, the lag-1 joint distribution, and
median thresholding of floats back into a testable bit stream.  The tests
that need a special function import it from ``scipy.special`` on their
first call, so a process that only draws (every engine) never loads scipy.
"""

from __future__ import annotations

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


def _step_arrays(state: np.ndarray, count: int, out: np.ndarray | None = None,
                 scratch: np.ndarray | None = None) -> np.ndarray:
    """(count, streams) outputs of many streams as uint64 arrays; advances ``state`` in place.

    ``state`` is a (4, streams) uint64 array (or view), one row per state
    word; uint64 arithmetic wraps modulo 2**64, so no masks are needed.  The
    outputs go into ``out`` when given (a (count, streams) uint64 array),
    else into a new array; ``scratch``, a uint64 array shaped like one state
    word, is the step's only temporary and is allocated when not given.
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


# The compiled kernels, one C source built once per process as an extension
# module.  Each entry point takes numpy arrays through the buffer protocol,
# checks their shapes, strides, item sizes and formats in C (ValueError on a
# mismatch) and runs its loops without the interpreter lock.
#
# unit_block: streams outer, eight at a time in vector_size lanes and then
# one by one, with the xoshiro step written once (DRAW_ROWS).  Each stream's
# state is loaded once, stepped through every row of the block in registers
# and stored once, and both halves of each output go straight into the draw
# block, whose rows of a multiple of 4 KB are padded (_ROW_PAD).  Rows outer
# and streams inner, as the kernel ran before, loaded and stored every state
# word once per row.  Per unit_block(16), before -> after (median of 200,
# 2-vCPU Xeon with AVX-512, gcc 12.2): 4096 streams 42 -> 13 us, 8192 83 ->
# 34 us, 65536 884 -> 356 us.
#
# accept: one quarter-flip's acceptance (engine._accept).  Row r = 4i + ii
# of the draws gates field ii of compact i, bit 4ii + i of the target word,
# and the spin flips when its draw is below the limit of its code.  Per
# simulation, the 16 limits are built from its levels and code masks into
# one 16-lane vector (limits), and each lane picks its code's limit from it
# with __builtin_shuffle, one permute per row.  Words go 16 at a time, all
# 16 rows in registers, and each word's flip bits are stored once; the last
# n % 16 run through the same body on a zero-padded copy.  The kernel ran
# rows outer before, one read-modify-write pass over the flip scratch per
# row: p10 per call on the engine's views, before -> after (2-vCPU Xeon with
# AVX-512, gcc 12.2), 256^2 x 8 10.7 -> 8.1 us, 1024^2 16.5 -> 10.5 us.  A
# per-lane subscript loop in place of the shuffle took 39.5 us at 256^2 x 8.
# Draw rows may lie any whole row or more apart, so unit_block's padded
# block is read in place.
#
# shift, bitwise_add4, nibble_compact: the bitkernels functions' word
# arithmetic over inputs of any shape, one row (the last axis) at a time.
# Rows may lie anywhere, but each row's words must be aligned and contiguous,
# as in the engine's packed state; any other layout raises ValueError.
# Outputs are C-contiguous arrays the caller (the engine's quarter)
# allocates.  The engine's rows are short (8 words at 256x256), so per-row
# costs decide the time: finding each row by two divisions per leading axis
# and input, and a loop vectorized 32 lanes wide that ran 8-word rows in its
# scalar remainder, made a compact of 512 such rows take about 17 us against
# 1.6 us for the same 4096 words in one row.  So rows step by strides, in
# counted runs along the last leading axis (RUNS), and each kernel's
# arithmetic is written once and run eight words at a time and then word by
# word (ROW_LOOP).  Per call, before -> after, on the engine's views (best of
# 28 interleaved repeats, 2-vCPU Xeon with AVX-512, gcc 12.2):
#
#   lattice x sims (rows x words)   compact          adder            shift
#   256^2 x 8  (512 x 8)            17.2 -> 4.4 us   15.3 -> 4.2 us   4.4 -> 1.3 us
#   1024^2 x 1 (256 x 32)            8.3 -> 5.0 us    7.8 -> 4.5 us   2.0 -> 1.3 us
#   512^2 x 94 (12032 x 16)          337 -> 107 us    336 -> 117 us    84 -> 34 us
#   12x96 x 2  (6 x 3)               1.5 -> 1.5 us   0.95 -> 0.90 us  0.29 -> 0.32 us
#
# The rows then stepped one at a time through an odometer over every
# leading axis.  The counted runs took, p10 per call on the same kind of
# host measured again, 256^2 x 8 compact 2.6 -> 1.6 us, adder 2.85 -> 1.7
# us, shift 1.02 -> 0.91 us, and 1024^2 compact 3.0 -> 2.2 us, adder 3.0 ->
# 2.7 us.
_KERNEL_C = r"""
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

/* The draw step of streams [j, j + lanes): D holds one stream per lane in
   its state words a, b, c, d, H one 32-bit half per lane, and NARROW takes
   D to H.  Each of the rows steps writes the output's high half to row 2r
   of the block and its low half to row 2r + 1, rows `stride` words apart. */
#define DRAW_ROWS(D, H, NARROW) do {                                               \
        uint32_t *o = k + j;                                                       \
        for (long r = 0; r < rows; r++, o += 2 * stride) {                         \
            D x = a + d, t = b << 17;                                              \
            x = ((x << 23) | (x >> 41)) + a;                                       \
            *(H *)o = NARROW(x >> 32) & 0x7FFFFF;                                  \
            *(H *)(o + stride) = NARROW(x) & 0x7FFFFF;                             \
            c ^= a; d ^= b; b ^= c; a ^= d; c ^= t; d = (d << 45) | (d >> 19);     \
        }                                                                          \
    } while (0)
typedef uint64_t states8 __attribute__((vector_size(64), aligned(8), may_alias));
typedef uint32_t halves8 __attribute__((vector_size(32), aligned(4), may_alias));
#define NARROW8(v) __builtin_convertvector(v, halves8)
#define NARROW1(v) ((uint32_t)(v))
#define LANES(p) (*(states8 *)&(p)[j])

static void
unit_block(uint64_t *restrict s0, uint64_t *restrict s1, uint64_t *restrict s2,
           uint64_t *restrict s3, long width, long rows, long stride, uint32_t *restrict k)
{
    long j = 0;
    for (; j + 8 <= width; j += 8) {
        states8 a = LANES(s0), b = LANES(s1), c = LANES(s2), d = LANES(s3);
        DRAW_ROWS(states8, halves8, NARROW8);
        LANES(s0) = a; LANES(s1) = b; LANES(s2) = c; LANES(s3) = d;
    }
    for (; j < width; j++) {
        uint64_t a = s0[j], b = s1[j], c = s2[j], d = s3[j];
        DRAW_ROWS(uint64_t, uint32_t, NARROW1);
        s0[j] = a; s1[j] = b; s2[j] = c; s3[j] = d;
    }
}

/* Sixteen words in lanes: u16x16 their compacts and flip bits, u32x16 their
   draws, codes and limits. */
typedef uint16_t u16x16 __attribute__((vector_size(32), aligned(2), may_alias));
typedef uint32_t u32x16 __attribute__((vector_size(64), aligned(4), may_alias));

/* The flip bits of 16 words into out: draw row r = 4i + ii, `row` words
   below k, gates field ii of c[i], bit 4ii + i, and accepts when its draw is
   below the limit of its code, lane `code` of table. */
static inline void
accept16(const uint32_t *k, long row, const uint16_t *const c[4], u32x16 table, uint16_t *out)
{
    u32x16 flips = {0};
    for (int i = 0; i < 4; i++) {
        u32x16 codes = __builtin_convertvector(*(const u16x16 *)c[i], u32x16);
        for (int ii = 0; ii < 4; ii++) {
            u32x16 limit = __builtin_shuffle(table, codes >> (4 * ii) & 0xF);
            u32x16 draws = *(const u32x16 *)(k + (4 * i + ii) * row);
            flips |= (u32x16)(draws < limit) & (1u << (4 * ii + i));
        }
    }
    *(u16x16 *)out = __builtin_convertvector(flips, u16x16);
}

/* One simulation's draw limit per code: 2**23 where the code always flips,
   else the larger of the levels whose mask holds it, else 0; so a draw is
   below it exactly when the level-and-mask select accepts. */
static u32x16
limits(const uint32_t *lev, const uint16_t *msk, long n_sim)
{
    u32x16 table;
    for (int c = 0; c < 16; c++) {
        uint32_t lo = msk[0] >> c & 1 ? lev[0] : 0, hi = msk[n_sim] >> c & 1 ? lev[n_sim] : 0;
        table[c] = msk[2 * n_sim] >> c & 1 ? 1u << 23 : lo > hi ? lo : hi;
    }
    return table;
}

static long
accept(long sims, long cells, long words, const uint32_t *k, long row,
       const uint16_t *c0, const uint16_t *c1, const uint16_t *c2, const uint16_t *c3,
       const uint32_t *levels, const uint16_t *masks, long n_sim, long first,
       uint16_t *target, long target_sim, long target_cell, uint16_t *restrict flipped)
{
    long n = cells * words, tail = n % 16, count = 0;
    for (long s = 0; s < sims; s++) {
        u32x16 table = limits(levels + first + s, masks + first + s, n_sim);
        const uint32_t *ks = k + s * n;
        const uint16_t *cs[4] = {c0 + s * n, c1 + s * n, c2 + s * n, c3 + s * n};
        long j = 0;
        for (; j + 16 <= n; j += 16)
            accept16(ks + j, row, (const uint16_t *const[4]){cs[0] + j, cs[1] + j, cs[2] + j,
                                                             cs[3] + j}, table, flipped + j);
        if (tail) {
            /* the last n % 16 words through the same body, on a zero-padded copy */
            uint32_t kpad[16][16] = {{0}};
            uint16_t cpad[4][16] = {{0}}, fpad[16];
            for (int r = 0; r < 16; r++)
                memcpy(kpad[r], ks + r * row + j, tail * sizeof **kpad);
            for (int i = 0; i < 4; i++)
                memcpy(cpad[i], cs[i] + j, tail * sizeof **cpad);
            accept16(kpad[0], 16, (const uint16_t *const[4]){cpad[0], cpad[1], cpad[2], cpad[3]},
                     table, fpad);
            memcpy(flipped + j, fpad, tail * sizeof *fpad);
        }
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

/* Eight words at any even address.  ROW_LOOP runs its body over words
   [0, n) of a row with W bound to lanes8, eight words at a time, and then
   to uint16_t for the last n % 8, the body's loads and stores at word j
   going through AT; so an 8-word row is one vector pass.  The tail loop
   counts at most 7 words, which the compiler leaves scalar; vectorized,
   it added 4 % to the module's compile time.  A 32-lane pass before the
   8-lane one took a 1024x1024 compact (32-word rows) from 4.6 to 3.6 us
   but added 8 % to the compile time, a 16-lane one 4 %, and neither sped
   up 8-word rows. */
typedef uint16_t lanes8 __attribute__((vector_size(16), aligned(2), may_alias));
#define AT(p, k) (*(W *)&(p)[j + (k)])
#define ROW_LOOP(n, ...) do {                                                           \
        Py_ssize_t j = 0;                                                               \
        for (; j + 8 <= (n); j += 8) { typedef lanes8 W; __VA_ARGS__ }                  \
        for (int tail = (n) & 7; tail; tail--, j++) { typedef uint16_t W; __VA_ARGS__ } \
    } while (0)

static void
shift_row(Py_ssize_t n, const uint16_t *v, int up, uint16_t *restrict out)
{
    if (up)
        ROW_LOOP(n, AT(out, 0) = (W)(AT(v, 2) << 15 | AT(v, 1) >> 1););
    else
        ROW_LOOP(n, AT(out, 0) = (W)(AT(v, 0) >> 15 | AT(v, 1) << 1););
}

static void
add4_row(Py_ssize_t n, const uint16_t *a, const uint16_t *b, const uint16_t *c,
         const uint16_t *d, uint16_t *restrict ones, uint16_t *restrict twos,
         uint16_t *restrict fours)
{
    ROW_LOOP(n,
        W s1 = AT(a, 0) ^ AT(b, 0), c1 = AT(a, 0) & AT(b, 0);
        W s2 = AT(c, 0) ^ AT(d, 0), c2 = AT(c, 0) & AT(d, 0);
        AT(ones, 0) = s1 ^ s2;
        AT(twos, 0) = c1 ^ c2 ^ (s1 & s2);
        AT(fours, 0) = c1 & c2;
    );
}

static void
compact_row(Py_ssize_t n, const uint16_t *ones, const uint16_t *twos, const uint16_t *fours,
            const uint16_t *spins, int i, uint16_t *restrict out)
{
    const uint16_t m = (uint16_t)(0x1111u << i);
    ROW_LOOP(n, AT(out, 0) = (W)((AT(ones, 0) & m) >> i | (AT(twos, 0) & m) >> i << 1
                                 | (AT(fours, 0) & m) >> i << 2 | (AT(spins, 0) & m) >> i << 3););
}

/* The rows of up to four same-shaped buffers, every index of all axes but
   the last in C order, walked in runs: a run is the rows along the last
   leading axis, and RUNS steps through one by adding each buffer's stride
   on that axis, held in a local, and counting the rows.  Between runs,
   runs_next carries into the axes before it as an odometer does, so no row
   costs a division or a carry. */
typedef struct {
    int lead;
    const Py_ssize_t *shape, *strides[4];
    const uint16_t *row[4];
    Py_ssize_t run, step[4], index[PyBUF_MAX_NDIM];
} Rows;

/* Buffers past the n given walk as the first. */
static Rows
rows_start(Py_buffer *const *v, int n)
{
    Rows r = {.lead = v[0]->ndim ? v[0]->ndim - 1 : 0, .shape = v[0]->shape};
    r.run = r.lead ? r.shape[r.lead - 1] : 1;
    for (int k = 0; k < 4; k++) {
        const Py_buffer *b = v[k < n ? k : 0];
        r.strides[k] = b->strides;
        r.row[k] = b->buf;
        r.step[k] = r.lead ? b->strides[r.lead - 1] / 2 : 0;
    }
    return r;
}

/* The next run: one index forward on the axis before the last leading one,
   and where that passes its end, back to index 0 and on to the axis before. */
static void
runs_next(Rows *r)
{
    for (int ax = r->lead - 2; ax >= 0; ax--) {
        int carry = ++r->index[ax] == r->shape[ax];
        Py_ssize_t steps = carry ? 1 - r->shape[ax] : 1;
        for (int k = 0; k < 4; k++)
            r->row[k] = (const uint16_t *)((const char *)r->row[k] + steps * r->strides[k][ax]);
        if (!carry)
            return;
        r->index[ax] = 0;
    }
}

/* The body once per row of r's `rows`, with the row of buffer k at rowk. */
#define RUNS(r, rows, ...) do {                                                           \
        for (Py_ssize_t done = 0; done < (rows); done += (r).run, runs_next(&(r))) {       \
            const uint16_t *row0 = (r).row[0], *row1 = (r).row[1];                         \
            const uint16_t *row2 = (r).row[2], *row3 = (r).row[3];                         \
            Py_ssize_t d0 = (r).step[0], d1 = (r).step[1], d2 = (r).step[2], d3 = (r).step[3]; \
            for (Py_ssize_t left = (r).run; left; left--, row0 += d0, row1 += d1,          \
                                                      row2 += d2, row3 += d3) { __VA_ARGS__ } \
        }                                                                                  \
    } while (0)

/* The buffers one call holds; no entry point takes more than ten. */
typedef struct { Py_buffer view[10]; int n; } Held;

static PyObject *
release(Held *held, PyObject *result)
{
    while (held->n)
        PyBuffer_Release(&held->view[--held->n]);
    return result;
}

static PyObject *
invalid(Held *held, const char *what)
{
    PyErr_Format(PyExc_ValueError, "%s: arrays of the wrong shape or layout", what);
    return release(held, NULL);
}

/* obj's buffer as unsigned words of `size` bytes at an aligned address with
   whole-word strides; `flags` may add PyBUF_WRITABLE.  NULL with an error
   set otherwise. */
static Py_buffer *
hold(Held *held, PyObject *obj, Py_ssize_t size, int flags)
{
    Py_buffer *v = &held->view[held->n];
    if (PyObject_GetBuffer(obj, v, PyBUF_RECORDS_RO | flags) < 0)
        return NULL;
    held->n++;
    int ok = v->itemsize == size && v->format && v->format[0] && !v->format[1]
             && strchr("BHILQ", v->format[0]) && (uintptr_t)v->buf % size == 0;
    for (int ax = 0; ok && ax < v->ndim; ax++)
        ok = v->strides[ax] % size == 0;
    if (!ok)
        PyErr_Format(PyExc_ValueError, "expected unsigned %zd-byte words, aligned", size);
    return ok ? v : NULL;
}

static int
has_shape(const Py_buffer *v, int ndim, const Py_ssize_t *shape)
{
    if (v->ndim != ndim)
        return 0;
    for (int ax = 0; ax < ndim; ax++)
        if (v->shape[ax] != shape[ax])
            return 0;
    return 1;
}

static int
c_contiguous(const Py_buffer *v, int ndim, const Py_ssize_t *shape)
{
    return has_shape(v, ndim, shape) && PyBuffer_IsContiguous(v, 'C');
}

/* Whether v's axes from `first` on are C-contiguous; axes of length 1 may
   have any stride. */
static int
contiguous_from(const Py_buffer *v, int first)
{
    Py_ssize_t size = v->itemsize;
    for (int ax = v->ndim - 1; ax >= first; ax--) {
        if (v->shape[ax] != 1 && v->strides[ax] != size)
            return 0;
        size *= v->shape[ax];
    }
    return 1;
}

static int
arity(Py_ssize_t nargs, Py_ssize_t want)
{
    if (nargs == want)
        return 1;
    PyErr_Format(PyExc_TypeError, "expected %zd arguments, got %zd", want, nargs);
    return 0;
}

static int
as_index(PyObject *obj, Py_ssize_t *out)
{
    *out = PyNumber_AsSsize_t(obj, PyExc_OverflowError);
    return !(*out == -1 && PyErr_Occurred());
}

/* Rows are every index of all axes but the last, in C order; a 0-d buffer
   is one row of one word. */
static Py_ssize_t
rows_of(const Py_buffer *v)
{
    Py_ssize_t rows = 1;
    for (int ax = 0; ax + 1 < v->ndim; ax++)
        rows *= v->shape[ax];
    return rows;
}

static Py_ssize_t
width_of(const Py_buffer *v)
{
    return v->ndim ? v->shape[v->ndim - 1] : 1;
}

/* Whether each row's words are contiguous; a 0-d buffer or a row of one word
   is. */
static int
unit_rows(const Py_buffer *v)
{
    return !v->ndim || v->shape[v->ndim - 1] < 2 || v->strides[v->ndim - 1] == v->itemsize;
}

/* unit_block(state, lo, hi, rows, out): step columns [lo, hi) of a
   C-contiguous (4, n) uint64 state rows times into the first 2 * rows rows
   and hi - lo columns of out, a C-contiguous 2-d uint32 array. */
static PyObject *
py_unit_block(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Held held = {.n = 0};
    Py_buffer *state, *out;
    Py_ssize_t lo, hi, rows;
    if (!arity(nargs, 5) || !(state = hold(&held, args[0], 8, PyBUF_WRITABLE))
        || !as_index(args[1], &lo) || !as_index(args[2], &hi) || !as_index(args[3], &rows)
        || !(out = hold(&held, args[4], 4, PyBUF_WRITABLE)))
        return release(&held, NULL);
    if (state->ndim != 2 || state->shape[0] != 4 || !PyBuffer_IsContiguous(state, 'C')
        || !(0 <= lo && lo < hi && hi <= state->shape[1]) || rows < 0
        || out->ndim != 2 || !PyBuffer_IsContiguous(out, 'C') || out->shape[0] / 2 < rows
        || out->shape[1] < hi - lo)
        return invalid(&held, "unit_block");
    uint64_t *s = (uint64_t *)state->buf + lo;
    Py_ssize_t n = state->shape[1];
    Py_BEGIN_ALLOW_THREADS
    unit_block(s, s + n, s + 2 * n, s + 3 * n, hi - lo, rows, out->shape[1], out->buf);
    Py_END_ALLOW_THREADS
    return release(&held, Py_NewRef(Py_None));
}

/* accept(draws, c0, c1, c2, c3, levels, masks, first, target, flipped): one
   quarter's accepted flips XORed into target, a (sims, cells, words) view
   with contiguous words; returns their count.  draws is a (16, sims, cells,
   words) uint32 block: 16 rows, each C-contiguous, at least a row apart
   (unit_block's padded rows), each compact a C-contiguous
   (sims, cells, words) uint16 array, levels and masks C-contiguous
   (2, n_sim, 1, 1) uint32 and (3, n_sim, 1, 1) uint16 arrays read for
   simulations [first, first + sims), and flipped C-contiguous uint16
   scratch of at least cells * words words. */
static PyObject *
py_accept(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Held held = {.n = 0};
    Py_buffer *draws, *c[4], *levels, *masks, *target, *flipped;
    Py_ssize_t first;
    if (!arity(nargs, 10) || !(draws = hold(&held, args[0], 4, 0))
        || !(c[0] = hold(&held, args[1], 2, 0)) || !(c[1] = hold(&held, args[2], 2, 0))
        || !(c[2] = hold(&held, args[3], 2, 0)) || !(c[3] = hold(&held, args[4], 2, 0))
        || !(levels = hold(&held, args[5], 4, 0)) || !(masks = hold(&held, args[6], 2, 0))
        || !as_index(args[7], &first) || !(target = hold(&held, args[8], 2, PyBUF_WRITABLE))
        || !(flipped = hold(&held, args[9], 2, PyBUF_WRITABLE)))
        return release(&held, NULL);
    int ok = target->ndim == 3 && target->strides[2] == 2 && levels->ndim == 4;
    Py_ssize_t block[4] = {16}, n_sim = ok ? levels->shape[1] : 0;
    Py_ssize_t level_shape[4] = {2, n_sim, 1, 1}, mask_shape[4] = {3, n_sim, 1, 1};
    if (ok)
        memcpy(block + 1, target->shape, sizeof block - sizeof *block);
    ok = ok && has_shape(draws, 4, block) && contiguous_from(draws, 1)
         && draws->strides[0] / 4 >= block[1] * block[2] * block[3]
         && c_contiguous(levels, 4, level_shape)
         && c_contiguous(masks, 4, mask_shape) && 0 <= first && first <= n_sim - block[1]
         && PyBuffer_IsContiguous(flipped, 'C') && flipped->len / 2 >= block[2] * block[3];
    for (int i = 0; ok && i < 4; i++)
        ok = c_contiguous(c[i], 3, block + 1);
    if (!ok)
        return invalid(&held, "accept");
    long count;
    Py_BEGIN_ALLOW_THREADS
    count = accept(block[1], block[2], block[3], draws->buf, draws->strides[0] / 4, c[0]->buf,
                   c[1]->buf, c[2]->buf, c[3]->buf, levels->buf, masks->buf, n_sim, first,
                   target->buf, target->strides[0] / 2, target->strides[1] / 2, flipped->buf);
    Py_END_ALLOW_THREADS
    return release(&held, PyLong_FromLong(count));
}

/* shift(v, out, up): every row of v (at least 3 contiguous words) shifted
   one bit up or down into out, C-contiguous and two words shorter per row. */
static PyObject *
py_shift(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Held held = {.n = 0};
    Py_buffer *v, *out;
    Py_ssize_t shape[PyBUF_MAX_NDIM];
    int up;
    if (!arity(nargs, 3) || !(v = hold(&held, args[0], 2, 0))
        || !(out = hold(&held, args[1], 2, PyBUF_WRITABLE)) || (up = PyObject_IsTrue(args[2])) < 0)
        return release(&held, NULL);
    if (v->ndim)
        memcpy(shape, v->shape, v->ndim * sizeof *shape);
    if (v->ndim < 1 || (shape[v->ndim - 1] -= 2) < 1 || !unit_rows(v)
        || !c_contiguous(out, v->ndim, shape))
        return invalid(&held, "shift");
    Py_ssize_t rows = rows_of(v), n = shape[v->ndim - 1];
    Rows r = rows_start(&v, 1);
    uint16_t *o = out->buf;
    Py_BEGIN_ALLOW_THREADS
    RUNS(r, rows, shift_row(n, row0, up, o); o += n;);
    Py_END_ALLOW_THREADS
    return release(&held, Py_NewRef(Py_None));
}

/* bitwise_add4(a, b, c, d, out): ones, twos and fours of four same-shaped
   arrays with contiguous rows into out, C-contiguous of shape (3, *a.shape). */
static PyObject *
py_bitwise_add4(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Held held = {.n = 0};
    Py_buffer *x[4], *out;
    Py_ssize_t shape[PyBUF_MAX_NDIM + 1] = {3};
    if (!arity(nargs, 5))
        return NULL;
    for (int i = 0; i < 4; i++)
        if (!(x[i] = hold(&held, args[i], 2, 0)))
            return release(&held, NULL);
    if (!(out = hold(&held, args[4], 2, PyBUF_WRITABLE)))
        return release(&held, NULL);
    int nd = x[0]->ndim, ok = 1;
    for (int i = 0; ok && i < 4; i++)
        ok = has_shape(x[i], nd, x[0]->shape) && unit_rows(x[i]);
    if (nd)
        memcpy(shape + 1, x[0]->shape, nd * sizeof *shape);
    if (!ok || !c_contiguous(out, nd + 1, shape))
        return invalid(&held, "bitwise_add4");
    Py_ssize_t rows = rows_of(x[0]), n = width_of(x[0]), size = out->len / 2 / 3;
    Rows r = rows_start(x, 4);
    uint16_t *ones = out->buf;
    Py_BEGIN_ALLOW_THREADS
    RUNS(r, rows, add4_row(n, row0, row1, row2, row3, ones, ones + size, ones + 2 * size);
                  ones += n;);
    Py_END_ALLOW_THREADS
    return release(&held, Py_NewRef(Py_None));
}

/* nibble_compact(ones, twos, fours, spins, i, out): lane offset i of four
   same-shaped arrays with contiguous rows compacted into out, C-contiguous of
   the same shape. */
static PyObject *
py_nibble_compact(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Held held = {.n = 0};
    Py_buffer *x[4], *out;
    Py_ssize_t i;
    if (!arity(nargs, 6) || !as_index(args[4], &i))
        return NULL;
    for (int k = 0; k < 4; k++)
        if (!(x[k] = hold(&held, args[k], 2, 0)))
            return release(&held, NULL);
    if (!(out = hold(&held, args[5], 2, PyBUF_WRITABLE)))
        return release(&held, NULL);
    int nd = x[0]->ndim, ok = 0 <= i && i < 4 && c_contiguous(out, nd, x[0]->shape);
    for (int k = 0; ok && k < 4; k++)
        ok = has_shape(x[k], nd, x[0]->shape) && unit_rows(x[k]);
    if (!ok)
        return invalid(&held, "nibble_compact");
    Py_ssize_t rows = rows_of(x[0]), n = width_of(x[0]);
    Rows r = rows_start(x, 4);
    uint16_t *o = out->buf;
    Py_BEGIN_ALLOW_THREADS
    RUNS(r, rows, compact_row(n, row0, row1, row2, row3, (int)i, o); o += n;);
    Py_END_ALLOW_THREADS
    return release(&held, Py_NewRef(Py_None));
}

#define ENTRY(name) {#name, (PyCFunction)(void (*)(void))py_##name, METH_FASTCALL, NULL}

static PyMethodDef methods[] = {
    ENTRY(unit_block), ENTRY(accept), ENTRY(shift), ENTRY(bitwise_add4), ENTRY(nibble_compact),
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {PyModuleDef_HEAD_INIT, "_multispin_kernels", NULL, -1, methods};

PyMODINIT_FUNC
PyInit__multispin_kernels(void)
{
    return PyModule_Create(&module);
}
"""
# Plain -O3 targets SSE2, which has no per-lane vector shift: there a 1024x1024
# sweep took 6.6 ms, slower than the numpy acceptance's 5.5 and the 3.5 of
# -march=native (2-vCPU Xeon with AVX-512, gcc 12.2).
_CC = ("cc", "-O3", "-march=native", "-shared", "-fPIC")
_MODULE = "_multispin_kernels"  # the name PyInit_ carries in _KERNEL_C
# Words the compiled unit_block leaves after each draw row of a multiple of
# _PADDED_WIDTH words, one 64-byte line.  A stream, or an 8-lane pass of
# streams, writes one line in each of the block's 16 rows; rows a multiple of
# 4 KB long put those lines in one L1 set.  Stand-alone, 8 rows of steps
# took 0.98-1.04 ns per step at 4096, 8192 and 65536 streams against
# 0.35-0.60 at widths off a power of two (8.4 against 1.3-1.4 ns on a scalar
# loop; 2-vCPU Xeon with AVX-512, gcc 12.2).  Rows of other widths spread
# over more sets and stay unpadded, so a tall block over few streams holds
# no more words than it returns.
_ROW_PAD = 16
_PADDED_WIDTH = 1024  # uint32 words in 4 KB
_UNBUILT = object()
_kernel_handle = _UNBUILT  # the checked kernels' module, None for numpy, or _UNBUILT
_kernel_lock = threading.Lock()


def _kernel_matches(kernel) -> bool:
    """Whether ``kernel.unit_block`` steps streams [1, 38) of 40 as ``_step_ints`` does
    and no others, writing nothing of its out but the block.

    The 37 streams start at an odd column and make four 8-lane passes and a
    5-stream tail.  The out has a row more than the block and rows three
    words longer, seeded with a word no draw can be, which must stay.
    """
    state = stream_states(1, 0, 40)
    before = state.copy()
    sentinel = 0xFFFFFFFF
    out = np.full((7, 40), sentinel, dtype=np.uint32)
    kernel.unit_block(state, 1, 38, 3, out)
    for j in range(1, 38):
        s = before[:, j].tolist()
        halves = [h & _MANTISSA for x in _step_ints(s, 3) for h in (x >> 32, x)]
        if out[:6, j - 1].tolist() != halves or state[:, j].tolist() != s:
            return False
    untouched = (out[6] == sentinel).all() and (out[:, 37:] == sentinel).all()
    return untouched and (state[:, [0, 38, 39]] == before[:, [0, 38, 39]]).all()


def _build_kernel():
    """Compile, load and check the kernel module; None when any step fails."""
    import importlib.machinery
    import importlib.util
    import subprocess
    import sysconfig
    import tempfile

    from .engine import _compiled_matches

    with tempfile.TemporaryDirectory() as tmp:
        src, lib = Path(tmp, "kernels.c"), Path(tmp, "kernels.so")
        src.write_text(_KERNEL_C)
        try:
            subprocess.run([*_CC, f"-I{sysconfig.get_path('include')}", "-o", str(lib), str(src)],
                           check=True, capture_output=True, timeout=120)
            loader = importlib.machinery.ExtensionFileLoader(_MODULE, str(lib))
            kernel = importlib.util.module_from_spec(importlib.util.spec_from_loader(_MODULE, loader))
            loader.exec_module(kernel)
        except (OSError, ImportError, subprocess.SubprocessError):
            return None
    checks = (_kernel_matches, _compiled_matches)
    return kernel if all(check(kernel) for check in checks) else None


def _kernel():
    """The compiled kernels, built once per process on first use; None for numpy."""
    global _kernel_handle
    if _kernel_handle is _UNBUILT:
        with _kernel_lock:
            if _kernel_handle is _UNBUILT:
                _kernel_handle = _build_kernel()
    return _kernel_handle


def draw_path() -> str:
    """``"native"`` when all five kernels run compiled, else ``"numpy"``.

    The draws, the acceptance, the shift, the adder and the compacts are
    built, checked and given up together, so one path serves
    ``unit_block`` and every kernel of the engine's quarter-flips alike.
    Direct ``bitkernels`` calls run numpy on either path.
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
    block in one pass, with each stream's state in registers for the whole
    block; where a block row would be a multiple of 4 KB long, its rows are
    ``_ROW_PAD`` (16) words longer than the block, so the block is a view
    whose rows lie ``hi - lo + 16`` words apart.  The numpy
    step, which runs when the compiled kernels cannot be built
    (``draw_path()``), fills a C-contiguous block and also keeps a uint64
    step buffer of the same rows.
    """

    def __init__(self, master_seed: int, n_streams: int, first_stream: int = 0):
        if n_streams < 1:
            raise ValueError("need at least one stream")
        self.master_seed = check_seed(master_seed)
        self.n_streams = int(n_streams)
        self.first_stream = int(first_stream)
        if self.first_stream < 0:
            raise ValueError(f"first_stream must be at least 0, got {self.first_stream}")
        if self.first_stream + self.n_streams > 1 << 64:
            raise ValueError(f"first_stream {self.first_stream} leaves no room for "
                             f"{self.n_streams} streams below 2**64")
        # (4, n_streams), C-contiguous: the kernel steps it through raw pointers
        self._state = stream_states(self.master_seed, self.first_stream, self.n_streams)
        # numpy-step temporary; only the widest range stepped touches its pages
        self._x = np.empty(self.n_streams, dtype=np.uint64)
        self._raw = np.empty(0, dtype=np.uint64)  # numpy-step output buffer
        self._k = np.empty(0, dtype=np.uint32)  # unit_block draw buffer

    def raw_block(self, count: int) -> np.ndarray:
        """(count, n_streams) uint64 block; row k is every stream's k-th output."""
        return _step_arrays(self._state, count)

    def unit_block(self, count: int, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """(count, hi - lo) uint32 block of k over streams [lo, hi); the draw is k * 2**-23.

        Only the streams in the column range ``[lo, hi)`` (all of them by
        default) step, each ``ceil(count / 2)`` times; column j is stream
        ``first_stream + lo + j``.  Row ``2r`` is bits 32-54 of output r (the
        draw ``next_unit_float`` makes) and row ``2r + 1`` is bits 0-22 of
        the same output; an odd count drops the last low half.  The block
        lives in a reused buffer: it is valid until the next call.  On the
        compiled path, when ``hi - lo`` is a multiple of 1024, it is a view
        whose rows lie ``hi - lo + 16`` words apart; else, and on the numpy
        step, it is C-contiguous.
        """
        hi = self.n_streams if hi is None else hi
        if not 0 <= lo < hi <= self.n_streams:
            raise ValueError(f"stream range [{lo}, {hi}) outside [0, {self.n_streams})")
        if count < 0:
            raise ValueError(f"count must be at least 0, got {count}")
        rows, width = -(-count // 2), hi - lo
        kernel = _kernel()
        row = width + (_ROW_PAD if kernel is not None and width % _PADDED_WIDTH == 0 else 0)
        if self._k.size < 2 * rows * row:
            self._k = np.empty(2 * rows * row, dtype=np.uint32)
        block = self._k[: 2 * rows * row].reshape(2 * rows, row)
        if kernel is not None:
            kernel.unit_block(self._state, lo, hi, rows, block)
            return block[:count, :width]
        size = rows * width
        if self._raw.size < size:
            self._raw = np.empty(size, dtype=np.uint64)
        raw = _step_arrays(self._state[:, lo:hi], rows,
                           out=self._raw[:size].reshape(rows, width), scratch=self._x[:width])
        k = block.reshape(rows, 2, width)
        np.right_shift(raw, _HIGH_HALF, out=k[:, 0], casting="unsafe")
        np.copyto(k[:, 1], raw, casting="unsafe")
        k &= _DRAW_BITS
        return block[:count]


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
