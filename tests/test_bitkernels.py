"""Word-kernel checks: bit traces, exhaustive adder truth, mask coverage.

``TestShifts``, ``TestAdd4`` and ``TestNibbleCompact`` run the active path
(the compiled kernels where they build); their ``NumpyPath`` copies run the
numpy bodies, and ``TestCompiledAgreesWithNumpy`` compares the two.
"""

import numpy as np
import pytest

from multispin import bitkernels, rng
from multispin.bitkernels import (
    MASKS,
    bitwise_add4,
    get_bit_above,
    get_bit_below,
    nibble_compact,
)
from multispin.engine import FLIP_BLUE, FLIP_RED, Engine, get_neighbors
from multispin.lattice import LatticeDims


def u16(*values):
    return np.array(values, dtype=np.uint16)


class TestShifts:
    def test_bit_above_trace(self):
        # bit 15 arrives from the word above, bits 0..14 shift down
        assert get_bit_above(u16(0x0000, 0x0003, 0x0001)).tolist() == [0x8001]

    def test_bit_below_trace(self):
        assert get_bit_below(u16(0x8000, 0xC000, 0x0000)).tolist() == [0x8001]

    @pytest.mark.parametrize("func", [get_bit_above, get_bit_below])
    def test_saturation_and_zero(self, func):
        assert func(u16(0xFFFF, 0xFFFF, 0xFFFF)).tolist() == [0xFFFF]
        assert func(u16(0, 0, 0, 0, 0)).tolist() == [0, 0, 0]

    @pytest.mark.parametrize("func", [get_bit_above, get_bit_below])
    def test_too_short_rejected(self, func):
        with pytest.raises(ValueError):
            func(u16(1, 2))

    @pytest.mark.parametrize("func", [get_bit_above, get_bit_below])
    def test_wrong_dtype_rejected(self, func):
        with pytest.raises(TypeError):
            func(np.array([1, 2, 3], dtype=np.int16))

    def test_against_unpack_shift_repack(self):
        # Oracle: spread the words to bits, shift the whole bit string by
        # one, and repack the interior words.
        rng = np.random.default_rng(123)
        for _ in range(1000):
            length = int(rng.integers(3, 11))
            v = rng.integers(0, 1 << 16, size=length).astype(np.uint16)
            bits = ((v[:, None] >> np.arange(16)) & 1).reshape(-1)  # low bit first
            above = np.roll(bits, -1)  # value one position up the string
            below = np.roll(bits, 1)
            repack = lambda b: (
                (b.reshape(length, 16) << np.arange(16)).sum(axis=1).astype(np.uint16)
            )
            assert (get_bit_above(v) == repack(above)[1:-1]).all()
            assert (get_bit_below(v) == repack(below)[1:-1]).all()

    def test_multidimensional_last_axis(self):
        v = np.arange(24, dtype=np.uint16).reshape(2, 3, 4)
        out = get_bit_above(v)
        assert out.shape == (2, 3, 2)
        assert (out[1, 2] == get_bit_above(v[1, 2])).all()


class TestAdd4:
    def test_exhaustive_all_input_combinations(self):
        # One word per operand bit: lane q of (a, b, c, d) spells out q's
        # bits, covering all 16 combinations at once.
        a, b, c, d = (u16(x)[0] for x in (0xFF00, 0xF0F0, 0xCCCC, 0xAAAA))
        ones, twos, fours = bitwise_add4(a, b, c, d)
        for lane in range(16):
            expected = sum((int(x) >> lane) & 1 for x in (a, b, c, d))
            got = (
                ((int(ones) >> lane) & 1)
                + 2 * ((int(twos) >> lane) & 1)
                + 4 * ((int(fours) >> lane) & 1)
            )
            assert got == expected, f"lane {lane}"

    @pytest.mark.parametrize(
        "pattern,expected",
        [((1, 1, 1, 1), (0, 0, 1)), ((1, 1, 1, 0), (1, 1, 0)), ((0, 0, 0, 0), (0, 0, 0))],
    )
    def test_single_lane_patterns(self, pattern, expected):
        full = [np.uint16(0xFFFF * p) for p in pattern]
        ones, twos, fours = bitwise_add4(*full)
        want = tuple(np.uint16(0xFFFF * e) for e in expected)
        assert (ones, twos, fours) == want

    def test_random_vectors_match_integer_addition(self):
        rng = np.random.default_rng(7)
        a, b, c, d = (rng.integers(0, 1 << 16, size=64).astype(np.uint16) for _ in range(4))
        ones, twos, fours = bitwise_add4(a, b, c, d)
        for lane in range(16):
            bit = lambda v: (v.astype(np.int32) >> lane) & 1
            total = bit(a) + bit(b) + bit(c) + bit(d)
            assert (bit(ones) + 2 * bit(twos) + 4 * bit(fours) == total).all()

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            bitwise_add4(u16(1, 2), u16(1, 2), u16(1, 2), u16(1, 2, 3))


class TestNibbleCompact:
    def test_own_spin_lands_in_eights_place(self):
        zero = np.uint16(0)
        assert nibble_compact(zero, zero, zero, np.uint16(0xFFFF), 0) == 0x8888

    def test_mask_selection(self):
        zero = np.uint16(0)
        assert nibble_compact(np.uint16(0xFFFF), zero, zero, zero, 3) == 0x1111

    def test_positions_form_permutation(self):
        # (i, ii) pairs cover each of the 16 bit positions exactly once.
        positions = sorted(4 * ii + i for i in range(4) for ii in range(4))
        assert positions == list(range(16))

    def test_fields_encode_code_for_random_inputs(self):
        rng = np.random.default_rng(42)
        a, b, c, d, s = (rng.integers(0, 1 << 16, size=32).astype(np.uint16) for _ in range(5))
        ones, twos, fours = bitwise_add4(a, b, c, d)
        for i in range(4):
            ssum = nibble_compact(ones, twos, fours, s, i)
            for ii in range(4):
                p = 4 * ii + i
                code = (ssum.astype(np.int64) >> (4 * ii)) & 15
                bit = lambda v: (v.astype(np.int64) >> p) & 1
                brute = 8 * bit(s) + bit(a) + bit(b) + bit(c) + bit(d)
                assert (code == brute).all()

    def test_bad_mask_index_rejected(self):
        z = np.uint16(0)
        with pytest.raises(IndexError):
            nibble_compact(z, z, z, z, 4)
        with pytest.raises(IndexError):
            nibble_compact(z, z, z, z, -1)

    def test_masks_tuple(self):
        assert MASKS == (0x1111, 0x2222, 0x4444, 0x8888)


class NumpyPath:
    """Runs a test class's tests on the numpy bodies that serve where the
    compiled kernels cannot be built."""

    @pytest.fixture(autouse=True)
    def numpy_path(self, monkeypatch):
        monkeypatch.setattr(rng, "_kernel_handle", None)


class TestShiftsNumpyPath(NumpyPath, TestShifts):
    pass


class TestAdd4NumpyPath(NumpyPath, TestAdd4):
    pass


class TestNibbleCompactNumpyPath(NumpyPath, TestNibbleCompact):
    pass


def _on_both_paths(monkeypatch, results):
    """``results()`` on the compiled kernels, then on the numpy bodies."""
    if rng.draw_path() != "native":
        pytest.skip("no compiled kernels on this host")
    runs = []
    for handle in (rng._kernel_handle, None):
        monkeypatch.setattr(rng, "_kernel_handle", handle)
        runs.append(results())
    return runs


def _assert_same(native, numpy_words):
    assert len(native) == len(numpy_words)
    for x, y in zip(native, numpy_words):
        assert np.shape(x) == np.shape(y) and np.asarray(x).dtype == np.asarray(y).dtype
        assert np.array_equal(x, y)


class TestCompiledAgreesWithNumpy:
    @pytest.mark.parametrize("dims, n_sim", [(LatticeDims(4, 32), 2), (LatticeDims(12, 96), 2),
                                             (LatticeDims(128, 128), 3)], ids=str)
    def test_every_quarter_of_a_random_state(self, monkeypatch, dims, n_sim):
        # the strided views get_neighbors makes, halos included
        state = np.random.default_rng(dims.n + n_sim).integers(
            0, 1 << 16, (n_sim, 8, dims.cols, dims.vec_len), dtype=np.uint16)

        def results():
            out = []
            for target, lateral, vertical, up, right in FLIP_RED + FLIP_BLUE:
                neighbors = get_neighbors(state[:, lateral.index], state[:, vertical.index], up, right)
                sums = bitwise_add4(*neighbors)
                interior = state[:, target.index, 1:-1, 1:-1]
                out += [*neighbors, *sums, *(nibble_compact(*sums, interior, i) for i in range(4))]
            return out

        _assert_same(*_on_both_paths(monkeypatch, results))

    def test_vectors_and_single_words(self, monkeypatch):
        gen = np.random.default_rng(11)
        # 1-D vectors of several lengths (vector tails), strided ones, 0-d words
        vectors = [gen.integers(0, 1 << 16, n, dtype=np.uint16) for n in (3, 4, 18, 67, 1030)]
        vectors += [v[::2] for v in vectors if v.size >= 6] + [vectors[-1][::-3]]
        words = [np.uint16(w) for w in gen.integers(0, 1 << 16, 5)]
        _assert_same(*_on_both_paths(monkeypatch, lambda: _vector_results(vectors, words)))

    def test_misaligned_and_packed_words(self, monkeypatch):
        # layouts the compiled loops do not read: an odd address, a field of a
        # packed record (3-byte stride), a strided last axis
        gen = np.random.default_rng(12)
        raw = gen.integers(0, 1 << 8, 2 * 40 + 1, dtype=np.uint8).tobytes()
        packed = np.zeros(40, np.dtype([("tag", np.uint8), ("word", np.uint16)]))
        packed["word"] = gen.integers(0, 1 << 16, 40)
        vectors = [np.frombuffer(raw, np.uint16, offset=1), packed["word"],
                   np.frombuffer(bytes(9), np.uint16, offset=1)]
        words = [vectors[0][i:i + 1].reshape(()) for i in (3, 5, 7, 9)]  # 0-d views
        words.append(packed["word"][8:9].reshape(()))  # at byte 25 of the record array
        assert not any(v.flags.aligned for v in vectors[::2] + words)
        assert packed["word"].strides == (3,)
        _assert_same(*_on_both_paths(monkeypatch, lambda: _vector_results(vectors, words)))


    def test_engine_inputs_run_compiled(self, monkeypatch):
        # every shift, adder and compact of a sweep reads the engine's views in place
        if rng.draw_path() != "native":
            pytest.skip("no compiled kernels on this host")
        ran, run = [], bitkernels._ran
        monkeypatch.setattr(bitkernels, "_ran", lambda *args: ran.append(run(*args)) or ran[-1])
        Engine(LatticeDims(12, 96), [2.0, 2.5], seed=3).sweep()
        assert ran and all(ran)


def _vector_results(vectors, words):
    """Both shifts, the sums and every compact of each 1-D vector, and the
    sums and compacts of five single words."""
    out = []
    for v in vectors:
        planes = [get_bit_above(v), get_bit_below(v), v[1:-1], v[2:], v[:-2]]
        sums = bitwise_add4(*planes[:4])
        out += [*planes[:2], *sums, *(nibble_compact(*sums, planes[4], i) for i in range(4))]
    sums = bitwise_add4(*words[:4])
    return out + [*sums, *(nibble_compact(*sums, words[4], i) for i in range(4))]
