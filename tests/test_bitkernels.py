"""Word-kernel checks: bit traces, exhaustive adder truth, mask coverage.

``TestShifts``, ``TestAdd4`` and ``TestNibbleCompact`` run the numpy
``bitkernels`` functions; their ``EnginePath`` copies run the engine's kernel
names, which call the compiled kernels where they build.
``TestCompiledAgreesWithNumpy`` compares the two on the engine's views.
"""

import numpy as np
import pytest

import multispin.engine as engine_mod
from multispin import bitkernels, rng
from multispin.bitkernels import MASKS
from multispin.engine import FLIP_BLUE, FLIP_RED
from multispin.lattice import LatticeDims

KERNEL_NAMES = ("get_bit_above", "get_bit_below", "bitwise_add4", "nibble_compact")


def u16(*values):
    return np.array(values, dtype=np.uint16)


def _rejects(kernels, numpy_error):
    """``pytest.raises`` for a bad argument to ``kernels``: the compiled entry
    points raise ValueError for any input they cannot read, the numpy bodies
    ``numpy_error``."""
    compiled = kernels is engine_mod and rng._kernel() is not None
    return pytest.raises(ValueError if compiled else numpy_error)


class TestShifts:
    kernels = bitkernels

    def test_bit_above_trace(self):
        # bit 15 arrives from the word above, bits 0..14 shift down
        assert self.kernels.get_bit_above(u16(0x0000, 0x0003, 0x0001)).tolist() == [0x8001]

    def test_bit_below_trace(self):
        assert self.kernels.get_bit_below(u16(0x8000, 0xC000, 0x0000)).tolist() == [0x8001]

    @pytest.mark.parametrize("name", ["get_bit_above", "get_bit_below"])
    def test_saturation_and_zero(self, name):
        func = getattr(self.kernels, name)
        assert func(u16(0xFFFF, 0xFFFF, 0xFFFF)).tolist() == [0xFFFF]
        assert func(u16(0, 0, 0, 0, 0)).tolist() == [0, 0, 0]

    @pytest.mark.parametrize("name", ["get_bit_above", "get_bit_below"])
    def test_too_short_rejected(self, name):
        func = getattr(self.kernels, name)
        with pytest.raises(ValueError):
            func(u16(1, 2))

    @pytest.mark.parametrize("name", ["get_bit_above", "get_bit_below"])
    def test_wrong_dtype_rejected(self, name):
        func = getattr(self.kernels, name)
        with _rejects(self.kernels, TypeError):
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
            assert (self.kernels.get_bit_above(v) == repack(above)[1:-1]).all()
            assert (self.kernels.get_bit_below(v) == repack(below)[1:-1]).all()

    def test_multidimensional_last_axis(self):
        v = np.arange(24, dtype=np.uint16).reshape(2, 3, 4)
        out = self.kernels.get_bit_above(v)
        assert out.shape == (2, 3, 2)
        assert (out[1, 2] == self.kernels.get_bit_above(v[1, 2])).all()


class TestAdd4:
    kernels = bitkernels

    def test_exhaustive_all_input_combinations(self):
        # One word per operand bit: lane q of (a, b, c, d) spells out q's
        # bits, covering all 16 combinations at once.
        a, b, c, d = (u16(x)[0] for x in (0xFF00, 0xF0F0, 0xCCCC, 0xAAAA))
        ones, twos, fours = self.kernels.bitwise_add4(a, b, c, d)
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
        ones, twos, fours = self.kernels.bitwise_add4(*full)
        want = tuple(np.uint16(0xFFFF * e) for e in expected)
        assert (ones, twos, fours) == want

    def test_random_vectors_match_integer_addition(self):
        rng = np.random.default_rng(7)
        a, b, c, d = (rng.integers(0, 1 << 16, size=64).astype(np.uint16) for _ in range(4))
        ones, twos, fours = self.kernels.bitwise_add4(a, b, c, d)
        for lane in range(16):
            bit = lambda v: (v.astype(np.int32) >> lane) & 1
            total = bit(a) + bit(b) + bit(c) + bit(d)
            assert (bit(ones) + 2 * bit(twos) + 4 * bit(fours) == total).all()

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            self.kernels.bitwise_add4(u16(1, 2), u16(1, 2), u16(1, 2), u16(1, 2, 3))


class TestNibbleCompact:
    kernels = bitkernels

    def test_own_spin_lands_in_eights_place(self):
        zero = np.uint16(0)
        assert self.kernels.nibble_compact(zero, zero, zero, np.uint16(0xFFFF), 0) == 0x8888

    def test_mask_selection(self):
        zero = np.uint16(0)
        assert self.kernels.nibble_compact(np.uint16(0xFFFF), zero, zero, zero, 3) == 0x1111

    def test_fields_encode_code_for_random_inputs(self):
        rng = np.random.default_rng(42)
        a, b, c, d, s = (rng.integers(0, 1 << 16, size=32).astype(np.uint16) for _ in range(5))
        ones, twos, fours = self.kernels.bitwise_add4(a, b, c, d)
        for i in range(4):
            ssum = self.kernels.nibble_compact(ones, twos, fours, s, i)
            for ii in range(4):
                p = 4 * ii + i
                code = (ssum.astype(np.int64) >> (4 * ii)) & 15
                bit = lambda v: (v.astype(np.int64) >> p) & 1
                brute = 8 * bit(s) + bit(a) + bit(b) + bit(c) + bit(d)
                assert (code == brute).all()

    def test_bad_mask_index_rejected(self):
        z = np.uint16(0)
        with _rejects(self.kernels, IndexError):
            self.kernels.nibble_compact(z, z, z, z, 4)
        with _rejects(self.kernels, IndexError):
            self.kernels.nibble_compact(z, z, z, z, -1)


class TestMasks:
    def test_positions_form_permutation(self):
        # (i, ii) pairs cover each of the 16 bit positions exactly once.
        positions = sorted(4 * ii + i for i in range(4) for ii in range(4))
        assert positions == list(range(16))

    def test_masks_tuple(self):
        assert MASKS == (0x1111, 0x2222, 0x4444, 0x8888)


class EnginePath:
    """Runs a test class's tests on the engine's kernel names, which call the
    compiled kernels where they are built and the numpy bodies otherwise."""

    kernels = engine_mod


class TestShiftsEnginePath(EnginePath, TestShifts):
    pass


class TestAdd4EnginePath(EnginePath, TestAdd4):
    pass


class TestNibbleCompactEnginePath(EnginePath, TestNibbleCompact):
    pass


def _on_both_paths(monkeypatch, results):
    """``results()`` through the engine's kernel names on the compiled kernels,
    then with those names bound to the ``bitkernels`` functions."""
    if rng.draw_path() != "native":
        pytest.skip("no compiled kernels on this host")
    runs = [results()]
    for name in KERNEL_NAMES:
        monkeypatch.setattr(engine_mod, name, getattr(bitkernels, name))
    return runs + [results()]


def _assert_same(native, numpy_words):
    assert len(native) == len(numpy_words)
    for x, y in zip(native, numpy_words):
        assert np.shape(x) == np.shape(y) and np.asarray(x).dtype == np.asarray(y).dtype
        assert np.array_equal(x, y)


class TestCompiledAgreesWithNumpy:
    @pytest.mark.parametrize("dims, n_sim", [(LatticeDims(4, 32), 2), (LatticeDims(12, 96), 2),
                                             (LatticeDims(128, 128), 3), (LatticeDims(256, 256), 2),
                                             (LatticeDims(12, 96), None)],
                             ids=str)
    def test_every_quarter_of_a_random_state(self, monkeypatch, dims, n_sim):
        # the strided views get_neighbors makes, halos included; n_sim None is
        # one simulation's 2-D matrices, as Engine.packed and pack give them
        lead = () if n_sim is None else (n_sim,)
        state = np.random.default_rng(dims.n + (n_sim or 0)).integers(
            0, 1 << 16, (*lead, 8, dims.cols, dims.vec_len), dtype=np.uint16)

        def results():
            out = []
            for target, lateral, vertical, up, right in FLIP_RED + FLIP_BLUE:
                neighbors = engine_mod.get_neighbors(state[..., lateral.index, :, :],
                                                     state[..., vertical.index, :, :], up, right)
                sums = engine_mod.bitwise_add4(*neighbors)
                interior = state[..., target.index, 1:-1, 1:-1]
                out += [*neighbors, *sums,
                        *(engine_mod.nibble_compact(*sums, interior, i) for i in range(4))]
            return out

        _assert_same(*_on_both_paths(monkeypatch, results))

    def test_vectors_and_single_words(self, monkeypatch):
        # contiguous 1-D vectors of several lengths (vector tails) and 0-d words
        gen = np.random.default_rng(11)
        vectors = [gen.integers(0, 1 << 16, n, dtype=np.uint16) for n in (3, 4, 18, 67, 1030)]
        words = [np.uint16(w) for w in gen.integers(0, 1 << 16, 5)]

        def results():
            out = []
            for v in vectors:
                planes = [engine_mod.get_bit_above(v), engine_mod.get_bit_below(v),
                          v[1:-1], v[2:], v[:-2]]
                sums = engine_mod.bitwise_add4(*planes[:4])
                out += [*planes[:2], *sums,
                        *(engine_mod.nibble_compact(*sums, planes[4], i) for i in range(4))]
            sums = engine_mod.bitwise_add4(*words[:4])
            return out + [*sums, *(engine_mod.nibble_compact(*sums, words[4], i) for i in range(4))]

        _assert_same(*_on_both_paths(monkeypatch, results))

    @pytest.mark.parametrize("width", [1, 7, 8, 9, 31, 32, 33, 40])
    def test_row_widths_on_reversed_and_stepped_views(self, monkeypatch, width):
        # every split of a row into 32-, 8- and 1-word passes, on rows the
        # compiled loops reach by stepping leading axes backwards and two
        # at a time, so that every carry between them is compared too; the
        # next two views' runs along the last leading axis hold one row and
        # none, and the last view has no rows
        gen = np.random.default_rng(width)
        base3 = gen.integers(0, 1 << 16, (3, 5, width + 4), dtype=np.uint16)
        base4 = gen.integers(0, 1 << 16, (3, 4, 3, width + 4), dtype=np.uint16)
        views = [base3[::-1, ::2, 1:-1], base4[::-1, ::2, ::-1, 1:-1], base4[::-1, ::2, 1:2, 1:-1],
                 base4[::-1, ::2, :0, 1:-1], base4[:, :0, ..., 1:-1]]

        def results():
            out = []
            for v in views:
                planes = [v[..., :-2], v[..., 1:-1], v[..., 2:]]
                shifted = [engine_mod.get_bit_above(v), engine_mod.get_bit_below(v)]
                sums = engine_mod.bitwise_add4(*planes, shifted[0])
                strided = engine_mod.bitwise_add4(*planes, planes[0])
                out += [*shifted, *sums, *strided,
                        *(engine_mod.nibble_compact(*sums, planes[1], i) for i in range(4)),
                        *(engine_mod.nibble_compact(*planes, planes[1], i) for i in range(4))]
            return out

        _assert_same(*_on_both_paths(monkeypatch, results))


def _unreadable_words():
    """Word vectors the compiled loops cannot read in place, by layout name."""
    gen = np.random.default_rng(12)
    raw = gen.integers(0, 1 << 8, 2 * 40 + 1, dtype=np.uint8).tobytes()
    packed = np.zeros(40, np.dtype([("tag", np.uint8), ("word", np.uint16)]))
    packed["word"] = gen.integers(0, 1 << 16, 40)
    return {"odd_address": np.frombuffer(raw, np.uint16, offset=1),
            "packed_record_field": packed["word"],
            "strided_last_axis": gen.integers(0, 1 << 16, 80, dtype=np.uint16)[::2]}


class TestCompiledRejectsUnreadableLayouts:
    """The engine's names pass their arguments to the compiled kernels as they
    are, with no copy to a readable layout; a layout the loops cannot read is
    refused rather than misread."""

    @pytest.mark.parametrize("layout", sorted(_unreadable_words()))
    def test_every_entry_point_refuses(self, layout):
        if rng.draw_path() != "native":
            pytest.skip("no compiled kernels on this host")
        v = _unreadable_words()[layout]
        good = np.zeros(v.shape, np.uint16)
        assert np.array_equal(bitkernels.get_bit_above(v), bitkernels.get_bit_above(v.copy()))
        for call in (lambda: engine_mod.get_bit_above(v), lambda: engine_mod.get_bit_below(v),
                     lambda: engine_mod.bitwise_add4(good, good, good, v),
                     lambda: engine_mod.nibble_compact(good, good, good, v, 0)):
            with pytest.raises(ValueError):
                call()

    def test_engine_names_run_numpy_without_the_compiled_kernels(self, monkeypatch):
        # with no module built, the same layouts run on the bitkernels bodies
        monkeypatch.setattr(rng, "_kernel_handle", None)
        for v in _unreadable_words().values():
            sums = engine_mod.bitwise_add4(v, v, v, v)
            _assert_same([engine_mod.get_bit_above(v), engine_mod.get_bit_below(v), *sums,
                          engine_mod.nibble_compact(*sums, v, 1)],
                         [bitkernels.get_bit_above(v), bitkernels.get_bit_below(v),
                          *bitkernels.bitwise_add4(v, v, v, v),
                          bitkernels.nibble_compact(*bitkernels.bitwise_add4(v, v, v, v), v, 1)])
