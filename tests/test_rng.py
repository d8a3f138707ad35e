"""Generator fidelity, float shaping, and the randomness battery."""

import shutil
import sys
import sysconfig
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.special import erfc, gammaincc

import multispin.engine as engine_mod
from multispin import rng
from multispin.engine import Engine
from multispin.lattice import LatticeDims
from multispin.rng import (
    ALPHA,
    HistogramReport,
    Xoshiro256pp,
    XoshiroStreams,
    cusum_test,
    block_frequency_test,
    frequency_histogram,
    lag1_joint,
    load_bitstream,
    longest_run_test,
    median_threshold_bits,
    monobit_test,
    run_battery,
    runs_test,
    draw_path,
    shape_unit_float,
    stream_state,
    stream_states,
)

# --- independent scalar oracle (published recurrences, fresh code) ----------

_M = (1 << 64) - 1
_G = 0x9E3779B97F4B7C15


def _mix(z):
    z &= _M
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M
    return z ^ (z >> 31)


def _oracle_state(master, stream):
    z = _mix(master + (stream + 1) * _G)
    state = []
    for _ in range(4):
        z = (z + _G) & _M
        state.append(_mix(z))
    return state


def _oracle_step(s):
    def rotl(x, k):
        return ((x << k) | (x >> (64 - k))) & _M

    out = (rotl((s[0] + s[3]) & _M, 23) + s[0]) & _M
    t = (s[1] << 17) & _M
    s[2] ^= s[0]
    s[3] ^= s[1]
    s[1] ^= s[2]
    s[0] ^= s[3]
    s[2] ^= t
    s[3] = rotl(s[3], 45)
    return out


# Frozen from the oracle above for master seed 2024.
_EXPECTED_STREAM0 = (0x86D95BF4F1DD0948, 0xADCECCE57B048C06, 0x256F9DEF8049C702)
_EXPECTED_STREAM1 = (0x83E08DC6985220E4, 0xEBC87A6F24164789)


class TestGenerator:
    def test_frozen_reference_outputs(self):
        gen = Xoshiro256pp(2024, stream=0)
        assert tuple(gen.next_raw64() for _ in range(3)) == _EXPECTED_STREAM0
        gen1 = Xoshiro256pp(2024, stream=1)
        assert tuple(gen1.next_raw64() for _ in range(2)) == _EXPECTED_STREAM1

    def test_matches_oracle_recurrence(self):
        for master, stream in ((2024, 0), (7, 13), (0xDEADBEEF, 999)):
            s = _oracle_state(master, stream)
            gen = Xoshiro256pp(master, stream=stream)
            for _ in range(64):
                assert gen.next_raw64() == _oracle_step(s)

    def test_determinism(self):
        a = Xoshiro256pp(5, stream=3)
        b = Xoshiro256pp(5, stream=3)
        assert [a.next_raw64() for _ in range(10)] == [b.next_raw64() for _ in range(10)]

    def test_streams_differ(self):
        assert Xoshiro256pp(5, 0).next_raw64() != Xoshiro256pp(5, 1).next_raw64()

    def test_state_never_all_zero(self):
        assert any(stream_state(0, 0))

    def test_next_bits_range_and_consumption(self):
        gen = Xoshiro256pp(2024)
        top8 = gen.next_bits(8)
        assert top8 == _EXPECTED_STREAM0[0] >> 56
        # one full output consumed regardless of k
        assert gen.next_raw64() == _EXPECTED_STREAM0[1]
        with pytest.raises(ValueError):
            gen.next_bits(0)
        with pytest.raises(ValueError):
            gen.next_bits(65)

    def test_bulk_matches_scalar(self):
        gen = Xoshiro256pp(11, 4)
        bulk = gen.raw64(100)
        gen2 = Xoshiro256pp(11, 4)
        assert bulk.tolist() == [gen2.next_raw64() for _ in range(100)]
        floats = Xoshiro256pp(11, 4).unit_floats(100)
        gen3 = Xoshiro256pp(11, 4)
        assert floats.tolist() == [gen3.next_unit_float() for _ in range(100)]

    def test_bits_match_next_bits(self):
        stream = Xoshiro256pp(3, 0).bits(256)
        gen = Xoshiro256pp(3, 0)
        words = [gen.next_bits(64) for _ in range(4)]
        manual = [int(w) >> (63 - k) & 1 for w in words for k in range(64)]
        assert stream.tolist() == manual


def _halves(raw):
    """The unit_block rows of uint64 outputs: high then low 23-bit half of each."""
    return np.stack([raw >> np.uint64(32), raw], axis=1).ravel() & np.uint64(0x7FFFFF)


class TestStreamSet:
    def test_columns_are_stream_sequences(self):
        streams = XoshiroStreams(2024, 4, first_stream=0)
        block = streams.raw_block(6)
        for j in range(4):
            gen = Xoshiro256pp(2024, stream=j)
            assert block[:, j].tolist() == [gen.next_raw64() for _ in range(6)]

    def test_negative_first_stream_rejected(self):
        with pytest.raises(ValueError, match="first_stream must be at least 0, got -1"):
            XoshiroStreams(1, 8, first_stream=-1)

    def test_streams_past_2_64_rejected(self):
        for first_stream in ((1 << 64) - 7, 1 << 64, 1 << 70):
            with pytest.raises(ValueError, match=f"first_stream {first_stream} leaves no room"):
                XoshiroStreams(1, 8, first_stream=first_stream)
        # the last eight streams there are still run
        block = XoshiroStreams(1, 8, first_stream=(1 << 64) - 8).unit_block(4)
        for j in (0, 7):
            want = _halves(Xoshiro256pp(1, (1 << 64) - 8 + j).raw64(2))
            assert block[:, j].tolist() == want.tolist()

    @pytest.mark.parametrize("master_seed", [0, (1 << 64) - 1])
    @pytest.mark.parametrize("first_stream", [0, 1 << 48])
    def test_stream_states_match_stream_state(self, master_seed, first_stream):
        states = stream_states(master_seed, first_stream, 64)
        assert states.shape == (4, 64) and states.dtype == np.uint64
        for j in range(64):
            assert states[:, j].tolist() == stream_state(master_seed, first_stream + j)

    @pytest.mark.parametrize("n_streams", [1, 7, 40])
    def test_columns_match_scalar_streams_over_blocks(self, n_streams):
        streams = XoshiroStreams(99, n_streams, first_stream=5)
        blocks = [streams.raw_block(count) for count in (40, 3)]
        for j in range(n_streams):
            gen = Xoshiro256pp(99, stream=5 + j)
            for block in blocks:
                assert block[:, j].tolist() == gen.raw64(block.shape[0]).tolist()

    @pytest.mark.parametrize("n_streams", [1, 7, 40])
    def test_unit_block_takes_high_then_low_half(self, n_streams):
        streams = XoshiroStreams(99, n_streams, first_stream=5)
        # an even count, then an odd one that drops its last low half
        blocks = [streams.unit_block(count).copy() for count in (40, 7)]
        for j in range(n_streams):
            halves = _halves(Xoshiro256pp(99, stream=5 + j).raw64(24))
            assert blocks[0][:, j].tolist() == halves[:40].tolist()
            assert blocks[1][:, j].tolist() == halves[40:47].tolist()

    def test_unit_block_reuses_its_buffer(self):
        streams = XoshiroStreams(3, 40)
        first = streams.unit_block(64)
        second = streams.unit_block(64)
        assert np.shares_memory(first, second)
        assert first.shape == (64, 40) and first.dtype == np.uint32
        # a narrower range and an odd count after it: the same buffer
        third = streams.unit_block(7, 5, 38)
        assert third.shape == (7, 33) and np.shares_memory(third, streams._k)

    @pytest.mark.parametrize("width", [1, 7, 8, 9, 37, 4096, 8192])
    @pytest.mark.parametrize("counts", [(6, 4), (5, 3)], ids=["even", "odd"])
    def test_unit_block_columns_are_scalar_streams(self, width, counts):
        # 8-lane passes and a tail of width % 8 streams, from a column range
        # whose start is not a multiple of 8; a second block must go on
        # from the states the first one left
        lo = 3
        streams = XoshiroStreams(41, lo + width + 5, first_stream=2)
        blocks = [streams.unit_block(count, lo, lo + width).copy() for count in counts]
        for j in range(width):
            gen = Xoshiro256pp(41, 2 + lo + j)
            for block in blocks:
                halves = _halves(gen.raw64(-(-block.shape[0] // 2)))
                assert block[:, j].tolist() == halves[: block.shape[0]].tolist()

    @pytest.mark.parametrize("count", [-1, -3])
    def test_unit_block_rejects_negative_count(self, count):
        streams = XoshiroStreams(8, 40)
        with pytest.raises(ValueError, match=f"count must be at least 0, got {count}"):
            streams.unit_block(count)
        assert streams.unit_block(0, 2, 10).shape == (0, 8)

    @pytest.mark.parametrize("lo, hi", [(0, 40), (0, 1), (13, 27), (39, 40)])
    def test_unit_block_range_is_full_block_columns(self, lo, hi):
        ranged = XoshiroStreams(8, 40, first_stream=3)
        full = XoshiroStreams(8, 40, first_stream=3)
        for _ in range(2):
            assert (ranged.unit_block(16, lo, hi) == full.unit_block(16)[:, lo:hi]).all()
        # streams outside the range did not step
        rest = np.r_[0:lo, hi:40]
        fresh = XoshiroStreams(8, 40, first_stream=3).unit_block(16)[:, rest].copy()
        assert (ranged.unit_block(16)[:, rest] == fresh).all()

    @pytest.mark.parametrize("lo, hi", [(-1, 4), (3, 3), (5, 2), (0, 41)])
    def test_unit_block_rejects_bad_range(self, lo, hi):
        with pytest.raises(ValueError, match="stream range"):
            XoshiroStreams(8, 40).unit_block(16, lo, hi)

    def test_offset_slices_reproduce_full_run(self):
        full = XoshiroStreams(13, 6).unit_block(5)
        left = XoshiroStreams(13, 2, first_stream=0).unit_block(5)
        right = XoshiroStreams(13, 4, first_stream=2).unit_block(5)
        assert (np.hstack([left, right]) == full).all()

    def test_native_path_is_active_with_a_compiler(self):
        if shutil.which("cc") is None:
            pytest.skip("no C compiler")
        assert draw_path() == "native"

    def _fresh_build_draws(self, monkeypatch):
        """The path a unit_block call that builds the kernel anew takes; its draws must be right."""
        monkeypatch.setattr(rng, "_kernel_handle", rng._UNBUILT)
        block = XoshiroStreams(99, 40, first_stream=5).unit_block(7, 3, 40)
        for j in (0, 20, 36):
            assert block[:, j].tolist() == _halves(Xoshiro256pp(99, 8 + j).raw64(4))[:7].tolist()
        return draw_path()

    def test_failed_compile_falls_back_to_same_draws(self, monkeypatch):
        monkeypatch.setattr(rng, "_CC", ("/nonexistent/cc", *rng._CC[1:]))
        assert self._fresh_build_draws(monkeypatch) == "numpy"

    @pytest.mark.parametrize("before, after, copies", [
        # one draw bit too few in both halves of the one step both passes run
        ("0x7FFFFF;", "0x3FFFFF;", 2),
        # the 8-lane pass leaves the fourth state word unstepped
        ("LANES(s3) = d;", "", 1),
    ], ids=["draw-bits", "vector-write-back"])
    def test_kernel_failing_its_check_is_not_used(self, monkeypatch, before, after, copies):
        if shutil.which("cc") is None:
            pytest.skip("no C compiler")
        # each mutant still compiles and loads
        assert rng._KERNEL_C.count(before) == copies
        broken = rng._KERNEL_C.replace(before, after)
        monkeypatch.setattr(rng, "_KERNEL_C", broken)
        checks = []
        matches = rng._kernel_matches
        monkeypatch.setattr(rng, "_kernel_matches", lambda k: checks.append(matches(k)) or checks[-1])
        assert self._fresh_build_draws(monkeypatch) == "numpy"
        assert checks == [False]  # it was built and loaded, and the check turned it down

    def test_missing_python_headers_fall_back_to_same_draws(self, monkeypatch, tmp_path):
        if shutil.which("cc") is None:
            pytest.skip("no C compiler")
        # an include directory without Python.h: the extension cannot compile
        monkeypatch.setattr(sysconfig, "get_path", lambda name, *args, **kwargs: str(tmp_path))
        assert self._fresh_build_draws(monkeypatch) == "numpy"

    @pytest.mark.parametrize("before, after", [
        # a draw equal to its code's limit accepts
        ("draws < limit", "draws <= limit"),
        # the padded tail's flips stay in the tail copy
        ("memcpy(flipped + j, fpad, tail * sizeof *fpad);", ""),
        # bit 15 of the upward shift lands on bit 14
        ("<< 15 |", "<< 14 |"),
        # the flips go one word off, the last into the halo
        ("t[w] ^= f[w];", "t[w + 1] ^= f[w];"),
        # one flip too many is counted
        ("__builtin_popcount(f[w]);", "__builtin_popcount(f[w]) + (s + c + w == 0);"),
        # the twos plane carries on either pair's bit rather than both, in
        # the one adder body every row width runs
        ("(s1 & s2)", "(s1 | s2)"),
        # a run's end does not carry into the axis before: every run walks
        # the first simulation's rows again
        ("ax = r->lead - 2", "ax = r->lead - 3"),
    ], ids=["accept-level", "tail-copy", "shift-bit", "target-word", "flip-count", "adder-twos",
            "run-carry"])
    def test_quarter_kernel_failing_its_check_is_not_used(self, monkeypatch, before, after):
        # each mutant compiles, loads and steps the draws right, so only the
        # quarter check can turn it down; the sweeps then run numpy
        if shutil.which("cc") is None:
            pytest.skip("no C compiler")
        dims = LatticeDims(12, 96)

        def sweep_states():
            eng = Engine(dims, [1e-6, 2.3, 1e6], seed=5, coupling=-0.7)
            for _ in range(3):
                eng.sweep()
            return eng.state, eng.flips

        want_state, want_flips = sweep_states()
        assert rng._KERNEL_C.count(before) == 1
        monkeypatch.setattr(rng, "_KERNEL_C", rng._KERNEL_C.replace(before, after))
        checks = []
        matches = engine_mod._compiled_matches
        monkeypatch.setattr(engine_mod, "_compiled_matches",
                            lambda k: checks.append(matches(k)) or checks[-1])
        assert self._fresh_build_draws(monkeypatch) == "numpy"
        assert checks == [False]  # it was built and loaded, and the check turned it down
        state, flips = sweep_states()
        assert (state == want_state).all() and flips == want_flips

    def test_compiled_entry_points_check_their_arrays(self):
        # each entry point takes a valid call, and ValueError for one wrong array
        if draw_path() != "native":
            pytest.skip("no compiled kernels on this host")
        kernel = rng._kernel()
        words = np.zeros((2, 3, 8), np.uint16)
        strided = np.zeros((2, 3, 16), np.uint16)[..., ::2]  # words two apart within a row
        misaligned = np.frombuffer(bytes(97), np.uint16, offset=1).reshape(words.shape)
        calls = {
            kernel.unit_block: [stream_states(1, 0, 8), 2, 8, 2, np.empty((4, 6), np.uint32)],
            kernel.shift: [words, np.empty((2, 3, 6), np.uint16), True],
            kernel.bitwise_add4: [words, words, words, words, np.empty((3, 2, 3, 8), np.uint16)],
            kernel.nibble_compact: [words, words, words, words, 3, np.empty((2, 3, 8), np.uint16)],
            # draw rows 16 words further apart than a row, as unit_block's are
            kernel.accept: [np.zeros((16, 64), np.uint32)[:, :48].reshape(16, 2, 3, 8),
                            *[words] * 4,
                            np.zeros((2, 4, 1, 1), np.uint32), np.zeros((3, 4, 1, 1), np.uint16), 2,
                            np.zeros((2, 5, 10), np.uint16)[:, 1:-1, 1:-1], np.empty(24, np.uint16)],
        }
        wrong = [
            (kernel.unit_block, 0, stream_states(1, 0, 8)[:3]),  # not four state words
            (kernel.unit_block, 1, 8),  # empty range
            (kernel.unit_block, 4, np.empty((3, 6), np.uint32)),  # too few rows
            (kernel.unit_block, 4, np.empty((4, 5), np.uint32)),  # too narrow
            (kernel.unit_block, 4, np.empty((4, 8), np.uint32)[:, :6]),  # not C-contiguous
            (kernel.unit_block, 4, np.empty(24, np.uint32)),  # flat
            (kernel.unit_block, 4, np.empty((4, 6), np.uint16)),  # wrong item size
            (kernel.shift, 1, np.empty((2, 3, 7), np.uint16)),
            (kernel.shift, 1, np.empty((2, 3, 12), np.uint16)[..., ::2]),  # strided output
            (kernel.shift, 0, strided),
            (kernel.shift, 0, misaligned),
            (kernel.bitwise_add4, 2, strided),
            (kernel.bitwise_add4, 1, misaligned),
            (kernel.nibble_compact, 3, strided),
            (kernel.nibble_compact, 0, misaligned),
            (kernel.bitwise_add4, 3, words[:, :2]),
            (kernel.bitwise_add4, 0, words.astype(np.uint32)),
            (kernel.nibble_compact, 4, 4),  # offset outside [0, 4)
            (kernel.nibble_compact, 2, words[..., :7]),
            (kernel.accept, 0, np.zeros((16, 2, 3, 7), np.uint32)),
            (kernel.accept, 0, np.zeros((16, 2, 3, 16), np.uint32)[..., ::2]),  # strided words
            (kernel.accept, 0, np.zeros((16, 3, 3, 8), np.uint32)[:, ::-1][:, 1:]),  # reversed
            # rows 47 words apart, one short of a row
            (kernel.accept, 0, np.lib.stride_tricks.as_strided(
                np.zeros(16 * 48, np.uint32), (16, 2, 3, 8), (4 * 47, 96, 32, 4))),
            (kernel.accept, 1, words[:, :, ::-1]),  # a compact must be C-contiguous
            (kernel.accept, 6, np.zeros((2, 4, 1, 1), np.uint16)),  # masks of two rows
            (kernel.accept, 7, 3),  # simulations [3, 5) of 4
            (kernel.accept, 8, np.zeros((2, 5, 20), np.uint16)[:, 1:-1, 2:-2:2]),  # strided words
            (kernel.accept, 9, np.empty(23, np.uint16)),  # scratch too small
        ]
        for entry, args in calls.items():
            entry(*args)
        for entry, position, value in wrong:
            args = list(calls[entry])
            args[position] = value
            with pytest.raises(ValueError, match="wrong shape or layout|unsigned"):
                entry(*args)

    def test_concurrent_first_blocks_build_once(self, monkeypatch):
        # engine slices draw from worker threads; the first blocks race to build
        monkeypatch.setattr(rng, "_kernel_handle", rng._UNBUILT)
        builds = []
        build = rng._build_kernel
        monkeypatch.setattr(rng, "_build_kernel", lambda: builds.append(1) or build())
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                blocks = list(pool.map(
                    lambda s: XoshiroStreams(99, 3, first_stream=s).unit_block(7).copy(),
                    range(6), timeout=120))
        finally:
            sys.setswitchinterval(switch)
        assert len(builds) == 1
        for s, block in enumerate(blocks):
            for j in range(3):
                assert block[:, j].tolist() == _halves(Xoshiro256pp(99, s + j).raw64(4))[:7].tolist()

    def test_stream_cross_correlation_small(self):
        block = XoshiroStreams(21, 2).unit_block(100_000)
        x, y = block[:, 0], block[:, 1]
        corr = np.corrcoef(x, y)[0, 1]
        assert abs(corr) < 0.01


class TestUnitBlockNumpyStep:
    """``TestStreamSet``'s ``unit_block`` tests again, on the numpy step that runs
    where the draw kernel cannot be built (``TestStreamSet`` runs the active path)."""

    @pytest.fixture(autouse=True)
    def numpy_step(self, monkeypatch):
        monkeypatch.setattr(rng, "_kernel_handle", None)

    test_unit_block_takes_high_then_low_half = TestStreamSet.test_unit_block_takes_high_then_low_half
    test_unit_block_reuses_its_buffer = TestStreamSet.test_unit_block_reuses_its_buffer
    test_unit_block_range_is_full_block_columns = TestStreamSet.test_unit_block_range_is_full_block_columns
    test_offset_slices_reproduce_full_run = TestStreamSet.test_offset_slices_reproduce_full_run
    test_unit_block_columns_are_scalar_streams = TestStreamSet.test_unit_block_columns_are_scalar_streams
    test_unit_block_rejects_negative_count = TestStreamSet.test_unit_block_rejects_negative_count


class TestShaping:
    def test_edge_patterns(self):
        assert shape_unit_float(0) == 0.0
        assert shape_unit_float(0x7FFFFF) == pytest.approx(1 - 2.0 ** -23, abs=0)
        assert shape_unit_float(0x00400000) == 0.5

    def test_high_bits_discarded(self):
        assert shape_unit_float(0xFF800000) == 0.0
        assert shape_unit_float(0xFFFFFFFF) == shape_unit_float(0x7FFFFF)

    def test_always_in_unit_interval(self):
        rng = np.random.default_rng(3)
        raw = rng.integers(0, 1 << 32, size=100_000, dtype=np.int64).astype(np.uint32)
        vals = shape_unit_float(raw)
        assert (vals >= 0.0).all() and (vals < 1.0).all()

    def test_bit_pattern_equals_mantissa_scaling(self):
        rng = np.random.default_rng(4)
        raw = rng.integers(0, 1 << 32, size=50_000, dtype=np.int64).astype(np.uint32)
        direct = (raw & np.uint32(0x7FFFFF)).astype(np.float64) * 2.0 ** -23
        assert (shape_unit_float(raw) == direct).all()

    def test_generator_floats_use_top_chunk(self):
        gen = Xoshiro256pp(2024)
        raw = gen.next_raw64()
        assert Xoshiro256pp(2024).next_unit_float() == shape_unit_float(raw >> 32)


class TestBattery:
    def test_monobit_known_statistic(self):
        bits = np.concatenate([np.ones(58, np.uint8), np.zeros(42, np.uint8)])
        report = monobit_test(bits)
        assert report.p_value == pytest.approx(float(erfc(1.6 / np.sqrt(2))), rel=1e-12)
        assert report.p_value == pytest.approx(0.1095986, abs=1e-7)
        assert report.passed

    def test_monobit_balanced_alternation(self):
        bits = np.tile([0, 1], 500_000).astype(np.uint8)
        assert monobit_test(bits).p_value == pytest.approx(1.0)
        # ...but the runs test sees maximal dependence
        assert runs_test(bits).p_value < 1e-10

    def test_monobit_all_zero_fails(self):
        assert not monobit_test(np.zeros(1000, np.uint8)).passed

    def test_block_frequency_matches_direct_chi_square(self):
        rng = np.random.default_rng(8)
        bits = rng.integers(0, 2, size=1000).astype(np.uint8)
        report = block_frequency_test(bits, block_size=100)
        pi = bits.reshape(10, 100).mean(axis=1)
        chi2 = 4.0 * 100 * ((pi - 0.5) ** 2).sum()
        assert report.p_value == pytest.approx(float(gammaincc(5.0, chi2 / 2.0)), rel=1e-12)

    def test_block_frequency_homogeneous_blocks(self):
        bits = np.tile([1, 0], 200).astype(np.uint8)
        assert block_frequency_test(bits, block_size=40).p_value == pytest.approx(1.0)

    def test_runs_prerequisite_shortcut(self):
        bits = np.concatenate([np.ones(90, np.uint8), np.zeros(10, np.uint8)])
        assert runs_test(bits).p_value == 0.0

    def test_longest_run_standard_example(self):
        eps = (
            "11001100000101010110110001001100111000000000001001"
            "00110101010001000100111101011010000000110101111100"
            "1100111001101101100010110010"
        )
        bits = np.array([int(c) for c in eps], dtype=np.uint8)
        # Published worked value for this 128-bit sequence is 0.180609 with
        # the rounded category probabilities of the reference tables.
        assert longest_run_test(bits).p_value == pytest.approx(0.180609, abs=5e-4)

    def test_cusum_directions_differ(self):
        rng = np.random.default_rng(9)
        bits = rng.integers(0, 2, size=5000).astype(np.uint8)
        fwd = cusum_test(bits)
        bwd = cusum_test(bits, reverse=True)
        assert fwd.name != bwd.name
        rev = cusum_test(bits[::-1])
        assert rev.p_value == pytest.approx(bwd.p_value)

    def test_cusum_biased_walk_fails(self):
        bits = np.concatenate([np.ones(600, np.uint8), np.zeros(400, np.uint8)])
        assert not cusum_test(bits).passed

    @pytest.mark.parametrize(
        "func,minimum",
        [
            (monobit_test, 100),
            (runs_test, 100),
            (longest_run_test, 128),
            (cusum_test, 100),
            (block_frequency_test, 100),
        ],
    )
    def test_minimum_lengths_enforced(self, func, minimum):
        with pytest.raises(ValueError, match=str(minimum)):
            func(np.ones(minimum - 1, np.uint8))

    def test_battery_passes_on_generator_bits(self):
        bits = Xoshiro256pp(2718).bits(1_000_000)
        reports = run_battery(bits)
        assert len(reports) == 6
        for report in reports:
            assert report.passed, f"{report.name}: p={report.p_value}"

    def test_bad_bit_values_rejected(self):
        with pytest.raises(ValueError):
            monobit_test(np.full(200, 2, np.uint8))


class TestFloatChecks:
    def test_histogram_spread_of_uniform_sample(self):
        floats = Xoshiro256pp(31).unit_floats(1_000_000)
        report = frequency_histogram(floats, 0.01)
        assert isinstance(report, HistogramReport)
        assert report.frequencies.sum() == pytest.approx(1.0)
        assert report.spread <= 0.08
        assert frequency_histogram(floats, 0.1).spread <= 0.02

    def test_histogram_degenerate_input(self):
        report = frequency_histogram(np.full(1000, 0.5), 0.01)
        assert np.isinf(report.spread)
        assert report.degenerate

    def test_histogram_validation(self):
        with pytest.raises(ValueError):
            frequency_histogram(np.empty(0), 0.01)
        with pytest.raises(ValueError):
            frequency_histogram(np.full(10, 0.5), 0.3)

    def test_lag1_joint_passes_for_generator(self):
        floats = Xoshiro256pp(57).unit_floats(1_000_000)
        report = lag1_joint(floats)
        assert report.p_value >= ALPHA

    def test_lag1_joint_passes_for_independent_streams(self):
        # interleave two disjoint streams: consecutive pairs independent
        a = Xoshiro256pp(58, 0).unit_floats(50_000)
        b = Xoshiro256pp(58, 1).unit_floats(50_000)
        merged = np.empty(100_000)
        merged[0::2] = a
        merged[1::2] = b
        assert lag1_joint(merged).p_value >= ALPHA

    def test_engine_draw_sequence_quality(self):
        # One stream's k values in the order the engine consumes them: the high
        # then the low 23-bit half of each output.
        raw = Xoshiro256pp(4242, stream=17).raw64(1 << 19)
        k = np.stack([raw >> np.uint64(32), raw], axis=1).ravel() & np.uint64(0x7FFFFF)
        floats = k * 2.0 ** -23
        assert lag1_joint(floats).passed
        for report in run_battery(median_threshold_bits(floats)):
            assert report.passed, f"{report.name}: p={report.p_value}"

    def test_lag1_joint_detects_identity(self):
        x = Xoshiro256pp(59).unit_floats(10_000)
        doubled = np.repeat(x, 2)  # x_{k+1} == x_k for every even k
        report = lag1_joint(doubled)
        assert report.p_value < 1e-10

    def test_median_threshold_balance(self):
        floats = Xoshiro256pp(61).unit_floats(10_000)
        bits = median_threshold_bits(floats)
        assert bits.dtype == np.uint8
        assert abs(bits.mean() - 0.5) < 0.02

    def test_median_threshold_ramp_fails_runs(self):
        ramp = np.linspace(0.0, 1.0, 1000, endpoint=False)
        bits = median_threshold_bits(ramp)
        assert (bits == np.concatenate([np.zeros(500, np.uint8), np.ones(500, np.uint8)])).all()
        assert not runs_test(bits).passed

    def test_median_threshold_constant_fails_monobit(self):
        bits = median_threshold_bits(np.full(1000, 0.25))
        assert (bits == 1).all()
        assert not monobit_test(bits).passed

    def test_median_threshold_minimum(self):
        with pytest.raises(ValueError):
            median_threshold_bits(np.ones(99))


class TestBitstreamFiles:
    def test_ascii_roundtrip(self, tmp_path):
        path = tmp_path / "bits.txt"
        path.write_text("0101\n1100  \n01\n")
        assert load_bitstream(path).tolist() == [0, 1, 0, 1, 1, 1, 0, 0, 0, 1]

    def test_ascii_parse_error_names_line(self, tmp_path):
        path = tmp_path / "bits.txt"
        path.write_text("0101\n01x1\n")
        with pytest.raises(ValueError, match=":2:"):
            load_bitstream(path)

    def test_raw_binary(self, tmp_path):
        path = tmp_path / "bits.bin"
        path.write_bytes(bytes([0b10110011, 0xFF]))
        assert load_bitstream(path).tolist() == [1, 0, 1, 1, 0, 0, 1, 1] + [1] * 8

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "bits.bin"
        path.write_bytes(b"")
        with pytest.raises(ValueError):
            load_bitstream(path)
