"""Engine behavior: exponent table, neighbor gathering, flips, halos, sweeps."""

import collections
import math
import tracemalloc

import numpy as np
import pytest

import multispin.engine as engine_mod
from multispin import rng
from multispin.engine import (
    FLIP_BLUE,
    FLIP_RED,
    INIT_MODES,
    Engine,
    _ROW_BITS,
    _acceptance_masks,
    _draw_limits,
    _quarter_codes,
    build_exp_table,
    get_neighbors,
    neighbor_codes,
    run_simulations,
)
from multispin.lattice import (
    ALL_CODES,
    ArrayCode,
    TC_OVER_J,
    LatticeDims,
    array_view,
    classify,
    neighbor_indices,
)
from multispin.reference import energy, neighbor_code_brute, record_engine_randoms
from multispin.rng import Xoshiro256pp, XoshiroStreams

DIMS = LatticeDims(12, 96)


def random_spins(dims, seed):
    rng = np.random.default_rng(seed)
    return rng.choice(np.array([-1, 1], dtype=np.int8), size=(dims.m, dims.n))


class TestExpTable:
    def test_layout_and_formula(self):
        T, J = 2.0, 1.0
        table = build_exp_table(T, J)
        assert table.shape == (16,)
        for own in (0, 1):
            sigma = 2 * own - 1
            for up in range(5):
                delta_e = 2.0 * J * sigma * (2 * up - 4)
                assert table[8 * own + up] == pytest.approx(
                    min(1.0, math.exp(-delta_e / T)), rel=0, abs=0
                )

    def test_worked_values(self):
        table = build_exp_table(2.0)
        assert table[8 + 4] == pytest.approx(math.exp(-4.0), rel=1e-15)
        assert table[8 + 2] == 1.0  # zero-cost flip
        assert table[0 + 4] == 1.0  # energy-lowering flip
        assert table[8 + 4] == pytest.approx(0.018316, abs=1e-6)

    def test_unreachable_codes_zero(self):
        table = build_exp_table(1.7)
        for own in (0, 1):
            assert (table[8 * own + 5 : 8 * own + 8] == 0).all()

    def test_monotone_in_cost(self):
        table = build_exp_table(2.5)
        assert table[8] == table[9] == table[10] == 1.0  # down-spin, <=2 up: hmm
        # spin down (bit 0): flipping up costs -(2u-4)*2 -> u >= 2 is free
        assert table[2] == table[3] == table[4] == 1.0
        assert 0 < table[1] < 1 and 0 < table[0] < 1

    def test_bad_temperature(self):
        for T in (0.0, -2.0, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="temperature must be finite and positive"):
                build_exp_table(T)

    @pytest.mark.parametrize("J", [math.nan, math.inf, -math.inf])
    def test_non_finite_coupling(self, J):
        with pytest.raises(ValueError, match="coupling J must be finite"):
            build_exp_table(2.0, J)

    def test_engine_rejects_nan_temperature(self):
        # a NaN table entry would cast to draw limit 0 and the engine would run on
        with pytest.raises(ValueError, match="temperature must be finite"):
            Engine(LatticeDims(4, 32), [math.nan], 1)

    def test_integer_limits_equal_float_comparison(self):
        k = np.arange(1 << 23, dtype=np.uint32)
        unit = k * 2.0 ** -23
        probs = {
            float(p)
            for T in (1e-6, 0.5, 2.0, TC_OVER_J, 8.0, 1e6)
            for J in (1.0, 0.5, 0.0, -1.0)
            for p in build_exp_table(T, J)
        }
        assert {0.0, 1.0} < probs
        limits = _draw_limits(np.array(sorted(probs)))
        for p, limit in zip(sorted(probs), limits):
            assert ((k < limit) == (unit < p)).all(), p
        assert _draw_limits(np.array([0.0, 1.0])).tolist() == [0, 1 << 23]


class TestGetNeighbors:
    def test_worked_example_s224(self):
        # Target RFE cell 2 word 2 (sites 224..254): right neighbor word is
        # BFE's s_320, left BFE's s_128, top BFO's s_225, and the bottom is
        # the shifted mix of BFO's s_193 and s_225.
        spins = random_spins(DIMS, 1)
        eng = Engine.from_lattices([spins], [2.0], seed=1)
        packed = eng.packed(0)
        s_r, s_l, s_t, s_b = get_neighbors(
            packed.matrix(ArrayCode.BFE), packed.matrix(ArrayCode.BFO), up=False, right=False
        )
        cell, word = 2, 2  # interior-aligned outputs index from 0
        word_at = lambda site: packed.words[
            classify(site, DIMS).code.index, classify(site, DIMS).cell, classify(site, DIMS).word
        ]
        assert s_r[cell - 1, word - 1] == word_at(320)
        assert s_l[cell - 1, word - 1] == word_at(128)
        assert s_t[cell - 1, word - 1] == word_at(225)
        expected_bottom = np.uint16((int(word_at(193)) >> 15) | (int(word_at(225)) << 1) & 0xFFFF)
        assert s_b[cell - 1, word - 1] == expected_bottom

    def test_all_up_lattice_saturates(self):
        eng = Engine(DIMS, [2.0], seed=3, init="all-up")
        packed = eng.packed(0)
        for target, lateral, vertical, up, right in FLIP_RED + FLIP_BLUE:
            outs = get_neighbors(packed.matrix(lateral), packed.matrix(vertical), up, right)
            for out in outs:
                assert (out == 0xFFFF).all(), str(target)

    def test_every_neighbor_bit_matches_lattice(self):
        # Brute-force audit through classify: each extracted neighbor bit
        # equals the true lattice neighbor spin.
        spins = random_spins(DIMS, 2)
        eng = Engine.from_lattices([spins], [2.0], seed=1)
        packed = eng.packed(0)
        flat = spins.reshape(-1)
        for target, lateral, vertical, up, right in FLIP_RED + FLIP_BLUE:
            s_r, s_l, s_t, s_b = get_neighbors(
                packed.matrix(lateral), packed.matrix(vertical), up, right
            )
            for idx in range(DIMS.sites):
                coord = classify(idx, DIMS)
                if coord.code is not target:
                    continue
                right_nb, left_nb, up_nb, down_nb = (flat[k] for k in neighbor_indices(idx, DIMS))
                cell, word, bit = coord.cell - 1, coord.word - 1, coord.bit
                # the four directions are summed symmetrically, so compare
                # lateral and vertical as unordered pairs
                lateral_pair = sorted(
                    ((int(s_r[cell, word]) >> bit & 1), (int(s_l[cell, word]) >> bit & 1))
                )
                want_lateral = sorted(((int(right_nb) + 1) // 2, (int(left_nb) + 1) // 2))
                assert lateral_pair == want_lateral, f"lateral bits wrong at site {idx}"
                vertical_pair = sorted(
                    ((int(s_t[cell, word]) >> bit & 1), (int(s_b[cell, word]) >> bit & 1))
                )
                want_vertical = sorted(((int(up_nb) + 1) // 2, (int(down_nb) + 1) // 2))
                assert vertical_pair == want_vertical, f"vertical bits wrong at site {idx}"


class TestNeighborCodes:
    @pytest.mark.parametrize("seed", range(5))
    def test_codes_match_brute_force(self, seed):
        spins = random_spins(DIMS, seed)
        eng = Engine.from_lattices([spins], [2.0], seed=9)
        assert (neighbor_codes(eng.packed(0)) == neighbor_code_brute(spins)).all()

    def test_codes_on_smallest_lattice(self):
        dims = LatticeDims(4, 32)
        spins = random_spins(dims, 3)
        eng = Engine.from_lattices([spins], [2.0], seed=9)
        assert (neighbor_codes(eng.packed(0)) == neighbor_code_brute(spins)).all()

    def test_flip_path_codes_match_brute_force_per_simulation(self):
        eng = Engine(DIMS, [1.5, 2.3, 4.0], seed=21)
        for _ in range(3):
            eng.sweep()
        brute = [neighbor_code_brute(eng.lattice(s)).reshape(DIMS.m, DIMS.n)
                 for s in range(eng.n_sim)]
        codes = np.empty((16, eng.n_sim, DIMS.cells, DIMS.words), np.uint16)
        for quarter in FLIP_RED + FLIP_BLUE:
            assert _quarter_codes(eng.state, *quarter, out=codes) is codes
            for s in range(eng.n_sim):
                want = np.moveaxis(array_view(brute[s], quarter[0])[..., _ROW_BITS], -1, 0)
                assert (codes[:, s] == want).all()


class _CountingKernel:
    """Forwards to a kernel module, counting the calls of each entry point."""

    def __init__(self, kernel, calls: collections.Counter):
        self._kernel, self._calls = kernel, calls

    def __getattr__(self, name):
        entry = getattr(self._kernel, name)

        def counted(*args):
            self._calls[name] += 1
            return entry(*args)

        return counted


class TestKernelCalls:
    def test_flips_make_one_shift_one_add4_four_compacts_per_quarter(self, monkeypatch):
        """Each quarter of each tile makes one shift, one add4, four compacts and
        one acceptance; measuring makes none.

        On the native path every one of those calls reaches its compiled entry
        point.  perfbench/test_smoke.py pins the same shift, add4 and compact
        calls through its tracer, on a one-tile shape.
        """
        monkeypatch.setattr(engine_mod, "_TILE_STREAMS", DIMS.cells * DIMS.words)
        calls = collections.Counter()
        for name in ("get_bit_above", "get_bit_below", "bitwise_add4", "nibble_compact"):
            def counted(*args, _name=name, _kernel=getattr(engine_mod, name), **kwargs):
                calls[_name] += 1
                return _kernel(*args, **kwargs)

            monkeypatch.setattr(engine_mod, name, counted)
        entries = collections.Counter()
        kernel = rng._kernel()
        if kernel is not None:
            monkeypatch.setattr(rng, "_kernel_handle", _CountingKernel(kernel, entries))
        eng = Engine(DIMS, [2.0, 2.5], seed=18)
        quarters = 8 * len(eng._tiles)
        assert len(eng._tiles) == 2
        eng.sweep()
        assert calls["get_bit_above"] + calls["get_bit_below"] == quarters
        assert calls["bitwise_add4"] == quarters
        assert calls["nibble_compact"] == 4 * quarters
        if kernel is not None:
            assert entries["shift"] == quarters
            assert entries["bitwise_add4"] == quarters
            assert entries["nibble_compact"] == 4 * quarters
            assert entries["accept"] == quarters
        calls.clear()
        entries.clear()
        eng.abs_magnetization()
        eng.energy_per_spin()
        assert not calls
        assert not entries.keys() & {"shift", "bitwise_add4", "nibble_compact", "accept"}


class TestAcceptanceMasks:
    def test_masks_restate_limits_at_every_boundary(self):
        top = (1 << 23) - 1
        for T in (1e-6, 0.5, TC_OVER_J, 8.0, 1e6):
            for J in (1.0, 0.5, 0.0, -1.0):
                limits = _draw_limits(build_exp_table(T, J)).astype(np.int64)
                (low, high), (at_low, at_high, certain) = _acceptance_masks(limits[None])
                ks = np.unique(np.clip(np.concatenate([limits - 1, limits, [0, top]]), 0, top))
                masks = ((ks < low.item()) * at_low.item() | (ks < high.item()) * at_high.item()
                         | certain.item())
                for c in range(16):
                    assert (((masks >> c) & 1) == (ks < limits[c])).all(), (T, J, c)

    def test_more_than_two_partial_limits_rejected(self):
        limits = np.zeros((2, 16), np.uint32)
        limits[1, :3] = (1, 2, 3)
        with pytest.raises(ValueError, match="more than two"):
            _acceptance_masks(limits)

    @pytest.mark.parametrize("J", [1.0, 0.0, -1.0])
    def test_mask_path_flips_what_limits_accept(self, monkeypatch, J):
        # Per quarter and tile, on the same draws and codes: k < limit[code],
        # gathered directly.  Tiles of two simulations split the three.
        temps = (1e-6, TC_OVER_J, 1e6)
        monkeypatch.setattr(engine_mod, "_TILE_STREAMS", 2 * DIMS.cells * DIMS.words)
        eng = Engine(DIMS, temps, seed=41, coupling=J)
        assert eng._tiles == [(0, 2), (2, 3)]
        limits = _draw_limits(np.stack([build_exp_table(t, J) for t in temps]))
        weights = np.array([1 << b for b in _ROW_BITS], np.uint16).reshape(16, 1, 1, 1)
        flip_quarter = eng._flip_quarter
        checked = []

        def direct_check(a, b, target, lateral, vertical, up, right, draws):
            codes = _quarter_codes(eng.state[a:b], target, lateral, vertical, up, right,
                                   out=np.empty(draws.shape, np.uint16))
            sims = np.arange(a, b)[:, None, None]
            accepted = (draws < limits[sims, codes]).astype(np.uint16)
            want = np.bitwise_or.reduce(accepted * weights, axis=0)
            before, flips = eng.state.copy(), eng.flips
            flip_quarter(a, b, target, lateral, vertical, up, right, draws)
            changed = eng.state ^ before
            assert (changed[a:b, target.index, 1:-1, 1:-1] == want).all()
            changed[a:b, target.index, 1:-1, 1:-1] = 0
            assert not changed.any()
            assert eng.flips - flips == int(np.bitwise_count(want).sum())
            checked.append((a, target, want))

        eng._flip_quarter = direct_check
        for _ in range(3):
            eng.sweep()
        # every quarter of every tile, in tile-major order within each phase
        assert [(a, t) for a, t, _ in checked] == 3 * [
            (a, q[0]) for quarters in (FLIP_RED, FLIP_BLUE) for a in (0, 2) for q in quarters]
        flipped = np.concatenate([w for _, _, w in checked])
        # at J = 0 every flip is free, so every spin flips
        assert flipped.any() and flipped.all() == (J == 0)


class TestBoundaryUpdates:
    def test_halo_audit_clean_after_init(self):
        eng = Engine.from_lattices([random_spins(DIMS, 4)], [2.0], seed=2)
        assert eng.halo_mismatches() == 0

    def test_halo_audit_clean_after_each_update(self):
        eng = Engine(DIMS, [2.0], seed=5, init="random")
        for _ in range(10):
            eng.sweep()
            assert eng.halo_mismatches() == 0

    def test_audit_catches_corruption(self):
        eng = Engine.from_lattices([random_spins(DIMS, 6)], [2.0], seed=2)
        eng.state[0, ArrayCode.RFE.index, DIMS.cols - 1, 1] ^= 1
        assert eng.halo_mismatches() > 0

    def test_moat_and_halo_contents_worked_example(self):
        spins = random_spins(DIMS, 7)
        eng = Engine.from_lattices([spins], [2.0], seed=2)
        st = eng.state[0]
        rfe, rbe = ArrayCode.RFE.index, ArrayCode.RBE.index
        # right moat of RFE mirrors RBE's last worker column
        assert (st[rfe, -1, 1:-1] == st[rbe, DIMS.cells, 1:-1]).all()
        # top halo of RFE mirrors its own first interior word
        assert (st[rfe, 1:-1, -1] == st[rfe, 1:-1, 1]).all()
        # left moat of RFE and bottom halo stay zero
        assert (st[rfe, 0, :] == 0).all()
        assert (st[rfe, 1:-1, 0] == 0).all()

    def test_smallest_lattice_halo_audit(self):
        dims = LatticeDims(4, 32)
        eng = Engine.from_lattices([random_spins(dims, 8)], [2.0], seed=2)
        for _ in range(5):
            eng.sweep()
            assert eng.halo_mismatches() == 0


def set_limits(eng, limits):
    """Give every simulation the same draw limit per code (a scalar: for every code)."""
    eng._levels, eng._code_masks = _acceptance_masks(np.broadcast_to(limits, (eng.n_sim, 16)))


class TestFlips:
    def test_all_zero_table_freezes_state(self):
        eng = Engine.from_lattices([random_spins(DIMS, 10)], [2.0], seed=3)
        set_limits(eng, 0)
        before = eng.state.copy()
        eng.sweep()
        assert (eng.state == before).all()
        assert eng.flips == 0

    def test_all_one_table_toggles_everything(self):
        spins = random_spins(DIMS, 11)
        eng = Engine.from_lattices([spins], [2.0], seed=3)
        set_limits(eng, 1 << 23)
        eng.sweep()
        assert (eng.lattice(0) == -spins).all()
        assert eng.flips == DIMS.sites

    def test_constant_half_table_is_binomial(self):
        eng = Engine.from_lattices([random_spins(DIMS, 12)], [2.0], seed=4)
        set_limits(eng, 1 << 22)
        sweeps = 50
        for _ in range(sweeps):
            eng.sweep()
        attempts = DIMS.sites * sweeps
        # count ~ Binomial(attempts, 0.5): stay within 5 sigma
        sigma = 0.5 * math.sqrt(attempts)
        assert abs(eng.flips - 0.5 * attempts) < 5 * sigma

    @pytest.mark.parametrize("k, after", [
        ((1 << 21) - 1, "flipped"), (1 << 21, "down"), ((1 << 22) - 1, "down"), (1 << 22, "same"),
    ])
    def test_draw_equal_to_limit_rejects(self, monkeypatch, k, after):
        # Down spins (codes 0-7) accept below 2**21, up spins (codes 8-15) below 2**22.
        spins = random_spins(DIMS, 14)
        eng = Engine.from_lattices([spins], [2.0], seed=3)
        set_limits(eng, np.repeat([1 << 21, 1 << 22], 8))
        monkeypatch.setattr(eng.streams, "unit_block",
                            lambda count, lo, hi: np.full((count, hi - lo), k, np.uint32))
        eng.sweep()
        want = {"flipped": -spins, "down": np.full_like(spins, -1), "same": spins}[after]
        assert (eng.lattice(0) == want).all()

    def test_flip_count_equals_changed_spins(self):
        eng = Engine(DIMS, [1.5, 2.3, 4.0], seed=16, init="random")
        eng.sweep()
        before = [eng.lattice(s) for s in range(eng.n_sim)]
        flips = eng.flips
        eng.sweep()
        # each spin is tried once per sweep, so a flip is a changed spin
        changed = sum(int((eng.lattice(s) != before[s]).sum()) for s in range(eng.n_sim))
        assert eng.flips - flips == changed > 0

    @pytest.mark.parametrize("tile_sims, tiles", [(1, 3), (3, 1)])
    def test_one_draw_block_per_quarter_per_tile(self, monkeypatch, tile_sims, tiles):
        # perfbench/tracer.py times unit_block by name and divides its sizes by sweeps
        ranges = []
        unit_block = XoshiroStreams.unit_block

        def counted(self, count, lo=0, hi=None):
            block = unit_block(self, count, lo, hi)
            ranges.append((count, lo, hi, block.size))
            return block

        monkeypatch.setattr(XoshiroStreams, "unit_block", counted)
        monkeypatch.setattr(engine_mod, "_TILE_STREAMS", tile_sims * DIMS.cells * DIMS.words)
        eng = Engine(DIMS, [2.0, 2.5, 3.0], seed=17, init="random")
        eng.sweep()
        width = tile_sims * DIMS.cells * DIMS.words
        per_phase = [(16, t * width, (t + 1) * width, 16 * width)
                     for t in range(tiles) for _ in range(4)]
        assert ranges == 2 * per_phase
        assert sum(size for *_, size in ranges) == DIMS.sites * eng.n_sim

    def test_ground_state_frozen_at_low_temperature(self):
        eng = Engine(DIMS, [1e-6], seed=5, init="all-up")
        for _ in range(3):
            eng.sweep()
        assert (eng.lattice(0) == 1).all()

    def test_high_temperature_stays_disordered(self):
        eng = Engine(DIMS, [8.0], seed=6, init="random")
        ms = []
        for _ in range(100):
            eng.sweep()
            ms.append(eng.abs_magnetization()[0])
        assert np.mean(ms) < 0.15  # disordered phase, |M| ~ 1/sqrt(sites)

    def test_red_flip_only_touches_red_arrays(self):
        eng = Engine.from_lattices([random_spins(DIMS, 13)], [2.0], seed=7)
        blue_before = {
            code: eng.state[0, code.index].copy() for code in ALL_CODES if not code.red
        }
        eng.flip_red()
        for code, before in blue_before.items():
            assert (eng.state[0, code.index] == before).all(), str(code)

    def test_color_safety_of_quarter_tables(self):
        # each color's flips read only the opposite color's arrays
        for target, lateral, vertical, _, _ in FLIP_RED:
            assert target.red and not lateral.red and not vertical.red
        for target, lateral, vertical, _, _ in FLIP_BLUE:
            assert not target.red and lateral.red and vertical.red
        # vertical sources have the opposite parity, laterals the same
        for target, lateral, vertical, up, _ in FLIP_RED + FLIP_BLUE:
            assert lateral.even == target.even
            assert vertical.even != target.even
            assert up == (not target.even)


class TestSweepAndRun:
    def test_attempt_counter_exact(self):
        eng = Engine(DIMS, [2.0, 3.0], seed=8, init="random")
        for k in range(1, 6):
            eng.sweep()
            assert eng.attempts == DIMS.sites * 2 * k

    def test_deterministic_repeat(self):
        a = Engine(DIMS, [2.0], seed=9, init="random")
        b = Engine(DIMS, [2.0], seed=9, init="random")
        for _ in range(20):
            a.sweep()
            b.sweep()
        assert (a.state == b.state).all()
        assert a.flips == b.flips

    def test_zero_sweeps_empty_trajectory(self):
        eng = Engine(DIMS, [2.0], seed=10, init="random")
        traj = eng.run(0)
        assert traj.n_measurements == 0
        assert eng.attempts == 0

    def test_measurement_cadence(self):
        eng = Engine(DIMS, [2.0], seed=11, init="random")
        traj = eng.run(100, measure_interval=10)
        assert traj.sweeps.tolist() == list(range(10, 101, 10))
        assert traj.abs_m.shape == (10, 1)

    def test_final_sweep_always_measured(self):
        eng = Engine(DIMS, [2.0], seed=12, init="random")
        traj = eng.run(25, measure_interval=10)
        assert traj.sweeps.tolist() == [10, 20, 25]

    def test_energy_and_magnetization_match_oracle(self):
        eng = Engine(DIMS, [2.0], seed=13, init="random")
        eng.run(10, measure_interval=10)
        spins = eng.lattice(0)
        assert eng.energy_per_spin()[0] == pytest.approx(energy(spins) / DIMS.sites, rel=1e-12)
        assert eng.abs_magnetization()[0] == pytest.approx(
            abs(float(spins.sum())) / DIMS.sites, rel=1e-12
        )

    def test_all_up_init(self):
        eng = Engine(DIMS, [2.0], seed=14, init="all-up")
        assert (eng.lattice(0) == 1).all()

    def test_random_init_takes_first_two_stream_outputs(self):
        seed, offset = 31, 3
        eng = Engine(DIMS, [2.0, 2.5], seed, init="random", sim_offset=offset)
        cells, words = DIMS.cells, DIMS.words
        for s in range(eng.n_sim):
            for cell in range(1, cells + 1):
                for word in range(1, words + 1):
                    stream = ((offset + s) * cells + cell - 1) * words + word - 1
                    raw = Xoshiro256pp(seed, stream).raw64(2)
                    for a in range(len(ALL_CODES)):
                        want = int(raw[a // 4]) >> (16 * (a % 4)) & 0xFFFF
                        assert int(eng.state[s, a, cell, word]) == want
        assert eng.halo_mismatches() == 0

    def test_draws_gate_spins_in_stated_order(self):
        # Bit b of quarter q's target word is gated by output
        # 8q + 2(b % 4) + b // 8 of the phase: its high half when b // 4 is
        # even, its low half when odd.
        seed = 33
        eng = Engine(DIMS, [2.0], seed, init="all-up")
        recorded = record_engine_randoms(eng, 1).draws[0]
        site_of = np.arange(DIMS.sites).reshape(DIMS.m, DIMS.n)
        for cell in range(1, DIMS.cells + 1):
            for word in range(1, DIMS.words + 1):
                raw = Xoshiro256pp(seed, (cell - 1) * DIMS.words + word - 1).raw64(64)
                for phase, quarters in enumerate((FLIP_RED, FLIP_BLUE)):
                    for q, quarter in enumerate(quarters):
                        sites = array_view(site_of, quarter[0])[cell - 1, word - 1]
                        for b in range(16):
                            out = int(raw[32 * phase + 8 * q + 2 * (b % 4) + b // 8])
                            k = (out >> 32 if b // 4 % 2 == 0 else out) & 0x7FFFFF
                            assert recorded.flat[sites[b]] == k * 2.0 ** -23

    @pytest.mark.parametrize("init, ahead", [("random", 2), ("all-up", 0)])
    def test_init_advances_streams(self, init, ahead):
        eng = Engine(DIMS, [2.0, 2.5], seed=32, init=init, sim_offset=1)
        fresh = XoshiroStreams(32, eng.streams.n_streams, first_stream=eng.streams.first_stream)
        fresh.raw_block(ahead)
        assert (eng.streams.raw_block(1) == fresh.raw_block(1)).all()

    def test_bad_init_rejected(self):
        with pytest.raises(ValueError):
            Engine(DIMS, [2.0], seed=1, init="sideways")

    def test_from_no_lattices_rejected(self):
        with pytest.raises(ValueError, match="need at least one lattice"):
            Engine.from_lattices([], [], seed=1)

    def test_independent_sims_match_singletons(self):
        # Simulations in one engine equal the same sims run alone at the
        # right stream offsets.
        both = Engine(DIMS, [2.0, 2.5], seed=15, init="random")
        solo0 = Engine(DIMS, [2.0], seed=15, init="random", sim_offset=0)
        solo1 = Engine(DIMS, [2.5], seed=15, init="random", sim_offset=1)
        for _ in range(10):
            both.sweep()
            solo0.sweep()
            solo1.sweep()
        assert (both.state[0] == solo0.state[0]).all()
        assert (both.state[1] == solo1.state[0]).all()


class TestTiles:
    @pytest.mark.parametrize("init", INIT_MODES)
    @pytest.mark.parametrize("tile_sims, sizes", [
        (1, [1] * 13),
        (4, [4, 4, 4, 1]),
        (13, [13]),
    ], ids=("k1", "k4", "k13"))
    def test_tiled_engine_equals_singletons(self, monkeypatch, init, tile_sims, sizes):
        # 13 distinct simulations flipped in tiles: a tile that starts or ends
        # one simulation or one stream off shows at its edges.
        temps = np.linspace(1.5, 3.5, 13)
        monkeypatch.setattr(engine_mod, "_TILE_STREAMS", tile_sims * DIMS.cells * DIMS.words)
        tiled = Engine(DIMS, temps, seed=23, init=init)
        assert [b - a for a, b in tiled._tiles] == sizes
        solos = [Engine(DIMS, [t], seed=23, init=init, sim_offset=s)
                 for s, t in enumerate(temps)]
        traj = tiled.run(6, measure_interval=2)
        solo_trajs = [solo.run(6, measure_interval=2) for solo in solos]
        assert (tiled.state == np.concatenate([solo.state for solo in solos])).all()
        assert tiled.flips == sum(solo.flips for solo in solos)
        assert (traj.abs_m == np.hstack([t.abs_m for t in solo_trajs])).all()
        assert (traj.energy == np.hstack([t.energy for t in solo_trajs])).all()
        assert len(set(traj.energy[-1])) == tiled.n_sim


class TestFlipsNumpyPath(TestFlips):
    """``TestFlips`` and the other flip tests again, on the numpy acceptance (and
    draws) that run where the compiled kernels cannot be built; the other
    classes run the active path."""

    @pytest.fixture(autouse=True)
    def numpy_path(self, monkeypatch):
        monkeypatch.setattr(rng, "_kernel_handle", None)

    test_flips_make_one_shift_one_add4_four_compacts_per_quarter = (
        TestKernelCalls.test_flips_make_one_shift_one_add4_four_compacts_per_quarter)
    test_mask_path_flips_what_limits_accept = (
        TestAcceptanceMasks.test_mask_path_flips_what_limits_accept)
    test_tiled_engine_equals_singletons = TestTiles.test_tiled_engine_equals_singletons


class TestAcceptancePaths:
    @pytest.mark.parametrize("tile_sims", [1, 2])
    @pytest.mark.parametrize("J", [1.0, 0.0, -0.7])
    @pytest.mark.parametrize("dims", [LatticeDims(4, 32), DIMS, LatticeDims(16, 128),
                                      LatticeDims(4, 544), LatticeDims(36, 160),
                                      LatticeDims(128, 128)], ids=str)
    def test_compiled_and_numpy_paths_agree(self, monkeypatch, dims, J, tile_sims):
        # 1, 9, 16, 17, 45 and 128 words per simulation: short rows, one
        # 16-word acceptance pass with no tail and with a one-word tail, and
        # vector tails
        if rng.draw_path() != "native":
            pytest.skip("no compiled kernels on this host")
        monkeypatch.setattr(engine_mod, "_TILE_STREAMS", tile_sims * dims.cells * dims.words)
        runs = []
        for handle in (rng._kernel_handle, None):
            monkeypatch.setattr(rng, "_kernel_handle", handle)
            eng = Engine(dims, (1e-6, TC_OVER_J, 1e6), seed=19, coupling=J)
            for _ in range(5):
                eng.sweep()
            runs.append((eng.state, eng.flips))
        (native, native_flips), (numpy_state, numpy_flips) = runs
        assert (native == numpy_state).all()
        assert native_flips == numpy_flips > 0


class TestEnergy:
    @pytest.mark.parametrize("dims", [LatticeDims(4, 32), DIMS], ids=str)
    @pytest.mark.parametrize("init", INIT_MODES)
    @pytest.mark.parametrize("J", [1.0, 0.0, -0.7])
    def test_equals_reference_for_every_simulation(self, dims, init, J):
        eng = Engine(dims, [1.5, 2.0, 2.5, 3.5], seed=19, init=init, coupling=J)
        for _ in range(3):
            eng.sweep()
            want = [energy(eng.lattice(s), J) / dims.sites for s in range(eng.n_sim)]
            assert eng.energy_per_spin().tolist() == want

    @pytest.mark.parametrize("budget, chunks", [
        (1, [1] * 13),  # below one simulation: still one per chunk
        (5 * DIMS.sites - 1, [4, 4, 4, 1]),
        (13 * DIMS.sites, [13]),
    ])
    def test_chunk_edges(self, monkeypatch, budget, chunks):
        # 13 distinct simulations measured in chunks: a chunk that starts or
        # ends one simulation off shows at its edges.
        eng = Engine(DIMS, np.linspace(1.5, 3.5, 13), seed=20, init="random")
        for _ in range(2):
            eng.sweep()
        want = [energy(eng.lattice(s)) / DIMS.sites for s in range(eng.n_sim)]
        assert len(set(want)) == eng.n_sim
        seen = []
        original = engine_mod.unpack

        def recorded(packed):
            seen.append(packed.words.shape[0])
            return original(packed)

        monkeypatch.setattr(engine_mod, "unpack", recorded)
        monkeypatch.setattr(engine_mod, "_MEASURE_SPINS", budget)
        assert eng.energy_per_spin().tolist() == want
        assert seen == chunks

    def test_scratch_bounded_by_chunk_not_by_simulations(self):
        # 64 simulations of 256x256 hold 4 Mi spins; unpacked at once they
        # would take 4 MiB of int8 alone.
        eng = Engine(LatticeDims(256, 256), [2.0] * 64, seed=22, init="all-up")
        eng.energy_per_spin()
        tracemalloc.start()
        try:
            eng.energy_per_spin()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * engine_mod._MEASURE_SPINS


class TestSeedRange:
    @pytest.mark.parametrize("seed", [-1, 1 << 64])
    def test_outside_64_bits_rejected(self, seed):
        with pytest.raises(ValueError, match="seed must be in"):
            Engine(DIMS, [2.0], seed=seed)
        with pytest.raises(ValueError, match="seed must be in"):
            Xoshiro256pp(seed)

    def test_negative_sim_offset_rejected(self):
        # the offset reaches the streams as first_stream = sim_offset * cells * words
        with pytest.raises(ValueError, match="first_stream must be at least 0, got -9"):
            Engine(DIMS, [2.0], seed=1, sim_offset=-1)

    def test_sim_offset_past_the_last_stream_rejected(self):
        # 9 streams per simulation; 2**64 = 9 * (2**64 // 9) + 7
        last = (1 << 64) // 9 - 1  # streams [2**64 - 16, 2**64 - 7)
        with pytest.raises(ValueError, match=f"first_stream {9 * (last + 1)} leaves no room"):
            Engine(DIMS, [2.0], seed=1, sim_offset=last + 1)
        eng = Engine(DIMS, [2.0], seed=1, sim_offset=last)
        eng.sweep()
        assert eng.halo_mismatches() == 0

    @pytest.mark.parametrize("seed", [0, (1 << 64) - 1])
    def test_edges_run(self, seed):
        eng = Engine(DIMS, [2.0], seed=seed)
        eng.sweep()
        assert eng.seed == seed and eng.halo_mismatches() == 0


class TestRunSimulations:
    def test_threads_do_not_change_results(self):
        temps = (1.5, 2.0, 2.5, 3.0)
        serial = run_simulations(DIMS, temps, 77, 30, measure_interval=10, threads=1)
        threaded = run_simulations(DIMS, temps, 77, 30, measure_interval=10, threads=3)
        assert (serial.abs_m == threaded.abs_m).all()
        assert (serial.energy == threaded.energy).all()
        assert serial.meta["attempts"] == threaded.meta["attempts"]
        assert (serial.meta["threads"], threaded.meta["threads"]) == (1, 3)

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError, match="thread count"):
            run_simulations(DIMS, (2.0,), 1, 1, threads=0)
        with pytest.raises(ValueError, match="at least one simulation"):
            run_simulations(DIMS, (), 1, 1)

    def test_every_slice_is_checked_before_any_sweep(self, monkeypatch):
        runs = []
        run = Engine.run
        monkeypatch.setattr(Engine, "run", lambda eng, *a: runs.append(eng) or run(eng, *a))
        with pytest.raises(ValueError, match="temperature must be finite"):
            run_simulations(DIMS, (2.0, math.nan), 1, 3000, threads=2)
        assert runs == []

    def test_meta_holds_only_the_counts(self):
        traj = run_simulations(DIMS, (2.0, 2.5), 1, 3, measure_interval=2, threads=2)
        assert traj.meta == {"attempts": DIMS.sites * 2 * 3, "threads": 2}
        assert Engine(DIMS, [2.0], 1).run(2).meta == {"attempts": DIMS.sites * 2}

    def test_cross_sim_consistency(self):
        # replicas at one temperature scatter around a common mean
        temps = (2.0,) * 4
        traj = run_simulations(DIMS, temps, 78, 400, measure_interval=20, init="all-up")
        means = traj.abs_m[10:].mean(axis=0)
        assert means.std() < 0.05
