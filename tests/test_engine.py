"""Engine behavior: exponent table, neighbor gathering, flips, halos, sweeps."""

import math

import numpy as np
import pytest

from multispin.engine import (
    FLIP_BLUE,
    FLIP_RED,
    Engine,
    _draw_limits,
    _nibble_codes,
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
from multispin.reference import energy, neighbor_code_brute
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
        with pytest.raises(ValueError):
            build_exp_table(0.0)
        with pytest.raises(ValueError):
            build_exp_table(-2.0)

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
        for quarter in FLIP_RED + FLIP_BLUE:
            seen = []
            for i, codes in _nibble_codes(eng.state, *quarter):
                seen.append(i)
                assert codes.shape == (4, eng.n_sim, DIMS.cells, DIMS.words)
                for s in range(eng.n_sim):
                    want = np.moveaxis(array_view(brute[s], quarter[0])[..., i::4], -1, 0)
                    assert (codes[:, s] == want).all()
            assert seen == [0, 1, 2, 3]


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


class TestFlips:
    def test_all_zero_table_freezes_state(self):
        eng = Engine.from_lattices([random_spins(DIMS, 10)], [2.0], seed=3)
        eng._limits[:] = 0
        before = eng.state.copy()
        eng.sweep()
        assert (eng.state == before).all()
        assert eng.flips == 0

    def test_all_one_table_toggles_everything(self):
        spins = random_spins(DIMS, 11)
        eng = Engine.from_lattices([spins], [2.0], seed=3)
        eng._limits[:] = 1 << 23
        eng.sweep()
        assert (eng.lattice(0) == -spins).all()
        assert eng.flips == DIMS.sites

    def test_constant_half_table_is_binomial(self):
        eng = Engine.from_lattices([random_spins(DIMS, 12)], [2.0], seed=4)
        eng._limits[:] = 1 << 22
        sweeps = 50
        for _ in range(sweeps):
            eng.sweep()
        attempts = DIMS.sites * sweeps
        # count ~ Binomial(attempts, 0.5): stay within 5 sigma
        sigma = 0.5 * math.sqrt(attempts)
        assert abs(eng.flips - 0.5 * attempts) < 5 * sigma

    def test_flip_count_equals_changed_spins(self):
        eng = Engine(DIMS, [1.5, 2.3, 4.0], seed=16, init="random")
        eng.sweep()
        before = [eng.lattice(s) for s in range(eng.n_sim)]
        flips = eng.flips
        eng.sweep()
        # each spin is tried once per sweep, so a flip is a changed spin
        changed = sum(int((eng.lattice(s) != before[s]).sum()) for s in range(eng.n_sim))
        assert eng.flips - flips == changed > 0

    def test_one_draw_block_per_phase(self, monkeypatch):
        # perfbench/tracer.py times unit_block by name and divides by sweeps
        sizes = []
        unit_block = XoshiroStreams.unit_block

        def counted(self, count):
            block = unit_block(self, count)
            sizes.append(block.size)
            return block

        monkeypatch.setattr(XoshiroStreams, "unit_block", counted)
        eng = Engine(DIMS, [2.0, 2.5], seed=17, init="random")
        eng.sweep()
        assert len(sizes) == 2
        assert sum(sizes) == DIMS.sites * eng.n_sim

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

    @pytest.mark.parametrize("init, ahead", [("random", 2), ("all-up", 0)])
    def test_init_advances_streams(self, init, ahead):
        eng = Engine(DIMS, [2.0, 2.5], seed=32, init=init, sim_offset=1)
        fresh = XoshiroStreams(32, eng.streams.n_streams, first_stream=eng.streams.first_stream)
        fresh.raw_block(ahead)
        assert (eng.streams.raw_block(1) == fresh.raw_block(1)).all()

    def test_bad_init_rejected(self):
        with pytest.raises(ValueError):
            Engine(DIMS, [2.0], seed=1, init="sideways")

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

    def test_cross_sim_consistency(self):
        # replicas at one temperature scatter around a common mean
        temps = (2.0,) * 4
        traj = run_simulations(DIMS, temps, 78, 400, measure_interval=20, init="all-up")
        means = traj.abs_m[10:].mean(axis=0)
        assert means.std() < 0.05
