"""Geometry, classification, packing, halo map, and the closed-form curve."""

import math

import numpy as np
import pytest

from multispin.lattice import (
    ALL_CODES,
    BOUNDARY_RULES,
    ArrayCode,
    LatticeDims,
    PackedArrays,
    SpinCoord,
    TC_OVER_J,
    WordCoord,
    array_view,
    canonical_halo_source,
    check_spins,
    classify,
    neighbor_indices,
    onsager_magnetization,
    pack,
    unclassify,
    unpack,
)

DIMS = LatticeDims(12, 96)


def random_spins(dims, seed):
    rng = np.random.default_rng(seed)
    return rng.choice(np.array([-1, 1], dtype=np.int8), size=(dims.m, dims.n))


class TestDims:
    def test_properties(self):
        assert DIMS.cells == 3 and DIMS.words == 3 and DIMS.sites == 1152
        assert DIMS.cols == 5 and DIMS.vec_len == 5

    @pytest.mark.parametrize("m,n", [(3, 96), (0, 96), (14, 96), (12, 95), (12, 16), (4, 0)])
    def test_bad_dims_rejected(self, m, n):
        with pytest.raises(ValueError):
            LatticeDims(m, n)

    def test_smallest_legal(self):
        d = LatticeDims(4, 32)
        assert d.cells == 1 and d.words == 1


class TestArrayCode:
    def test_eight_distinct_codes_roundtrip(self):
        assert len(ALL_CODES) == 8
        for code in ALL_CODES:
            assert ArrayCode(str(code)) is code

    def test_flags(self):
        assert ArrayCode.RFE.red and ArrayCode.RFE.forward and ArrayCode.RFE.even
        assert not ArrayCode.BBO.red
        assert not ArrayCode.BBO.forward
        assert not ArrayCode.BBO.even


class TestClassify:
    @pytest.mark.parametrize(
        "idx,code,cell,word,bit",
        [
            (224, ArrayCode.RFE, 2, 2, 0),
            (0, ArrayCode.RFE, 1, 1, 0),
            (1057, ArrayCode.RBO, 1, 1, 0),
        ],
    )
    def test_worked_examples_12x96(self, idx, code, cell, word, bit):
        assert classify(idx, DIMS) == SpinCoord(code, cell, word, bit)

    def test_origin_smallest_lattice(self):
        assert classify(0, LatticeDims(4, 32)) == SpinCoord(ArrayCode.RFE, 1, 1, 0)

    @pytest.mark.parametrize("idx", [-1, 1152])
    def test_out_of_range(self, idx):
        with pytest.raises(IndexError):
            classify(idx, DIMS)

    @pytest.mark.parametrize("dims", [LatticeDims(4, 32), DIMS, LatticeDims(8, 64)])
    def test_bijection(self, dims):
        seen = set()
        for idx in range(dims.sites):
            coord = classify(idx, dims)
            assert unclassify(coord, dims) == idx
            seen.add(coord)
        assert len(seen) == dims.sites

    def test_partition_over_arrays(self):
        # The 8 x cells x words x 16 coordinate space covers every site once.
        covered = np.zeros((DIMS.m, DIMS.n), dtype=np.int32)
        for code in ALL_CODES:
            array_view(covered, code)[...] += 1
        assert (covered == 1).all()

    def test_neighbor_colors_alternate(self):
        for dims in (LatticeDims(4, 32), DIMS):
            for idx in range(dims.sites):
                mine = classify(idx, dims).code.red
                for nb in neighbor_indices(idx, dims):
                    assert classify(nb, dims).code.red != mine

    def test_unclassify_validates(self):
        with pytest.raises(IndexError):
            unclassify(SpinCoord(ArrayCode.RFE, 0, 1, 0), DIMS)
        with pytest.raises(IndexError):
            unclassify(SpinCoord(ArrayCode.RFE, 1, 4, 0), DIMS)
        with pytest.raises(IndexError):
            unclassify(SpinCoord(ArrayCode.RFE, 1, 1, 16), DIMS)


class TestAccessRules:
    """The four data-access rules, checked by brute-force neighbor lookup."""

    RIGHTWARD = {ArrayCode.RFE, ArrayCode.RBO, ArrayCode.BBE, ArrayCode.BFO}

    def test_lateral_offsets(self):
        # Arrays in RIGHTWARD are only read from cells (gamma, gamma+1);
        # the others from (gamma-1, gamma).  Offsets are in expanded
        # coordinates, where a moat stands in for the wrapped partner.
        dims = DIMS
        for idx in range(dims.sites):
            me = classify(idx, dims)
            right_nb, left_nb, _, _ = neighbor_indices(idx, dims)
            for nb in (right_nb, left_nb):
                other = classify(nb, dims)
                if other.code.even != me.code.even:
                    continue  # vertical partner, not lateral
                delta = other.cell - me.cell
                if delta in (-1, 0, 1):
                    offsets = (0, 1) if other.code in self.RIGHTWARD else (-1, 0)
                    assert delta in offsets
                else:
                    # wrapped/folded edge: served via a moat copy
                    src = canonical_halo_source(
                        other.code,
                        0 if other.code not in self.RIGHTWARD else dims.cols - 1,
                        other.word,
                        dims,
                    )
                    assert src is not None

    def test_vertical_offsets(self):
        # Even arrays are only read from words (w, w+1); odd from (w-1, w).
        dims = DIMS
        for idx in range(dims.sites):
            me = classify(idx, dims)
            _, _, up_nb, down_nb = neighbor_indices(idx, dims)
            for nb in (up_nb, down_nb):
                other = classify(nb, dims)
                if other.code.even == me.code.even:
                    continue  # lateral partner
                delta = other.word - me.word
                wrapped = abs(delta) == dims.words - 1 and dims.words > 1
                if wrapped:
                    delta = 1 if delta < 0 else -1
                offsets = (0, 1) if other.code.even else (-1, 0)
                assert delta in offsets


class TestPackUnpack:
    def test_all_up_saturates(self):
        packed = pack(np.ones((12, 96), dtype=np.int8))
        assert (packed.words[:, 1:-1, 1:-1] == 0xFFFF).all()
        assert (packed.words[:, 0, :] == 0).all() and (packed.words[:, -1, :] == 0).all()
        assert (packed.words[:, :, 0] == 0).all() and (packed.words[:, :, -1] == 0).all()

    def test_all_down_zero(self):
        packed = pack(np.full((12, 96), -1, dtype=np.int8))
        assert (packed.words == 0).all()

    def test_roundtrip_exhaustive_4x32(self):
        # exhaustive over sites: every single-up-spin lattice and its
        # complement round-trips, plus the saturated corners and random fills
        dims = LatticeDims(4, 32)
        for idx in range(dims.sites):
            spins = np.full((dims.m, dims.n), -1, dtype=np.int8)
            spins[idx // dims.n, idx % dims.n] = 1
            assert (unpack(pack(spins)) == spins).all()
            assert (unpack(pack(-spins)) == -spins).all()
        assert (unpack(pack(np.ones((4, 32), np.int8))) == 1).all()
        rng = np.random.default_rng(1)
        for _ in range(200):
            spins = rng.choice(np.array([-1, 1], dtype=np.int8), size=(dims.m, dims.n))
            assert (unpack(pack(spins)) == spins).all()

    @pytest.mark.parametrize("seed", range(12))
    def test_roundtrip_random_12x96(self, seed):
        spins = random_spins(DIMS, seed)
        assert (unpack(pack(spins)) == spins).all()

    def test_roundtrip_thousand_random_lattices(self):
        rng = np.random.default_rng(99)
        for _ in range(1000):
            spins = rng.choice(np.array([-1, 1], dtype=np.int8), size=(DIMS.m, DIMS.n))
            assert (unpack(pack(spins)) == spins).all()

    def test_interior_roundtrip(self):
        packed = pack(random_spins(DIMS, 77))
        again = pack(unpack(packed))
        assert (again.words[:, 1:-1, 1:-1] == packed.words[:, 1:-1, 1:-1]).all()

    def test_single_spin_lands_at_classified_bit(self):
        spins = np.full((12, 96), -1, dtype=np.int8)
        spins[224 // 96, 224 % 96] = 1
        packed = pack(spins)
        coord = classify(224, DIMS)
        assert coord == SpinCoord(ArrayCode.RFE, 2, 2, 0)
        word = packed.words[coord.code.index, coord.cell, coord.word]
        assert word == 1 << coord.bit
        total = int(packed.words.sum())
        assert total == word  # exactly one bit set anywhere

    def test_stacked_unpack_equals_single_unpacks(self):
        rng = np.random.default_rng(8)
        words = np.stack([pack(random_spins(DIMS, seed)).words for seed in range(6)])
        halo = np.ones(words.shape[-2:], bool)
        halo[1:-1, 1:-1] = False
        words[..., halo] = rng.integers(0, 1 << 16, words[..., halo].shape, dtype=np.uint16)
        stack = PackedArrays(DIMS, words.reshape(2, 3, *words.shape[1:]))
        got = unpack(stack)
        assert got.shape == (2, 3, DIMS.m, DIMS.n) and got.dtype == np.int8
        for i in range(2):
            for j in range(3):
                single = PackedArrays(DIMS, stack.words[i, j])
                assert (got[i, j] == unpack(single)).all()
                assert (got[i, j] == random_spins(DIMS, 3 * i + j)).all()
                for code in ALL_CODES:
                    assert (stack.interior(code)[i, j] == single.interior(code)).all()
                    assert (stack.matrix(code)[i, j] == single.matrix(code)).all()

    @pytest.mark.parametrize("shape, dtype", [
        ((8, 5, 4), np.uint16),
        ((2, 7, 5, 5), np.uint16),
        ((5, 5), np.uint16),
        ((8, 5, 5), np.int16),
        ((2, 8, 5, 5), np.uint32),
    ])
    def test_packed_arrays_rejects_wrong_trailing_shape_or_dtype(self, shape, dtype):
        with pytest.raises(ValueError, match="expected uint16 words"):
            PackedArrays(DIMS, np.zeros(shape, dtype))

    def test_bad_values_rejected(self):
        spins = np.ones((12, 96), dtype=np.int8)
        spins[0, 0] = 0
        with pytest.raises(ValueError):
            pack(spins)
        with pytest.raises(ValueError):
            check_spins(np.ones((5, 96), dtype=np.int8))


class TestHaloSource:
    def test_rfe_right_moat_holds_fold_partner(self):
        # Worked 12x96 example: elements bottom-to-top hold the RBE edge
        # column's words for sites 576, 608, 640.
        for element, site in ((1, 576), (2, 608), (3, 640)):
            src = canonical_halo_source(ArrayCode.RFE, 4, element, DIMS)
            assert src == WordCoord(ArrayCode.RBE, 3, element)
            assert unclassify(SpinCoord(src.code, src.cell, src.word, 0), DIMS) == site

    def test_rfe_top_halo_wraps_to_first_word(self):
        src = canonical_halo_source(ArrayCode.RFE, 2, DIMS.vec_len - 1, DIMS)
        assert src == WordCoord(ArrayCode.RFE, 2, 1)
        assert unclassify(SpinCoord(src.code, src.cell, src.word, 0), DIMS) == 192

    def test_rfe_left_moat_is_dead(self):
        for element in range(DIMS.vec_len):
            assert canonical_halo_source(ArrayCode.RFE, 0, element, DIMS) is None

    @pytest.mark.parametrize(
        "code,cell,element,want_code,want_cell,site",
        [
            (ArrayCode.RBO, 4, 1, ArrayCode.RFO, 3, 481),
            (ArrayCode.RBE, 0, 1, ArrayCode.RFE, 1, 0),
            (ArrayCode.RFO, 0, 1, ArrayCode.RBO, 1, 1057),
            (ArrayCode.BFE, 0, 1, ArrayCode.BBE, 1, 1056),
            (ArrayCode.BBO, 0, 1, ArrayCode.BFO, 1, 1),
            (ArrayCode.BBE, 4, 1, ArrayCode.BFE, 3, 480),
            (ArrayCode.BFO, 4, 1, ArrayCode.BBO, 3, 577),
        ],
    )
    def test_live_moats_match_expanded_arrays(self, code, cell, element, want_code, want_cell, site):
        src = canonical_halo_source(code, cell, element, DIMS)
        assert src == WordCoord(want_code, want_cell, element)
        assert unclassify(SpinCoord(src.code, src.cell, src.word, 0), DIMS) == site

    def test_vertical_halos_by_parity(self):
        top = DIMS.vec_len - 1
        for code in ALL_CODES:
            for cell in range(1, DIMS.cells + 1):
                top_src = canonical_halo_source(code, cell, top, DIMS)
                bot_src = canonical_halo_source(code, cell, 0, DIMS)
                if code.even:
                    assert top_src == WordCoord(code, cell, 1)
                    assert bot_src is None
                else:
                    assert top_src is None
                    assert bot_src == WordCoord(code, cell, DIMS.words)

    def test_interior_positions_rejected(self):
        with pytest.raises(ValueError):
            canonical_halo_source(ArrayCode.RFE, 1, 1, DIMS)
        with pytest.raises(IndexError):
            canonical_halo_source(ArrayCode.RFE, 9, 0, DIMS)

    def test_partner_flips_direction_only(self):
        for code, (partner, _, _) in BOUNDARY_RULES.items():
            assert partner.red == code.red
            assert partner.even == code.even
            assert partner.forward != code.forward


class TestOnsager:
    def test_zero_at_and_above_tc(self):
        assert onsager_magnetization(TC_OVER_J) == 0.0
        assert onsager_magnetization(3.0) == 0.0
        assert onsager_magnetization(TC_OVER_J + 1e-9) == 0.0

    def test_reference_values(self):
        # Frozen from a high-precision evaluation of the closed form.
        assert onsager_magnetization(1.5) == pytest.approx(0.98650, abs=1e-4)
        assert onsager_magnetization(2.0) == pytest.approx(0.91131, abs=1e-4)

    def test_coupling_scales_temperature(self):
        assert onsager_magnetization(3.0, J=2.0) == pytest.approx(
            onsager_magnetization(1.5, J=1.0)
        )

    def test_nonpositive_temperature_rejected(self):
        with pytest.raises(ValueError):
            onsager_magnetization(0.0)
        with pytest.raises(ValueError):
            onsager_magnetization(-1.0)

    @pytest.mark.parametrize("J", [0.0, -1.0])
    def test_nonpositive_coupling_rejected(self, J):
        with pytest.raises(ValueError, match="J > 0"):
            onsager_magnetization(2.0, J=J)

    @pytest.mark.parametrize("T", [math.nan, math.inf])
    def test_non_finite_temperature_rejected(self, T):
        with pytest.raises(ValueError, match="temperature must be finite and positive"):
            onsager_magnetization(T)

    @pytest.mark.parametrize("J", [math.nan, math.inf])
    def test_non_finite_coupling_rejected(self, J):
        with pytest.raises(ValueError, match="coupling J must be finite"):
            onsager_magnetization(1.5, J=J)


class TestArrayView:
    @pytest.mark.parametrize("m,n", [(4, 32), (12, 96), (8, 64)])
    def test_array_view_matches_classify(self, m, n):
        # At 4x32 each array has one cell, so a Backward view is a
        # one-cell reversed slice.
        dims = LatticeDims(m, n)
        sites = np.arange(dims.sites).reshape(m, n)
        views = {code: array_view(sites, code) for code in ALL_CODES}
        for idx in range(dims.sites):
            code, cell, word, bit = classify(idx, dims)
            assert views[code][cell - 1, word - 1, bit] == idx

    def test_views_share_memory_with_grid(self):
        grid = np.zeros((DIMS.m, DIMS.n), dtype=np.int8)
        for code in ALL_CODES:
            assert np.shares_memory(array_view(grid, code), grid), str(code)

    def test_pack_reads_any_layout_and_dtype(self):
        spins = random_spins(DIMS, 5)
        want = pack(spins).words
        for other in (np.asfortranarray(spins), spins.T.copy().T, spins.astype(np.int64)):
            assert (pack(other).words == want).all()

    @pytest.mark.parametrize("m,n", [(4, 1024), (1024, 32)])
    def test_roundtrip_long_thin_lattices(self, m, n):
        spins = random_spins(LatticeDims(m, n), 6)
        assert (unpack(pack(spins)) == spins).all()
