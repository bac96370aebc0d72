"""Variation models: seed derivation, draw determinism, perturbations."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, strategies as st

from repro.extract.rc import NetParasitics
from repro.variation import (
    CDVariationModel,
    MetalRCVariationModel,
    OverlayModel,
    VariationModel,
    VariationSample,
    overlay_rc_factor,
    mc_corner,
    sample_seed,
    splitmix64,
)

from .reference.extract import from_nets
from .reference.sta import scale_extraction, scale_extraction_sided
from .reference.variation import perturb_extraction


def _net(name="n", wl=1000.0, back=0.0, cap=2.0, res=0.5):
    return NetParasitics(
        net=name, wire_cap_ff=cap, wire_res_kohm=res, pin_cap_ff=1.0,
        sink_elmore_ps={("i", "A"): 3.0}, wirelength_nm=wl,
        back_wirelength_nm=back)


class TestSeeds:
    def test_splitmix_is_deterministic_and_64bit(self):
        assert splitmix64(0) == splitmix64(0)
        assert 0 <= splitmix64(12345) < 2 ** 64

    def test_sample_seeds_differ_by_index_and_root(self):
        seeds = {sample_seed(0, i) for i in range(1000)}
        assert len(seeds) == 1000
        assert sample_seed(0, 7) != sample_seed(1, 7)

    def test_seed_is_pure_function_of_root_and_index(self):
        # Not of call order: any worker partition sees the same seeds.
        forward = [sample_seed(42, i) for i in range(16)]
        backward = [sample_seed(42, i) for i in reversed(range(16))]
        assert forward == list(reversed(backward))


class TestModels:
    def test_draw_is_deterministic(self):
        model = VariationModel.for_arch("ffet")
        assert model.draw(3, 5) == model.draw(3, 5)
        assert model.draw(3, 5) != model.draw(3, 6)

    def test_cfet_overlay_shift_is_exactly_zero(self):
        model = VariationModel.for_arch("cfet", overlay_sigma_nm=10.0)
        for i in range(50):
            sample = model.draw(0, i)
            assert sample.overlay_dx_nm == 0.0
            assert sample.overlay_dy_nm == 0.0
            assert sample.overlay_shift_nm == 0.0

    def test_overlay_shift_scales_linearly_with_sigma(self):
        # Same seed -> same underlying deviates -> the shift magnitude
        # scales exactly with sigma (jitter scales along in for_arch).
        lo = VariationModel.for_arch("ffet", overlay_sigma_nm=1.0)
        hi = VariationModel.for_arch("ffet", overlay_sigma_nm=2.0)
        for i in range(20):
            a, b = lo.draw(9, i), hi.draw(9, i)
            assert b.overlay_shift_nm == pytest.approx(
                2.0 * a.overlay_shift_nm)

    def test_changing_one_sigma_leaves_other_draws_untouched(self):
        # Fixed draw order: the CD and metal deviates are identical
        # whatever the overlay sigma is.
        a = VariationModel.for_arch("ffet", overlay_sigma_nm=0.5).draw(1, 3)
        b = VariationModel.for_arch("ffet", overlay_sigma_nm=5.0).draw(1, 3)
        assert a.cell_derate == b.cell_derate
        assert a.front_rc_scale == b.front_rc_scale
        assert a.back_rc_scale == b.back_rc_scale

    def test_zero_sigma_is_the_nominal_sample(self):
        model = VariationModel.for_arch("ffet", overlay_sigma_nm=0.0,
                                        cd_sigma=0.0, rc_sigma=0.0)
        sample = model.draw(0, 0)
        assert sample.overlay_shift_nm == 0.0
        assert sample.cell_derate == 1.0
        assert sample.front_rc_scale == 1.0
        assert sample.back_rc_scale == 1.0

    def test_derate_floors_hold_under_extreme_sigma(self):
        cd = CDVariationModel(sigma_rel=50.0)
        metal = MetalRCVariationModel(front_sigma_rel=50.0,
                                      back_sigma_rel=50.0)
        rng = random.Random(0)
        for _ in range(200):
            assert cd.sample(rng) >= cd.floor
            front, back = metal.sample(rng)
            assert front >= metal.floor and back >= metal.floor

    def test_validation(self):
        with pytest.raises(ValueError):
            OverlayModel(sigma_x_nm=-1.0)
        with pytest.raises(ValueError):
            OverlayModel(sides=3)
        with pytest.raises(ValueError):
            CDVariationModel(sigma_rel=-0.1)
        with pytest.raises(ValueError):
            MetalRCVariationModel(floor=0.0)


class TestPerturb:
    def test_overlay_rc_factor_grows_with_shift(self):
        near = VariationSample(0, 0, 1.0, 0.0, 1.0, 1.0, 1.0)
        far = VariationSample(0, 0, 8.0, 6.0, 1.0, 1.0, 1.0)
        pitch = 16.0
        assert overlay_rc_factor(far, pitch) > overlay_rc_factor(near, pitch)
        zero = VariationSample(0, 0, 0.0, 0.0, 1.0, 1.0, 1.0)
        assert overlay_rc_factor(zero, pitch) == 1.0
        with pytest.raises(ValueError):
            overlay_rc_factor(zero, 0.0)

    def test_mc_corner_wraps_cell_derate(self):
        sample = VariationSample(7, 0, 0.0, 0.0, 1.05, 1.0, 1.0)
        corner = mc_corner(sample)
        assert corner.cell_derate == 1.05
        assert corner.wire_derate == 1.0

    def test_frontside_only_net_ignores_overlay(self):
        extraction = from_nets([_net(back=0.0)])
        shifted = VariationSample(0, 0, 10.0, 0.0, 1.0, 1.0, 1.0)
        out = perturb_extraction(extraction, shifted, pitch_nm=16.0)
        assert out["n"] == extraction["n"]

    def test_backside_net_rc_grows_with_overlay(self):
        extraction = from_nets([_net(back=1000.0)])  # fully backside
        shifted = VariationSample(0, 0, 8.0, 0.0, 1.0, 1.0, 1.0)
        out = perturb_extraction(extraction, shifted, pitch_nm=16.0)
        assert out["n"].wire_cap_ff > extraction["n"].wire_cap_ff
        assert out["n"].wire_res_kohm > \
            extraction["n"].wire_res_kohm
        # Pin caps belong to the cells: untouched.
        assert out["n"].pin_cap_ff == extraction["n"].pin_cap_ff


class TestSidedScaling:
    def test_equal_factors_match_plain_scaling(self):
        extraction = from_nets([_net("a", back=300.0),
                                           _net("b", back=0.0)])
        plain = scale_extraction(extraction, 1.3)
        sided = scale_extraction_sided(extraction, 1.3, 1.3)
        for name in extraction:
            assert sided[name] == plain[name]

    def test_back_fraction_weights_the_factor(self):
        extraction = from_nets([_net("half", wl=1000.0, back=500.0)])
        out = scale_extraction_sided(extraction, 1.0, 2.0)
        assert out["half"].wire_cap_ff == pytest.approx(2.0 * 1.5)

    def test_unrouted_net_is_untouched(self):
        extraction = from_nets([_net(wl=0.0, back=0.0)])
        out = scale_extraction_sided(extraction, 1.0, 3.0)
        assert out["n"] == extraction["n"]

    def test_noop_returns_same_object(self):
        extraction = from_nets([_net()])
        assert scale_extraction_sided(extraction, 1.0, 1.0) is extraction

    @given(st.floats(0.5, 2.0), st.floats(0.5, 2.0),
           st.floats(0.0, 1.0))
    def test_front_factor_exact_on_front_nets(self, front, back, frac):
        extraction = from_nets([_net(wl=1000.0, back=0.0)])
        out = scale_extraction_sided(extraction, front, back)
        assert out["n"].wire_cap_ff == 2.0 * front


class TestBackFraction:
    def test_back_fraction_bounds(self):
        assert _net(wl=0.0, back=0.0).back_fraction == 0.0
        assert _net(wl=100.0, back=25.0).back_fraction == 0.25
        assert _net(wl=100.0, back=500.0).back_fraction == 1.0
