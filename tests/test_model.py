import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mblaser.dynamics import gauge_rotate
from mblaser.errors import ValidationError
from mblaser.model import (DimensionlessParams, PhysicalParams,
                           derive_dimensionless, ground_state, hopf_project,
                           inversion_from_z, lift_from_z, populations_from_z,
                           ruby_params)


class TestDeriveDimensionless:
    def test_ruby_kappa(self):
        p = ruby_params()
        # sigma chosen so that c*sigma/Omega_p = 1e-7
        assert p.sigma1 == pytest.approx(1e-7, rel=1e-12, abs=0.0)
        assert p.kappa == pytest.approx(0.5e-7, rel=1e-12, abs=0.0)

    def test_ruby_scales_match_quoted_magnitudes(self):
        # order-of-magnitude anchors: |alpha| ~ 1e-23, |beta| ~ 0.2e-2,
        # |gamma| ~ 0.7e-7 (quoted with ~, so a factor-10 window)
        d = derive_dimensionless(ruby_params())
        assert 1e-24 <= d.alpha_scale <= 1e-22
        assert 0.2e-3 <= d.beta_scale <= 0.2e-1
        assert 0.7e-8 <= d.gamma_scale <= 0.7e-6

    def test_zero_pumping_gives_zero_gamma(self):
        d = derive_dimensionless(ruby_params(pump_amplitude=0.0))
        assert d.gamma_scale == 0.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValidationError):
            ruby_params(molecule_count=0.0)
        with pytest.raises(ValidationError):
            PhysicalParams(pump_frequency=-1.0, pump_amplitude=1e-6,
                           dipole_magnitude=4e-18, conductivity=1e-2,
                           cavity_dims=(12.0, 2.0, 2.0),
                           molecule_count=1e20)
        with pytest.raises(ValidationError):
            DimensionlessParams(kappa=-1e-7, alpha_scale=1e-23,
                                beta_scale=1e-2, gamma_scale=1e-7, n=10)


class TestHopfProjection:
    def test_lower_level(self):
        assert hopf_project(np.array([1.0, 0.0])) == 0.0

    def test_equator(self):
        c = np.array([1.0, 1.0]) / np.sqrt(2.0)
        assert hopf_project(c) == pytest.approx(0.5)

    @given(st.floats(0.0, 2.0 * np.pi), st.floats(0.0, np.pi / 2),
           st.floats(0.0, 2.0 * np.pi))
    @settings(max_examples=100, deadline=None)
    def test_gauge_invariance(self, theta, polar, rel):
        c = np.array([np.cos(polar), np.sin(polar) * np.exp(1j * rel)])
        z0 = hopf_project(c)
        z1 = hopf_project(np.exp(1j * theta) * c)
        assert abs(z0 - z1) <= 1e-15

    def test_population_roundtrip(self):
        rng = np.random.default_rng(0)
        v = rng.normal(size=(1000, 4))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        c = v[:, :2] + 1j * v[:, 2:]
        z = hopf_project(c)
        big = np.abs(c[:, 0]) >= np.abs(c[:, 1])
        p1, p2 = populations_from_z(z[big])
        assert np.max(np.abs(p1 - np.abs(c[big, 0]) ** 2)) <= 1e-12
        assert np.max(np.abs(p2 - np.abs(c[big, 1]) ** 2)) <= 1e-12
        # on the other branch the populations are the swapped pair
        p2, p1 = populations_from_z(z[~big])
        assert np.max(np.abs(p1 - np.abs(c[~big, 0]) ** 2)) <= 1e-12
        assert np.max(np.abs(p2 - np.abs(c[~big, 1]) ** 2)) <= 1e-12


class TestPopulationsFromZ:
    def test_origin(self):
        assert populations_from_z(0.0) == (pytest.approx(1.0), pytest.approx(0.0))

    def test_branch_gluing(self):
        p1, p2 = populations_from_z(0.5)
        assert p1 == pytest.approx(0.5)
        assert p2 == pytest.approx(0.5)

    def test_z_03(self):
        # brute force: |c1||c2| = 0.3 with |c1|^2 + |c2|^2 = 1 -> (0.9, 0.1)
        p1, p2 = populations_from_z(0.3)
        assert p1 == pytest.approx(0.9, abs=1e-12)
        assert p2 == pytest.approx(0.1, abs=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValidationError):
            populations_from_z(0.51)

    def test_flat_gradient_at_origin(self):
        h = 1e-6
        base, _ = populations_from_z(0.0)
        grad = np.array([
            (populations_from_z(h)[0] - populations_from_z(-h)[0]) / (2 * h),
            (populations_from_z(1j * h)[0] - populations_from_z(-1j * h)[0]) / (2 * h),
        ])
        assert np.linalg.norm(grad) <= h

    def test_inversion_near_ground(self):
        z = np.array([0.0, 0.1, 0.3])
        inv = inversion_from_z(z)
        assert np.allclose(inv, -np.sqrt(1.0 - 4.0 * np.abs(z) ** 2))


class TestLift:
    def test_roundtrip(self):
        rng = np.random.default_rng(1)
        z = 0.45 * rng.uniform(size=30) * np.exp(2j * np.pi * rng.uniform(size=30))
        c = lift_from_z(z)
        assert np.max(np.abs(np.sum(np.abs(c) ** 2, axis=1) - 1.0)) <= 1e-14
        assert np.max(np.abs(hopf_project(c) - z)) <= 1e-14

    def test_ground_state_phases(self):
        gs = gauge_rotate(ground_state(3), np.array([0.0, np.pi / 2, np.pi]))
        assert np.allclose(np.abs(gs.c[:, 0]), 1.0)
        assert np.allclose(gs.c[:, 1], 0.0)


def test_alpha_beta_nonnegative(small_ensemble):
    assert np.all(small_ensemble.alpha * small_ensemble.beta >= 0.0)
