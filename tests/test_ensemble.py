import dataclasses
import tracemalloc

import numpy as np
import pytest

from mblaser.ensemble import (DEFAULT_ACTIVE_VOLUME, DEFAULT_MODE_INDEX,
                              SAMPLE_BLOCK, SAMPLING_BYTES_PER_MOLECULE,
                              _sample_geometry, cuboid_mode, default_mode_amplitude,
                              sample_ensemble, sum_S, sum_Sigma)
from mblaser.errors import ValidationError
from mblaser.model import HBAR, LIGHT_SPEED, ruby_params

DIMS = (12.0, 2.0, 2.0)
VOL = 48.0


def _mode_amp(k):
    return default_mode_amplitude(k, DIMS)


def _geometry(p, seed, n, hypothesis="H1", crystal_axis=None,
              active_volume=DEFAULT_ACTIVE_VOLUME):
    """The positions and unit dipole and pumping directions (each (n, 3))
    that ``sample_ensemble(p, hypothesis, seed, n=n, ...)`` draws."""
    return _sample_geometry(seed, n, p.cavity_dims, active_volume, hypothesis,
                            crystal_axis)


def _mode_values(p, positions, k=DEFAULT_MODE_INDEX):
    """X(x_n) of the default-amplitude mode k at the sampled positions."""
    return cuboid_mode(positions, k, p.cavity_dims,
                       default_mode_amplitude(k, p.cavity_dims))


class TestCuboidMode:
    def test_tangential_components_vanish_on_faces(self):
        k = (4, 1, 1)
        amp = _mode_amp(k)
        # on the x1 = 0 face the components tangent to it (2 and 3) vanish
        x = np.array([[0.0, 0.7, 1.3], [0.0, 1.1, 0.4]])
        vals = cuboid_mode(x, k, DIMS, amp)
        assert np.max(np.abs(vals[:, 1])) <= 1e-14
        assert np.max(np.abs(vals[:, 2])) <= 1e-14
        # same on x2 = 0 for components 1 and 3
        x = np.array([[3.0, 0.0, 1.3]])
        vals = cuboid_mode(x, k, DIMS, amp)
        assert abs(vals[0, 0]) <= 1e-14 and abs(vals[0, 2]) <= 1e-14

    def test_unit_norm_monte_carlo(self):
        rng = np.random.default_rng(3)
        x = rng.uniform([0, 0, 0], list(DIMS), size=(200_000, 3))
        k = (4, 1, 1)
        vals = cuboid_mode(x, k, DIMS, _mode_amp(k))
        integral = VOL * np.mean(np.sum(vals ** 2, axis=1))
        assert integral == pytest.approx(1.0, rel=0.01)

    def test_divergence_free(self):
        k = (3, 2, 1)
        amp = _mode_amp(k)
        rng = np.random.default_rng(4)
        h = 1e-6
        for x in rng.uniform([1, 0.2, 0.2], [11, 1.8, 1.8], size=(20, 3)):
            div = 0.0
            for j in range(3):
                dx = np.zeros(3)
                dx[j] = h
                div += (cuboid_mode([x + dx], k, DIMS, amp)[0, j]
                        - cuboid_mode([x - dx], k, DIMS, amp)[0, j]) / (2 * h)
            assert abs(div) <= 1e-7

    def test_rejects_bad_amplitude(self):
        with pytest.raises(ValidationError):
            cuboid_mode([[1.0, 1.0, 1.0]], (4, 1, 1), DIMS, np.array([1.0, 0, 0]))
        with pytest.raises(ValidationError):
            cuboid_mode([[1.0, 1.0, 1.0]], (4, 1, 1), DIMS, 2.0 * _mode_amp((4, 1, 1)))

    def test_mean_mode_value_over_active_lamp(self):
        # ergodic-regime mean |X| ~ sqrt(1/48) ~ 0.144 over the lamp
        p = ruby_params()
        positions, _, _ = _geometry(p, seed=0, n=100_000)
        mean_abs = float(np.mean(np.linalg.norm(_mode_values(p, positions, (4, 4, 4)),
                                                axis=1)))
        assert abs(mean_abs - 0.144) <= 0.02


class TestSampling:
    def test_determinism(self):
        p = ruby_params()
        e1 = sample_ensemble(p, "H1", seed=42, n=500)
        e2 = sample_ensemble(p, "H1", seed=42, n=500)
        assert np.array_equal(e1.alpha, e2.alpha)
        assert np.array_equal(e1.proj_mode, e2.proj_mode)
        assert np.array_equal(e1.proj_pump, e2.proj_pump)
        e3 = sample_ensemble(p, "H1", seed=43, n=500)
        assert not np.array_equal(e1.alpha, e3.alpha)

    def test_positions_inside_active_cylinder(self):
        p = ruby_params()
        positions, _, _ = _geometry(p, seed=1, n=2000)
        r = np.sqrt(DEFAULT_ACTIVE_VOLUME / (np.pi * DIMS[0]))
        rho = np.hypot(positions[:, 1] - 1.0, positions[:, 2] - 1.0)
        assert np.all(rho <= r + 1e-12)
        assert np.all((positions[:, 0] >= 0) & (positions[:, 0] <= 12.0))

    def test_h1_sphere_moments(self):
        _, d, _ = _geometry(ruby_params(), seed=5, n=100_000)
        for samples, target in (
            (d[:, 0] ** 2, 1.0 / 3.0),
            (d[:, 0] ** 2 * d[:, 1] ** 2, 1.0 / 15.0),
            (d[:, 0] ** 4, 1.0 / 5.0),
        ):
            se = np.std(samples, ddof=1) / np.sqrt(samples.size)
            assert abs(np.mean(samples) - target) <= 3.0 * se

    def test_first_moments_vanish(self):
        p = ruby_params()
        positions, _, pump_dirs = _geometry(p, seed=6, n=50_000)
        for field in (_mode_values(p, positions), p.pump_amplitude * pump_dirs):
            for j in range(3):
                col = field[:, j]
                se = np.std(col, ddof=1) / np.sqrt(col.size)
                assert abs(np.mean(col)) <= 3.0 * se + 1e-12

    def test_h2_shares_dipole(self):
        p = ruby_params()
        positions, d, pump_dirs = _geometry(p, seed=7, n=100, hypothesis="H2",
                                            crystal_axis=(1.0, 1.0, 0.0))
        assert np.allclose(d, d[0])
        # the discarded dipole block keeps positions and pumping as under H1
        h1_positions, _, h1_pump_dirs = _geometry(p, seed=7, n=100)
        assert np.array_equal(positions, h1_positions)
        assert np.array_equal(pump_dirs, h1_pump_dirs)
        e = sample_ensemble(p, "H2", seed=7, n=100, crystal_axis=(1.0, 1.0, 0.0))
        assert np.array_equal(e.crystal_dipole, d[0])
        with pytest.raises(ValidationError):
            sample_ensemble(ruby_params(), "H2", seed=7, n=10)

    def test_rescale_alpha_hits_target(self):
        e = sample_ensemble(ruby_params(), "H1", seed=8, n=300,
                            rescale_alpha_to_s=1e-5)
        rep = sum_S(e)
        assert rep.empirical == pytest.approx(1e-5, rel=1e-12, abs=0.0)
        # the analytic prediction is rescaled consistently
        assert 0.3 <= rep.ratio <= 3.0


def _whole_array_medium(p, seed, n, active_volume, crystal_axis):
    """(proj_mode, proj_pump, unit dipole) drawn as whole (n, 3) arrays from
    one Philox generator: positions (the box row by row, or the cylinder's
    x1, rho and phi columns in turn), dipole normals (discarded under H2,
    whose dipole is the unit axis), then pumping normals."""
    dims = p.cavity_dims
    rng = np.random.Generator(np.random.Philox(key=seed))
    if active_volume == p.cavity_volume:
        positions = rng.uniform([0.0, 0.0, 0.0], list(dims), size=(n, 3))
    else:
        r = np.sqrt(active_volume / (np.pi * dims[0]))
        x1 = rng.uniform(0.0, dims[0], size=n)
        rho = r * np.sqrt(rng.uniform(0.0, 1.0, size=n))
        phi = rng.uniform(0.0, 2.0 * np.pi, size=n)
        positions = np.stack([x1, dims[1] / 2.0 + rho * np.cos(phi),
                              dims[2] / 2.0 + rho * np.sin(phi)], axis=1)

    def unit_vectors():
        v = rng.normal(size=(n, 3))
        return v / np.linalg.norm(v, axis=1, keepdims=True)

    dip_dirs = unit_vectors()
    if crystal_axis is not None:
        axis = np.asarray(crystal_axis, dtype=float)
        dip_dirs = np.tile(axis / np.linalg.norm(axis), (n, 1))
    pump_dirs = unit_vectors()
    proj_mode = np.einsum("ij,ij->i", dip_dirs, _mode_values(p, positions))
    proj_pump = np.einsum("ij,ij->i", dip_dirs, pump_dirs)
    return proj_mode, proj_pump, dip_dirs[0]


class TestBlockedSampling:
    """The blocked sampler against the whole-array draw, bit for bit, across
    the block edges."""

    @pytest.mark.parametrize("n", [1, SAMPLE_BLOCK - 1, SAMPLE_BLOCK, SAMPLE_BLOCK + 1,
                                   3 * SAMPLE_BLOCK + 7])
    @pytest.mark.parametrize("seed", [5, 2 ** 64 + 3])
    @pytest.mark.parametrize("hypothesis,kwargs", [
        ("H1", {}),
        ("H1", {"active_volume": 48.0}),
        ("H2", {"crystal_axis": (0.3, 0.8, 0.5)}),
    ])
    def test_matches_the_whole_array_draw(self, hypothesis, kwargs, seed, n):
        p = ruby_params()
        e = sample_ensemble(p, hypothesis, seed=seed, n=n, rescale_alpha_to_s=1e-5, **kwargs)
        proj_mode, proj_pump, dipole = _whole_array_medium(
            p, seed, n, kwargs.get("active_volume", DEFAULT_ACTIVE_VOLUME),
            kwargs.get("crystal_axis"))
        assert np.array_equal(e.proj_mode, proj_mode)
        assert np.array_equal(e.proj_pump, proj_pump)
        if hypothesis == "H1":
            assert e.crystal_dipole is None
        else:
            assert np.array_equal(e.crystal_dipole, dipole)
        s_now = float(np.sum((e.alpha_coef * proj_mode * 1.0) * (e.beta_coef * proj_mode)))
        assert e.alpha_rescale == 1e-5 / s_now


class TestErgodicModeStatistics:
    def test_exact_over_full_box(self):
        p = ruby_params()
        positions, _, _ = _geometry(p, seed=9, n=100_000,
                                    active_volume=p.cavity_volume)
        x2 = np.sum(_mode_values(p, positions) ** 2, axis=1)
        se = np.std(x2, ddof=1) / np.sqrt(x2.size)
        assert abs(np.mean(x2) - 1.0 / VOL) <= 3.0 * se

    @pytest.mark.parametrize("k,tol", [((4, 4, 4), 0.15), ((16, 10, 10), 0.03)])
    def test_asymptotic_over_lamp(self, k, tol):
        # over the thin lamp the ergodic value carries an O(wavelength/radius)
        # geometric bias that shrinks with the mode index
        p = ruby_params()
        positions, _, _ = _geometry(p, seed=9, n=100_000)
        ratio = float(np.mean(np.sum(_mode_values(p, positions, k) ** 2, axis=1))) * VOL
        assert abs(ratio - 1.0) <= tol


class TestCollectiveSums:
    def test_s_nonnegative_and_matches_lln(self):
        p = ruby_params()
        e = sample_ensemble(p, "H1", seed=10, n=100_000,
                            active_volume=p.cavity_volume)
        rep = sum_S(e)
        assert rep.empirical >= 0.0
        assert rep.deviation_in_se <= 3.0

    def test_s_ruby_magnitude(self):
        # full molecule count: S ~ 1e-5
        from mblaser.ensemble import analytic_s_for_count
        s = analytic_s_for_count(ruby_params())
        assert 1e-6 <= s <= 1e-4

    def test_sigma_matches_lln(self):
        p = ruby_params()
        e = sample_ensemble(p, "H1", seed=10, n=100_000,
                            active_volume=p.cavity_volume)
        rep = sum_Sigma(e)
        assert rep.deviation_in_se <= 3.0
        # the corrected fourth-moment constant: a_p^2 |P|^4 / (9 V)
        expect = p.pump_amplitude ** 2 * p.dipole_magnitude ** 4 / (9.0 * VOL)
        assert rep.analytic == pytest.approx(expect, rel=1e-12, abs=0.0)

    def test_sigma_zero_without_pumping(self):
        p = ruby_params(pump_amplitude=0.0)
        e = sample_ensemble(p, "H1", seed=1, n=500)
        rep = sum_Sigma(e)
        assert rep.empirical == 0.0 and rep.analytic == 0.0

    def test_sigma_crystalline_orthogonal_axis(self):
        # P along e1 with the mode polarized orthogonally: Sigma = 0 exactly
        amp = np.array([0.0, 1.0, -1.0]) / np.sqrt(2.0)  # unit, transverse, no e1
        e = sample_ensemble(ruby_params(), "H2", seed=3, n=2000, mode_index=(1, 1, 1),
                            crystal_axis=(1.0, 0.0, 0.0), mode_amplitude=amp)
        rep = sum_Sigma(e)
        assert rep.analytic == 0.0
        assert abs(rep.empirical) <= 1e-30
        s_rep = sum_S(e)
        assert s_rep.analytic == 0.0

    def test_sigma_crystalline_general_axis(self):
        e = sample_ensemble(ruby_params(), "H2", seed=3, n=200_000,
                            crystal_axis=(0.3, 0.8, 0.5),
                            active_volume=48.0)
        rep = sum_Sigma(e)
        assert rep.deviation_in_se <= 3.0
        s_rep = sum_S(e)
        assert s_rep.deviation_in_se <= 3.0

    def test_pump_rescaling(self, small_ensemble):
        doubled = small_ensemble.with_pump_amplitude(2.0 * small_ensemble.pump_amplitude)
        assert np.allclose(doubled.gamma, 2.0 * small_ensemble.gamma)
        assert np.array_equal(doubled.alpha, small_ensemble.alpha)

    def test_pump_rescaling_shares_the_projections(self, small_ensemble):
        e = small_ensemble
        target = 1e3 / 7.0 * e.pump_amplitude
        scaled = e.with_pump_amplitude(target)
        for name in ("proj_mode", "proj_pump"):
            assert np.shares_memory(getattr(scaled, name), getattr(e, name))
        # rounded as a stored gamma_n rescaled by the pump factor
        assert np.array_equal(scaled.gamma,
                              (e.gamma_coef * e.proj_pump) * e.pump_factor(target))
        for couplings in (scaled.alpha, scaled.beta, scaled.gamma):
            with pytest.raises(ValueError):
                couplings[0] = 0.0

    def test_keeps_two_per_molecule_arrays(self, small_ensemble):
        e = small_ensemble
        kept = [f.name for f in dataclasses.fields(e) if np.shape(getattr(e, f.name)) == (e.n,)]
        assert kept == ["proj_mode", "proj_pump"]

    def test_sigma_follows_pump_rescaling(self):
        # Sigma carries a_p^2 through the ensemble's pump amplitude
        e = sample_ensemble(ruby_params(), "H1", seed=11, n=2000)
        doubled = e.with_pump_amplitude(2.0 * e.pump_amplitude)
        # abs=0: Sigma is ~1e-84, far below approx's default abs of 1e-12
        assert sum_Sigma(doubled).empirical == pytest.approx(
            4.0 * sum_Sigma(e).empirical, rel=1e-12, abs=0.0)
        assert sum_Sigma(doubled).analytic == pytest.approx(
            4.0 * sum_Sigma(e).analytic, rel=1e-12, abs=0.0)


class TestCouplingIdentities:
    def test_couplings_reproduce_vector_products(self):
        # alpha, beta, gamma rebuild from the sampled vectors to machine
        # precision: alpha = (2c/Omega_p) P.X, beta = P.X/(hbar c),
        # gamma = P.a_p/(hbar c); the kept projections are those of the
        # unit dipole directions
        p = ruby_params()
        e = sample_ensemble(p, "H1", seed=21, n=300)
        positions, d, pump_dirs = _geometry(p, seed=21, n=300)
        mode_values = _mode_values(p, positions)
        assert np.array_equal(e.proj_mode, np.einsum("ij,ij->i", d, mode_values))
        assert np.array_equal(e.proj_pump, np.einsum("ij,ij->i", d, pump_dirs))
        dipoles = p.dipole_magnitude * d
        px = np.einsum("ij,ij->i", dipoles, mode_values)
        pa = np.einsum("ij,ij->i", dipoles, p.pump_amplitude * pump_dirs)
        hc = HBAR * LIGHT_SPEED
        # absolute tolerances at 1e-13 of each coupling scale: the projections
        # can cancel, so purely relative comparison is ill-posed
        a_scale = 2.0 * LIGHT_SPEED / p.pump_frequency * p.dipole_magnitude / np.sqrt(48.0)
        assert np.allclose(e.alpha, 2.0 * LIGHT_SPEED / p.pump_frequency * px,
                           rtol=1e-12, atol=1e-13 * a_scale)
        assert np.allclose(e.beta, px / hc, rtol=1e-12,
                           atol=1e-13 * p.dipole_magnitude / np.sqrt(48.0) / hc)
        assert np.allclose(e.gamma, pa / hc, rtol=1e-12,
                           atol=1e-13 * p.dipole_magnitude * p.pump_amplitude / hc)


class TestSamplingFootprint:
    @pytest.mark.parametrize("hypothesis,kwargs", [
        ("H1", {}),
        ("H1", {"active_volume": 48.0}),
        ("H2", {"crystal_axis": (0.3, 0.8, 0.5)}),
        ("H1", {"rescale_alpha_to_s": 1e-5}),
    ])
    def test_size_cap_bounds_the_sampling_peak(self, hypothesis, kwargs):
        # the capacity estimate covers the measured peak with at most 25 %
        # to spare, so a per-molecule field added without it fails here
        n = 200_000
        tracemalloc.start()
        try:
            sample_ensemble(ruby_params(), hypothesis, seed=0, n=n, **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        estimate = SAMPLING_BYTES_PER_MOLECULE * n
        assert 0.8 * estimate <= peak <= estimate

    @pytest.mark.parametrize("statistic", [sum_S, sum_Sigma])
    def test_sums_hold_one_buffer_of_terms(self, statistic):
        """Each sum writes its terms into one array of N and takes their
        deviations there; besides it, only block-sized temporaries."""
        n = 200_000
        e = sample_ensemble(ruby_params(), "H1", seed=0, n=n)
        tracemalloc.start()
        try:
            statistic(e)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 8 * n <= peak <= 8 * n + 3 * 8 * SAMPLE_BLOCK
