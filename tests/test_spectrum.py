import dataclasses
import math

import numpy as np
import pytest
from scipy.linalg import expm

from conftest import DESK_KAPPA, desk_params
from mblaser import spectrum
from mblaser.dynamics import OdeSettings
from mblaser.ensemble import sample_ensemble
from mblaser.errors import CapacityError, NumericsError, ValidationError
from mblaser.poincare import jacobian_fd, make_numeric_map
from mblaser.spectrum import (SERIES_RADIUS, SERIES_TERMS, _detuned_norm_sum,
                              _detuned_sum, _maxwell_component, _resolvent_sums,
                              assemble_blocks, assemble_full,
                              char_polynomial_centered,
                              VERDICT_TOL, cluster_guard,
                              eigvec_back_substitute, poly_roots,
                              reduced_matrix, resonance_verdict, threshold_scan)
from mblaser.verify import desk_ensemble

PI = np.pi


def _coupling_matrix(kappa):
    """K, the kernel of the successive-approximation map's borders: V_n =
    pi alpha_n K and W_n = -pi beta_n K at S = 0, to O(kappa^2)."""
    return np.array([[1.0 - kappa * PI, kappa / 2.0],
                     [-kappa / 2.0, 1.0 - kappa * PI]])


#: the O(S) border dressing of that map at kappa = 0: W_n gains +beta_n S
#: DRESSING, V_n loses alpha_n S DRESSING (tests/test_kernels.py has its oracle)
DRESSING = np.array([[PI ** 3 / 6.0 + PI / 8.0, -PI ** 2 / 4.0],
                     [PI ** 2 / 4.0, PI ** 3 / 6.0 - PI / 8.0]])


def _desk(n, seed=11, **kw):
    return sample_ensemble(desk_params(n), "H1", seed,
                           rescale_alpha_to_s=1e-5, **kw)


class TestAssembleBlocks:
    def test_decoupled_undamped_is_identity(self):
        params = dataclasses.replace(desk_params(3), alpha_scale=0.0, kappa=0.0)
        e = sample_ensemble(params, "H1", seed=0)
        bd = assemble_blocks(e, 0.0)
        assert np.max(np.abs(bd.M - np.eye(2))) <= 1e-14

    def test_m11_formula(self, small_ensemble):
        # the first-order formula of the successive-approximation map, to
        # P's O(S^2) Taylor remainder (about 5 S^2)
        bd = assemble_blocks(small_ensemble, 1e-7)
        tol = 10.0 * 1e-5 ** 2
        expect = 1.0 - 2 * PI * 1e-7 - PI ** 2 * 1e-5 / 2.0
        assert bd.M[0, 0] == pytest.approx(expect, rel=0.0, abs=tol)
        # antisymmetric off-diagonal +/- pi S / 4
        assert bd.M[0, 1] == pytest.approx(PI * 1e-5 / 4.0, rel=0.0, abs=tol)
        assert bd.M[1, 0] == pytest.approx(-PI * 1e-5 / 4.0, rel=0.0, abs=tol)

    def test_border_structure_molecule_independent(self, small_ensemble):
        bd = assemble_blocks(small_ensemble, 1e-7)
        e = small_ensemble
        V, W = _borders(assemble_full(bd))
        for i in range(e.n):
            assert np.max(np.abs(V[i] / e.alpha[i] - bd.v_border)) <= 1e-14
            assert np.max(np.abs(W[i] / e.beta[i] - bd.w_border)) <= 1e-14

    def test_w_border_sign_damps_collective_mode(self, small_ensemble):
        # the FD oracle fixes W_n ~ -pi beta_n K (+the O(S) dressing); the
        # opposite sign would make the unpumped ground state expanding
        bd = assemble_blocks(small_ensemble, 1e-7)
        lead = -PI * _coupling_matrix(1e-7) + bd.S * DRESSING
        W = _borders(assemble_full(bd))[1]
        for i in range(small_ensemble.n):
            assert np.max(np.abs(W[i] / small_ensemble.beta[i] - lead)) <= 10.0 * bd.S ** 2

    def test_d_variants(self, small_ensemble):
        bd_id = assemble_blocks(small_ensemble, 1e-7, d_variant="identity")
        assert np.allclose(_local_diagonal(bd_id), 1.0)
        bd_g = assemble_blocks(small_ensemble, 1e-7, d_variant="gamma")
        expect = 1.0 - 2 * PI ** 2 * small_ensemble.gamma ** 2
        assert np.allclose(_local_diagonal(bd_g)[1::2], expect)
        assert np.allclose(_local_diagonal(bd_g)[0::2], 1.0)
        # the identity variant is the unpumped blocks
        zero = bd_g.with_pump_factor(0.0)
        for method in ("polynomial", "both"):
            assert np.array_equal(resonance_verdict(bd_id, method).multipliers,
                                  resonance_verdict(zero, method).multipliers)
        with pytest.raises(ValidationError):
            assemble_blocks(small_ensemble, 1e-7, d_variant="bogus")


def _borders(full):
    """The (N, 2, 2) blocks V_n (field rows) and W_n (field columns) of a
    dense differential."""
    n = (full.shape[0] - 2) // 2
    return (full[:2, 2:].reshape(2, n, 2).transpose(1, 0, 2),
            full[2:, :2].reshape(n, 2, 2))


def _local_diagonal(bd):
    """The diagonals of D_n = diag(1, 1 - delta_n), interleaved."""
    d = np.ones(2 * bd.n)
    d[1::2] -= bd.gamma_detuning()
    return d


def _dense_by_molecule(bd):
    """The dense differential written one molecule's 2x2 blocks at a time:
    V_n = alpha_n v_border, W_n = beta_n w_border, D_n = diag(1, 1 - delta_n),
    plus the cross blocks beta_n alpha_n' m."""
    n = bd.n
    out = np.zeros((2 + 2 * n, 2 + 2 * n))
    out[:2, :2] = bd.M
    delta = bd.gamma_detuning()
    for i in range(n):
        r = 2 + 2 * i
        out[r:r + 2, :2] = bd.beta[i] * bd.w_border
        out[r:r + 2, r:r + 2] = np.diag([1.0, 1.0 - delta[i]])
        out[:2, r:r + 2] = bd.alpha[i] * bd.v_border
    out[2:, 2:] += np.einsum("i,j,ab->iajb", bd.beta, bd.alpha,
                             bd.cross_kernel).reshape(2 * n, 2 * n)
    return out


def _triangle(bd):
    """The dense differential without the field-mediated feedback onto the
    molecules (V and the cross blocks): block lower triangular."""
    tri = assemble_full(bd)
    tri[:2, 2:] = 0.0
    tri[2:, 2:] = np.diag(_local_diagonal(bd))
    return tri


def _medium(n, S, kappa, seed=7):
    """The desk medium at synchronization sum S and damping kappa."""
    params = dataclasses.replace(desk_params(n), kappa=kappa)
    return sample_ensemble(params, "H1", seed, rescale_alpha_to_s=S)


class TestPropagator:
    """The blocks read from the one-period propagator, exact in S and kappa."""

    @pytest.mark.parametrize("S", [1e-5, 1e-3, 0.1, 1.0])
    @pytest.mark.parametrize("kappa", [0.0, 1e-7, 0.05])
    def test_zero_pump_sum_rule_and_bound(self, S, kappa):
        # the Floquet exponents sum to -2 kappa, and E = a^2 + b^2 + |W|^2/S
        # decays at the rate 4 kappa b^2: no multiplier leaves the unit circle.
        # The dense route checks the bound here; TestDegreeFour checks the
        # polynomial route's roots
        bd = assemble_blocks(_medium(20, S, kappa), kappa).with_pump_factor(0.0)
        sign, logdet = np.linalg.slogdet(assemble_full(bd))
        assert sign == 1.0
        assert abs(logdet + 4.0 * PI * kappa) <= 1e-12
        rep = resonance_verdict(bd, method="both")
        assert rep.collective_max_abs_mu <= 1.0 + VERDICT_TOL

    @pytest.mark.parametrize("S", [1e-5, 1e-3, 0.1])
    @pytest.mark.parametrize("kappa", [0.0, 0.05])
    def test_matches_fd_jacobian(self, S, kappa):
        e = _medium(8, S, kappa)
        rtol, h = 1e-13, 1e-5
        pmap = make_numeric_map(e, kappa, OdeSettings(rel_tol=rtol, abs_tol=1e-14))
        jac = jacobian_fd(pmap, np.zeros(2 + 2 * e.n), h=h)
        bd = assemble_blocks(e, kappa)
        # FD's truncation and integration-noise terms, with room to spare
        tol = 10.0 * (h ** 2 + rtol / h)
        assert np.max(np.abs(jac - assemble_full(bd))) <= tol
        mult = resonance_verdict(bd).multipliers
        collective = mult[np.abs(mult - 1.0) > cluster_guard(bd)]
        assert collective.size == 4
        fd = np.linalg.eigvals(jac)
        for mu in collective:
            assert np.min(np.abs(fd - mu)) <= tol


class TestAssembleFull:
    @pytest.mark.parametrize("factor", [0.0, 1e4])
    def test_equals_per_molecule_blocks(self, factor):
        e = desk_ensemble(50)
        bd = assemble_blocks(e, DESK_KAPPA).with_pump_factor(factor)
        full = assemble_full(bd)
        assert np.array_equal(full, _dense_by_molecule(bd))
        # each border entry and the local diagonal are scalar times kernel;
        # the V kernel is the successive-approximation map's, dressed at O(S)
        assert (np.max(np.abs(bd.v_border - (PI * _coupling_matrix(DESK_KAPPA)
                                             - bd.S * DRESSING)))
                <= 10.0 * bd.S ** 2)
        for a in range(2):
            for b in range(2):
                assert np.array_equal(full[a, 2 + b::2], e.alpha * bd.v_border[a, b])
                assert np.array_equal(full[2 + a::2, b], e.beta * bd.w_border[a, b])
        cross = np.diag(np.einsum("i,j,ab->iajb", bd.beta, bd.alpha, bd.cross_kernel)
                        .reshape(2 * bd.n, 2 * bd.n))
        assert np.array_equal(np.diag(full)[2:], _local_diagonal(bd) + cross)

    def test_triangle_spectrum_is_union(self):
        e = _desk(60)
        bd = assemble_blocks(e, DESK_KAPPA)
        vals = np.sort_complex(np.linalg.eigvals(_triangle(bd)))
        expect = np.sort_complex(np.concatenate(
            [np.linalg.eigvals(bd.M), _local_diagonal(bd)]))
        assert np.max(np.abs(vals - expect)) <= 1e-12

    def test_zero_alpha_equals_triangle(self):
        params = dataclasses.replace(desk_params(5), alpha_scale=0.0)
        e = sample_ensemble(params, "H1", seed=0)
        bd = assemble_blocks(e, DESK_KAPPA)
        assert np.array_equal(assemble_full(bd), _triangle(bd))

    def test_capacity_cap(self):
        e = _desk(20)
        bd = assemble_blocks(e, DESK_KAPPA)
        big = dataclasses.replace(bd, medium=dataclasses.replace(
            bd.medium, proj_mode=np.zeros(501), proj_pump=np.zeros(501)))
        with pytest.raises(CapacityError):
            assemble_full(big)

    def test_single_molecule_four_by_four(self):
        e = _desk(1, seed=5)
        bd = assemble_blocks(e, DESK_KAPPA)
        full = assemble_full(bd)
        assert full.shape == (4, 4)
        dense = np.linalg.eigvals(full)
        roots = 1.0 + poly_roots(char_polynomial_centered(bd))
        for mu in dense:
            assert np.min(np.abs(roots - mu)) <= 1e-10


class TestReducedMatrix:
    def test_zero_alpha_reduces_to_shift(self):
        params = dataclasses.replace(desk_params(4), alpha_scale=0.0)
        e = sample_ensemble(params, "H1", seed=0)
        bd = assemble_blocks(e, DESK_KAPPA)
        mu = 1.01 + 0.02j
        red = reduced_matrix(mu, bd)
        assert np.max(np.abs(red - (bd.M - mu * np.eye(2)))) <= 1e-16

    def test_exact_vs_expanded(self, small_ensemble):
        bd = assemble_blocks(small_ensemble, 1e-7)
        dmax = float(np.max(bd.gamma_detuning()))
        for mu in (1.0 + 0.01j, 1.0 - 0.005 + 0.008j):
            u = abs(mu - 1.0)
            assert u >= 100.0 * float(np.max(small_ensemble.gamma)) ** 2
            # the two-term Laurent expansion the polynomial is built from
            expanded = bd.S / (mu - 1.0) - 2.0 * PI ** 2 * bd.gamma_sq_sum / (mu - 1.0) ** 2
            gap = abs(_detuned_sum(mu - 1.0, bd) - expanded)
            # next Laurent term: pi^2-weighted sum alpha beta delta^2 / u^3
            bound = 10.0 * PI ** 2 * bd.S * dmax ** 2 / u ** 3 + 1e-18
            assert gap <= bound

    def test_pole_rejection(self, small_ensemble):
        bd = assemble_blocks(small_ensemble, 1e-7)
        with pytest.raises(NumericsError):
            reduced_matrix(1.0, bd)

    def test_determinant_vanishes_at_dense_eigenvalues(self):
        e = _desk(10, seed=13)
        bd = assemble_blocks(e, DESK_KAPPA)
        full = assemble_full(bd)
        dense = np.linalg.eigvals(full)
        guard = cluster_guard(bd, factor=100.0)
        norm2 = np.linalg.norm(reduced_matrix(1.0 + 0.05j, bd)) ** 2
        for mu in dense[np.abs(dense - 1.0) > guard]:
            val = abs(np.linalg.det(reduced_matrix(mu, bd)))
            assert val <= 1e-8 * norm2


def _t_matrix(bd):
    """T(rho-bar) = P[:4, :4] - I - rho-bar e_v e_v^T, with the mean detuning
    rho-bar = 2 pi^2 G / S."""
    T = bd.propagator[:4, :4] - np.eye(4)
    T[3, 3] -= 2.0 * PI ** 2 * bd.gamma_sq_sum / bd.S
    return T


class TestCharPolynomial:
    def test_decoupled_is_pure_power(self):
        params = dataclasses.replace(desk_params(3), alpha_scale=0.0, kappa=0.0,
                                     gamma_scale=0.0)
        e = sample_ensemble(params, "H1", seed=0)
        bd = assemble_blocks(e, 0.0)
        cent = char_polynomial_centered(bd)
        # p(u) = u^4 exactly
        assert cent[0] == 1.0
        assert np.max(np.abs(cent[1:])) <= 1e-14

    @pytest.mark.parametrize("pump", [1.0, 1e4])
    def test_first_coefficient_is_minus_trace(self, pump):
        bd = assemble_blocks(_desk(30, seed=3), DESK_KAPPA).with_pump_factor(pump)
        centered = char_polynomial_centered(bd)
        # the u^3 coefficient of det(u I - T) is -tr T
        T = _t_matrix(bd)
        assert abs(centered[1] + np.trace(T)) <= 1e-15 * np.sum(np.abs(np.diag(T)))

    @pytest.mark.parametrize("pump", [1.0, 1e4])
    def test_matches_determinant_of_t_matrix(self, pump):
        # independent oracle for the Faddeev-LeVerrier coefficients: the 4x4
        # u I - T(rho-bar) evaluated at a point and handed to LU
        bd = assemble_blocks(_desk(30, seed=3), 1e-7).with_pump_factor(pump)
        coeffs = char_polynomial_centered(bd)
        T = _t_matrix(bd)
        for r in (1e-3, 1e-2, 1e-1, 1.0):
            for phase in (0.4, 2.5):
                u = r * np.exp(1j * phase)
                scale = np.polyval(np.abs(coeffs), r)
                assert abs(np.polyval(coeffs, u) - np.linalg.det(u * np.eye(4) - T)) <= 1e-13 * scale

    def test_roots_match_dense(self):
        e = _desk(10, seed=13)
        bd = assemble_blocks(e, DESK_KAPPA)
        dense = np.linalg.eigvals(assemble_full(bd))
        roots = 1.0 + poly_roots(char_polynomial_centered(bd))
        guard = cluster_guard(bd, factor=100.0)
        for mu in dense[np.abs(dense - 1.0) > guard]:
            assert np.min(np.abs(roots - mu)) <= 1e-6


class TestDegreeFour:
    """The collective multipliers as the eigenvalues of the 4x4 T(rho)."""

    @pytest.mark.parametrize("S", [1e-5, 1e-3, 0.1, 1.0, 2.25])
    def test_zero_pump_roots_are_the_floquet_multipliers(self, S):
        # at kappa = 0 the collective multipliers are exp(+-2 pi i omega+-),
        # omega+- = sqrt(1 + S/4) +- sqrt(S)/2; the pairs collide at S = 1
        # and S = 2.25
        bd = assemble_blocks(_medium(20, S, 0.0), 0.0).with_pump_factor(0.0)
        u = resonance_verdict(bd).multipliers - 1.0
        omega = math.sqrt(1.0 + S / 4.0) + np.array([1.0, -1.0]) * math.sqrt(S) / 2.0
        assert u.size == 4
        for expect in np.expm1(2j * PI * np.concatenate([omega, -omega])):
            assert np.min(np.abs(u - expect)) <= 1e-13

    @pytest.mark.parametrize("S", [1e-5, 1e-3, 0.1, 1.0, 2.25])
    @pytest.mark.parametrize("kappa", [0.0, 1e-7, 0.05])
    def test_zero_pump_sum_rule(self, S, kappa):
        bd = assemble_blocks(_medium(20, S, kappa), kappa).with_pump_factor(0.0)
        mult = resonance_verdict(bd).multipliers
        assert mult.size == 4
        assert abs(np.sum(np.log(np.abs(mult))) + 4.0 * PI * kappa) <= 1e-12

    @pytest.mark.parametrize("S", [1.0, 2.25])
    def test_colliding_pairs_match_dense(self, S):
        bd = assemble_blocks(_medium(40, S, 0.0), 0.0)
        rep = resonance_verdict(bd)
        dense = resonance_verdict(bd, method="both")
        assert abs(rep.collective_max_abs_mu - dense.collective_max_abs_mu) <= 1e-12
        assert not rep.resonance

    @staticmethod
    def _strongly_pumped():
        """Criterion 10's medium at x3.3e4, where q = max delta / |mu - 1|
        is about 0.1 and the fixed point needs the most steps."""
        e = desk_ensemble(300, seed=9)
        return assemble_blocks(e, DESK_KAPPA).with_pump_factor(e.pump_factor(3.3e4))

    def test_reduced_determinant_vanishes_at_strong_pump(self):
        bd = self._strongly_pumped()
        mult = resonance_verdict(bd).multipliers
        mult = mult[np.abs(mult - 1.0) > cluster_guard(bd)]
        assert mult.size == 4
        assert bd.detuning_max / np.min(np.abs(mult - 1.0)) == pytest.approx(0.098, abs=1e-3)
        eps = np.finfo(float).eps
        for mu in mult:
            # the roundoff of det at a singular 2x2: |red| times the error of
            # its entries, eps (|M| + |mu|) from forming M - mu
            red = reduced_matrix(mu, bd)
            floor = eps * np.linalg.norm(red) * (np.linalg.norm(bd.M) + abs(mu))
            assert abs(np.linalg.det(red)) <= 8.0 * floor

    def test_unsettled_fixed_point_is_refused(self, monkeypatch):
        monkeypatch.setattr(spectrum, "_FIXED_POINT_STEPS", 2)
        with pytest.raises(NumericsError, match="did not settle in 2 fixed-point steps"):
            resonance_verdict(self._strongly_pumped())


class TestPolyRoots:
    def test_sextuple_root(self):
        coeffs = np.poly([1.0] * 6)
        roots = poly_roots(coeffs)
        assert np.max(np.abs(roots - 1.0)) <= 2e-2  # multiple root: cbrt(eps)-ish
        assert abs(np.polyval(coeffs, roots[0])) <= 1e-10 * np.linalg.norm(coeffs)

    def test_roots_of_unity(self):
        coeffs = np.array([1.0, 0, 0, 0, 0, 0, -1.0])
        roots = np.sort_complex(poly_roots(coeffs))
        expect = np.sort_complex(np.exp(2j * PI * np.arange(6) / 6))
        assert np.max(np.abs(roots - expect)) <= 1e-12

    def test_random_stable_polynomial_residuals(self):
        rng = np.random.default_rng(4)
        mus = 0.9 * np.exp(2j * PI * rng.uniform(size=3))
        mus = np.concatenate([mus, np.conj(mus)])
        coeffs = np.real(np.poly(mus))
        roots = poly_roots(coeffs)
        worst = max(abs(np.polyval(coeffs, r)) for r in roots)
        assert worst <= 1e-10 * np.linalg.norm(coeffs)

    def test_degenerate_leading_coefficient(self):
        with pytest.raises(ValidationError):
            poly_roots(np.array([0.0, 1, 0, 0, 0, 0, 1]))

    def test_nan_coefficient_is_refused(self):
        """A NaN makes the degree undecidable: refused before `np.roots`."""
        with pytest.raises(ValidationError):
            poly_roots(np.array([1.0, np.nan, 0, 0, 0, 0, 1]))


class TestEigenvectors:
    def test_back_substitution_residuals(self):
        e = _desk(10, seed=13)
        bd = assemble_blocks(e, DESK_KAPPA)
        full = assemble_full(bd)
        roots = 1.0 + poly_roots(char_polynomial_centered(bd))
        guard = cluster_guard(bd, factor=100.0)
        checked = 0
        for mu in roots:
            if abs(mu - 1.0) <= guard:
                continue
            vec = eigvec_back_substitute(mu, bd)
            assert np.linalg.norm(full @ vec - mu * vec) <= 1e-6
            assert np.linalg.norm(vec[:2]) > 1e-3   # Maxwell component alive
            checked += 1
        assert checked == 4

    def test_rejects_non_eigenvalue(self, small_ensemble):
        bd = assemble_blocks(small_ensemble, 1e-7)
        with pytest.raises(NumericsError):
            eigvec_back_substitute(1.3 + 0.2j, bd)


class TestVerdict:
    def test_no_pumping_is_stable(self, nopump_ensemble):
        e = nopump_ensemble
        bd = assemble_blocks(e, DESK_KAPPA)
        rep = resonance_verdict(bd, method="both")
        assert rep.max_abs_mu <= 1.0 + 1e-12
        assert not rep.resonance

    def test_uncoupled_undamped_multipliers_at_one(self):
        params = dataclasses.replace(desk_params(4), alpha_scale=0.0, kappa=0.0,
                                     beta_scale=0.0, gamma_scale=0.0)
        e = sample_ensemble(params, "H1", seed=0)
        rep = resonance_verdict(assemble_blocks(e, 0.0), method="both")
        assert np.max(np.abs(rep.multipliers - 1.0)) <= 1e-14
        assert not rep.resonance

    def test_cross_method_consistency(self):
        e = _desk(40, seed=17)
        bd = assemble_blocks(e, DESK_KAPPA)
        rep = resonance_verdict(bd, method="both")
        assert rep.cross_discrepancy <= 1e-8
        assert rep.polynomial_roots is not None

    def test_eigenvalue_clusters(self):
        # all dense multipliers sit near 1, near eig(D_n), or on the four
        # collective roots; the reduced determinant vanishes at each
        # nontrivial dense eigenvalue
        e = _desk(200, seed=19)
        bd = assemble_blocks(e, DESK_KAPPA)
        dense = np.linalg.eigvals(assemble_full(bd))
        roots = 1.0 + poly_roots(char_polynomial_centered(bd))
        guard = cluster_guard(bd, factor=100.0)
        norm2 = np.linalg.norm(reduced_matrix(1.0 + 0.05j, bd)) ** 2
        outside = 0
        for mu in dense:
            if abs(mu - 1.0) <= guard:
                continue
            outside += 1
            assert np.min(np.abs(roots - mu)) <= 1e-6
            assert abs(np.linalg.det(reduced_matrix(mu, bd))) <= 1e-8 * norm2
        assert outside == 4

    def test_threshold_scan_records(self, small_ensemble):
        pts = threshold_scan(small_ensemble, 1e-7, [1.0, 10.0, 100.0])
        assert len(pts) == 3
        assert all(np.isfinite(p.max_abs_mu) for p in pts)
        assert all(np.isfinite(p.maxwell_floor) for p in pts)
        # max |mu| is recorded per point; monotonicity is not asserted


class TestMomentSeries:
    """The moment-series sums against direct per-molecule sums, across the
    series radius q = max delta / |mu - 1| <= SERIES_RADIUS and beyond it."""

    QS = (1e-8, 1e-6, 1e-4, 1e-2, 0.05, SERIES_RADIUS,
          SERIES_RADIUS * (1.0 + 1e-9), 0.15, 0.5)
    PHASES = (0.0, 0.3, 1.5, 2.9, PI)

    @pytest.fixture(scope="class")
    def bd(self):
        # pumped hard enough that the detunings are far above roundoff
        return assemble_blocks(_desk(50, seed=23), 1e-7).with_pump_factor(1e3)

    def _points(self, bd):
        """(mu, u = mu - 1) at each q and phase."""
        for q in self.QS:
            for phase in self.PHASES:
                mu = 1.0 + bd.detuning_max / q * np.exp(1j * phase)
                yield mu, mu - 1.0

    def test_resolvent_sum(self, bd):
        det = bd.gamma_detuning()
        for mu, u in self._points(bd):
            terms = bd.alpha * bd.beta / (u + det)
            direct = complex(math.fsum(terms.real), math.fsum(terms.imag))
            got = _resolvent_sums(mu, bd)
            assert abs(got[1, 1] - direct) <= 1e-13 * abs(direct)
            assert got[0, 0] == bd.S / u

    def test_norm_sum(self, bd):
        det = bd.gamma_detuning()
        for _, u in self._points(bd):
            direct = math.fsum(bd.beta ** 2 / np.abs(u + det) ** 2)
            assert abs(_detuned_norm_sum(u, bd) - direct) <= 1e-13 * direct

    def test_maxwell_component_at_roots(self):
        e = _desk(10, seed=13)
        bd = assemble_blocks(e, DESK_KAPPA)
        report = resonance_verdict(bd)
        checked = 0
        for mu, comp in zip(report.multipliers, report.maxwell_components):
            if np.isfinite(comp):
                vec = eigvec_back_substitute(mu, bd)
                assert abs(comp - np.linalg.norm(vec[:2])) <= 1e-13 * comp
                checked += 1
        assert checked == 4

    def test_s_and_g_from_moments(self, bd):
        ab = bd.alpha * bd.beta
        assert bd.S == pytest.approx(math.fsum(ab), rel=1e-14, abs=0.0)
        g = math.fsum(ab * bd.gamma ** 2)   # the couplings at this pump level
        assert bd.gamma_sq_sum == pytest.approx(g, rel=1e-14, abs=0.0)
        assert bd.with_pump_factor(3.0).gamma_sq_sum == pytest.approx(9.0 * g, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("scale", ["alpha_scale", "beta_scale"])
    @pytest.mark.parametrize("pump", [1.0, 1e3])
    def test_families_against_direct_sums(self, scale, pump):
        """Neither family may be the other times a ratio of sums, which is
        0/0 or S/0 with alpha or beta zero: each must match its direct sum
        (alpha_n beta_n = 0 in both media), at either pump level."""
        e = sample_ensemble(dataclasses.replace(desk_params(40), **{scale: 0.0}), "H1", 7)
        e = e.with_pump_amplitude(pump * e.pump_amplitude)
        moments = assemble_blocks(e, DESK_KAPPA).moments
        r = e.gamma ** 2 / np.max(e.gamma ** 2)
        for family, terms in ((moments.ab, e.alpha * e.beta), (moments.bb, e.beta ** 2)):
            direct = np.array([math.fsum(terms * r ** k) for k in range(SERIES_TERMS)])
            assert np.all(np.abs(family - direct) <= 1e-14 * direct)
        assert not moments.ab.any()
        assert moments.bb.all() == (scale == "alpha_scale")

    def test_identity_variant_has_no_detuning(self, small_ensemble):
        bd = assemble_blocks(small_ensemble, 1e-7, d_variant="identity")
        assert bd.detuning_max == 0.0
        mu = 1.01 + 0.02j
        assert _resolvent_sums(mu, bd)[1, 1] == bd.S / (mu - 1.0)


class TestThresholdScan:
    def test_matches_per_point_verdicts(self):
        e = _desk(2000, seed=29)
        grid = np.geomspace(1e1, 1e4, 7) * e.pump_amplitude
        points = threshold_scan(e, DESK_KAPPA, grid)
        assert [p.pump_amplitude for p in points] == list(grid)
        base = assemble_blocks(e, DESK_KAPPA)
        for p, ap in zip(points, grid):
            bd = assemble_blocks(e.with_pump_amplitude(ap), DESK_KAPPA)
            rep = resonance_verdict(bd)
            assert p.max_abs_mu == rep.max_abs_mu
            assert p.resonance == rep.resonance
            assert abs(p.maxwell_floor - rep.maxwell_floor) <= 1e-12 * rep.maxwell_floor
            # the rescaled blocks give the per-point collective multipliers
            scaled = base.with_pump_factor(e.pump_factor(ap))
            assert scaled.gamma_sq_sum == pytest.approx(bd.gamma_sq_sum, rel=1e-14, abs=0.0)
            guard = cluster_guard(bd)
            want = rep.multipliers[np.abs(rep.multipliers - 1.0) > guard]
            got = resonance_verdict(scaled).multipliers
            got = got[np.abs(got - 1.0) > guard]
            assert want.size == got.size == 4
            for mu in want:
                assert np.min(np.abs(got - mu)) <= 1e-12 * abs(mu - 1.0)

    def test_collective_max_abs_mu_on_criterion_10_medium(self):
        """Cluster roots make max_abs_mu read 1 at every point; the
        collective column is the largest |mu| of the valid roots."""
        e = desk_ensemble(300, seed=9)
        grid = np.geomspace(1e1, 1e4, 25)
        points = threshold_scan(e, 1e-7, grid)
        collective = np.array([p.collective_max_abs_mu for p in points])
        assert np.all(collective < 1.0)
        assert np.ptp(collective) > 0.0
        base = assemble_blocks(e, 1e-7)
        for p, ap in zip(points, grid):
            bd = base.with_pump_factor(e.pump_factor(ap))
            mult = resonance_verdict(bd).multipliers
            valid = np.abs(mult - 1.0) > cluster_guard(bd)
            assert p.collective_max_abs_mu == np.max(np.abs(mult[valid]))

    def test_one_propagator_per_scan(self, monkeypatch):
        calls = []

        def counting_expm(a):
            calls.append(a)
            return expm(a)

        monkeypatch.setattr(spectrum, "expm", counting_expm)
        e = _desk(50, seed=29)
        threshold_scan(e, DESK_KAPPA, np.geomspace(1e1, 1e4, 5) * e.pump_amplitude)
        assert len(calls) == 1

    def test_rejects_negative_pump(self, small_ensemble):
        with pytest.raises(ValidationError):
            threshold_scan(small_ensemble, 1e-7, [1.0, -1.0])
