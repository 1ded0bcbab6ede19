import dataclasses

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

from conftest import desk_params
from mblaser.dynamics import OdeSettings, TWO_PI, pack_reduced, unpack_reduced
from mblaser.ensemble import sample_ensemble
from mblaser.kernels import constants_AB, constants_J
from mblaser.model import (FullState, ReducedState, ground_state, lift_state,
                           perturbed_point)
from mblaser.poincare import (compute_nu, jacobian_fd, make_numeric_map,
                              poincare_analytic, poincare_numeric)

TIGHT = OdeSettings(rel_tol=1e-11, abs_tol=1e-13)


class TestComputeNu:
    def test_ground_state_value(self, small_ensemble):
        e = small_ensemble
        nu = compute_nu(0.0, 0.0, e, e.kappa, np.zeros(e.n))
        j2 = constants_J(e.kappa)[1].real
        expect = -j2 * float(np.sum(e.alpha * e.gamma))
        assert nu.imag == 0.0
        assert nu.real == pytest.approx(expect, rel=1e-12, abs=0.0)

    def test_undamped_pure_a(self, small_ensemble):
        e = small_ensemble
        nu = compute_nu(1.0, 0.0, e, 0.0, np.zeros(e.n))
        # nu2 ~ 1e-12 rides on top of the i/2 from the field
        assert abs(nu - 0.5j) <= 1e-9

    @pytest.mark.parametrize("a0,b0", [(1.0, 0.0), (0.0, 1.0), (0.4, -0.7)])
    def test_field_part_against_quadrature(self, a0, b0):
        # oracle: nu1 = (1/2pi) int b(tau) e^{-i tau} dtau over the free
        # damped oscillator from (a0, b0)
        kappa = 1e-3

        def free(tau, y):
            return [y[1], -2 * kappa * y[1] - y[0]]

        sol = solve_ivp(free, (0, TWO_PI), [a0, b0], method="DOP853",
                        rtol=1e-13, atol=1e-15, dense_output=True)
        re = quad(lambda t: sol.sol(t)[1] * np.cos(t), 0, TWO_PI,
                  limit=200, epsabs=1e-13)[0]
        im = quad(lambda t: -sol.sol(t)[1] * np.sin(t), 0, TWO_PI,
                  limit=200, epsabs=1e-13)[0]
        oracle = (re + 1j * im) / TWO_PI
        closed = complex(-kappa * a0 / 4 + (1 - kappa * np.pi) * b0 / 2,
                         (1 - kappa * np.pi) * a0 / 2 + kappa * b0 / 4)
        assert abs(closed - oracle) <= 10.0 * kappa ** 2


class TestPeriodMaps:
    def test_zero_coupling_is_harmonic_period(self):
        params = dataclasses.replace(desk_params(3), alpha_scale=0.0,
                                     beta_scale=0.0, gamma_scale=0.0, kappa=0.0)
        e = sample_ensemble(params, "H1", seed=0)
        state0 = FullState(a=1.0, b=0.0, c=ground_state(e.n).c)
        out = poincare_numeric(state0, e, 0.0, TIGHT)
        assert abs(out.a - 1.0) <= 1e-9 and abs(out.b) <= 1e-9

    def test_ground_state_fixed_without_pumping(self, nopump_ensemble):
        e = nopump_ensemble
        out = poincare_numeric(ground_state(e.n), e, e.kappa, TIGHT)
        assert max(abs(out.a), abs(out.b), float(np.max(np.abs(out.z)))) <= 1e-10
        ana = poincare_analytic(0.0, 0.0, np.zeros(e.n), e, e.kappa)
        assert max(abs(ana.a), abs(ana.b), float(np.max(np.abs(ana.z)))) == 0.0

    def test_analytic_ground_state_molecular_image(self, small_ensemble):
        # with pumping on: z_n = -2 pi i (beta_n conj(nu) + gamma_n/2)
        e = small_ensemble
        nu = compute_nu(0.0, 0.0, e, e.kappa, np.zeros(e.n))
        out = poincare_analytic(0.0, 0.0, np.zeros(e.n), e, e.kappa)
        expect = -TWO_PI * 1j * (e.beta * np.conj(nu) + e.gamma / 2.0)
        assert np.max(np.abs(out.z - expect)) <= 1e-18

    def test_analytic_matches_numeric(self, small_ensemble):
        e = small_ensemble
        eps = 1e-4
        worst = 0.0
        for trial in range(10):
            point = perturbed_point(e.n, eps, np.random.default_rng(50 + trial))
            numeric = poincare_numeric(lift_state(point), e, e.kappa, TIGHT)
            analytic = poincare_analytic(point.a, point.b, point.z, e, e.kappa)
            worst = max(worst, numeric.distance(analytic))
        om = float(np.max(np.abs(e.gamma))) / 2.0 + 1e-6
        assert worst <= 10.0 * (eps ** 2 + om ** 2)

    def test_gauge_quotient_well_defined(self, small_ensemble):
        # the projected map is blind to the gauge of the lifted initial data
        from mblaser.dynamics import gauge_rotate
        e = small_ensemble
        state0 = lift_state(perturbed_point(e.n, 1e-2, np.random.default_rng(9)))
        base = poincare_numeric(state0, e, e.kappa, TIGHT)
        rng = np.random.default_rng(10)
        for _ in range(20):
            theta = rng.uniform(0, 2 * np.pi, e.n)
            rot = poincare_numeric(gauge_rotate(state0, theta), e, e.kappa, TIGHT)
            assert base.distance(rot) <= 1e-9


class TestFirstOrderAmplitudeChain:
    def test_kernel_formula_matches_driven_oscillator(self, tiny_ensemble):
        # first-order field amplitude: the frozen-state current convolved with
        # the damped kernel equals direct integration of the driven oscillator
        from mblaser.kernels import fundamental_solution, fundamental_solution_deriv
        from mblaser.model import inversion_from_z
        from test_kernels import integral_I
        e = tiny_ensemble
        kappa = 1e-3
        rng = np.random.default_rng(31)
        z0 = 0.05 * rng.uniform(0.2, 1, e.n) * np.exp(2j * np.pi * rng.uniform(size=e.n))
        inv = inversion_from_z(z0)
        a0, b0 = 0.02, -0.01

        def current(tau):
            return (float(np.sum(e.alpha * np.imag(z0 * np.exp(-1j * tau))))
                    + 0.5 * float(np.sum(e.alpha * e.gamma * inv)) * tau * np.cos(tau))

        def rhs(tau, y):
            return [y[1], current(tau) - 2 * kappa * y[1] - y[0]]

        sol = solve_ivp(rhs, (0, TWO_PI), [a0, b0], method="DOP853",
                        rtol=1e-12, atol=1e-14, dense_output=True)
        for tau in (1.0, 3.5, TWO_PI):
            free = (a0 * fundamental_solution_deriv(tau, kappa)
                    + (b0 + 2 * kappa * a0) * fundamental_solution(tau, kappa))
            driven = (float(np.sum(e.alpha * np.imag(z0 * integral_I(tau, kappa, 1))))
                      + float(np.sum(e.alpha * e.gamma * inv))
                      * integral_I(tau, kappa, 2).real)
            assert abs(sol.sol(tau)[0] - (free + driven)) <= 1e-10


class TestJacobianFD:
    def test_zero_coupling_rotation(self):
        params = dataclasses.replace(desk_params(2), alpha_scale=0.0,
                                     beta_scale=0.0, gamma_scale=0.0, kappa=0.0)
        e = sample_ensemble(params, "H1", seed=0)
        pmap = make_numeric_map(e, 0.0, OdeSettings(rel_tol=1e-13, abs_tol=1e-14))
        jac = jacobian_fd(pmap, np.zeros(2 + 2 * e.n), h=1e-5)
        assert np.max(np.abs(jac - np.eye(2 + 2 * e.n))) <= 1e-8

    def test_maxwell_columns_scale_with_alpha(self, tiny_ensemble):
        # da/dz_n' = alpha_n' (Im A1, Re A1): linear in the current weight
        e = tiny_ensemble
        kc = constants_AB(e.kappa)
        pmap = make_numeric_map(e, e.kappa, OdeSettings(rel_tol=1e-12, abs_tol=1e-14))
        jac = jacobian_fd(pmap, np.zeros(2 + 2 * e.n), h=1e-5)
        for i in range(e.n):
            col = jac[0, 2 + 2 * i:4 + 2 * i]
            expect = e.alpha[i] * np.array([kc.A1.imag, kc.A1.real])
            assert np.max(np.abs(col - expect)) <= 1e-9 + 1e-4 * abs(e.alpha[i])

    def test_central_difference_and_step_validation(self):
        f = lambda x: np.array([np.sin(x[0]) + x[1] ** 3, x[0] * x[1]])
        base = np.array([0.3, 0.7])
        h = 1e-4
        jac = jacobian_fd(f, base, h=h)
        expect = np.array([[np.cos(0.3), 3 * 0.7 ** 2], [0.7, 0.3]])
        # the central-difference error is h^2/6 times a third derivative (<= 6)
        assert np.max(np.abs(jac - expect)) <= h ** 2 + 1e-10
        with pytest.raises(Exception):
            jacobian_fd(f, base, h=1.0)


def test_reduced_vector_roundtrip(tiny_ensemble):
    state = ReducedState(a=0.1, b=-0.2, z=np.array([0.1 + 0.2j, -0.3j]))
    x = pack_reduced(state)
    assert np.array_equal(x, [0.1, -0.2, 0.1, 0.2, 0.0, -0.3])
    back = unpack_reduced(x, state.n_molecules)
    assert back.a == state.a and back.b == state.b
    assert np.array_equal(back.z, state.z)
    # the numeric map reads and writes that layout; it integrates the reduced
    # chart, so it agrees with the full chart's image to the solver tolerance
    e = tiny_ensemble
    point = perturbed_point(e.n, 1e-3, np.random.default_rng(4))
    out = make_numeric_map(e, e.kappa, TIGHT)(pack_reduced(point))
    full = pack_reduced(poincare_numeric(lift_state(point), e, e.kappa, TIGHT))
    assert np.max(np.abs(out[:2] - full[:2])) <= 1e-10
    assert np.max(np.abs(out[2:] - full[2:])) <= 1e-9


def test_numeric_map_falls_back_at_chart_edge(tiny_ensemble):
    # a molecule inside the guard band leaves the reduced chart at once; the
    # map then returns the full chart's image, bit for bit
    e = tiny_ensemble
    point = perturbed_point(e.n, 1e-3, np.random.default_rng(4))
    z = point.z.copy()
    z[0] = 0.4999997
    point = ReducedState(a=point.a, b=point.b, z=z)
    out = make_numeric_map(e, e.kappa, TIGHT)(pack_reduced(point))
    full = pack_reduced(poincare_numeric(lift_state(point), e, e.kappa, TIGHT))
    assert np.array_equal(out, full)
