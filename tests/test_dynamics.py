import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

from scipy.integrate import DOP853, solve_ivp

from mblaser import dynamics
from mblaser.dynamics import (CHART_GUARD, OdeSettings, TWO_PI, _dop853_reduced,
                              _flat_rhs_full, _reduced_stage, gauge_rotate,
                              integrate, integrate_full, integrate_reduced,
                              pack_full, pack_reduced, sample_trajectory,
                              unpack_full, unpack_reduced)
from mblaser.ensemble import Ensemble
from mblaser.errors import ChartBoundaryError, NumericsError, ValidationError
from mblaser.model import (FullState, ReducedState, ground_state,
                           hopf_project, lift_state)
from mblaser.verify import (DESK_KAPPA, averaging_slope, profile_pump_cosine,
                            profile_rotating)

TIGHT = OdeSettings(rel_tol=1e-11, abs_tol=1e-13)


def rhs_full(state: FullState, tau: float, e: Ensemble, kappa: float) -> FullState:
    """Time derivative of the full system at (state, tau)."""
    dy = _flat_rhs_full(e, kappa)(tau, pack_full(state))
    return unpack_full(dy, state.n_molecules)


def flat_rhs_reduced(e: Ensemble, kappa: float):
    """The reduced chart's stage kernel as a packed right-hand side for
    `solve_ivp`: z_n' = q_n (sin tau, -cos tau) in the (Re, Im) pairs."""
    stage = _reduced_stage(e, kappa)

    def rhs(tau, y):
        out = np.empty_like(y)
        q = np.empty(e.n)
        out[0], out[1], sin, minus_cos = stage(
            tau, np.stack([y[2::2], y[3::2]]), y[0], y[1], q)
        out[2::2] = q * sin
        out[3::2] = q * minus_cos
        return out

    return rhs


def rhs_reduced(state: ReducedState, tau: float, e: Ensemble, kappa: float) -> ReducedState:
    """Time derivative in gauge-reduced coordinates (where |c1| > |c2|)."""
    dy = flat_rhs_reduced(e, kappa)(tau, pack_reduced(state))
    return unpack_reduced(dy, state.n_molecules)


# ---------------------------------------------------------------------------
# averaged (rotating-wave) propagators: the approximation the RWA checks test
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AveragedPropagator:
    """Per-molecule averaged two-level propagators U_n(tau)."""

    U: np.ndarray             # (N, 2, 2) complex
    omega_tilde: np.ndarray   # (N,) complex averaged generator entries
    s: np.ndarray             # (N,) unit phases omega_tilde/|omega_tilde|

    def unitarity_defect(self) -> float:
        eye = np.eye(2)
        defect = 0.0
        for u in self.U:
            defect = max(defect, float(np.max(np.abs(np.conj(u.T) @ u - eye))))
        return defect


def averaged_propagator(e: Ensemble, nu: complex, order: int,
                        tau: float) -> AveragedPropagator:
    """Propagator of the period-averaged molecular generator.

    order 1: omega_tilde = gamma_n/2 (pumping only);
    order 2: omega_tilde = beta_n*nu + gamma_n/2, with nu the first-harmonic
    content of the field response.  For omega_tilde = 0 the phase s_n is set
    to 1 (U is the identity there, so the convention is unobservable).
    """
    if order == 1:
        om = (e.gamma / 2.0).astype(complex)
    elif order == 2:
        om = e.beta * complex(nu) + e.gamma / 2.0
    else:
        raise ValidationError("order must be 1 or 2")
    mod = np.abs(om)
    if np.any(mod > 1e-3):
        raise ValidationError("averaged generator too large for the slow-rotation regime")
    s = np.where(mod > 0, om / np.where(mod > 0, mod, 1.0), 1.0 + 0.0j)
    cos = np.cos(mod * tau)
    sin = np.sin(mod * tau)
    U = np.empty((e.n, 2, 2), dtype=complex)
    U[:, 0, 0] = cos
    U[:, 0, 1] = -1j * s * sin
    U[:, 1, 0] = -1j * np.conj(s) * sin
    U[:, 1, 1] = cos
    return AveragedPropagator(U=U, omega_tilde=om, s=s)


def profile_cosine(tau: float) -> np.ndarray:
    """Commuting family (pure sigma_x): averaging is EXACT for it, so it can
    carry a zero-error check but not a slope fit."""
    return np.array([[0.0, np.cos(tau)], [np.cos(tau), 0.0]], dtype=complex)


class TestRhsFull:
    def test_ground_state_stationary_without_pumping(self, nopump_ensemble):
        e = nopump_ensemble
        d = rhs_full(ground_state(e.n), 0.3, e, DESK_KAPPA)
        assert d.a == 0.0 and d.b == 0.0
        assert np.max(np.abs(d.c)) == 0.0

    def test_upper_level_gives_zero_current(self, tiny_ensemble):
        e = tiny_ensemble
        c = np.zeros((e.n, 2), dtype=complex)
        c[:, 1] = 1.0
        d = rhs_full(FullState(a=0.0, b=0.0, c=c), np.pi / 2, e, DESK_KAPPA)
        # j = Im(conj(c1) c2 e^{-i tau}) = 0 when c1 = 0, so b' = 0 at a = 0
        assert d.b == pytest.approx(0.0, abs=1e-30)

    def test_current_matches_bruteforce(self, small_ensemble):
        e = small_ensemble
        rng = np.random.default_rng(0)
        v = rng.normal(size=(e.n, 4))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        c = v[:, :2] + 1j * v[:, 2:]
        state = FullState(a=0.3, b=-0.2, c=c)
        tau = 1.7
        d = rhs_full(state, tau, e, DESK_KAPPA)
        j_brute = sum(
            e.alpha[i] * np.imag(np.conj(c[i, 0]) * c[i, 1] * np.exp(-1j * tau))
            for i in range(e.n))
        db_expected = j_brute - 2.0 * DESK_KAPPA * state.b - state.a
        assert d.b == pytest.approx(db_expected, rel=1e-12, abs=0.0)
        # per-molecule generator, brute force
        for i in range(e.n):
            om = (e.beta[i] * state.b + e.gamma[i] * np.cos(tau)) * np.exp(-1j * tau)
            assert d.c[i, 0] == pytest.approx(-1j * om * c[i, 1], rel=1e-12, abs=0.0)
            assert d.c[i, 1] == pytest.approx(-1j * np.conj(om) * c[i, 0], rel=1e-12, abs=0.0)


class TestIntegrate:
    def test_harmonic_period(self):
        def rhs(tau, y):
            return np.array([y[1], -y[0]])
        y = integrate(rhs, np.array([1.0, 0.0]), 0.0, TWO_PI, TIGHT)
        assert abs(y[0] - 1.0) <= 1e-9 and abs(y[1]) <= 1e-9

    def test_norms_conserved_without_pumping(self, nopump_ensemble):
        e = nopump_ensemble
        rng = np.random.default_rng(1)
        v = rng.normal(size=(e.n, 4))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        state0 = FullState(a=0.05, b=0.0, c=v[:, :2] + 1j * v[:, 2:])
        out = integrate_full(state0, 0.0, TWO_PI, e, DESK_KAPPA, TIGHT)
        assert np.max(np.abs(out.norms() - 1.0)) <= 1e-9

    def test_damped_oscillator_closed_form(self, nopump_ensemble):
        # with j = 0 the field follows the kernel: a(2pi) = a0 E' + (b0+2k a0) E
        from mblaser.kernels import fundamental_solution, fundamental_solution_deriv
        e = nopump_ensemble
        kappa = 1e-3
        a0, b0 = 0.7, -0.4
        state0 = FullState(a=a0, b=b0, c=ground_state(e.n).c)
        import dataclasses
        silent = dataclasses.replace(e, alpha_coef=0.0)
        out = integrate_full(state0, 0.0, TWO_PI, silent, kappa, TIGHT)
        expect = (a0 * fundamental_solution_deriv(TWO_PI, kappa)
                  + (b0 + 2 * kappa * a0) * fundamental_solution(TWO_PI, kappa))
        assert abs(out.a - expect) <= 1e-8

    def test_charge_conservation_along_trajectory(self, small_ensemble):
        e = small_ensemble
        settings = OdeSettings(rel_tol=1e-10, abs_tol=1e-10)
        state0 = ground_state(e.n)
        taus = np.linspace(0, TWO_PI, 17)
        samples = list(sample_trajectory(state0, taus, e, DESK_KAPPA, settings))
        assert [t for t, _ in samples] == list(taus)
        for _, state in samples:
            assert np.max(np.abs(state.norms() - 1.0)) <= 100 * settings.abs_tol

    def test_bad_interval(self):
        with pytest.raises(ValidationError):
            integrate(lambda t, y: -y, np.array([1.0]), 1.0, 0.0)


class TestGaugeEquivariance:
    def test_twenty_random_phase_vectors(self, small_ensemble):
        e = small_ensemble
        rng = np.random.default_rng(2)
        z0 = 1e-2 * rng.uniform(0.2, 1, e.n) * np.exp(2j * np.pi * rng.uniform(size=e.n))
        base0 = lift_state(ReducedState(a=1e-2, b=-2e-2, z=z0))
        base1 = integrate_full(base0, 0.0, TWO_PI, e, DESK_KAPPA, TIGHT)
        for _ in range(20):
            theta = rng.uniform(0, 2 * np.pi, e.n)
            rot1 = integrate_full(gauge_rotate(base0, theta), 0.0, TWO_PI,
                                  e, DESK_KAPPA, TIGHT)
            assert abs(rot1.a - base1.a) <= 1e-10
            assert abs(rot1.b - base1.b) <= 1e-10
            back = gauge_rotate(rot1, -theta)
            assert np.max(np.abs(back.c - base1.c)) <= 1e-9


class TestReducedChart:
    def test_ground_state_is_stationary(self, nopump_ensemble):
        e = nopump_ensemble
        d = rhs_reduced(ReducedState(a=0.0, b=0.0, z=np.zeros(e.n)), 0.9, e, DESK_KAPPA)
        assert d.a == 0.0 and d.b == 0.0 and np.max(np.abs(d.z)) == 0.0

    def test_full_reduced_consistency(self, small_ensemble):
        e = small_ensemble
        rng = np.random.default_rng(3)
        z0 = 0.2 * rng.uniform(0.2, 1, e.n) * np.exp(2j * np.pi * rng.uniform(size=e.n))
        red0 = ReducedState(a=0.01, b=0.0, z=z0)
        red1 = integrate_reduced(red0, 0.0, TWO_PI, e, DESK_KAPPA, TIGHT)
        full1 = integrate_full(lift_state(red0), 0.0, TWO_PI, e, DESK_KAPPA, TIGHT)
        assert abs(red1.a - full1.a) <= 1e-10
        assert np.max(np.abs(red1.z - hopf_project(full1.c))) <= 1e-9

    def test_kernel_matches_full_chain_rule(self, small_ensemble):
        # oracle: z = conj(c1) c2 on the lift, so z' = conj(c1') c2 + conj(c1) c2'
        # from the full right-hand side; a' and b' are the same expressions
        e = small_ensemble
        rng = np.random.default_rng(17)
        for _ in range(20):
            z = (0.3 * np.sqrt(rng.uniform(size=e.n))
                 * np.exp(2j * np.pi * rng.uniform(size=e.n)))
            state = ReducedState(a=rng.uniform(-0.1, 0.1), b=rng.uniform(-0.1, 0.1), z=z)
            tau = rng.uniform(0.0, TWO_PI)
            full = lift_state(state)
            dfull = rhs_full(full, tau, e, DESK_KAPPA)
            chain = (np.conj(dfull.c[:, 0]) * full.c[:, 1]
                     + np.conj(full.c[:, 0]) * dfull.c[:, 1])
            dred = rhs_reduced(state, tau, e, DESK_KAPPA)
            scale = float(np.max(np.abs(chain)))
            assert np.max(np.abs(dred.z - chain)) <= 1e-14 * scale
            assert dred.a == dfull.a
            assert abs(dred.b - dfull.b) <= 1e-14 * abs(dfull.b)

    def test_chart_boundary_error(self, small_ensemble):
        e = small_ensemble
        z = np.zeros(e.n, dtype=complex)
        z[0] = 0.5
        with pytest.raises(ChartBoundaryError):
            rhs_reduced(ReducedState(a=0.0, b=0.0, z=z), 0.0, e, DESK_KAPPA)

    def test_chart_guard_bound(self, small_ensemble):
        # the guard refuses |z| = 1/2 - delta and accepts the float below it
        e = small_ensemble
        edge = 0.5 - CHART_GUARD

        def at(radius):
            z = np.zeros(e.n, dtype=complex)
            z[3] = 1j * radius
            return ReducedState(a=0.0, b=0.0, z=z)

        rhs_reduced(at(np.nextafter(edge, 0.0)), 0.0, e, DESK_KAPPA)
        with pytest.raises(ChartBoundaryError):
            rhs_reduced(at(edge), 0.0, e, DESK_KAPPA)

    def test_integration_refuses_boundary_start(self, small_ensemble):
        e = small_ensemble
        z = np.zeros(e.n, dtype=complex)
        z[0] = 0.4999997  # inside the delta = 1e-6 guard band
        with pytest.raises(ChartBoundaryError):
            integrate_reduced(ReducedState(a=0.0, b=0.0, z=z), 0.0, TWO_PI,
                              e, DESK_KAPPA, TIGHT)


def _random_z(n, radius, seed):
    rng = np.random.default_rng(seed)
    return radius * np.sqrt(rng.uniform(size=n)) * np.exp(2j * np.pi * rng.uniform(size=n))


class TestReducedStepper:
    """`_dop853_reduced` against solve_ivp(method="DOP853") on the packed
    kernel.  The E5/E3 error estimate cancels about ten digits, so rounding
    in the stages moves the step sizes at the 1e-6 level while the step count,
    the stage count and the endpoint agree."""

    CASES = {
        # name: (pump factor, kappa or None for DESK_KAPPA, z radius, a, b,
        #        tau0, settings); each solve runs over one period from tau0
        "default": (1.0, None, 0.2, 0.01, -0.02, 0.0, OdeSettings()),
        "tight": (1.0, None, 0.2, 0.01, -0.02, 0.0, TIGHT),
        "kappa-zero": (1.0, 0.0, 0.2, 0.01, -0.02, 0.0, OdeSettings()),
        "max-step": (1.0, None, 0.2, 0.01, -0.02, 0.0, OdeSettings(max_step=0.5)),
        # from the ground state the first-step rule takes its h0 = 1e-6 branch
        "ground-state": (1.0, None, 0.0, 0.0, 0.0, 0.0, OdeSettings()),
        # hard pumping drives |z| to about 0.47 and solve_ivp rejects steps
        "rejects": (1e6, None, 0.0, 0.0, 0.0, 0.0, OdeSettings()),
        # every derivative vanishes at tau0 = pi/2; under strong damping a
        # tenfold step growth is rejected and cut by the 0.2 floor
        "floored-rejection": (1.0, 10.0, 0.0, 0.0, 0.0, np.pi / 2, OdeSettings()),
        # weak pumping at tau0 = pi/2: the derivative is below 1e-15 in the
        # scaled norm, the second derivative is not
        "flat-start": (1e-3, None, 0.0, 0.0, 0.0, np.pi / 2, OdeSettings()),
        # nothing moves: zero derivatives and a zero error estimate
        "unpumped-ground-state": (0.0, None, 0.0, 0.0, 0.0, 0.0, OdeSettings()),
    }

    @staticmethod
    def _both(e, pump, kappa, radius, a, b, tau0, settings):
        if pump != 1.0:
            e = e.with_pump_amplitude(pump * e.pump_amplitude)
        kappa = DESK_KAPPA if kappa is None else kappa
        z = _random_z(e.n, radius, 5)
        y0 = pack_reduced(ReducedState(a=a, b=b, z=z))
        span = (tau0, tau0 + TWO_PI)
        sol = solve_ivp(flat_rhs_reduced(e, kappa), span, y0,
                        method="DOP853", rtol=settings.rel_tol,
                        atol=settings.abs_tol, max_step=settings.max_step)
        assert sol.success
        out = _dop853_reduced(_reduced_stage(e, kappa), a, b,
                              np.stack([z.real, z.imag]), *span, settings)
        return sol, out

    @pytest.mark.parametrize("case", list(CASES))
    def test_matches_solve_ivp(self, small_ensemble, case):
        sol, (a, b, z, times, nfev) = self._both(small_ensemble, *self.CASES[case])
        assert nfev == sol.nfev
        assert len(times) == len(sol.t)
        assert np.max(np.abs(np.array(times) - sol.t)) <= 1e-4
        y = pack_reduced(ReducedState(a=a, b=b, z=z[0] + 1j * z[1]))
        ref = sol.y[:, -1]
        assert np.max(np.abs(y - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_rejection_branch_runs(self, small_ensemble):
        _, (_, _, _, times, nfev) = self._both(small_ensemble, *self.CASES["rejects"])
        steps = len(times) - 1
        assert nfev > 12 * steps + 2

    def test_max_step_bounds_every_step(self, small_ensemble):
        *_, times, _ = self._both(small_ensemble, *self.CASES["max-step"])[1]
        assert np.max(np.diff(times)) <= 0.5 + 1e-15
        assert times[-1] == TWO_PI

    def test_chart_boundary_inside_a_stage(self, small_ensemble):
        # the start |z| = 0 is inside the chart; the pumping carries the
        # medium past |z| = 1/2 - delta within the period
        e = small_ensemble.with_pump_amplitude(1e7 * small_ensemble.pump_amplitude)
        start = ReducedState(a=0.0, b=0.0, z=np.zeros(e.n, dtype=complex))
        rhs_reduced(start, 0.0, e, DESK_KAPPA)
        with pytest.raises(ChartBoundaryError):
            integrate_reduced(start, 0.0, TWO_PI, e, DESK_KAPPA)

    def test_step_below_ten_ulps_raises(self, nopump_ensemble):
        # at tau ~ 1e15 ten ulps are 1.25, longer than the steps the tolerance
        # allows, so the first step is rejected below that minimum; the
        # molecules are decoupled so that no stage leaves the chart first
        import dataclasses
        e = dataclasses.replace(nopump_ensemble, alpha_coef=0.0, beta_coef=0.0)
        state = ReducedState(a=0.01, b=-0.02, z=_random_z(e.n, 0.2, 5))
        span = (1e15, 1e15 + 100.0)
        sol = solve_ivp(flat_rhs_reduced(e, DESK_KAPPA), span, pack_reduced(state),
                        method="DOP853", rtol=1e-10, atol=1e-10)
        assert sol.status == -1
        with pytest.raises(NumericsError) as info:
            integrate_reduced(state, *span, e, DESK_KAPPA)
        assert not isinstance(info.value, ChartBoundaryError)
        assert sol.message in str(info.value)

    def test_interval_endpoints(self, small_ensemble):
        e = small_ensemble
        state = ReducedState(a=0.01, b=-0.02, z=_random_z(e.n, 0.2, 5))
        same = integrate_reduced(state, 1.0, 1.0, e, DESK_KAPPA)
        assert same.a == state.a and same.b == state.b
        assert np.array_equal(same.z, state.z) and same.z is not state.z
        with pytest.raises(ValidationError):
            integrate_reduced(state, 1.0, 0.0, e, DESK_KAPPA)

    @pytest.mark.parametrize("field, z_scale", [((np.nan, 0.0), 1.0),
                                                ((0.0, np.inf), 1.0),
                                                ((0.0, 0.0), np.nan)])
    def test_non_finite_start_refused(self, small_ensemble, field, z_scale):
        e = small_ensemble
        state = ReducedState(a=field[0], b=field[1], z=z_scale * _random_z(e.n, 0.2, 5))
        with pytest.raises(ValueError):
            solve_ivp(flat_rhs_reduced(e, DESK_KAPPA), (0.0, TWO_PI),
                      pack_reduced(state), method="DOP853")
        with pytest.raises(ValidationError):
            integrate_reduced(state, 0.0, TWO_PI, e, DESK_KAPPA)

    def test_input_left_untouched(self, small_ensemble):
        e = small_ensemble
        z = _random_z(e.n, 0.2, 5)
        zz = np.stack([z.real, z.imag])
        before = zz.copy()
        _dop853_reduced(_reduced_stage(e, DESK_KAPPA), 0.01, -0.02, zz, 0.0,
                        TWO_PI, OdeSettings())
        assert np.array_equal(zz, before)

    @staticmethod
    def _check_run(run, weights, before):
        """A run [lo, hi) holds both z rows and every stage with a nonzero
        weight, at that weight; its other rows are stages < ``before``, at
        weight zero."""
        lo, hi, placed = run
        rows = dynamics._ROW
        z_rows = {dynamics._Z.start, dynamics._Z.stop - 1}
        assert z_rows <= set(range(lo, hi))
        assert placed.shape == (len(weights), hi - lo)
        for j in range(weights.shape[1]):
            inside = lo <= rows[j] < hi
            if np.any(weights[:, j] != 0):
                assert inside
            elif inside:
                assert j < before
            if inside:
                assert np.array_equal(placed[:, rows[j] - lo], weights[:, j])
        for r in z_rows:
            assert np.all(placed[:, r - lo] == 0)

    def test_tableau_runs(self):
        stages = DOP853.n_stages
        # one store row each for Re z, Im z and the 13 stages
        assert sorted([*dynamics._ROW, dynamics._Z.start, dynamics._Z.stop - 1]) \
            == list(range(stages + 3))
        for k in range(1, stages):
            self._check_run(dynamics._STAGE_RUNS[k], DOP853.A[k:k + 1, :k], k)
        end = np.stack([np.append(DOP853.B, 0.0), DOP853.E5, DOP853.E3])
        self._check_run(dynamics._END_RUN, end, stages)
        # the error estimates are taken before the last stage is evaluated
        assert DOP853.E3[stages] == 0 and DOP853.E5[stages] == 0
        lo, hi, _ = dynamics._END_RUN
        assert hi - lo == 12

    def test_peak_memory(self):
        # the (15, N) store, a stage state, the step's end and error estimates
        # (6 rows) and the error scale: 25 rows of N doubles, which the first
        # step's temporaries reuse and which are freed before z's copy
        from mblaser.ensemble import sample_ensemble
        from conftest import desk_params
        e = sample_ensemble(desk_params(20_000), "H1", seed=11, rescale_alpha_to_s=1e-5)
        z = _random_z(e.n, 0.2, 5)
        args = (_reduced_stage(e, DESK_KAPPA), 0.01, -0.02, np.stack([z.real, z.imag]),
                0.0, TWO_PI, OdeSettings())
        tracemalloc.start()
        try:
            _dop853_reduced(*args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 26 * 8 * e.n


class TestStepBudget:
    """Both integrators take at most STEP_BUDGET attempts per period: a run
    needing k attempts passes at a budget of k and stops at k - 1."""

    def test_reduced_stepper(self, small_ensemble, monkeypatch):
        e = small_ensemble
        state = ReducedState(a=0.01, b=-0.02, z=np.zeros(e.n, dtype=complex))
        args = (_reduced_stage(e, DESK_KAPPA), state.a, state.b, np.zeros((2, e.n)),
                0.0, TWO_PI, OdeSettings())
        attempts = (_dop853_reduced(*args)[4] - 2) // 12
        monkeypatch.setattr(dynamics, "STEP_BUDGET", attempts)
        _dop853_reduced(*args)
        monkeypatch.setattr(dynamics, "STEP_BUDGET", attempts - 1)
        with pytest.raises(NumericsError, match=f"budget of {attempts - 1} step attempts"):
            _dop853_reduced(*args)
        with pytest.raises(NumericsError, match=r"max\|gamma_n\| = \S+ and max\|beta_n\| = "):
            integrate_reduced(state, 0.0, TWO_PI, e, DESK_KAPPA)

    def test_solve_ivp_path(self, monkeypatch):
        def oscillator(t, y):
            return np.array([y[1], -y[0]])

        y0 = np.array([1.0, 0.0])
        sol = solve_ivp(oscillator, (0.0, TWO_PI), y0, method="DOP853",
                        rtol=1e-10, atol=1e-10)
        attempts = (sol.nfev - 2) // 12
        monkeypatch.setattr(dynamics, "STEP_BUDGET", attempts)
        assert np.array_equal(integrate(oscillator, y0, 0.0, TWO_PI), sol.y[:, -1])
        monkeypatch.setattr(dynamics, "STEP_BUDGET", attempts - 1)
        with pytest.raises(NumericsError, match=f"budget of {attempts - 1} step attempts "
                           "per period over 1 period"):
            integrate(oscillator, y0, 0.0, TWO_PI)


class TestAveragedPropagator:
    def test_identity_without_pumping(self, nopump_ensemble):
        prop = averaged_propagator(nopump_ensemble, 0.0, order=1, tau=1.3)
        assert np.max(np.abs(prop.U - np.eye(2))) == 0.0
        assert np.all(prop.s == 1.0)

    def test_unitarity(self, small_ensemble):
        prop = averaged_propagator(small_ensemble, 1e-6 + 2e-6j, order=2, tau=TWO_PI)
        assert prop.unitarity_defect() <= 1e-12

    def test_real_positive_nu_keeps_s_real(self, small_ensemble):
        prop = averaged_propagator(small_ensemble, 1e-6, order=2, tau=1.0)
        mask = small_ensemble.gamma > 0
        assert np.allclose(prop.s[mask].imag, 0.0)

    def test_order1_against_direct_integration(self):
        # pumping-only two-level propagator vs its period average
        from scipy.integrate import solve_ivp
        import dataclasses
        from mblaser.ensemble import sample_ensemble
        from conftest import desk_params
        gamma = 1e-3
        params = dataclasses.replace(desk_params(1), gamma_scale=gamma)
        e = sample_ensemble(params, "H1", seed=1)
        g = float(e.gamma[0])
        prop = averaged_propagator(e, 0.0, order=1, tau=TWO_PI)

        def rhs(tau, c):
            om = g * np.cos(tau) * np.exp(-1j * tau)
            return [-1j * om * c[1], -1j * np.conj(om) * c[0]]

        for c0 in (np.array([1, 0], complex), np.array([0.6, 0.8j], complex)):
            sol = solve_ivp(rhs, (0, TWO_PI), c0, method="DOP853",
                            rtol=1e-12, atol=1e-14)
            gap = np.linalg.norm(sol.y[:, -1] - prop.U[0] @ c0)
            assert gap <= 10.0 * g ** 2


class TestAveragingScaling:
    """Criterion 3's averaging check (`verify.averaging_slope`)."""

    def test_rotating_profile_slope(self):
        eps = np.geomspace(1e-3, 1e-1, 5)
        slope = averaging_slope(profile_rotating, eps)
        assert abs(slope - 2.0) <= 0.1

    def test_pump_profile_slope(self):
        eps = np.geomspace(1e-3, 1e-1, 5)
        slope = averaging_slope(profile_pump_cosine, eps)
        assert abs(slope - 2.0) <= 0.1

    @pytest.mark.parametrize("profile", [profile_pump_cosine, profile_rotating])
    def test_averaged_flow_exponential_matches_integration(self, profile):
        # the averaged generator is constant: its flow is the matrix
        # exponential, which must agree with integrating it as the check did
        from scipy.linalg import expm
        avg = np.mean([profile(t) for t in np.linspace(0.0, TWO_PI, 801)[:-1]],
                      axis=0)
        y0 = np.array([1, 0], complex)
        for eps in (1e-4, 1e-2, 1e-1):
            sol = solve_ivp(lambda t, c: -1j * eps * (avg @ c), (0, TWO_PI), y0,
                            method="DOP853", rtol=1e-13, atol=1e-13)
            gap = np.linalg.norm(sol.y[:, -1] - expm(-1j * eps * TWO_PI * avg) @ y0)
            assert gap <= 1e-13

    def test_commuting_profile_averages_exactly(self):
        # sigma_x * cos(tau) commutes with itself: zero averaging error
        from scipy.integrate import solve_ivp
        eps = 0.1
        y0 = np.array([1, 0], complex)
        sol = solve_ivp(lambda t, c: -1j * eps * (profile_cosine(t) @ c),
                        (0, TWO_PI), y0, method="DOP853", rtol=1e-13, atol=1e-13)
        assert np.linalg.norm(sol.y[:, -1] - y0) <= 1e-12

    def test_constant_profile_exact(self):
        const = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        with pytest.raises(NumericsError):
            # all errors at the floor: the check refuses to fit a slope
            averaging_slope(lambda tau: const, np.geomspace(1e-4, 1e-1, 4))
