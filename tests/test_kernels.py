import numpy as np
import pytest

from mblaser import kernels
from mblaser.errors import ValidationError
from mblaser.spectrum import BlockDifferential, detuning_moments

PI = np.pi
TWO_PI = 2.0 * np.pi


# running integrals and the oracles of the collective constants: only tests
# evaluate them (test_poincare imports integral_I from here)

def _kernel_sum(kappa: float, weights, moment_args) -> complex:
    """sum over the two characteristic roots of w_pm * M_n(c_pm, tau)."""
    lam_p, lam_m = kernels.lam_roots(kappa)
    dl = lam_p - lam_m
    total = 0.0 + 0.0j
    for sign, lam in ((1.0, lam_p), (-1.0, lam_m)):
        w = weights(lam) * sign / dl
        total += w * moment_args(lam)
    return total


def integral_I(tau: float, kappa: float, which: int) -> complex:
    """I1(tau) = int_0^tau e^{-i s} E(tau-s) ds  and
    I2(tau) = int_0^tau (s/2) cos(s) E(tau-s) ds.

    The antiderivatives are evaluated with the exact characteristic roots.
    """
    kernels._check_kappa(kappa)
    if not 0.0 <= tau <= TWO_PI + 1e-12:
        raise ValidationError("tau must lie in [0, 2 pi]")
    if which not in (1, 2):
        raise ValidationError("which must be 1 or 2")
    if tau == 0.0:
        return 0.0 + 0.0j

    if which == 1:
        return _kernel_sum(
            kappa,
            weights=lambda lam: np.exp(lam * tau),
            moment_args=lambda lam: kernels._exp_moment(-(1j + lam), 0, tau),
        )
    return _kernel_sum(
        kappa,
        weights=lambda lam: np.exp(lam * tau),
        moment_args=lambda lam: 0.25 * (kernels._exp_moment(1j - lam, 1, tau)
                                        + kernels._exp_moment(-1j - lam, 1, tau)),
    )


def integral_I_oracle(tau: float, kappa: float, which: int,
                      tol: float = 1e-12) -> complex:
    """Quadrature evaluation of the defining integral (exact E)."""
    if tau == 0.0:
        return 0.0 + 0.0j
    if which == 1:
        f = lambda s: np.exp(-1j * s) * kernels.fundamental_solution(tau - s, kappa)
    else:
        f = lambda s: 0.5 * s * np.cos(s) * kernels.fundamental_solution(tau - s, kappa)
    return kernels.quadrature(f, 0.0, tau, tol=tol)


def response_kernel_oracle(tol: float = 1e-10) -> complex:
    """Double-quadrature oracle for the one-period response coefficient xi
    (kappa = 0)."""
    def inner(t):
        if t <= 0:
            return 0.0 + 0.0j
        return kernels.quadrature(lambda s: np.exp(-1j * s)
                                  * kernels.fundamental_solution_deriv(t - s, 0.0),
                                  0.0, t, tol=1e-12)

    g = kernels.quadrature(lambda t: np.exp(1j * t) * inner(t), 0.0, TWO_PI, tol=tol)
    return -0.5 * g


def border_dressing_oracle(column: str = "a", n_grid: int = 8192) -> complex:
    """Grid-quadrature oracle for the W dressing constants (kappa = 0).

    Chains the three response integrals on a uniform grid with trapezoid
    cumulative sums; accuracy ~ (2 pi / n_grid)^2.
    """
    from scipy.integrate import cumulative_trapezoid

    tau = np.linspace(0.0, TWO_PI, n_grid + 1)
    if column == "a":
        b0 = -np.sin(tau)          # free response mode for a0 at kappa = 0
    elif column == "b":
        b0 = np.cos(tau)           # mode for b0
    else:
        raise ValidationError("column must be 'a' or 'b'")
    F = cumulative_trapezoid(b0 * np.exp(1j * tau), tau, initial=0.0)
    j = -np.real(np.exp(-1j * tau) * F)
    # db1(t) = int_0^t j(s) E'(t-s) ds via one cumulative pass per output point
    db1 = np.empty_like(tau)
    ed = np.cos(tau)               # E'(s) at kappa = 0
    h = tau[1] - tau[0]
    for i, t in enumerate(tau):
        if i == 0:
            db1[0] = 0.0
            continue
        integrand = j[:i + 1] * ed[i::-1]
        db1[i] = np.trapezoid(integrand, dx=h)
    w = -1j * np.trapezoid(db1 * np.exp(1j * tau), tau)
    return complex(w)


# leading-order forms, kept here to pin their truncation order

def leading_fundamental_solution(tau, kappa):
    """e^{-kappa tau} sin(tau) for tau > 0 (error <= ~4 kappa^2 on [0, 2 pi])."""
    return np.exp(-kappa * tau) * np.sin(tau)


def leading_integral_I(tau, kappa, which):
    """Leading-order I1 (O(25 kappa^2) accurate) and I2 (an O(kappa) residual
    mid-period, max coefficient ~5.2, that vanishes at tau = 2 pi)."""
    if which == 1:
        return (
            -0.5j * np.sin(tau)
            + 0.5j * tau * np.exp(-1j * tau)
            + kappa * ((-np.sin(tau) + tau * np.exp(1j * tau)) / 4.0
                       - 0.25j * tau * tau * np.exp(-1j * tau))
        )
    return complex((tau * tau * np.sin(tau) + tau * np.cos(tau) - np.sin(tau)) / 8.0)


def leading_components(kappa):
    """The classical O(kappa) real components of A1, A2, B1, B2 (A1 ~ A11 +
    i A12 etc.); the B pairs follow from B1 = -i A1 and B2 = A1 - i A2."""
    a11 = kappa * PI / 2.0
    a12 = PI - kappa * PI ** 2
    a21 = PI / 2.0
    a22 = PI ** 2 - 2.0 * kappa * (PI ** 3 / 3.0 + PI / 4.0)
    return {"A1": complex(a11, a12), "A2": complex(a21, a22),
            "B1": complex(a12, -a11), "B2": complex(a11 + a22, a12 - a21)}


class TestFundamentalSolution:
    def test_retardation(self):
        assert kernels.fundamental_solution(-0.5, 1e-3) == 0.0

    def test_unit_peak_at_quarter_period(self):
        assert kernels.fundamental_solution(PI / 2, 0.0) == pytest.approx(1.0)

    @pytest.mark.parametrize("kappa", [1e-7, 1e-5, 1e-4, 1e-3])
    def test_exact_vs_leading(self, kappa):
        tau = np.linspace(1e-6, TWO_PI, 300)
        gap = np.max(np.abs(kernels.fundamental_solution(tau, kappa)
                            - leading_fundamental_solution(tau, kappa)))
        assert gap <= 10.0 * kappa ** 2

    @pytest.mark.parametrize("tau,kappa", [(1.0, 1e-7), (3.0, 1e-3), (6.0, 0.0)])
    def test_ode_residual_examples(self, tau, kappa):
        assert abs(kernels.residual_of_ode(tau, kappa)) <= 1e-12

    def test_ode_residual_random(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            tau = rng.uniform(1e-3, TWO_PI)
            kappa = rng.uniform(0.0, 1e-2)
            assert abs(kernels.residual_of_ode(tau, kappa)) <= 1e-12

    def test_domain(self):
        with pytest.raises(ValidationError):
            kernels.fundamental_solution(1.0, 0.2)


class TestQuadrature:
    def test_sine_period(self):
        assert abs(kernels.quadrature(np.sin, 0.0, TWO_PI)) <= 1e-12

    def test_tau_exp(self):
        val = kernels.quadrature(lambda t: t * np.exp(1j * t), 0.0, TWO_PI)
        assert abs(val - (-2j * PI)) <= 1e-11

    def test_tau2_exp2(self):
        val = kernels.quadrature(lambda t: t * t * np.exp(2j * t), 0.0, TWO_PI)
        assert abs(val - (PI - 2j * PI ** 2)) <= 1e-11

    def test_bad_tol(self):
        with pytest.raises(ValidationError):
            kernels.quadrature(np.sin, 0.0, 1.0, tol=0.0)

    def test_nonconvergence_raises(self):
        import warnings
        from mblaser.errors import NumericsError
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(NumericsError):
                # non-integrable endpoint singularity
                kernels.quadrature(lambda t: 1.0 / t, 0.0, 1.0, tol=1e-12)


class TestRunningIntegrals:
    def test_empty_range(self):
        assert integral_I(0.0, 1e-3, 1) == 0.0
        assert integral_I(0.0, 1e-3, 2) == 0.0

    def test_i2_full_period_undamped(self):
        # quadrature of (tau'/2) cos tau' sin(2pi - tau') gives pi/4
        val = integral_I(TWO_PI, 0.0, 2)
        assert val.real == pytest.approx(PI / 4, abs=1e-12)
        assert abs(val.imag) <= 1e-14

    def test_i1_full_period_undamped(self):
        assert abs(integral_I(TWO_PI, 0.0, 1) - PI * 1j) <= 1e-12

    @pytest.mark.parametrize("kappa", [0.0, 1e-5, 1e-3])
    @pytest.mark.parametrize("which", [1, 2])
    def test_exact_matches_oracle(self, kappa, which):
        for tau in (0.7, 2.5, TWO_PI):
            closed = integral_I(tau, kappa, which)
            oracle = integral_I_oracle(tau, kappa, which)
            assert abs(closed - oracle) <= 10.0 * kappa ** 2 + 1e-10

    def test_leading_i1_is_second_order(self):
        for kappa in (1e-5, 1e-3):
            for tau in (1.0, 3.0, TWO_PI):
                gap = abs(integral_I(tau, kappa, 1)
                          - leading_integral_I(tau, kappa, 1))
                assert gap <= 50.0 * kappa ** 2

    def test_leading_i2_residual_orders(self):
        # the leading I2 drops its damping prefactor: O(kappa) mid-period,
        # second order again at the full period
        for kappa in (1e-5, 1e-3):
            mid = max(abs(integral_I(t, kappa, 2)
                          - leading_integral_I(t, kappa, 2))
                      for t in (1.0, 3.0, 4.6))
            assert mid <= 6.0 * kappa
            end = abs(integral_I(TWO_PI, kappa, 2)
                      - leading_integral_I(TWO_PI, kappa, 2))
            assert end <= 50.0 * kappa ** 2


class TestPeriodConstants:
    def test_j_at_working_kappa(self):
        j1, j2 = kernels.constants_J(1e-7)
        assert abs(j1) <= 1e-6
        assert abs(j2 - PI ** 2 / 12.0) <= 1e-6

    def test_j2_undamped_exact(self):
        _, j2 = kernels.constants_J(0.0)
        assert j2 == PI ** 2 / 12.0

    @pytest.mark.parametrize("kappa", [1e-5, 1e-3])
    def test_j_oracle(self, kappa):
        j1, j2 = kernels.constants_J(kappa)
        j1o, j2o = kernels.constants_J_oracle(kappa)
        assert abs(j1 - j1o) <= 10.0 * kappa ** 2
        assert abs(j2 - j2o) <= 10.0 * kappa ** 2

    def test_j1_is_first_order(self):
        # J1 = kappa/4 + O(kappa^2): the quadrature oracle rules out J1 ~ 0
        j1o, _ = kernels.constants_J_oracle(1e-3)
        assert abs(j1o - 0.25e-3) <= 1e-5
        assert abs(j1o) > 2e-4

    def test_undamped_values(self):
        kc = kernels.constants_AB(0.0)
        assert abs(kc.A1 - PI * 1j) <= 1e-13
        assert abs(kc.A2 - (PI / 2 + 1j * PI ** 2)) <= 1e-12
        assert kc.A3 == pytest.approx(PI / 2, abs=1e-12)
        assert abs(kc.B1 - PI) <= 1e-13
        assert abs(kc.B2 - (PI ** 2 + 1j * PI / 2)) <= 1e-12

    @pytest.mark.parametrize("kappa", [0.0, 1e-5, 1e-3])
    def test_closed_vs_oracle(self, kappa):
        kc = kernels.constants_AB(kappa)
        oracle = kernels.constants_AB_oracle(kappa)
        tol = 10.0 * kappa ** 2 + 1e-10
        for name in ("A1", "A2", "A3", "B1", "B2", "B3"):
            assert abs(getattr(kc, name) - oracle[name]) <= tol, name

    @pytest.mark.parametrize("kappa", [0.0, 1e-5, 1e-3])
    def test_structural_identities(self, kappa):
        kc = kernels.constants_AB(kappa)
        # exact identities of the defining integrals
        assert kc.A3 == kc.A2.real
        assert kc.B3 == kc.B2.real
        assert abs(kc.B2 - (kc.A1 - 1j * kc.A2)) <= 1e-13
        e2pi = kernels.fundamental_solution(TWO_PI, kappa)
        assert abs(kc.B1 - (-1j * kc.A1 + e2pi)) <= 1e-13

    def test_b3_sign_decided_by_oracle(self):
        # Re B2, not -Im B2
        oracle = kernels.constants_AB_oracle(1e-3)
        assert abs(oracle["B3"] - oracle["B2"].real) <= 1e-10
        assert abs(oracle["B3"] - (-oracle["B2"].imag)) > 1.0

    @pytest.mark.parametrize("kappa", [1e-5, 1e-3])
    def test_leading_components_are_second_order(self, kappa):
        kc = kernels.constants_AB(kappa)
        for name, value in leading_components(kappa).items():
            assert abs(getattr(kc, name) - value) <= 50.0 * kappa ** 2, name


def _propagator(S: float, kappa: float = 0.0) -> np.ndarray:
    """The one-period propagator of a one-molecule medium with sum S."""
    one = np.ones(1)
    return BlockDifferential(alpha=S * one, beta=one, gamma=0.0 * one, kappa=kappa,
                             moments=detuning_moments(S * one, one, 0.0 * one)).propagator


def _real_form(c: complex) -> np.ndarray:
    """The 2x2 real matrix of multiplication by c on (Re, Im) pairs."""
    return np.array([[c.real, -c.imag], [c.imag, c.real]])


class TestCollectiveKernels:
    """The collective kernels of the successive-approximation map are the
    S -> 0 limit of `spectrum.BlockDifferential.propagator`."""

    def test_response_kernel_oracle(self):
        cross = _propagator(0.0)[4:, 2:4]
        assert np.max(np.abs(cross - _real_form(response_kernel_oracle()))) <= 1e-9

    def test_border_dressing_oracle(self):
        h = 1e-6
        dw = (_propagator(h)[4:, :2] - _propagator(-h)[4:, :2]) / (2.0 * h)
        assert abs(complex(*dw[:, 0]) - border_dressing_oracle("a")) <= 1e-5
        assert abs(complex(*dw[:, 1]) - border_dressing_oracle("b")) <= 1e-5

    @pytest.mark.parametrize("kappa", [0.0, 1e-3, 1e-2])
    def test_v_border_is_pi_k(self, kappa):
        """V = pi K with K = [[1 - kappa pi, kappa/2], [-kappa/2, 1 - kappa pi]]
        at S = 0, up to O(kappa^2) (about 22 kappa^2)."""
        K = np.array([[1.0 - kappa * PI, kappa / 2.0], [-kappa / 2.0, 1.0 - kappa * PI]])
        gap = np.max(np.abs(_propagator(0.0, kappa)[:2, 2:4] - PI * K))
        assert gap <= 30.0 * kappa ** 2 + 1e-14
