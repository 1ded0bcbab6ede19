"""Damped-oscillator kernel: fundamental solution and the period integrals.

The scaled field equation  a'' + 2*kappa*a' + a = j  has the retarded
fundamental solution

    E(tau) = theta(tau) * (exp(lam_p tau) - exp(lam_m tau)) / (lam_p - lam_m),
    lam_pm = -kappa +- i*sqrt(1 - kappa^2),

equal to theta(tau) e^{-kappa tau} sin(tau) up to O(kappa^2).  Every period-map
formula reduces to convolutions of E (and E') against e^{-i tau} and
tau-weighted harmonics; this module evaluates those integrals two independent
ways:

* exact closed forms -- antiderivatives of exponential polynomials, stable for
  kappa down to 0;
* an adaptive-quadrature oracle (`quadrature`, Gauss-Kronrod) that arbitrates
  every closed form in the test suite and in `verify-integrals`.

Only the exact forms are computed here, except J1 and J2, whose closed forms
(`constants_J`) hold to O(kappa^2).  The classic leading-order
expressions (e^{-kappa tau} sin tau for E, the truncated I1/I2, and the real
A/B component tables) live in the tests that pin their O(kappa^2) truncation
order, as do the running integrals I1(tau), I2(tau), which only the tests
evaluate.  The collective response kernels of the period-map differential are
not computed here: `spectrum.BlockDifferential.propagator` gives them exactly,
and the tests check its S -> 0 limit against their quadrature oracles.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np
from scipy.integrate import quad

from .errors import NumericsError, ValidationError

PI = np.pi
KAPPA_MAX = 0.1  # oscillatory-regime guard for the closed forms


def _check_kappa(kappa: float) -> None:
    if not 0.0 <= kappa < KAPPA_MAX:
        raise ValidationError(f"kappa must lie in [0, {KAPPA_MAX}), got {kappa}")


def lam_roots(kappa: float) -> Tuple[complex, complex]:
    """Characteristic roots lam^2 + 2 kappa lam + 1 = 0 in the oscillatory regime."""
    w = np.sqrt(1.0 - kappa * kappa)
    return complex(-kappa, w), complex(-kappa, -w)


# ---------------------------------------------------------------------------
# fundamental solution and its analytic derivatives
# ---------------------------------------------------------------------------

def fundamental_solution(tau, kappa: float):
    """Retarded fundamental solution E(tau) = e^{-k tau} sin(w tau)/w with
    w = sqrt(1-k^2); zero for tau < 0."""
    _check_kappa(kappa)
    tau = np.asarray(tau, dtype=float)
    w = np.sqrt(1.0 - kappa * kappa)
    val = np.exp(-kappa * tau) * np.sin(w * tau) / w
    return np.where(tau > 0.0, val, 0.0)


def fundamental_solution_deriv(tau, kappa: float, order: int = 1):
    """Analytic E'(tau) or E''(tau) of the exact form, for tau > 0."""
    _check_kappa(kappa)
    tau = np.asarray(tau, dtype=float)
    w = np.sqrt(1.0 - kappa * kappa)
    damp = np.exp(-kappa * tau)
    if order == 1:
        val = damp * (np.cos(w * tau) - kappa * np.sin(w * tau) / w)
    elif order == 2:
        val = damp * ((kappa * kappa / w - w) * np.sin(w * tau) - 2.0 * kappa * np.cos(w * tau))
    else:
        raise ValidationError("order must be 1 or 2")
    return np.where(tau > 0.0, val, 0.0)


def residual_of_ode(tau: float, kappa: float) -> float:
    """E'' + 2 kappa E' + E at tau > 0, from the analytic derivatives.

    Vanishes identically for the exact form; the returned value is pure
    floating-point noise and is pinned to <= 1e-12 in the tests.
    """
    if tau <= 0:
        raise ValidationError("residual_of_ode requires tau > 0")
    return float(
        fundamental_solution_deriv(tau, kappa, order=2)
        + 2.0 * kappa * fundamental_solution_deriv(tau, kappa, order=1)
        + fundamental_solution(tau, kappa)
    )


# ---------------------------------------------------------------------------
# adaptive quadrature oracle
# ---------------------------------------------------------------------------

def quadrature(f: Callable[[float], complex], a: float, b: float,
               tol: float = 1e-12) -> complex:
    """Adaptive Gauss-Kronrod integral of a complex-valued integrand.

    Absolute-error target ``tol``; raises NumericsError if the reported error
    estimate exceeds 100x the target (non-convergence).
    """
    if tol <= 0:
        raise ValidationError("tol must be positive")

    def run(part):
        val, err = quad(part, a, b, epsabs=tol, epsrel=max(tol, 1e-13),
                        limit=500)
        if err > 100.0 * max(tol, 1e-14 * (1.0 + abs(val))):
            raise NumericsError(
                f"quadrature did not converge: error estimate {err:.2e}")
        return val

    re = run(lambda t: np.real(f(t)))
    im = run(lambda t: np.imag(f(t)))
    return complex(re, im)


# ---------------------------------------------------------------------------
# exponential moments: the closed-form engine
# ---------------------------------------------------------------------------

def _exp_moment(c: complex, n: int, upper: float) -> complex:
    """int_0^upper tau^n e^{c tau} d tau, stable for |c|*upper -> 0."""
    x = c * upper
    if abs(x) < 0.5:
        # series sum_k c^k upper^{n+k+1} / (k! (n+k+1)); ~20 terms suffice
        total = 0.0 + 0.0j
        term = upper ** (n + 1)
        k = 0
        while True:
            contrib = term / (n + k + 1)
            total += contrib
            if abs(contrib) < 1e-18 * (1.0 + abs(total)) and k > 3:
                return total
            k += 1
            term *= c * upper / k
            if k > 60:  # |x| < 0.5 converges long before this
                return total
    if n == 0:
        return (np.exp(x) - 1.0) / c
    return (upper ** n) * np.exp(x) / c - (n / c) * _exp_moment(c, n - 1, upper)


# ---------------------------------------------------------------------------
# period constants J1, J2 and A/B
# ---------------------------------------------------------------------------

def constants_J(kappa: float) -> Tuple[complex, complex]:
    """J1 = (1/2pi) int_0^2pi I1'(t) e^{-it} dt and the same with I2'.

    Closed forms to O(kappa^2):
        J1 = kappa/4
        J2 = pi^2/12 + kappa*[(pi/32 - pi^3/24) + i (pi^2/24 - 1/64)]
    (both verified against the nested-quadrature oracle at ~1.6 kappa^2).
    """
    _check_kappa(kappa)
    j1 = complex(kappa / 4.0)
    j2 = PI ** 2 / 12.0 + kappa * complex(PI / 32.0 - PI ** 3 / 24.0,
                                          PI ** 2 / 24.0 - 1.0 / 64.0)
    return j1, j2


def constants_J_oracle(kappa: float, tol: float = 1e-11) -> Tuple[complex, complex]:
    """Nested-quadrature oracle for J1, J2 with the exact kernel.

    I_k'(tau) = int_0^tau (weight)(s) E'(tau-s) ds since E(0) = 0.
    """
    def i1p(t):
        if t <= 0:
            return 0.0 + 0.0j
        return quadrature(lambda s: np.exp(-1j * s)
                          * fundamental_solution_deriv(t - s, kappa), 0.0, t, tol=3e-13)

    def i2p(t):
        if t <= 0:
            return 0.0
        return quadrature(lambda s: 0.5 * s * np.cos(s)
                          * fundamental_solution_deriv(t - s, kappa), 0.0, t, tol=3e-13).real

    j1 = quadrature(lambda t: i1p(t) * np.exp(-1j * t), 0.0, 2 * PI, tol=tol) / (2 * PI)
    j2 = quadrature(lambda t: i2p(t) * np.exp(-1j * t), 0.0, 2 * PI, tol=tol) / (2 * PI)
    return j1, j2


@dataclass(frozen=True)
class KernelConstants:
    """The six period constants A1..B3, exact (quadrature-grade)."""

    A1: complex
    A2: complex
    A3: float
    B1: complex
    B2: complex
    B3: float


def constants_AB(kappa: float) -> KernelConstants:
    """Exact closed forms of the six period constants.

        A_m = int_0^2pi tau^{m-1} e^{-i tau} E(2pi - tau) d tau,   m = 1, 2
        B_m = same with E' in place of E
        A3  = Re A2,  B3 = Re B2  (real integrands tau cos(tau) * kernel)

    Exact identities: B2 = A1 - i A2;  B1 = -i A1 + E(2pi) with
    E(2pi) = O(kappa^2).
    """
    _check_kappa(kappa)
    two_pi = 2.0 * PI
    lam_p, lam_m = lam_roots(kappa)
    dl = lam_p - lam_m
    a1 = a2 = b1 = b2 = 0.0 + 0.0j
    # each is sum over the two characteristic roots of w_pm * M_n(c_pm, 2 pi)
    for sign, lam in ((1.0, lam_p), (-1.0, lam_m)):
        m0 = _exp_moment(-(1j + lam), 0, two_pi)
        m1 = _exp_moment(-(1j + lam), 1, two_pi)
        damp = np.exp(lam * two_pi)
        w_a = damp * sign / dl
        w_b = lam * damp * sign / dl
        a1 += w_a * m0
        a2 += w_a * m1
        b1 += w_b * m0
        b2 += w_b * m1
    return KernelConstants(
        A1=a1, A2=a2, A3=float(a2.real),
        B1=b1, B2=b2, B3=float(b2.real),
    )


def constants_AB_oracle(kappa: float, tol: float = 1e-12) -> dict:
    """Quadrature oracle for the six defining integrals (exact E)."""
    two_pi = 2.0 * PI
    E = lambda s: fundamental_solution(s, kappa)
    Ed = lambda s: fundamental_solution_deriv(s, kappa)
    out = {
        "A1": quadrature(lambda t: np.exp(-1j * t) * E(two_pi - t), 0, two_pi, tol),
        "A2": quadrature(lambda t: t * np.exp(-1j * t) * E(two_pi - t), 0, two_pi, tol),
        "B1": quadrature(lambda t: np.exp(-1j * t) * Ed(two_pi - t), 0, two_pi, tol),
        "B2": quadrature(lambda t: t * np.exp(-1j * t) * Ed(two_pi - t), 0, two_pi, tol),
    }
    out["A3"] = quadrature(lambda t: t * np.cos(t) * E(two_pi - t), 0, two_pi, tol).real
    out["B3"] = quadrature(lambda t: t * np.cos(t) * Ed(two_pi - t), 0, two_pi, tol).real
    return out

