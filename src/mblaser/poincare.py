"""The period map in two realizations, and its finite-difference differential.

``poincare_numeric`` integrates the full system over one pumping period and
projects to gauge-reduced coordinates.  The flat map of ``make_numeric_map``
integrates the gauge-reduced chart itself, at half the state, and falls back
to ``poincare_numeric`` where a trajectory reaches the chart's edge
|z_n| = 1/2.  ``poincare_analytic`` evaluates the
second-order closed form built from the damped-kernel period constants: the
field image is

    a(2pi) = a0(2pi) + sum_n alpha_n Im{z_n0 A1}
             + sum_n alpha_n beta_n I_n Re{conj(nu) A2}
             + (1/2) sum_n alpha_n gamma_n I_n A3        (same with B for b)

with I_n = -sqrt(1-4|z_n0|^2) the population inversion, and the molecular
image z_n = z_n0 + 2 pi i (beta_n conj(nu) + gamma_n/2) I_n.  The frequency
content nu of the first-order field response is

    nu = nu11 + i nu12 + nu2,
    nu11 = -kappa a0/4 + (1 - kappa pi) b0 / 2,
    nu12 = (1 - kappa pi) a0 / 2 + kappa b0 / 4,
    nu2  = Re(J2) * sum_n alpha_n gamma_n I_n,

each coefficient pinned against quadrature of its defining integral in the
test suite.  The analytic map is valid to second order near the all-lower
ground state; the finite-difference Jacobian of the numeric map is the
authoritative differential everywhere.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from .dynamics import (CHART_GUARD, TWO_PI, OdeSettings, integrate_full,
                       integrate_reduced, pack_reduced, unpack_reduced)
from .ensemble import Ensemble
from .errors import ChartBoundaryError, ValidationError
from .kernels import (constants_AB, constants_J, fundamental_solution,
                      fundamental_solution_deriv)
from .model import FullState, ReducedState, hopf_project, inversion_from_z, \
    lift_state


def compute_nu(a0: float, b0: float, e: Ensemble, kappa: float,
               init_z) -> complex:
    """nu = (1/2pi) int_0^2pi adot^(1) e^{-i tau} d tau in closed form."""
    z0 = np.asarray(init_z, dtype=complex)
    inv = inversion_from_z(z0)
    j2 = constants_J(kappa)[1]
    nu11 = -kappa * a0 / 4.0 + (1.0 - kappa * np.pi) * b0 / 2.0
    nu12 = (1.0 - kappa * np.pi) * a0 / 2.0 + kappa * b0 / 4.0
    nu2 = float(j2.real * np.sum(e.alpha * e.gamma * inv))
    return complex(nu11 + nu2, nu12)


def poincare_numeric(state0: FullState, e: Ensemble, kappa: float,
                     settings: OdeSettings = OdeSettings()) -> ReducedState:
    """One-period image of the full dynamics, projected to the gauge quotient."""
    final = integrate_full(state0, 0.0, TWO_PI, e, kappa, settings)
    return ReducedState(a=final.a, b=final.b, z=hopf_project(final.c))


def poincare_analytic(a0: float, b0: float, z0, e: Ensemble,
                      kappa: float) -> ReducedState:
    """Second-order closed-form image near the ground state (where |c1| > |c2|)."""
    z0 = np.asarray(z0, dtype=complex)
    if np.any(np.abs(z0) >= 0.5 - CHART_GUARD):
        raise ValidationError("analytic map requires |z0| < 1/2 - delta")
    kc = constants_AB(kappa)
    nu = compute_nu(a0, b0, e, kappa, z0)
    inv = inversion_from_z(z0)

    e2p = float(fundamental_solution(TWO_PI, kappa))
    ed2p = float(fundamental_solution_deriv(TWO_PI, kappa, order=1))
    edd2p = float(fundamental_solution_deriv(TWO_PI, kappa, order=2))
    a_free = a0 * ed2p + (b0 + 2.0 * kappa * a0) * e2p
    b_free = a0 * edd2p + (b0 + 2.0 * kappa * a0) * ed2p

    ab_g = e.alpha * e.beta * inv
    ag_g = e.alpha * e.gamma * inv
    nu_bar = np.conj(nu)
    a_img = (a_free
             + float(np.sum(e.alpha * np.imag(z0 * kc.A1)))
             + float(np.sum(ab_g)) * (nu_bar * kc.A2).real
             + 0.5 * float(np.sum(ag_g)) * kc.A3)
    b_img = (b_free
             + float(np.sum(e.alpha * np.imag(z0 * kc.B1)))
             + float(np.sum(ab_g)) * (nu_bar * kc.B2).real
             + 0.5 * float(np.sum(ag_g)) * kc.B3)

    z_img = z0 + TWO_PI * 1j * (e.beta * nu_bar + e.gamma / 2.0) * inv
    return ReducedState(a=float(a_img), b=float(b_img), z=z_img)


# ---------------------------------------------------------------------------
# the flat numeric map and its finite-difference differential
# ---------------------------------------------------------------------------

def make_numeric_map(e: Ensemble, kappa: float,
                     settings: OdeSettings = OdeSettings()) -> Callable:
    """The numeric period map as a flat function on reduced coordinates.

    The vector layout is `dynamics.pack_reduced`'s: (a, b, Re z_1, Im z_1,
    ...), the row and column order of the block differential.  The map
    integrates the gauge-reduced chart, half the state of the full system;
    where the trajectory reaches the chart's edge |z_n| = 1/2 - delta it
    returns `poincare_numeric` of the lifted point instead.
    """

    def period_map(x: np.ndarray) -> np.ndarray:
        state = unpack_reduced(x, e.n)
        try:
            image = integrate_reduced(state, 0.0, TWO_PI, e, kappa, settings)
        except ChartBoundaryError:
            image = poincare_numeric(lift_state(state), e, kappa, settings)
        return pack_reduced(image)

    return period_map


def jacobian_fd(period_map: Callable, base_point: np.ndarray,
                h: float = 1e-5) -> np.ndarray:
    """Central-difference Jacobian of a flat map.

    Columns are independent map evaluations, so the integrator tolerance sets
    the noise floor at ~tol/h per entry; use tight tolerances in the map when
    comparing against analytic blocks.
    """
    if not 1e-7 <= h <= 1e-3:
        raise ValidationError("finite-difference step h must lie in [1e-7, 1e-3]")
    base_point = np.asarray(base_point, dtype=float)
    dim = base_point.size
    jac = np.empty((dim, dim))
    for k in range(dim):
        dx = np.zeros(dim)
        dx[k] = h
        fp = period_map(base_point + dx)
        fm = period_map(base_point - dx)
        if not (np.all(np.isfinite(fp)) and np.all(np.isfinite(fm))):
            raise ValidationError("period map returned non-finite values")
        jac[:, k] = (fp - fm) / (2.0 * h)
    return jac
