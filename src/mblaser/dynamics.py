"""Time integration of the one-mode Maxwell-Bloch system over pumping periods.

Scaled equations (period 2*pi, dot = d/dtau):

    a' = b
    b' + 2*kappa*b + a = j(tau),   j = sum_n alpha_n Im{ conj(c_n1) c_n2 e^{-i tau} }
    c_n' = -i Omega_n(tau) c_n,    omega_n = (beta_n b + gamma_n cos tau) e^{-i tau}

and the gauge-reduced form in z_n = conj(c_n1) c_n2:

    z_n' = -i conj(omega_n) sqrt(1 - 4 |z_n|^2)

valid for |z_n| < 1/2 (lower-level neighborhood).  The molecular
part is skew-adjoint, so |c_n1|^2 + |c_n2|^2 is conserved along exact
trajectories; the integrator is required to preserve it to ~100x its local
tolerance over a period.

Each chart's equations are stated once, in the flat kernel the solver calls
on a packed real vector: (a, b), then the amplitudes as interleaved (Re, Im)
pairs.  The reduced kernel works on those pairs in real arithmetic; it carries
the numeric period map (`poincare.make_numeric_map`), and the full chart
carries trajectories, the map's fallback at the chart edge and the
gauge-equivariance checks.  The packing stays in this module; every public
function here takes and returns `FullState` / `ReducedState`.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence, Tuple

import numpy as np
from scipy.integrate import solve_ivp

from .ensemble import Ensemble
from .errors import (ChartBoundaryError, NumericsError, ValidationError,
                     require_capacity)
from .model import FullState, ReducedState

TWO_PI = 2.0 * np.pi
CHART_GUARD = 1e-6  # refuse reduced dynamics within this distance of |z| = 1/2


@dataclass(frozen=True)
class OdeSettings:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-10
    max_step: float = np.inf

    def __post_init__(self):
        for name, v in (("rel_tol", self.rel_tol), ("abs_tol", self.abs_tol)):
            if not 0.0 < v <= 1e-3:
                raise ValidationError(f"{name} must lie in (0, 1e-3], got {v}")
        if not self.max_step > 0:
            raise ValidationError(f"max_step must be positive, got {self.max_step}")


# ---------------------------------------------------------------------------
# state packing
# ---------------------------------------------------------------------------

def pack_full(state: FullState) -> np.ndarray:
    y = np.empty(2 + 4 * state.n_molecules)
    y[0], y[1] = state.a, state.b
    y[2:].view(np.complex128)[:] = state.c.ravel()
    return y


def unpack_full(y: np.ndarray, n: int) -> FullState:
    c = np.ascontiguousarray(y[2:]).view(np.complex128).reshape(n, 2).copy()
    return FullState(a=float(y[0]), b=float(y[1]), c=c)


def pack_reduced(state: ReducedState) -> np.ndarray:
    y = np.empty(2 + 2 * state.n_molecules)
    y[0], y[1] = state.a, state.b
    y[2:].view(np.complex128)[:] = state.z
    return y


def unpack_reduced(y: np.ndarray, n: int) -> ReducedState:
    z = np.ascontiguousarray(y[2:]).view(np.complex128).copy()
    return ReducedState(a=float(y[0]), b=float(y[1]), z=z)


# ---------------------------------------------------------------------------
# right-hand sides
# ---------------------------------------------------------------------------

def _flat_rhs_full(e: Ensemble, kappa: float) -> Callable:
    alpha, beta, gamma = e.alpha, e.beta, e.gamma
    two_kappa = 2.0 * kappa

    def rhs(tau, y):
        c = y[2:].view(np.complex128)
        c1 = c[0::2]
        c2 = c[1::2]
        phase = np.exp(-1j * tau)
        j = float(np.sum(alpha * np.imag(np.conj(c1) * c2 * phase)))
        omega = (beta * y[1] + gamma * np.cos(tau)) * phase
        out = np.empty_like(y)
        out[0] = y[1]
        out[1] = j - two_kappa * y[1] - y[0]
        dc = out[2:].view(np.complex128)
        dc[0::2] = -1j * omega * c2
        dc[1::2] = -1j * np.conj(omega) * c1
        return out

    return rhs


def _flat_rhs_reduced(e: Ensemble, kappa: float) -> Callable:
    alpha, beta, gamma = e.alpha, e.beta, e.gamma
    two_kappa = 2.0 * kappa
    guard = (1.0 - 2.0 * CHART_GUARD) ** 2

    def rhs(tau, y):
        # real arithmetic: -i conj(omega_n) = (sin tau - i cos tau) w_n with
        # w_n = beta_n b + gamma_n cos tau, and Im{z e^{-i tau}} = c Im z - s Re z
        zr = y[2::2]
        zi = y[3::2]
        r2 = zr * zr
        r2 += zi * zi
        r2 *= 4.0
        if np.any(r2 >= guard):
            raise ChartBoundaryError(
                "reduced chart left its validity region |z| < 1/2 - delta; "
                "switch to the full dynamics")
        c, s = np.cos(tau), np.sin(tau)
        w = beta * y[1]
        w += gamma * c
        w *= np.sqrt(1.0 - r2)
        j = c * np.dot(alpha, zi) - s * np.dot(alpha, zr)
        out = np.empty_like(y)
        out[0] = y[1]
        out[1] = j - two_kappa * y[1] - y[0]
        np.multiply(w, s, out=out[2::2])
        np.multiply(w, -c, out=out[3::2])
        return out

    return rhs


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------

def integrate(rhs: Callable, y0: np.ndarray, tau0: float, tau1: float,
              settings: OdeSettings = OdeSettings(),
              t_eval: Sequence[float] = None):
    """Adaptive DOP853 (Dormand-Prince 8(5,3)) solve of a flat real system.

    Returns the final state vector, or (times, states) when ``t_eval`` is
    given.  Step-size underflow and solver failures raise NumericsError.
    """
    if tau1 < tau0:
        raise ValidationError("tau1 must be >= tau0")
    if tau1 == tau0 and t_eval is None:
        return np.array(y0, dtype=float)
    # method by keyword: perfbench's tracer reads it to count solver steps
    sol = solve_ivp(rhs, (tau0, tau1), np.asarray(y0, dtype=float),
                    method="DOP853", rtol=settings.rel_tol,
                    atol=settings.abs_tol, max_step=settings.max_step,
                    t_eval=t_eval, dense_output=False)
    if not sol.success:
        raise NumericsError(f"integration failed: {sol.message}")
    if t_eval is not None:
        return sol.t, sol.y
    return sol.y[:, -1]


def integrate_full(state0: FullState, tau0: float, tau1: float, e: Ensemble,
                   kappa: float, settings: OdeSettings = OdeSettings()) -> FullState:
    y = integrate(_flat_rhs_full(e, kappa), pack_full(state0), tau0, tau1, settings)
    return unpack_full(y, state0.n_molecules)


def integrate_reduced(state0: ReducedState, tau0: float, tau1: float, e: Ensemble,
                      kappa: float, settings: OdeSettings = OdeSettings()) -> ReducedState:
    y = integrate(_flat_rhs_reduced(e, kappa), pack_reduced(state0), tau0, tau1, settings)
    return unpack_reduced(y, state0.n_molecules)


def sample_trajectory(state0: FullState, taus: Sequence[float], e: Ensemble,
                      kappa: float, settings: OdeSettings = OdeSettings()
                      ) -> Iterator[Tuple[float, FullState]]:
    """Integrate the full system from ``taus[0]`` and yield (tau, state) at
    each of ``taus``, unpacking one sample at a time."""
    t, ys = integrate(_flat_rhs_full(e, kappa), pack_full(state0), taus[0],
                      taus[-1], settings, t_eval=taus)
    for i in range(ys.shape[1]):
        yield t[i], unpack_full(ys[:, i], state0.n_molecules)


def simulate_trajectory(state0: FullState, periods: float, e: Ensemble,
                        kappa: float, settings: OdeSettings = OdeSettings(),
                        samples_per_period: int = 64):
    """Sampled observables over ``periods`` pumping periods.

    Returns (tau, a, b, field_energy, mean_inversion) arrays for streaming to
    CSV; the energy is the bare oscillator quadratic form (a^2 + b^2)/2.
    """
    samples = periods * samples_per_period + 1
    # solve_ivp holds its (2 + 4N) x samples array twice (the per-sample list
    # and the stacked copy), plus the sample grid
    require_capacity(8.0 * (5 + 8 * state0.n_molecules) * samples,
                     f"a trajectory of {samples:.3g} samples")
    n_samp = max(2, int(periods * samples_per_period) + 1)
    taus = np.linspace(0.0, periods * TWO_PI, n_samp)
    t, a, b, inv = (np.empty(n_samp) for _ in range(4))
    for i, (tau, s) in enumerate(sample_trajectory(state0, taus, e, kappa, settings)):
        t[i], a[i], b[i] = tau, s.a, s.b
        inv[i] = float(np.mean(np.abs(s.c[:, 1]) ** 2 - np.abs(s.c[:, 0]) ** 2))
    energy = 0.5 * (a ** 2 + b ** 2)
    return t, a, b, energy, inv


def gauge_rotate(state: FullState, phases: np.ndarray) -> FullState:
    """Apply the per-molecule U(1) action c_n -> e^{i theta_n} c_n."""
    rot = np.exp(1j * np.asarray(phases))[:, None]
    return FullState(a=state.a, b=state.b, c=state.c * rot)


# ---------------------------------------------------------------------------
# averaging-error harness
# ---------------------------------------------------------------------------

def _profile_matrix(profile: Callable[[float], np.ndarray], tau: float) -> np.ndarray:
    m = np.asarray(profile(tau), dtype=complex)
    if m.shape != (2, 2):
        raise ValidationError("profile must return a 2x2 matrix")
    return m


def profile_pump_cosine(tau: float) -> np.ndarray:
    """The pumping generator shape cos(tau) e^{-i tau} (non-commuting)."""
    c = np.cos(tau)
    return np.array([[0.0, c * np.exp(-1j * tau)],
                     [c * np.exp(1j * tau), 0.0]], dtype=complex)


def profile_rotating(tau: float) -> np.ndarray:
    return np.array([[0.0, np.exp(-1j * tau)], [np.exp(1j * tau), 0.0]], dtype=complex)


def averaging_error_scaling(profile: Callable[[float], np.ndarray], T: float,
                            eps_grid: Sequence[float]) -> float:
    """Log-log slope of |c(T) - c_avg(T)| against the generator size eps.

    For each eps, c' = -i*eps*profile(tau)*c is integrated from c = (1, 0)
    exactly and against its period average; slow rotations predict slope 2.
    eps values whose error falls below the 1e-13 integrator floor are dropped.
    """
    eps_grid = np.asarray(sorted(eps_grid), dtype=float)
    if eps_grid.size < 2:
        raise ValidationError("eps grid needs at least two points")
    if np.log10(eps_grid[-1] / eps_grid[0]) < 2.0 - 1e-9:
        raise ValidationError("eps grid should span at least two decades")

    taus = np.linspace(0.0, T, 801)
    avg = np.mean([_profile_matrix(profile, t) for t in taus[:-1]], axis=0)

    errs = []
    kept = []
    y0 = np.array([1.0, 0.0], dtype=complex)
    for eps in eps_grid:
        def rhs(tau, c, _e=eps):
            return -1j * _e * (_profile_matrix(profile, tau) @ c)

        def rhs_avg(tau, c, _e=eps):
            return -1j * _e * (avg @ c)

        sol = solve_ivp(rhs, (0.0, T), y0, method="DOP853", rtol=1e-13, atol=1e-13)
        sol_avg = solve_ivp(rhs_avg, (0.0, T), y0, method="DOP853",
                            rtol=1e-13, atol=1e-13)
        if not (sol.success and sol_avg.success):
            raise NumericsError("averaging harness integration failed")
        err = float(np.linalg.norm(sol.y[:, -1] - sol_avg.y[:, -1]))
        if err > 1e-13:
            errs.append(err)
            kept.append(eps)
    if len(kept) < 2:
        raise NumericsError("all averaging errors below the noise floor")
    slope = float(np.polyfit(np.log(kept), np.log(errs), 1)[0])
    return slope
