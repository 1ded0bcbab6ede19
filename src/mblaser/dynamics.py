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

Each chart's equations are stated once.  The full chart's kernel is a flat
right-hand side on a packed real vector, (a, b) then the amplitudes as
interleaved (Re, Im) pairs, integrated by scipy's `solve_ivp` (DOP853); it
carries trajectories, the period map's fallback at the chart edge and the
gauge-equivariance checks.  The reduced chart carries the numeric period map
(`poincare.make_numeric_map`).  There every molecule moves at a time tau along
the same real direction, (Re z_n', Im z_n') = q_n (sin tau, -cos tau), so a
Runge-Kutta stage is one real N-vector q plus the two field derivatives, not
2N + 2 numbers.  Its stage kernel (`_reduced_stage`) and its own DOP853
stepper (`_dop853_reduced`: scipy's coefficients and step control, so the
steps match `solve_ivp`'s) keep Re z, Im z and the 13 stages q as the rows of
one (15, N) store, ordered so that each stage state, and the step's end with
both error estimates, is one small matrix product over a contiguous run of
rows: z and the stages the tableau weights there, and no stage it has not yet
evaluated.  The full chart's derivative has no such form (c_n1' needs c_n2
and c_n2' needs c_n1), so it stays on `solve_ivp`.
The packing stays in this module; every public function here takes and
returns `FullState` / `ReducedState`.

Both integrators stop after STEP_BUDGET step attempts per 2 pi of span (a
shorter span gets one period's worth), so a medium too stiff to integrate
ends in a NumericsError naming its largest couplings instead of running on.
"""
from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence, Tuple

import numpy as np
from scipy.integrate import DOP853, solve_ivp

from .ensemble import Ensemble
from .errors import (ChartBoundaryError, NumericsError, ValidationError,
                     require_capacity)
from .model import FullState, ReducedState

TWO_PI = 2.0 * np.pi
CHART_GUARD = 1e-6  # refuse reduced dynamics within this distance of |z| = 1/2
#: step attempts per 2 pi of integration span; the desk media take 9-33 per
#: period at rel_tol 1e-10 to 1e-13, and about 930 at gamma_scale = 100
STEP_BUDGET = 10_000


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


def _reduced_stage(e: Ensemble, kappa: float) -> Callable:
    """The reduced chart's equation at one stage, in real arithmetic.

    ``stage(tau, z, a, b, q)`` reads z as a (2, N) array of (Re z, Im z) rows.
    It writes q_n = (beta_n b + gamma_n cos tau) sqrt(1 - 4|z_n|^2) into the
    N-vector ``q`` and returns (a', b', sin tau, -cos tau).  Every molecule's
    derivative is q_n times that one direction:
    -i conj(omega_n) = (sin tau - i cos tau) (beta_n b + gamma_n cos tau).
    """
    alpha = e.alpha
    beta_gamma = np.stack([e.beta, e.gamma])
    two_kappa = 2.0 * kappa
    # 4|z|^2 >= (1 - 2 delta)^2 exactly when |z|^2 >= (1/2 - delta)^2, and
    # sqrt(1 - 4|z|^2) = 2 sqrt(1/4 - |z|^2) exactly; the 2 goes into b, cos tau
    guard = (0.5 - CHART_GUARD) ** 2
    r2 = np.empty(e.n)

    def stage(tau, z, a, b, q):
        np.einsum("ij,ij->j", z, z, out=r2)
        alpha_re, alpha_im = z @ alpha   # while z is still in cache
        if r2.max() >= guard:
            raise ChartBoundaryError(
                "reduced chart left its validity region |z| < 1/2 - delta; "
                "switch to the full dynamics")
        np.subtract(0.25, r2, out=r2)
        np.sqrt(r2, out=r2)
        c, s = np.cos(tau), np.sin(tau)
        np.dot((2.0 * b, 2.0 * c), beta_gamma, out=q)
        np.multiply(q, r2, out=q)
        # j = sum_n alpha_n Im{z_n e^{-i tau}} = c Im z - s Re z, summed
        j = c * alpha_im - s * alpha_re
        return b, j - two_kappa * b - a, s, -c

    return stage


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------

class _StepBudgetExceeded(NumericsError):
    """An integration used up its STEP_BUDGET."""


def _max_evaluations(tau0: float, tau1: float) -> float:
    """DOP853 right-hand-side evaluations within the step budget: 2 for the
    first step size, then one per stage of each attempt."""
    return 2 + _STAGES * STEP_BUDGET * max(1.0, (tau1 - tau0) / TWO_PI)


def _budget_message(tau0: float, tau1: float) -> str:
    return (f"integration exhausted its budget of {STEP_BUDGET} step attempts per "
            f"period over {(tau1 - tau0) / TWO_PI:.3g} period(s)")


@contextmanager
def _naming_couplings(e: Ensemble):
    """Name the medium's largest couplings when its integration runs out of
    steps."""
    try:
        yield
    except _StepBudgetExceeded as exc:
        raise NumericsError(
            f"{exc}: max|gamma_n| = {float(np.max(np.abs(e.gamma))):.3g} and "
            f"max|beta_n| = {float(np.max(np.abs(e.beta))):.3g} make the medium too "
            "stiff; lower the couplings or the pump amplitude") from None


def integrate(rhs: Callable, y0: np.ndarray, tau0: float, tau1: float,
              settings: OdeSettings = OdeSettings(),
              t_eval: Sequence[float] = None):
    """Adaptive DOP853 (Dormand-Prince 8(5,3)) solve of a flat real system.

    Returns the final state vector, or (times, states) when ``t_eval`` is
    given.  Step-size underflow, solver failures and an exhausted step budget
    (counted at 12 evaluations per attempt) raise NumericsError.
    """
    if tau1 < tau0:
        raise ValidationError("tau1 must be >= tau0")
    if tau1 == tau0 and t_eval is None:
        return np.array(y0, dtype=float)
    max_nfev, nfev = _max_evaluations(tau0, tau1), 0

    def counted(t, y):
        nonlocal nfev
        nfev += 1
        if nfev > max_nfev:
            raise _StepBudgetExceeded(_budget_message(tau0, tau1))
        return rhs(t, y)

    # method by keyword: perfbench's tracer reads it to count solver steps
    sol = solve_ivp(counted, (tau0, tau1), np.asarray(y0, dtype=float),
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
    with _naming_couplings(e):
        y = integrate(_flat_rhs_full(e, kappa), pack_full(state0), tau0, tau1, settings)
    return unpack_full(y, state0.n_molecules)


def integrate_reduced(state0: ReducedState, tau0: float, tau1: float, e: Ensemble,
                      kappa: float, settings: OdeSettings = OdeSettings()) -> ReducedState:
    """DOP853 solve of the reduced chart; ChartBoundaryError at its edge."""
    if tau1 < tau0:
        raise ValidationError("tau1 must be >= tau0")
    if tau1 == tau0:
        return ReducedState(a=float(state0.a), b=float(state0.b), z=state0.z.copy())
    z = np.stack([state0.z.real, state0.z.imag])
    with _naming_couplings(e):
        a, b, z, _, _ = _dop853_reduced(_reduced_stage(e, kappa), float(state0.a),
                                        float(state0.b), z, float(tau0), float(tau1),
                                        settings)
    return ReducedState(a=a, b=b, z=z[0] + 1j * z[1])


# DOP853's tableau and step control, as solve_ivp(method="DOP853") uses them
# (Hairer, Norsett & Wanner, Solving ODEs I, II.4-II.10)
_A, _B, _C = DOP853.A, DOP853.B, DOP853.C
_E3, _E5 = DOP853.E3, DOP853.E5
_STAGES = DOP853.n_stages
_ERROR_EXPONENT = -1.0 / (DOP853.error_estimator_order + 1)
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0

# `_dop853_reduced` keeps z and the stages as the rows of one store, in the
# order Q2, Q1, Re z, Im z, Q0, Q3 ... Q12: stage j is row _ROW[j].  Stage k
# weights no Q1 from k = 3 on and no Q2 from k = 5 on, and the step's end and
# both error estimates weight none of Q1 ... Q4 (E3 and E5 not Q12 either), so
# each of these products reads one run of rows [lo, hi) that holds z and every
# weighted stage.  Each run and its weights over the run's rows are taken from
# the tableau here.
_Z = slice(2, 4)
_ROW = np.array([4, 1, 0, *range(5, _STAGES + 3)])
_IDENTITY = np.zeros((_STAGES + 3, 2))  # z's own coefficient in a stage state
_IDENTITY[_Z] = np.eye(2)


def _run(weights: np.ndarray) -> Tuple[int, int, np.ndarray]:
    """(lo, hi, per-row weights) of the rows a product over ``weights`` (one
    row of stage weights, or several stacked) must read: z and every stage
    any row weights."""
    weights = np.atleast_2d(weights)
    used = _ROW[np.flatnonzero(np.any(weights != 0, axis=0))]
    lo, hi = min(_Z.start, used.min()), max(_Z.stop, used.max() + 1)
    placed = np.zeros((len(weights), _STAGES + 3))
    placed[:, _ROW[:weights.shape[1]]] = weights
    return lo, hi, placed[:, lo:hi]


_STAGE_RUNS = [None] + [_run(_A[k, :k]) for k in range(1, _STAGES)]
#: the step's end (B) and the two error estimates (E5, E3) in one product
_END_RUN = _run(np.stack([np.append(_B, 0.0), _E5, _E3]))


def _dop853_reduced(stage: Callable, a: float, b: float, z: np.ndarray,
                    tau0: float, tau1: float, settings: OdeSettings):
    """scipy's DOP853 on the reduced chart, with each stage stored as q_n.

    The method is solve_ivp's on the packed vector (a, b, Re z_1, Im z_1,
    ...): the same first-step rule, error norm, step control, FSAL reuse,
    ``max_step``, clipping to ``tau1`` and 10-ulp minimum step, so the steps
    and the number of stage evaluations match.  Only the order of the sums
    differs; the E5/E3 error estimate cancels about ten digits, so step sizes
    agree to about 1e-6.  A stage derivative is the N-vector q times the
    stage's direction (sin, -cos) (`_reduced_stage`), so Re z, Im z and the
    13 stages q_k are the rows of one (15, N) store.  Each stage state is one
    (2, s) @ (s, N) product over that stage's run of rows (`_STAGE_RUNS`),
    z's identity coefficient included, and the step's end and both error
    estimates are one (6, 12) product over the run `_END_RUN`.  The ``z``
    passed in is not written.

    Returns (a, b, z, accepted times, stage evaluations).  Raises
    ValidationError on a non-finite initial state, as solve_ivp refuses one
    (the step-size rule would loop on NaN), NumericsError when the step falls
    below the minimum or the step budget runs out, and ChartBoundaryError
    when a stage leaves the chart.
    """
    if not (np.isfinite(a) and np.isfinite(b) and np.all(np.isfinite(z))):
        raise ValidationError("the initial state must be finite")
    n = z.shape[1]
    size = 2 + 2 * n
    rtol, atol, max_step = settings.rel_tol, settings.abs_tol, settings.max_step
    store = np.zeros((_STAGES + 3, n))  # Q2, Q1, Re z, Im z, Q0, Q3 ... Q12
    store[_Z] = z
    z = store[_Z]
    F = np.empty((_STAGES + 1, 2))   # field derivatives (a', b') per stage
    U = np.zeros((_STAGES + 3, 2))   # direction (sin tau, -cos tau) per store row
    field = np.array([a, b])
    zs = np.empty((2, n))
    end = np.empty((6, n))           # z_new, then the E5 and E3 estimates
    z_new, err = end[:2], end[2:].reshape(2, 2, n)
    scale = np.empty((2, n))

    def evaluate(k, tau, zk, fk):
        row = _ROW[k]
        da, db, sin, minus_cos = stage(tau, zk, fk[0], fk[1], store[row])
        F[k] = da, db
        U[row] = sin, minus_cos

    def derivative(k):
        return store[_ROW[k]] * U[_ROW[k]][:, None]

    def rms(f_field, f_z):
        return np.sqrt((f_field @ f_field + np.vdot(f_z, f_z)) / size)

    # first step: scipy's select_initial_step, its trial stage kept as stage 1
    t = tau0
    evaluate(0, t, z, field)
    interval = tau1 - tau0
    scale_field = atol + np.abs(field) * rtol
    np.abs(z, out=scale)
    scale *= rtol
    scale += atol
    f0 = derivative(0)
    d0 = rms(field / scale_field, z / scale)
    d1 = rms(F[0] / scale_field, f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    evaluate(1, t + h0, z + h0 * f0, field + h0 * F[0])
    d2 = rms((F[1] - F[0]) / scale_field, (derivative(1) - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** -_ERROR_EXPONENT
    h_abs = min(100 * h0, h1, interval, max_step)
    nfev, max_nfev = 2, _max_evaluations(tau0, tau1)

    times = [t]
    while t < tau1:
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        if h_abs > max_step:
            h_abs = max_step
        elif h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if h_abs < min_step:
                raise NumericsError(
                    "integration failed: Required step size is less than "
                    "spacing between numbers.")
            if nfev + _STAGES > max_nfev:
                raise _StepBudgetExceeded(_budget_message(tau0, tau1))
            t_new = min(t + h_abs, tau1)
            h_abs = h = t_new - t
            for k in range(1, _STAGES):
                lo, hi, w = _STAGE_RUNS[k]
                coef = h * w.T * U[lo:hi] + _IDENTITY[lo:hi]
                np.dot(coef.T, store[lo:hi], out=zs)
                evaluate(k, t + _C[k] * h, zs, field + np.dot(F[:k].T, _A[k, :k]) * h)
            lo, hi, w = _END_RUN
            coef = (w[:, None, :] * U[lo:hi].T).reshape(6, hi - lo)
            coef[:2] *= h
            coef[:2] += _IDENTITY[lo:hi].T
            np.dot(coef, store[lo:hi], out=end)
            field_new = field + h * np.dot(F[:-1].T, _B)
            evaluate(_STAGES, t + h, z_new, field_new)
            nfev += _STAGES

            # error norm: scipy's DOP853 E5/E3 blend, scaled componentwise
            scale_field = atol + np.maximum(np.abs(field), np.abs(field_new)) * rtol
            np.abs(z, out=scale)
            np.abs(z_new, out=zs)
            np.maximum(scale, zs, out=scale)
            scale *= rtol
            scale += atol
            err /= scale
            e5_field = np.dot(F.T, _E5) / scale_field
            e3_field = np.dot(F.T, _E3) / scale_field
            err5_sq = e5_field @ e5_field + np.vdot(err[0], err[0])
            err3_sq = e3_field @ e3_field + np.vdot(err[1], err[1])
            if err5_sq == 0 and err3_sq == 0:
                error_norm = 0.0
            else:
                error_norm = h_abs * err5_sq / np.sqrt((err5_sq + 0.01 * err3_sq) * size)

            if error_norm < 1:
                if error_norm == 0:
                    factor = _MAX_FACTOR
                else:
                    factor = min(_MAX_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
                if rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
            rejected = True

        t, field = t_new, field_new
        z[...] = z_new
        store[_ROW[0]], F[0], U[_ROW[0]] = store[_ROW[-1]], F[-1], U[_ROW[-1]]
        times.append(t)
    return float(field[0]), float(field[1]), z.copy(), times, nfev


def sample_trajectory(state0: FullState, taus: Sequence[float], e: Ensemble,
                      kappa: float, settings: OdeSettings = OdeSettings()
                      ) -> Iterator[Tuple[float, FullState]]:
    """Integrate the full system from ``taus[0]`` and yield (tau, state) at
    each of ``taus``, unpacking one sample at a time."""
    with _naming_couplings(e):
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

