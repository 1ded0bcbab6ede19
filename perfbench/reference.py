"""An independent copy of the Maxwell-Bloch equations, for reference period maps.

    a' = b,   b' = j - 2 kappa b - a,   j = sum_n alpha_n Im(conj(c_n1) c_n2 e^{-i tau})
    c_n1' = -i omega_n c_n2,   c_n2' = -i conj(omega_n) c_n1,
    omega_n = (beta_n b + gamma_n cos tau) e^{-i tau}

The state is laid out as (a, b, Re c1, Im c1, Re c2, Im c2) in blocks of N,
unlike the package's interleaved complex layout, so that no packing code is
shared with the program under test.
"""
from __future__ import annotations

import numpy as np
from scipy.integrate import solve_ivp

TWO_PI = 2.0 * np.pi
REFERENCE_TOL = 1e-12


def _rhs(alpha, beta, gamma, kappa):
    n = alpha.size

    def rhs(tau, y):
        b = y[1]
        c1 = y[2:2 + n] + 1j * y[2 + n:2 + 2 * n]
        c2 = y[2 + 2 * n:2 + 3 * n] + 1j * y[2 + 3 * n:]
        phase = np.exp(-1j * tau)
        current = np.dot(alpha, (np.conj(c1) * c2 * phase).imag)
        omega = (beta * b + gamma * np.cos(tau)) * phase
        d1 = -1j * omega * c2
        d2 = -1j * np.conj(omega) * c1
        return np.concatenate(([b, current - 2.0 * kappa * b - y[0]],
                               d1.real, d1.imag, d2.real, d2.imag))

    return rhs


def reference_period_map(x, alpha, beta, gamma, kappa):
    """One period from the reduced point x = (a, b, Re z_1, Im z_1, ...).

    Lifts z onto the branch |c1| > |c2| with c1 real, integrates with DOP853
    at rtol = atol = REFERENCE_TOL and projects back to z = conj(c1) c2, in x's
    layout.  Only the end point is kept, not the trajectory.
    """
    x = np.asarray(x, dtype=float)
    z = x[2::2] + 1j * x[3::2]
    c1 = np.sqrt(0.5 * (1.0 + np.sqrt(1.0 - 4.0 * np.abs(z) ** 2)))
    c2 = z / c1
    y0 = np.concatenate((x[:2], c1, np.zeros_like(c1), c2.real, c2.imag))
    sol = solve_ivp(_rhs(alpha, beta, gamma, kappa), (0.0, TWO_PI), y0,
                    method="DOP853", rtol=REFERENCE_TOL, atol=REFERENCE_TOL,
                    t_eval=(TWO_PI,))
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    y = sol.y[:, -1]
    n = alpha.size
    c1 = y[2:2 + n] + 1j * y[2 + n:2 + 2 * n]
    c2 = y[2 + 2 * n:2 + 3 * n] + 1j * y[2 + 3 * n:]
    z = np.conj(c1) * c2
    out = np.empty_like(x)
    out[:2] = y[:2]
    out[2::2] = z.real
    out[3::2] = z.imag
    return out
