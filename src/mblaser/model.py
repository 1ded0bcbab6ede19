"""Parameterization and state types for the one-mode Maxwell-Bloch laser model.

Everything downstream works in the scaled time tau = Omega_p * t, in which the
pumping period is 2*pi and the field oscillator has unit frequency.  The three
per-molecule coupling constants are

    alpha_n = (2c/Omega_p) P_n . X(x_n)      (current weight)
    beta_n  = P_n . X(x_n) / (hbar c)        (field -> molecule coupling)
    gamma_n = P_n . a_p(x_n) / (hbar c)      (pumping Rabi rate)

with P_n the molecular dipole, X the cavity eigenmode and a_p the pumping
amplitude at the molecule, all in Heaviside-Lorentz units.  alpha_n*beta_n >= 0
always, since both factors contain the same projection P_n . X(x_n).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import ValidationError

# Heaviside-Lorentz values of the universal constants (cgs-like units).
HBAR = 1.055e-27        # erg * s
LIGHT_SPEED = 3.0e10    # cm / s

# Ruby-laser working point: pumping frequency, dipole moment, conductivity in
# scaled form, cavity geometry, pumping amplitude from a ~1 kW discharge lamp.
RUBY_PUMP_FREQUENCY = 3.0e15          # 1/s
RUBY_DIPOLE = 4.0e-18                 # esu * cm   (4 Debye)
RUBY_PUMP_AMPLITUDE = 1.7e-6          # esu / cm
RUBY_SIGMA1 = 1.0e-7                  # dimensionless damping c*sigma/Omega_p
RUBY_CAVITY = (12.0, 2.0, 2.0)        # cm
RUBY_ACTIVE_VOLUME = 3.4              # cm^3 (cylindrical lamp r=0.3, l=12)
RUBY_N = 1.0e20


@dataclass(frozen=True)
class PhysicalParams:
    """Raw laser constants in Heaviside-Lorentz units."""

    pump_frequency: float            # Omega_p, 1/s
    pump_amplitude: float            # a_p, esu/cm
    dipole_magnitude: float          # |P|, esu*cm
    conductivity: float              # sigma, 1/s
    cavity_dims: Tuple[float, float, float]   # (l1, l2, l3), cm
    molecule_count: float            # N (can exceed 2**53; float is fine)

    def __post_init__(self):
        for name in ("pump_frequency", "dipole_magnitude", "molecule_count"):
            value = getattr(self, name)
            if not value > 0:
                raise ValidationError(f"{name} must be positive, got {value!r}")
        for name in ("pump_amplitude", "conductivity"):
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} must be >= 0")
        if any(d <= 0 for d in self.cavity_dims):
            raise ValidationError("cavity dimensions must be positive")
        for name, value in vars(self).items():
            if not np.all(np.isfinite(value)):
                raise ValidationError(f"{name} must be finite, got {value!r}")
        hbar_omega = self.pump_frequency * HBAR
        for what, value in (
                ("kappa = c conductivity/(2 pump_frequency)", self.kappa),
                ("a coupling scale of dipole_magnitude, pump_amplitude and "
                 "pump_frequency", max(self.coupling_scales(1.0))),
                ("2/(pump_frequency hbar)", 2.0 / hbar_omega if hbar_omega else np.inf)):
            if not value < np.inf:
                raise ValidationError(f"{what} lies beyond the float range")

    @property
    def cavity_volume(self) -> float:
        l1, l2, l3 = self.cavity_dims
        return l1 * l2 * l3

    @property
    def sigma1(self) -> float:
        """Scaled damping c*sigma/Omega_p."""
        return LIGHT_SPEED * self.conductivity / self.pump_frequency

    @property
    def kappa(self) -> float:
        """Half the scaled damping; the decay rate of the field oscillator."""
        return 0.5 * self.sigma1

    @property
    def mode_rms(self) -> float:
        """RMS eigenmode value over the active region, ~ sqrt(1/|V|)."""
        return 1.0 / np.sqrt(self.cavity_volume)

    def coupling_scales(self, mode_value: float) -> Tuple[float, float, float]:
        """Scales of alpha, beta and gamma for a mode value |X|:
        (2c|P||X|/Omega_p, |P||X|/(hbar c), |P|a_p/(hbar c))."""
        dipole, hc = self.dipole_magnitude, HBAR * LIGHT_SPEED
        return (2.0 * LIGHT_SPEED * dipole * mode_value / self.pump_frequency,
                dipole * mode_value / hc, dipole * self.pump_amplitude / hc)


def ruby_params(pump_amplitude: float = RUBY_PUMP_AMPLITUDE,
                molecule_count: float = RUBY_N) -> PhysicalParams:
    """The ruby working point used throughout for presets."""
    sigma = RUBY_SIGMA1 * RUBY_PUMP_FREQUENCY / LIGHT_SPEED
    return PhysicalParams(
        pump_frequency=RUBY_PUMP_FREQUENCY,
        pump_amplitude=pump_amplitude,
        dipole_magnitude=RUBY_DIPOLE,
        conductivity=sigma,
        cavity_dims=RUBY_CAVITY,
        molecule_count=molecule_count,
    )


@dataclass(frozen=True)
class DimensionlessParams:
    """Scaled constants sufficient to run every computation.

    The three scales are full-magnitude products (dipole magnitude times the
    RMS mode value, or times the pumping amplitude); sampled per-molecule
    values pick up the random projection factors on top of them.
    """

    kappa: float
    alpha_scale: float
    beta_scale: float
    gamma_scale: float
    n: int

    def __post_init__(self):
        for name in ("kappa", "alpha_scale", "beta_scale", "gamma_scale"):
            value = getattr(self, name)
            if not 0.0 <= value < np.inf:
                raise ValidationError(f"{name} must be finite and >= 0, got {value!r}")
        if self.n < 1:
            raise ValidationError("n must be >= 1")


def derive_dimensionless(p: PhysicalParams, n_override: Optional[int] = None) -> DimensionlessParams:
    """Scaled constants from physical ones.

    kappa = c*sigma/(2*Omega_p); the coupling scales are
    `PhysicalParams.coupling_scales` at the RMS mode value |X| ~ sqrt(1/|V|).
    """
    n = int(n_override) if n_override is not None else int(min(p.molecule_count, 2**31))
    alpha, beta, gamma = p.coupling_scales(p.mode_rms)
    return DimensionlessParams(kappa=p.kappa, alpha_scale=alpha, beta_scale=beta,
                               gamma_scale=gamma, n=n)


def _as_locked(a: np.ndarray) -> np.ndarray:
    out = np.asarray(a)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class FullState:
    """Field amplitude pair and the N two-level amplitudes c_n in C^2."""

    a: float
    b: float
    c: np.ndarray  # complex, shape (N, 2)

    def __post_init__(self):
        object.__setattr__(self, "c", _as_locked(np.asarray(self.c, dtype=complex)))
        if self.c.ndim != 2 or self.c.shape[1] != 2:
            raise ValidationError("c must have shape (N, 2)")

    @property
    def n_molecules(self) -> int:
        return self.c.shape[0]

    def norms(self) -> np.ndarray:
        """Per-molecule |c_n1|^2 + |c_n2|^2 (conserved, = 1)."""
        return np.sum(np.abs(self.c) ** 2, axis=1)


@dataclass(frozen=True)
class ReducedState:
    """Gauge-reduced state: field pair and Hopf coordinates z_n."""

    a: float
    b: float
    z: np.ndarray  # complex, shape (N,)

    def __post_init__(self):
        object.__setattr__(self, "z", _as_locked(np.asarray(self.z, dtype=complex)))
        if self.z.ndim != 1:
            raise ValidationError("z must be a 1-d complex array")

    @property
    def n_molecules(self) -> int:
        return self.z.shape[0]

    def distance(self, other: "ReducedState") -> float:
        """Largest absolute gap over a, b and the z_n."""
        return max(abs(self.a - other.a), abs(self.b - other.b),
                   float(np.max(np.abs(self.z - other.z))) if self.z.size else 0.0)


def ground_state(n: int) -> FullState:
    """All molecules in the lower level, zero field."""
    c = np.zeros((n, 2), dtype=complex)
    c[:, 0] = 1.0
    return FullState(a=0.0, b=0.0, c=c)


def hopf_project(c) -> np.ndarray:
    """Gauge-invariant coordinate z = conj(c1) * c2 of a unit two-level state.

    Accepts a single pair or an (N, 2) array; phase rotations of (c1, c2)
    drop out exactly.
    """
    c = np.asarray(c, dtype=complex)
    if c.shape[-1] != 2:
        raise ValidationError("expected trailing dimension 2")
    return np.conj(c[..., 0]) * c[..., 1]


def populations_from_z(z):
    """Level populations (|c1|^2, |c2|^2) from the Hopf coordinate.

    4|c1|^2 = 2 + 2*sqrt(1 - 4|z|^2) on the Bloch hemisphere |c1| >= |c2|
    that contains the lower-level point; on the other hemisphere the pair is
    swapped.  The map is smooth for |z| < 1/2 and its gradient vanishes at
    z = 0.
    """
    z = np.asarray(z, dtype=complex)
    r2 = 4.0 * np.abs(z) ** 2
    if np.any(r2 > 1.0 + 4e-9):     # |z| up to 1/2 + 1e-9 passes as roundoff
        raise ValidationError("populations_from_z: |z| exceeds 1/2")
    root = np.sqrt(np.clip(1.0 - r2, 0.0, None))
    return 0.5 * (1.0 + root), 0.5 * (1.0 - root)


def inversion_from_z(z) -> np.ndarray:
    """Population inversion |c2|^2 - |c1|^2 = -sqrt(1-4|z|^2) near the
    ground state."""
    p1, p2 = populations_from_z(z)
    return p2 - p1


def lift_from_z(z) -> np.ndarray:
    """A unit-sphere representative (c1, c2) of z with c1 real >= 1/sqrt(2).

    Inverse of ``hopf_project`` up to gauge on the hemisphere |c1| >= |c2|,
    where c2 = z / c1 is always defined.
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    p1, _ = populations_from_z(z)
    c1 = np.sqrt(p1)
    return np.stack([c1.astype(complex), z / c1], axis=-1)


def lift_state(state: ReducedState) -> FullState:
    return FullState(a=state.a, b=state.b, c=lift_from_z(state.z))


def perturbed_point(n: int, eps: float, rng: np.random.Generator) -> ReducedState:
    """A point near the ground state: |z_n| uniform in [0.2, 1] * eps with
    uniform phases, then (a, b) uniform in [-eps, eps]^2, drawn in that order."""
    z = eps * rng.uniform(0.2, 1.0, n) * np.exp(2j * np.pi * rng.uniform(size=n))
    a, b = eps * rng.uniform(-1, 1, 2)
    return ReducedState(a=a, b=b, z=z)
