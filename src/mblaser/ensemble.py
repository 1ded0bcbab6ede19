"""Random molecular ensembles, cavity eigenmodes, and the collective sums.

Hypotheses on the medium:

* H1 (polycrystalline): dipole orientations uniform on the sphere and
  independent of the uniform positions.
* H2 (crystalline): one fixed dipole direction for all molecules.
* Pumping: direction uniform on the sphere per molecule, fixed magnitude.

The two collective statistics driving the multiplier spectrum are the
synchronization sum S = sum_n alpha_n beta_n (nonnegative term by term, since
alpha_n and beta_n share the projection P_n . X(x_n)) and the fourth-moment
sum used by the reduced eigenproblem, Sigma = E (P.X)^2 (P.a_p)^2.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Literal, Optional, Tuple, Union

import numpy as np

from .errors import ValidationError, require_capacity
from .model import (HBAR, RUBY_ACTIVE_VOLUME, RUBY_CAVITY, DimensionlessParams,
                    PhysicalParams, _as_locked)

Hypothesis = Literal["H1", "H2"]

#: the ruby geometry: the cavity of dimensionless parameters, and the
#: default sampled mode and active volume of both kinds of parameters
DEFAULT_CAVITY = RUBY_CAVITY
DEFAULT_ACTIVE_VOLUME = RUBY_ACTIVE_VOLUME
DEFAULT_MODE_INDEX = (4, 1, 1)

#: Peak bytes per molecule while sampling: the ensemble keeps 2 float64
#: (proj_mode, proj_pump) and the rescale adds one of S's terms, 24 by
#: tracemalloc at large N, plus one float64 of headroom.  One block's draws
#: and mode values add a fixed SAMPLE_BLOCK * 180 bytes or so (1.5 MB).
SAMPLING_BYTES_PER_MOLECULE = 25
#: molecules drawn and reduced at once while sampling
SAMPLE_BLOCK = 8192


def cuboid_mode(x, k: Tuple[int, int, int], dims: Tuple[float, float, float],
                amp) -> np.ndarray:
    """Transverse eigenmode of the rectangular cuboid at the (N, 3) points x.

    Component i carries a cosine along axis i and sines along the other two,
    normalized so that the mode has unit L2 norm over the cavity
    (C = sqrt(8/(l1 l2 l3))).  The amplitude vector must be unit length and
    orthogonal to the wave vector (k1 pi/l1, k2 pi/l2, k3 pi/l3).
    """
    x = np.asarray(x, dtype=float)
    amp = np.asarray(amp, dtype=float)
    dims = tuple(float(d) for d in dims)
    if any(int(kj) != kj or kj < 1 for kj in k):
        raise ValidationError("mode indices must be integers >= 1")
    wave = np.array([k[j] * np.pi / dims[j] for j in range(3)])
    if abs(np.linalg.norm(amp) - 1.0) > 1e-10:
        raise ValidationError("mode amplitude must be a unit vector")
    if abs(float(amp @ wave)) > 1e-10:
        raise ValidationError("mode amplitude must be orthogonal to the wave vector")

    c1 = np.cos(wave[0] * x[:, 0]); s1 = np.sin(wave[0] * x[:, 0])
    c2 = np.cos(wave[1] * x[:, 1]); s2 = np.sin(wave[1] * x[:, 1])
    c3 = np.cos(wave[2] * x[:, 2]); s3 = np.sin(wave[2] * x[:, 2])
    out = np.empty((x.shape[0], 3))  # filled in place: no (N, 3) temporaries
    for j, (f, g, h) in enumerate(((c1, s2, s3), (s1, c2, s3), (s1, s2, c3))):
        np.multiply(amp[j], f, out=out[:, j])
        out[:, j] *= g
        out[:, j] *= h
    out *= np.sqrt(8.0 / (dims[0] * dims[1] * dims[2]))
    return out


def default_mode_amplitude(k: Tuple[int, int, int],
                           dims: Tuple[float, float, float]) -> np.ndarray:
    """A deterministic unit amplitude orthogonal to the wave vector."""
    wave = np.array([k[j] * np.pi / dims[j] for j in range(3)])
    khat = wave / np.linalg.norm(wave)
    for trial in (np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0]),
                  np.array([1.0, 0.0, 0.0])):
        a = trial - (trial @ khat) * khat
        n = np.linalg.norm(a)
        if n > 1e-6:
            return a / n
    raise ValidationError("could not build a transverse amplitude")  # pragma: no cover


@dataclass(frozen=True)
class Ensemble:
    """Sampled active medium.  The cavity damping kappa is not a property of
    the molecules: the parameters own it and every consumer takes it.

    A molecule enters the collective sums only through the projections of its
    unit dipole direction onto the mode and onto its pumping direction, the
    only (N,) arrays kept.  The couplings are their scalar multiples, derived
    on each read, so alpha_n beta_n >= 0 holds for every molecule.
    """

    hypothesis: Hypothesis
    proj_mode: np.ndarray      # (N,) Phat_n . X(x_n), cm^{-3/2}
    proj_pump: np.ndarray      # (N,) Phat_n . phat_n, dimensionless
    alpha_coef: float
    beta_coef: float
    gamma_coef: float          # at the sampled pump amplitude
    mode_amplitude: np.ndarray  # (3,) unit vector
    cavity_dims: Tuple[float, float, float]
    dipole_magnitude: float    # |P| (1.0 for dimensionless ensembles)
    pump_amplitude: float      # a_p (1.0 for dimensionless ensembles)
    alpha_rescale: float = 1.0  # the desk convention's common factor on alpha
    pump_scale: float = 1.0    # pump_amplitude over the sampled one
    crystal_dipole: Optional[np.ndarray] = None  # unit axis, H2 only

    def __post_init__(self):
        for name in ("proj_mode", "proj_pump", "mode_amplitude"):
            object.__setattr__(self, name, _as_locked(
                np.asarray(getattr(self, name), dtype=float)))

    # the order of each product is part of the outputs' rounding
    alpha = property(lambda self: _as_locked(
        self.alpha_coef * self.proj_mode * self.alpha_rescale))
    beta = property(lambda self: _as_locked(self.beta_coef * self.proj_mode))
    gamma = property(lambda self: _as_locked(
        self.gamma_coef * self.proj_pump * self.pump_scale))

    # 2/(Omega_p hbar) times the desk rescale: S = sum_weight * sum (P.X)^2
    sum_weight = property(lambda self: self.alpha_coef * self.beta_coef
                          / self.dipole_magnitude ** 2 * self.alpha_rescale)
    n = property(lambda self: self.proj_mode.shape[0])

    @property
    def cavity_volume(self) -> float:
        l1, l2, l3 = self.cavity_dims
        return l1 * l2 * l3

    def pump_factor(self, pump_amplitude: float) -> float:
        """The factor that takes gamma_n (and the pump field) to ``pump_amplitude``."""
        if pump_amplitude < 0:
            raise ValidationError("pump amplitude must be >= 0")
        if self.pump_amplitude == 0:
            raise ValidationError("reference ensemble has zero pumping")
        return pump_amplitude / self.pump_amplitude

    def with_pump_amplitude(self, pump_amplitude: float) -> "Ensemble":
        """Same medium, rescaled pumping: O(1), gamma_n follows a_p through ``pump_scale``."""
        factor = self.pump_factor(pump_amplitude)
        return dataclasses.replace(self, pump_scale=self.pump_scale * factor,
                                   pump_amplitude=pump_amplitude)


def _active_region_radius(active_volume: float,
                          dims: Tuple[float, float, float]) -> float:
    r = np.sqrt(active_volume / (np.pi * dims[0]))
    if 2.0 * r > min(dims[1], dims[2]) + 1e-12:
        raise ValidationError(f"active_volume = {active_volume!r} does not fit in the "
                              "cavity cross-section")
    return r


def _philox_at(seed: int, offset: int) -> np.random.Generator:
    """A generator on the Philox stream keyed by ``seed``, standing at its
    ``offset``-th uint64 (the stream makes them four per counter step)."""
    bits = np.random.Philox(key=seed)
    bits.advance(offset // 4)
    bits.random_raw(offset % 4)
    return np.random.Generator(bits)


def _blocks(n: int):
    """Slices of at most SAMPLE_BLOCK molecules covering range(n)."""
    for start in range(0, n, SAMPLE_BLOCK):
        yield slice(start, min(start + SAMPLE_BLOCK, n))


def _unit_vectors(rng, n: int) -> np.ndarray:
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


class _Draws:
    """The medium's draws from the Philox stream keyed by ``seed``, read one
    block of at most SAMPLE_BLOCK molecules at a time.

    The stream holds, in order, the positions (3n uniforms of one uint64
    each: the whole box row by row, or the active cylinder's x1, rho and phi
    columns one after another), then the dipole normals and the pumping
    normals, each (n, 3) row by row.  The position columns and the dipoles
    start at fixed offsets, so each gets a generator standing there.  A
    normal takes a variable number of uint64s, so the pumping normals start
    where the dipole generator stops.  Hence two passes: `first` yields each
    block's positions and unit dipoles, and `second`, run after it, yields
    the same unit dipoles redrawn and the unit pumping directions.  H2 draws
    and discards the dipole normals in `first` to keep the layout; its
    dipoles are the unit crystal axis.
    """

    def __init__(self, seed: int, n: int, dims, active_volume: float,
                 hypothesis: Hypothesis, crystal_axis=None):
        if hypothesis == "H1" and crystal_axis is not None:
            raise ValidationError("H1 draws every dipole direction and takes no crystal axis")
        if hypothesis == "H2" and crystal_axis is None:
            raise ValidationError("H2 requires a crystal axis")
        self.axis = None
        if hypothesis == "H2":
            axis = np.asarray(crystal_axis, dtype=float)
            nrm = np.linalg.norm(axis)
            if not 0 < nrm < np.inf:
                raise ValidationError(
                    f"crystal axis must be finite and nonzero, got {crystal_axis}")
            self.axis = axis / nrm
        # the active region is the centered axial cylinder of volume |V_a|;
        # when |V_a| is the whole cavity the box is used (exact mode
        # statistics, no ergodic averaging involved)
        vol = dims[0] * dims[1] * dims[2]
        self.radius = (None if abs(active_volume - vol) <= 1e-9 * vol
                       else _active_region_radius(active_volume, dims))
        self.seed, self.n, self.dims = seed, n, tuple(dims)
        self._pump_rng = None

    def _dipoles(self, rng, size: int) -> np.ndarray:
        if self.axis is None:
            return _unit_vectors(rng, size)
        return np.broadcast_to(self.axis, (size, 3))

    def first(self):
        """Yield (slice, positions, unit dipoles) per block, each (size, 3)."""
        dims = self.dims
        columns = [_philox_at(self.seed, k * self.n)
                   for k in range(1 if self.radius is None else 3)]
        dipole_rng = _philox_at(self.seed, 3 * self.n)
        for block in _blocks(self.n):
            size = block.stop - block.start
            if self.radius is None:
                positions = columns[0].uniform([0.0, 0.0, 0.0], list(dims), size=(size, 3))
            else:
                x1 = columns[0].uniform(0.0, dims[0], size=size)
                rho = self.radius * np.sqrt(columns[1].uniform(0.0, 1.0, size=size))
                phi = columns[2].uniform(0.0, 2.0 * np.pi, size=size)
                x2 = dims[1] / 2.0 + rho * np.cos(phi)
                x3 = dims[2] / 2.0 + rho * np.sin(phi)
                positions = np.stack([x1, x2, x3], axis=1)
            if self.axis is not None:
                dipole_rng.normal(size=(size, 3))
            yield block, positions, self._dipoles(dipole_rng, size)
        self._pump_rng = dipole_rng

    def second(self):
        """Yield (slice, unit dipoles, unit pumping directions) per block,
        each (size, 3); `first` must have run to its end."""
        dipole_rng = _philox_at(self.seed, 3 * self.n)
        for block in _blocks(self.n):
            size = block.stop - block.start
            yield block, self._dipoles(dipole_rng, size), _unit_vectors(self._pump_rng, size)


def _sample_geometry(seed: int, n: int, dims, active_volume: float,
                     hypothesis: Hypothesis, crystal_axis=None
                     ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Positions, unit dipole and unit pumping directions, each (n, 3), as
    `sample_ensemble` draws them: `_Draws`' blocks, concatenated."""
    draws = _Draws(seed, n, dims, active_volume, hypothesis, crystal_axis)
    positions, dip_dirs = (np.concatenate(c) for c in zip(*(
        (x, d) for _, x, d in draws.first())))
    pump_dirs = np.concatenate([p for _, _, p in draws.second()])
    return positions, dip_dirs, pump_dirs


def _projections(draws: _Draws, mode_index, dims, amp) -> Tuple[np.ndarray, np.ndarray]:
    """proj_mode = Phat . X(x) and proj_pump = Phat . phat, block by block;
    the last block's arrays are freed on return, before any rescale."""
    proj_mode, proj_pump = np.empty(draws.n), np.empty(draws.n)
    for block, positions, dip_dirs in draws.first():
        np.einsum("ij,ij->i", dip_dirs, cuboid_mode(positions, mode_index, dims, amp),
                  out=proj_mode[block])
    for block, dip_dirs, pump_dirs in draws.second():
        np.einsum("ij,ij->i", dip_dirs, pump_dirs, out=proj_pump[block])
    return proj_mode, proj_pump


def sample_ensemble(params: Union[PhysicalParams, DimensionlessParams],
                    hypothesis: Hypothesis = "H1",
                    seed: int = 0,
                    *,
                    n: Optional[int] = None,
                    mode_index: Tuple[int, int, int] = DEFAULT_MODE_INDEX,
                    mode_amplitude: Optional[np.ndarray] = None,
                    crystal_axis: Optional[np.ndarray] = None,
                    rescale_alpha_to_s: Optional[float] = None,
                    active_volume: float = DEFAULT_ACTIVE_VOLUME) -> Ensemble:
    """Draw a reproducible molecular ensemble.

    Counter-based Philox stream keyed by ``seed``, drawn and reduced in
    blocks of SAMPLE_BLOCK molecules (`_Draws`); for a fixed seed and N the
    result is bit-identical regardless of thread count.  ``rescale_alpha_to_s``
    applies the desk-scale convention: alpha is scaled by a common factor so
    that sum alpha_n beta_n equals the requested value.  ``mode_index`` and
    ``active_volume`` default to the ruby geometry for both kinds of params;
    ``crystal_axis`` is required under H2 and refused under H1.
    """
    if hypothesis not in ("H1", "H2"):
        raise ValidationError(f"unknown hypothesis {hypothesis!r}")
    if not 0 <= seed < 2 ** 128:
        raise ValidationError(f"seed must lie in [0, 2**128), got {seed}")

    if isinstance(params, PhysicalParams):
        dims = params.cavity_dims
        dipole_mag = params.dipole_magnitude
        pump_amp = params.pump_amplitude
        alpha_coef, beta_coef, gamma_coef = params.coupling_scales(1.0)
        n_eff = int(params.molecule_count) if n is None else int(n)
    elif isinstance(params, DimensionlessParams):
        dims = DEFAULT_CAVITY
        dipole_mag = 1.0
        pump_amp = 1.0
        x_rms = 1.0 / np.sqrt(dims[0] * dims[1] * dims[2])
        alpha_coef = params.alpha_scale / x_rms
        beta_coef = params.beta_scale / x_rms
        gamma_coef = params.gamma_scale
        n_eff = params.n if n is None else int(n)
    else:
        raise ValidationError("params must be PhysicalParams or DimensionlessParams")

    if n_eff < 1:
        raise ValidationError("ensemble size must be >= 1")
    require_capacity(SAMPLING_BYTES_PER_MOLECULE * n_eff,
                     f"an ensemble of {n_eff:.3g} molecules")
    if not active_volume > 0:
        raise ValidationError(f"active volume must be positive, got {active_volume!r}")
    if rescale_alpha_to_s is not None and not 0 < rescale_alpha_to_s < np.inf:
        raise ValidationError(
            f"rescale_alpha_to_s must be positive and finite, got {rescale_alpha_to_s!r}")

    amp = (default_mode_amplitude(mode_index, dims) if mode_amplitude is None
           else np.asarray(mode_amplitude, dtype=float))

    draws = _Draws(seed, n_eff, dims, active_volume, hypothesis, crystal_axis)
    proj_mode, proj_pump = _projections(draws, mode_index, dims, amp)

    e = Ensemble(
        hypothesis=hypothesis, proj_mode=proj_mode, proj_pump=proj_pump,
        alpha_coef=alpha_coef, beta_coef=beta_coef, gamma_coef=gamma_coef,
        mode_amplitude=amp, cavity_dims=tuple(dims), dipole_magnitude=dipole_mag,
        pump_amplitude=pump_amp,
        crystal_dipole=None if draws.axis is None else draws.axis.copy(),
    )
    if rescale_alpha_to_s is None:
        return e
    # S's terms in one buffer, rounded as e.alpha * e.beta rounds them (the
    # rescale is still 1); an overflow is refused below, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        terms = np.multiply(alpha_coef, proj_mode)
        for block in _blocks(n_eff):
            terms[block] *= beta_coef * proj_mode[block]
        s_now = float(np.sum(terms))
    del terms
    if not np.isfinite(s_now):
        raise ValidationError(
            "alpha and beta couplings out of float range: S = sum alpha_n beta_n "
            f"overflows at alpha_n = {alpha_coef:.3g} and beta_n = {beta_coef:.3g} "
            "times proj_mode_n; lower alpha_scale or beta_scale")
    if s_now <= 0:
        raise ValidationError("cannot rescale a degenerate ensemble (S = 0)")
    return dataclasses.replace(e, alpha_rescale=rescale_alpha_to_s / s_now)


@dataclass(frozen=True)
class SumReport:
    """Empirical vs law-of-large-numbers values of one collective sum."""

    name: str
    empirical: float
    analytic: float
    std_error: float
    n: int

    @property
    def ratio(self) -> float:
        return self.empirical / self.analytic if self.analytic != 0 else np.nan

    @property
    def deviation_in_se(self) -> float:
        if self.std_error == 0:
            return 0.0 if self.empirical == self.analytic else np.inf
        return abs(self.empirical - self.analytic) / self.std_error


def sum_S(e: Ensemble) -> SumReport:
    """Synchronization sum S = sum_n alpha_n beta_n vs its LLN prediction.

    H1: S ~ N * sum_weight * |P|^2/3 * E X^2, with E X^2 -> 1/|V| in the
    ergodic (large mode index) regime.  H2 replaces the 1/3 sphere average by
    the component projection sum_i (Phat_i a_i)^2.
    """
    if e.n < 1:
        raise ValidationError("empty ensemble")
    terms = e.alpha * e.beta
    emp = float(np.sum(terms))
    se = float(np.std(terms, ddof=1) * np.sqrt(e.n)) if e.n > 1 else 0.0

    p2 = e.dipole_magnitude ** 2
    if e.hypothesis == "H1":
        mode_ms = 1.0 / e.cavity_volume
        analytic = e.sum_weight * e.n * (p2 / 3.0) * mode_ms
    else:
        phat = e.crystal_dipole
        comp = float(np.sum((phat * e.mode_amplitude) ** 2))
        analytic = e.sum_weight * e.n * p2 * comp / e.cavity_volume
    return SumReport(name="S", empirical=emp, analytic=float(analytic),
                     std_error=se, n=e.n)


def sum_Sigma(e: Ensemble) -> SumReport:
    """Fourth-moment sum Sigma = E (P.X)^2 (P.a_p)^2 vs its prediction.

    H1: Sigma = a_p^2 |P|^4 / (9 |V|); H2: a_p^2 |P|^2 sum_i (P_i a_i)^2/(3|V|)
    (independent position / dipole / pumping draws, E[X_i X_j] = d_ij a_i^2/|V|).
    """
    if e.n < 1:
        raise ValidationError("empty ensemble")
    px = e.dipole_magnitude * e.proj_mode
    pa = e.dipole_magnitude * e.pump_amplitude * e.proj_pump
    terms = px ** 2 * pa ** 2
    emp = float(np.mean(terms))
    se = float(np.std(terms, ddof=1) / np.sqrt(e.n)) if e.n > 1 else 0.0

    ap2 = e.pump_amplitude ** 2
    p2 = e.dipole_magnitude ** 2
    vol = e.cavity_volume
    if e.hypothesis == "H1":
        analytic = ap2 * p2 * p2 / (9.0 * vol)
    else:
        comp = float(np.sum((e.crystal_dipole * e.mode_amplitude) ** 2)) * p2
        analytic = ap2 * p2 * comp / (3.0 * vol)
    return SumReport(name="Sigma", empirical=emp, analytic=float(analytic),
                     std_error=se, n=e.n)


def analytic_s_for_count(p: PhysicalParams) -> float:
    """LLN prediction of S at full molecule count (no sampling)."""
    return (2.0 * p.dipole_magnitude ** 2 * p.molecule_count
            / (3.0 * p.pump_frequency * HBAR * p.cavity_volume))
