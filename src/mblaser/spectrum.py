"""Multiplier spectrum of the period-map differential at the ground state.

At the ground state the linearized reduced chart closes on the field (a, b)
and on Z = sum alpha_n z_n.  In the rotating frame W = Z e^{-i tau} = u + iv,
with one unit-beta molecule zeta = p + iq rotated alike, its coefficients are
constant (S = sum alpha_n beta_n):

    a' = b,  b' = -a - 2 kappa b + v,  u' = v,  v' = -u - S b,  p' = q,  q' = -p - b.

The frame is back in place at tau = 2 pi, so the propagator P = expm(2 pi A)
in the order (a, b, u, v, p, q) gives the blocks in the reduced coordinates
(a, b, Re z_1, Im z_1, ...) exactly in S and kappa, S = 0 included:

    [ M    V_1 ... V_N ]        M   = P[ab, ab]
    [ W_1  D_1+X_11 ...]        V_n = alpha_n Vb,  Vb = P[ab, uv]
    [ ...       ...    ]        W_n = beta_n Wb,   Wb = P[pq, ab]
    [ W_N  ...  D_N+X_NN]       X_nn' = beta_n alpha_n' Xb,  Xb = P[pq, uv]

Their S -> 0 limit at kappa = 0 is the successive-approximation map's (Vb =
pi I, Xb the response coefficient -pi^2/2 - i pi/4, an O(S) W dressing).
D_n = diag(1, 1 - delta_n), delta_n = 2 pi^2 gamma_n^2, is the local
molecular block; the other O(gamma^2) pump terms are not included.  At zero
pump E = a^2 + b^2 + |W|^2/S decays at the rate 4 kappa b^2 and the Floquet
exponents sum to -2 kappa, so no multiplier leaves the unit circle.  The
blocks are pinned against the finite-difference Jacobian of the numeric
period map; dense assembly writes them straight from the per-molecule
scalars and the shared 2x2 kernels.

Eliminating the molecular rows reduces the eigenproblem to a 2x2 family

    M(mu) = (M - mu) + Vb (I - R(mu) Xb)^{-1} R(mu) Wb,
    R(mu) = diag(S/u, r(u)),  u = mu - 1,  r(u) = sum_n alpha_n beta_n / (u + delta_n).

As (u, v) - S (p, q) is a free oscillator, P[uv, ab] = S Wb and P[uv, uv] - I
= S Xb, so u is a collective root exactly when it is an eigenvalue of the 4x4
T(rho) = P[:4, :4] - I - rho e_v e_v^T with rho = S/r(u) - u: the reduction
to degree four.  At zero pump rho = 0 and the roots are e^{2 pi lambda} - 1.
Otherwise T is taken at the mean detuning rho-bar = 2 pi^2 G / S (G = sum
alpha_n beta_n gamma_n^2) and each root is iterated to the fixed point rho <-
S/r(u) - u, a step shrinking the error by about q^2 (q below).  The other
multipliers cluster near 1 and near the eigenvalues of D_n.

The per-molecule sums are statistics of the medium.  With r_n = gamma_n^2 /
max gamma^2 = (proj_pump_n / max|proj_pump|)^2, which does not change when
the pump is rescaled, the moments m_k = sum alpha_n beta_n r_n^k and b_k =
sum beta_n^2 r_n^k (k < 18) are multiples of one family sum proj_mode_n^2
r_n^k, since alpha_n and beta_n share the projection.  One blocked pass
computes that family as a (4, 5) grid, k = i + 4 j: per block, the rows
proj_mode_n^2 r_n^i (i < 4) times the rows r_n^(4 j) (j < 5), one small
matrix product.  At u = mu - 1 and q = max delta / |u| the exact resolvent
sum is the Laurent series sum_k m_k (-max delta / u)^k / u, and the
eigenvector norm needed for the Maxwell component is a series in b_k; both
are truncated below 2^-53 relative for q <= 0.1 (SERIES_RADIUS).  The
cluster guard keeps every verdict-bearing root far inside that radius; only
points near the molecular cluster fall back to the direct O(N) sums.  A
whole `threshold_scan` therefore costs one O(N K) pass plus O(1) per grid
point.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import List, Literal, Optional, Sequence

import numpy as np
from scipy.linalg import expm

from .ensemble import Ensemble
from .errors import CapacityError, NumericsError, ValidationError

PI = np.pi
DENSE_CAP = 500

DVariant = Literal["identity", "gamma"]
Method = Literal["polynomial", "both"]
VERDICT_TOL = 1e-9  # roundoff guard on the strict max|mu| > 1 comparison
#: smallest ratio of a polynomial's leading coefficient to the norm of all
#: its coefficients that the root finder takes as of full degree
_LEADING_RATIO = 1e-12

#: largest q = max delta_n / |mu - 1| at which the resolvent sums are summed
#: from the moments; beyond it they fall back to the per-molecule sums
SERIES_RADIUS = 0.1
#: moments kept: at q = SERIES_RADIUS the slower of the two series (the
#: eigenvector norm, terms bounded by (k + 1) q^k) is truncated below 2^-53
SERIES_TERMS = 18
#: molecules per block of the moment pass; a block's rows stay in cache
#: through its matrix product (the whole pass, S's sum included, takes about
#: 10.5 ms at N = 1e6 on one core of a 2-core Xeon)
_MOMENT_BLOCK = 16384
#: the moment pass's grid: m_(i + 4 j) = sum_n x_n^2 r_n^i r_n^(4 j) for
#: i < 4 and j < 5, 20 >= SERIES_TERMS entries (r^4 is taken as two squarings)
_MOMENT_GRID = (4, 5)
#: largest ratio of the reduced matrix's singular values at an eigenvalue
_NULL_TOL = 1e-4
#: largest cond(Vb), which keeps the field part of T's eigenvectors off zero
_V_COND_MAX = 1e6
#: cap on the fixed-point steps per collective root (q = 0.1 needs about 5)
_FIXED_POINT_STEPS = 30


@dataclass(frozen=True)
class DetuningMoments:
    """Pump-invariant moment summary of the medium (module docstring):
    ``ab[k]`` = m_k and ``bb[k]`` = b_k for k < SERIES_TERMS."""

    ab: np.ndarray
    bb: np.ndarray
    gamma_sq_max: float        # max gamma_n^2 at pump_scale = 1


def detuning_moments(e: Ensemble) -> DetuningMoments:
    """The moments from one blocked pass over sum proj_mode_n^2 r_n^k.

    With x_n = proj_mode_n, each block of _MOMENT_BLOCK molecules gives the
    rows lo_i = x_n^2 r_n^i (i < 4) and hi_j = r_n^(4 j) (j < 5, so hi_0 =
    1); the block's (4, 5) grid of sums sum_n lo_i hi_j, whose [i, j] entry
    adds to m_(i + 4 j), is one matrix product lo @ hi^T.  r_n = (proj_pump_n
    / max|proj_pump|)^2 lies in [0, 1], so no power overflows.  ``ab[0]`` is
    S: its terms are written block by block, rounded as `Ensemble.alpha *
    beta` rounds them, and taken as one pairwise sum, as `ensemble.sum_S`
    takes it, so M and the dense route do not move.  Pumping past the float
    range gives ``gamma_sq_max`` = inf and a beta coupling past it a
    non-finite ``bb``; `BlockDifferential` refuses both.
    """
    pp = e.proj_pump
    # max|proj_pump| without an |.| temporary; |gamma_coef| max|proj_pump|
    # rounds as max|gamma_n|, since rounding is monotone
    p_max = max(float(np.max(pp, initial=0.0)), -float(np.min(pp, initial=0.0)))
    g_max = abs(e.gamma_coef) * p_max
    g2_max = g_max * g_max
    rows, cols = _MOMENT_GRID
    grid = np.zeros((rows, cols))
    s_terms = np.empty(e.n)
    block = min(e.n, _MOMENT_BLOCK)
    lo, hi = np.empty((rows, block)), np.empty((cols, block))
    hi[0] = 1.0
    r = np.zeros(block)                  # stays 0 when there is no pumping
    tmp = np.empty(block)
    for start in range(0, e.n, block):
        x = e.proj_mode[start:start + block]
        size = x.shape[0]
        lo_b, hi_b, r_b, tmp_b = lo[:, :size], hi[:, :size], r[:size], tmp[:size]
        s_b = s_terms[start:start + size]
        np.multiply(e.alpha_coef, x, out=s_b)
        s_b *= e.alpha_rescale
        s_b *= np.multiply(e.beta_coef, x, out=tmp_b)
        np.multiply(x, x, out=lo_b[0])
        if g2_max > 0:
            np.divide(pp[start:start + size], p_max, out=r_b)
            r_b *= r_b
        for i in range(1, rows):
            np.multiply(lo_b[i - 1], r_b, out=lo_b[i])
        np.multiply(r_b, r_b, out=hi_b[1])
        hi_b[1] *= hi_b[1]
        for j in range(2, cols):
            np.multiply(hi_b[j - 1], hi_b[1], out=hi_b[j])
        grid += lo_b @ hi_b.T
    m = grid.ravel(order="F")[:SERIES_TERMS]    # m_(i + 4 j) sits at [i, j]
    ab = e.alpha_coef * e.beta_coef * e.alpha_rescale * m
    ab[0] = np.sum(s_terms)
    with np.errstate(over="ignore", invalid="ignore"):   # BlockDifferential refuses inf
        bb = e.beta_coef * e.beta_coef * m
    return DetuningMoments(ab=ab, bb=bb, gamma_sq_max=g2_max)


def _period_propagator(S: float, kappa: float) -> np.ndarray:
    """P = expm(2 pi A), the (6, 6) one-period propagator in the order
    (a, b, u, v, p, q) (module docstring), read-only.  It does not depend on
    the pump.  A non-finite P, a Vb conditioned worse than _V_COND_MAX, or a
    P off the sum rule log|det P| = trace(2 pi A) by more than VERDICT_TOL / 10
    is refused."""
    # three unit oscillators (a, b), (u, v), (p, q), coupled through b and v
    gen = np.kron(np.eye(3), [[0.0, 1.0], [-1.0, 0.0]])
    gen[1, 1], gen[1, 3], gen[3, 1], gen[5, 1] = -2.0 * kappa, 1.0, -S, -1.0
    with np.errstate(all="ignore"):
        P = expm(2.0 * PI * gen)
        finite = np.all(np.isfinite(P))
        cond = np.linalg.cond(P[:2, 2:4]) if finite else np.inf
        residual = abs(np.linalg.slogdet(P)[1] + 4.0 * PI * kappa) if finite else np.inf
    if not cond <= _V_COND_MAX:
        fault = "non-finite or its field-from-collective block singular"
    elif not residual <= VERDICT_TOL / 10:   # NaN and -inf fail too
        fault = f"{residual:.2g} off its sum rule log|det P| = -4 pi kappa"
    else:
        P.flags.writeable = False
        return P
    raise ValidationError(f"synchronization sum S = {S:.3g} with kappa = {kappa:.3g} "
                          f"leaves the one-period propagator {fault}; lower S or kappa")


@dataclass(frozen=True)
class BlockDifferential:
    """Blocks of the period-map differential at the ground state.

    The borders are the per-molecule scalars of ``medium`` times shared 2x2
    kernels (V_n = alpha_n v_border, W_n = beta_n w_border, D_n = diag(1, 1 -
    delta_n)), each a block of the one-period ``propagator``, which
    `assemble_blocks` builds once for every pump level.  S and G are read off
    the moment summary, so the pump level is ``medium.pump_scale``.
    """

    medium: Ensemble
    kappa: float
    moments: DetuningMoments
    propagator: np.ndarray

    def __post_init__(self):
        # the blocks' float range, checked once per pump level; an overflow
        # gives inf and 0 * inf gives NaN, which both fail
        if not self.detuning_max < math.inf:
            raise ValidationError(
                "pumping out of float range: the detunings 2 pi^2 gamma_n^2 overflow "
                f"at {self.medium.pump_scale:.3g} times the medium's pump amplitude")
        if not np.all(np.isfinite(self.moments.bb)):
            raise ValidationError(
                "beta coupling out of float range: the sums of beta_n^2 overflow at "
                f"beta_n = {self.medium.beta_coef:.3g} times proj_mode_n; lower beta_scale")

    n = property(lambda self: self.medium.n)
    alpha = property(lambda self: self.medium.alpha)
    beta = property(lambda self: self.medium.beta)
    gamma = property(lambda self: self.medium.gamma)   # at this pump level

    @property
    def S(self) -> float:
        """Synchronization sum S = sum alpha_n beta_n, the k = 0 moment."""
        return float(self.moments.ab[0])

    @property
    def gamma_sq_sum(self) -> float:
        """G = sum alpha_n beta_n gamma_n^2 at this pump, from the k = 1 moment."""
        s = self.medium.pump_scale
        return float(s * s * self.moments.gamma_sq_max * self.moments.ab[1])

    # the shared kernels of the blocks, as the module docstring names them
    M = property(lambda self: self.propagator[:2, :2])
    v_border = property(lambda self: self.propagator[:2, 2:4])        # Vb
    w_border = property(lambda self: self.propagator[4:, :2])         # Wb
    cross_kernel = property(lambda self: self.propagator[4:, 2:4])    # Xb

    def gamma_detuning(self) -> np.ndarray:
        """Cluster detunings delta_n = 2 pi^2 gamma_n^2 at this pump."""
        return 2.0 * PI ** 2 * self.gamma ** 2

    @property
    def detuning_max(self) -> float:
        """max_n delta_n, from the moment summary (no pass over molecules)."""
        s = self.medium.pump_scale
        return 2.0 * PI ** 2 * (s * s) * self.moments.gamma_sq_max

    def with_pump_factor(self, factor: float) -> "BlockDifferential":
        """The blocks with every gamma_n scaled by ``factor``: O(1), since
        only G and the detunings depend on the pump; the propagator is
        shared."""
        e = self.medium
        return dataclasses.replace(self, medium=dataclasses.replace(
            e, pump_scale=e.pump_scale * factor, pump_amplitude=e.pump_amplitude * factor))


def assemble_blocks(e: Ensemble, kappa: float,
                    d_variant: DVariant = "gamma") -> BlockDifferential:
    """Block differential from the ensemble couplings.

    ``d_variant="identity"`` gives the unpumped blocks (D_n = I, G = 0), the
    same as ``with_pump_factor(0.0)``: M, V and W do not depend on gamma.
    """
    if d_variant not in ("identity", "gamma"):
        raise ValidationError(f"unknown d_variant {d_variant!r}")
    moments = detuning_moments(e)
    bd = BlockDifferential(medium=e, kappa=kappa, moments=moments,
                           propagator=_period_propagator(float(moments.ab[0]), kappa))
    return bd.with_pump_factor(0.0) if d_variant == "identity" else bd


def assemble_full(bd: BlockDifferential) -> np.ndarray:
    """Dense (2N+2)^2 differential, each border entry written for all
    molecules at once as a strided slice: scalar times kernel entry."""
    n = bd.n
    if n > DENSE_CAP:
        raise CapacityError(
            f"dense assembly capped at N = {DENSE_CAP}; use the polynomial path")
    dim = 2 + 2 * n
    out = np.zeros((dim, dim))
    out[:2, :2] = bd.M
    alpha, beta = bd.alpha, bd.beta
    for a in range(2):
        for b in range(2):
            out[a, 2 + b::2] = alpha * bd.v_border[a, b]
            out[2 + a::2, b] = beta * bd.w_border[a, b]
    mol = np.arange(2, dim)
    out[mol, mol] = 1.0
    out[mol[1::2], mol[1::2]] -= bd.gamma_detuning()
    cross = np.einsum("i,j,ab->iajb", beta, alpha, bd.cross_kernel)
    out[2:, 2:] += cross.reshape(2 * n, 2 * n)
    return out


# ---------------------------------------------------------------------------
# reduced 2x2 family
# ---------------------------------------------------------------------------

def _detuned_sum(u: complex, bd: BlockDifferential) -> complex:
    """sum_n alpha_n beta_n / (u + delta_n): the Laurent series in the moments
    where it converges to roundoff, else the direct per-molecule sum.  The
    k = 0 term is S itself, the sum M uses."""
    x = -bd.detuning_max / u
    if abs(x) <= SERIES_RADIUS:
        return complex((bd.S + x * np.polyval(bd.moments.ab[:0:-1], x)) / u)
    det = bd.gamma_detuning()
    if np.any(np.abs(u + det) < 1e-13):
        raise NumericsError("mu sits on a pole of the resolvent sums")
    return complex(np.sum(bd.alpha * bd.beta / (u + det)))


def _detuned_norm_sum(u: complex, bd: BlockDifferential) -> float:
    """sum_n beta_n^2 / |u + delta_n|^2, the same way.

    1/|u + delta|^2 = |u|^-2 sum_k U_k(t) (delta/|u|)^k with t = -Re u/|u|
    and U_k the Chebyshev polynomials of the second kind (|U_k| <= k + 1).
    """
    q = bd.detuning_max / abs(u)
    if q <= SERIES_RADIUS:
        t = -u.real / abs(u)
        total, u_prev, u_k, q_k = 0.0, 0.0, 1.0, 1.0
        for b_k in bd.moments.bb:
            total += b_k * u_k * q_k
            u_prev, u_k = u_k, 2.0 * t * u_k - u_prev
            q_k *= q
        return float(total) / abs(u) ** 2
    det = bd.gamma_detuning()
    return float(np.sum(bd.beta ** 2 / np.abs(u + det) ** 2))


def _resolvent_sums(mu: complex, bd: BlockDifferential) -> np.ndarray:
    """R(mu) = sum_n alpha_n beta_n (mu - D_n)^{-1}, a diagonal 2x2."""
    u = mu - 1.0
    if abs(u) < 1e-13:
        raise NumericsError("mu sits on a pole of the resolvent sums")
    return np.array([[bd.S / u, 0.0], [0.0, _detuned_sum(u, bd)]], dtype=complex)


def _eliminate(mu: complex, bd: BlockDifferential):
    """The reduced 2x2 at mu with the elimination that gives it, (red, R, core).

    Eliminating the molecular rows of the block eigenproblem leaves the
    collective response Y = core^{-1} R Wb v0, core = I - R Xb, so that
        M(mu) = (M - mu) + Vb core^{-1} R Wb,
    with the shared kernels of the module docstring and the full resolvent
    sum (its moment series, or the per-molecule sum near the cluster).
    """
    R = _resolvent_sums(mu, bd)
    core = np.eye(2) - R @ bd.cross_kernel
    if abs(np.linalg.det(core)) < 1e-14 * max(1.0, np.linalg.norm(core) ** 2):
        raise NumericsError("reduced matrix singular: mu at a dressed cluster pole")
    red = bd.M - mu * np.eye(2) + bd.v_border @ np.linalg.solve(core, R @ bd.w_border)
    return red, R, core


def reduced_matrix(mu: complex, bd: BlockDifferential) -> np.ndarray:
    """The 2x2 family whose singular points are the nontrivial multipliers
    (see `_eliminate`)."""
    return _eliminate(mu, bd)[0]


# ---------------------------------------------------------------------------
# the collective 4x4 T(rho) and its characteristic polynomial (degree four)
# ---------------------------------------------------------------------------

def _collective_block(bd: BlockDifferential, rho: complex) -> np.ndarray:
    """T(rho) = P[:4, :4] - I - rho e_v e_v^T (module docstring)."""
    T = (bd.propagator[:4, :4] - np.eye(4)).astype(np.result_type(rho))
    T[3, 3] -= rho
    return T


def _mean_detuning(bd: BlockDifferential) -> float:
    """rho-bar = 2 pi^2 G / S (0 at S = 0, where T's molecular rows vanish)."""
    return 2.0 * PI ** 2 * bd.gamma_sq_sum / bd.S if bd.S else 0.0


def _char_poly(a: np.ndarray) -> np.ndarray:
    """det(u I - a), descending, by the Faddeev-LeVerrier recursion."""
    coeffs, b = [1.0], np.eye(len(a))
    for k in range(1, len(a) + 1):
        ab = a @ b
        coeffs.append(-np.trace(ab) / k)
        b = ab + coeffs[-1] * np.eye(len(a))
    return np.array(coeffs)


def char_polynomial_centered(bd: BlockDifferential) -> np.ndarray:
    """Degree-4 polynomial det(u I - T(rho-bar)) in u = mu - 1, descending
    and monic.  T(rho) is linear in rho in one entry, so no power of rho-bar
    is formed.  Pumping that makes the other coefficients overflow or swamp
    the leading one for `poly_roots` is refused as a ValidationError; those
    of T(0) belong to zero-pump roots |mu - 1| <= 2 and can do neither.
    """
    T = _collective_block(bd, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = _char_poly(T) + _mean_detuning(bd) * np.append(0.0, _char_poly(T[:3, :3]))
    if not _LEADING_RATIO * math.hypot(*coeffs) <= 1.0:   # inf and NaN fail too
        raise ValidationError(
            f"pumping at {bd.medium.pump_scale:.3g} times the medium's pump amplitude lies "
            "beyond the polynomial route's range: max detuning 2 pi^2 gamma_n^2 = "
            f"{bd.detuning_max:.3g}")
    return coeffs


def poly_roots(coeffs: Sequence[float]) -> np.ndarray:
    """Companion-matrix roots of a polynomial of any degree, refined by one
    guarded Newton step each."""
    coeffs = np.asarray(coeffs, dtype=complex)
    if coeffs.ndim != 1 or coeffs.size < 2:
        raise ValidationError("expected descending coefficients of degree 1 or more")
    degree = coeffs.size - 1
    scale = np.linalg.norm(coeffs)
    if not abs(coeffs[0]) >= _LEADING_RATIO * scale:  # NaN fails too
        raise ValidationError(f"leading coefficient vanishes: not degree {degree}")
    roots = np.roots(coeffs)
    dcoeffs = np.polyder(coeffs)
    for i, r in enumerate(roots):
        p = np.polyval(coeffs, r)
        dp = np.polyval(dcoeffs, r)
        if abs(dp) > 1e-30:
            step = p / dp
            if abs(step) < 0.1 * max(1.0, abs(r)):
                roots[i] = r - step
    worst = max(abs(np.polyval(coeffs, r)) for r in roots)
    if worst > 1e-10 * scale * max(1.0, np.max(np.abs(roots)) ** degree):
        raise NumericsError(f"root residual {worst:.2e} too large")
    return roots


# ---------------------------------------------------------------------------
# eigenvectors and the verdict
# ---------------------------------------------------------------------------

def eigvec_back_substitute(mu: complex, bd: BlockDifferential) -> np.ndarray:
    """Unit eigenvector of the block matrix at a root of det M(mu).

    v0 is the unit near-null vector of the reduced 2x2 (`_eliminate`); the
    molecular parts are v_n = (mu - D_n)^{-1} beta_n rhs with rhs = Wb v0 +
    Xb Y and Y the collective alpha-weighted response.  The Maxwell
    component v0 never vanishes for roots of the reduced determinant.
    """
    red, R, core = _eliminate(mu, bd)
    _, sing, vh = np.linalg.svd(red)
    if sing[1] > _NULL_TOL * max(sing[0], 1e-30):
        raise NumericsError(
            f"mu = {mu} is not an eigenvalue: reduced matrix well conditioned")
    v0 = vh[1].conj()
    wb_v0 = bd.w_border @ v0
    rhs = wb_v0 + bd.cross_kernel @ np.linalg.solve(core, R @ wb_v0)
    det = bd.gamma_detuning()
    u = mu - 1.0
    vec = np.empty(2 + 2 * bd.n, dtype=complex)
    vec[:2] = v0
    vec[2::2] = bd.beta * rhs[0] / u
    vec[3::2] = bd.beta * rhs[1] / (u + det)
    return vec / np.linalg.norm(vec)


def _maxwell_component(u: complex, vec: np.ndarray, bd: BlockDifferential) -> float:
    """``norm(eigvec_back_substitute(1 + u, bd)[:2])`` from T's eigenvector
    ``vec`` = (f, Y) at the root u and the moment sums: scaled to |f| = 1,
    with rhs = Wb f + Xb Y, the unnormalized vector's squared norm is
    1 + |rhs_0|^2 sum beta_n^2/|u|^2 + |rhs_1|^2 sum beta_n^2/|u + delta_n|^2.
    """
    rhs = (bd.w_border @ vec[:2] + bd.cross_kernel @ vec[2:]) / np.linalg.norm(vec[:2])
    mol = (abs(rhs[0]) ** 2 * bd.moments.bb[0] / abs(u) ** 2
           + abs(rhs[1]) ** 2 * _detuned_norm_sum(u, bd))
    return float(1.0 / np.sqrt(1.0 + mol))


@dataclass(frozen=True)
class SpectrumReport:
    """Multipliers and the parametric-resonance verdict."""

    multipliers: np.ndarray
    max_abs_mu: float
    #: max |mu| outside the cluster guard (NaN if none); ``max_abs_mu`` also
    #: counts the molecular cluster, as |mu| = 1
    collective_max_abs_mu: float
    resonance: bool
    maxwell_components: np.ndarray   # |(a,b)-part| per reported eigenvector
    polynomial_roots: np.ndarray     # every route runs the polynomial
    method: Method
    cross_discrepancy: Optional[float] = None
    roots_near_one: int = 0

    @property
    def maxwell_floor(self) -> float:
        vals = self.maxwell_components[np.isfinite(self.maxwell_components)]
        return float(np.min(vals)) if vals.size else np.nan


def cluster_guard(bd: BlockDifferential, factor: float = 10.0) -> float:
    """Radius around mu = 1 of the molecular cluster zone, where a root of T
    is not taken as collective; outside it q < 1 / factor."""
    return factor * max(bd.detuning_max, 1e-12)


def _fixed_point(u: complex, vec: np.ndarray, bd: BlockDifferential):
    """T's root near u and its eigenvector at rho = S/r(u) - u, iterated until
    a step is roundoff (the error left is about q^2 times that step), else
    NumericsError.  At zero pump, and at S = 0, rho-bar is already exact."""
    if bd.S == 0.0 or bd.detuning_max == 0.0:
        return u, vec
    for _ in range(_FIXED_POINT_STEPS):
        T = _collective_block(bd, bd.S / _detuned_sum(u, bd) - u)
        vals, vecs = np.linalg.eig(T)
        i = np.argmin(np.abs(vals - u))
        step, u, vec = abs(vals[i] - u), vals[i], vecs[:, i]
        # a step within eig's own backward error, eps |T|, is roundoff
        if step <= 4.0 * np.finfo(float).eps * np.linalg.norm(T):
            return u, vec
    raise NumericsError(f"the collective root near mu = {1.0 + u:.6g} did not settle "
                        f"in {_FIXED_POINT_STEPS} fixed-point steps")


def _polynomial_spectrum(bd: BlockDifferential):
    """The four roots of T(rho-bar), each outside the cluster guard taken to
    its fixed point with its Maxwell component; roots inside the guard lie
    among the molecular cluster and carry no eigenvector.  The range
    refusal of `char_polynomial_centered` guards this route too."""
    char_polynomial_centered(bd)
    us, vecs = np.linalg.eig(_collective_block(bd, _mean_detuning(bd)))
    us = us.astype(complex)
    comps = np.full(us.shape, np.nan)
    valid = np.abs(us) > cluster_guard(bd)
    for i in np.flatnonzero(valid):
        us[i], vec = _fixed_point(us[i], vecs[:, i], bd)
        comps[i] = _maxwell_component(us[i], vec, bd)
    return 1.0 + us, comps, valid


def _dense_spectrum(bd: BlockDifferential):
    full = assemble_full(bd)
    vals, vecs = np.linalg.eig(full)
    comps = np.linalg.norm(vecs[:2, :], axis=0) / np.linalg.norm(vecs, axis=0)
    return vals, comps


def resonance_verdict(bd: BlockDifferential,
                      method: Method = "polynomial") -> SpectrumReport:
    """Multipliers by the requested route(s) and the max|mu| > 1 + VERDICT_TOL
    verdict.

    In ``both`` mode the report records the worst distance between each
    well-separated dense eigenvalue (|mu-1| above the cluster guard) and its
    nearest polynomial root.
    """
    cross = None
    if method == "polynomial":
        mult, comps, valid = _polynomial_spectrum(bd)
        proots = mult.copy()
        # the molecular cluster, bounded by |mu| <= 1, counts as |mu| = 1
        max_mu = float(np.max(np.abs(mult[valid]), initial=1.0))
    elif method == "both":
        proots = _polynomial_spectrum(bd)[0]
        mult, comps = _dense_spectrum(bd)
        valid = np.abs(mult - 1.0) > cluster_guard(bd)
        max_mu = float(np.max(np.abs(mult)))
        outside = mult[np.abs(mult - 1.0) > cluster_guard(bd, factor=100.0)]
        cross = max((float(np.min(np.abs(proots - mu))) for mu in outside),
                    default=0.0)
    else:
        raise ValidationError(f"unknown method {method!r}")

    collective = np.abs(mult[valid])
    return SpectrumReport(
        multipliers=mult, max_abs_mu=max_mu,
        collective_max_abs_mu=float(np.max(collective)) if collective.size else np.nan,
        resonance=bool(max_mu > 1.0 + VERDICT_TOL),
        maxwell_components=comps,
        polynomial_roots=proots, method=method, cross_discrepancy=cross,
        roots_near_one=int(np.sum(~valid)),
    )


@dataclass(frozen=True)
class ThresholdPoint:
    pump_amplitude: float
    max_abs_mu: float
    resonance: bool
    maxwell_floor: float
    collective_max_abs_mu: float


def threshold_scan(e: Ensemble, kappa: float,
                   pump_grid: Sequence[float]) -> List[ThresholdPoint]:
    """Sweep the pumping amplitude and record the polynomial verdict at each
    point.

    gamma_n scales linearly with the pump amplitude; everything else of the
    sampled medium is held fixed.  The blocks, their moment summary and the
    propagator are assembled once, and each grid point only rescales the
    pump-dependent scalars, so a point costs O(1) in N.
    """
    base = assemble_blocks(e, kappa)
    points = []
    for ap in pump_grid:
        bd = base.with_pump_factor(e.pump_factor(float(ap)))
        rep = resonance_verdict(bd)
        points.append(ThresholdPoint(
            pump_amplitude=float(ap), max_abs_mu=rep.max_abs_mu,
            resonance=rep.resonance, maxwell_floor=rep.maxwell_floor,
            collective_max_abs_mu=rep.collective_max_abs_mu))
    return points
