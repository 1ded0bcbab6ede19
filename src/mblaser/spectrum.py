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
    R(mu) = diag( S/(mu-1),  sum_n alpha_n beta_n / (mu - 1 + delta_n) ),

whose determinant, cleared of the (mu-1)^2 denominators using the expansion
sum_n alpha_n beta_n/(mu-1+delta_n) ~ S/(mu-1) - 2 pi^2 G/(mu-1)^2
(G = sum alpha_n beta_n gamma_n^2), is a degree-six polynomial.  It is the
determinant of a 4x4 polynomial system whose field-row/molecular-column block
Vb is constant and invertible, so it is computed as the Schur form
det(Vb) det(C - D Vb^{-1} A), a 2x2 determinant of cubics.  One root
always sits exactly at mu = 1 (two when all gamma_n = 0): the nontrivial
content is a quartic, and the remaining multipliers of the full matrix
cluster near 1 and near the eigenvalues of D_n.

The per-molecule sums are statistics of the medium.  With r_n = gamma_n^2 /
max gamma^2, which does not change when the pump is rescaled, the moments
m_k = sum alpha_n beta_n r_n^k and b_k = sum beta_n^2 r_n^k (k < 18) are
computed once in O(N K).  At u = mu - 1 and q = max delta / |u| the exact
resolvent sum is the Laurent series sum_k m_k (-max delta / u)^k / u, and
the eigenvector norm needed for the Maxwell component is a series in b_k; both
are truncated below 2^-53 relative for q <= 0.1 (SERIES_RADIUS).  The cluster
guard keeps every verdict-bearing root far inside that radius; only points
near the molecular cluster fall back to the direct O(N) sums.  A whole
`threshold_scan` therefore costs one O(N K) pass plus O(1) per grid point.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import cached_property
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
#: smallest ratio of a degree-6 polynomial's leading coefficient to the norm
#: of all seven that the root finder takes as degree six
_LEADING_RATIO = 1e-12

#: largest q = max delta_n / |mu - 1| at which the resolvent sums are summed
#: from the moments; beyond it they fall back to the per-molecule sums
SERIES_RADIUS = 0.1
#: moments kept: at q = SERIES_RADIUS the slower of the two series (the
#: eigenvector norm, terms bounded by (k + 1) q^k) is truncated below 2^-53
SERIES_TERMS = 18
#: molecules per block of the moment pass; a block's weights and running
#: power stay in cache across all SERIES_TERMS powers (at N = 1e6, one core:
#: 32 ms against 100 ms for the same loop over the whole arrays)
_MOMENT_BLOCK = 16384
#: largest ratio of the reduced matrix's singular values at an eigenvalue
_NULL_TOL = 1e-4
#: largest cond(Vb): the Schur form's leading coefficient is then 1 to ~2e-10
_V_COND_MAX = 1e6


@dataclass(frozen=True)
class DetuningMoments:
    """Pump-invariant moment summary of the medium.

    With r_n = gamma_n^2 / max gamma^2: ``ab[k] = sum alpha_n beta_n r_n^k``
    and ``bb[k] = sum beta_n^2 r_n^k`` for k < SERIES_TERMS.  Rescaling the
    pump scales every gamma_n by one factor and leaves r_n unchanged.
    """

    ab: np.ndarray
    bb: np.ndarray
    gamma_sq_max: float        # max gamma_n^2 of the medium they were taken from


def detuning_moments(alpha: np.ndarray, beta: np.ndarray,
                     gamma: np.ndarray) -> DetuningMoments:
    """The moments in one blocked O(N * SERIES_TERMS) pass.

    ``ab[0]`` is S; it is taken as one pairwise sum, rounded exactly as
    `ensemble.sum_S`, so M and the dense route do not move.
    """
    g_max = float(np.max(np.abs(gamma), initial=0.0))
    try:
        g2_max = g_max ** 2
    except OverflowError:
        raise ValidationError(
            f"pumping rate max|gamma_n| = {g_max:.3g} squares beyond the float "
            "range; lower gamma_scale or pump_amplitude") from None
    weights = alpha * beta
    out = np.zeros((2, SERIES_TERMS))
    for start in range(0, gamma.size, _MOMENT_BLOCK):
        block = slice(start, start + _MOMENT_BLOCK)
        ab = weights[block]
        bb = beta[block] ** 2
        r = gamma[block] ** 2 / g2_max if g2_max > 0 else np.zeros_like(ab)
        p = np.ones_like(r)
        for k in range(SERIES_TERMS):
            out[0, k] += ab @ p
            out[1, k] += bb @ p
            p *= r
    out[0, 0] = np.sum(weights)
    return DetuningMoments(ab=out[0], bb=out[1], gamma_sq_max=g2_max)


@dataclass(frozen=True)
class BlockDifferential:
    """Blocks of the period-map differential at the ground state.

    alpha, beta and gamma are the couplings of the sampled medium, shared and
    not copied; at this pump level the molecules see ``pump_factor * gamma``.
    The borders are held as these scalars times shared 2x2 kernels (V_n =
    alpha_n v_border, W_n = beta_n w_border, D_n = diag(1, 1 - delta_n)),
    each a block of the one-period ``propagator``.  S and G are read off the
    moment summary, so rescaling the pump changes only ``pump_factor``.
    """

    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    kappa: float
    moments: DetuningMoments
    pump_factor: float = 1.0

    def __post_init__(self):
        # the one scalar check per pump level; a Python float ** raises on
        # overflow where numpy would give inf
        try:
            finite = math.isfinite(self.detuning_max)
        except OverflowError:
            finite = False
        if not finite:
            raise ValidationError(
                "pumping out of float range: the detunings 2 pi^2 gamma_n^2 overflow "
                f"at {self.pump_factor:.3g} times the medium's pump amplitude")

    @property
    def n(self) -> int:
        return self.alpha.shape[0]

    @property
    def S(self) -> float:
        """Synchronization sum S = sum alpha_n beta_n, the k = 0 moment."""
        return float(self.moments.ab[0])

    @property
    def gamma_sq_sum(self) -> float:
        """G = sum alpha_n beta_n gamma_n^2 at this pump, from the k = 1 moment."""
        return float(self.pump_factor ** 2 * self.moments.gamma_sq_max
                     * self.moments.ab[1])

    @cached_property
    def propagator(self) -> np.ndarray:
        """P = expm(2 pi A), the (6, 6) one-period propagator in the order
        (a, b, u, v, p, q) (module docstring).  It does not depend on the pump;
        a non-finite P, or a Vb too ill-conditioned to divide by, is refused."""
        S, kappa = self.S, self.kappa
        # three unit oscillators (a, b), (u, v), (p, q), coupled through b and v
        gen = np.kron(np.eye(3), [[0.0, 1.0], [-1.0, 0.0]])
        gen[1, 1], gen[1, 3], gen[3, 1], gen[5, 1] = -2.0 * kappa, 1.0, -S, -1.0
        with np.errstate(all="ignore"):
            P = expm(2.0 * PI * gen)
            cond = np.linalg.cond(P[:2, 2:4]) if np.all(np.isfinite(P)) else np.inf
        if not cond <= _V_COND_MAX:
            raise ValidationError(
                f"synchronization sum S = {S:.3g} with kappa = {kappa:.3g} leaves the "
                "one-period propagator non-finite or its field-from-collective block "
                "singular; lower S or kappa")
        return P

    # the shared kernels of the blocks, as the module docstring names them
    M = property(lambda self: self.propagator[:2, :2])
    v_border = property(lambda self: self.propagator[:2, 2:4])        # Vb
    w_border = property(lambda self: self.propagator[4:, :2])         # Wb
    cross_kernel = property(lambda self: self.propagator[4:, 2:4])    # Xb

    def gamma_detuning(self) -> np.ndarray:
        """Cluster detunings delta_n = 2 pi^2 gamma_n^2 at this pump."""
        return 2.0 * PI ** 2 * (self.pump_factor * self.gamma) ** 2

    @property
    def detuning_max(self) -> float:
        """max_n delta_n, from the moment summary (no pass over molecules)."""
        return 2.0 * PI ** 2 * self.pump_factor ** 2 * self.moments.gamma_sq_max

    def with_pump_factor(self, factor: float) -> "BlockDifferential":
        """The blocks with every gamma_n scaled by ``factor``: O(1), since
        only G and the detunings depend on the pump."""
        return dataclasses.replace(self, pump_factor=self.pump_factor * factor)


def assemble_blocks(e: Ensemble, kappa: float,
                    d_variant: DVariant = "gamma") -> BlockDifferential:
    """Block differential from the ensemble couplings.

    ``d_variant="identity"`` gives the unpumped blocks (D_n = I, G = 0), the
    same as ``with_pump_factor(0.0)``: M, V and W do not depend on gamma.
    """
    if d_variant not in ("identity", "gamma"):
        raise ValidationError(f"unknown d_variant {d_variant!r}")
    bd = BlockDifferential(alpha=e.alpha, beta=e.beta, gamma=e.gamma, kappa=kappa,
                           moments=detuning_moments(e.alpha, e.beta, e.gamma))
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
    for a in range(2):
        for b in range(2):
            out[a, 2 + b::2] = bd.alpha * bd.v_border[a, b]
            out[2 + a::2, b] = bd.beta * bd.w_border[a, b]
    mol = np.arange(2, dim)
    out[mol, mol] = 1.0
    out[mol[1::2], mol[1::2]] -= bd.gamma_detuning()
    cross = np.einsum("i,j,ab->iajb", bd.beta, bd.alpha, bd.cross_kernel)
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
# characteristic polynomial (degree six)
# ---------------------------------------------------------------------------

def char_polynomial_centered(bd: BlockDifferential) -> np.ndarray:
    """Degree-6 polynomial in the shifted variable u = mu - 1.

    Determinant of the collective 4x4 system after clearing the (mu-1)^2
    denominators with the expanded resolvent sums,

        [ A  B ]   A = (M - I) - u I             B = Vb
        [ C  D ],  C = -u^2 R(u) Wb              D = u^2 I - u^2 R(u) Xb,

    with u^2 R = diag(S u, S u - 2 pi^2 G).  The field-row/molecular-column
    block B is constant and invertible (`BlockDifferential.propagator`
    refuses an ill-conditioned one), so det = det(B) det(C - D B^{-1} A),
    a 2x2 determinant of cubics.  Assembled natively in u so the coefficients
    carry the small coupling scales without cancellation (the multipliers sit
    within O(sqrt(S)) of 1).  Descending, monic, length 7; the constant
    coefficient vanishes identically (one exact root at mu = 1, two when all
    gamma_n = 0).  Pumping strong enough that the other coefficients swamp the
    leading one for `poly_roots`, or an S whose coefficients overflow, is
    refused as a ValidationError.
    """
    g = bd.gamma_sq_sum
    B = bd.v_border
    b_inv = np.linalg.inv(B)
    # coefficient matrices, highest power of u first
    r1 = np.diag([bd.S, bd.S])                     # u^2 R = r1 u + r0
    r0 = np.diag([0.0, -2.0 * PI ** 2 * g])
    e1, e0 = -b_inv, b_inv @ (bd.M - np.eye(2))    # B^{-1} A
    d1, d0 = -r1 @ bd.cross_kernel, -r0 @ bd.cross_kernel   # D = u^2 I + d1 u + d0
    schur = np.stack([                             # C - D B^{-1} A, a cubic
        -e1,
        -(e0 + d1 @ e1),
        -r1 @ bd.w_border - (d1 @ e0 + d0 @ e1),
        -r0 @ bd.w_border - d0 @ e0,
    ])
    coeffs = np.linalg.det(B) * (np.convolve(schur[:, 0, 0], schur[:, 1, 1])
                                 - np.convolve(schur[:, 0, 1], schur[:, 1, 0]))
    # each comparison is written so that NaN fails it
    if not abs(coeffs[0] - 1.0) <= 1e-9:
        raise NumericsError("characteristic polynomial did not come out monic degree 6")
    coeffs = coeffs / coeffs[0]
    size = math.hypot(*coeffs)
    if not size < math.inf:
        raise ValidationError(f"synchronization sum S = {bd.S:.3g} puts the characteristic "
                              "polynomial beyond the float range; lower S")
    if not _LEADING_RATIO * size <= 1.0:
        raise ValidationError(
            f"pumping at {bd.pump_factor:.3g} times the medium's pump amplitude lies "
            "beyond the polynomial route's range: max detuning 2 pi^2 gamma_n^2 = "
            f"{bd.detuning_max:.3g}")
    return coeffs


def poly_roots(coeffs: Sequence[float]) -> np.ndarray:
    """Companion-matrix roots refined by one guarded Newton step each."""
    coeffs = np.asarray(coeffs, dtype=complex)
    if coeffs.ndim != 1 or coeffs.size != 7:
        raise ValidationError("expected 7 descending coefficients (degree 6)")
    scale = np.linalg.norm(coeffs)
    if not abs(coeffs[0]) >= _LEADING_RATIO * scale:  # NaN fails too
        raise ValidationError("leading coefficient vanishes: not degree 6")
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
    if worst > 1e-10 * scale * max(1.0, np.max(np.abs(roots)) ** 6):
        raise NumericsError(f"root residual {worst:.2e} too large")
    return roots


# ---------------------------------------------------------------------------
# eigenvectors and the verdict
# ---------------------------------------------------------------------------

def _null_direction(mu: complex, bd: BlockDifferential):
    """(v0, rhs) at a root of det M(mu).

    v0 is the unit near-null vector of the reduced 2x2; the molecular parts of
    the eigenvector are beta_n rhs_0/(mu - 1) and beta_n rhs_1/(mu - 1 +
    delta_n), with rhs = Wb v0 + Xb Y and Y the collective alpha-weighted
    response.
    """
    red, R, core = _eliminate(mu, bd)
    _, sing, vh = np.linalg.svd(red)
    if sing[1] > _NULL_TOL * max(sing[0], 1e-30):
        raise NumericsError(
            f"mu = {mu} is not an eigenvalue: reduced matrix well conditioned")
    v0 = vh[1].conj()
    wb_v0 = bd.w_border @ v0
    return v0, wb_v0 + bd.cross_kernel @ np.linalg.solve(core, R @ wb_v0)


def eigvec_back_substitute(mu: complex, bd: BlockDifferential) -> np.ndarray:
    """Unit eigenvector of the block matrix at a root of det M(mu).

    The molecular parts follow from v_n = (mu - D_n)^{-1} beta_n (Wb v0 +
    Xb Y) (see `_null_direction`).  The Maxwell component v0 never vanishes
    for roots of the reduced determinant.
    """
    v0, rhs = _null_direction(mu, bd)
    det = bd.gamma_detuning()
    u = mu - 1.0
    vec = np.empty(2 + 2 * bd.n, dtype=complex)
    vec[:2] = v0
    vec[2::2] = bd.beta * rhs[0] / u
    vec[3::2] = bd.beta * rhs[1] / (u + det)
    return vec / np.linalg.norm(vec)


def _maxwell_component(mu: complex, bd: BlockDifferential) -> float:
    """|(a, b)-part| of the unit eigenvector at a root, from the moment sums.

    Equals ``norm(eigvec_back_substitute(mu, bd)[:2])`` without building the
    2N+2 vector: with |v0| = 1 the squared norm of the unnormalized vector is
    1 + |rhs_0|^2 sum beta_n^2/|u|^2 + |rhs_1|^2 sum beta_n^2/|u + delta_n|^2.
    """
    v0, rhs = _null_direction(mu, bd)
    u = mu - 1.0
    mol = (abs(rhs[0]) ** 2 * bd.moments.bb[0] / abs(u) ** 2
           + abs(rhs[1]) ** 2 * _detuned_norm_sum(u, bd))
    return float(1.0 / np.sqrt(1.0 + mol))


@dataclass(frozen=True)
class SpectrumReport:
    """Multipliers and the parametric-resonance verdict."""

    multipliers: np.ndarray
    max_abs_mu: float
    #: max |mu| outside the cluster guard (NaN if none); ``max_abs_mu`` also
    #: counts the polynomial route's cluster roots, as |mu| = 1
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


def _refine_root_exact(mu: complex, bd: BlockDifferential) -> complex:
    """Newton-polish a root of the expanded polynomial against the exact-sum
    reduced determinant in three steps (removes the Laurent-expansion bias at
    larger gamma)."""
    for _ in range(3):
        f = np.linalg.det(reduced_matrix(mu, bd))
        h = 1e-7 * (abs(mu - 1.0) + 1e-9)
        fp = np.linalg.det(reduced_matrix(mu + h, bd))
        deriv = (fp - f) / h
        if abs(deriv) < 1e-30:
            break
        step = f / deriv
        if abs(step) > 0.5 * (abs(mu - 1.0) + 1e-9):
            break
        mu = mu - step
    return mu


def cluster_guard(bd: BlockDifferential, factor: float = 10.0) -> float:
    """Radius around mu = 1 where the Laurent-expanded polynomial is not a
    valid description (molecular cluster zone)."""
    return factor * max(bd.detuning_max, 1e-12)


def _polynomial_spectrum(bd: BlockDifferential):
    """Roots of the degree-6 polynomial with per-root Maxwell components.

    Roots inside the cluster guard are expansion artifacts standing in for
    the molecular cluster (true cluster multipliers lie in the hull between
    1 - 2 pi^2 gamma_n^2 and 1); they are reported but carry no eigvector and
    do not enter the verdict.  Valid roots are polished against the exact-sum
    determinant; their Maxwell components come from the moment sums, so no
    eigenvector is built.
    """
    roots = 1.0 + poly_roots(char_polynomial_centered(bd))
    comps = np.full(roots.shape, np.nan)
    valid = np.zeros(roots.shape, dtype=bool)
    guard = cluster_guard(bd)
    for i, r in enumerate(roots):
        if abs(r - 1.0) <= guard:
            continue
        r = _refine_root_exact(r, bd)
        roots[i] = r
        valid[i] = True
        try:
            comps[i] = _maxwell_component(r, bd)
        except NumericsError:
            pass    # not a clean null direction: the component stays NaN
    return roots, comps, valid


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
        # cluster roots stand in for multipliers bounded by |mu| <= 1 exactly
        max_mu = float(max(np.max(np.abs(mult[valid]), initial=0.0),
                           1.0 if not valid.all() else 0.0))
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
    sampled medium is held fixed.  The blocks and their moment summary are
    assembled once, and each grid point only rescales the pump-dependent
    scalars, so a point costs O(1) in N.
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
