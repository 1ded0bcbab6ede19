"""Multiplier spectrum of the period-map differential at the ground state.

The differential has a bordered block structure in the reduced coordinates
(a, b, Re z_1, Im z_1, ...):

    [ M    V_1 ... V_N ]        M   = (1 - 2 pi kappa) I + S m
    [ W_1  D_1+X_11 ...]        V_n = +pi alpha_n K
    [ ...       ...    ]        W_n = beta_n Wb,  Wb = -pi K + S * dressing
    [ W_N  ...  D_N+X_NN]       X_nn' = beta_n alpha_n' m

with K = [[1-kappa pi, kappa/2], [-kappa/2, 1-kappa pi]], S = sum alpha_n
beta_n, and m the real representation of the one-period response coefficient
xi = -pi^2/2 - i pi/4 (kernels.RESPONSE_XI).  D_n is the local molecular
propagator block: the identity, or diag(1, 1 - delta_n) with the
second-order pumping correction delta_n = 2 pi^2 gamma_n^2.  Every block is
pinned against the finite-difference Jacobian of the numerically integrated
period map.  The blocks are kept as the per-molecule scalars times the shared
2x2 kernels; the (N, 2, 2) arrays are built only for dense assembly.

Eliminating the molecular rows reduces the eigenproblem to a 2x2 family

    M(mu) = (M - mu) + pi K (I - R(mu) m)^{-1} R(mu) Wb,
    R(mu) = diag( S/(mu-1),  sum_n alpha_n beta_n / (mu - 1 + delta_n) ),

whose determinant, cleared of the (mu-1)^2 denominators using the expansion
sum_n alpha_n beta_n/(mu-1+delta_n) ~ S/(mu-1) - 2 pi^2 G/(mu-1)^2
(G = sum alpha_n beta_n gamma_n^2), is a degree-six polynomial.  One root
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
from dataclasses import dataclass, field
from typing import List, Literal, Optional, Sequence

import numpy as np

from .ensemble import Ensemble
from .errors import CapacityError, NumericsError, ValidationError
from .kernels import border_dressing, response_kernel

PI = np.pi
DENSE_CAP = 500

DVariant = Literal["identity", "gamma"]
Method = Literal["polynomial", "dense", "both"]
VERDICT_TOL = 1e-9  # roundoff guard on the strict max|mu| > 1 comparison

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


def coupling_matrix(kappa: float) -> np.ndarray:
    """The 2x2 kernel K shared by the V and W borders."""
    return np.array([[1.0 - kappa * PI, kappa / 2.0],
                     [-kappa / 2.0, 1.0 - kappa * PI]])


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
    `Ensemble.sum_alpha_beta`, so M and the dense route do not move.
    """
    g2_max = float(np.max(np.abs(gamma), initial=0.0)) ** 2
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
    pi alpha_n K, W_n = beta_n w_border, D_n = diag(1, 1 - delta_n)); the
    (N, 2, 2) arrays ``V``, ``W`` and ``D`` are built on demand.  S and G are
    read off the moment summary, so rescaling the pump changes only
    ``pump_factor``.
    """

    M: np.ndarray              # (2, 2)
    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    kappa: float
    d_variant: DVariant
    moments: DetuningMoments
    pump_factor: float = 1.0
    cross_kernel: np.ndarray = field(default_factory=response_kernel)  # m (2, 2)
    w_border: Optional[np.ndarray] = None   # shared 2x2: W_n = beta_n * w_border

    def __post_init__(self):
        if self.w_border is None:
            object.__setattr__(self, "w_border", -PI * coupling_matrix(self.kappa))

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

    @property
    def V(self) -> np.ndarray:
        return PI * self.alpha[:, None, None] * coupling_matrix(self.kappa)[None, :, :]

    @property
    def W(self) -> np.ndarray:
        return self.beta[:, None, None] * self.w_border[None, :, :]

    @property
    def D(self) -> np.ndarray:
        d = np.tile(np.eye(2), (self.n, 1, 1))
        d[:, 1, 1] -= self.gamma_detuning()
        return d

    def gamma_detuning(self) -> np.ndarray:
        """Cluster detunings 2 pi^2 gamma_n^2 (zero in the identity variant)."""
        if self.d_variant == "identity":
            return np.zeros(self.n)
        return 2.0 * PI ** 2 * (self.pump_factor * self.gamma) ** 2

    @property
    def detuning_max(self) -> float:
        """max_n delta_n, from the moment summary (no pass over molecules)."""
        if self.d_variant == "identity":
            return 0.0
        return 2.0 * PI ** 2 * self.pump_factor ** 2 * self.moments.gamma_sq_max

    def with_pump_factor(self, factor: float) -> "BlockDifferential":
        """The blocks with every gamma_n scaled by ``factor``: O(1), since
        only G and the detunings depend on the pump."""
        return dataclasses.replace(self, pump_factor=self.pump_factor * factor)


def assemble_blocks(e: Ensemble, kappa: float,
                    d_variant: DVariant = "gamma") -> BlockDifferential:
    """Block differential from the ensemble couplings.

    The molecular border carries the collective dressing
    W_n = beta_n (-pi K + S * border_dressing()); the dressing is O(S)
    relative but matters for entrywise comparison with the FD Jacobian.
    """
    if d_variant not in ("identity", "gamma"):
        raise ValidationError(f"unknown d_variant {d_variant!r}")
    moments = detuning_moments(e.alpha, e.beta, e.gamma)
    s_sum = moments.ab[0]
    M = (1.0 - 2.0 * PI * kappa) * np.eye(2) + s_sum * response_kernel()
    w_border = -PI * coupling_matrix(kappa) + s_sum * border_dressing()
    return BlockDifferential(
        M=M, alpha=e.alpha, beta=e.beta, gamma=e.gamma,
        kappa=kappa, d_variant=d_variant, moments=moments, w_border=w_border,
    )


def assemble_full(bd: BlockDifferential,
                  variant: Literal["full", "triangle"] = "full") -> np.ndarray:
    """Dense (2N+2)^2 differential; triangle variant drops the field-mediated
    feedback onto molecules (V and the cross blocks), making the spectrum
    eig(M) union eig(D_n) exactly."""
    n = bd.n
    if n > DENSE_CAP:
        raise CapacityError(
            f"dense assembly capped at N = {DENSE_CAP}; use the polynomial path")
    dim = 2 + 2 * n
    out = np.zeros((dim, dim))
    out[:2, :2] = bd.M
    V, W, D = bd.V, bd.W, bd.D
    for i in range(n):
        r = 2 + 2 * i
        out[r:r + 2, :2] = W[i]
        out[r:r + 2, r:r + 2] = D[i]
        if variant == "full":
            out[:2, r:r + 2] = V[i]
    if variant == "full":
        cross = np.einsum("i,j,ab->iajb", bd.beta, bd.alpha, bd.cross_kernel)
        out[2:, 2:] += cross.reshape(2 * n, 2 * n)
    elif variant != "triangle":
        raise ValidationError(f"unknown variant {variant!r}")
    return out


# ---------------------------------------------------------------------------
# reduced 2x2 family
# ---------------------------------------------------------------------------

def _detuned_sum(u: complex, bd: BlockDifferential) -> complex:
    """sum_n alpha_n beta_n / (u + delta_n): the Laurent series in the moments
    where it converges to roundoff, else the direct per-molecule sum.  The
    k = 0 term is S itself, the sum the expanded route and M use."""
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


def _resolvent_sums(mu: complex, bd: BlockDifferential,
                    method: Literal["exact", "expanded"]) -> np.ndarray:
    """R(mu) = sum_n alpha_n beta_n (mu - D_n)^{-1}, a diagonal 2x2."""
    u = mu - 1.0
    if abs(u) < 1e-13:
        raise NumericsError("mu sits on a pole of the resolvent sums")
    if method == "exact":
        t = _detuned_sum(u, bd)
    elif method == "expanded":
        g = bd.gamma_sq_sum if bd.d_variant == "gamma" else 0.0
        t = bd.S / u - 2.0 * PI ** 2 * g / u ** 2
    else:
        raise ValidationError(f"unknown method {method!r}")
    return np.array([[bd.S / u, 0.0], [0.0, t]], dtype=complex)


def reduced_matrix(mu: complex, bd: BlockDifferential,
                   method: Literal["exact", "expanded"] = "exact") -> np.ndarray:
    """The 2x2 family whose singular points are the nontrivial multipliers.

    Eliminating the molecular rows of the block eigenproblem gives
        M(mu) = (M - mu) + pi K (I - R m)^{-1} R Wb,
    Wb the shared border factor (W_n = beta_n Wb).  ``exact`` keeps the
    full resolvent sum (its moment series, or the per-molecule sum near the
    cluster); ``expanded`` replaces it by its two-term Laurent expansion in
    1/(mu-1), valid where 2 pi^2 gamma_n^2/|mu-1| is small.
    """
    R = _resolvent_sums(mu, bd, method)
    m = bd.cross_kernel.astype(complex)
    K = coupling_matrix(bd.kappa).astype(complex)
    core = np.eye(2, dtype=complex) - R @ m
    if abs(np.linalg.det(core)) < 1e-14 * max(1.0, np.linalg.norm(core) ** 2):
        raise NumericsError("reduced matrix singular: mu at a dressed cluster pole")
    wb = bd.w_border.astype(complex)
    return (bd.M.astype(complex) - mu * np.eye(2)
            + PI * K @ np.linalg.solve(core, R @ wb))


# ---------------------------------------------------------------------------
# characteristic polynomial (degree six)
# ---------------------------------------------------------------------------

def _poly_mul(p, q):
    return np.convolve(p, q)


def _poly_add(p, q):
    n = max(len(p), len(q))
    out = np.zeros(n)
    out[n - len(p):] += p
    out[n - len(q):] += q
    return out


def _det_poly(entries) -> np.ndarray:
    """Determinant of a 4x4 matrix of polynomials (descending coefficients)."""
    import itertools

    total = np.zeros(1)
    for perm in itertools.permutations(range(4)):
        sign = 1
        seen = list(perm)
        for i in range(4):      # permutation parity by counting inversions
            for j in range(i + 1, 4):
                if seen[i] > seen[j]:
                    sign = -sign
        term = np.array([float(sign)])
        for row in range(4):
            term = _poly_mul(term, entries[row][perm[row]])
        total = _poly_add(total, term)
    return total


def char_polynomial_centered(bd: BlockDifferential) -> np.ndarray:
    """Degree-6 polynomial in the shifted variable u = mu - 1.

    Determinant of the collective 4x4 system after clearing the (mu-1)^2
    denominators with the expanded resolvent sums; assembled natively in u so
    the coefficients carry the small coupling scales without cancellation
    (the multipliers sit within O(sqrt(S)) of 1).  Descending, monic,
    length 7; the constant coefficient vanishes identically (one exact root
    at mu = 1, two when all gamma_n = 0).
    """
    m = bd.cross_kernel
    K = coupling_matrix(bd.kappa)
    g = bd.gamma_sq_sum if bd.d_variant == "gamma" else 0.0

    # polynomials in u, descending coefficients
    one = np.array([1.0])
    u2 = np.array([1.0, 0.0, 0.0])

    # u^2 R = diag(S u, S u - 2 pi^2 G)
    r11 = np.array([bd.S, 0.0])
    r22 = np.array([bd.S, -2.0 * PI ** 2 * g])

    m_shift = bd.M - np.eye(2)            # M - I, carries the S and kappa scales
    entries = [[None] * 4 for _ in range(4)]
    # field rows: ((M - I) - u) v0 + pi K P = 0
    for i in range(2):
        for j in range(2):
            p = np.array([m_shift[i, j]])
            if i == j:
                p = _poly_add(p, np.array([-1.0, 0.0]))
            entries[i][j] = p
            entries[i][2 + j] = PI * K[i, j] * one
    # molecular rows: -u^2 R Wb v0 + (u^2 I - u^2 R m) P = 0
    wb = bd.w_border
    rdiag = (r11, r22)
    for i in range(2):
        for j in range(2):
            entries[2 + i][j] = -wb[i, j] * rdiag[i]
            p = -m[i, j] * rdiag[i]
            if i == j:
                p = _poly_add(p, u2)
            entries[2 + i][2 + j] = p

    coeffs = _det_poly(entries)
    if len(coeffs) != 7:
        coeffs = np.concatenate([np.zeros(7 - len(coeffs)), coeffs])
    if abs(coeffs[0] - 1.0) > 1e-9:
        raise NumericsError("characteristic polynomial did not come out monic degree 6")
    return coeffs / coeffs[0]


def char_polynomial(bd: BlockDifferential) -> np.ndarray:
    """Degree-6 coefficients in the multiplier itself (descending, monic).

    Reporting form of `char_polynomial_centered`; root finding should use the
    centered coefficients, which are far better conditioned near mu = 1.
    """
    centered = char_polynomial_centered(bd)
    out = np.zeros(7)
    # substitute u = mu - 1: binomial expansion of each power
    from math import comb
    for i, c in enumerate(centered):
        k = 6 - i                      # power of u
        for j in range(k + 1):
            out[6 - j] += c * comb(k, j) * (-1.0) ** (k - j)
    return out / out[0]


def poly_roots(coeffs: Sequence[float]) -> np.ndarray:
    """Companion-matrix roots refined by one guarded Newton step each."""
    coeffs = np.asarray(coeffs, dtype=complex)
    if coeffs.ndim != 1 or coeffs.size != 7:
        raise ValidationError("expected 7 descending coefficients (degree 6)")
    scale = np.linalg.norm(coeffs)
    if abs(coeffs[0]) < 1e-12 * scale:
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

def _null_direction(mu: complex, bd: BlockDifferential, null_tol: float):
    """(v0, rhs) at a root of det M(mu).

    v0 is the unit near-null vector of the reduced 2x2; the molecular parts of
    the eigenvector are beta_n rhs_0/(mu - 1) and beta_n rhs_1/(mu - 1 +
    delta_n), with rhs = Wb v0 + m P and P the collective alpha-weighted
    response.
    """
    red = reduced_matrix(mu, bd, method="exact")
    _, sing, vh = np.linalg.svd(red)
    if sing[1] > null_tol * max(sing[0], 1e-30):
        raise NumericsError(
            f"mu = {mu} is not an eigenvalue: reduced matrix well conditioned")
    v0 = vh[1].conj()

    R = _resolvent_sums(mu, bd, "exact")
    m = bd.cross_kernel.astype(complex)
    wb = bd.w_border.astype(complex)
    core = np.eye(2, dtype=complex) - R @ m
    P = np.linalg.solve(core, R @ (wb @ v0))
    return v0, wb @ v0 + m @ P


def eigvec_back_substitute(mu: complex, bd: BlockDifferential,
                           null_tol: float = _NULL_TOL) -> np.ndarray:
    """Unit eigenvector of the block matrix at a root of det M(mu).

    The molecular parts follow from v_n = (mu - D_n)^{-1} beta_n (-pi K v0 +
    m P) (see `_null_direction`).  The Maxwell component v0 never vanishes
    for roots of the reduced determinant.
    """
    v0, rhs = _null_direction(mu, bd, null_tol)
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
    v0, rhs = _null_direction(mu, bd, _NULL_TOL)
    u = mu - 1.0
    mol = (abs(rhs[0]) ** 2 * bd.moments.bb[0] / abs(u) ** 2
           + abs(rhs[1]) ** 2 * _detuned_norm_sum(u, bd))
    return float(1.0 / np.sqrt(1.0 + mol))


@dataclass(frozen=True)
class SpectrumReport:
    """Multipliers and the parametric-resonance verdict."""

    multipliers: np.ndarray
    max_abs_mu: float
    resonance: bool
    maxwell_components: np.ndarray   # |(a,b)-part| per reported eigenvector
    polynomial_roots: Optional[np.ndarray]
    method: Method
    cross_discrepancy: Optional[float] = None
    roots_near_one: int = 0

    @property
    def maxwell_floor(self) -> float:
        vals = self.maxwell_components[np.isfinite(self.maxwell_components)]
        return float(np.min(vals)) if vals.size else np.nan


def _refine_root_exact(mu: complex, bd: BlockDifferential,
                       steps: int = 3) -> complex:
    """Newton-polish a root of the expanded polynomial against the exact-sum
    reduced determinant (removes the Laurent-expansion bias at larger gamma)."""
    for _ in range(steps):
        f = np.linalg.det(reduced_matrix(mu, bd, method="exact"))
        h = 1e-7 * (abs(mu - 1.0) + 1e-9)
        fp = np.linalg.det(reduced_matrix(mu + h, bd, method="exact"))
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


def resonance_verdict(bd: BlockDifferential, method: Method = "polynomial",
                      verdict_tol: float = VERDICT_TOL) -> SpectrumReport:
    """Multipliers by the requested route(s) and the max|mu| > 1 verdict.

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
        near_one = int(np.sum(~valid))
    elif method == "dense":
        mult, comps = _dense_spectrum(bd)
        proots = None
        max_mu = float(np.max(np.abs(mult)))
        near_one = int(np.sum(np.abs(mult - 1.0) <= cluster_guard(bd)))
    elif method == "both":
        proots, _, pvalid = _polynomial_spectrum(bd)
        mult, comps = _dense_spectrum(bd)
        guard = cluster_guard(bd, factor=100.0)
        outside = mult[np.abs(mult - 1.0) > guard]
        cross = 0.0
        for mu in outside:
            cross = max(cross, float(np.min(np.abs(proots - mu))))
        max_mu = float(np.max(np.abs(mult)))
        near_one = int(np.sum(np.abs(mult - 1.0) <= cluster_guard(bd)))
    else:
        raise ValidationError(f"unknown method {method!r}")

    return SpectrumReport(
        multipliers=mult, max_abs_mu=max_mu,
        resonance=bool(max_mu > 1.0 + verdict_tol),
        maxwell_components=comps,
        polynomial_roots=proots, method=method, cross_discrepancy=cross,
        roots_near_one=near_one,
    )


@dataclass(frozen=True)
class ThresholdPoint:
    pump_amplitude: float
    max_abs_mu: float
    resonance: bool
    maxwell_floor: float


def threshold_scan(e: Ensemble, kappa: float, pump_grid: Sequence[float],
                   d_variant: DVariant = "gamma",
                   verdict_tol: float = VERDICT_TOL) -> List[ThresholdPoint]:
    """Sweep the pumping amplitude and record the polynomial verdict at each
    point.

    gamma_n scales linearly with the pump amplitude; everything else of the
    sampled medium is held fixed.  The blocks and their moment summary are
    assembled once, and each grid point only rescales the pump-dependent
    scalars, so a point costs O(1) in N.
    """
    base = assemble_blocks(e, kappa, d_variant=d_variant)
    points = []
    for ap in pump_grid:
        bd = base.with_pump_factor(e.pump_factor(float(ap)))
        rep = resonance_verdict(bd, verdict_tol=verdict_tol)
        points.append(ThresholdPoint(
            pump_amplitude=float(ap), max_abs_mu=rep.max_abs_mu,
            resonance=rep.resonance, maxwell_floor=rep.maxwell_floor))
    return points
