"""Acceptance suite: every criterion as a callable returning pass/fail.

Each criterion carries its tolerance inline; the pytest acceptance module and
the ``verify-all`` CLI subcommand both run these.  Runtimes are kept within
the budgets stated alongside (seconds to a couple of minutes each).
"""
from __future__ import annotations

import dataclasses
import sys
import time
from dataclasses import dataclass
from typing import Callable, List, Sequence

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from . import kernels
from .dynamics import TWO_PI, OdeSettings, gauge_rotate, sample_trajectory
from .ensemble import (_sample_geometry, analytic_s_for_count, sample_ensemble,
                       sum_S, sum_Sigma)
from .errors import NumericsError
from .model import (DimensionlessParams, ReducedState, derive_dimensionless,
                    ground_state, hopf_project, lift_state, perturbed_point,
                    ruby_params)
from .poincare import (compute_nu, jacobian_fd, make_numeric_map,
                       poincare_analytic, poincare_numeric)
from .spectrum import (assemble_blocks, assemble_full, char_polynomial_centered,
                       cluster_guard, eigvec_back_substitute, poly_roots,
                       threshold_scan)

#: one-shot calibration of the analytic-vs-numeric map bound (criterion 5);
#: measured max discrepancy ~1.4e-9 against a bound scale of ~1.0e-8.
MAP_EQUIV_C = 10.0


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str


#: the standard working damping of the desk media
DESK_KAPPA = 1e-7


def desk_params(n: int) -> DimensionlessParams:
    """Ruby coupling scales with the desk damping `DESK_KAPPA`."""
    base = derive_dimensionless(ruby_params(), n_override=n)
    return dataclasses.replace(base, kappa=DESK_KAPPA)


def desk_ensemble(n: int, seed: int = 7):
    """H1 desk medium with alpha rescaled to S = 1e-5."""
    return sample_ensemble(desk_params(n), "H1", seed, rescale_alpha_to_s=1e-5)


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def gap_rows(closed: dict, oracle: dict, tol: float) -> List[dict]:
    """One row per closed form: its value, the oracle's, their gap and
    whether the gap is within ``tol``."""
    return [{"name": name, "closed": complex(val), "oracle": complex(oracle[name]),
             "abs_gap": abs(val - oracle[name]), "tol": tol,
             "pass": bool(abs(val - oracle[name]) <= tol)}
            for name, val in closed.items()]


def ab_gap_table(kappa: float) -> List[dict]:
    """A1..B3 closed forms against their quadrature oracle, passing within
    10 kappa^2 + 1e-10."""
    kc = kernels.constants_AB(kappa)
    closed = {name: getattr(kc, name) for name in ("A1", "A2", "A3", "B1", "B2", "B3")}
    return gap_rows(closed, kernels.constants_AB_oracle(kappa), 10.0 * kappa ** 2 + 1e-10)


def criterion_1_integral_constants() -> CriterionResult:
    """J1/J2 at kappa=1e-7; A/B closed forms vs quadrature at 1e-5, 1e-3."""
    j1, j2 = kernels.constants_J(1e-7)
    ok = abs(j1) <= 1e-6 and abs(j2 - np.pi ** 2 / 12.0) <= 1e-6
    details = [f"|J1|={abs(j1):.2e} |J2-pi^2/12|={abs(j2 - np.pi**2/12):.2e}"]
    for kap in (1e-3, 1e-5):
        rows = ab_gap_table(kap)
        ok = ok and all(r["pass"] for r in rows)
        details.append(f"kappa={kap}: max gap {max(r['abs_gap'] for r in rows):.2e} "
                       f"(tol {rows[0]['tol']:.2e})")
    return CriterionResult(1, "integral constants vs oracle", ok,
                           "; ".join(details))


def criterion_2_fundamental_solution() -> CriterionResult:
    """ODE residual <= 1e-12 at 100 random points; the leading form
    e^{-k tau} sin(tau) within 10 k^2 of the exact one."""
    rng = np.random.default_rng(11)
    taus = rng.uniform(1e-3, TWO_PI, 100)
    kaps = rng.uniform(0.0, 1e-2, 100)
    worst_res = max(abs(kernels.residual_of_ode(t, k)) for t, k in zip(taus, kaps))
    ok = worst_res <= 1e-12
    worst_gap_rel = 0.0
    grid = np.linspace(1e-6, TWO_PI, 200)
    for kap in (1e-7, 1e-5, 1e-4, 1e-3):
        gap = np.max(np.abs(kernels.fundamental_solution(grid, kap)
                            - np.exp(-kap * grid) * np.sin(grid)))
        ok = ok and gap <= 10.0 * kap ** 2
        worst_gap_rel = max(worst_gap_rel, gap / kap ** 2)
    detail = f"max residual {worst_res:.2e}; max gap {worst_gap_rel:.2f} kappa^2"
    return CriterionResult(2, "fundamental solution", ok, detail)


def profile_pump_cosine(tau: float) -> np.ndarray:
    """The pumping generator shape cos(tau) e^{-i tau} (non-commuting)."""
    c = np.cos(tau)
    return np.array([[0.0, c * np.exp(-1j * tau)],
                     [c * np.exp(1j * tau), 0.0]], dtype=complex)


def profile_rotating(tau: float) -> np.ndarray:
    return np.array([[0.0, np.exp(-1j * tau)], [np.exp(1j * tau), 0.0]], dtype=complex)


def averaging_slope(profile: Callable[[float], np.ndarray],
                    eps_grid: Sequence[float]) -> float:
    """Log-log slope of |c(2 pi) - c_avg(2 pi)| against the generator size eps.

    For each eps, c' = -i eps profile(tau) c is integrated over one period
    from c = (1, 0) and compared with the flow of the period-averaged
    generator, which is constant and so is the matrix exponential; slow
    rotations predict slope 2.  eps values whose error falls below the 1e-13
    integrator floor are dropped.
    """
    avg = np.mean([profile(t) for t in np.linspace(0.0, TWO_PI, 801)[:-1]], axis=0)
    y0 = np.array([1.0, 0.0], dtype=complex)
    kept, errs = [], []
    for eps in eps_grid:
        sol = solve_ivp(lambda tau, c, _e=eps: -1j * _e * (profile(tau) @ c),
                        (0.0, TWO_PI), y0, method="DOP853", rtol=1e-13, atol=1e-13)
        if not sol.success:
            raise NumericsError("averaging check integration failed")
        err = float(np.linalg.norm(sol.y[:, -1] - expm(-1j * eps * TWO_PI * avg) @ y0))
        if err > 1e-13:
            kept.append(eps)
            errs.append(err)
    if len(kept) < 2:
        raise NumericsError("all averaging errors below the noise floor")
    return float(np.polyfit(np.log(kept), np.log(errs), 1)[0])


def criterion_3_averaging_lemma() -> CriterionResult:
    """Endpoint averaging error scales as eps^2 for both test profiles."""
    eps = np.geomspace(1e-4, 1e-1, 7)
    s1 = averaging_slope(profile_pump_cosine, eps)
    s2 = averaging_slope(profile_rotating, eps)
    ok = abs(s1 - 2.0) <= 0.1 and abs(s2 - 2.0) <= 0.1
    return CriterionResult(3, "averaging error exponent", ok,
                           f"slopes {s1:.3f}, {s2:.3f}")


def criterion_4_conservation_gauge() -> CriterionResult:
    """Norm conservation and gauge equivariance over one period at N=1e3."""
    e = desk_ensemble(1000)
    settings = OdeSettings(rel_tol=1e-10, abs_tol=1e-12)
    state0 = lift_state(perturbed_point(e.n, 1e-2, np.random.default_rng(3)))

    taus = np.linspace(0.0, TWO_PI, 33)
    drift = 0.0
    for _, state in sample_trajectory(state0, taus, e, DESK_KAPPA, settings):
        drift = max(drift, float(np.max(np.abs(state.norms() - 1.0))))
    ok = drift <= 1e-8

    base = poincare_numeric(state0, e, DESK_KAPPA, settings)
    worst_gauge = 0.0
    rng = np.random.default_rng(5)
    for _ in range(3):
        theta = rng.uniform(0.0, 2 * np.pi, e.n)
        rot = poincare_numeric(gauge_rotate(state0, theta), e, DESK_KAPPA, settings)
        worst_gauge = max(worst_gauge, abs(rot.a - base.a), abs(rot.b - base.b))
        ok = ok and worst_gauge <= 1e-8
    detail = f"norm drift {drift:.2e}; gauge (a,b) gap {worst_gauge:.2e}"
    return CriterionResult(4, "conservation and gauge", ok, detail)


def criterion_5_map_equivalence() -> CriterionResult:
    """Analytic second-order map vs numeric map on 50 small perturbations."""
    e = desk_ensemble(1000)
    eps = 1e-4
    settings = OdeSettings(rel_tol=1e-11, abs_tol=1e-13)
    om_max = float(np.max(np.abs(e.beta * compute_nu(eps, eps, e, DESK_KAPPA,
                                                     np.zeros(e.n))
                                 + e.gamma / 2.0)))
    bound = MAP_EQUIV_C * (eps ** 2 + om_max ** 2)
    worst = 0.0
    for trial in range(50):
        state0 = lift_state(perturbed_point(e.n, eps, np.random.default_rng(100 + trial)))
        z0 = hopf_project(state0.c)
        numeric = poincare_numeric(state0, e, DESK_KAPPA, settings)
        analytic = poincare_analytic(state0.a, state0.b, z0, e, DESK_KAPPA)
        worst = max(worst, numeric.distance(analytic))
    ok = worst <= bound
    return CriterionResult(5, "analytic vs numeric period map", ok,
                           f"max discrepancy {worst:.2e} vs bound {bound:.2e}")


def criterion_6_differential_oracle() -> CriterionResult:
    """FD Jacobian of the numeric map matches the block differential, N=50."""
    e = desk_ensemble(50)
    settings = OdeSettings(rel_tol=1e-12, abs_tol=1e-13)
    pmap = make_numeric_map(e, DESK_KAPPA, settings)
    h = 1e-5
    jac = jacobian_fd(pmap, np.zeros(2 + 2 * e.n), h=h)
    analytic = assemble_full(assemble_blocks(e, DESK_KAPPA))
    scale = float(np.max(np.abs(analytic)))
    tol = max(10.0 * h ** 2, 1e-6 * scale)
    gap = float(np.max(np.abs(jac - analytic)))
    ok = gap <= tol
    return CriterionResult(6, "FD Jacobian vs block differential", ok,
                           f"max entry gap {gap:.2e} vs tol {tol:.2e}")


def criterion_7_spectrum_reduction() -> CriterionResult:
    """Dense eigenvalues vs degree-4 roots; eigenvector residuals, N=100."""
    ok = True
    worst_match = 0.0
    worst_res = 0.0
    min_maxwell = np.inf
    for seed in range(5):
        e = desk_ensemble(100, seed=20 + seed)
        bd = assemble_blocks(e, DESK_KAPPA)
        full = assemble_full(bd)
        dense = np.linalg.eigvals(full)
        roots = 1.0 + poly_roots(char_polynomial_centered(bd))
        guard = cluster_guard(bd, factor=100.0)
        outside = dense[np.abs(dense - 1.0) > guard]
        for mu in outside:
            worst_match = max(worst_match, float(np.min(np.abs(roots - mu))))
        ok = ok and worst_match <= 1e-6
        for mu in roots:    # at this pump every root of the quartic is collective
            vec = eigvec_back_substitute(mu, bd)
            res = float(np.linalg.norm(full @ vec - mu * vec))
            mx = float(np.linalg.norm(vec[:2]))
            worst_res = max(worst_res, res)
            min_maxwell = min(min_maxwell, mx)
        ok = ok and worst_res <= 1e-6 and min_maxwell > 0.0
    detail = (f"max dense-root gap {worst_match:.2e}; max residual "
              f"{worst_res:.2e}; min Maxwell comp {min_maxwell:.2e}")
    return CriterionResult(7, "spectrum reduction to degree four", ok, detail)


def criterion_8_ensemble_statistics() -> CriterionResult:
    """Sphere moments and collective sums at N=1e5; ruby-scale S."""
    params = ruby_params()
    # active region = whole cavity: the mode second moments are then exact,
    # so the 3-SE checks probe the formula constants, not ergodicity
    e = sample_ensemble(params, "H1", seed=4, n=100_000,
                        active_volume=params.cavity_volume)
    # the same draws again, for the dipole directions the ensemble reduced
    _, dirs, _ = _sample_geometry(4, e.n, params.cavity_dims,
                                  params.cavity_volume, "H1")
    p2 = params.dipole_magnitude ** 2

    def within_3se(samples, target):
        m = float(np.mean(samples))
        se = float(np.std(samples, ddof=1) / np.sqrt(samples.size))
        return abs(m - target) <= 3.0 * se, abs(m - target) / max(se, 1e-300)

    ok1, d1 = within_3se(p2 * dirs[:, 0] ** 2, p2 / 3.0)
    ok2, d2 = within_3se(p2 ** 2 * dirs[:, 0] ** 2 * dirs[:, 1] ** 2, p2 ** 2 / 15.0)
    ok3, d3 = within_3se(p2 ** 2 * dirs[:, 0] ** 4, p2 ** 2 / 5.0)

    s_rep = sum_S(e)
    sig_rep = sum_Sigma(e)
    ok4 = s_rep.deviation_in_se <= 3.0
    ok5 = sig_rep.deviation_in_se <= 3.0

    s_full = analytic_s_for_count(params)
    ok6 = 1e-6 <= s_full <= 1e-4
    ok = ok1 and ok2 and ok3 and ok4 and ok5 and ok6
    detail = (f"moment dev/SE {d1:.2f},{d2:.2f},{d3:.2f}; S {s_rep.deviation_in_se:.2f} SE"
              f" (ratio {s_rep.ratio:.4f}); Sigma {sig_rep.deviation_in_se:.2f} SE"
              f" (ratio {sig_rep.ratio:.4f}); S(1e20)={s_full:.2e}")
    return CriterionResult(8, "ensemble statistics", ok, detail)


def criterion_9_ground_state_fixed_point() -> CriterionResult:
    """Zero pumping: the ground state is a fixed point of both maps."""
    params = dataclasses.replace(desk_params(200), gamma_scale=0.0)
    e = sample_ensemble(params, "H1", seed=4, rescale_alpha_to_s=1e-5)
    ground = ReducedState(a=0.0, b=0.0, z=np.zeros(e.n))
    num_gap = poincare_numeric(ground_state(e.n), e, DESK_KAPPA, OdeSettings(
        rel_tol=1e-11, abs_tol=1e-13)).distance(ground)
    ana_gap = poincare_analytic(0.0, 0.0, ground.z, e, DESK_KAPPA).distance(ground)
    ok = num_gap <= 1e-8 and ana_gap <= 1e-8
    return CriterionResult(9, "ground state fixed point", ok,
                           f"numeric {num_gap:.2e}, analytic {ana_gap:.2e}")


def criterion_10_threshold_scan() -> CriterionResult:
    """Pump scan over 3 decades: recording clauses plus the verdict flip.

    The flip clause is expected to fail on this medium.  Proven: at zero
    pump no multiplier leaves the unit circle, for every S.  Measured: this
    S = 1e-5 medium has no collective pair near +-1, and the differential is
    contractive at every point of the grid, so the verdict never changes.
    (At S = 2.25 and pump x1e4 the FD oracle does find a multiplier above 1.)
    The recording and runtime clauses all hold.
    """
    e = desk_ensemble(300, seed=9)
    grid = np.geomspace(1e1, 1e4, 25)   # pump in units of the ruby amplitude
    points = threshold_scan(e, kappa=DESK_KAPPA, pump_grid=grid)
    verdicts = [p.resonance for p in points]
    flips = sum(1 for i in range(1, len(verdicts)) if verdicts[i] != verdicts[i - 1])
    recorded = (all(np.isfinite(p.max_abs_mu) for p in points)
                and all(np.isfinite(p.maxwell_floor) for p in points))
    ok = flips >= 1 and recorded
    detail = (f"{flips} flip(s) [>=1 required]; recorded={recorded}; "
              f"max|mu| range [{min(p.max_abs_mu for p in points):.9f}, "
              f"{max(p.max_abs_mu for p in points):.9f}]; collective max|mu| "
              f"range [{min(p.collective_max_abs_mu for p in points):.12f}, "
              f"{max(p.collective_max_abs_mu for p in points):.12f}]"
              + ("" if ok else "; no flip: the differential is "
                 "contractive at every pump level"))
    return CriterionResult(10, "pumping threshold scan", ok, detail)


ALL_CRITERIA: List[Callable[[], CriterionResult]] = [
    criterion_1_integral_constants,
    criterion_2_fundamental_solution,
    criterion_3_averaging_lemma,
    criterion_4_conservation_gauge,
    criterion_5_map_equivalence,
    criterion_6_differential_oracle,
    criterion_7_spectrum_reduction,
    criterion_8_ensemble_statistics,
    criterion_9_ground_state_fixed_point,
    criterion_10_threshold_scan,
]


def run_all() -> List[CriterionResult]:
    """Run every criterion and print one line each.  The runtimes go to
    stderr, so stdout is the same on every run."""
    results = []
    for fn in ALL_CRITERIA:
        t0 = time.perf_counter()
        res = fn()
        results.append(res)
        status = "PASS" if res.passed else "FAIL"
        print(f"[{status}] criterion {res.index:2d} ({res.name}): {res.detail}")
        print(f"criterion {res.index:2d}: {time.perf_counter() - t0:.1f}s",
              file=sys.stderr)
    return results
