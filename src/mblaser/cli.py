"""Command-line interface binding the modules into reproducible runs.

Exit codes: 0 success, 2 validation/usage error, 3 numeric failure (including
a failing acceptance criterion in ``verify-all``).  Outputs carry no
timestamps, so re-running with the same config and seed reproduces them
byte for byte.  The BLAS thread count follows the standard
``OPENBLAS_NUM_THREADS`` / ``OMP_NUM_THREADS`` variables, which numpy reads
when it is first imported.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from typing import Optional

import numpy as np

from . import kernels
from .config import RunConfig, load_config, paper_preset
from .dynamics import simulate_trajectory
from .ensemble import sum_S, sum_Sigma
from .errors import (CapacityError, NumericsError, ValidationError,
                     require_capacity)
from .model import PhysicalParams, ground_state, lift_state, perturbed_point
from .poincare import poincare_analytic, poincare_numeric
from .spectrum import (DENSE_CAP, assemble_blocks, resonance_verdict,
                       threshold_scan)
from .verify import ab_gap_table, gap_rows, run_all


def _load(args) -> RunConfig:
    if args.paper_constants:
        return paper_preset(seed=args.seed if args.seed is not None else 0)
    if not args.config:
        raise ValidationError("missing --config (or use --paper-constants)")
    return load_config(args.config, seed_override=args.seed)


def _open_out(path: str):
    """Open an output file; a path that cannot be opened is a usage error."""
    try:
        return open(path, "w", newline="", encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _write_json(path: Optional[str], payload: dict) -> None:
    """Write strict JSON: a non-finite value is a named numeric failure."""
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False,
                          default=_json_default)
    except ValueError:
        raise NumericsError(f"{_non_finite_key(payload)} is not finite; "
                            "nothing written") from None
    if path:
        with _open_out(path) as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _non_finite_key(obj, path: str = "report") -> Optional[str]:
    """Dotted key of the first non-finite number in a report, or None."""
    if isinstance(obj, dict):
        found = (_non_finite_key(v, f"{path}.{k}") for k, v in sorted(obj.items()))
    elif isinstance(obj, (list, tuple, np.ndarray)) and np.ndim(obj):
        found = (_non_finite_key(v, f"{path}[{i}]") for i, v in enumerate(obj))
    else:
        return path if isinstance(obj, (float, complex)) and not np.isfinite(obj) else None
    return next(filter(None, found), None)


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        if np.iscomplexobj(obj):
            return [[float(v.real), float(v.imag)] for v in obj]
        return obj.tolist()
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    raise TypeError(f"not JSON serializable: {type(obj)}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_ensemble(args) -> int:
    cfg = _load(args)
    e = cfg.build_ensemble()
    s_rep = sum_S(e)
    sig_rep = sum_Sigma(e)
    summary = {
        "config": cfg.describe(),
        "S": {"empirical": s_rep.empirical, "analytic": s_rep.analytic,
              "std_error": s_rep.std_error, "ratio": s_rep.ratio},
        "Sigma": {"empirical": sig_rep.empirical, "analytic": sig_rep.analytic,
                  "std_error": sig_rep.std_error, "ratio": sig_rep.ratio},
        "n": e.n,
    }
    if args.out and args.out.endswith(".csv"):
        with _open_out(args.out) as fh:
            fh.write(f"# S_empirical={s_rep.empirical!r} S_analytic={s_rep.analytic!r}\n")
            fh.write(f"# Sigma_empirical={sig_rep.empirical!r} "
                     f"Sigma_analytic={sig_rep.analytic!r}\n")
            writer = csv.writer(fh)
            writer.writerow(["n", "alpha", "beta", "gamma"])
            for i in range(e.n):
                writer.writerow([i, repr(float(e.alpha[i])), repr(float(e.beta[i])),
                                 repr(float(e.gamma[i]))])
        print(f"wrote {args.out}")
    else:
        summary["molecules"] = {
            "alpha": e.alpha, "beta": e.beta, "gamma": e.gamma,
        }
        _write_json(args.out, summary)
    return 0


def _require_positive(value, flag: str) -> None:
    """Reject a count outside [1, 2**63), the range of numpy's sizes, or a
    real that is not positive and finite."""
    if isinstance(value, int) and not 1 <= value < 2 ** 63:
        raise ValidationError(f"{flag} must be >= 1 and < 2**63, got {value}")
    if not 0 < value < math.inf:
        raise ValidationError(f"{flag} must be positive and finite, got {value}")


def cmd_simulate(args) -> int:
    _require_positive(args.periods, "--periods")
    _require_positive(args.samples_per_period, "--samples-per-period")
    cfg = _load(args)
    e = cfg.build_ensemble()
    state0 = ground_state(e.n)
    t, a, b, energy, inv = simulate_trajectory(
        state0, args.periods, e, cfg.kappa, cfg.settings,
        samples_per_period=args.samples_per_period)
    with _open_out(args.out) as fh:
        writer = csv.writer(fh)
        writer.writerow(["tau", "a", "b", "energy", "mean_inversion"])
        for row in zip(t, a, b, energy, inv):
            writer.writerow([repr(float(v)) for v in row])
    print(f"wrote {args.out}")
    return 0


def cmd_poincare(args) -> int:
    _require_positive(args.epsilon, "--epsilon")
    if args.epsilon >= 0.5:  # the sampled point has |z_n| up to epsilon
        raise ValidationError(
            f"--epsilon must be below 1/2, the chart edge |z| = 1/2, got {args.epsilon}")
    cfg = _load(args)
    e = cfg.build_ensemble()
    eps = args.epsilon
    point = perturbed_point(e.n, eps, np.random.default_rng(cfg.seed))
    payload = {"config": cfg.describe(), "epsilon": eps,
               "initial": {"a": point.a, "b": point.b, "z": point.z}}
    out_n = out_a = None
    if args.mode in ("numeric", "both"):
        out_n = poincare_numeric(lift_state(point), e, cfg.kappa, cfg.settings)
        payload["numeric"] = {"a": out_n.a, "b": out_n.b, "z": out_n.z}
    if args.mode in ("analytic", "both"):
        out_a = poincare_analytic(point.a, point.b, point.z, e, cfg.kappa)
        payload["analytic"] = {"a": out_a.a, "b": out_a.b, "z": out_a.z}
    if args.mode == "both":
        payload["discrepancy"] = {
            "a": abs(out_n.a - out_a.a), "b": abs(out_n.b - out_a.b),
            "z": np.abs(out_n.z - out_a.z),
            "z_max": float(np.max(np.abs(out_n.z - out_a.z))),
        }
    _write_json(args.out, payload)
    return 0


def cmd_spectrum(args) -> int:
    cfg = _load(args)
    e = cfg.build_ensemble()
    bd = assemble_blocks(e, cfg.kappa)
    method = "both" if e.n <= DENSE_CAP else "polynomial"
    rep = resonance_verdict(bd, method=method)
    payload = {
        "config": cfg.describe(),
        "method": rep.method,
        "S": bd.S,
        "gamma_sq_sum": bd.gamma_sq_sum,
        "max_abs_mu": rep.max_abs_mu,
        "collective_max_abs_mu": (rep.collective_max_abs_mu
                                  if np.isfinite(rep.collective_max_abs_mu) else None),
        "resonance": rep.resonance,
        "multipliers": rep.multipliers,
        # None marks roots standing in for the molecular cluster, which carry
        # no back-substituted eigenvector
        "maxwell_components": [float(c) if np.isfinite(c) else None
                               for c in rep.maxwell_components],
        "roots_near_one": rep.roots_near_one,
        "polynomial_roots": rep.polynomial_roots,
    }
    if rep.cross_discrepancy is not None:
        payload["cross_method_max_gap"] = rep.cross_discrepancy
    _write_json(args.out, payload)
    return 0


def cmd_threshold_scan(args) -> int:
    _require_positive(args.steps, "--steps")
    # the grid and one ThresholdPoint per point: measured at 200 bytes
    require_capacity(200 * args.steps, f"a pump scan of {args.steps} points")
    _require_positive(args.pump_min, "--pump-min")
    _require_positive(args.pump_max, "--pump-max")
    if args.pump_max <= args.pump_min:
        raise ValidationError("need 0 < pump-min < pump-max")
    cfg = _load(args)
    e = cfg.build_ensemble()
    grid = np.geomspace(args.pump_min, args.pump_max, args.steps)
    points = threshold_scan(e, cfg.kappa, grid)
    with _open_out(args.out) as fh:
        writer = csv.writer(fh)
        writer.writerow(["pump_amplitude", "max_abs_mu", "resonance",
                         "maxwell_component_min", "collective_max_abs_mu"])
        for p in points:
            writer.writerow([repr(float(p.pump_amplitude)), repr(float(p.max_abs_mu)),
                             int(p.resonance), repr(float(p.maxwell_floor)),
                             repr(float(p.collective_max_abs_mu))])
    flips = sum(1 for i in range(1, len(points))
                if points[i].resonance != points[i - 1].resonance)
    print(f"wrote {args.out} ({flips} verdict flip(s))")
    bare = sum(1 for p in points if math.isnan(p.collective_max_abs_mu))
    if bare:
        unit = "esu/cm" if isinstance(cfg.params, PhysicalParams) else "dimensionless"
        print(f"warning: {bare} of {len(points)} scan point(s) have no root outside "
              f"the cluster guard, so their verdict rests on no collective root; "
              f"--pump-min/--pump-max are absolute amplitudes and this config's "
              f"reference pump_amplitude is {e.pump_amplitude!r} ({unit})",
              file=sys.stderr)
    return 0


def cmd_verify_integrals(args) -> int:
    kap = args.kappa
    rows = ab_gap_table(kap) + gap_rows(
        dict(zip(("J1", "J2"), kernels.constants_J(kap))),
        dict(zip(("J1", "J2"), kernels.constants_J_oracle(kap))),
        10.0 * kap ** 2 + 1e-9)
    all_pass = all(r["pass"] for r in rows)
    if args.json:
        _write_json(None, {"kappa": kap, "rows": rows, "all_pass": all_pass})
    else:
        print(f"kappa = {kap:g}   tolerance = 10 kappa^2 + 1e-10")
        print(f"{'name':<4} {'closed':>28} {'oracle':>28} {'|gap|':>11} pass")
        for r in rows:
            c, o = r["closed"], r["oracle"]
            print(f"{r['name']:<4} {c.real:>13.9f}{c.imag:>+14.9f}j "
                  f"{o.real:>13.9f}{o.imag:>+14.9f}j {r['abs_gap']:>11.2e} "
                  f"{'yes' if r['pass'] else 'NO'}")
    return 0 if all_pass else 3


def cmd_verify_all(args) -> int:
    results = run_all()
    return 0 if all(r.passed for r in results) else 3


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mblaser",
        description="Maxwell-Bloch parametric-resonance laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, needs_out=True):
        source = p.add_mutually_exclusive_group()
        source.add_argument("--config", help="INI run configuration")
        source.add_argument("--paper-constants", action="store_true",
                            help="use the built-in ruby preset instead of a config")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        if needs_out:
            p.add_argument("--out", required=False, default=None,
                           help="output path (stdout when omitted)")

    p = sub.add_parser("ensemble", help="sample molecules, dump couplings and sums")
    add_common(p)
    p.set_defaults(func=cmd_ensemble)

    p = sub.add_parser("simulate", help="integrate the full system, stream CSV")
    add_common(p, needs_out=False)
    p.add_argument("--periods", type=float, default=1.0)
    p.add_argument("--samples-per-period", type=int, default=64)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("poincare", help="one period-map application")
    add_common(p)
    p.add_argument("--mode", choices=["numeric", "analytic", "both"],
                   default="both")
    p.add_argument("--epsilon", type=float, default=1e-4,
                   help="perturbation size of the sampled initial point")
    p.set_defaults(func=cmd_poincare)

    p = sub.add_parser("spectrum", help="multipliers and resonance verdict; for "
                       f"N <= {DENSE_CAP} a dense eigensolve checks the polynomial")
    add_common(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("threshold-scan", help="sweep the pumping amplitude")
    add_common(p, needs_out=False)
    pump_help = ("pump amplitude, in the config's pump_amplitude units: "
                 "dimensionless (reference 1.0) for [dimensionless], esu/cm "
                 "for [physical] and --paper-constants")
    p.add_argument("--pump-min", type=float, required=True, help=pump_help)
    p.add_argument("--pump-max", type=float, required=True, help=pump_help)
    p.add_argument("--steps", type=int, default=25)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_threshold_scan)

    p = sub.add_parser("verify-integrals",
                       help="closed forms vs quadrature oracle table")
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify_integrals)

    p = sub.add_parser("verify-all", help="run the full acceptance suite")
    p.set_defaults(func=cmd_verify_all)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ValidationError, CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
