"""The benchmark's workloads: inputs made from the seed, one op, and its checks.

Each workload is built from its seed alone and hands the package only the
generated inputs.  `op` is the timed call; everything else here runs outside
the timed region.  Calls go through module attributes (``poincare.make_numeric_map``
rather than an imported name) so that `spans.instrument` sees them.
"""
from __future__ import annotations

import hashlib
import time
from pathlib import Path

import numpy as np

from mblaser import config, poincare, spectrum

from reference import reference_period_map

CONFIG_DIR = Path(__file__).resolve().parent / "configs"

#: op streams: every stream draws its own inputs, so no two ops of a run
#: share an initial point or a pump grid
TIMED, WARMUP, TRACED = 0, 1, 2

#: bound on the matched endpoint error of one period map against the
#: rtol = 1e-12 reference (measured: 1.1e-9 to 1.6e-9 at the default tolerances)
PERIOD_MAP_ERR_BOUND = 1e-8
#: scan records and their recomputation must agree to roundoff
RECOMPUTE_TOL = 1e-9


def _rng(seed, stream, k):
    return np.random.default_rng([seed, stream, k])


def _digest_floats(*values) -> bytes:
    h = hashlib.sha256()
    for v in values:
        h.update(np.asarray(v, dtype=float).tobytes())
    return h.digest()


# ---------------------------------------------------------------------------
# checks, kept free of workload state so the self-tests can corrupt inputs
# ---------------------------------------------------------------------------

def check_period_map(out, ref=None):
    """(ok, error): finite, every |z| < 1/2, and within PERIOD_MAP_ERR_BOUND
    of `ref` when one is given."""
    out = np.asarray(out, dtype=float)
    if not np.all(np.isfinite(out)):
        return False, float("inf")
    z_abs = np.hypot(out[2::2], out[3::2])
    if not np.all(z_abs < 0.5):
        return False, float("inf")
    if ref is None:
        return True, None
    err = float(np.max(np.abs(out - ref)))
    return err <= PERIOD_MAP_ERR_BOUND, err


def check_scan_point(point):
    """A scan record is finite and its Maxwell floor is positive."""
    return bool(np.isfinite(point.max_abs_mu) and np.isfinite(point.maxwell_floor)
                and point.maxwell_floor > 0.0)


def check_scan_recompute(point, report):
    """A scan record agrees with its recomputation; the verdict value itself
    is not asserted, only that both routes give the same one."""
    return bool(point.resonance == report.resonance
                and abs(point.max_abs_mu - report.max_abs_mu) <= RECOMPUTE_TOL
                and abs(point.maxwell_floor - report.maxwell_floor)
                <= RECOMPUTE_TOL * abs(report.maxwell_floor))


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    """Loads the workload's config and samples its one shared medium.

    Subclasses give `inputs`, `op`, `check` and `finish`.  `check` runs right
    after each op and must stay cheap; `finish` runs once after every timed op
    and the peak-memory reading, for the costly checks, and returns the keys
    of the ops it failed.
    """

    warmup_ops = 1
    keeps_results = False
    #: what one op counts for in ops_per_s (scan points for a pump scan)
    units_per_op = 1

    def __init__(self, seed: int):
        self.seed = seed
        t0 = time.perf_counter()
        self.cfg = config.load_config(str(CONFIG_DIR / f"{self.name}.cfg"),
                                      seed_override=seed)
        self.config_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        self.medium = self.cfg.build_ensemble()
        self.sample_s = time.perf_counter() - t0


class PeriodMap(Workload):
    """One call of the numeric period map at N = 1e5 from a fresh point."""

    name = "period-map-1e5"
    warmup_ops = 2
    epsilon = 1e-2
    #: timed ops compared with the reference, after the timed phase; a fixed
    #: count, so a faster map cannot make a run overrun its limit
    referenced_ops = 3

    def inputs(self, stream, k):
        rng = _rng(self.seed, stream, k)
        n = self.medium.n
        z = (self.epsilon * rng.uniform(0.2, 1.0, n)
             * np.exp(2j * np.pi * rng.uniform(size=n)))
        x = np.empty(2 + 2 * n)
        x[:2] = self.epsilon * rng.uniform(-1.0, 1.0, 2)
        x[2::2] = z.real
        x[3::2] = z.imag
        return x

    def op(self, x):
        period_map = poincare.make_numeric_map(self.medium, self.cfg.kappa,
                                               self.cfg.settings)
        return period_map(x)

    def check(self, stream, k, x, out):
        ok, _ = check_period_map(out)
        return ok, {}, _digest_floats(out)

    def finish(self, results):
        """Compare the first timed outputs with the reference.

        No output is kept during the timed phase: each is made again here
        and must hash to what the timed op gave, so the error is the timed
        op's own and peak memory holds no benchmark-owned copies.
        """
        timed = [r for r in results if r.stream == TIMED and r.ok]
        failed = set()
        e = self.medium
        for r in timed[:self.referenced_ops]:
            x = self.inputs(r.stream, r.k)
            out = self.op(x)
            ref = reference_period_map(x, e.alpha, e.beta, e.gamma, self.cfg.kappa)
            ok, err = check_period_map(out, ref)
            r.info["period_map_err"] = err
            if not ok or _digest_floats(out) != r.chunk:
                failed.add((r.stream, r.k))
        return failed


class PumpScan(Workload):
    """One `threshold_scan` call on a shared N = 1e6 medium, over an ascending
    geometric pump grid as the CLI makes one.  Each op's grid spans two
    decades at a seed-drawn offset inside [1e1, 1e4] (units of the ruby
    amplitude), so no grid repeats."""

    name = "pump-scan-1e6"
    keeps_results = True
    units_per_op = 4
    grid_decades = 2.0
    pump_decades = (1.0, 4.0)

    def inputs(self, stream, k):
        lo, hi = self.pump_decades
        start = lo + (hi - lo - self.grid_decades) * _rng(self.seed, stream, k).uniform()
        return np.geomspace(10.0 ** start, 10.0 ** (start + self.grid_decades),
                            self.units_per_op)

    def op(self, grid):
        return spectrum.threshold_scan(self.medium, self.cfg.kappa, grid)

    def check(self, stream, k, grid, points):
        ok = (len(points) == len(grid)
              and all(check_scan_point(p) and p.pump_amplitude == g
                      for p, g in zip(points, grid)))
        return ok, {}, _digest_floats(
            [(p.pump_amplitude, p.max_abs_mu, p.resonance, p.maxwell_floor)
             for p in points])

    def finish(self, results):
        """Recompute the first point of the first timed scan and the last
        point of the last one through assemble_blocks + resonance_verdict and
        require the same records."""
        timed = [r for r in results if r.stream == TIMED and r.ok]
        failed = set()
        for r, i in ((timed[0], 0), (timed[-1], -1)) if timed else ():
            scaled = self.medium.with_pump_amplitude(float(r.inp[i]))
            report = spectrum.resonance_verdict(
                spectrum.assemble_blocks(scaled, self.cfg.kappa, d_variant="gamma"),
                method="polynomial")
            if not check_scan_recompute(r.out[i], report):
                failed.add((r.stream, r.k))
        return failed


WORKLOADS = {w.name: w for w in (PeriodMap, PumpScan)}


def digest(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()
