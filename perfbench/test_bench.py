"""Self-tests of the benchmark: every check must count a corrupted result as a
failure, and must pass the real result it guards.

    python3 -m pytest perfbench/test_bench.py      (or: python3 perfbench/test_bench.py)
"""
from __future__ import annotations

import dataclasses
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import numpy as np  # noqa: E402

import run  # noqa: E402
import workloads as wl  # noqa: E402
from mblaser import config, poincare, spectrum  # noqa: E402
from reference import reference_period_map  # noqa: E402


def small_medium(n, seed=3):
    cfg = config.load_config(str(wl.CONFIG_DIR / "period-map-1e5.cfg"), seed_override=seed)
    return dataclasses.replace(cfg, n=n).build_ensemble(), cfg


def fresh_point(n, seed=5, eps=1e-2):
    rng = np.random.default_rng(seed)
    x = np.empty(2 + 2 * n)
    x[:2] = eps * rng.uniform(-1, 1, 2)
    z = eps * rng.uniform(0.2, 1.0, n) * np.exp(2j * np.pi * rng.uniform(size=n))
    x[2::2], x[3::2] = z.real, z.imag
    return x


class PeriodMapCheck(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        e, cfg = small_medium(20)
        cls.x = fresh_point(e.n)
        cls.out = poincare.make_numeric_map(e, cfg.kappa, cfg.settings)(cls.x)
        cls.ref = reference_period_map(cls.x, e.alpha, e.beta, e.gamma, cfg.kappa)

    def test_real_map_passes(self):
        ok, err = wl.check_period_map(self.out, self.ref)
        self.assertTrue(ok)
        self.assertLess(err, wl.PERIOD_MAP_ERR_BOUND)

    def test_non_finite_fails(self):
        bad = self.out.copy()
        bad[7] = np.nan
        self.assertFalse(wl.check_period_map(bad, self.ref)[0])

    def test_outside_chart_fails(self):
        bad = self.out.copy()
        bad[4] = 0.5
        self.assertFalse(wl.check_period_map(bad)[0])

    def test_error_above_bound_fails(self):
        bad = self.out.copy()
        bad[0] += 10 * wl.PERIOD_MAP_ERR_BOUND
        self.assertFalse(wl.check_period_map(bad, self.ref)[0])


class ScanChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        e, cfg = small_medium(50)
        cls.point = spectrum.threshold_scan(e, cfg.kappa, [100.0])[0]
        cls.report = spectrum.resonance_verdict(
            spectrum.assemble_blocks(e.with_pump_amplitude(100.0), cfg.kappa))

    def test_real_point_passes(self):
        self.assertTrue(wl.check_scan_point(self.point))
        self.assertTrue(wl.check_scan_recompute(self.point, self.report))

    def test_bad_floor_fails(self):
        for floor in (np.nan, 0.0, -1e-3):
            bad = dataclasses.replace(self.point, maxwell_floor=floor)
            self.assertFalse(wl.check_scan_point(bad))

    def test_non_finite_multiplier_fails(self):
        bad = dataclasses.replace(self.point, max_abs_mu=np.inf)
        self.assertFalse(wl.check_scan_point(bad))

    def test_record_off_grid_fails(self):
        grid = [self.point.pump_amplitude, 2 * self.point.pump_amplitude]
        moved = dataclasses.replace(self.point, pump_amplitude=grid[1])
        self.assertTrue(wl.PumpScan.check(None, 0, 0, grid[:1], [self.point])[0])
        self.assertFalse(wl.PumpScan.check(None, 0, 0, grid, [self.point, self.point])[0])
        self.assertFalse(wl.PumpScan.check(None, 0, 0, grid, [self.point])[0])
        self.assertTrue(wl.PumpScan.check(None, 0, 0, grid, [self.point, moved])[0])

    def test_recompute_mismatch_fails(self):
        for change in ({"max_abs_mu": self.point.max_abs_mu + 1e-6},
                       {"resonance": not self.point.resonance},
                       {"maxwell_floor": self.point.maxwell_floor * 1.01}):
            bad = dataclasses.replace(self.point, **change)
            self.assertFalse(wl.check_scan_recompute(bad, self.report))


class PhaseCountsFailures(unittest.TestCase):
    """run_phase marks an op failed when its check rejects the result or when
    the op raises, and keeps timing the rest."""

    class Stub:
        keeps_results = False

        def inputs(self, stream, k):
            return k

        def op(self, k):
            if k == 2:
                raise FloatingPointError("corrupted op")
            out = np.zeros(6)
            if k == 1:
                out[3] = np.nan
            return out

        def check(self, stream, k, inp, out):
            ok, err = wl.check_period_map(out)
            return ok, {"period_map_err": err}, out.tobytes()

    def test_failures_counted(self):
        results = run.run_phase(self.Stub(), wl.TIMED, 0.0, 4)
        self.assertEqual([r.ok for r in results], [True, False, False, True])
        self.assertIn("corrupted op", results[2].info["error"])


if __name__ == "__main__":
    unittest.main()
