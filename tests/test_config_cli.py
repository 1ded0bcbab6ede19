import json

import numpy as np
import pytest

from mblaser.cli import main
from mblaser.config import load_config, paper_preset
from mblaser.errors import ValidationError
from mblaser.spectrum import DENSE_CAP

DIMLESS = """
[dimensionless]
kappa = 1e-7
alpha_scale = 1.155e-23
beta_scale = 1.824e-2
gamma_scale = 2.149e-7
n = 40

[ensemble]
hypothesis = H1
n = 40
seed = 7
mode_index = 4, 1, 1
rescale_alpha_to_s = 1e-5

[run]
rel_tol = 1e-10
abs_tol = 1e-12
"""

PHYSICAL = """
[physical]
pump_frequency = 3e15
pump_amplitude = 1.7e-6
dipole_magnitude = 4e-18
conductivity = 1e-2
cavity_dims = 12, 2, 2
active_volume = 3.4
molecule_count = 1e20

[ensemble]
n = 30
seed = 3
"""


@pytest.fixture
def dimless_cfg(tmp_path):
    p = tmp_path / "desk.cfg"
    p.write_text(DIMLESS)
    return str(p)


@pytest.fixture
def physical_cfg(tmp_path):
    p = tmp_path / "ruby.cfg"
    p.write_text(PHYSICAL)
    return str(p)


class TestConfig:
    def test_loads_dimensionless(self, dimless_cfg):
        cfg = load_config(dimless_cfg)
        assert cfg.kappa == 1e-7
        assert cfg.n == 40 and cfg.seed == 7
        e = cfg.build_ensemble()
        assert e.sum_alpha_beta == pytest.approx(1e-5)

    def test_loads_physical(self, physical_cfg):
        cfg = load_config(physical_cfg)
        assert cfg.kappa == pytest.approx(0.5e-7)
        assert cfg.build_ensemble().n == 30

    def test_seed_override(self, dimless_cfg):
        a = load_config(dimless_cfg).build_ensemble()
        b = load_config(dimless_cfg, seed_override=8).build_ensemble()
        assert not np.array_equal(a.alpha, b.alpha)

    def test_requires_exactly_one_param_section(self, tmp_path):
        p = tmp_path / "bad.cfg"
        both = DIMLESS.split("[ensemble]")[0] + PHYSICAL.split("[ensemble]")[0]
        p.write_text(both)
        with pytest.raises(ValidationError):
            load_config(str(p))
        p.write_text("[ensemble]\nn = 5\n")
        with pytest.raises(ValidationError):
            load_config(str(p))

    def test_malformed_config(self, tmp_path):
        p = tmp_path / "dup.cfg"
        p.write_text("[ensemble]\nn = 5\n[ensemble]\nn = 6\n")
        with pytest.raises(ValidationError):
            load_config(str(p))

    def test_rejects_unknown_keys(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text(DIMLESS.replace("[run]", "[run]\nbogus_key = 1"))
        with pytest.raises(ValidationError):
            load_config(str(p))

    def test_rejects_negative_verdict_tol(self, tmp_path):
        p = tmp_path / "tol.cfg"
        p.write_text(DIMLESS + "verdict_tol = -0.5\n")
        with pytest.raises(ValidationError):
            load_config(str(p))
        p.write_text(DIMLESS + "verdict_tol = 0\n")
        assert load_config(str(p)).verdict_tol == 0.0

    def test_missing_file(self):
        with pytest.raises(ValidationError):
            load_config("/nonexistent/nowhere.cfg")

    def test_paper_preset(self):
        cfg = paper_preset(n=50)
        e = cfg.build_ensemble()
        assert e.n == 50
        assert e.sum_alpha_beta == pytest.approx(1e-5)


class TestCli:
    def test_missing_config_exits_2(self, capsys):
        assert main(["ensemble"]) == 2
        assert "error" in capsys.readouterr().err

    def test_verify_integrals(self, capsys):
        assert main(["verify-integrals", "--kappa", "1e-7"]) == 0
        out = capsys.readouterr().out
        assert "A1" in out and "NO" not in out

    def test_verify_integrals_json(self, capsys):
        assert main(["verify-integrals", "--kappa", "1e-5", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["all_pass"] is True

    def test_ensemble_json_deterministic(self, dimless_cfg, tmp_path, capsys):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert main(["ensemble", "--config", dimless_cfg, "--out", str(out1)]) == 0
        assert main(["ensemble", "--config", dimless_cfg, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        payload = json.loads(out1.read_text())
        assert payload["S"]["empirical"] == pytest.approx(1e-5)
        assert payload["config"]["ensemble"]["seed"] == 7

    def test_ensemble_csv(self, dimless_cfg, tmp_path, capsys):
        import csv as csvmod
        out = tmp_path / "mols.csv"
        assert main(["ensemble", "--config", dimless_cfg, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[2].startswith("n,alpha,beta,gamma")
        assert len(lines) == 3 + 40
        rows = list(csvmod.DictReader(lines[2:]))
        vals = np.array([float(r["alpha"]) * float(r["beta"]) for r in rows])
        assert vals.sum() == pytest.approx(1e-5)

    def test_spectrum_report(self, dimless_cfg, tmp_path):
        out = tmp_path / "spec.json"
        assert main(["spectrum", "--config", dimless_cfg, "--method", "both",
                     "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["resonance"] is False
        assert payload["cross_method_max_gap"] <= 1e-8
        assert len(payload["multipliers"]) == 2 * 40 + 2

    def test_poincare_both(self, dimless_cfg, tmp_path):
        out = tmp_path / "p.json"
        assert main(["poincare", "--config", dimless_cfg, "--mode", "both",
                     "--epsilon", "1e-4", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["discrepancy"]["z_max"] <= 1e-7

    def test_simulate_csv(self, dimless_cfg, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        assert main(["simulate", "--config", dimless_cfg, "--periods", "1.0",
                     "--samples-per-period", "8", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "tau,a,b,energy,mean_inversion"
        assert len(lines) == 1 + 9
        last = lines[-1].split(",")
        assert float(last[0]) == pytest.approx(2 * np.pi)
        assert float(last[4]) <= -0.999  # molecules stay near the lower level

    def test_threshold_scan_csv(self, dimless_cfg, tmp_path, capsys):
        out1 = tmp_path / "scan1.csv"
        out2 = tmp_path / "scan2.csv"
        for out in (out1, out2):
            assert main(["threshold-scan", "--config", dimless_cfg,
                         "--pump-min", "1", "--pump-max", "1000",
                         "--steps", "7", "--out", str(out)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().splitlines()
        assert lines[0].startswith("pump_amplitude,max_abs_mu,resonance")
        assert len(lines) == 8
        for line in lines[1:]:
            cols = line.split(",")
            assert float(cols[1]) >= 0.99 and cols[2] in ("0", "1")
            float(cols[0]); float(cols[3])

    def test_bad_scan_range_exits_2(self, dimless_cfg, tmp_path):
        assert main(["threshold-scan", "--config", dimless_cfg,
                     "--pump-min", "10", "--pump-max", "1",
                     "--out", str(tmp_path / "x.csv")]) == 2

    def test_paper_constants_flag(self, tmp_path):
        out = tmp_path / "preset.json"
        assert main(["spectrum", "--paper-constants", "--method", "polynomial",
                     "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["config"]["params"]["kind"] == "physical"

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--method", "polynomial"],
        ["threshold-scan", "--pump-min", "1", "--pump-max", "10"],
    ])
    def test_negative_verdict_tol_exits_2(self, argv, tmp_path, capsys):
        cfg = tmp_path / "tol.cfg"
        cfg.write_text(DIMLESS + "verdict_tol = -0.5\n")
        out = tmp_path / "out.txt"
        assert main(argv + ["--config", str(cfg), "--out", str(out)]) == 2
        assert "verdict_tol" in capsys.readouterr().err
        assert not out.exists()

    def test_threshold_scan_uses_verdict_tol(self, tmp_path, monkeypatch):
        import mblaser.cli as cli
        seen = []
        real = cli.threshold_scan

        def spy(*args, **kwargs):
            seen.append(kwargs.get("verdict_tol"))
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "threshold_scan", spy)
        cfg = tmp_path / "tol.cfg"
        cfg.write_text(DIMLESS + "verdict_tol = 0.25\n")
        assert main(["threshold-scan", "--config", str(cfg), "--pump-min", "1",
                     "--pump-max", "10", "--steps", "2",
                     "--out", str(tmp_path / "scan.csv")]) == 0
        assert seen == [0.25]

    @pytest.mark.parametrize("argv", [
        ["threshold-scan", "--pump-min", "1", "--pump-max", "10", "--steps", "0"],
        ["threshold-scan", "--pump-min", "1", "--pump-max", "10", "--steps", "-3"],
        ["simulate", "--samples-per-period", "0"],
    ])
    def test_degenerate_counts_exit_2(self, argv, dimless_cfg, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert main(argv + ["--config", dimless_cfg, "--out", str(out)]) == 2
        assert "must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_both_above_dense_cap_runs_polynomial(self, tmp_path, capsys):
        n = DENSE_CAP + 1
        cfg = tmp_path / "big.cfg"
        cfg.write_text(DIMLESS.replace("n = 40", f"n = {n}"))
        out = tmp_path / "spec.json"
        assert main(["spectrum", "--config", str(cfg), "--method", "both",
                     "--out", str(out)]) == 0
        assert "dense route skipped" in capsys.readouterr().err
        payload = json.loads(out.read_text())
        assert payload["method"] == "polynomial"
        assert f"N = {n}" in payload["dense_skipped"]
        assert "cross_method_max_gap" not in payload
        assert payload["resonance"] is False

    def test_both_within_dense_cap_skips_nothing(self, dimless_cfg, tmp_path, capsys):
        out = tmp_path / "spec.json"
        assert main(["spectrum", "--config", dimless_cfg, "--method", "both",
                     "--out", str(out)]) == 0
        assert "skipped" not in capsys.readouterr().err
        payload = json.loads(out.read_text())
        assert "dense_skipped" not in payload and payload["method"] == "both"
