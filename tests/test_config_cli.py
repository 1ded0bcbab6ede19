import inspect
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import mblaser
from mblaser import config, dynamics, spectrum
from mblaser.cli import ENSEMBLE_BYTES_PER_MOLECULE, main
from mblaser.config import _ENSEMBLE_KEYS, load_config, paper_preset
from mblaser.dynamics import OdeSettings
from mblaser.ensemble import sample_ensemble, sum_S
from mblaser.errors import ValidationError
from mblaser.spectrum import DENSE_CAP, assemble_blocks, resonance_verdict

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
molecule_count = 1e20

[ensemble]
n = 30
seed = 3
"""

#: [physical] H2 config that sets every optional key of every section
PHYSICAL_H2 = """
[physical]
pump_frequency = 3e15
pump_amplitude = 1.7e-6
dipole_magnitude = 4e-18
conductivity = 10.0
cavity_dims = 12, 2, 2
molecule_count = 1e20

[ensemble]
hypothesis = H2
n = 40
seed = 5
mode_index = 4, 1, 1
rescale_alpha_to_s = 1e-5
crystal_axis = 0, 0.6, 0.8
active_volume = 2.5

[run]
rel_tol = 1e-10
abs_tol = 1e-11
max_step = 0.5
"""


def _set_keys(text: str, values: dict) -> str:
    """``text`` with each named key's line set to the given value."""
    for key, value in values.items():
        text = re.sub(f"(?m)^{key} = .*$", f"{key} = {value}", text)
    return text


def _pumped(gamma_scale: str, s: str = "1e-5") -> str:
    return _set_keys(DIMLESS, {"gamma_scale": gamma_scale, "rescale_alpha_to_s": s})


#: (argv, config) whose pumping lies beyond the float range or the
#: polynomial route's range, and the message
PUMP_OVERFLOW = {
    (("spectrum",), _pumped("1e200")):
        "error: pumping out of float range: the detunings 2 pi^2 gamma_n^2 "
        "overflow at 1 times the medium's pump amplitude\n",
    (("threshold-scan", "--pump-min", "1e300", "--pump-max", "1e301"), DIMLESS):
        "error: pumping out of float range: the detunings 2 pi^2 gamma_n^2 "
        "overflow at 1e+300 times the medium's pump amplitude\n",
    (("spectrum",), _pumped("1e8")):
        "error: pumping at 1 times the medium's pump amplitude lies beyond the "
        "polynomial route's range: max detuning 2 pi^2 gamma_n^2 = 1.88e+17\n",
    (("threshold-scan", "--pump-min", "1e14", "--pump-max", "1e15"), DIMLESS):
        "error: pumping at 1e+14 times the medium's pump amplitude lies beyond "
        "the polynomial route's range: max detuning 2 pi^2 gamma_n^2 = 8.67e+15\n",
    # at S = 1e4 only the mean detuning overflows the polynomial, which names
    # the pump, not S
    (("spectrum",), _pumped("1e152", s="1e4")):
        "error: pumping at 1 times the medium's pump amplitude lies beyond the "
        "polynomial route's range: max detuning 2 pi^2 gamma_n^2 = 1.88e+305\n",
    (("threshold-scan", "--pump-min", "1", "--pump-max", "10"), _pumped("3e152", s="1e4")):
        "error: pumping at 1 times the medium's pump amplitude lies beyond the "
        "polynomial route's range: max detuning 2 pi^2 gamma_n^2 = 1.69e+306\n",
}


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
        assert sum_S(e).empirical == pytest.approx(1e-5, rel=1e-12, abs=0.0)

    def test_loads_physical(self, physical_cfg):
        cfg = load_config(physical_cfg)
        assert cfg.kappa == pytest.approx(0.5e-7, rel=1e-12, abs=0.0)
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

    @pytest.mark.parametrize("run_section", ["[run]\n", ""])
    def test_empty_run_takes_the_library_defaults(self, tmp_path, run_section):
        p = tmp_path / "defaults.cfg"
        p.write_text(DIMLESS[:DIMLESS.index("[run]")] + run_section)
        cfg = load_config(str(p))
        assert cfg.settings == OdeSettings()

    @pytest.mark.parametrize("text,message", [
        (PHYSICAL.replace("conductivity = 1e-2\n", ""),
         "[physical] missing keys: ['conductivity']"),
        (PHYSICAL.replace("[physical]", "[physical]\nplanck = 1e-27"),
         "unknown keys in [physical]: ['planck']"),
        (DIMLESS.replace("n = 40\n\n[ensemble]", "\n[ensemble]"),
         "[dimensionless] missing keys: ['n']"),
        (DIMLESS.replace("[ensemble]", "[ensemble]\nkappa = 1e-7"),
         "unknown keys in [ensemble]: ['kappa']"),
        # the sampling geometry is set only in [ensemble]
        (PHYSICAL.replace("[physical]", "[physical]\nmode_index = 4, 1, 1"),
         "unknown keys in [physical]: ['mode_index']"),
        (PHYSICAL.replace("[physical]", "[physical]\nactive_volume = 3.4"),
         "unknown keys in [physical]: ['active_volume']"),
        # the verdict tolerance is the code's constant spectrum.VERDICT_TOL
        (DIMLESS + "verdict_tol = 1e-9\n", "unknown keys in [run]: ['verdict_tol']"),
        (DIMLESS.replace("[ensemble]", "[ensemble]\ncrystal_axis = 1, 0, 0"),
         "H1 draws every dipole direction and takes no crystal axis"),
        (DIMLESS.replace("hypothesis = H1", "hypothesis = H2\ncrystal_axis = nan, 0, 0"),
         "crystal axis must be finite and nonzero, got (nan, 0.0, 0.0)"),
        # [dimensionless] n owns N: [ensemble] n may restate it, not change it
        (DIMLESS.replace("hypothesis = H1\nn = 40", "hypothesis = H1\nn = 300"),
         "[ensemble] n = 300 differs from [dimensionless] n = 40; N takes one value"),
        (DIMLESS.replace("n = 40\n\n[ensemble]", "n = 1e300\n\n[ensemble]"),
         "[ensemble] n = 40 differs from [dimensionless] n = 1e+300; N takes one value"),
    ])
    def test_schema_messages(self, text, message, tmp_path, capsys):
        cfg = tmp_path / "schema.cfg"
        cfg.write_text(text)
        assert main(["ensemble", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_ensemble_schema(self, dimless_cfg, tmp_path):
        """Every [ensemble] key is a keyword of `sample_ensemble`, and a
        report's config.ensemble block lists exactly those keys."""
        keywords = set(inspect.signature(sample_ensemble).parameters) - {"params"}
        assert _ENSEMBLE_KEYS <= keywords
        out = tmp_path / "desk.json"
        assert main(["ensemble", "--config", dimless_cfg, "--out", str(out)]) == 0
        assert set(json.loads(out.read_text())["config"]["ensemble"]) == _ENSEMBLE_KEYS

    def test_unset_geometry_is_reported(self, physical_cfg, tmp_path):
        """A config that leaves the geometry unset reports the mode and
        active volume it sampled."""
        out = tmp_path / "ruby.json"
        assert main(["ensemble", "--config", physical_cfg, "--out", str(out)]) == 0
        block = json.loads(out.read_text())["config"]["ensemble"]
        assert block["mode_index"] == [4, 1, 1] and block["active_volume"] == 3.4

    def test_bad_value_message_independent_of_hash_seed(self, tmp_path):
        """With two bad values in one section, the message names the same
        key under every string-hash seed."""
        cfg = tmp_path / "two_bad.cfg"
        cfg.write_text(DIMLESS.replace("kappa = 1e-7", "kappa = x")
                       .replace("beta_scale = 1.824e-2", "beta_scale = y"))
        src = str(Path(mblaser.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        runs = [subprocess.Popen(
            [sys.executable, "-m", "mblaser.cli", "ensemble", "--config", str(cfg)],
            env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed},
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
            for seed in ("1", "2")]
        errs = [run.communicate(timeout=120)[1] for run in runs]
        assert [run.returncode for run in runs] == [2, 2]
        assert errs[0] == errs[1] == ("error: bad value for beta_scale: could not "
                                      "convert string to float: 'y'\n")

    def test_physical_config_block(self, tmp_path):
        """The report's config block of a [physical] H2 config that sets
        every optional key, pinned as a literal."""
        cfg = tmp_path / "h2.cfg"
        cfg.write_text(PHYSICAL_H2)
        out = tmp_path / "h2.json"
        assert main(["ensemble", "--config", str(cfg), "--out", str(out)]) == 0
        block = json.loads(out.read_text(), parse_constant=pytest.fail)["config"]
        assert block == {
            "params": {
                "kind": "physical", "pump_frequency": 3e15,
                "pump_amplitude": 1.7e-06, "dipole_magnitude": 4e-18,
                "conductivity": 10.0, "cavity_dims": [12.0, 2.0, 2.0],
                "molecule_count": 1e20,
            },
            "ensemble": {
                "hypothesis": "H2", "n": 40, "seed": 5, "mode_index": [4, 1, 1],
                "rescale_alpha_to_s": 1e-05, "crystal_axis": [0.0, 0.6, 0.8],
                "active_volume": 2.5,
            },
            "run": {"rel_tol": 1e-10, "abs_tol": 1e-11, "max_step": 0.5},
        }

    @pytest.mark.parametrize("text", [PHYSICAL_H2, DIMLESS, None],
                             ids=["physical_h2", "dimensionless", "paper_preset"])
    def test_report_config_reloads_to_the_same_run(self, text, tmp_path):
        """The config block of a report, written back as INI, loads to an
        equal RunConfig: a run is reproducible from its own output."""
        if text is None:
            run = paper_preset(3)
        else:
            (tmp_path / "source.cfg").write_text(text)
            run = load_config(str(tmp_path / "source.cfg"))
        block = json.loads(json.dumps(run.describe()))
        params = block["params"]
        sections = {params.pop("kind"): params, "ensemble": block["ensemble"],
                    "run": block["run"]}
        again = tmp_path / "again.cfg"
        again.write_text("".join(
            f"[{name}]\n" + "".join(
                f"{key} = {', '.join(map(str, v)) if isinstance(v, list) else v}\n"
                for key, v in keys.items() if v is not None)
            for name, keys in sections.items()))
        assert load_config(str(again)) == run

    def test_ensemble_geometry_samples_the_direct_call(self, tmp_path):
        """mode_index and active_volume set under [ensemble] sample the medium
        that `sample_ensemble` samples when given them directly."""
        cfg = tmp_path / "geometry.cfg"
        cfg.write_text(PHYSICAL + "mode_index = 3, 1, 1\nactive_volume = 2.5\n")
        run = load_config(str(cfg))
        e = run.build_ensemble()
        direct = sample_ensemble(run.params, "H1", 3, n=30, mode_index=(3, 1, 1),
                                 active_volume=2.5)
        default = sample_ensemble(run.params, "H1", 3, n=30)
        for name in ("alpha", "beta", "gamma", "proj_mode", "proj_pump"):
            assert np.array_equal(getattr(e, name), getattr(direct, name))
        assert not np.array_equal(e.proj_mode, default.proj_mode)

    def test_missing_file(self):
        with pytest.raises(ValidationError):
            load_config("/nonexistent/nowhere.cfg")

    def test_paper_preset(self):
        cfg = paper_preset(seed=3)
        e = cfg.build_ensemble()
        assert e.n == 1000 and cfg.seed == 3
        assert sum_S(e).empirical == pytest.approx(1e-5, rel=1e-12, abs=0.0)


class TestCli:
    def test_missing_config_exits_2(self, capsys):
        assert main(["ensemble"]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("run_line,expect", [("", None), ("max_step = 0.1\n", 0.1)])
    def test_poincare_json_embeds_max_step(self, run_line, expect, tmp_path):
        cfg = tmp_path / "step.cfg"
        cfg.write_text(DIMLESS + run_line)
        out = tmp_path / "p.json"
        assert main(["poincare", "--config", str(cfg), "--mode", "numeric",
                     "--out", str(out)]) == 0
        run = json.loads(out.read_text(), parse_constant=pytest.fail)["config"]["run"]
        assert run["max_step"] == expect
        # the embedded [run] section reproduces the solver settings
        again = tmp_path / "again.cfg"
        again.write_text(DIMLESS.split("[run]")[0] + "[run]\n" + "".join(
            f"{k} = {v}\n" for k, v in run.items() if v is not None))
        assert load_config(str(again)).settings == load_config(str(cfg)).settings

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
        assert payload["S"]["empirical"] == pytest.approx(1e-5, rel=1e-12, abs=0.0)
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
        assert vals.sum() == pytest.approx(1e-5, rel=1e-12, abs=0.0)

    def test_spectrum_report(self, dimless_cfg, tmp_path):
        out = tmp_path / "spec.json"
        assert main(["spectrum", "--config", dimless_cfg, "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["resonance"] is False
        assert payload["collective_max_abs_mu"] < 1.0
        assert payload["cross_method_max_gap"] <= 1e-8
        assert len(payload["multipliers"]) == 2 * 40 + 2

    def test_unpumped_spectrum_is_the_zero_pump_factor(self, dimless_cfg, tmp_path):
        """spectrum of the config with gamma_scale = 0 reports the multipliers
        of the pumped medium's blocks at pump factor 0."""
        cfg = tmp_path / "nopump.cfg"
        cfg.write_text(DIMLESS.replace("gamma_scale = 2.149e-7", "gamma_scale = 0"))
        out = tmp_path / "spec.json"
        assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        run = load_config(dimless_cfg)
        rep = resonance_verdict(assemble_blocks(run.build_ensemble(), run.kappa)
                                .with_pump_factor(0.0), "both")
        assert payload["method"] == "both"
        assert payload["multipliers"] == [[m.real, m.imag] for m in rep.multipliers]
        assert payload["max_abs_mu"] == rep.max_abs_mu
        assert payload["collective_max_abs_mu"] == rep.collective_max_abs_mu

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
        assert lines[0] == ("pump_amplitude,max_abs_mu,resonance,"
                            "maxwell_component_min,collective_max_abs_mu")
        assert len(lines) == 8
        for line in lines[1:]:
            cols = line.split(",")
            assert float(cols[1]) >= 0.99 and cols[2] in ("0", "1")
            assert 0.99 <= float(cols[4]) <= float(cols[1])
            float(cols[0]); float(cols[3])

    def test_scan_warns_when_no_collective_root(self, tmp_path, capsys):
        # the preset reads the pump in esu/cm (ruby is 1.7e-6), so this grid
        # lies far above ruby and every root falls inside the cluster guard
        out = tmp_path / "paper.csv"
        assert main(["threshold-scan", "--paper-constants", "--pump-min", "10",
                     "--pump-max", "1e4", "--steps", "3", "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [r[4] for r in rows] == ["nan"] * 3
        err = capsys.readouterr().err
        assert err.count("warning:") == 1
        assert "3 of 3 scan point(s)" in err
        assert "pump_amplitude is 1.7e-06 (esu/cm)" in err

    def test_scan_quiet_with_collective_roots(self, dimless_cfg, tmp_path, capsys):
        assert main(["threshold-scan", "--config", dimless_cfg, "--pump-min", "1",
                     "--pump-max", "1000", "--steps", "3",
                     "--out", str(tmp_path / "scan.csv")]) == 0
        assert capsys.readouterr().err == ""

    def test_bad_scan_range_exits_2(self, dimless_cfg, tmp_path):
        assert main(["threshold-scan", "--config", dimless_cfg,
                     "--pump-min", "10", "--pump-max", "1",
                     "--out", str(tmp_path / "x.csv")]) == 2

    def test_paper_constants_flag(self, tmp_path):
        out = tmp_path / "preset.json"
        assert main(["spectrum", "--paper-constants", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["config"]["params"]["kind"] == "physical"

    @pytest.mark.parametrize("argv", [
        ["spectrum"],
        ["threshold-scan", "--pump-min", "1", "--pump-max", "10"],
    ])
    def test_negative_verdict_tol_exits_2(self, argv, tmp_path, capsys):
        """[run] verdict_tol is an unknown key, refused before any output."""
        cfg = tmp_path / "tol.cfg"
        cfg.write_text(DIMLESS + "verdict_tol = -0.5\n")
        out = tmp_path / "out.txt"
        assert main(argv + ["--config", str(cfg), "--out", str(out)]) == 2
        assert "verdict_tol" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv,message", [
        (["verify-all", "--config", "run.cfg"],
         "unrecognized arguments: --config run.cfg"),
        (["ensemble", "--config", "run.cfg", "--paper-constants"],
         "argument --paper-constants: not allowed with argument --config"),
    ])
    def test_ignored_source_exits_2(self, argv, message, capsys):
        """A config source the run would not read is refused."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

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
        assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        payload = json.loads(out.read_text())
        assert payload["method"] == "polynomial"
        assert "dense_skipped" not in payload
        assert "cross_method_max_gap" not in payload
        assert payload["resonance"] is False

    def test_colliding_pairs_above_dense_cap(self, tmp_path):
        """At kappa = 0 and S = 2.25 one collective pair is a double root at
        mu = -1 on the unit circle; the polynomial route alone reads it to
        roundoff."""
        cfg = tmp_path / "collide.cfg"
        cfg.write_text(_set_keys(DIMLESS, {"n": 600, "kappa": 0, "rescale_alpha_to_s": 2.25}))
        out = tmp_path / "spec.json"
        assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["method"] == "polynomial"
        assert abs(payload["collective_max_abs_mu"] - 1.0) <= 1e-12
        assert payload["resonance"] is False

    def test_both_within_dense_cap_skips_nothing(self, dimless_cfg, tmp_path, capsys):
        out = tmp_path / "spec.json"
        assert main(["spectrum", "--config", dimless_cfg, "--out", str(out)]) == 0
        assert "skipped" not in capsys.readouterr().err
        payload = json.loads(out.read_text())
        assert "dense_skipped" not in payload and payload["method"] == "both"


class TestBadInputs:
    """Inputs that used to end in a traceback exit 2 with a message."""

    @pytest.mark.parametrize("old,new", [
        ("hypothesis = H1\nn = 40", "hypothesis = H1\nn = abc"),
        ("seed = 7", "seed = x"),
        ("rescale_alpha_to_s = 1e-5", "rescale_alpha_to_s = q"),
        ("abs_tol = 1e-12", "abs_tol = 1e-12\nmethod = RK99"),
        ("kappa = 1e-7", "kappa = nan"),
        ("rescale_alpha_to_s = 1e-5", "rescale_alpha_to_s = nan"),
        ("rescale_alpha_to_s = 1e-5", "rescale_alpha_to_s = 1e-5\nactive_volume = -1"),
    ])
    def test_bad_config_value_exits_2(self, old, new, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        assert old in DIMLESS
        cfg.write_text(DIMLESS.replace(old, new))
        out = tmp_path / "traj.csv"
        assert main(["simulate", "--config", str(cfg), "--periods", "0.05",
                     "--out", str(out)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("values,message", [
        ({"conductivity": "inf"}, "conductivity must be finite, got inf"),
        ({"conductivity": "1e300"},
         "kappa = c conductivity/(2 pump_frequency) lies beyond the float range"),
        ({"cavity_dims": "inf, 2, 2"}, "cavity_dims must be finite, got (inf, 2.0, 2.0)"),
        ({"pump_frequency": "1e-300"},
         "kappa = c conductivity/(2 pump_frequency) lies beyond the float range"),
        ({"pump_amplitude": "inf"}, "pump_amplitude must be finite, got inf"),
        ({"dipole_magnitude": "1e300"},
         "a coupling scale of dipole_magnitude, pump_amplitude and pump_frequency "
         "lies beyond the float range"),
        ({"conductivity": "0", "pump_frequency": "1e-300"},
         "2/(pump_frequency hbar) lies beyond the float range"),
        # kappa = 1e200: finite, but the one-period propagator is not
        ({"conductivity": "2e205"},
         "synchronization sum S = 1.51e-24 with kappa = 1e+200 leaves the one-period "
         "propagator non-finite or its field-from-collective block singular; "
         "lower S or kappa"),
        # the desk medium (values naming kappa set DIMLESS): a finite
        # propagator that has lost its sum rule log|det P| = -4 pi kappa
        ({"kappa": "0", "rescale_alpha_to_s": "1e20"},
         "synchronization sum S = 1e+20 with kappa = 0 leaves the one-period "
         "propagator 0.00061 off its sum rule log|det P| = -4 pi kappa; lower S or kappa"),
        ({"kappa": "1e4", "rescale_alpha_to_s": "1e-3"},
         "synchronization sum S = 0.001 with kappa = 1e+04 leaves the one-period "
         "propagator 1.3e+05 off its sum rule log|det P| = -4 pi kappa; lower S or kappa"),
    ])
    def test_physical_value_beyond_float_range_exits_2(self, values, message,
                                                       tmp_path, capsys):
        """Non-finite [physical] values, and values whose kappa, coupling
        scales, S weight or one-period propagator leave the float range or
        its accuracy, are refused by name."""
        cfg = tmp_path / "ruby.cfg"
        cfg.write_text(_set_keys(DIMLESS if "kappa" in values else PHYSICAL, values))
        out = tmp_path / "out.json"
        assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["simulate", "--periods", "1"],
                                      ["poincare", "--mode", "numeric"]])
    def test_stiff_medium_exhausts_the_step_budget(self, argv, tmp_path, capsys,
                                                   monkeypatch):
        """gamma_scale = 1e8 would take about 1e8 steps a period.  The step
        budget, patched low so the test is quick, ends the run with exit 3
        naming the couplings, and nothing is written."""
        monkeypatch.setattr(dynamics, "STEP_BUDGET", 50)
        cfg = tmp_path / "stiff.cfg"
        cfg.write_text(_pumped("1e8"))
        out = tmp_path / "out"
        assert main(argv + ["--config", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: integration exhausted its budget of 50 "
                              "step attempts per period over 1 period(s): max|gamma_n| "
                              "= 9.75e+07 and max|beta_n| = ")
        assert not out.exists()

    def test_unsettled_fixed_point_exits_3(self, tmp_path, capsys, monkeypatch):
        """At pump x3.3e4, q = max delta / |mu - 1| is about 0.1 and each
        collective root needs about five fixed-point steps.  With the cap
        patched to 2 the run exits 3 and writes no half-polished root."""
        monkeypatch.setattr(spectrum, "_FIXED_POINT_STEPS", 2)
        cfg = tmp_path / "pumped.cfg"
        cfg.write_text(_pumped("7.09e-3"))
        out = tmp_path / "spec.json"
        assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith(
            "numeric failure: the collective root near mu = ")
        assert not out.exists()

    @pytest.mark.parametrize("key", ["alpha_scale", "beta_scale"])
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_polynomial_overflow_names_S(self, key, tmp_path, capsys):
        """An unrescaled scale of 1e300 leaves the one-period propagator
        non-finite; the refusal names S and kappa, not the pumping."""
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(_set_keys(DIMLESS.replace("rescale_alpha_to_s = 1e-5\n", ""),
                                 {key: "1e300"}))
        out = tmp_path / "out.json"
        assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()[-1]
        assert err.startswith("error: synchronization sum S = ") and "pumping" not in err
        assert "leaves the one-period propagator non-finite" in err
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_non_finite_report_exits_3(self, tmp_path, capsys):
        """An unrescaled alpha_scale = 1e300 overflows the standard error of
        S.  The JSON report is strict: the run names the value and writes
        nothing."""
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(_set_keys(DIMLESS.replace("rescale_alpha_to_s = 1e-5\n", ""),
                                 {"alpha_scale": "1e300"}))
        out = tmp_path / "out.json"
        assert main(["ensemble", "--config", str(cfg), "--out", str(out)]) == 3
        assert capsys.readouterr().err.splitlines()[-1] == (
            "numeric failure: report.S.std_error is not finite; nothing written")
        assert not out.exists()

    @pytest.mark.parametrize("method,n", [("DOP853", "40"), ("Radau", "1e5")])
    def test_method_key_is_unknown(self, method, n, tmp_path, capsys):
        """DOP853 is the only integrator: naming any method, even that one,
        is an unknown key, rejected before the medium is sampled."""
        cfg = tmp_path / "method.cfg"
        cfg.write_text(DIMLESS.replace("n = 40", f"n = {n}")
                       + f"method = {method}\n")
        out = tmp_path / "out.csv"
        assert main(["simulate", "--config", str(cfg), "--periods", "1",
                     "--out", str(out)]) == 2
        assert "unknown keys in [run]: ['method']" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv,name", [
        (["ensemble"], "out.json"),
        (["ensemble"], "out.csv"),
        (["spectrum"], "out.json"),
        (["poincare", "--mode", "analytic"], "out.json"),
        (["simulate", "--periods", "0.05"], "out.csv"),
        (["threshold-scan", "--pump-min", "1", "--pump-max", "10", "--steps", "2"],
         "out.csv"),
    ])
    def test_unwritable_out_exits_2(self, argv, name, dimless_cfg, tmp_path, capsys):
        out = tmp_path / "missing" / name
        assert main(argv + ["--config", dimless_cfg, "--out", str(out)]) == 2
        assert "cannot write" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["simulate", "--periods", "0"],
        ["simulate", "--periods", "nan"],
        ["simulate", "--periods=-1"],
        ["poincare", "--epsilon", "nan"],
        ["poincare", "--epsilon", "0"],
        ["threshold-scan", "--pump-min", "nan", "--pump-max", "10"],
        ["threshold-scan", "--pump-min", "1", "--pump-max", "inf"],
        ["threshold-scan", "--pump-min=-inf", "--pump-max", "10"],
        # the sampled point has |z_n| up to epsilon, the chart ends at 1/2
        ["poincare", "--epsilon", "0.6"],
        ["poincare", "--epsilon", "1e300"],
        # pumping beyond the polynomial route's range (a key of PUMP_OVERFLOW)
        ["threshold-scan", "--pump-min", "1e14", "--pump-max", "1e15"],
    ])
    @pytest.mark.filterwarnings("error")
    def test_bad_numeric_argument_exits_2(self, argv, dimless_cfg, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert main(argv + ["--config", dimless_cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        if (tuple(argv), DIMLESS) in PUMP_OVERFLOW:
            assert err == PUMP_OVERFLOW[tuple(argv), DIMLESS]
        elif argv[1] == "--epsilon" and float(argv[2]) >= 0.5:
            assert err == ("error: --epsilon must be below 1/2, the chart edge "
                           f"|z| = 1/2, got {float(argv[2])}\n")
        else:
            assert "must be positive and finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("argv,cfg_text", [
        (["simulate", "--periods", "1e300"], DIMLESS),
        (["simulate", "--samples-per-period", "100000000000"], DIMLESS),
        (["threshold-scan", "--pump-min", "1", "--pump-max", "10",
          "--steps", "1000000000000"], DIMLESS),
        # both n keys, which must agree
        (["ensemble"], DIMLESS.replace("n = 40", "n = 1e15")),
        (["ensemble"], DIMLESS.replace("n = 40", "n = 1e300")),
        # pumping beyond the float or the polynomial range (keys of PUMP_OVERFLOW)
        (["spectrum"], _pumped("1e200")),
        (["threshold-scan", "--pump-min", "1e300", "--pump-max", "1e301"], DIMLESS),
        (["spectrum"], _pumped("1e8")),
        (["spectrum"], _pumped("1e152", s="1e4")),
        (["threshold-scan", "--pump-min", "1", "--pump-max", "10"], _pumped("3e152", s="1e4")),
    ])
    def test_oversized_request_exits_2(self, argv, cfg_text, tmp_path, capsys):
        cfg = tmp_path / "big.cfg"
        cfg.write_text(cfg_text)
        out = tmp_path / "out.csv"
        assert main(argv + ["--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        if (tuple(argv), cfg_text) in PUMP_OVERFLOW:
            assert err == PUMP_OVERFLOW[tuple(argv), cfg_text]
        else:
            assert "GiB, above the 8 GiB cap" in err
        assert err.count("\n") == 1 and len(err) < 200, err
        assert not out.exists()

    @pytest.mark.parametrize("suffix", ["csv", "json"])
    def test_ensemble_admission_bounds_the_peak(self, suffix, tmp_path, capsys):
        """`ensemble` is admitted at its report format's measured peak, which
        covers the peak of the run with at most 25 % to spare.  (Below about
        N = 4e4 the sampler's fixed block buffers, 1.5 MB, set the peak.)"""
        n = 50_000
        cfg = tmp_path / "ruby.cfg"
        cfg.write_text(PHYSICAL.replace("n = 30", f"n = {n}"))
        tracemalloc.start()
        try:
            assert main(["ensemble", "--config", str(cfg),
                         "--out", str(tmp_path / f"out.{suffix}")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        estimate = ENSEMBLE_BYTES_PER_MOLECULE[suffix] * n
        assert 0.8 * estimate <= peak <= estimate

    def test_oversized_json_ensemble_exits_2_before_sampling(self, tmp_path, capsys,
                                                             monkeypatch):
        """The JSON report of 1e8 molecules needs 39 GiB, though sampling
        alone (2.3 GiB) is under the cap: refused before anything is drawn."""
        monkeypatch.setattr(config, "sample_ensemble",
                            lambda *args, **kwargs: pytest.fail("sampled"))
        cfg = tmp_path / "big.cfg"
        cfg.write_text(DIMLESS.replace("n = 40", "n = 1e8"))
        out = tmp_path / "out.json"
        assert main(["ensemble", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: an ensemble report of 1e+08 molecules needs 39.1 GiB, above the 8 GiB cap\n")
        assert not out.exists()

    @pytest.mark.parametrize("old,new", [
        ("n = 40\n\n[ensemble]", "n = 40.7\n\n[ensemble]"),
        ("hypothesis = H1\nn = 40", "hypothesis = H1\nn = 40.7"),
        ("seed = 7", "seed = 7.9"),
    ])
    def test_fractional_count_exits_2(self, old, new, tmp_path, capsys):
        cfg = tmp_path / "frac.cfg"
        cfg.write_text(DIMLESS.replace(old, new))
        out = tmp_path / "out.json"
        assert main(["ensemble", "--config", str(cfg), "--out", str(out)]) == 2
        assert "must be a whole number, got" in capsys.readouterr().err
        assert not out.exists()

    def test_count_beyond_int64_exits_2(self, dimless_cfg, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert main(["simulate", "--samples-per-period", str(10 ** 400),
                     "--config", dimless_cfg, "--out", str(out)]) == 2
        assert "< 2**63" in capsys.readouterr().err
