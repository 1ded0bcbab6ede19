"""The CLI exit-code contract: any config and any argv end in exit 0, 2 or 3.

Hypothesis draws a small [dimensionless] or [physical] config whose keys take
usable, non-finite or unparsable values (the [physical] ones near the ruby
constants, or beyond the float range once combined), whose medium is H1 or
H2 with or without a crystal axis (so H1 with an axis and H2 without one are
both refused), and argv numbers that include 0, negatives, NaN and
infinities.  [ensemble] n restates [dimensionless] n unless it is drawn bad.
Sizes (N, --periods, --samples-per-period, --steps) are small or above the
memory cap, so no example allocates much.  `cli.main` runs in-process and
writes only under tmp_path.  An exception escaping `main` fails the test.

KEYS leave huge pumping and a huge beta coupling out: `simulate` and
`poincare` integrate a medium that stiff for about 4 s before
`dynamics.STEP_BUDGET` stops them.  The spectral commands refuse both at
once, so fixed sweeps cover them instead.
"""
import json
import math
from dataclasses import fields

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mblaser.cli import main
from mblaser.config import _ENSEMBLE_KEYS
from mblaser.dynamics import OdeSettings
from mblaser.model import DimensionlessParams, PhysicalParams

#: values no numeric key accepts, or that parse but lie outside every range
BAD = ["nan", "inf", "-inf", "abc", "", "1e", "0x10", "1,2", "--", "-1", "0"]
SPECIAL_FLOATS = [0.0, -1.0, math.nan, math.inf, -math.inf]
#: sizes whose estimated memory is above the 8 GiB cap for any other drawn value
#: (at least one molecule, --periods >= 1e-4, --samples-per-period >= 1)
HUGE_N = ["1e9", "1e15", "1e300"]
HUGE_PERIODS = [1e12, 1e300]
HUGE_SAMPLES = [10 ** 13, 10 ** 18]
HUGE_STEPS = [2 ** 31, 10 ** 12]


def _reals(*values):
    return st.sampled_from([repr(float(v)) for v in values])


def _counts(lo, hi, huge):
    """An integer in [lo, hi], or a size above the memory cap, as text."""
    return st.one_of(st.integers(lo, hi), st.sampled_from(huge)).map(str)


#: (section, key, usable values, extra bad values, required)
KEYS = [
    ("physical", "pump_frequency", _reals(1e15, 3e15, 1e16), ["1e-300"], True),
    ("physical", "pump_amplitude", _reals(0.0, 1.7e-6, 1e-5), [], True),
    ("physical", "dipole_magnitude", _reals(1e-18, 4e-18), ["1e300"], True),
    ("physical", "conductivity", _reals(0.0, 10.0, 100.0), ["1e300"], True),
    ("physical", "cavity_dims", st.sampled_from(["12, 2, 2", "10, 3, 3"]),
     ["0, 2, 2", "inf, 2, 2"], True),
    ("physical", "molecule_count", _reals(1e3, 1e20), [], True),
    ("dimensionless", "kappa", _reals(0.0, 1e-7, 1e-3, 0.05, 0.5), ["1e200"], True),
    ("dimensionless", "alpha_scale", _reals(0.0, 1.155e-23, 1.0), [], True),
    ("dimensionless", "beta_scale", _reals(0.0, 1.824e-2, 1.0), [], True),
    ("dimensionless", "gamma_scale", _reals(0.0, 2.149e-7, 1e-3), [], True),
    ("dimensionless", "n", _counts(1, 8, HUGE_N), ["2.5"], True),
    ("ensemble", "n", _counts(1, 8, HUGE_N), ["2.5"], False),
    ("ensemble", "seed", st.integers(0, 2 ** 40).map(str), ["-3"], False),
    ("ensemble", "mode_index", st.sampled_from(["4, 1, 1", "3, 1, 1", "1, 2, 1"]),
     ["0, 1, 1", "4, 1.5, 1", "4, 1"], False),
    ("ensemble", "rescale_alpha_to_s", _reals(1e-5, 1.0), [], False),
    ("ensemble", "active_volume", _reals(3.4, 48.0), ["100"], False),
    ("ensemble", "hypothesis", st.sampled_from(["H1", "H2"]), ["H3"], False),
    ("ensemble", "crystal_axis", st.sampled_from(["1, 0, 0", "0, 0.6, 0.8"]),
     ["0, 0, 0", "1, 2, x"], False),
    ("run", "rel_tol", _reals(1e-10, 1e-6), ["1"], False),
    ("run", "abs_tol", _reals(1e-12, 1e-8), ["1"], False),
    ("run", "max_step", _reals(1e-2, 1.0, math.inf), [], False),
]


@st.composite
def configs(draw):
    """An INI text of one parameter section in which at most two keys take a
    bad value."""
    kind = draw(st.sampled_from(["dimensionless", "physical"]))
    rows = [row for row in KEYS if row[0] in (kind, "ensemble", "run")]
    bad_keys = draw(st.sets(st.sampled_from([row[:2] for row in rows]), max_size=2))
    sections = {kind: {}, "ensemble": {}, "run": {}}
    for section, key, usable, extra_bad, required in rows:
        if (section, key) in bad_keys:
            # a key's own bad values are drawn as often as all of BAD
            value = draw(st.sampled_from(
                extra_bad if extra_bad and draw(st.booleans()) else BAD))
        elif (section, key) == ("ensemble", "n"):
            # N has one value: restate [dimensionless] n or leave it out.  A
            # [physical] ensemble is always sized, else it samples 1e6 molecules
            if kind == "physical":
                value = draw(usable)
            elif draw(st.booleans()):
                value = sections[kind]["n"]
            else:
                continue
        elif required or draw(st.booleans()):
            value = draw(usable)
        else:
            continue
        sections[section][key] = value
    return "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                   for name, keys in sections.items())


def _real(*finite_range, huge=()):
    return st.one_of(st.sampled_from(SPECIAL_FLOATS + list(huge)),
                     st.floats(*finite_range))


@st.composite
def commands(draw):
    """argv for one subcommand, without --config and --out."""
    kind = draw(st.sampled_from(
        ["ensemble", "spectrum", "poincare", "threshold-scan", "simulate"]))
    if kind == "spectrum":
        argv = ["spectrum"]
    elif kind == "poincare":
        argv = ["poincare", "--mode", "analytic",
                f"--epsilon={draw(_real(1e-8, 1.0))!r}"]
    elif kind == "threshold-scan":
        argv = ["threshold-scan", f"--pump-min={draw(_real(1e-3, 1e3))!r}",
                f"--pump-max={draw(_real(1e3, 1e5))!r}",
                f"--steps={draw(_counts(-1, 3, HUGE_STEPS))}"]
    elif kind == "simulate":
        argv = ["simulate",
                f"--periods={draw(_real(1e-4, 0.05, huge=HUGE_PERIODS))!r}",
                f"--samples-per-period={draw(_counts(-1, 8, HUGE_SAMPLES))}"]
    else:
        argv = ["ensemble"]
    if draw(st.booleans()):
        argv.append(f"--seed={draw(st.integers(-3, 2 ** 40))}")
    suffix = ".csv" if kind in ("simulate", "threshold-scan") or draw(st.booleans()) \
        else ".json"
    return argv, suffix


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cfg_text=configs(), command=commands())
def test_exit_code_contract(cfg_text, command, tmp_path):
    argv, suffix = command
    cfg = tmp_path / "run.cfg"
    cfg.write_text(cfg_text)
    rc = main(argv + ["--config", str(cfg), "--out", str(tmp_path / f"out{suffix}")])
    assert rc in (0, 2, 3)


def test_keys_cover_the_schema():
    """KEYS draws every field of the four schema dataclasses."""
    schema = {(name, f.name) for name, cls in (("physical", PhysicalParams),
                                               ("dimensionless", DimensionlessParams),
                                               ("run", OdeSettings))
              for f in fields(cls)}
    schema |= {("ensemble", key) for key in _ENSEMBLE_KEYS}
    assert {row[:2] for row in KEYS} == schema


PUMP_SWEEP_CONFIG = """\
[dimensionless]
kappa = 1e-7
alpha_scale = 1.155e-23
beta_scale = 1.824e-2
gamma_scale = {gamma_scale}
n = 40

[ensemble]
seed = 7
rescale_alpha_to_s = {s}
"""


@pytest.mark.parametrize("s", ["1e-5", "1e4"])
@pytest.mark.parametrize("gamma_scale",
                         ["1e8", "1e100", "1e152", "3e152", "1e154", "1e200", "1e300"])
@pytest.mark.parametrize("argv", [["spectrum"],
                                  ["threshold-scan", "--pump-min", "1", "--pump-max", "10",
                                   "--steps", "2"]])
@pytest.mark.filterwarnings("error")
def test_pumping_beyond_range_names_the_pump(argv, gamma_scale, s, tmp_path, capsys):
    """Pumping beyond the polynomial route's range or the float range exits 2
    with one line that names the pump, whatever S, and writes nothing."""
    cfg = tmp_path / "pumped.cfg"
    cfg.write_text(PUMP_SWEEP_CONFIG.format(gamma_scale=gamma_scale, s=s))
    out = tmp_path / "out"
    assert main(argv + ["--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: pumping") and err.count("\n") == 1
    assert len(err) < 200 and "synchronization sum" not in err
    assert not out.exists()


BETA_SWEEP_CONFIG = """\
[dimensionless]
kappa = 1e-7
alpha_scale = 1.155e-23
beta_scale = {beta_scale}
gamma_scale = 2.149e-7
n = 40

[ensemble]
seed = 7
rescale_alpha_to_s = 1e-5
"""


@pytest.mark.parametrize("beta_scale", ["1e100", "1e150", "1e154", "1e160", "1e300"])
@pytest.mark.parametrize("argv", [["spectrum"],
                                  ["threshold-scan", "--pump-min", "1", "--pump-max", "10",
                                   "--steps", "2"]])
@pytest.mark.filterwarnings("error")
def test_beta_coupling_beyond_range_names_beta(argv, beta_scale, tmp_path, capsys):
    """A beta coupling whose norm sums b_k = beta_coef^2 m_k stay finite runs
    with strict output; past the float range (from about beta_scale = 2e153
    at N = 40) the run exits 2 with one line that names beta, and writes
    nothing."""
    cfg = tmp_path / "coupled.cfg"
    cfg.write_text(BETA_SWEEP_CONFIG.format(beta_scale=beta_scale))
    out = tmp_path / ("out.json" if argv[0] == "spectrum" else "out.csv")
    rc = main(argv + ["--config", str(cfg), "--out", str(out)])
    err = capsys.readouterr().err
    if float(beta_scale) < 1e153:
        assert rc == 0
        text = out.read_text()
        if argv[0] == "spectrum":
            json.loads(text, parse_constant=pytest.fail)
        else:
            assert not {"nan", "inf"} & set(text.lower().replace(",", " ").split())
    else:
        assert rc == 2
        assert err.startswith("error: beta coupling") and err.count("\n") == 1
        assert len(err) < 200 and "beta_scale" in err
        assert not out.exists()


COUPLING_SWEEP_CONFIG = """\
[dimensionless]
kappa = 1e-7
alpha_scale = {alpha_scale}
beta_scale = {beta_scale}
gamma_scale = 2.149e-7
n = 40

[ensemble]
seed = 7
rescale_alpha_to_s = 1e-5
"""


@pytest.mark.parametrize("alpha_scale,beta_scale", [
    ("1e200", "1e100"), ("1e300", "1.824e-2"), ("1e200", "1e120"), ("1e160", "1e160")])
@pytest.mark.parametrize("argv", [["spectrum"],
                                  ["threshold-scan", "--pump-min", "1", "--pump-max", "10",
                                   "--steps", "2"]])
@pytest.mark.filterwarnings("error")
def test_overflowing_s_before_the_rescale_names_both_scales(argv, alpha_scale, beta_scale,
                                                            tmp_path, capsys):
    """S's terms alpha_n beta_n that stay finite before the rescale run with
    strict output; past the float range the rescale refuses the medium with
    one line that names both scales, and writes nothing."""
    cfg = tmp_path / "coupled.cfg"
    cfg.write_text(COUPLING_SWEEP_CONFIG.format(alpha_scale=alpha_scale,
                                                beta_scale=beta_scale))
    out = tmp_path / ("out.json" if argv[0] == "spectrum" else "out.csv")
    rc = main(argv + ["--config", str(cfg), "--out", str(out)])
    err = capsys.readouterr().err
    if float(alpha_scale) * float(beta_scale) < 1e305:
        assert rc == 0 and err == ""
        assert not {"nan", "inf"} & set(out.read_text().lower().replace(",", " ").split())
    else:
        assert rc == 2
        assert err.startswith("error: alpha and beta couplings") and err.count("\n") == 1
        assert len(err) < 200 and "alpha_scale" in err and "beta_scale" in err
        assert not out.exists()
