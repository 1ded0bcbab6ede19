"""The CLI exit-code contract: any config and any argv end in exit 0, 2 or 3.

Hypothesis draws a small dimensionless config whose numeric keys take finite,
non-finite or unparsable values, whose medium is H1 or H2 with or without a
crystal axis (so H1 with an axis and H2 without one are both refused), and
argv numbers that include 0, negatives, NaN and infinities.  Sizes (N, --periods, --samples-per-period, --steps) are
small or above the memory cap, so no example allocates much.  `cli.main` runs
in-process and writes only under tmp_path.
An exception escaping `main` fails the test.
"""
import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mblaser.cli import main

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
    ("dimensionless", "kappa", _reals(0.0, 1e-7, 1e-3), ["0.5"], True),
    ("dimensionless", "alpha_scale", _reals(0.0, 1.155e-23, 1.0), [], True),
    ("dimensionless", "beta_scale", _reals(0.0, 1.824e-2, 1.0), [], True),
    ("dimensionless", "gamma_scale", _reals(0.0, 2.149e-7, 1e-3), [], True),
    ("dimensionless", "n", _counts(1, 8, HUGE_N), ["2.5"], True),
    ("ensemble", "n", _counts(1, 8, HUGE_N), ["2.5"], False),
    ("ensemble", "seed", st.integers(0, 2 ** 40).map(str), ["-3"], False),
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
    """An INI text in which at most two keys take a bad value."""
    bad_keys = draw(st.sets(st.integers(0, len(KEYS) - 1), max_size=2))
    sections = {"dimensionless": [], "ensemble": [], "run": []}
    for i, (section, key, usable, extra_bad, required) in enumerate(KEYS):
        if i in bad_keys:
            value = draw(st.sampled_from(BAD + extra_bad))
        elif required or draw(st.booleans()):
            value = draw(usable)
        else:
            continue
        sections[section].append(f"{key} = {value}")
    return "".join(f"[{name}]\n" + "".join(line + "\n" for line in lines)
                   for name, lines in sections.items())


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
