"""sha256 of every CLI output at a fixed seed, for byte-identity checks.

Writes two dimensionless desk configs (the perfbench coupling scales with
N = 40 and N = 300, seed 7, S rescaled to 1e-5), a third at N = 40 with S
rescaled to 1e-3 and a fourth at N = 600 with kappa = 0 and S = 2.25, runs
the subcommands below in this process through
`mblaser.cli.main`, and prints ``sha256  name`` per output; `verify-all`
writes its runtimes to stderr, so its stdout is hashed as it is.  Run it against each checkout and compare the two listings:

    PYTHONPATH=src python tools/cli_digests.py [OUTDIR]

The outputs are kept in OUTDIR when one is given, else in a temporary
directory that is removed.  BLAS runs on one thread unless the environment
already sets the thread count.  Two OUTDIRs written earlier are compared
with

    python tools/cli_digests.py --compare OLD NEW

which prints, for each output whose bytes differ, how many numbers moved and
the largest relative change, or "text differs" when anything other than a
number changed.  The configs, which are inputs, are not compared.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import os
import re
import sys
import tempfile
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

CONFIG = """\
[dimensionless]
kappa = {kappa}
alpha_scale = 1.154700538379252e-23
beta_scale = 0.01824171466633889
gamma_scale = 2.148499210110585e-07
n = {n}

[ensemble]
hypothesis = H1
n = {n}
seed = 7
rescale_alpha_to_s = {s}

[run]
rel_tol = 1e-10
abs_tol = 1e-10
"""

#: (output name, subcommand and its arguments); each source is one of the
#: two S = 1e-5 configs or the ruby preset at seed 7
PER_SOURCE = [
    ("ensemble.json", ["ensemble"]),
    ("simulate.csv", ["simulate", "--periods", "1"]),
    ("poincare.json", ["poincare", "--mode", "both"]),
    ("spectrum.json", ["spectrum"]),
    ("scan.csv", ["threshold-scan", "--pump-min", "10", "--pump-max", "1e4",
                  "--steps", "13"]),
]


def _run(main, argv, out=None) -> str:
    """Run one CLI call; return its stdout, and fail on a nonzero exit
    unless it is `verify-all` naming a failing criterion (exit 3)."""
    argv = argv + (["--out", str(out)] if out is not None else [])
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    if code not in ((0, 3) if argv[0] == "verify-all" else (0,)):
        raise SystemExit(f"mblaser {' '.join(argv)} exited {code}")
    return buf.getvalue()


def digests(outdir: Path):
    from mblaser.cli import main

    sources = {}
    for n in (40, 300):
        path = outdir / f"n{n}.cfg"
        path.write_text(CONFIG.format(n=n, s="1e-5", kappa="1e-7"), encoding="utf-8")
        sources[f"n{n}"] = ["--config", str(path)]
    sources["paper"] = ["--paper-constants", "--seed", "7"]

    names = []
    for label, source in sources.items():
        for suffix, argv in PER_SOURCE:
            names.append(f"{label}.{suffix}")
            _run(main, argv + source, outdir / names[-1])
    # S = 1e-3, where the blocks' S dependence beyond first order decides
    # the verdict: the spectral outputs only
    path = outdir / "n40-s1e-3.cfg"
    path.write_text(CONFIG.format(n=40, s="1e-3", kappa="1e-7"), encoding="utf-8")
    for suffix, argv in PER_SOURCE:
        if argv[0] in ("spectrum", "threshold-scan"):
            names.append(f"n40-s1e-3.{suffix}")
            _run(main, argv + ["--config", str(path)], outdir / names[-1])
    # kappa = 0 and S = 2.25, where the two collective pairs collide (a
    # double root at mu = -1); N = 600 is above the dense cap, so the
    # polynomial route alone gives the verdict
    path = outdir / "n600-k0-s2.25.cfg"
    path.write_text(CONFIG.format(n=600, s="2.25", kappa="0"), encoding="utf-8")
    names.append("n600-k0-s2.25.spectrum.json")
    _run(main, ["spectrum", "--config", str(path)], outdir / names[-1])
    names.append("n40.ensemble.csv")
    _run(main, ["ensemble"] + sources["n40"], outdir / names[-1])

    names.append("verify-integrals.json")
    (outdir / names[-1]).write_text(
        _run(main, ["verify-integrals", "--kappa", "1e-3", "--json"]), encoding="utf-8")
    names.append("verify-all.txt")
    (outdir / names[-1]).write_text(_run(main, ["verify-all"]), encoding="utf-8")

    for name in names:
        yield hashlib.sha256((outdir / name).read_bytes()).hexdigest(), name


#: a decimal number, as the outputs write them (a number inside a name, as
#: in "n300", is matched too, and compares equal)
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def compare(old: Path, new: Path):
    """Yield one line per output that differs between two OUTDIRs."""
    names = {p.name for p in old.iterdir()} | {p.name for p in new.iterdir()}
    for name in sorted(n for n in names if not n.endswith(".cfg")):
        if not ((old / name).is_file() and (new / name).is_file()):
            yield f"{name}: missing in {old if (new / name).is_file() else new}"
            continue
        a, b = ((d / name).read_text(encoding="utf-8") for d in (old, new))
        if a == b:
            continue
        moved = [(float(x), float(y)) for x, y in zip(_NUMBER.findall(a), _NUMBER.findall(b))
                 if float(x) != float(y)]
        # with no number moved, the same values are written otherwise ("1.0", "1.00")
        if _NUMBER.split(a) != _NUMBER.split(b) or not moved:
            yield f"{name}: text differs"
            continue
        worst = max(abs(y - x) / max(abs(x), abs(y)) for x, y in moved)
        yield (f"{name}: {len(moved)} number(s) moved, largest relative change "
               f"{worst:.2g}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--compare"]:
        if len(argv) != 3:
            raise SystemExit("usage: cli_digests.py --compare OLD NEW")
        for line in compare(Path(argv[1]), Path(argv[2])):
            print(line)
        return 0
    with contextlib.ExitStack() as stack:
        if argv:
            outdir = Path(argv[0])
            outdir.mkdir(parents=True, exist_ok=True)
        else:
            outdir = Path(stack.enter_context(tempfile.TemporaryDirectory()))
        for digest, name in digests(outdir):
            print(f"{digest}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
