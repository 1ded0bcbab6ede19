"""Paired benchmark runs of two checkouts: a change against its parent.

    python tools/bench_pairs.py --parent DIR --change DIR --workload W \\
        --seeds 801 802 803 [--seconds 40] [--out FILE]

For each seed it runs ``python3 perfbench/run.py --trace 0`` once in each
checkout, one process at a time.  The order alternates from pair to pair
(parent first, then change first), so a drift in the machine's speed falls
on both trees alike.  Single runs on a small shared machine spread by tens of
percent, so compare medians over pairs, never one run with another.

It prints, per end-to-end metric, the median and quartiles over the seeds of
each tree, the change/parent ratio of the medians, and on how many pairs the
change is better, reading the direction from ``BENCHMARK.json`` in the change
checkout.  It also gives the median and quartiles of the per-pair ratios
change/parent: the two runs of a pair share the machine's speed state, which
can switch by about 1.5x between runs, so their ratio cancels it.  A gain is
claimed only when the medians differ by more than the parent's own quartile
spread (``clears_parent_spread``).  It also applies the no-regression gate:
the relative change of the medians, signed so that positive is better
(``relative_gain``), and whether it stays within the metric's ``bound`` from
the same ``BENCHMARK.json`` (``within_bound``: a loss of at most ``bound``).
With ``--out`` it writes both trees' two result lines (the record and the
metrics) of every run to one JSON file.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

TREES = ("parent", "change")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> list:
    """One untraced perfbench run in ``checkout``: its record and result lines."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True,
                          timeout=10 * seconds + 600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{checkout}: perfbench exited {proc.returncode}\n"
                         f"{proc.stderr[-2000:]}")
    return [json.loads(line) for line in lines[-2:]]


def _end_to_end(checkout: Path) -> list:
    """The end-to-end metric entries of the checkout's BENCHMARK.json."""
    path = checkout / "BENCHMARK.json"
    if not path.is_file():
        return []
    return json.loads(path.read_text(encoding="utf-8")).get("end_to_end", [])


def directions(checkout: Path) -> dict:
    """{metric: "higher" or "lower"} from the checkout's BENCHMARK.json."""
    return {m["name"]: m["better"] for m in _end_to_end(checkout)}


def bounds(checkout: Path) -> dict:
    """{metric: largest allowed relative loss} from the same file."""
    return {m["name"]: m["bound"] for m in _end_to_end(checkout) if "bound" in m}


def quartiles(values: list) -> tuple:
    """(first, third) quartile, linearly interpolated as numpy's default."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(runs: dict, better: dict, bound: dict) -> dict:
    """Medians, quartiles, ratios, wins and the gate per metric over paired
    runs.

    ``runs`` maps each tree to its list of [record, result] pairs, in seed
    order; pair i of the parent is compared with pair i of the change.
    """
    results = {tree: [result for _, result in runs[tree]] for tree in TREES}
    names = list(results["parent"][0]["metrics"])
    metrics = {}
    for name in names:
        values = {tree: [r["metrics"][name]["value"] for r in results[tree]]
                  for tree in TREES}
        med = {tree: statistics.median(values[tree]) for tree in TREES}
        quart = {tree: quartiles(values[tree]) for tree in TREES}
        spread = quart["parent"][1] - quart["parent"][0]
        entry = {"unit": results["parent"][0]["metrics"][name]["unit"],
                 "parent": values["parent"], "change": values["change"],
                 "parent_median": med["parent"], "change_median": med["change"],
                 "parent_quartiles": list(quart["parent"]),
                 "change_quartiles": list(quart["change"]),
                 "parent_spread": spread,
                 "clears_parent_spread": abs(med["change"] - med["parent"]) > spread,
                 "ratio": med["change"] / med["parent"] if med["parent"] else None}
        ratios = [c / p for p, c in zip(values["parent"], values["change"]) if p]
        if len(ratios) == len(values["parent"]):
            entry["pair_ratios"] = ratios
            entry["pair_ratio_median"] = statistics.median(ratios)
            entry["pair_ratio_quartiles"] = list(quartiles(ratios))
        if name in better:
            sign = 1.0 if better[name] == "higher" else -1.0
            entry["better"] = better[name]
            entry["change_wins"] = sum(
                1 for p, c in zip(values["parent"], values["change"])
                if sign * (c - p) > 0)
            gain = (sign * (med["change"] - med["parent"]) / med["parent"]
                    if med["parent"] else None)
            entry["relative_gain"] = gain
            if name in bound:
                entry["bound"] = bound[name]
                entry["within_bound"] = None if gain is None else gain >= -bound[name]
        metrics[name] = entry
    return {"pairs": len(results["parent"]),
            "all_correct": all(r["correct"] for tree in TREES for r in results[tree]),
            "metrics": metrics}


def format_summary(summary: dict) -> str:
    """One row per metric: each tree's median [quartiles], the ratio of the
    medians, the per-pair ratios' median [quartiles], the wins, the signed
    relative gain of the medians, whether it is within the bound, and whether
    the medians differ by more than the parent's quartile spread."""
    rows = [f"{summary['pairs']} pair(s), all runs correct: {summary['all_correct']}",
            f"{'metric':<14} {'parent median [q1, q3]':>30} "
            f"{'change median [q1, q3]':>30} {'ratio':>6} "
            f"{'pair ratio [q1, q3]':>22} {'wins':>5} {'gain':>8} "
            f"{'in bound':>12}  > parent spread"]
    for name, m in summary["metrics"].items():
        sides = [f"{m[f'{tree}_median']:.4g} [{m[f'{tree}_quartiles'][0]:.4g}, "
                 f"{m[f'{tree}_quartiles'][1]:.4g}]" for tree in TREES]
        ratio = f"{m['ratio']:.3f}" if m["ratio"] is not None else "-"
        pair = (f"{m['pair_ratio_median']:.3f} [{m['pair_ratio_quartiles'][0]:.3f}, "
                f"{m['pair_ratio_quartiles'][1]:.3f}]" if "pair_ratios" in m else "-")
        wins = (f"{m['change_wins']}/{summary['pairs']}"
                if "change_wins" in m else "-")
        gain = (f"{m['relative_gain']:+.1%}"
                if m.get("relative_gain") is not None else "-")
        gate = (f"{m['within_bound']} ({m['bound']:.0%})"
                if m.get("within_bound") is not None else "-")
        rows.append(f"{name:<14} {sides[0]:>30} {sides[1]:>30} {ratio:>6} "
                    f"{pair:>22} {wins:>5} {gain:>8} {gate:>12}  "
                    f"{m['clears_parent_spread']}")
    return "\n".join(rows)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", type=Path, required=True, help="parent checkout")
    p.add_argument("--change", type=Path, required=True, help="changed checkout")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--seconds", type=float, default=40.0,
                   help="timed op seconds per run")
    p.add_argument("--out", type=Path, help="JSON file for every run's lines")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = {tree: [] for tree in TREES}
    for i, seed in enumerate(args.seeds):
        for tree in (TREES if i % 2 == 0 else TREES[::-1]):
            runs[tree].append(run_once(checkouts[tree], args.workload, seed,
                                       args.seconds))
            result = runs[tree][-1][1]
            print(f"seed {seed} {tree}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                file=sys.stderr, flush=True)
    summary = summarize(runs, directions(checkouts["change"]),
                        bounds(checkouts["change"]))
    print(format_summary(summary))
    if args.out is not None:
        payload = {"workload": args.workload, "seconds": args.seconds,
                   "seeds": args.seeds, "order": "alternating, parent first on even pairs",
                   "summary": summary, **runs}
        args.out.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
