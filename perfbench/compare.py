"""Compare two commits on the benchmark.

    python3 perfbench/compare.py pairs --parent DIR --change DIR --workload W \\
        --seeds 1-10 --out OUTDIR
    python3 perfbench/compare.py verdict OUTDIR/parent.jsonl OUTDIR/change.jsonl

`pairs` runs this copy of run.py in both checkouts on the same seeds,
alternating which side goes first, for BENCHMARK.json's run_seconds, so
both sides are measured with identical benchmark code and settings. It
appends the records to OUTDIR/parent.jsonl and OUTDIR/change.jsonl.

`verdict` pairs the untraced records of the two files by workload and
seed and judges every end-to-end metric of BENCHMARK.json on every
workload:

- improved: the change wins at least 9/10 of at least ten pairs (ties
  count for neither) and its median beats the parent's by more than the
  parent's interquartile range;
- unchanged: otherwise, when the change's median is no worse than the
  parent's by more than the metric's bound, or every change run beats
  every parent run;
- unresolved: the parent's own spread (IQR / median) exceeds the bound;
- worse: the change's median is worse than the parent's by more than
  the bound.

A CSV digest that differs between the commits for the same workload and
seed is reported as "trajectory moved": the seeded runs no longer follow
the same path. It is a flag, not a failure.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import quartiles  # noqa: E402

WIN_SHARE = 0.9
MIN_PAIRS = 10


def _load(path: str) -> dict[tuple[str, int], dict]:
    """Last untraced record per (workload, seed)."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            if rec["trace"] == 0:
                out[(rec["workload"], rec["seed"])] = rec
    return out


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(s) for s in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def judge(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """Verdict for one metric on one workload from seed-paired values."""
    sign = 1.0 if better == "higher" else -1.0
    gains = [sign * (c - p) for p, c in zip(parent, change)]
    wins = sum(g > 0 for g in gains)
    pm = statistics.median(parent)
    cm = statistics.median(change)
    q1, q3 = quartiles(parent) if len(parent) > 1 else (pm, pm)
    gain = sign * (cm - pm)
    if len(gains) >= MIN_PAIRS and wins >= WIN_SHARE * len(gains) and gain > q3 - q1:
        return "improved"
    if min(sign * c for c in change) > max(sign * p for p in parent):
        return "unchanged"
    if (q3 - q1) > bound * abs(pm):
        return "unresolved"
    if -gain > bound * abs(pm):
        return "worse"
    return "unchanged"


def verdict(parent_path: str, change_path: str, spec: dict) -> int:
    parent = _load(parent_path)
    change = _load(change_path)
    keys = sorted(set(parent) & set(change))
    if not keys:
        print("no workload and seed is in both files", file=sys.stderr)
        return 1
    for workload in sorted({w for w, _ in keys}):
        seeds = [s for w, s in keys if w == workload]
        print(f"{workload}: {len(seeds)} seed-paired runs, seeds {seeds}")
        for m in spec["end_to_end"]:
            p = [parent[(workload, s)]["metrics"][m["name"]]["value"] for s in seeds]
            c = [change[(workload, s)]["metrics"][m["name"]]["value"] for s in seeds]
            pm, cm = statistics.median(p), statistics.median(c)
            v = judge(p, c, m["better"], m["bound"])
            print(
                f"  {m['name']:<12} {v:<10} change/parent = {cm:.6g}/{pm:.6g} {m['unit']} "
                f"= {cm / pm:.4f} (bound {m['bound']}, {m['better']} is better)"
            )
        moved = [
            s for s in seeds
            if parent[(workload, s)]["csv_sha256"] != change[(workload, s)]["csv_sha256"]
        ]
        if moved:
            print(f"  trajectory moved: CSV digests differ on seeds {moved}")
        else:
            print("  trajectories identical: CSV digests match on every seed")
    return 0


def pairs(args, seconds: int) -> int:
    os.makedirs(args.out, exist_ok=True)
    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    run = os.path.join(HERE, "run.py")
    for workload in args.workload:
        for i, seed in enumerate(_seeds(args.seeds)):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                cmd = [
                    sys.executable, run, "--workload", workload, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", "0",
                    "--results", os.path.join(os.path.abspath(args.out), f"{side}.jsonl"),
                ]
                proc = subprocess.run(cmd, cwd=sides[side], stdout=subprocess.PIPE, text=True)
                if proc.returncode != 0:
                    print(f"{side} {workload} seed {seed} failed", file=sys.stderr)
                    return 1
                print(f"{side} {workload} seed {seed}: {proc.stdout.strip().splitlines()[-1]}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("pairs", help="run both checkouts on the same seeds, alternating")
    p.add_argument("--parent", required=True, help="checkout of the parent commit")
    p.add_argument("--change", required=True, help="checkout of the change")
    p.add_argument("--workload", required=True, action="append")
    p.add_argument("--seeds", default="1-10", help="'1-10' or '3,5,8'")
    p.add_argument("--out", required=True, help="directory for parent.jsonl and change.jsonl")
    v = sub.add_parser("verdict", help="judge two result files")
    v.add_argument("parent")
    v.add_argument("change")
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.mode == "verdict":
        return verdict(args.parent, args.change, spec)
    return pairs(args, spec["run_seconds"])


if __name__ == "__main__":
    sys.exit(main())
