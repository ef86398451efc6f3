"""Fault injection for the test suite: a table of one-edit mutants of the
package, each run against the whole Tier-1 suite.

    python tests/mutants.py [--root DIR] [--out FILE]

Run it from anywhere; --root is the tree whose src/ and tests/ are used
(default: the tree this file is in). pytest does not collect this file (it
is not named test_*.py). For each mutant the script copies the tree into a
temporary directory, makes the one edit, and runs the suite there without
-x, so every test that fails is known. It runs in two pytest calls, each
with its own time limit: every module but the acceptance criteria, then
tests/test_acceptance.py, so a mutant that makes the criteria hang still
has the other tests that kill it named. The unmutated copy runs first: a
test failing there (criterion 6, which checks a false claim) kills no
mutant.

It writes FILE (default MUTANTS.json in the root): per mutant, the tests
that kill it; per test, the mutants that only it kills; and the
behaviour-changing mutants that survive. Running it with --root on
another tree (say, before a test edit) and comparing the two files'
survivor lists shows whether an edit lets a mutant newly survive.

A mutant names a file; if its old text has moved to another module of
the package, the module that holds it exactly once is used. A mutant
whose old text is in no module is reported as not applicable.

Cost: each mutant is one full suite, two to three minutes on a shared
2-vCPU machine, so the whole table is a background job of over an hour
(37 mutants took 71 minutes).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # under src/tsplab
    old: str  # must occur exactly once in the file
    new: str
    breaks: str
    equivalent: bool = False  # no seeded output can change


MUTANTS = [
    # RLS and the marks
    Mutant(
        "rls-rejects-ties", "search.py", "if delta > 0.0:", "if delta >= 0.0:",
        "RLS rejects a step whose float delta is exactly 0",
    ),
    Mutant(
        "near-cycle-preserving", "search.py", "if j0 - i0 < n - 1:  #", "if j0 - i0 < n - 2:  #",
        "RLS treats (1, n-2), (2, n-1) and (3, n) as cycle-preserving: no witness update, marks kept",
    ),
    Mutant(
        "skip-one-more", "search.py",
        "rng.skip(end if kept is None else int(kept[end - 1]) + 1 if end else k)",
        "rng.skip(1 + (end if kept is None else int(kept[end - 1]) + 1 if end else k))",
        "RLS consumes one word too many per round",
    ),
    Mutant(
        "certify-every-2n2", "search.py", "certify_every = n * n", "certify_every = 2 * n * n",
        "RLS certifies a local optimum every 2n^2 accepted steps",
    ),
    Mutant(
        "marks-one-step-later", "search.py", "marks_at = step + batch_after", "marks_at = step + batch_after + 1",
        "RLS marks a cycle one step after its threshold; trajectories are unchanged",
        equivalent=True,
    ),
    Mutant(
        "marks-strict", "tour.py",
        "marks.append(edges.take(a) + edges.take(c) >= (ac + be) * _SHRINK)",
        "marks.append(edges.take(a) + edges.take(c) > (ac + be) * _SHRINK)",
        "the marks use > for >=; the margin proof has slack, so no mark that matters moves",
        equivalent=True,
    ),
    Mutant(
        "reflection-rows-swapped", "tour.py", "(-2, -1, -3)", "(-1, -2, -3)",
        "marks follow the full reversal through (2, n)'s row and back",
    ),
    Mutant(
        "reflection-keeps-cycle-preserving-lookups", "tour.py",
        "table[:, span >= n - 1] = pairs[span == n]", "pass",
        "a reflected cycle-preserving pair reads an unfilled entry of the index",
    ),
    Mutant(
        "reflection-names-second-index", "tour.py",
        "for rows in (slice(n - 1, None), slice(None, n - 1)):",
        "for rows in (slice(None, n - 1), slice(n - 1, None)):",
        "a pair listed twice is named by (j+1, n), not (1, j); both carry the same mark",
        equivalent=True,
    ),
    Mutant(
        "local-opt-scans-row-1", "tour.py",
        "    for i0 in range(1, n - 1):\n"
        "        a_row = perm[i0 - 1] * n\n"
        "        b_row = perm[i0] * n\n"
        "        d_ab = edge[i0 - 1]\n"
        "        # j0 = n-1 is (i, n); skip (2, n)\n"
        "        stop = n - 1 if i0 == 1 else n\n",
        "    for i0 in range(n - 1):\n"
        "        a_row = perm[i0 - 1] * n\n"
        "        b_row = perm[i0] * n\n"
        "        d_ab = edge[i0 - 1]\n"
        "        # j0 = n-1 is (i, n); skip (2, n)\n"
        "        stop = n - 1 if i0 == 1 else n - 2 if i0 == 0 else n\n",
        "is_two_opt_local_optimum scans the pairs (1, j) again, which (j+1, n) already price",
        equivalent=True,
    ),
    # the EA
    Mutant(
        "optimum-below-a-tour-accepted", "search.py",
        "    if length - optimum_value < -tol:\n        raise",
        "    if False:\n        raise",
        "an optimum value above a found tour passes silently",
    ),
    Mutant(
        "ea-stops-below-the-optimum-only", "search.py", "best[0] <= opt_hi and", "best[0] < optimum_value and",
        "run_ea does not stop at a best tour that matches the optimum value",
    ),
    Mutant(
        "ea-margin-2^-70", "search.py", "return 2.0**-50 * max(d) * (n + 8)", "return 2.0**-70 * max(d) * (n + 8)",
        "the EA prefilter margin is too small: children within the float error are dropped",
    ),
    Mutant(
        "ea-drops-tied-children", "search.py",
        "offspring.append((_fsum_length(d, n, child), 0, next_idx, tuple(child)))",
        "offspring.append((_fsum_length(d, n, child), 2, next_idx, tuple(child)))",
        "fitness ties prefer parents, so a tied child never enters the population",
    ),
    Mutant(
        "ea-bar-strict", "search.py", "if est > worst + reps * unit:", "if est >= worst + reps * unit:",
        "a child whose estimate equals the bar, worst + reps * unit, is priced out",
    ),
    Mutant(
        "ea-last-inversion-not-made", "search.py",
        "                lst = list(tour)\n            lst[i0:j0] = lst[i0:j0][::-1]\n",
        "                lst = list(tour)\n",
        "a child that passes the bar lacks its last inversion",
    ),
    Mutant(
        "ea-last-jump-not-made", "search.py",
        "        if not inversions:\n            lst.insert(q, v)\n",
        "        if not inversions:\n            pass\n",
        "a child that passes the bar lacks the element its last jump took out",
    ),
    Mutant(
        "ea-standing-best-not-reclassified", "search.py",
        "if pop[0] is not best:\n                    break", "if False:\n                    break",
        "a standing population's first sort moves the best to a tied tour, which is never classified",
    ),
    Mutant(
        "mixed-branch-0.45", "search.py", "half = 1 << 63", "half = int(0.45 * 2**64)",
        "the mixed mutation inverts with probability 0.45",
    ),
    Mutant(
        "pair-retry-off", "search.py", "pair_limit = two64 - two64 % npairs", "pair_limit = two64",
        "the EA takes a pair word over the rejection limit instead of drawing again",
    ),
    Mutant(
        "jump-retry-off", "search.py", "jump_limit = two64 - two64 % njumps", "jump_limit = two64",
        "the EA takes a jump word over the rejection limit instead of drawing again",
    ),
    Mutant(
        "parent-retry-off", "search.py", "mu_limit = (1 << 64) - (1 << 64) % mu", "mu_limit = 1 << 64",
        "the EA takes a parent word over the rejection limit instead of drawing again",
    ),
    # the oracles
    Mutant(
        "near-tie-1.0", "oracle.py", "_NEAR_TIE = 1.0 + 1e-9", "_NEAR_TIE = 1.0",
        "the oracles confirm only tours whose float length is at most the block minimum",
    ),
    # input checks
    Mutant(
        "rls-accepts-budget-0", "search.py", "if budget < 1:", "if budget < 0:",
        "run_rls and run_ea run with a budget of 0 (their one start check)",
    ),
    Mutant(
        "ea-accepts-mu-or-lambda-0", "search.py", "if mu < 1 or lam < 1:", "if mu < 1 and lam < 1:",
        "run_ea takes mu or lambda below 1 when the other is not",
    ),
    Mutant(
        "ea-accepts-unknown-mutation", "search.py", "if mutation not in MUTATIONS:", "if mutation is None:",
        "run_ea runs an unknown mutation name as two_opt",
    ),
    Mutant(
        "grid-accepts-n-2", "instance.py", "    _check_side(m)\n    if n < 3:", "    _check_side(m)\n    if n < 2:",
        "generate_grid draws two points before anything rejects them",
    ),
    Mutant(
        "grid-accepts-side-2", "instance.py", "if m < 3:", "if m < 2:",
        "generate_grid draws on a 2 x 2 grid",
    ),
    Mutant(
        "inner-accepts-k-negative", "instance.py", "if k < 0:", "if k < -1:",
        "generate_with_inner takes k = -1",
    ),
    Mutant(
        "inner-headroom-short", "instance.py", "if m < 8 * h:", "if m < 8 * h - 1:",
        "generate_with_inner takes m = 8h - 1",
    ),
    Mutant(
        "placement-budget-late", "instance.py",
        'if draws >= RETRY_BUDGET:\n            raise GenerationExhaustedError(f"could not place {what}',
        'if draws > RETRY_BUDGET:\n            raise GenerationExhaustedError(f"could not place {what}',
        "_place_points makes one candidate more than its budget",
    ),
    Mutant(
        "convex-budget-late", "instance.py",
        "if draws >= RETRY_BUDGET:\n            raise GenerationExhaustedError(\n",
        "if draws > RETRY_BUDGET:\n            raise GenerationExhaustedError(\n",
        "_convex_instance makes one draw more than its budget",
    ),
    Mutant(
        "convex-keeps-off-hull", "instance.py",
        "bad = next((i for i in range(n) if i + 1 not in hull), None)", "bad = None",
        "the convex generator returns a configuration with a point off the hull",
    ),
    Mutant(
        "collinear-redraws-middle", "instance.py", "bad = exc.labels[2] - 1", "bad = exc.labels[1] - 1",
        "the convex generator redraws the middle point of a collinear triple",
    ),
    Mutant(
        "jump-range-0", "tour.py", "1 <= j <= n):", "0 <= j <= n):",
        "apply_jump takes position 0 as a target",
    ),
    Mutant(
        "target-unchecked", "oracle.py", "if not respects_hull_order(instance, target):", "if False:",
        "jumps_to_optimum takes a target that breaks hull order",
    ),
    Mutant(
        "unknown-algorithm-accepted", "experiment.py", 'if algorithm not in ("rls", "ea"):', "if algorithm is None:",
        "parse_config takes an unknown algorithm",
    ),
]


def locate(package: Path, mutant: Mutant):
    """The module of `package` to edit, or None: the named one if it holds
    the old text exactly once, else the one other module that does."""
    named = package / mutant.file
    if named.read_text(encoding="utf-8").count(mutant.old) == 1:
        return named
    holders = [p for p in sorted(package.glob("*.py")) if p.read_text(encoding="utf-8").count(mutant.old) == 1]
    return holders[0] if len(holders) == 1 else None


# Seconds each of a suite's two pytest calls may take before the mutant
# counts as killed by a hang; an unmutated suite takes two to three minutes.
TIMEOUT = 900.0
# run in its own pytest call after the other modules: a mutant that hangs
# the acceptance criteria still records the fast tests that kill it
LAST = "tests/test_acceptance.py"


def run_suite(tree: Path):
    """The failing test ids of the suite in `tree` (a part that timed out
    counts as one failing id, "<part> (timed out)"), its summary line, and
    the seconds it took."""
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", "--continue-on-collection-errors"]
    start = time.monotonic()
    failed = set()
    summaries = []
    for part, args in (("tests", ["--ignore", LAST]), (LAST, [LAST])):
        try:
            r = subprocess.run(cmd + args, cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            failed.add(f"{part} (timed out)")
            summaries.append("timed out")
            continue
        for line in r.stdout.splitlines():
            if line.startswith(("FAILED ", "ERROR ")):
                failed.add(line.split(" ", 1)[1].split(" - ", 1)[0])
        lines = r.stdout.strip().splitlines()
        summaries.append(lines[-1].strip("= ") if lines else "")
        if "INTERNALERROR" in r.stdout:
            summaries[-1] += " (INTERNALERROR: failures may be missing)"
    return failed, "; ".join(summaries), time.monotonic() - start


def copy_tree(root: Path, dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache", "*.pyc")
    for part in ("src", "tests", "configs"):
        shutil.copytree(root / part, dest / part, ignore=ignore)
    shutil.copy2(root / "pyproject.toml", dest / "pyproject.toml")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1])
    parser.add_argument("--out", type=Path, help="output file (default ROOT/MUTANTS.json)")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    out = args.out or root / "MUTANTS.json"
    started = time.monotonic()
    results = []
    with tempfile.TemporaryDirectory(prefix="tsplab-mutants-") as tmp:
        base = Path(tmp) / "base"
        copy_tree(root, base)
        baseline, base_summary, seconds = run_suite(base)
        if any(f.endswith("(timed out)") for f in baseline):
            print(f"the unmutated suite timed out: {base_summary}", file=sys.stderr)
            return 1
        print(f"unmutated: {base_summary}, {seconds:.0f} s", flush=True)
        for mutant in MUTANTS:
            tree = Path(tmp) / "mutant"
            shutil.copytree(base, tree)
            target = locate(tree / "src" / "tsplab", mutant)
            entry = dict(asdict(mutant), file=None if target is None else target.name)
            del entry["old"], entry["new"]
            if target is None:
                entry.update(applicable=False, killed_by=[], summary="", seconds=0.0)
            else:
                target.write_text(target.read_text(encoding="utf-8").replace(mutant.old, mutant.new), encoding="utf-8")
                failed, summary, seconds = run_suite(tree)
                killed_by = sorted(failed - baseline)
                entry.update(applicable=True, killed_by=killed_by, summary=summary, seconds=round(seconds, 1))
            shutil.rmtree(tree)
            results.append(entry)
            print(f"{mutant.name}: {len(entry['killed_by'])} killing tests ({entry['summary']}), {entry['seconds']} s", flush=True)
    only_killer: dict[str, list[str]] = {}
    for entry in results:
        if len(entry["killed_by"]) == 1:
            only_killer.setdefault(entry["killed_by"][0], []).append(entry["name"])
    report = {
        "python": sys.version.split()[0],
        "seconds": round(time.monotonic() - started, 1),
        "unmutated": base_summary,
        "unmutated_failures": sorted(baseline),
        "mutants": results,
        "only_killer": dict(sorted(only_killer.items())),
        "surviving_behaviour_changes": [
            e["name"] for e in results if e["applicable"] and not e["killed_by"] and not e["equivalent"]
        ],
    }
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}: {len(report['surviving_behaviour_changes'])} behaviour-changing survivors", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
