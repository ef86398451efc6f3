"""One-off checks of the benchmark itself.

    python3 perfbench/selftest.py --seed 1

Run from the root of a checkout. For every workload it checks that the
CSV a benchmark pass writes is byte-identical to what `run_experiment`
(the code behind `tsplab experiment`) writes for the same cells, run
counts and seeds. It checks that Held-Karp and hull-order enumeration
give exactly the same optimum on the oracle-inner instances with
n <= 16. It also reports whether the known RLS finding recorded in
NOTES.md still reproduces; that line is information, not a check.
Exits 1 if a check fails.
"""

from __future__ import annotations

import argparse
import collections
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from run import output_path, run_pass  # noqa: E402
from workloads import WORKLOADS, cells_for  # noqa: E402


def check_rows(workload: str, seed: int) -> bool:
    from tsplab.experiment import ExperimentConfig, run_experiment, write_csv

    out = run_pass(ROOT, workload, seed, traced=False, deadline=time.monotonic() + 600)
    bench_csv = output_path(workload, seed, False, ".csv")
    ref_csv = output_path(workload, seed, False, ".experiment.csv")
    runs_per_cell = collections.Counter(r["cell_index"] for r in out["runs"])
    records = []
    for ci, cell in enumerate(cells_for(workload, seed)):
        params = dict(cell.params)
        cfg = ExperimentConfig(
            family=cell.family, m=cell.m, algorithm=cell.algorithm, budget=cell.budget,
            runs=runs_per_cell[ci], base_seed=cell.base_seed, out=ref_csv,
            n_values=[params["n"]] if "n" in params else [],
            h_values=[params["h"]] if "h" in params else [],
            k_values=[params["k"]] if "k" in params else [],
            mu=cell.mu, lam=cell.lam, mutations=[cell.mutation],
        )
        records.extend(run_experiment(cfg)[0])
    write_csv(records, ref_csv)
    with open(bench_csv, "rb") as a, open(ref_csv, "rb") as b:
        same = a.read() == b.read()
    print(f"{'ok  ' if same else 'FAIL'} {workload} seed {seed}: {len(records)} rows "
          f"{'match' if same else 'differ from'} run_experiment")
    return same


def check_oracles(seed: int) -> bool:
    from tsplab.experiment import make_instance
    from tsplab.oracle import held_karp_optimum, hull_order_optimum

    ok = True
    for cell in cells_for("oracle-inner", seed):
        _, inst = make_instance(cell.family, dict(cell.params), cell.m, cell.instance_seed)
        if inst.n > 16:
            continue
        hk = held_karp_optimum(inst).optimum_value
        ho = hull_order_optimum(inst).optimum_value
        same = hk == ho
        ok &= same
        print(f"{'ok  ' if same else 'FAIL'} oracle-inner n={inst.n}: held_karp {hk!r} hull_order {ho!r}")
    return ok


def report_finding() -> None:
    """generate_grid(32, 1024, 809), run_rls seed 1: idle at a local optimum."""
    from tsplab import generate_grid, run_rls

    inst = generate_grid(32, 1024, 809)
    budget = 10**5
    traj = run_rls(inst, budget, seed=1)
    n, d = inst.n, inst.distance_matrix
    t = [v - 1 for v in traj.final_tour]

    def delta(i0, j0):  # reversal of 0-based slice [i0, j0), as run_rls computes it
        a, b, c, e = t[i0 - 1], t[i0], t[j0 - 1], t[j0 % n]
        return d[a * n + c] + d[b * n + e] - d[a * n + b] - d[c * n + e]

    idle = traj.generations == budget and traj.reached_local_optimum
    print(
        f"info known finding {'reproduces' if idle else 'no longer reproduces'}: "
        f"generations={traj.generations}/{budget} local_optimum={traj.reached_local_optimum} "
        f"delta(2,n)={delta(1, n)!r} delta(1,n-1)={delta(0, n - 1)!r}"
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    ok = True
    for workload in sorted(WORKLOADS):
        ok &= check_rows(workload, args.seed)
    ok &= check_oracles(args.seed)
    report_finding()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
