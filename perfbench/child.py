"""One workload pass in a fresh, single-threaded interpreter.

Started by run.py with the checkout's `src` directory. The pass imports
tsplab, builds every instance with its metrics, distance matrix and
strongest oracle (set-up), runs every cell through `run_single`, writes
the CSV and formats the summary, the calls `tsplab experiment` makes. It
then checks every run and prints one JSON object with its timestamps,
the time of every piece of work (import, each instance's set-up, each
run, the report) and check results. Timestamps are time.monotonic(),
which run.py shares, so the first piece includes interpreter start.

While the pass runs, a SpeedProbe times a fixed pure-Python loop every
20 ms. run.py divides each piece by the loop time measured around it,
which takes out the machine's changing speed (see NOTES.md).

With --trace 1 the pass also records spans (see tracer.py) and reports
per-layer figures; the checks and the trace summary run after the timed
part.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import signal
import sys
import time
from array import array

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, _HERE)

from workloads import cells_for  # noqa: E402

# relative slack of reached_optimum, as in tsplab.search
_OPT_REL_TOL = 1e-12
# how often the probe samples, and the iterations of its reference loop
_PROBE_INTERVAL_S = 0.02
_PROBE_LOOP = 1000
# reference loop time at which normalised times read as seconds; about
# what the loop takes on a quiet 2-vCPU Xeon
PROBE_REF_S = 70e-6


class SpeedProbe:
    """Samples the machine's speed during a pass: a SIGALRM handler times
    the reference loop every _PROBE_INTERVAL_S, taking about 0.4% of the
    pass. run.py subtracts the samples' own time from the pieces."""

    def __init__(self) -> None:
        self.at = array("d")
        self.took = array("d")

    def _sample(self, signum, frame) -> None:
        t0 = time.monotonic()
        s = 0
        for i in range(_PROBE_LOOP):
            s += i * i % 7
        self.at.append(t0)
        self.took.append(time.monotonic() - t0)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, _PROBE_INTERVAL_S, _PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)


def _import_tsplab(src: str):
    sys.path.insert(0, src)
    import tsplab
    import tsplab.cli  # noqa: F401  (the experiment command's import)

    pkg_dir = os.path.dirname(os.path.abspath(tsplab.__file__))
    if os.path.dirname(pkg_dir) != os.path.abspath(src):
        raise SystemExit(f"imported tsplab from {pkg_dir}, not from {src}")
    return tsplab


def _check_run(tour_length, inst, rec, traj, budget) -> list[str]:
    """Invariants every run must satisfy; empty when the run is correct."""
    errors = []
    n = inst.n
    tour = traj.final_tour
    if len(tour) != n or sorted(tour) != list(range(1, n + 1)):
        errors.append("final tour is not a permutation of 1..n")
        return errors
    if rec.final_length != tour_length(inst, tour):
        errors.append("final_length != tour_length(final_tour)")
    if rec.alpha_steps + rec.beta_steps != rec.generations:
        errors.append("alpha_steps + beta_steps != generations")
    if rec.algorithm == "rls":
        expected_evals = 1 + rec.generations
    else:
        expected_evals = rec.mu + rec.lam * rec.generations
    if rec.fitness_evals != expected_evals:
        errors.append(f"fitness_evals {rec.fitness_evals} != {expected_evals}")
    if rec.generations > budget:
        errors.append("generations exceed the budget")
    if (rec.generations, rec.final_length) != (traj.generations, traj.final_length):
        errors.append("record disagrees with its trajectory")
    if rec.reached_optimum:
        opt = rec.optimum_length
        if opt is None or not abs(rec.final_length - opt) <= opt * _OPT_REL_TOL:
            errors.append("reached_optimum but final_length is not the optimum")
    return errors


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--src", required=True)
    ap.add_argument("--csv", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args(argv)

    # monotonic, as run.py's spawn time: piece 0 is interpreter start and import
    clock = time.monotonic
    probe = SpeedProbe()
    probe.start()
    t_start = clock()
    tsplab = _import_tsplab(args.src)
    t_imported = clock()
    import numpy

    E = tsplab.experiment
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        span = tracer.span
    else:
        nospan = contextlib.nullcontext()

        def span(name):
            return nospan

    # run_single drops the final tour; keep each run's Trajectory for the checks
    trajectories = []

    def keep(fn):
        def call(*args, **kwargs):
            traj = fn(*args, **kwargs)
            trajectories.append(traj)
            return traj
        return call

    E.run_rls = keep(E.run_rls)
    E.run_ea = keep(E.run_ea)

    cells = cells_for(args.workload, args.seed)
    root = span("bench.pass")
    root.__enter__()

    # set-up: every instance, its metrics, distance matrix and optimum
    instances = {}
    setup_pieces = []  # (start, end) of each instance's set-up
    for cell in cells:
        if cell.instance_key in instances:
            continue
        t0 = clock()
        with span("experiment.make_instance"):
            iid, inst = E.make_instance(cell.family, dict(cell.params), cell.m, cell.instance_seed)
        inst.metrics
        with span("instance.distance_matrix"):
            inst.distance_matrix
        with span("experiment.strongest_oracle"):
            res = E.strongest_oracle(inst)
        instances[cell.instance_key] = (iid, inst, None if res is None else res.optimum_value)
        setup_pieces.append((t0, clock()))
    # instance generators draw from the RNG too; count only the runs' draws
    setup_draws = tracer.rng_draws[0] if tracer is not None else 0

    records = []
    runs = []  # (cell index, start, end)
    for ci, cell in enumerate(cells):
        iid, inst, optimum = instances[cell.instance_key]
        used = 0
        r = 0
        while (cell.runs is not None and r < cell.runs) or (
            cell.gens_allowance is not None and used < cell.gens_allowance
        ):
            t0 = clock()
            with span("experiment.run_single"):
                rec = E.run_single(
                    inst, iid, cell.algorithm, cell.mu, cell.lam, cell.mutation, cell.budget,
                    cell.base_seed + r, optimum,
                )
            runs.append((ci, t0, clock()))
            records.append(rec)
            used += rec.generations
            r += 1

    t0 = clock()
    with span("experiment.write_csv"):
        E.write_csv(records, args.csv)
    with span("experiment.format_summary"):
        E.format_summary(records)
    report = (t0, clock())
    root.__exit__(None, None, None)
    probe.stop()
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    # checks, outside the timed part; tsplab.tour's own binding is never wrapped
    tour_length = tsplab.tour.tour_length
    failed = 0
    errors = []
    if len(trajectories) != len(records):
        failed = len(records)
        errors.append("trajectory capture lost runs")
    else:
        for (ci, _, _), rec, traj in zip(runs, records, trajectories):
            cell = cells[ci]
            errs = _check_run(tour_length, instances[cell.instance_key][1], rec, traj, cell.budget)
            if errs:
                failed += 1
                errors.append(f"{rec.instance_id} seed {rec.seed}: {'; '.join(errs)}")
    with open(args.csv, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()

    out = {
        "t_start": t_start,
        "t_imported": t_imported,
        "setup_pieces": setup_pieces,
        "report": report,
        "probe_at": probe.at.tolist(),
        "probe_took": probe.took.tolist(),
        "maxrss_kb": maxrss_kb,
        "numpy": numpy.__version__,
        "csv_sha256": digest,
        "attempted": len(records),
        "failed": failed,
        "errors": errors[:5],
        "runs": [
            {
                "cell_index": ci,
                "cell": cells[ci].label,
                "n": rec.n,
                "start": t0,
                "seconds": t1 - t0,
                "generations": rec.generations,
                "offspring": rec.generations * (1 if rec.algorithm == "rls" else rec.lam),
                "alpha_steps": rec.alpha_steps,
                "idle": rec.algorithm == "rls"
                and rec.optimum_length is None
                and rec.generations == cells[ci].budget
                and bool(rec.reached_local_optimum),
                "no_optimum": rec.optimum_length is None,
            }
            for (ci, t0, t1), rec in zip(runs, records)
        ],
    }
    if tracer is not None:
        out["trace"] = {
            "spans": len(tracer.start),
            "summary": tracer.summary(),
            "hull_order_tours": tracer.count_children("tour.tour_length", "oracle.hull_order_optimum"),
            "rng_draws": tracer.rng_draws[0] - setup_draws,
            "draw_ns": _draw_ns(tsplab.rng.Xoshiro256StarStar),
        }
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(out))
    return 0


def _draw_ns(rng_class) -> dict[str, float]:
    """Standalone cost of one RNG call, median of five blocks, in ns."""
    rng = rng_class(12345)
    calls = {
        "next_u64": (rng.next_u64, ()),
        "randbelow": (rng.randbelow, (66,)),
        "uniform": (rng.uniform, ()),
    }
    out = {}
    block = 50_000
    for name, (fn, fargs) in calls.items():
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            for _ in range(block):
                fn(*fargs)
            times.append((time.perf_counter() - t0) / block * 1e9)
        out[name] = sorted(times)[2]
    return out


if __name__ == "__main__":
    sys.exit(main())
