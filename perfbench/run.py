"""tsplab benchmark: one workload, one seed, one measured window.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ea-inner-paired --seed 1 --seconds 30 --trace 0

Each pass of the workload runs in a fresh single-threaded interpreter
(child.py), one at a time, importing tsplab from the checkout's `src`.
Passes repeat until --seconds have been used, at least three untraced
passes with --trace 0, and alternating untraced and traced passes
(at least one of each) with --trace 1. Every pass of one seed does the
same work, so its CSV digest must repeat; a pass whose digest differs
counts all its runs as failed. Every end-to-end time is taken at a
reference machine speed measured by the pass's speed probe (see
normalised() and NOTES.md).

The last line of standard output is one JSON object: with --trace 0 the
end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer
metrics. The lines before it give each metric's quartiles and sample
count. A fuller record (quartiles, digest, environment) is appended to
--results, which compare.py reads.
"""

from __future__ import annotations

import argparse
import bisect
import collections
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from child import PROBE_REF_S  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# a run must end within 180 s; stop starting passes well before
_HARD_LIMIT_S = 170.0
# probe samples this far around a piece of work give its speed
_PROBE_WINDOW_S = 0.3
_CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
_LAYERS = ("bench", "experiment", "instance", "geom", "oracle", "tour", "search")


class BenchError(Exception):
    pass


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _ratio(a, b):
    return a / b if b else 0.0


def quartiles(xs) -> tuple[float, float]:
    """First and third quartile, as statistics.quantiles(xs, n=4) gives them."""
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return q1, q3


def output_path(workload: str, seed: int, traced: bool, suffix: str) -> str:
    """Where a pass of this workload and seed writes its CSV or span table."""
    return os.path.join(HERE, "results", f"{workload}-{seed}-{'traced' if traced else 'plain'}{suffix}")


def run_pass(root: str, workload: str, seed: int, traced: bool, deadline: float) -> dict:
    """One pass in a fresh interpreter; its JSON report plus the spawn time."""
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    cmd = [
        sys.executable, os.path.join(HERE, "child.py"),
        "--workload", workload, "--seed", str(seed),
        "--src", os.path.join(root, "src"),
        "--csv", output_path(workload, seed, traced, ".csv"),
        "--trace", "1" if traced else "0",
    ]
    if traced:
        cmd += ["--spans", output_path(workload, seed, traced, ".spans.tsv")]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("no time left for another pass")
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=root, env={**os.environ, **_CHILD_ENV},
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass of {workload} exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"pass of {workload} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    t_end = time.monotonic()
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["t_spawn"] = t_spawn
    out["t_end"] = t_end
    out["traced"] = traced
    return out


def normalised(p: dict) -> dict:
    """A pass's times at the reference speed.

    Each piece of work (interpreter start and import, each instance's
    set-up, each run, the report) loses the probe samples taken inside it
    and is scaled by PROBE_REF_S over the median probe sample from
    _PROBE_WINDOW_S before it to _PROBE_WINDOW_S after it.
    """
    at, took = p["probe_at"], p["probe_took"]
    pieces = [(p["t_spawn"], p["t_imported"]), *p["setup_pieces"],
              *((r["start"], r["start"] + r["seconds"]) for r in p["runs"]), p["report"]]
    raw, norm = [], []
    for t0, t1 in pieces:
        lo, hi = bisect.bisect_left(at, t0), bisect.bisect_left(at, t1)
        busy = t1 - t0 - sum(took[lo:hi])
        window = took[bisect.bisect_left(at, t0 - _PROBE_WINDOW_S):bisect.bisect_left(at, t1 + _PROBE_WINDOW_S)]
        if not window:
            raise BenchError("no speed probe samples around a piece of work")
        raw.append(busy)
        norm.append(busy * PROBE_REF_S / statistics.median(window))
    n_setup = 1 + len(p["setup_pieces"])
    return {
        "wall_s": sum(norm),
        "setup_s": sum(norm[:n_setup]),
        "runs": norm[n_setup:-1],
        "raw_wall_s": sum(raw),
        "raw_setup_s": sum(raw[:n_setup]),
        "raw_runs": raw[n_setup:-1],
        "probe_us": statistics.median(took) * 1e6,
    }


def _end_to_end(plain: list[dict]) -> tuple[dict, dict]:
    """Metric samples (one per pass, or per run for run_s.*) and run-time facts."""
    norm = [normalised(p) for p in plain]
    per_run = [_median(col) for col in zip(*[q["runs"] for q in norm])]
    raw_per_run = [_median(col) for col in zip(*[q["raw_runs"] for q in norm])]
    ordered = sorted(per_run)
    n = len(ordered)
    if n < 11:
        raise BenchError(f"run_s.tail needs at least 11 runs, the workload has {n}")
    tail_rank = n - 10  # 1-based rank with exactly ten runs beyond it
    samples = {
        "wall_s": [q["wall_s"] for q in norm],
        "setup_s": [q["setup_s"] for q in norm],
        "run_s.p50": per_run,
        "run_s.tail": [ordered[tail_rank - 1]],
        "steps_per_s": [_ratio(sum(r["generations"] for r in plain[0]["runs"]), sum(per_run))],
        "peak_rss_mb": [p["maxrss_kb"] / 1024.0 for p in plain],
    }
    facts = {
        "runs": n,
        "run_s.tail_percentile": round(100.0 * tail_rank / n, 2),
        "search_s": sum(raw_per_run),
        "raw": {
            "wall_s": _median([q["raw_wall_s"] for q in norm]),
            "setup_s": _median([q["raw_setup_s"] for q in norm]),
            "run_s.p50": _median(raw_per_run),
            "probe_us": _median([q["probe_us"] for q in norm]),
        },
    }
    return samples, facts


def _per_layer(traced: dict, runs_search_s: float) -> dict[str, float]:
    """Per-layer figures of one traced pass."""
    tr = traced["trace"]
    summary = tr["summary"]

    def stat(name, key):
        return summary.get(name, {}).get(key, 0.0)

    def busy(*names):
        return sum(stat(n, "busy_s") for n in names)

    runs = traced["runs"]
    rls = [r for r in runs if r["cell"] == "rls"]
    ea = [r for r in runs if r["cell"] != "rls"]
    rls_steps = sum(r["generations"] for r in rls)
    no_opt = [r for r in rls if r["no_optimum"]]
    hull_tours = tr["hull_order_tours"]
    out = {
        "cli.import_s": traced["t_imported"] - traced["t_start"],
        "instance.generate_s": busy(*[n for n in summary if n.startswith("instance.generate_")]),
        "instance.validate_s": busy("instance.validate"),
        "instance.dist_matrix_s": busy("instance.distance_matrix"),
        "geom.metrics_s": busy("geom.instance_metrics"),
        "oracle.held_karp_s": busy("oracle.held_karp_optimum"),
        "oracle.held_karp_calls": stat("oracle.held_karp_optimum", "calls"),
        "oracle.hull_order_s": busy("oracle.hull_order_optimum"),
        "oracle.hull_order_tours": hull_tours,
        "oracle.hull_order_tours_per_s": _ratio(hull_tours, busy("oracle.hull_order_optimum")),
        "tour.length_calls": stat("tour.tour_length", "calls"),
        "tour.length_s": busy("tour.tour_length"),
        "tour.canonical_calls": stat("tour.canonical_form", "calls"),
        "tour.canonical_s": busy("tour.canonical_form"),
        "tour.local_opt_calls": stat("tour.is_two_opt_local_optimum", "calls"),
        "tour.local_opt_s": busy("tour.is_two_opt_local_optimum"),
        "search.rls_steps": rls_steps,
        "search.rls_steps_per_s": _ratio(rls_steps, stat("search.run_rls", "self_s")),
        "search.rls_alpha_frac": _ratio(sum(r["alpha_steps"] for r in rls), rls_steps),
        "search.rls_idle_run_frac": _ratio(sum(r["idle"] for r in no_opt), len(no_opt)),
        "search.ea_alpha_frac": _ratio(
            sum(r["alpha_steps"] for r in ea), sum(r["generations"] for r in ea)
        ),
        "rng.draws": tr["rng_draws"],
        "rng.draw_ns": tr["draw_ns"]["next_u64"],
        "rng.randbelow_ns": tr["draw_ns"]["randbelow"],
        "rng.uniform_ns": tr["draw_ns"]["uniform"],
        "rng.search_share": _ratio(tr["rng_draws"] * tr["draw_ns"]["next_u64"] * 1e-9, runs_search_s),
        "experiment.report_s": busy("experiment.write_csv", "experiment.format_summary"),
    }
    for cell in ("two_opt", "mixed", "mu4_lam8"):
        rows = [r for r in ea if r["cell"] == cell]
        out[f"search.ea.{cell}.offspring_per_s"] = _ratio(
            sum(r["offspring"] for r in rows), sum(r["seconds"] for r in rows)
        )
    self_by_layer = collections.Counter()
    for name, row in summary.items():
        self_by_layer[name.split(".", 1)[0]] += row["self_s"]
    for layer in _LAYERS:
        out[f"{layer}.self_s"] = self_by_layer[layer]
    return out


def _environment(root: str) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_sha": _git_sha(root),
        "python": platform.python_version(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
        "child": "one pass at a time, fresh interpreter, single-threaded, BLAS pools pinned to 1",
    }


def _git_sha(root: str):
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except OSError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
                return next((ln.split()[0] for ln in fh if ln.rstrip().endswith(" " + ref)), None)
    except OSError:
        return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--results", default=os.path.join(HERE, "results", "runs.jsonl"),
                    help="JSON-lines file the full record is appended to")
    args = ap.parse_args(argv)

    root = os.getcwd()
    try:
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        if not os.path.isfile(os.path.join(root, "src", "tsplab", "__init__.py")):
            raise BenchError(f"no tsplab sources under {os.path.join(root, 'src')}")
        record = measure(root, args, spec)
    except (BenchError, OSError, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1

    os.makedirs(os.path.dirname(os.path.abspath(args.results)), exist_ok=True)
    with open(args.results, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    for name, m in record["metrics"].items():
        spread = f" q1={m['q1']:.6g} q3={m['q3']:.6g}" if "q1" in m else ""
        print(f"{record['workload']} {name} = {m['value']:.6g} {m['unit']}{spread} samples={m['samples']}")
    for key in ("passes", "runs", "run_s.tail_percentile", "raw", "failed_frac", "csv_sha256", "self_share"):
        if key in record:
            print(f"{record['workload']} {key}: {record[key]}")
    for err in record["errors"]:
        print(f"check failed: {err}")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in record["metrics"].items()},
    }))
    return 0


def measure(root: str, args, spec: dict) -> dict:
    t_begin = time.monotonic()
    deadline = t_begin + _HARD_LIMIT_S
    env = _environment(root)
    modes = [False] if args.trace == 0 else [False, True]
    min_passes = 3 if args.trace == 0 else 2
    passes: list[dict] = []
    while True:
        traced = modes[len(passes) % len(modes)]
        passes.append(run_pass(root, args.workload, args.seed, traced, deadline))
        elapsed = time.monotonic() - t_begin
        longest = max(p["t_end"] - p["t_spawn"] for p in passes)
        if len(passes) >= min_passes and elapsed + longest > args.seconds:
            break

    # determinism: every pass of one seed must write the same CSV bytes
    digests = collections.Counter(p["csv_sha256"] for p in passes)
    reference = digests.most_common(1)[0][0]
    attempted = sum(p["attempted"] for p in passes)
    failed = 0
    errors = []
    for p in passes:
        if p["csv_sha256"] != reference:
            failed += p["attempted"]
            errors.append(f"pass CSV digest {p['csv_sha256'][:12]} differs from {reference[:12]}")
        else:
            failed += p["failed"]
            errors.extend(p["errors"])

    plain = [p for p in passes if not p["traced"]]
    samples, facts = _end_to_end(plain)
    if args.trace == 0:
        wanted = spec["end_to_end"]
    else:
        traced = [p for p in passes if p["traced"]]
        layer_samples = collections.defaultdict(list)
        for p in traced:
            for name, value in _per_layer(p, facts["search_s"]).items():
                layer_samples[name].append(value)
        layer_samples["trace.overhead_s"] = [
            _median([normalised(p)["wall_s"] for p in traced]) - _median(samples["wall_s"])
        ]
        samples = layer_samples
        wanted = spec["per_layer"]

    metrics = {}
    for m in wanted:
        if m["name"] not in samples:
            raise BenchError(f"metric {m['name']} is not measured")
        xs = samples[m["name"]]
        entry = metrics[m["name"]] = {"value": statistics.median(xs), "unit": m["unit"], "samples": len(xs)}
        if len(xs) > 1:
            q1, q3 = quartiles(xs)
            entry.update(q1=q1, q3=q3)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": {**env, "numpy": passes[0]["numpy"]},
        "passes": len(passes),
        "runs": facts["runs"],
        "run_s.tail_percentile": facts["run_s.tail_percentile"],
        "raw": facts["raw"],
        "csv_sha256": reference,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "errors": errors[:10],
        "metrics": metrics,
    }
    if args.trace == 1:
        total = sum(metrics[f"{layer}.self_s"]["value"] for layer in _LAYERS)
        record["self_share"] = {
            layer: round(_ratio(metrics[f"{layer}.self_s"]["value"], total), 3) for layer in _LAYERS
        }
    return record


if __name__ == "__main__":
    sys.exit(main())
