"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s`. Every tolerance is
pinned here. Criterion 6 is expected to fail: the underlying claim
(improving inversions preserve crossing-freeness) is false, with an
exact-arithmetic counterexample pinned in tests/test_tour.py. See the
README's "Known red acceptance criterion" note.
"""

import math
import statistics
import subprocess
import sys
import time

import pytest

from tsplab import (
    apply_inversion,
    apply_jump,
    canonical_form,
    generate_convex,
    generate_grid,
    generate_with_inner,
    grid_angle_lower_bound,
    is_intersection_free,
    jump_as_inversions,
    respects_hull_order,
    run_ea,
    run_rls,
    tour_length,
)
from tsplab.errors import GenerationExhaustedError
from tsplab.geom import cos_ratio
from tsplab.oracle import (
    brute_force_optimum,
    enumerate_intersection_free,
    held_karp_optimum,
    hull_order_optimum,
    interleaving_count,
    jumps_to_optimum,
)
from tsplab.rng import Xoshiro256StarStar
from tsplab.search import mutation_statistics

from conftest import cli_env, inversion_pairs, random_tour


def report(cid: int, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {cid}: {detail}")


@pytest.fixture(scope="session")
def small_inner_instances():
    """Shared set for criteria 3, 4, 5b, 6: n <= 9, k <= 2, 36 instances."""
    out = []
    for h in (4, 5, 6, 7):
        for k in (0, 1, 2):
            for s in range(3):
                seed = 9000 + 100 * h + 10 * k + s
                out.append(generate_with_inner(h, k, 256, seed))
    return out


def test_c01_oracle_agreement():
    started = time.time()
    count = 0
    seed = 10000
    violations = 0
    while count < 100:
        n = 5 + count % 7
        inst = generate_grid(n, 64, seed)
        seed += 1
        if interleaving_count(inst) > 10**6:
            continue  # outside hull_order_optimum's stated budget
        count += 1
        b = brute_force_optimum(inst)
        hk = held_karp_optimum(inst)
        ho = hull_order_optimum(inst)
        if not (b.optimum_value == hk.optimum_value == ho.optimum_value):
            violations += 1
        if not (
            tour_length(inst, b.optimum_tour)
            == tour_length(inst, hk.optimum_tour)
            == tour_length(inst, ho.optimum_tour)
            == b.optimum_value
        ):
            violations += 1
    elapsed = time.time() - started
    ok = violations == 0 and elapsed < 120.0
    report(1, ok, f"100 instances, {violations} disagreements, {elapsed:.1f}s (< 120s)")
    assert ok


def test_c02_uncross_improvement_bound():
    from tsplab import find_uncrossing_inversion

    instances = []
    for i in range(40):
        instances.append(generate_grid(6 + i % 7, 64, 20000 + i))
    for i in range(20):
        instances.append(generate_with_inner(5 + i % 4, i % 3, 256, 21000 + i))
    assert len(instances) >= 50
    quota = 10**4
    sampled = 0
    violations = 0
    rng = Xoshiro256StarStar(424242)
    idx = 0
    while sampled < quota:
        inst = instances[idx % len(instances)]
        idx += 1
        gain = inst.metrics.min_uncross_gain
        t = random_tour(inst.n, rng)
        move = find_uncrossing_inversion(inst, t)
        if move is None:
            continue
        sampled += 1
        y = apply_inversion(t, *move)
        if not tour_length(inst, t) - tour_length(inst, y) > gain:
            violations += 1
    ok = violations == 0
    report(2, ok, f"{sampled} crossing tours over {len(instances)} instances, {violations} violations")
    assert ok


def test_c03_intersection_free_tours_respect_hull_order(small_inner_instances):
    checked = 0
    violations = 0
    for inst in small_inner_instances:
        for t in enumerate_intersection_free(inst):
            checked += 1
            if not respects_hull_order(inst, t):
                violations += 1
    ok = violations == 0 and len(small_inner_instances) >= 30
    report(3, ok, f"{checked} crossing-free tours on {len(small_inner_instances)} instances, {violations} violations")
    assert ok


def test_c04_intersection_free_count_bound(small_inner_instances):
    violations = 0
    for inst in small_inner_instances:
        if len(enumerate_intersection_free(inst)) > interleaving_count(inst):
            violations += 1
    ok = violations == 0
    report(4, ok, f"count <= C(n,k)k! on all {len(small_inner_instances)} instances, {violations} violations")
    assert ok


def test_c05_jump_simulation(small_inner_instances):
    # (a) two chained inversions simulate any jump, exhaustively
    violations_a = 0
    rng = Xoshiro256StarStar(555)
    for n in range(4, 9):
        for _ in range(3):
            t = random_tour(n, rng)
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    if i == j:
                        continue
                    x = t
                    seq = jump_as_inversions(i, j)
                    if len(seq) > 2:
                        violations_a += 1
                    for a, b in seq:
                        x = apply_inversion(x, a, b)
                    if x != apply_jump(t, i, j):
                        violations_a += 1
    # (b) at most k jumps carry each crossing-free tour to the optimum
    violations_b = 0
    checked = 0
    for inst in small_inner_instances:
        k = inst.inner_count
        target = hull_order_optimum(inst).optimum_tour
        for t in enumerate_intersection_free(inst):
            checked += 1
            jumps = jumps_to_optimum(inst, t, target)
            if len(jumps) > k:
                violations_b += 1
                continue
            x = t
            for i, j in jumps:
                x = apply_jump(x, i, j)
            if canonical_form(x) != target:
                violations_b += 1
    ok = violations_a == 0 and violations_b == 0
    report(5, ok, f"(a) exhaustive n in 4..8: {violations_a} violations; (b) {checked} tours: {violations_b} violations")
    assert ok


def test_c06_improving_neighbors_stay_intersection_free(small_inner_instances):
    # Faithful to the stated criterion. The underlying claim is false
    # (see tests/test_tour.py::test_known_counterexample_new_edge_can_cross_old_edge
    # for an exact-arithmetic witness), so violations are expected here.
    checked = 0
    violations = 0
    witness = None
    for idx, inst in enumerate(small_inner_instances):
        n = inst.n
        for t in enumerate_intersection_free(inst):
            base = tour_length(inst, t)
            for i, j in inversion_pairs(n):
                y = apply_inversion(t, i, j)
                if tour_length(inst, y) < base:
                    checked += 1
                    if not is_intersection_free(inst, y):
                        violations += 1
                        if witness is None:
                            witness = (idx, t, (i, j))
    ok = violations == 0
    report(
        6,
        ok,
        f"{checked} improving neighbors, {violations} violations"
        + (f"; first witness instance#{witness[0]} tour={witness[1]} inv={witness[2]}" if witness else ""),
    )
    assert ok, (
        "expected failure: the checked claim is false in general; improving "
        "inversions from crossing-free tours can reintroduce crossings (new "
        "edge x unchanged edge). See the README note and the pinned unit "
        f"counterexample. First witness here: {witness}"
    )


def test_c07_grid_angle_bound():
    violations = 0
    produced = 0
    seed = 30000
    per_m = {8: 334, 32: 333, 128: 333}
    npts = {8: 8, 32: 10, 128: 12}
    for m, want in per_m.items():
        bound = grid_angle_lower_bound(m)
        got = 0
        while got < want:
            try:
                inst = generate_grid(npts[m], m, seed)
            except GenerationExhaustedError:
                seed += 1
                continue
            seed += 1
            got += 1
            produced += 1
            if not inst.metrics.epsilon >= bound:
                violations += 1
    # growth check: the ratio to m^4 is monotone, below the analytic cap,
    # and the fitted constant is stable between the low and high half of
    # the range
    ms = [3, 4, 5, 6, 8, 10, 16, 24, 32, 64, 100, 256, 512, 1024, 4096, 10000]
    ratios = [cos_ratio(grid_angle_lower_bound(m)) / m**4 for m in ms]
    monotone = all(a <= b for a, b in zip(ratios, ratios[1:]))
    capped = all(r <= 8.0 for r in ratios)
    k_low = max(r for m, r in zip(ms, ratios) if m <= 100)
    k_full = max(ratios)
    stable = k_full / k_low <= 2.0
    ok = violations == 0 and produced == 1000 and monotone and capped and stable
    report(
        7,
        ok,
        f"{produced} instances, {violations} below bound; ratio monotone={monotone}, "
        f"<=8*m^4={capped}, K[3,100]={k_low:.3f} vs K[3,1e4]={k_full:.3f} (factor {k_full / k_low:.3f} <= 2)",
    )
    assert ok


def test_c08_mutation_distributions():
    stats = mutation_statistics(6, 10**6, seed=424242)
    e = math.e
    checks = {
        "P[1 inversion]": (stats["p_one_inversion"], 1 / e),
        "P[2 inversions]": (stats["p_two_inversions"], 1 / e),
        "P[4 inversions]": (stats["p_four_inversions"], 1 / (6 * e)),
        "mixed branch": (stats["mixed_inversion_branch"], 0.5),
    }
    bad = [name for name, (got, want) in checks.items() if abs(got - want) > 0.005]
    chi_ok = stats["chi_square_pvalue"] >= 0.001
    ok = not bad and chi_ok
    report(
        8,
        ok,
        f"1e6 samples; deviations {[f'{n}:{abs(g - w):.5f}' for n, (g, w) in checks.items()]} all <= 0.005: {not bad}; "
        f"pair chi-square p={stats['chi_square_pvalue']:.4f} >= 0.001: {chi_ok}",
    )
    assert ok


def test_c09_rls_convex_scaling():
    started = time.time()
    medians = {}
    all_reached = True
    for n in (8, 16, 32):
        gens = []
        for i in range(20):
            inst = generate_convex(n, 1024, 90000 + 37 * i + n)
            opt = hull_order_optimum(inst).optimum_value
            traj = run_rls(inst, 10**7, seed=91000 + i, optimum_value=opt)
            if not traj.reached_optimum:
                all_reached = False
            gens.append(traj.generations)
        medians[n] = statistics.median(gens)
    non_decreasing = medians[8] <= medians[16] <= medians[32]
    xs = [math.log(n) for n in (8, 16, 32)]
    ys = [math.log(medians[n]) for n in (8, 16, 32)]
    xbar = sum(xs) / 3
    ybar = sum(ys) / 3
    slope = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys)) / sum((x - xbar) ** 2 for x in xs)
    elapsed = time.time() - started
    ok = all_reached and non_decreasing and slope < 3.5 and elapsed < 600.0
    report(
        9,
        ok,
        f"20/20 solved at each n: {all_reached}; medians {medians} non-decreasing: {non_decreasing}; "
        f"log-log slope {slope:.2f} < 3.5; {elapsed:.1f}s (< 600s)",
    )
    assert ok


def test_c10_ea_reaches_optimum_with_inner_points():
    results = {}
    for k in (1, 2):
        successes = 0
        for i in range(50):
            inst = generate_with_inner(8, k, 256, 70000 + 13 * (i // 10) + 1000 * k)
            opt = held_karp_optimum(inst).optimum_value
            traj = run_ea(inst, 10**6, 71000 + i, mu=1, lam=1, mutation="two_opt", optimum_value=opt)
            if traj.final_length <= opt * (1 + 1e-9):
                successes += 1
        results[k] = successes
    ok = all(s >= 45 for s in results.values())
    report(10, ok, f"successes per k (of 50, need >= 45): {results}")
    assert ok


def test_c11_mixed_mutation_at_least_as_fast():
    gens = {"two_opt": [], "mixed": []}
    for i in range(50):
        inst = generate_with_inner(9, 3, 256, 80000 + 29 * (i // 10))
        opt = held_karp_optimum(inst).optimum_value
        for kind in ("two_opt", "mixed"):
            traj = run_ea(inst, 10**6, 81000 + i, mu=1, lam=1, mutation=kind, optimum_value=opt)
            gens[kind].append(traj.generations)
    med_two = statistics.median(gens["two_opt"])
    med_mixed = statistics.median(gens["mixed"])
    ok = med_mixed <= med_two
    report(11, ok, f"50 paired seeds: median mixed {med_mixed} <= median two_opt {med_two}")
    assert ok


def test_c12_accounting_and_reproducibility(tmp_path):
    # fitness-evaluation identities and elitism on fresh runs
    inst = generate_with_inner(7, 2, 256, 60001)
    ok_evals = True
    ok_elitism = True
    for mu, lam, seed in ((1, 1, 1), (3, 5, 2), (2, 7, 3)):
        traj = run_ea(inst, 1500, seed, mu=mu, lam=lam, mutation="two_opt", record_series=True)
        if traj.fitness_evals != mu + lam * traj.generations:
            ok_evals = False
        s = traj.best_fitness_series
        if any(s[i + 1] > s[i] for i in range(len(s) - 1)):
            ok_elitism = False
    rls_traj = run_rls(inst, 2000, seed=4)
    if rls_traj.fitness_evals != 1 + rls_traj.generations:
        ok_evals = False

    # byte-identical reruns of every command
    child_failures = []

    def run_cli(*args, timeout=120):
        # a command that hangs fails the criterion by name after `timeout`
        # seconds instead of stalling the suite
        try:
            r = subprocess.run(
                [sys.executable, "-m", "tsplab.cli", *args],
                capture_output=True, cwd=tmp_path, env=cli_env(), timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            r = subprocess.CompletedProcess(args, None, b"", f"timed out after {timeout} s".encode())
        if r.returncode != 0:
            tail = r.stderr.decode(errors="replace").strip().splitlines()[-3:]
            failure = f"`tsplab.cli {' '.join(args)}` exited {r.returncode}: {' | '.join(tail)}"
            if failure not in child_failures:  # each command runs twice
                child_failures.append(failure)
        return r.returncode, r.stdout

    cfg_text = (
        "family = inner\nh = 6\nk = 1\nm = 256\nalgorithm = ea\n"
        "mutation = two_opt,mixed\nbudget = 50000\nruns = 3\nbase_seed = 5\nout = out.csv\n"
    )
    (tmp_path / "exp.cfg").write_text(cfg_text, encoding="utf-8")
    commands = [
        ("generate", "--family", "grid", "--n", "9", "--m", "64", "--seed", "3", "--out", "g.tsp"),
        ("solve", "g.tsp", "--algorithm", "rls", "--budget", "20000", "--seed", "6"),
        ("solve", "g.tsp", "--algorithm", "ea", "--budget", "20000", "--seed", "6", "--mu", "2", "--lambda", "3"),
        ("oracle", "g.tsp", "--method", "held_karp", "--tour-out", "g.tour"),
        ("experiment", "exp.cfg"),
        ("mutation-stats", "--n", "6", "--samples", "100000", "--seed", "1"),
    ]
    ok_repro = True
    for args in commands:
        code1, out1 = run_cli(*args)
        files1 = {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.suffix in (".csv", ".tsp", ".tour")}
        code2, out2 = run_cli(*args)
        files2 = {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.suffix in (".csv", ".tsp", ".tour")}
        if code1 != 0 or code2 != 0 or out1 != out2 or files1 != files2:
            ok_repro = False

    # identities hold on every emitted CSV row
    out_csv = tmp_path / "out.csv"
    ok_rows = out_csv.exists()
    rows = out_csv.read_text().strip().splitlines()[1:] if ok_rows else []
    for line in rows:
        cells = line.split(",")
        mu = int(cells[7]) if cells[7] else None
        lam = int(cells[8]) if cells[8] else None
        gens, evals = int(cells[11]), int(cells[12])
        alpha, beta = int(cells[13]), int(cells[14])
        if mu is not None and evals != mu + lam * gens:
            ok_rows = False
        if alpha + beta + (1 if cells[15] == "true" else 0) < gens:
            ok_rows = False

    ok = ok_evals and ok_elitism and ok_repro and ok_rows
    detail = (
        f"eval identities: {ok_evals}; elitism: {ok_elitism}; byte-identical reruns: {ok_repro}; CSV rows: {ok_rows}"
        + ("" if out_csv.exists() else "; out.csv missing")
        + "".join(f"; {f}" for f in child_failures)
    )
    report(12, ok, detail)
    assert ok, detail
