"""Batch experiment harness: config parsing, run records, CSV, summaries.

FAMILY_SIZE_KEYS is the one list of the instance families and their size
keys; config parsing, size sweeps, instance ids and `tsplab generate` read it.

Experiments are deterministic functions of the config file. The sizes
are the product of the family's size lists in key order ((h, k) h-major);
size i (1-based) gets one instance with seed base_seed + 100003 i, shared
by every mutation kind.
Every instance and its optimum are built before the first run, so a size
that cannot be built fails before any search. Rows then come in (size,
mutation, run) order, and run r uses seed base_seed + r, so sweeps over
mutation kinds are seed-paired. Rerunning a config reproduces the CSV
byte for byte.
"""

from __future__ import annotations

import csv
import io
import itertools
import statistics
from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Optional

from .errors import ParseError, TooLargeError
from .instance import Instance, generate_convex, generate_grid, generate_with_inner, parse_int
from .oracle import OracleResult, held_karp_optimum, hull_order_count, hull_order_optimum
from .search import EAConfig, MutationSpec, run_ea, run_rls

# instance seeds sit far away from run seeds (base_seed + run index)
_INSTANCE_SEED_STRIDE = 100003

_HELD_KARP_AUTO_MAX_N = 16

# each family's size keys, in the order its generator takes them
FAMILY_SIZE_KEYS = {"grid": ("n",), "convex": ("n",), "inner": ("h", "k")}
SIZE_KEYS = tuple(dict.fromkeys(key for keys in FAMILY_SIZE_KEYS.values() for key in keys))


@dataclass
class RunRecord:
    """One run. Its fields, in order, are the run CSV's columns (`lam` as `lambda`); `_cell` formats each."""

    instance_id: str
    n: int
    k: int
    m: int
    epsilon: float
    gamma: float
    algorithm: str
    mu: Optional[int]
    lam: Optional[int]
    mutation: str
    seed: int
    generations: int
    fitness_evals: int
    alpha_steps: int
    beta_steps: int
    reached_optimum: bool
    reached_local_optimum: Optional[bool]
    final_length: float
    optimum_length: Optional[float]

    def row(self) -> list[str]:
        return [_cell(v) for v in _field_values(self)]


def _cell(value) -> str:
    """None empty, booleans true/false, floats shortest round-trip decimal, anything else its str."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


_field_values = attrgetter(*(f.name for f in fields(RunRecord)))
CSV_COLUMNS = ["lambda" if f.name == "lam" else f.name for f in fields(RunRecord)]


@dataclass
class ExperimentConfig:
    family: str  # a FAMILY_SIZE_KEYS key
    m: int
    algorithm: str  # rls | ea
    budget: int
    runs: int
    base_seed: int
    out: str
    n_values: list[int]
    h_values: list[int]
    k_values: list[int]
    mu: int = 1
    lam: int = 1
    mutations: Optional[list[str]] = None  # None: two_opt for ea, no mutation for rls


_INT_KEYS = {"m", "budget", "runs", "base_seed", "mu", "lambda"}
_LIST_KEYS = {*SIZE_KEYS, "mutation"}
_STR_KEYS = {"family", "algorithm", "out"}


def parse_config(path) -> ExperimentConfig:
    """Parse the flat `key = value` config format ('#' starts a comment)."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    values: dict[str, object] = {}
    line_of: dict[str, int] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if not val:
            raise ParseError(f"line {lineno}: empty value for {key!r}")
        if key in values:
            raise ParseError(f"line {lineno}: duplicate key {key!r}")
        line_of[key] = lineno
        if key in _INT_KEYS:
            values[key] = parse_int(val, f"line {lineno}: {key} must be an integer, got {val!r}")
            if key in ("budget", "runs", "mu", "lambda") and values[key] < 1:
                raise ParseError(f"line {lineno}: {key} must be >= 1, got {values[key]}")
        elif key in _LIST_KEYS:
            items = [s.strip() for s in val.split(",")]
            bad = f"line {lineno}: bad list value for {key}: {val!r}"
            if key == "mutation":
                if any(s not in ("two_opt", "mixed") for s in items):
                    raise ParseError(bad)
                values[key] = items
            else:
                values[key] = [parse_int(s, bad) for s in items]
            seen = set()
            for item in values[key]:
                if item in seen:
                    raise ParseError(f"line {lineno}: repeated value {item} in {key!r}")
                seen.add(item)
        elif key in _STR_KEYS:
            values[key] = val
        else:
            raise ParseError(f"line {lineno}: unknown key {key!r}")

    def need(key):
        if key not in values:
            raise ParseError(f"missing required key {key!r}")
        return values[key]

    family = need("family")
    if family not in FAMILY_SIZE_KEYS:
        *head, last = FAMILY_SIZE_KEYS
        raise ParseError(f"family must be {', '.join(head)}, or {last}, got {family!r}")
    algorithm = need("algorithm")
    if algorithm not in ("rls", "ea"):
        raise ParseError(f"algorithm must be rls or ea, got {algorithm!r}")
    for key in SIZE_KEYS:
        if key in values and key not in FAMILY_SIZE_KEYS[family]:
            raise ParseError(f"line {line_of[key]}: {key!r} does not apply to family {family!r}")
    if algorithm == "rls":
        for key in ("mutation", "mu", "lambda"):
            if key in values:
                raise ParseError(f"line {line_of[key]}: {key!r} does not apply to algorithm 'rls'")
    size_lists = {f"{key}_values": need(key) if key in FAMILY_SIZE_KEYS[family] else [] for key in SIZE_KEYS}
    return ExperimentConfig(
        family=family,
        m=need("m"),
        algorithm=algorithm,
        budget=need("budget"),
        runs=need("runs"),
        base_seed=need("base_seed"),
        out=need("out"),
        **size_lists,
        mu=values.get("mu", 1),
        lam=values.get("lambda", 1),
        mutations=values.get("mutation"),
    )


def strongest_oracle(instance: Instance) -> Optional[OracleResult]:
    """An exact optimum from the oracle with less work to do, or None.

    Held-Karp runs when n <= 16 and hull order would build more tours
    (hull_order_count) than 0.2 (n-1)^2 2^(n-1), a fifth of Held-Karp's
    additions; otherwise hull order runs, within its 1e6-tour budget, and
    None comes back above it. Both report the same optimum_value.

    Why that bar: hull order costs about 30-40 ns per tour ((11, 5):
    360,360 tours in 10.8 ms; (10, 5): 240,240 tours in 9.0 ms) and
    Held-Karp about 7 ns per each of its (n-1)^2 2^(n-1) additions
    (n = 16: 44-52 ms; n = 15: 22.9 ms), min of 5 in-process runs on a
    2-vCPU VM, CPython 3.11. So the two cost the same at about 0.19-0.23
    (n-1)^2 2^(n-1) tours. generate_with_inner(10, 5, 144, 7) (n = 15,
    240,240 tours) takes hull order, about 2.5 times faster. Below n = 10
    Held-Karp's cost per addition grows (n = 9: 90 ns), but there both
    take about a millisecond. An instance with many inner points, such as
    grid n = 12 with h = 5 and k = 7 (1,663,200 tours, over the budget),
    keeps Held-Karp.
    """
    n = instance.n
    if n <= _HELD_KARP_AUTO_MAX_N and hull_order_count(instance) > ((n - 1) ** 2 << (n - 1)) // 5:
        return held_karp_optimum(instance)
    try:
        return hull_order_optimum(instance)
    except TooLargeError:
        return None


def make_instance(family: str, params: dict, m: int, seed: int) -> tuple[str, Instance]:
    # looked up per call, so that a generator rebound in this module after import is the one called
    generate = {"grid": generate_grid, "convex": generate_convex, "inner": generate_with_inner}[family]
    keys = FAMILY_SIZE_KEYS[family]
    inst = generate(*(params[key] for key in keys), m, seed)
    return family + "".join(f"-{key}{params[key]}" for key in keys) + f"-m{m}-s{seed}", inst


def run_single(
    instance: Instance,
    instance_id: str,
    algorithm: str,
    mu: int,
    lam: int,
    mutation: str,
    budget: int,
    seed: int,
    optimum: Optional[float],
) -> RunRecord:
    """Execute one run and package it as a CSV record."""
    metrics = instance.metrics
    if algorithm == "rls":
        traj = run_rls(instance, budget, seed, optimum_value=optimum)
        mu_out = lam_out = None
        mutation_out = ""
    else:
        cfg = EAConfig(mu=mu, lam=lam, mutation=MutationSpec(kind=mutation), max_generations=budget, seed=seed)
        traj = run_ea(instance, cfg, optimum_value=optimum)
        mu_out, lam_out = mu, lam
        mutation_out = mutation
    return RunRecord(
        instance_id=instance_id,
        n=instance.n,
        k=instance.inner_count,
        m=instance.grid_size,
        epsilon=metrics.epsilon,
        gamma=metrics.gamma,
        algorithm=algorithm,
        mu=mu_out,
        lam=lam_out,
        mutation=mutation_out,
        seed=seed,
        generations=traj.generations,
        fitness_evals=traj.fitness_evals,
        alpha_steps=traj.alpha_steps,
        beta_steps=traj.beta_steps,
        reached_optimum=traj.reached_optimum,
        reached_local_optimum=traj.reached_local_optimum,
        final_length=traj.final_length,
        optimum_length=optimum,
    )


def run_experiment(cfg: ExperimentConfig) -> tuple[list[RunRecord], str]:
    """All runs of a config, in deterministic order, plus the summary text."""
    keys = FAMILY_SIZE_KEYS[cfg.family]
    sizes = [dict(zip(keys, v)) for v in itertools.product(*(getattr(cfg, f"{key}_values") for key in keys))]
    default_mutations = ["two_opt"] if cfg.algorithm == "ea" else [""]
    mutations = default_mutations if cfg.mutations is None else cfg.mutations
    built = []
    for i, params in enumerate(sizes, start=1):
        instance_id, inst = make_instance(cfg.family, params, cfg.m, cfg.base_seed + _INSTANCE_SEED_STRIDE * i)
        res = strongest_oracle(inst)
        built.append((instance_id, inst, None if res is None else res.optimum_value))
    records = [
        run_single(
            inst, instance_id, cfg.algorithm, cfg.mu, cfg.lam, mutation, cfg.budget, cfg.base_seed + r, optimum
        )
        for instance_id, inst, optimum in built
        for mutation in mutations
        for r in range(cfg.runs)
    ]
    return records, format_summary(records)


def format_csv(records: list[RunRecord]) -> str:
    """Header and one row per record, a cell quoted where it needs it."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows(r.row() for r in records)
    return buf.getvalue()


def write_csv(records: list[RunRecord], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(format_csv(records))


def format_summary(records: list[RunRecord]) -> str:
    """Per-cell medians/means of the step accounting."""
    cells: dict[tuple, list[RunRecord]] = {}
    for r in records:
        cells.setdefault((r.n, r.k, r.algorithm, r.mutation), []).append(r)
    lines = ["# summary: per-cell step accounting"]
    for (n, k, algorithm, mutation), rows in cells.items():
        gens = [r.generations for r in rows]
        alphas = [r.alpha_steps for r in rows]
        betas = [r.beta_steps for r in rows]
        solved = sum(1 for r in rows if r.reached_optimum)
        mut = mutation if mutation else "-"
        lines.append(
            f"cell n={n} k={k} algorithm={algorithm} mutation={mut} runs={len(rows)} "
            f"solved={solved} median_generations={repr(float(statistics.median(gens)))} "
            f"mean_generations={repr(statistics.fmean(gens))} "
            f"median_alpha_steps={repr(float(statistics.median(alphas)))} "
            f"median_beta_steps={repr(float(statistics.median(betas)))}"
        )
    return "\n".join(lines)
