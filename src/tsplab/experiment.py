"""Batch experiment harness: config parsing, run records, CSV, summaries.

Experiments are deterministic functions of the config file: instance
seeds derive from base_seed and the cell index, run i inside a cell uses
seed base_seed + i (so sweeps over mutation kinds are seed-paired), and
rows are emitted in (cell, run) order. Rerunning a config reproduces the
CSV byte for byte.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Optional

from .errors import ParseError
from .instance import Instance, generate_convex, generate_grid, generate_with_inner, parse_int
from .oracle import _INTERLEAVING_BUDGET, OracleResult, held_karp_optimum, hull_order_optimum, interleaving_count
from .search import EAConfig, MutationSpec, Trajectory, run_ea, run_rls

CSV_COLUMNS = [
    "instance_id",
    "n",
    "k",
    "m",
    "epsilon",
    "gamma",
    "algorithm",
    "mu",
    "lambda",
    "mutation",
    "seed",
    "generations",
    "fitness_evals",
    "alpha_steps",
    "beta_steps",
    "reached_optimum",
    "reached_local_optimum",
    "final_length",
    "optimum_length",
]

# instance seeds sit far away from run seeds (base_seed + run index)
_INSTANCE_SEED_STRIDE = 100003

_HELD_KARP_AUTO_MAX_N = 16


@dataclass
class RunRecord:
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
        return [
            self.instance_id,
            str(self.n),
            str(self.k),
            str(self.m),
            repr(self.epsilon),
            repr(self.gamma),
            self.algorithm,
            "" if self.mu is None else str(self.mu),
            "" if self.lam is None else str(self.lam),
            self.mutation,
            str(self.seed),
            str(self.generations),
            str(self.fitness_evals),
            str(self.alpha_steps),
            str(self.beta_steps),
            _fmt_bool(self.reached_optimum),
            "" if self.reached_local_optimum is None else _fmt_bool(self.reached_local_optimum),
            repr(self.final_length),
            "" if self.optimum_length is None else repr(self.optimum_length),
        ]


def _fmt_bool(b: bool) -> str:
    return "true" if b else "false"


@dataclass
class ExperimentConfig:
    family: str  # grid | convex | inner
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
    mutations: Optional[list[str]] = None


_INT_KEYS = {"m", "budget", "runs", "base_seed", "mu", "lambda"}
_LIST_KEYS = {"n", "h", "k", "mutation"}
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
            if key in ("budget", "runs") and values[key] < 1:
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
    if family not in ("grid", "convex", "inner"):
        raise ParseError(f"family must be grid, convex, or inner, got {family!r}")
    algorithm = need("algorithm")
    if algorithm not in ("rls", "ea"):
        raise ParseError(f"algorithm must be rls or ea, got {algorithm!r}")
    inapplicable = {"grid": ("h", "k"), "convex": ("h", "k"), "inner": ("n",)}[family]
    for key in inapplicable:
        if key in values:
            raise ParseError(f"line {line_of[key]}: {key!r} does not apply to family {family!r}")
    if algorithm == "rls":
        for key in ("mutation", "mu", "lambda"):
            if key in values:
                raise ParseError(f"line {line_of[key]}: {key!r} does not apply to algorithm 'rls'")
    if family == "inner":
        h_values = need("h")
        k_values = need("k")
        n_values = []
    else:
        n_values = need("n")
        h_values = []
        k_values = []
    mutations = values.get("mutation", ["two_opt"]) if algorithm == "ea" else [""]
    return ExperimentConfig(
        family=family,
        m=need("m"),
        algorithm=algorithm,
        budget=need("budget"),
        runs=need("runs"),
        base_seed=need("base_seed"),
        out=need("out"),
        n_values=n_values,
        h_values=h_values,
        k_values=k_values,
        mu=values.get("mu", 1),
        lam=values.get("lambda", 1),
        mutations=mutations,
    )


def strongest_oracle(instance: Instance) -> Optional[OracleResult]:
    """Best exact optimum the oracles can afford, or None."""
    if instance.n <= _HELD_KARP_AUTO_MAX_N:
        return held_karp_optimum(instance)
    if interleaving_count(instance) <= _INTERLEAVING_BUDGET:
        return hull_order_optimum(instance)
    return None


def make_instance(family: str, params: dict, m: int, seed: int) -> tuple[str, Instance]:
    if family == "grid":
        inst = generate_grid(params["n"], m, seed)
        return f"grid-n{params['n']}-m{m}-s{seed}", inst
    if family == "convex":
        inst = generate_convex(params["n"], m, seed)
        return f"convex-n{params['n']}-m{m}-s{seed}", inst
    inst = generate_with_inner(params["h"], params["k"], m, seed)
    return f"inner-h{params['h']}-k{params['k']}-m{m}-s{seed}", inst


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


def _cells(cfg: ExperimentConfig):
    if cfg.family == "inner":
        for h in cfg.h_values:
            for k in cfg.k_values:
                for mut in cfg.mutations:
                    yield {"h": h, "k": k}, mut
    else:
        for n in cfg.n_values:
            for mut in cfg.mutations:
                yield {"n": n}, mut


def run_experiment(cfg: ExperimentConfig) -> tuple[list[RunRecord], str]:
    """All runs of a config, in deterministic order, plus the summary text."""
    records: list[RunRecord] = []
    instances: dict[tuple, tuple[str, Instance, Optional[float]]] = {}
    for cell_index, (params, mutation) in enumerate(_cells(cfg)):
        inst_key = tuple(sorted(params.items()))
        if inst_key not in instances:
            # one instance per parameter cell, shared across mutation kinds
            iseed = cfg.base_seed + _INSTANCE_SEED_STRIDE * (len(instances) + 1)
            instance_id, inst = make_instance(cfg.family, params, cfg.m, iseed)
            res = strongest_oracle(inst)
            instances[inst_key] = (instance_id, inst, None if res is None else res.optimum_value)
        instance_id, inst, optimum = instances[inst_key]
        for run_index in range(cfg.runs):
            seed = cfg.base_seed + run_index
            records.append(
                run_single(
                    inst, instance_id, cfg.algorithm, cfg.mu, cfg.lam, mutation, cfg.budget, seed, optimum
                )
            )
    return records, format_summary(records)


def write_csv(records: list[RunRecord], path) -> None:
    lines = [",".join(CSV_COLUMNS)]
    lines.extend(",".join(r.row()) for r in records)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


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
