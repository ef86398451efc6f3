"""The benchmark's workloads, as plain data derived from one seed.

A workload is a list of cells. Each cell is one single-cell experiment
config: one instance (family, params, m) and one algorithm setting, run
on seeds base_seed, base_seed + 1, ... exactly as `tsplab experiment`
runs a config with that one cell. Its instance therefore uses seed
base_seed + 100003, the README's rule for cell 0.

A cell stops after `runs` runs, or, for EA cells, once its runs have used
`gens_allowance` generations. The allowance fixes the amount of search a
pass does, so a pass costs about the same on every seed even though
single EA runs to the optimum are heavily skewed.

This module imports nothing from tsplab, so the parent process can read
the workloads without importing the package under test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

# instance seed of a config's first (and here only) cell
INSTANCE_SEED_STRIDE = 100003
# run seeds of one cell stay below the next cell's base seed
CELL_SEED_SPAN = 1000
# every seed's cells sit in their own block of base seeds
SEED_SPAN = 10**6


@dataclass(frozen=True)
class Cell:
    family: str  # grid | inner
    params: tuple  # (("n", 64),) or (("h", 9), ("k", 3))
    m: int
    algorithm: str  # rls | ea
    budget: int
    base_seed: int
    runs: Optional[int] = None
    gens_allowance: Optional[int] = None
    mu: int = 1
    lam: int = 1
    mutation: str = ""

    @property
    def label(self) -> str:
        """Per-layer cell name: rls, two_opt, mixed or mu4_lam8."""
        if self.algorithm == "rls":
            return "rls"
        if (self.mu, self.lam) == (1, 1):
            return self.mutation
        return f"mu{self.mu}_lam{self.lam}"

    @property
    def instance_seed(self) -> int:
        return self.base_seed + INSTANCE_SEED_STRIDE

    @property
    def instance_key(self) -> tuple:
        return (self.family, self.params, self.m, self.instance_seed)


def _base(seed: int, index: int) -> int:
    return seed * SEED_SPAN + index * CELL_SEED_SPAN


def ea_inner_paired(seed: int) -> list[Cell]:
    """The paper's comparison on h=9, k=3 instances with a Held-Karp optimum.

    (1+1) EA with two_opt and with mixed mutation on the same run seeds,
    plus a (4+8) mixed cell, on 32 instances. Runs stop at the optimum or
    at 1000 generations (125 for the (4+8) EA, about the same wall time).
    """
    cells = []
    for j in range(32):
        base = _base(seed, j)
        common = dict(family="inner", params=(("h", 9), ("k", 3)), m=256, algorithm="ea", base_seed=base)
        cells.append(Cell(**common, budget=1000, gens_allowance=4000, mutation="two_opt"))
        cells.append(Cell(**common, budget=1000, gens_allowance=4000, mutation="mixed"))
        cells.append(Cell(**common, budget=125, gens_allowance=500, mu=4, lam=8, mutation="mixed"))
    return cells


def rls_grid_local(seed: int) -> list[Cell]:
    """RLS without an oracle on grid instances, n = 64, 128, 256, m = 1024."""
    sizes = ((64, 24, 25_000), (128, 2, 100_000), (256, 1, 30_000))
    return [
        Cell(family="grid", params=(("n", n),), m=1024, algorithm="rls", budget=budget,
             base_seed=_base(seed, j), runs=runs)
        for j, (n, runs, budget) in enumerate(sizes)
    ]


def oracle_inner(seed: int) -> list[Cell]:
    """RLS with an exact optimum on inner instances, n = 15 to 27.

    Held-Karp gives the optimum for (12, 3) and (12, 4); hull-order
    enumeration gives it for (12, 5) and (24, 3).
    """
    shapes = ((12, 3), (12, 4), (12, 5), (24, 3))
    return [
        Cell(family="inner", params=(("h", h), ("k", k)), m=1024, algorithm="rls", budget=150,
             base_seed=_base(seed, j), runs=120)
        for j, (h, k) in enumerate(shapes)
    ]


WORKLOADS = {
    "ea-inner-paired": ea_inner_paired,
    "rls-grid-local": rls_grid_local,
    "oracle-inner": oracle_inner,
}


def cells_for(workload: str, seed: int) -> list[Cell]:
    return WORKLOADS[workload](seed)
