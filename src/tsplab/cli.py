"""Command-line harness.

Subcommands: generate, solve, oracle, experiment, mutation-stats.
solve passes its flags to experiment.run_single, and so to run_rls or
run_ea; an EA run defaults to mu = lambda = 1 and the first operator of
search.MUTATIONS, as run_ea does.
Exit codes: 0 success, 1 usage or parse errors, 2 generation or oracle
infeasibility.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .errors import TsplabError
from .experiment import FAMILY_SIZE_KEYS, SIZE_KEYS, format_csv, make_instance, parse_config, run_experiment
from .experiment import run_single, strongest_oracle, write_csv
from .instance import read_instance, write_instance, write_tour
from .oracle import brute_force_optimum, held_karp_optimum, hull_order_optimum
from .search import MUTATIONS, mutation_statistics


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # usage errors exit 1, not argparse's default 2
    def error(self, message):
        raise _UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="tsplab", description="Euclidean TSP search laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate an instance file")
    p.add_argument("--family", required=True, choices=list(FAMILY_SIZE_KEYS))
    for key, what in (("n", "point count"), ("h", "hull point count"), ("k", "interior point count")):
        families = ", ".join(f for f, keys in FAMILY_SIZE_KEYS.items() if key in keys)
        p.add_argument(f"--{key}", type=int, help=f"{what} ({families})")
    p.add_argument("--m", type=int, required=True, help="grid side length")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="instance file to write")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("solve", help="run one search on an instance file")
    p.add_argument("instance", help="instance file")
    p.add_argument("--algorithm", required=True, choices=["rls", "ea"])
    p.add_argument("--budget", type=int, required=True, help="max steps/generations")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mu", type=int, help="EA parent count (default 1)")
    p.add_argument("--lambda", dest="lam", type=int, help="EA offspring count (default 1)")
    p.add_argument("--mutation", choices=MUTATIONS, help=f"EA mutation (default {MUTATIONS[0]})")
    optimum = p.add_mutually_exclusive_group()
    optimum.add_argument("--optimum", type=float, default=None, help="known optimum value")
    optimum.add_argument("--no-oracle", action="store_true", help="skip automatic oracle lookup")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("oracle", help="exact optimum of an instance file")
    p.add_argument("instance", help="instance file")
    p.add_argument("--method", required=True, choices=["brute", "held_karp", "hull_order"])
    p.add_argument("--tour-out", default=None, help="write the optimal tour here")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("experiment", help="run a batch experiment from a config file")
    p.add_argument("config", help="flat key = value config file")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("mutation-stats", help="empirical mutation distribution report")
    p.add_argument("--n", type=int, required=True, help="point count, at least 3")
    p.add_argument("--samples", type=int, default=10**6)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_mutation_stats)

    return parser


def _reject_flags(args, flags: dict[str, str], where: str) -> None:
    """Usage error naming the first of the flags (dest -> flag) that is
    given although it does not apply to `where`."""
    for dest, flag in flags.items():
        if getattr(args, dest) is not None:
            raise _UsageError(f"{flag} does not apply to {where}")


def _check_out(path: str, name: str) -> None:
    """Reject an output path that is a directory or in a missing one; called before any work."""
    out_dir = os.path.dirname(path) or "."
    if os.path.isdir(path):
        raise TsplabError(f"{name} = {path} is a directory")
    if not os.path.isdir(out_dir):
        raise TsplabError(f"{name} = {path}: directory {out_dir} does not exist")


def cmd_generate(args) -> int:
    keys = FAMILY_SIZE_KEYS[args.family]
    _reject_flags(args, {key: f"--{key}" for key in SIZE_KEYS if key not in keys}, f"family {args.family!r}")
    params = {key: getattr(args, key) for key in keys}
    if None in params.values():
        raise _UsageError(f"family {args.family!r} needs " + " and ".join(f"--{key}" for key in keys))
    _check_out(args.out, "--out")
    _, inst = make_instance(args.family, params, args.m, args.seed)
    write_instance(inst, args.out)
    metrics = inst.metrics
    print(
        f"n={inst.n} k={inst.inner_count} m={inst.grid_size} "
        f"epsilon={metrics.epsilon!r} gamma={metrics.gamma!r}"
    )
    return 0


def cmd_solve(args) -> int:
    if args.algorithm == "rls":
        _reject_flags(args, {"mu": "--mu", "lam": "--lambda", "mutation": "--mutation"}, "algorithm 'rls'")
    mu = 1 if args.mu is None else args.mu
    lam = 1 if args.lam is None else args.lam
    for flag, value in (("--budget", args.budget), ("--mu", mu), ("--lambda", lam)):
        if value < 1:
            raise _UsageError(f"{flag} must be >= 1, got {value}")
    if args.optimum is not None and not (math.isfinite(args.optimum) and args.optimum > 0):
        raise _UsageError(f"--optimum must be finite and > 0, got {args.optimum}")
    inst = read_instance(args.instance)
    if args.optimum is not None:
        optimum = args.optimum
    elif args.no_oracle:
        optimum = None
    else:
        res = strongest_oracle(inst)
        optimum = None if res is None else res.optimum_value
    instance_id = args.instance
    record = run_single(
        inst, instance_id, args.algorithm, mu, lam, args.mutation or MUTATIONS[0],
        args.budget, args.seed, optimum,
    )
    sys.stdout.write(format_csv([record]))
    return 0


def cmd_oracle(args) -> int:
    if args.tour_out:
        _check_out(args.tour_out, "--tour-out")
    inst = read_instance(args.instance)
    fn = {
        "brute": brute_force_optimum,
        "held_karp": held_karp_optimum,
        "hull_order": hull_order_optimum,
    }[args.method]
    result = fn(inst)
    print(f"optimum={result.optimum_value!r} method={result.method}")
    if args.tour_out:
        write_tour(result.optimum_tour, args.tour_out)
    return 0


def cmd_experiment(args) -> int:
    cfg = parse_config(args.config)
    _check_out(cfg.out, "out")
    records, summary = run_experiment(cfg)
    write_csv(records, cfg.out)
    print(f"wrote {len(records)} runs to {cfg.out}")
    print(summary)
    return 0


def cmd_mutation_stats(args) -> int:
    e = mutation_statistics(args.n, args.samples, args.seed)
    print(f"n={e['n']} samples={e['samples']} seed={e['seed']}")
    for name in ("p_one_inversion", "p_two_inversions", "p_four_inversions", "mixed_inversion_branch"):
        target = e[f"{name}_target"]
        dev = abs(e[name] - target)
        print(f"{name}={e[name]!r} target={target!r} abs_dev={dev!r}")
    print(
        f"chi_square_stat={e['chi_square_stat']!r} df={e['chi_square_df']} "
        f"pvalue={e['chi_square_pvalue']!r} single_inversion_samples={e['single_inversion_samples']}"
    )
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (TsplabError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 1)


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
