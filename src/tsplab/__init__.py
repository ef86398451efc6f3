"""tsplab: Euclidean TSP search laboratory.

Randomized local search and (mu+lambda) evolutionary heuristics on
planar grid instances, the exact geometry underneath them (orientation,
crossings, convex hull, angle bounds), desk-scale exact oracles, and a
deterministic experiment harness.
"""

from .errors import (
    CollinearTripleError,
    DuplicatePointError,
    GenerationExhaustedError,
    ParseError,
    TooLargeError,
    TooSmallError,
    TsplabError,
)
from .geom import (
    InstanceMetrics,
    Point,
    convex_hull,
    distance,
    gamma_of,
    grid_angle_lower_bound,
    instance_metrics,
    orient,
    segments_properly_intersect,
)
from .instance import (
    Instance,
    generate_convex,
    generate_grid,
    generate_with_inner,
    read_instance,
    read_tour,
    validate,
    write_instance,
    write_tour,
)
from .oracle import (
    OracleResult,
    brute_force_optimum,
    enumerate_intersection_free,
    held_karp_optimum,
    hull_order_optimum,
    jumps_to_optimum,
)
from .rng import Xoshiro256StarStar
from .search import (
    MUTATIONS,
    Trajectory,
    run_ea,
    run_rls,
)
from .tour import (
    Tour,
    apply_inversion,
    apply_jump,
    canonical_form,
    crossing_pairs,
    find_uncrossing_inversion,
    is_intersection_free,
    is_two_opt_local_optimum,
    jump_as_inversions,
    respects_hull_order,
    tour_length,
)

__version__ = "0.1.0"
