"""Instance construction: validated point sets, generators, file I/O.

Generators are pure functions of their arguments and seed: all sampling
decisions are integer draws from the package RNG, so reruns reproduce
instances exactly. Generators reject candidate points that would create
duplicates or collinear triples and give up honestly after a fixed
number of draws.
"""

from __future__ import annotations

import math
import operator
import re
from functools import cached_property
from itertools import chain
from typing import Sequence

import numpy as np

from .errors import (
    CollinearTripleError,
    DuplicatePointError,
    GenerationExhaustedError,
    ParseError,
    TooSmallError,
)
from .geom import Point, convex_hull, instance_metrics, point_strictly_inside
from .geom import _ROWS, _exact_coords, collinear_with_any, first_collinear_triple
from .rng import Xoshiro256StarStar

# total point draws a generator may spend before giving up
RETRY_BUDGET = 10**6

# |coordinate| < 2^31. Differences then reach 2^32 - 2 and cross products
# about 2^65, so 64-bit integers are not enough: the exact predicates run
# on Python ints, and the numpy set-up code (geom._exact_coords) on int64
# only when the coordinate span is below 2^30, on Python ints otherwise.
_COORD_LIMIT = 2**31


class Instance:
    """Validated planar point set with derived hull data.

    Immutable after construction; metrics, coords, the read-only numpy
    distance_array and the distance_matrix tuple of its floats are
    computed lazily and cached. Build instances through validate() or a
    generator, not directly.
    """

    def __init__(self, points: tuple[Point, ...], grid_size: int, hull: tuple[int, ...]):
        self.points = points
        self.grid_size = grid_size
        self.hull = hull
        hull_set = set(hull)
        self.inner_labels = tuple(p.id for p in points if p.id not in hull_set)

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def inner_count(self) -> int:
        return len(self.inner_labels)

    @cached_property
    def metrics(self):
        return instance_metrics(self.points, self.distance_array)

    @cached_property
    def distance_matrix(self) -> tuple[float, ...]:
        """Flat row-major n*n matrix indexed by 0-based labels: the floats
        of distance_array, with entries (i, j) and (j, i) one float object,
        so that the tuple holds n(n-1)/2 + 1 floats, not n^2."""
        d = self.distance_array
        upper = [[0.0] * (i + 1) + d[i, i + 1 :].tolist() for i in range(len(d))]
        # row i: column i of upper left of the diagonal, row i of upper from it
        rows = (chain(col[:i], row[i:]) for i, (col, row) in enumerate(zip(zip(*upper), upper)))
        return tuple(chain.from_iterable(rows))

    @cached_property
    def distance_array(self) -> np.ndarray:
        """Read-only (n, n) float64 array of the Euclidean distances,
        indexed by 0-based labels, built _ROWS rows at a time.

        Each squared distance is summed exactly (geom._exact_coords),
        rounded once to float64 and square-rooted by IEEE sqrt; both steps
        are correctly rounded, as in math.sqrt of a Python int, so each
        entry is the float geom.distance returns.
        """
        n = len(self.points)
        xy = _exact_coords([p.x for p in self.points], [p.y for p in self.points])
        d = np.empty((n, n))
        for r in range(0, n, _ROWS):
            dxy = xy[:, r : r + _ROWS, None] - xy[:, None, :]
            np.sqrt((dxy * dxy).sum(axis=0).astype(np.float64), out=d[r : r + _ROWS])
        d.flags.writeable = False
        return d

    @cached_property
    def coords(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(xs, ys) indexed by 0-based label."""
        return tuple(p.x for p in self.points), tuple(p.y for p in self.points)

    def point(self, label: int) -> Point:
        if not 1 <= label <= len(self.points):
            raise ValueError(f"label must be in 1..{len(self.points)}, got {label}")
        return self.points[label - 1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Instance):
            return NotImplemented
        return (
            self.grid_size == other.grid_size
            and [(p.x, p.y) for p in self.points] == [(p.x, p.y) for p in other.points]
        )

    def __repr__(self) -> str:
        return f"Instance(n={self.n}, m={self.grid_size}, k={self.inner_count})"


def _check_coordinate(x: int, y: int, grid_size: int, error=ValueError, where: str = "") -> None:
    if not (-_COORD_LIMIT < x < _COORD_LIMIT and -_COORD_LIMIT < y < _COORD_LIMIT):
        raise error(f"{where}coordinate ({x}, {y}) outside 32-bit signed range")
    if grid_size > 0 and not (0 <= x < grid_size and 0 <= y < grid_size):
        raise error(f"{where}coordinate ({x}, {y}) outside {grid_size}x{grid_size} grid")


def validate(points: Sequence, grid_size: int = 0) -> Instance:
    """Check a point sequence and build an Instance.

    Accepts Point objects or (x, y) pairs; labels are assigned 1..n in
    input order. Coordinates are taken through operator.index, so numpy
    integers become Python ints before any exact geometry runs; anything
    else that is not an integer raises ValueError. Raises TooSmallError,
    DuplicatePointError, or CollinearTripleError on the first violation
    found.
    """
    if len(points) < 3:
        raise TooSmallError(f"need at least 3 points, got {len(points)}")
    pts = []
    for idx, p in enumerate(points):
        if isinstance(p, Point):
            x, y = p.x, p.y
        else:
            x, y = p
        try:
            x, y = operator.index(x), operator.index(y)
        except TypeError:
            raise ValueError(f"point {idx + 1}: coordinate ({x!r}, {y!r}) is not an integer") from None
        _check_coordinate(x, y, grid_size)
        pts.append(Point(idx + 1, x, y))
    seen: dict[tuple[int, int], int] = {}
    for p in pts:
        key = (p.x, p.y)
        if key in seen:
            raise DuplicatePointError(seen[key], p.id)
        seen[key] = p.id
    triple = first_collinear_triple([(p.x, p.y) for p in pts])
    if triple is not None:
        raise CollinearTripleError(*(i + 1 for i in triple))
    hull = convex_hull(pts)
    return Instance(tuple(pts), grid_size, hull)


def _place_points(coords: list, count: int, m: int, rng: Xoshiro256StarStar, admissible, what: str) -> None:
    """Append uniform draws on the m x m grid to coords until it holds
    count points, rejecting taken cells and those not admissible(cand).

    Gives up after RETRY_BUDGET draws, or at once when, after m^2
    rejections in a row, a scan of the free cells (no draws) finds none
    admissible."""
    taken = set(coords)
    draws = rejected = 0
    while len(coords) < count:
        if draws >= RETRY_BUDGET:
            raise GenerationExhaustedError(f"could not place {what} within {RETRY_BUDGET} draws")
        cand = (rng.randbelow(m), rng.randbelow(m))
        draws += 1
        if cand in taken or not admissible(cand):
            rejected += 1
            if rejected == m * m and not any(
                admissible((x, y)) for x in range(m) for y in range(m) if (x, y) not in taken
            ):
                raise GenerationExhaustedError(
                    f"could not place {what}: no free cell is admissible after {len(coords)} points"
                )
            continue
        rejected = 0
        coords.append(cand)
        taken.add(cand)


def _check_side(m: int) -> None:
    """Reject a grid side whose cells reach a coordinate of 2^31, before
    any draw: the coordinates of an m x m grid are 0..m-1."""
    if m > _COORD_LIMIT:
        raise ValueError(f"grid side m must be <= 2^31, got m={m}")


def generate_grid(n: int, m: int, seed: int) -> Instance:
    """n distinct points uniform on the m x m grid, no three collinear.

    Candidates violating distinctness or collinearity are rejected and
    redrawn one at a time, by _place_points. Deterministic given the
    seed."""
    if m < 3:
        raise ValueError(f"grid side must be >= 3, got {m}")
    _check_side(m)
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    coords: list[tuple[int, int]] = []
    what = f"{n} collinear-free points on a {m}x{m} grid"
    _place_points(coords, n, m, Xoshiro256StarStar(seed), lambda c: not collinear_with_any(coords, c), what)
    return validate(coords, grid_size=m)


# jitter resolution for convex placement; the draw itself is an integer
_JITTER_STEPS = 1 << 20


def _convex_instance(n: int, m: int, rng: Xoshiro256StarStar) -> Instance:
    """Place n grid points in convex position near a circle.

    Each point sits at an equally spaced angle plus a jitter of at most
    pi/(4n), rounded to the grid. The first offending point, as validate
    finds it, is redrawn until the configuration is strictly convex or
    the retry budget runs out: the later point of a duplicate, the last
    of a collinear triple, else the first point off the hull. Returns
    the validated instance.
    """
    radius = (m - 1) / 2.0
    center = (m - 1) / 2.0
    span = math.pi / (4.0 * n)
    base = [2.0 * math.pi * i / n for i in range(n)]

    def draw(i: int) -> tuple[int, int]:
        # jitter in [-span, span], decided by an integer draw
        j = rng.randbelow(2 * _JITTER_STEPS + 1) - _JITTER_STEPS
        theta = base[i] + span * (j / _JITTER_STEPS)
        x = math.floor(center + radius * math.cos(theta) + 0.5)
        y = math.floor(center + radius * math.sin(theta) + 0.5)
        return (x, y)

    coords = [draw(i) for i in range(n)]
    draws = n
    while True:
        try:
            inst = validate(coords, grid_size=m)
        except DuplicatePointError as exc:
            bad = exc.labels[1] - 1
        except CollinearTripleError as exc:
            bad = exc.labels[2] - 1
        else:
            hull = set(inst.hull)
            bad = next((i for i in range(n) if i + 1 not in hull), None)
            if bad is None:
                return inst
        if draws >= RETRY_BUDGET:
            raise GenerationExhaustedError(
                f"could not place {n} convex grid points on a {m}x{m} grid "
                f"within {RETRY_BUDGET} draws"
            )
        coords[bad] = draw(bad)
        draws += 1


def generate_convex(n: int, m: int, seed: int) -> Instance:
    """Instance with every point a hull vertex (inner_count = 0).

    Requires m >= 8n of grid headroom; that is a documented heuristic,
    and the generator reports failure honestly if placement stalls.
    """
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    if m < 8 * n:
        raise ValueError(f"convex placement needs m >= 8n (m={m}, n={n})")
    _check_side(m)
    return _convex_instance(n, m, Xoshiro256StarStar(seed))


def generate_with_inner(h: int, k: int, m: int, seed: int) -> Instance:
    """Instance with exactly h hull vertices and k strictly interior points.

    The hull part follows the convex generator; interior candidates are
    rejection-sampled by _place_points against containment, distinctness,
    and collinearity with all previously placed points. Interior points
    cannot change the hull, so the hull count stays exactly h.
    """
    if h < 3:
        raise ValueError(f"need h >= 3 hull points, got {h}")
    if k < 0:
        raise ValueError(f"need k >= 0 inner points, got {k}")
    if m < 8 * h:
        raise ValueError(f"convex placement needs m >= 8h (m={m}, h={h})")
    _check_side(m)
    rng = Xoshiro256StarStar(seed)
    hull_pts = _convex_instance(h, m, rng).points
    coords = [(p.x, p.y) for p in hull_pts]

    def admissible(cand: tuple[int, int]) -> bool:
        return point_strictly_inside(hull_pts, Point(0, *cand)) and not collinear_with_any(coords, cand)

    _place_points(coords, h + k, m, rng, admissible, f"{k} interior points")
    return validate(coords, grid_size=m)


_ASCII_INT = re.compile(r"[+-]?[0-9]+")


def parse_int(text: str, error: str) -> int:
    """The integer spelled by ASCII digits with an optional sign.

    int() alone also takes underscores ('1_0'), non-ASCII digits ('٦٤',
    '５') and surrounding whitespace; anything but sign and digits raises
    ParseError(error), so callers name the line in `error`.
    """
    if _ASCII_INT.fullmatch(text) is None:
        raise ParseError(error)
    try:
        return int(text)
    except ValueError as exc:  # beyond int()'s digit limit
        raise ParseError(error) from exc


def write_instance(instance: Instance, path) -> None:
    """Write the text format: 'n m' header then one 'x y' row per point."""
    lines = [f"{instance.n} {instance.grid_size}"]
    lines.extend(f"{p.x} {p.y}" for p in instance.points)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def read_instance(path) -> Instance:
    """Read and validate an instance file. Raises ParseError on malformed
    input and the usual validation errors on bad geometry."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = fh.read()
    lines = raw.splitlines()
    if not lines:
        raise ParseError("empty instance file")
    header = lines[0].split()
    if len(header) != 2:
        raise ParseError(f"header must be 'n m', got {lines[0]!r}")
    bad = f"line 1: non-integer header: {lines[0]!r}"
    n, m = parse_int(header[0], bad), parse_int(header[1], bad)
    if m < 0:
        raise ParseError(f"grid size must be >= 0, got {m}")
    rows = lines[1:]
    found = sum(1 for ln in rows if ln.strip())
    if found != n:
        raise ParseError(f"expected {n} coordinate rows, found {found}")
    coords = []
    for row, ln in enumerate(rows, start=2):
        if not ln.strip():
            raise ParseError(f"line {row}: blank line")
        parts = ln.split()
        if len(parts) != 2:
            raise ParseError(f"line {row}: expected 'x y', got {ln!r}")
        bad = f"line {row}: non-integer coordinate in {ln!r}"
        x, y = parse_int(parts[0], bad), parse_int(parts[1], bad)
        _check_coordinate(x, y, m, ParseError, f"line {row}: ")
        coords.append((x, y))
    return validate(coords, grid_size=m)


def write_tour(tour: Sequence[int], path) -> None:
    """Write a tour as one line of space-separated 1-based labels."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(" ".join(str(v) for v in tour) + "\n")


def read_tour(path) -> tuple[int, ...]:
    """Read a tour file and check it is a permutation of 1..n."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = fh.read()
    labels: list[int] = []
    for row, ln in enumerate(raw.splitlines(), start=1):
        bad = f"line {row}: non-integer label in tour file {path}: {ln!r}"
        labels.extend(parse_int(v, bad) for v in ln.split())
    if not labels:
        raise ParseError("empty tour file")
    if sorted(labels) != list(range(1, len(labels) + 1)):
        raise ParseError("tour file is not a permutation of 1..n")
    return tuple(labels)
